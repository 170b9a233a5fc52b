"""Small numerical kernels shared across the package.

Bessel evaluations use a power series on |x| <= 15 and the standard
asymptotic forms beyond; quadrature is composite Simpson with adaptive
interval doubling.

The 2-D doubling reuses every value of the previous level, so an
integrand must be pointwise: f's value at a point may not depend on the
other points of the call. Elementwise numpy arithmetic is; so are
`bessel_i0_log` (the series terms one element runs beyond its own need
are below half an ulp of its sum) and the pe integrands.

Exponentials of shifted log weights mostly underflow at useful SNR,
and numpy 2.4.6's np.exp leaves its fast vector loop for such inputs:
on a (64, 1024) array it took 41 us for inputs in [-705, -1], 0.31 ms
for inputs below -746 and 7.6 ms for inputs in [-745, -708.5], whose
results are subnormal (2-core x86 VM). `exp_inplace` sets the entries
whose exponential rounds to +0.0 directly and passes only the rest to
np.exp, so its bits are np.exp's; with 60% of the entries below -745.2,
as in the tone posterior, it took 0.14 ms against np.exp's 0.83 ms.
On a few states it costs more than it spares (2.5 against 0.7 us at
(100, 4) with no entry underflowing), so the mean-field sweep keeps
np.exp.
"""

import numpy as np

# Sentinel for log(0); large negative but safe to add/subtract in float64.
LOG0 = -1.0e10

# exp(x) rounds to +0.0 for every float64 x below log(2**-1075) =
# -745.1332191019412..., half the smallest subnormal; this cut sits
# safely below that, so every entry above it still goes to np.exp
_EXP_ZERO_BELOW = -745.2
# the most negative finite float64: it takes -inf's place before the
# product with the 0/1 mask, where -inf * 0 would give NaN
_FLOAT_MIN = np.finfo(float).min

_BESSEL_SWITCH = 15.0
# upper edges of the |x| bands of the I0 series; the bands up to the
# switch run the power series, the rest the asymptotic correction
_I0_BANDS = (1.0, 3.0, 7.0, _BESSEL_SWITCH, 30.0, 60.0, 120.0)
_I0_SERIES_BANDS = _I0_BANDS.index(_BESSEL_SWITCH) + 1


def safe_log(x):
    """Elementwise log with log(0) mapped to the LOG0 sentinel."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, LOG0)
    pos = x > 0.0
    np.log(x, out=out, where=pos)
    return out if out.ndim else float(out)


def bessel_j0(x):
    """J0 via power series (|x| <= 15) or two-term asymptotic expansion."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(np.abs(x))  # J0 is even
    out = np.empty_like(x)

    small = x <= _BESSEL_SWITCH
    if np.any(small):
        xs = x[small]
        q = xs * xs / 4.0
        term = np.ones_like(xs)
        acc = np.ones_like(xs)
        for j in range(1, 80):
            term = term * (-q) / (j * j)
            acc += term
            if np.all(np.abs(term) < 1e-18 * np.maximum(np.abs(acc), 1.0)):
                break
        out[small] = acc
    if np.any(~small):
        xl = x[~small]
        w = xl - np.pi / 4.0
        p = 1.0 - 9.0 / (128.0 * xl * xl)
        q = -1.0 / (8.0 * xl) + 75.0 / (1024.0 * xl ** 3)
        out[~small] = np.sqrt(2.0 / (np.pi * xl)) * (np.cos(w) * p - np.sin(w) * q)
    return float(out[0]) if scalar else out


def bessel_i0_log(x):
    """log I0(x): series below the switch, exp(x)/sqrt(2*pi*x) form above."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(np.abs(x))  # I0 is even
    out = np.empty_like(x)

    # each band of |x| runs its own series, so an element stops near its
    # own need, not its array's largest; a term below 1e-18 * acc (1e-16 *
    # acc in the asymptotic series, where acc < 1.01) is under half an ulp
    # of acc, so the few terms a band runs past an element's need, or the
    # whole array would have run, leave it unchanged bit for bit
    band = np.searchsorted(_I0_BANDS, x)
    for b in range(len(_I0_BANDS) + 1):
        sel = band == b
        if not np.any(sel):
            continue
        xb = x[sel]
        term = np.ones_like(xb)
        acc = np.ones_like(xb)
        if b < _I0_SERIES_BANDS:
            q = xb * xb / 4.0
            for j in range(1, 80):
                term *= q
                term /= j * j
                acc += term
                if j % 4 == 0 and np.all(term < 1e-18 * acc):
                    break
            out[sel] = np.log(acc)
        else:
            # correction series 1 + sum_k prod(2j-1)^2 / (k! (8x)^k); truncated
            # where the divergent tail turns, well below 1e-13 at the switch
            for k in range(1, 30):
                term *= (2 * k - 1) ** 2
                term /= k * 8.0 * xb
                acc += term
                if k % 4 == 0 and np.all(term < 1e-16 * acc):
                    break
            out[sel] = xb - 0.5 * np.log(2.0 * np.pi * xb) + np.log(acc)
    return float(out[0]) if scalar else out


def simpson_weights(n):
    """Composite Simpson weights for n sub-intervals (n even), h factored out."""
    if n % 2 != 0 or n < 2:
        raise ValueError("Simpson needs an even number of sub-intervals")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def simpson_1d(f, a, b, n):
    """Composite Simpson on [a, b] with n sub-intervals; f is vectorized."""
    x = np.linspace(a, b, n + 1)
    h = (b - a) / n
    return h * np.dot(simpson_weights(n), f(x))


def adaptive_simpson_1d(f, a, b, rtol=1e-8):
    """Simpson from 64 intervals, doubled (up to 2**16) until the relative change < rtol."""
    n = 64
    prev = simpson_1d(f, a, b, n)
    while n < 1 << 16:
        n *= 2
        cur = simpson_1d(f, a, b, n)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise RuntimeError("1-D Simpson did not converge to rtol=%g" % rtol)


def simpson_2d(f, ax, bx, ay, by, n):
    """Tensor Simpson on [ax,bx] x [ay,by] with n x n sub-intervals."""
    x = np.linspace(ax, bx, n + 1)
    y = np.linspace(ay, by, n + 1)
    hx = (bx - ax) / n
    hy = (by - ay) / n
    w = simpson_weights(n)
    vals = f(x[:, None], y[None, :])
    return hx * hy * np.dot(w, np.dot(vals, w))


def _refine(f, coarse, x, y):
    """The grid on x by y (2n+1 points each) whose even rows and columns are coarse.

    linspace(a, b, 2n+1)[::2] equals linspace(a, b, n+1) bit for bit, so
    only the new points are evaluated. f gets contiguous coordinates, as
    on a fresh grid.
    """
    fine = np.empty((x.size, y.size))
    fine[::2, ::2] = coarse
    fine[1::2] = f(x[1::2].copy()[:, None], y[None, :])
    fine[::2, 1::2] = f(x[::2].copy()[:, None], y[1::2].copy()[None, :])
    return fine


def adaptive_simpson_2d(f, ax, bx, ay, by, rtol=1e-8, atol=0.0, n0=64, n_max=2048,
                        mirror=False):
    """Tensor Simpson with interval-count doubling until the change is small.

    Stops once |cur - prev| <= max(rtol * |cur|, atol); a non-zero atol
    lets negligible panels of a tiled integral converge without chasing
    relative accuracy on mass that cannot matter. Each level evaluates f
    only at the points the previous level lacks (f must be pointwise, see
    the module docstring) and sums the assembled grid as `simpson_2d`
    does, so the result equals fresh grids at every level bit for bit.

    mirror=True also integrates over the mirror rectangle [ay,by] x [ax,bx]
    from the same values and returns the pair (this, mirror). f must then
    be symmetric bit for bit, f(x, y) == f(y, x). The mirror's sums run on
    a contiguous copy of the transposed grid, as a fresh grid of that
    rectangle would be laid out, and it stops on its own.
    """
    n, vals = n0, None
    live = [0, 1] if mirror else [0]
    prev = [None, None]
    done = [None, None]
    while True:
        x = np.linspace(ax, bx, n + 1)
        y = np.linspace(ay, by, n + 1)
        vals = f(x[:, None], y[None, :]) if vals is None else _refine(f, vals, x, y)
        hx = (bx - ax) / n
        hy = (by - ay) / n
        w = simpson_weights(n)
        for i in list(live):
            grid = vals if i == 0 else np.ascontiguousarray(vals.T)
            cur = hx * hy * np.dot(w, np.dot(grid, w))
            if prev[i] is not None and \
                    abs(cur - prev[i]) <= max(rtol * max(abs(cur), 1e-300), atol):
                done[i] = cur
                live.remove(i)
            prev[i] = cur
        if not live:
            return tuple(done) if mirror else done[0]
        if n >= n_max:
            raise RuntimeError("2-D Simpson did not converge to rtol=%g" % rtol)
        n *= 2


def exp_inplace(a):
    """np.exp(a) into a, bit for bit, without np.exp's slow underflow path.

    a is a float64 array. Its entries below _EXP_ZERO_BELOW, whose
    exponential is +0.0, never reach np.exp: a 0/1 mask turns them into
    -0.0 before it (exp gives 1.0) and into +0.0 after it. Every other
    entry, NaN and the subnormal band included, is multiplied by 1.0
    twice, which keeps np.exp's own bits.
    """
    low = np.less(a, _EXP_ZERO_BELOW)
    if not low.any():  # nothing underflows, as in most AWGN likelihood blocks
        return np.exp(a, out=a)
    keep = np.logical_not(low, out=low)
    np.maximum(a, _FLOAT_MIN, out=a)
    a *= keep
    np.exp(a, out=a)
    a *= keep
    return a


def log_normalize_inplace(w):
    """Normalize log weights into probabilities along the last axis, in w.

    w is a float64 array. Each row is shifted by its own maximum and
    summed along the contiguous last axis, so a row of a stacked call
    equals the call on that row alone, bit for bit. The exponentials go
    through exp_inplace: this serves the tone kernels' (B, G)
    temporaries, most of whose shifted entries underflow. The mean-field
    marginal sweep normalizes its (B, M) rows itself, with np.exp (see
    the module docstring).
    """
    w -= np.maximum.reduce(w, axis=-1, keepdims=True)
    exp_inplace(w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    return w


def log_normalize(logw):
    """log_normalize_inplace's result in a new array; logw is not written."""
    return log_normalize_inplace(np.array(logw, dtype=float))
