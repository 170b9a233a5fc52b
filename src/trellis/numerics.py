"""Small numerical kernels shared across the package.

Bessel evaluations use a power series on |x| <= 15 and the standard
asymptotic forms beyond; quadrature is composite Simpson with adaptive
interval doubling.
"""

import numpy as np

# Sentinel for log(0); large negative but safe to add/subtract in float64.
LOG0 = -1.0e10

_BESSEL_SWITCH = 15.0


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

    small = x <= _BESSEL_SWITCH
    if np.any(small):
        xs = x[small]
        q = xs * xs / 4.0
        term = np.ones_like(xs)
        acc = np.ones_like(xs)
        for j in range(1, 80):
            term = term * q / (j * j)
            acc += term
            if np.all(term < 1e-18 * acc):
                break
        out[small] = np.log(acc)
    if np.any(~small):
        xl = x[~small]
        # correction series 1 + sum_k prod(2j-1)^2 / (k! (8x)^k); truncated
        # where the divergent tail turns, well below 1e-13 at the switch
        term = np.ones_like(xl)
        acc = np.ones_like(xl)
        for k in range(1, 30):
            term = term * (2 * k - 1) ** 2 / (k * 8.0 * xl)
            acc += term
            if np.all(term < 1e-16 * acc):
                break
        out[~small] = xl - 0.5 * np.log(2.0 * np.pi * xl) + np.log(acc)
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


def adaptive_simpson_1d(f, a, b, rtol=1e-8, n0=64, n_max=1 << 16):
    """Doubles the Simpson interval count until the relative change < rtol."""
    n = n0
    prev = simpson_1d(f, a, b, n)
    while n < n_max:
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


def adaptive_simpson_2d(f, ax, bx, ay, by, rtol=1e-8, atol=0.0, n0=64, n_max=2048):
    """Tensor Simpson with interval-count doubling until the change is small.

    Stops once |cur - prev| <= max(rtol * |cur|, atol); a non-zero atol
    lets negligible panels of a tiled integral converge without chasing
    relative accuracy on mass that cannot matter.
    """
    n = n0
    prev = simpson_2d(f, ax, bx, ay, by, n)
    while n < n_max:
        n *= 2
        cur = simpson_2d(f, ax, bx, ay, by, n)
        if abs(cur - prev) <= max(rtol * max(abs(cur), 1e-300), atol):
            return cur
        prev = cur
    raise RuntimeError("2-D Simpson did not converge to rtol=%g" % rtol)


def log_normalize(logw):
    """Normalize log weights into probabilities along the last axis (stable).

    Each row is shifted by its own maximum and summed along the
    contiguous last axis, so a row of a stacked call equals the call on
    that row alone, bit for bit.
    """
    logw = np.asarray(logw, dtype=float)
    w = logw - np.max(logw, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.sum(w, axis=-1, keepdims=True)
    return w
