"""Bivariate power-exponential density and its factored approximations.

The target is f(theta) proportional to exp(-u^2/2) with the Mahalanobis
quadratic u = theta' Sigma^{-1} theta, where Sigma has unit variances
and correlation rho; its normalizer is sqrt(2)/pi^{3/2} / sqrt(|Sigma|).
Mean-field marginals in the original axes get quartic exponents coupled
through moments of the other axis; the transformed variant decorrelates
the quadratic first (orthogonal eigenbasis or unit-triangular factor,
both unit Jacobian), runs the same scheme there and measures divergence
in that space, which makes its divergence essentially independent of
the correlation.
"""

from collections import namedtuple

import numpy as np

from .numerics import adaptive_simpson_2d, simpson_weights

PE_NORM = np.sqrt(2.0) / np.pi ** 1.5

PeModel = namedtuple("PeModel", ["Sigma", "rho", "method"])

# Beyond this |rho| the plain factorization's divergence integrand is
# too narrow along the diagonal for the 2-D Simpson rule to converge
# by its finest grid: pe_approximate(..., "vb") failed from |rho| =
# 0.99614 on, in a scan of |rho| in [0.98, 0.9962] at steps of 2e-5,
# either sign.
RHO_MAX = 0.995


def pe_model(rho, method="eigen"):
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be in (-1, 1), got %r" % (rho,))
    if abs(rho) > RHO_MAX:
        raise ValueError("rho must be in [-%r, %r], where the divergence quadrature "
                         "converges, got %r" % (RHO_MAX, RHO_MAX, rho))
    if method not in ("eigen", "ldu"):
        raise ValueError("method must be 'eigen' or 'ldu'")
    Sigma = np.array([[1.0, rho], [rho, 1.0]])
    return PeModel(Sigma, float(rho), method)


def pe_logpdf(th1, th2, model):
    """Log density, broadcastable over grids of the two coordinates."""
    H = np.linalg.inv(model.Sigma)
    u = H[0, 0] * th1 ** 2 + 2.0 * H[0, 1] * th1 * th2 + H[1, 1] * th2 ** 2
    return np.log(PE_NORM) - 0.5 * np.log(np.linalg.det(model.Sigma)) - 0.5 * u ** 2


class _GridFactor:
    """Normalized 1-D factor held as a log-density callable on its support."""

    def __init__(self, support, logf_raw):
        self.lo, self.hi = support
        self.logf_raw = logf_raw
        pts = 1601
        x = np.linspace(self.lo, self.hi, pts)
        w = simpson_weights(pts - 1) * (self.hi - self.lo) / (pts - 1)
        lv = logf_raw(x)
        peak = lv.max()
        z = float(w @ np.exp(lv - peak))
        self.log_z = peak + np.log(z)
        self._x, self._w = x, w

    def logpdf(self, x):
        return self.logf_raw(x) - self.log_z

    def moment(self, k):
        f = np.exp(self.logpdf(self._x))
        return float(self._w @ (self._x ** k * f))


def _quartic_coeffs(m1_j, m2_j, m3_j, rho):
    # exponent of the axis-i factor: -c * (t^4 + a3 t^3 + a2 t^2 + a1 t)
    c = 1.0 / (2.0 * (1.0 - rho ** 2) ** 2)
    a3 = -4.0 * rho * m1_j
    a2 = (2.0 + 4.0 * rho ** 2) * m2_j
    a1 = -4.0 * rho * m3_j
    return c, a3, a2, a1


def pe_vb(model):
    """Mean-field marginals on the original axes.

    Returns _GridFactor marginals of theta_1 and theta_2 on [-8, 8] (8 sd)
    and the moments once none moves by 1e-10; raises after 300 sweeps.
    """
    rho = model.rho
    moments = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    factors = [None, None]
    for _ in range(300):
        prev = moments.copy()
        for i in range(2):
            j = 1 - i
            c, a3, a2, a1 = _quartic_coeffs(*moments[j], rho)

            def logf(t, c=c, a3=a3, a2=a2, a1=a1):
                return -c * (t ** 4 + a3 * t ** 3 + a2 * t ** 2 + a1 * t)

            factors[i] = _GridFactor((-8.0, 8.0), logf)
            moments[i] = [factors[i].moment(k) for k in (1, 2, 3)]
        if np.max(np.abs(moments - prev)) < 1e-10:
            return factors, moments
    raise RuntimeError("quartic mean-field moments did not settle")


def _transform(model):
    """Decoupling matrix A (phi = A theta) and the diagonal weights."""
    H = np.linalg.inv(model.Sigma)
    if model.method == "eigen":
        lam, Q = np.linalg.eigh(H)
        return Q.T, lam
    u = H[0, 1] / H[0, 0]
    A = np.array([[1.0, u], [0.0, 1.0]])
    d = np.array([H[0, 0], H[1, 1] - H[0, 1] ** 2 / H[0, 0]])
    return A, d


def pe_tvb(model):
    """Mean-field in the decoupled metric.

    The transformed density is proportional to exp(-(phi' D phi)^2/2)
    with D diagonal; each factor plugs in the other axis's second
    moment. Returns the factors, second moments and diagonal weights.
    """
    _, lam = _transform(model)
    m2 = np.zeros(2)
    factors = [None, None]
    for _ in range(200):
        prev = m2.copy()
        for i in range(2):
            j = 1 - i
            cj = lam[j] * m2[j]

            def logf(t, li=lam[i], cj=cj):
                return -0.5 * (li * t ** 2 + cj) ** 2

            factors[i] = _GridFactor((-8.0 / np.sqrt(lam[i]), 8.0 / np.sqrt(lam[i])), logf)
            m2[i] = factors[i].moment(2)
        if np.max(np.abs(m2 - prev)) < 1e-12:
            return factors, m2, lam
    raise RuntimeError("transformed mean-field moments did not settle")


def _kld_2d(f1, f2, log_joint):
    def integrand(x, y):
        lf = f1.logpdf(x) + f2.logpdf(y)
        return np.exp(lf) * (lf - log_joint(x, y))

    return adaptive_simpson_2d(integrand, f1.lo, f1.hi, f2.lo, f2.hi, rtol=1e-7)


def pe_approximate(model, method="vb"):
    """Factored approximation plus its divergence from the target.

    method 'vb' factorizes the original axes; 'tvb' factorizes after
    the model's decoupling transform (divergence is measured in the
    transformed space; both transforms have unit Jacobian, so it is
    the divergence of the implied joint approximation either way).
    """
    if method == "vb":
        factors, _ = pe_vb(model)
        return factors, _kld_2d(factors[0], factors[1],
                                lambda t1, t2: pe_logpdf(t1, t2, model))
    if method == "tvb":
        factors, _, lam = pe_tvb(model)
        log_norm = np.log(PE_NORM) + 0.5 * np.log(lam[0] * lam[1])

        def log_joint(p1, p2):
            return log_norm - 0.5 * (lam[0] * p1 ** 2 + lam[1] * p2 ** 2) ** 2

        return factors, _kld_2d(factors[0], factors[1], log_joint)
    raise ValueError("method must be 'vb' or 'tvb'")
