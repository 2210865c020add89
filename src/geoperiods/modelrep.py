"""Line and circle models of the spherical principal series.

The representation with parameter lam (purely imaginary for the unitary
principal series, eigenvalue mu = (1-lam^2)/4) is realized on functions on
the line; the rotation-invariant unit vector is (1+x^2)^{(lam-1)/2}.  The
diagonal-equivariant functionals carry kernels |x|^{-1/2-lam/2+s/2}; their
values on the rotation-invariant vector have the Gamma closed form

    b(s) = Gamma((1-lam+s)/4) Gamma((1-lam-s)/4) / Gamma((1-lam)/2),

which density_b walks along the character lattice of a closed geodesic.
density_c computes the rotation-type matrix coefficients of a circle by
periodic quadrature.  test_vector builds the concentrated bump vectors
whose norms grow linearly while the functional values stay bounded below.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import quad
from .eigen import _atomic_write
from .hypgeom import GroupElement
from .specfun import DomainError, log_gamma

__all__ = [
    "SpectralParam",
    "ModelVector",
    "DegenerateCircleError",
    "k_fixed_vector",
    "pi_action",
    "k_fixed_functional",
    "model_functional",
    "DensityTable",
    "density_b",
    "density_c",
    "circle_edge_constant",
    "circle_log_jacobian",
    "test_vector",
    "bump",
    "BUMP_SQ_INTEGRAL",
    "C1_NORM_SLOPE",
    "vector_norm_sq",
    "fit_regime_constants",
    "check_regime_envelopes",
    "density_to_csv",
]


class DegenerateCircleError(Exception):
    pass


@dataclass(frozen=True)
class SpectralParam:
    """Representation parameter lam and the eigenvalue mu = (1-lam^2)/4."""

    lam: complex
    mu: complex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", (1.0 - self.lam * self.lam) / 4.0)

    @property
    def is_principal(self) -> bool:
        return abs(self.lam.real) <= 1e-14

    @classmethod
    def from_r(cls, r: float) -> "SpectralParam":
        """Spectral radius convention mu = 1/4 + r^2, i.e. lam = 2ir."""
        return cls(lam=2j * r)

    @property
    def abs_lam(self) -> float:
        return abs(self.lam)


@dataclass(frozen=True)
class ModelVector:
    """A vector in the line or circle realization.

    ``evaluator`` maps a float array to complex values.  ``decay_exponent``
    declares the |x| -> inf behaviour of a line vector (lam - 1 for
    vectors reaching the rotation-invariant ray); ``support`` marks compact
    support; ``phase_bandwidth`` bounds the evaluator's own oscillation in
    d/d(ln x) units, which the functional quadrature must resolve.
    """

    param: SpectralParam
    kind: str                       # "line" or "circle"
    evaluator: Callable
    even: bool = False
    decay_exponent: Optional[complex] = None
    support: Optional[tuple] = None
    k_fixed: bool = False
    phase_bandwidth: float = 0.0

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


def k_fixed_vector(param: SpectralParam) -> ModelVector:
    """The rotation-invariant unit vector (1+x^2)^{(lam-1)/2}.

    Unit in the circle-model norm (1/2pi) int |f|^2 dphi; the normalization
    constant is exactly 1 because the plane-model function is 1 on the
    unit circle.
    """
    if not param.is_principal:
        raise DomainError("k_fixed_vector: only principal-series parameters "
                          f"(Re lam = 0) are supported, got lam={param.lam}")
    lam = param.lam

    def ev(x):
        return np.exp(0.5 * (lam - 1.0) * np.log1p(x * x))

    return ModelVector(param=param, kind="line", evaluator=ev, even=True,
                       decay_exponent=lam - 1.0, k_fixed=True,
                       phase_bandwidth=abs(lam))


def pi_action(param: SpectralParam, g: GroupElement, v: ModelVector) -> ModelVector:
    """Line-model action: (pi(g)v)(x) = |c'x+d'|^{lam-1} v((a'x+b')/(c'x+d'))
    with [a' b'; c' d'] = g^{-1} (|det| = 1 representatives)."""
    if v.kind != "line":
        raise ValueError("pi_action expects a line-model vector")
    if v.param != param:
        raise ValueError("pi_action: representation parameter mismatch")
    lam = param.lam
    gi = g.inv()
    a, b, c, d = gi.mat.ravel()

    ev_old = v.evaluator

    def ev(x):
        den = c * x + d
        num = a * x + b
        with np.errstate(divide="ignore", invalid="ignore"):
            y = num / den
            out = np.exp((lam - 1.0) * np.log(np.abs(den))) * ev_old(y)
        return np.where(np.abs(den) < 1e-300, 0.0, out)

    is_diag = abs(g.mat[0, 1]) < 1e-14 and abs(g.mat[1, 0]) < 1e-14
    support = None
    if v.support is not None and abs(g.mat[1, 0]) < 1e-14:
        # support moves forward by the boundary action of g itself
        ag, bg, _, dg = g.mat.ravel()
        lo, hi = sorted(((ag * v.support[0] + bg) / dg,
                         (ag * v.support[1] + bg) / dg))
        if lo > 0:
            support = (lo, hi)
    return ModelVector(param=param, kind="line", evaluator=ev,
                       even=v.even and is_diag,
                       decay_exponent=v.decay_exponent,
                       support=support, k_fixed=False,
                       phase_bandwidth=v.phase_bandwidth)


# ---------------------------------------------------------------------------


def k_fixed_functional(param: SpectralParam, step: float, ns) -> np.ndarray:
    """The functional on the rotation-invariant vector at s = i step n for
    every integer n in ``ns``.

    After x = e^u the integrand is 2 (2 cosh u)^{(lam-1)/2} e^{i sigma u/2},
    analytic and decaying like e^{-|u|/2}, so the trapezoid sum on the
    centred grid u_j = j h is spectrally accurate.  h = 2 pi / (dw M) with
    dw = |step|/2 makes every lattice phase the exact M-th root of unity
    e^{2 pi i n j / M}: the samples fold into M bins by j mod M and one
    inverse FFT of size M gives every entry, with no large phase rounded.
    """
    ns = np.asarray(ns, dtype=np.int64)
    dw = abs(float(step)) / 2.0
    band = dw * np.max(np.abs(ns), initial=0)
    # the transform of (2 cosh u)^{(lam-1)/2} falls like e^{-pi w/2} past
    # w = |lam|/2, so 24 more units put every alias below 1e-16
    width = band + abs(param.lam) / 2.0 + 24.0
    if band == 0.0:
        dw = width                      # every character is trivial: one bin
    M = int(np.ceil(width / dw))
    h = 2.0 * np.pi / (dw * M)
    # truncate where the amplitude (2 cosh u)^{-1/2} drops below 1e-16
    J = int(np.ceil(2.0 * np.log(1e16) / h))
    j = np.arange(-J, J + 1)
    au = np.abs(j * h)
    g = np.exp(0.5 * (param.lam - 1.0) * (au + np.log1p(np.exp(-2.0 * au))))
    if M <= len(j):
        r = j % M
        folded = (np.bincount(r, weights=g.real, minlength=M)
                  + 1j * np.bincount(r, weights=g.imag, minlength=M))
        sums = M * np.fft.ifft(folded)[ns % M]
    else:
        # fewer samples than bins (a short lattice step): sum directly
        sums = np.exp(0.5j * float(step) * np.outer(ns, j * h)) @ g
    return 2.0 * h * sums


def model_functional(param: SpectralParam, s: complex, v: ModelVector):
    """Equivariant functional: int_R |x|^{-1/2-lam/2+s/2} v(x) dx.

    Unitary characters only (Re s = 0).  The rotation-invariant vector
    goes through ``k_fixed_functional`` as a one-point lattice; compactly
    supported vectors off the kernel singularity use direct oscillatory
    panels, and other vectors a logarithmic substitution.
    """
    s = complex(s)
    if abs(s.real) > 1e-12:
        raise DomainError("model_functional: unitary characters only (Re s = 0)")
    beta = 0.5 * (s.imag - param.lam.imag)

    if v.k_fixed:
        return k_fixed_functional(param, s.imag, [1 if s.imag else 0])[0]
    if v.support is not None and v.support[0] > 0:
        # kernel |x|^{-1/2} e^{i beta ln x} times (v(x)+v(-x)) on the support
        lo, hi = v.support
        fmax = (abs(beta) * max(1.0 / lo, 1.0) + v.phase_bandwidth) / (2 * np.pi)

        def amp_ph(x):
            vals = v(x) + (v(x) if v.even else v(-x))
            amp = np.abs(vals) / np.sqrt(x)
            return amp, beta * np.log(x) + np.angle(vals + 0j)

        return quad.oscillatory_integral(amp_ph, lo, hi, fmax).value
    # generic: x = e^u on each half line, u in [-60, 50]
    fmax = (abs(beta) + v.phase_bandwidth) / (2 * np.pi)

    def amp_ph(u):
        x = np.exp(u)
        vals = v(x) + (v(x) if v.even else v(-x))
        w = np.exp(0.5 * u) * vals
        return np.abs(w), beta * u + np.angle(w + 0j)

    return quad.oscillatory_integral(amp_ph, -60.0, 50.0, max(fmax, 0.5)).value


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityTable:
    """Functional values indexed by the integer character lattice.

    ``sigma`` holds the per-entry frequency coordinate (the imaginary part
    of the kernel parameter s_n for geodesics, 2 pi n for circles);
    ``log_abs2`` carries log |entry|^2 even where the entry underflows.
    ``regime`` tags bulk / transition / tail with the boundary constants
    recorded in ``meta``.
    """

    kind: str                           # "geodesic-b" or "circle-c"
    param: SpectralParam
    n_values: np.ndarray
    entries: np.ndarray                 # complex, aligned with n_values
    sigma: np.ndarray
    log_abs2: np.ndarray
    regime: list
    meta: dict

    def entry(self, n: int) -> complex:
        i = int(n) - int(self.n_values[0])
        if not (0 <= i < len(self.n_values)):
            raise KeyError(f"n={n} outside table range")
        return complex(self.entries[i])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def index_symmetric(self, tol=1e-9) -> bool:
        """entry(-n) == entry(n): the kernel frequency enters through its
        square for geodesics, and the circle Jacobian is even in theta."""
        n0, n1 = int(self.n_values[0]), int(self.n_values[-1])
        ok = True
        for n in self.n_values:
            if -n < n0 or -n > n1:
                continue
            ok &= abs(self.entry(int(n)) - self.entry(int(-n))) <= \
                tol * max(1.0, abs(self.entry(int(n))))
        return bool(ok)


# half-width of the transition regime, as a fraction of the edge frequency
_SIGMA_FRAC = 0.1


def _regime_tag(sig, abs_lam):
    if sig <= (1.0 - _SIGMA_FRAC) * abs_lam:
        return "bulk"
    if sig < (1.0 + _SIGMA_FRAC) * abs_lam:
        return "transition"
    return "tail"


def density_b(param: SpectralParam, q: float, n_range,
              lattice_step=None) -> DensityTable:
    """Geodesic spectral density along the character lattice.

    The lattice step (imaginary part of s per unit n) defaults to 2 pi q,
    the spacing that makes the character trivial on the cyclic group
    generated by diag(a, 1/a) with q = 1/ln a; pass ``lattice_step`` to
    explore other conventions.  Entries are evaluated through log-gamma so
    the table stays meaningful deep into the exponential tail.
    """
    if not param.is_principal:
        raise DomainError("density_b requires a principal-series parameter")
    if q <= 0:
        raise ValueError("q must be positive")
    step = 2.0 * np.pi * q if lattice_step is None else float(lattice_step)
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    ns = np.arange(n_lo, n_hi + 1)
    lam = param.lam
    sig = step * ns
    zp = (1.0 - lam + 1j * sig) / 4.0
    zm = (1.0 - lam - 1j * sig) / 4.0
    zd = (1.0 - lam) / 2.0
    lg = log_gamma(zp) + log_gamma(zm) - log_gamma(zd)
    entries = np.exp(lg)
    log_abs2 = 2.0 * lg.real
    abs_sig = np.abs(sig)
    regime = [_regime_tag(s_, param.abs_lam) for s_ in abs_sig]
    return DensityTable(kind="geodesic-b", param=param, n_values=ns,
                        entries=entries, sigma=abs_sig, log_abs2=log_abs2,
                        regime=regime,
                        meta={"q": q, "lattice_step": step,
                              "sigma_frac": _SIGMA_FRAC,
                              "step_over_q": step / q})


def circle_log_jacobian(g: GroupElement):
    """Returns W(theta) = |g^{-1} v(2 pi theta)|^2 as a vectorized callable;
    exp of the circle-map log-Jacobian along the orbit parametrization."""
    gi = g.inv().mat

    def W(theta):
        phi = 2.0 * np.pi * np.asarray(theta, dtype=float)
        c, s_ = np.cos(phi), np.sin(phi)
        x = gi[0, 0] * c + gi[0, 1] * s_
        y = gi[1, 0] * c + gi[1, 1] * s_
        return x * x + y * y

    return W


def circle_edge_constant(g: GroupElement, grid=65536) -> float:
    """Max of |d/dtheta log W| / 2: stationary points of the circle phase
    (lam/2) log W(theta) - 2 pi n theta exist iff |2 pi n| <= c |lam|."""
    W = circle_log_jacobian(g)
    th = np.arange(grid) / grid
    lw = np.log(W(th))
    d = (np.roll(lw, -1) - np.roll(lw, 1)) * (grid / 2.0)
    return 0.5 * float(np.max(np.abs(d)))


def density_c(param: SpectralParam, g: GroupElement, n_range) -> DensityTable:
    """Circle spectral density: Fourier coefficients of W^{(lam-1)/2}.

    W is pi-periodic in the geometric angle, so the full theta-loop (which
    covers the circle twice) has vanishing odd coefficients.  Regime tags
    use the measured edge constant c: bulk below 0.9 c|lam|, tail above
    1.1 c|lam| in the |2 pi n| coordinate.
    """
    if g.fixes_i(1e-12):
        raise DegenerateCircleError("radius element lies in the rotation "
                                    "subgroup: circle degenerates to a point")
    if not param.is_principal:
        raise DomainError("density_c requires a principal-series parameter")
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    n_max = max(abs(n_lo), abs(n_hi), 1)
    lam = param.lam
    W = circle_log_jacobian(g)
    c_edge = circle_edge_constant(g)

    def f(theta):
        w = W(theta)
        return np.exp(0.5 * (lam - 1.0) * np.log(w))

    # resolve both the n-grid and the internal phase (lam/2) log W
    n_start = max(1024, 1 << int(np.ceil(np.log2(
        8.0 * (n_max + c_edge * param.abs_lam / (2.0 * np.pi) + 4)))))
    coeffs, err, nev = quad.periodic_fourier(f, n_max, n_start=n_start)
    ns = np.arange(n_lo, n_hi + 1)
    entries = coeffs[ns + n_max]
    sig = 2.0 * np.pi * np.abs(ns)
    with np.errstate(divide="ignore"):
        log_abs2 = 2.0 * np.log(np.abs(entries))
    regime = [_regime_tag(s_, c_edge * param.abs_lam) for s_ in sig]
    return DensityTable(kind="circle-c", param=param, n_values=ns,
                        entries=entries, sigma=sig, log_abs2=log_abs2,
                        regime=regime,
                        meta={"c_edge": c_edge, "sigma_frac": _SIGMA_FRAC,
                              "fourier_error": err, "evaluations": nev})


# ---------------------------------------------------------------------------
# fixed bump profile: exp(-1/(1-(10x)^2)) on (-0.1, 0.1), normalized to unit
# integral.  The constants are frozen so downstream norms reproduce exactly.

_BUMP_Z = 0.0443993816168079437823        # int exp(-1/(1-(10x)^2)) dx
BUMP_SQ_INTEGRAL = 6.751168130096975290   # int bump^2 dx
C1_NORM_SLOPE = 4.297927118197606196      # (2/pi) * BUMP_SQ_INTEGRAL


def bump(x):
    """Smooth nonnegative profile supported in [-0.1, 0.1], unit integral."""
    x = np.asarray(x, dtype=float)
    u = 10.0 * x
    t = 1.0 - u * u
    out = np.zeros(np.shape(x))
    inside = t > 1e-12
    out[inside] = np.exp(-1.0 / t[inside]) / _BUMP_Z
    return out


def test_vector(T: float, param: SpectralParam, profile=None) -> ModelVector:
    """Concentrated vector x -> T * bump(T(x-1)), extended evenly.

    Squared norm (1/pi) int over both humps equals C1_NORM_SLOPE * T for
    the default profile; the functional values stay bounded below for all
    kernel frequencies up to T because the kernel phase varies by less
    than 1/2 over the support.
    """
    if T < 1.0:
        raise ValueError("test_vector: T >= 1 required")
    prof = bump if profile is None else profile

    def ev(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return T * prof(T * (ax - 1.0)) + 0.0j

    lo = 1.0 - 0.1 / T
    hi = 1.0 + 0.1 / T
    return ModelVector(param=param, kind="line", evaluator=ev, even=True,
                       decay_exponent=None, support=(lo, hi), k_fixed=False,
                       phase_bandwidth=0.0)


def vector_norm_sq(v: ModelVector) -> float:
    """Unitary-model squared norm of a line vector: (1/pi) int_R |v|^2 dx
    (equals the circle-model (1/2pi) int |f|^2 dphi)."""
    if v.support is not None:
        lo, hi = v.support
        res = quad.integrate_adaptive(lambda x: np.abs(v(x)) ** 2, lo, hi)
        half = res.value.real
        other = half if v.even else quad.integrate_adaptive(
            lambda x: np.abs(v(x)) ** 2, -hi, -lo).value.real
        return float((half + other) / np.pi)
    # map the line to a bounded interval through x = tan(t)
    def h(t):
        x = np.tan(t)
        return np.abs(v(x)) ** 2 / np.cos(t) ** 2

    res = quad.integrate_adaptive(h, -np.pi / 2 + 1e-12, np.pi / 2 - 1e-12)
    return float(res.value.real / np.pi)


# ---------------------------------------------------------------------------


def fit_regime_constants(table: DensityTable) -> dict:
    """Envelope constants (log scale) from one table: bulk |b|^2 <= c1/|lam|,
    transition <= c2/sqrt|lam|, tail <= c3 e^{-sigma/10}."""
    out = {"bulk": -np.inf, "transition": -np.inf, "tail": -np.inf}
    for l2, sig, tag in zip(table.log_abs2, table.sigma, table.regime):
        if not np.isfinite(l2):
            continue
        if tag == "bulk":
            out["bulk"] = max(out["bulk"], l2 + np.log(table.param.abs_lam))
        elif tag == "transition":
            out["transition"] = max(out["transition"],
                                    l2 + 0.5 * np.log(table.param.abs_lam))
        else:
            out["tail"] = max(out["tail"], l2 + 0.1 * sig)
    return out


def check_regime_envelopes(table: DensityTable, constants: dict,
                           slack=2.0) -> dict:
    """Check every entry of ``table`` against envelope constants fitted on
    another table; returns per-regime worst log-slack (<= log(slack) passes)."""
    log_slack = np.log(slack)
    worst = {"bulk": -np.inf, "transition": -np.inf, "tail": -np.inf}
    for l2, sig, tag in zip(table.log_abs2, table.sigma, table.regime):
        if not np.isfinite(l2):
            continue
        if tag == "bulk":
            excess = l2 + np.log(table.param.abs_lam) - constants["bulk"]
        elif tag == "transition":
            excess = l2 + 0.5 * np.log(table.param.abs_lam) - constants["transition"]
        else:
            excess = l2 + 0.1 * sig - constants["tail"]
        worst[tag] = max(worst[tag], excess)
    passed = all(w <= log_slack for w in worst.values())
    return {"passed": passed, "worst_log_excess": worst,
            "allowed_log_slack": log_slack}


def density_to_csv(table: DensityTable, path):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "Re", "Im", "abs2", "regime"])
    for n, e, tag in zip(table.n_values, table.entries, table.regime):
        w.writerow([int(n), format(e.real, ".17g"), format(e.imag, ".17g"),
                    format(abs(e) ** 2, ".17g"), tag])
    _atomic_write(path, buf.getvalue())
