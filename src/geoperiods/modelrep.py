"""Line and circle models of the spherical principal series.

The representation with parameter lam (purely imaginary for the unitary
principal series, eigenvalue mu = (1-lam^2)/4) is realized on functions on
the line; the rotation-invariant unit vector is (1+x^2)^{(lam-1)/2}.  The
diagonal-equivariant functionals carry kernels |x|^{-1/2-lam/2+s/2}; their
values on the rotation-invariant vector have the Gamma closed form

    b(s) = Gamma((1-lam+s)/4) Gamma((1-lam-s)/4) / Gamma((1-lam)/2),

which density_b walks along the character lattice of a closed geodesic
(k_fixed_functional computes it by quadrature; model_functional integrates
the kernels against compactly supported vectors).
density_c computes the rotation-type matrix coefficients of a circle by
periodic quadrature.  test_vector builds the concentrated bump vectors
whose norms grow linearly while the functional values stay bounded below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quad
from .eigen import _write_csv
from .hypgeom import GroupElement, hyperbolic_distance, mobius_act
from .specfun import DomainError, log_gamma

__all__ = [
    "SpectralParam",
    "ModelVector",
    "DegenerateCircleError",
    "k_fixed_functional",
    "model_functional",
    "DensityTable",
    "density_b",
    "density_c",
    "density_c_grid",
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
    """A compactly supported vector in the line realization.

    ``evaluator`` maps a float array to complex values; they vanish for
    |x| outside ``support = (lo, hi)``, 0 < lo < hi.
    """

    param: SpectralParam
    evaluator: Callable
    support: tuple

    def __post_init__(self):
        if self.support is None or not 0 < self.support[0] < self.support[1]:
            raise ValueError("ModelVector: support must be (lo, hi) with "
                             f"0 < lo < hi, got {self.support}")

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


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


def model_functional(param: SpectralParam, s, v: ModelVector):
    """Equivariant functional: int_R |x|^{-1/2-lam/2+s/2} v(x) dx.

    Unitary characters only (Re s = 0).  After x = e^u, with (v(x) + v(-x))
    folded onto the half line, one oscillatory quadrature runs over u in
    log(support) at the kernel's frequency |beta|/(2 pi), beta =
    (Im s - Im lam)/2.  The rotation-invariant vector, which has no
    compact support, has its own kernel, ``k_fixed_functional``.

    ``s`` may be a 1-D array: the amplitude e^{u/2}(v(x) + v(-x)) is
    evaluated once, every s is integrated on the panels of the fastest
    one, and the values come back as an array.  A row whose own panel
    count equals the batch's has its scalar call's value, to the bit.
    """
    s = np.asarray(s, dtype=complex)
    if np.any(np.abs(s.real) > 1e-12):
        raise DomainError("model_functional: unitary characters only (Re s = 0)")
    beta = 0.5 * (s.imag - param.lam.imag)
    lo, hi = np.log(v.support)

    def f(u):
        x = np.exp(u)
        amp = np.exp(0.5 * u) * (v(x) + v(-x))
        return amp * np.exp(1j * np.multiply.outer(beta, u))

    fmax = np.max(np.abs(beta)) / (2 * np.pi)
    return quad.oscillatory_integral(f, lo, hi, max(fmax, 0.5)).value


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


# half-width of the transition regime, as a fraction of the edge frequency
_SIGMA_FRAC = 0.1
_REGIMES = ("bulk", "transition", "tail")


def _regime_tags(sig, edge):
    """The regime of each frequency in ``sig``: bulk up to 0.9 ``edge``,
    transition below 1.1 ``edge``, tail beyond (and at NaN)."""
    return np.where(sig <= (1.0 - _SIGMA_FRAC) * edge, "bulk",
                    np.where(sig < (1.0 + _SIGMA_FRAC) * edge, "transition",
                             "tail")).tolist()


def density_b(param: SpectralParam, q: float, n_range) -> DensityTable:
    """Geodesic spectral density along the character lattice.

    The lattice step (imaginary part of s per unit n, ``meta
    ["lattice_step"]``) is 2 pi q, the spacing that makes the character
    trivial on the cyclic group generated by diag(a, 1/a) with q = 1/ln a.
    Entries are evaluated through log-gamma so the table stays meaningful
    deep into the exponential tail.
    """
    if not param.is_principal:
        raise DomainError("density_b requires a principal-series parameter")
    if q <= 0:
        raise ValueError("q must be positive")
    step = 2.0 * np.pi * q
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
    regime = _regime_tags(abs_sig, param.abs_lam)
    return DensityTable(kind="geodesic-b", param=param, n_values=ns,
                        entries=entries, sigma=abs_sig, log_abs2=log_abs2,
                        regime=regime,
                        meta={"lattice_step": step})


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


def circle_edge_constant(g: GroupElement) -> float:
    """c = max |d/dtheta log W| / 2 = 2 pi sinh r, r = d(i, g.i), exactly
    (W = e^r cos^2 psi + e^{-r} sin^2 psi with psi = 2 pi theta - const):
    the circle phase (lam/2) log W - 2 pi n theta is stationary somewhere
    iff |2 pi n| <= c |lam|."""
    r = hyperbolic_distance(1j, mobius_act(g, 1j))
    return float(2.0 * np.pi * np.sinh(r))


def density_c_grid(abs_lam, g: GroupElement, n_range) -> int:
    """The first grid of ``density_c``'s Fourier sums: it resolves both
    the n-grid and the internal phase (lam/2) log W."""
    n_max = max(abs(int(n_range[0])), abs(int(n_range[1])), 1)
    return max(1024, 1 << int(np.ceil(np.log2(8.0 * (
        n_max + circle_edge_constant(g) * abs_lam / (2.0 * np.pi) + 4)))))


def density_c(param: SpectralParam, g: GroupElement, n_range) -> DensityTable:
    """Circle spectral density: Fourier coefficients of W^{(lam-1)/2}.

    W is pi-periodic in the geometric angle, so the full theta-loop (which
    covers the circle twice) has vanishing odd coefficients.  Regime tags
    use the exact edge constant c = 2 pi sinh r of ``circle_edge_constant``:
    bulk below 0.9 c|lam|, tail above 1.1 c|lam| in the |2 pi n| coordinate.
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

    coeffs, err, nev = quad.periodic_fourier(
        f, n_max, n_start=density_c_grid(param.abs_lam, g, n_range))
    ns = np.arange(n_lo, n_hi + 1)
    entries = coeffs[ns + n_max]
    sig = 2.0 * np.pi * np.abs(ns)
    with np.errstate(divide="ignore"):
        log_abs2 = 2.0 * np.log(np.abs(entries))
    regime = _regime_tags(sig, c_edge * param.abs_lam)
    return DensityTable(kind="circle-c", param=param, n_values=ns,
                        entries=entries, sigma=sig, log_abs2=log_abs2,
                        regime=regime,
                        meta={"c_edge": c_edge, "fourier_error": err,
                              "evaluations": nev})


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


def test_vector(T: float, param: SpectralParam) -> ModelVector:
    """Concentrated vector x -> T * bump(T(x-1)), extended evenly.

    Squared norm (1/pi) int over both humps equals C1_NORM_SLOPE * T; the
    functional values stay bounded below for all kernel frequencies up to
    T because the kernel phase varies by less than 1/2 over the support.
    """
    if T < 1.0:
        raise ValueError("test_vector: T >= 1 required")

    def ev(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return T * bump(T * (ax - 1.0)) + 0.0j

    lo = 1.0 - 0.1 / T
    hi = 1.0 + 0.1 / T
    return ModelVector(param=param, evaluator=ev, support=(lo, hi))


def vector_norm_sq(v: ModelVector) -> float:
    """Unitary-model squared norm of a line vector: (1/pi) int_R |v|^2 dx
    (equals the circle-model (1/2pi) int |f|^2 dphi)."""
    def sq(x):
        return np.abs(v(x)) ** 2 + np.abs(v(-x)) ** 2

    return float(quad.integrate_adaptive(sq, *v.support).value.real / np.pi)


# ---------------------------------------------------------------------------


def _envelope_terms(table: DensityTable):
    """(regime tags, log |entry|^2 over that regime's envelope shape) of
    the finite entries, as arrays: the shape is 1/|lam| in the bulk,
    1/sqrt|lam| in the transition and e^{-sigma/10} in the tail."""
    log_lam = np.log(table.param.abs_lam)
    tags = np.asarray(table.regime)
    shift = np.where(tags == "bulk", log_lam,
                     np.where(tags == "transition", 0.5 * log_lam,
                              0.1 * table.sigma))
    keep = np.isfinite(table.log_abs2)
    return tags[keep], (table.log_abs2 + shift)[keep]


def fit_regime_constants(table: DensityTable) -> dict:
    """Envelope constants (log scale) from one table: bulk |b|^2 <= c1/|lam|,
    transition <= c2/sqrt|lam|, tail <= c3 e^{-sigma/10}."""
    tags, terms = _envelope_terms(table)
    return {r: np.max(terms[tags == r], initial=-np.inf) for r in _REGIMES}


def check_regime_envelopes(table: DensityTable, constants: dict,
                           slack=2.0) -> dict:
    """Check every entry of ``table`` against envelope constants fitted on
    another table; returns per-regime worst log-slack (<= log(slack) passes)."""
    log_slack = np.log(slack)
    tags, terms = _envelope_terms(table)
    worst = {r: np.max(terms[tags == r] - constants[r], initial=-np.inf)
             for r in _REGIMES}
    passed = all(w <= log_slack for w in worst.values())
    return {"passed": passed, "worst_log_excess": worst,
            "allowed_log_slack": log_slack}


def density_to_csv(table: DensityTable, path):
    _write_csv(path, ["n", "Re", "Im", "abs2", "regime"],
               ([int(n), e.real, e.imag, abs(e) ** 2, tag] for n, e, tag
                in zip(table.n_values, table.entries, table.regime)))
