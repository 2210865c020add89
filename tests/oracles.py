"""Independent checks that the test suite compares the package against.

Nothing in ``geoperiods`` calls these: the density tables tag regimes by
fixed fractions of the turning frequency, and the circle densities come
from periodic quadrature.  ``analyze_phase`` cross-checks the regime tags
by locating stationary points of the phase, ``conical_legendre``
cross-checks the circle densities against the radial Legendre factor, and
``fd_edge_constant`` measures the circle edge constant that the package
takes in closed form.
``k_fixed_vector`` (the rotation-invariant vector of the line model),
``pi_action`` (the group's action on line-model functions) and
``rotation`` (the rotations fixing i) state the equivariance that
``modelrep.model_functional`` and ``modelrep.k_fixed_functional`` are
tested for.
``planted_stream`` draws and synthesizes criterion 07's plants one index
at a time, the reference for ``verify.planted_basis``.
``table_integral_pairs`` runs criterion 02 one pair at a time, with a
scalar closed form and two scalar quadratures per pair, the reference for
the check's batches.
``maass_value_termwise`` sums a cusp form's whole Fourier-Bessel series,
the reference for ``MaassForm.value``, which stops at the K_iR table's
end.
``periodic_fourier_regrid`` samples every grid of its doublings in full,
the reference for ``quad.periodic_fourier``, which keeps the coarse
samples.  ``box_functionals`` runs criterion 10's functional values one
(T, lam, sigma) at a time, the reference for the check's batches.
``regime_tag`` and ``regime_constants_loop`` tag and fit density tables
one entry at a time, the references for ``modelrep._regime_tags``,
``fit_regime_constants`` and ``check_regime_envelopes``.
``index_symmetric`` and ``summary_lines`` read tables and reports the
package returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from geoperiods.eigen import pullback
from geoperiods.hypgeom import GroupElement
from geoperiods.modelrep import (SpectralParam, circle_log_jacobian,
                                 model_functional)
from geoperiods.modelrep import test_vector as make_test_vector
from geoperiods.quad import integrate_adaptive
from geoperiods.specfun import DomainError, table_integral


# ------------------------------------------------------------- phase scan


class ResolutionError(Exception):
    pass


@dataclass(frozen=True)
class PhaseReport:
    """Critical points of a phase: (location, phase'', degeneracy order)."""

    critical_points: list = field(default_factory=list)
    regime: str = "no-critical-point"   # or nondegenerate / cubic-degenerate


_FD_STEP = 1e-5
_PHASE_GRID = 4096
_DEGENERATE_TOL = 1e-6
_MAX_CRITICAL_POINTS = 64


def analyze_phase(phase, domain):
    """Locate and classify zeros of phase' on ``domain = (a, b)``.

    Derivatives are central differences at step 1e-5; phase' is scanned on
    a 4096-point grid, and more than 64 critical points raise
    ResolutionError.  A critical point with |phase''| below 1e-6 times the
    phase scale is inspected at third order and reported with degeneracy
    order 3.
    """
    a, b = domain

    def derivative(x):
        return (phase(x + _FD_STEP) - phase(x - _FD_STEP)) / (2 * _FD_STEP)

    def second_derivative(x):
        return ((phase(x + _FD_STEP) - 2.0 * phase(x)
                 + phase(x - _FD_STEP)) / _FD_STEP ** 2)

    xs = np.linspace(a, b, _PHASE_GRID)
    ds = np.asarray(derivative(xs), dtype=float)
    flips = np.where(np.sign(ds[:-1]) * np.sign(ds[1:]) < 0)[0]
    exact = np.where(ds == 0.0)[0]
    # zero-touching critical points (phase' dips to zero without a sign
    # change, the even-order degenerate case): local minima of |phase'|
    # reaching ~zero relative to the phase scale
    absd = np.abs(ds)
    scale0 = max(float(np.max(absd)), 1.0)
    touch = 1 + np.where((absd[1:-1] <= absd[:-2]) & (absd[1:-1] <= absd[2:])
                         & (absd[1:-1] < 1e-5 * scale0) & (absd[1:-1] > 0))[0]
    if len(flips) + len(exact) + len(touch) > _MAX_CRITICAL_POINTS:
        raise ResolutionError(f"analyze_phase: more than "
                              f"{_MAX_CRITICAL_POINTS} critical points resolved")

    crits = []
    seen = []
    for i in flips:
        lo, hi = xs[i], xs[i + 1]
        dlo = ds[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if hi - lo < 1e-8:
                break
            dm = float(derivative(mid))
            if np.sign(dm) == np.sign(dlo):
                lo, dlo = mid, dm
            else:
                hi = mid
        crits.append(0.5 * (lo + hi))
    for i in exact:
        crits.append(float(xs[i]))
    for i in touch:
        lo, hi = xs[i - 1], xs[i + 1]
        for _ in range(80):                 # ternary search on |phase'|
            if hi - lo < 1e-9:
                break
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if abs(float(derivative(m1))) <= abs(float(derivative(m2))):
                hi = m2
            else:
                lo = m1
        crits.append(0.5 * (lo + hi))

    phase_scale = max(float(np.max(np.abs(ds))), 1.0)
    points = []
    for c in sorted(crits):
        if seen and abs(c - seen[-1]) < 1e-7 * (b - a):
            continue
        seen.append(c)
        d2 = float(second_derivative(c))
        if abs(d2) > _DEGENERATE_TOL * phase_scale:
            points.append((c, d2, 2))
        else:
            points.append((c, d2, 3))

    if not points:
        regime = "no-critical-point"
    elif any(p[2] == 3 for p in points):
        regime = "cubic-degenerate"
    else:
        regime = "nondegenerate"
    return PhaseReport(critical_points=points, regime=regime)


# ------------------------------------------------------- conical Legendre
# P^{-n}_{-1/2+it}(x), x >= 1, via the Gegenbauer-type integral
#   P^{-n}_nu(x) = (x^2-1)^{n/2} / (2^n sqrt(pi) Gamma(n+1/2))
#                  * int_0^pi (x + sqrt(x^2-1) cos psi)^{nu-n} sin(psi)^{2n} dpsi

_GL512 = np.polynomial.legendre.leggauss(512)


def conical_legendre(t, n, x):
    """Legendre function P^{-n}_{-1/2+it}(x) for integer n >= 0 and x >= 1.

    Real for real t and x >= 1 (the imaginary part of the integral cancels);
    the real part is returned.  Where that cancellation leaves the value
    tiny, relative accuracy is lost: against ``mpmath.legenp`` at t = 40,
    n = 5, x = 5 the value is -6.6e-11 and the relative error 1.2e-7
    (absolute 7.8e-18).  ``test_conical_matches_mpmath`` therefore grades
    relative 1e-8 plus a 1e-15 absolute floor.
    """
    if n < 0 or int(n) != n:
        raise DomainError("conical_legendre: order n must be a nonnegative integer")
    n = int(n)
    x = float(x)
    t = float(t)
    if x < 1.0:
        raise DomainError(f"conical_legendre: x = {x:g} < 1 outside the hyperbolic range")
    if x == 1.0:
        return 1.0 if n == 0 else 0.0
    xs, w = _GL512
    psi = 0.5 * np.pi * (xs + 1.0)
    wp = 0.5 * np.pi * w
    base = x + np.sqrt(x * x - 1.0) * np.cos(psi)
    nu = complex(-0.5, t)
    integral = np.sum(wp * np.sin(psi) ** (2 * n)
                      * np.exp((nu - n) * np.log(base)))
    pref = ((x * x - 1.0) ** (n / 2.0) / (2.0 ** n * np.sqrt(np.pi))
            * math.exp(-math.lgamma(n + 0.5)))
    return float((pref * integral).real)


def fd_edge_constant(g, grid=65536):
    """Max of |d/dtheta log W| / 2 over the circle Jacobian W of the radius
    element ``g``, by central differences on ``grid`` points: the edge
    constant of ``modelrep.circle_edge_constant``, measured (its error is a
    few parts in 1e8 at the default grid)."""
    lw = np.log(circle_log_jacobian(g)(np.arange(grid) / grid))
    d = (np.roll(lw, -1) - np.roll(lw, 1)) * (grid / 2.0)
    return 0.5 * float(np.max(np.abs(d)))


# ------------------------------------------------------------ cusp forms


def maass_value_termwise(form, z):
    """``form.value(z)`` summed over all M0 terms, those the K_iR table
    reads as 0 included, with every point reduced by the unmemoised
    ``pullback``."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    pts = np.array([pullback.__wrapped__(w) for w in zz.ravel()])
    x = pts.real
    y = pts.imag
    osc = np.cos if form.parity == "even" else np.sin
    total = np.zeros(x.shape)
    sy = np.sqrt(y)
    for idx, a in enumerate(form.coefficients):
        n = idx + 1
        u = 2.0 * np.pi * n * y
        total += a * form._kappa(u) * sy * osc(2.0 * np.pi * n * x)
    total *= form.l2_scale
    return total.reshape(np.shape(z)) if np.ndim(z) else float(total[0])


# ------------------------------------------------------------- line model


def rotation(phi):
    """The rotation fixing i; phi and phi + pi give the same element."""
    c, s = np.cos(phi), np.sin(phi)
    return GroupElement([[c, -s], [s, c]])


def k_fixed_vector(param):
    """The rotation-invariant vector x -> (1+x^2)^{(lam-1)/2}, a callable.

    Unit in the circle-model norm (1/2pi) int |f|^2 dphi: the plane-model
    function is 1 on the unit circle.
    """
    if not param.is_principal:
        raise DomainError("k_fixed_vector: only principal-series parameters "
                          f"(Re lam = 0) are supported, got lam={param.lam}")
    lam = param.lam
    return lambda x: np.exp(0.5 * (lam - 1.0) * np.log1p(np.square(x)))


def pi_action(param, g, v):
    """Line-model action on a callable v: (pi(g)v)(x) =
    |c'x+d'|^{lam-1} v((a'x+b')/(c'x+d')) with [a' b'; c' d'] = g^{-1}
    (|det| = 1 representatives); 0 where c'x+d' vanishes."""
    a, b, c, d = g.inv().mat.ravel()

    def moved(x):
        x = np.asarray(x, dtype=float)
        den = c * x + d
        with np.errstate(divide="ignore", invalid="ignore"):
            y = (a * x + b) / den
            out = np.exp((param.lam - 1.0) * np.log(np.abs(den))) * v(y)
        return np.where(np.abs(den) < 1e-300, 0.0, out)

    return moved


# --------------------------------------------------------- planted plants


def planted_stream(rng, dens, n_plants):
    """Criterion 07's plants drawn with four scalar ``rng.uniform`` calls
    per index and summed index by index: per plant ({n: a_n}, samples of
    sum_n a_n d_n e^{2 pi i n k / 1024})."""
    usable = [int(n) for n in dens.n_values
              if abs(dens.entry(int(n))) >= 1e-4 * dens.max_abs()]
    theta = np.arange(1024) / 1024
    plants = []
    for _ in range(n_plants):
        planted = {}
        samples = np.zeros(1024, dtype=complex)
        for n in usable:
            a = complex(rng.uniform(0.5, 2.0) * np.cos(rng.uniform(0, 2 * np.pi)),
                        rng.uniform(0.5, 2.0) * np.sin(rng.uniform(0, 2 * np.pi)))
            planted[n] = a
            samples += a * dens.entry(n) * np.exp(2j * np.pi * n * theta)
        plants.append((planted, samples))
    return plants


# ------------------------------------------------------ table integrals


def table_integral_pairs(n_samples, seed):
    """Criterion 02 pair by pair: (details, worst rel) of the closed form
    ``table_integral(s, t)`` against the tanh-sinh integrals of
    |x|^s (1+x^2)^t on [0, 1] and, after x = 1/u, on [1, inf), over the
    pair s = 0, t = -1 (against pi) and ``n_samples`` seeded pairs."""
    def half_line(q, t):
        # int_0^1 x^q (1+x^2)^t dx; q = s, and q = -s-2-2t after x = 1/u
        return integrate_adaptive(
            lambda x: np.exp(q * np.log(x) + t * np.log1p(x * x)), 0.0, 1.0,
            singular_exponent=q.real, rel_tol=1e-11).value

    worst = abs(table_integral(0.0, -1.0) - np.pi) / np.pi
    worst_at = "s=0,t=-1"
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        s = complex(rng.uniform(-0.9, 2.0), rng.uniform(-5.0, 5.0))
        t = complex(rng.uniform(-4.0, -(s.real + 1.0) / 2.0 - 0.25),
                    rng.uniform(-5.0, 5.0))
        ref = 2.0 * (half_line(s, t) + half_line(-s - 2.0 - 2.0 * t, t))
        rel = abs(table_integral(s, t) - ref) / abs(ref)
        if rel > worst:
            worst, worst_at = rel, f"s={s:.3f},t={t:.3f}"
    return f"{n_samples + 1} pairs, worst rel {worst:.2e} at {worst_at}", worst


# ------------------------------------------------------ quadrature loops


def periodic_fourier_regrid(f, n_max, n_start=None, rel_tol=1e-11):
    """``quad.periodic_fourier`` sampling each grid n_start, 2 n_start, ...
    in full: (coefficients for n = -n_max..n_max, last change, the sizes
    sampled)."""
    n = n_start or max(256, 1 << int(np.ceil(np.log2(8 * max(n_max, 1)))))
    prev = None
    sizes = []
    for _ in range(12):
        vals = np.asarray(f(np.arange(n) / n), dtype=complex)
        sizes.append(n)
        cur = (np.fft.fft(vals) / n)[np.arange(-n_max, n_max + 1) % n]
        if prev is not None:
            change = float(np.max(np.abs(cur - prev)))
            scale = float(np.max(np.abs(cur))) + 1e-300
            if change <= rel_tol * scale + 1e-15:
                return cur, change, sizes
        prev = cur
        n *= 2
    raise AssertionError("periodic_fourier_regrid: spectrum did not settle")


def box_functionals(t_values=(10.0, 50.0, 100.0)):
    """Criterion 10's functional values, one scalar ``model_functional``
    call per (T, lam, sigma), in the check's order."""
    vals = []
    for T in t_values:
        for lam_abs in np.linspace(0.0, min(T, 40.0), 6):
            par = SpectralParam(lam=1j * lam_abs)
            v = make_test_vector(T, par)
            for sig in np.linspace(0.0, T, 11):
                vals.append(model_functional(par, 1j * sig, v))
    return np.array(vals)


# ------------------------------------------------------------ regimes


def regime_tag(sig, edge):
    """Bulk up to 0.9 edge, transition below 1.1 edge, else tail."""
    if sig <= (1.0 - 0.1) * edge:
        return "bulk"
    if sig < (1.0 + 0.1) * edge:
        return "transition"
    return "tail"


def regime_constants_loop(table, constants=None):
    """Per-regime max of log |entry|^2 over the envelope shape (1/|lam|,
    1/sqrt|lam|, e^{-sigma/10}) less ``constants[regime]``, entry by
    entry: ``fit_regime_constants`` without ``constants``, the
    ``worst_log_excess`` of ``check_regime_envelopes`` with them."""
    log_lam = np.log(table.param.abs_lam)
    shift = {"bulk": log_lam, "transition": 0.5 * log_lam}
    out = {"bulk": -np.inf, "transition": -np.inf, "tail": -np.inf}
    for l2, sig, tag in zip(table.log_abs2, table.sigma, table.regime):
        if np.isfinite(l2):
            term = l2 + shift.get(tag, 0.1 * sig)
            out[tag] = max(out[tag], term - (constants or {}).get(tag, 0.0))
    return out


# ------------------------------------------------------ tables and reports


def index_symmetric(table, tol=1e-9) -> bool:
    """entry(-n) == entry(n) across a ``DensityTable``: the kernel frequency
    enters through its square for geodesics, and the circle Jacobian is
    even in theta."""
    n0, n1 = int(table.n_values[0]), int(table.n_values[-1])
    ok = True
    for n in table.n_values:
        if -n < n0 or -n > n1:
            continue
        ok &= abs(table.entry(int(n)) - table.entry(int(-n))) <= \
            tol * max(1.0, abs(table.entry(int(n))))
    return bool(ok)


def summary_lines(report):
    """Printable lines of an ``AverageBoundReport``."""
    lines = [f"empirical constant sup ratio = {report.empirical_constant:.4g}",
             f"max growth along T: {report.max_growth_t:.3g}x, across "
             f"forms: {report.max_growth_forms:.3g}x"]
    for label, row in report.ratios.items():
        cells = ", ".join(f"T={t:g}: {r:.4g}" for t, r in row.items())
        lines.append(f"  {label}: {cells}")
    return lines
