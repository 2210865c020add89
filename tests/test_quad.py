import numpy as np
import pytest

from geoperiods import quad
from geoperiods.quad import (ConvergenceError, integrate_adaptive,
                             oscillatory_integral, periodic_fourier)
from geoperiods.specfun import table_integral

from oracles import ResolutionError, analyze_phase, periodic_fourier_regrid

RNG = np.random.default_rng(7)


# --------------------------------------------------------------- adaptive

def test_adaptive_constant():
    r = integrate_adaptive(lambda x: np.ones_like(x), 0.0, 1.0)
    assert abs(r.value - 1.0) < 1e-13
    assert r.error_estimate >= 0
    assert r.evaluations >= 15


def test_adaptive_interior_singularity():
    # the caller splits at the interior point and declares it at an end
    def f(x):
        return np.abs(x) ** -0.5

    left = integrate_adaptive(f, -1.0, 0.0, singular_exponent=-0.5)
    right = integrate_adaptive(f, 0.0, 1.0, singular_exponent=-0.5)
    assert abs(left.value + right.value - 4.0) < 1e-10


def test_adaptive_matches_gamma_closed_form():
    # int_R |x|^{-1/2} (1+x^2)^{-1/2} dx; by x -> 1/x symmetry it equals
    # 4 int_0^1 of the same integrand
    def f(x):
        return np.abs(x) ** -0.5 * (1.0 + x * x) ** -0.5

    r = integrate_adaptive(f, 0.0, 1.0, singular_exponent=-0.5)
    ref = table_integral(-0.5, -0.5)
    assert abs(4.0 * r.value - ref) < 1e-9 * abs(ref)


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0),
                                  (-np.inf, np.inf), (0.0, np.nan)])
def test_adaptive_refuses_an_infinite_end(a, b):
    def f(x):
        raise AssertionError("sampled an interval with a non-finite end")

    with pytest.raises(ValueError, match="non-finite end"):
        integrate_adaptive(f, a, b)


def test_adaptive_budget_error_carries_best():
    # a needle the limited budget cannot resolve to 1e-10
    def f(x):
        return 1.0 / (1e-12 + (x - 0.321) ** 2)

    with pytest.raises(ConvergenceError) as exc:
        integrate_adaptive(f, 0.0, 1.0, budget=900)
    assert exc.value.best is not None
    assert exc.value.error_estimate > 0


def test_adaptive_undeclared_endpoint_singularity():
    # the tanh-sinh nodes crowd at 0 without a substitution
    r = integrate_adaptive(lambda x: x ** -0.5, 0.0, 1.0)
    assert abs(r.value - 2.0) < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_adaptive_refuses_a_declared_interior_point(sign):
    # a declaration is at x = 0: an interval holding 0 inside, or not at
    # all, is refused before any evaluation
    def f(x):
        raise AssertionError("sampled with 0 not an end")

    for a, b in (sorted((-0.3 * sign, sign)), sorted((0.3 * sign, sign))):
        with pytest.raises(ValueError, match=rf"at x = 0, which is not an "
                                             rf"end of \[{a}, {b}\]"):
            integrate_adaptive(f, a, b, singular_exponent=-0.5)


def test_adaptive_divergent_integral_raises():
    # int_0^1 x^{-1} dx diverges: the nodes nearest 0 overflow 1/x to inf,
    # and an infinite sum must not pass as converged; the first level whose
    # sum is not finite stops the rule (all 12 halvings took 38,075
    # evaluations), and the error keeps the last finite estimate
    xs = []

    def f(x):
        xs.append(x.size)
        return 1.0 / x

    with pytest.raises(ConvergenceError, match="sum is not finite") as exc:
        with np.errstate(all="ignore"):
            integrate_adaptive(f, 0.0, 1.0)
    assert sum(xs) < 1000
    assert np.isfinite(exc.value.best) and np.isfinite(exc.value.error_estimate)


def test_adaptive_halvings_run_out_before_the_budget():
    def f(x):
        return 1.0 / (1e-12 + (x - 0.321) ** 2)

    with pytest.raises(ConvergenceError, match="halvings") as exc:
        integrate_adaptive(f, 0.0, 1.0)
    assert exc.value.best is not None
    assert exc.value.error_estimate > 0


def test_adaptive_linearity():
    f = lambda x: np.sin(3 * x)
    g = lambda x: np.exp(-x)
    a1 = integrate_adaptive(f, 0.0, 2.0).value
    a2 = integrate_adaptive(g, 0.0, 2.0).value
    both = integrate_adaptive(lambda x: 2.0 * f(x) - 0.5 * g(x), 0.0, 2.0)
    assert abs(both.value - (2 * a1 - 0.5 * a2)) < 1e-10


# ------------------------------------------------------ adaptive batches

ALPHAS = np.array([-0.5, 0.0, 0.7, 2.0, -0.9])
RATES = np.array([1.0, 3j, -2.0, 0.5 + 1j, 0.0])


def _row(j):
    return lambda x: x ** ALPHAS[j] * np.exp(RATES[j] * x)


def _needle(x):
    return 1.0 / (1e-12 + (x - 0.321) ** 2)


def _batch(*fs):
    """The batch integrand of the scalar integrands ``fs``, which records
    the live rows of each call."""
    calls = []

    def f(x, rows):
        calls.append((rows.copy(), x.size))
        return np.array([np.broadcast_to(fs[j](x), x.shape) for j in rows])
    return f, calls


@pytest.mark.parametrize("declared", [False, True])
def test_adaptive_batch_rows_equal_their_scalar_calls(declared):
    # each row's value and error estimate are its scalar call's, to the
    # bit, though the rows stop at different levels; rows that have
    # stopped are no longer evaluated
    f, calls = _batch(*map(_row, range(len(ALPHAS))))
    sing = (lambda a: a) if declared else (lambda a: None)
    batch = integrate_adaptive(f, 0.0, 1.0, singular_exponent=sing(ALPHAS),
                               rel_tol=1e-11, batch=len(ALPHAS))
    scalar = [integrate_adaptive(_row(j), 0.0, 1.0,
                                 singular_exponent=sing(ALPHAS[j]),
                                 rel_tol=1e-11) for j in range(len(ALPHAS))]
    assert batch.value.tolist() == [r.value for r in scalar]
    assert batch.error_estimate.tolist() == [r.error_estimate for r in scalar]
    evaluations = [r.evaluations for r in scalar]
    assert len(set(evaluations)) > 1
    assert isinstance(batch.evaluations, int)
    assert batch.evaluations == sum(evaluations) == sum(
        rows.size * n for rows, n in calls)
    for (before, _), (after, _) in zip(calls, calls[1:]):
        assert set(after) <= set(before)


@pytest.mark.parametrize("budget, match", [
    (900, "row 1: budget 900 exhausted"),
    (200_000, "row 1: no agreement to 1e-10 after 12 halvings")])
def test_adaptive_batch_budget_and_halvings_hold_per_row(budget, match):
    # the constant row converges; the needle runs out, and the error keeps
    # both rows' best estimates
    f, _ = _batch(np.ones_like, _needle)
    with pytest.raises(ConvergenceError, match=match) as exc:
        integrate_adaptive(f, 0.0, 1.0, budget=budget, batch=2)
    assert exc.value.best.shape == exc.value.error_estimate.shape == (2,)
    assert exc.value.best[0] == integrate_adaptive(np.ones_like, 0.0, 1.0).value


def test_adaptive_batch_non_finite_sum_raises():
    f, _ = _batch(np.ones_like, lambda x: 1.0 / x)
    with pytest.raises(ConvergenceError, match="row 1: the sum is not finite"):
        with np.errstate(all="ignore"):
            integrate_adaptive(f, 0.0, 1.0, batch=2)


def test_adaptive_batch_rejects_a_non_integrable_exponent():
    def f(x, rows):
        raise AssertionError("sampled a non-integrable batch")

    with pytest.raises(ValueError, match="exponent -1 <= -1"):
        integrate_adaptive(f, 0.0, 1.0, batch=3,
                           singular_exponent=np.array([-0.5, -1.0, 0.0]))


# --------------------------------------------------------------- periodic

def periodic_mean(f):
    """int_0^1 f and its error estimate: the n = 0 Fourier coefficient."""
    coeffs, err, _ = periodic_fourier(f, 0)
    return coeffs[0], err


def test_periodic_constant():
    mean, _ = periodic_mean(lambda th: np.ones_like(th))
    assert abs(mean - 1.0) < 1e-14


def test_periodic_orthogonality():
    mean, _ = periodic_mean(lambda th: np.exp(2j * np.pi * th))
    assert abs(mean) < 1e-14


def test_periodic_bessel_oracle():
    # int_0^1 e^{i 50 sin(2 pi theta)} dtheta = J_0(50); reference from a
    # 40-digit series evaluation
    j0_50 = 0.05581232766925181442
    mean, err = periodic_mean(lambda th: np.exp(50j * np.sin(2 * np.pi * th)))
    assert abs(mean - j0_50) < 1e-12
    # doubling contract: reported estimate bounds the next change
    assert err < 1e-10


def test_periodic_nonconvergence():
    # white-noise integrand never settles
    def noisy(th):
        return RNG.normal(size=th.shape)

    with pytest.raises(ConvergenceError):
        periodic_mean(noisy)


def test_periodic_fourier_refuses_grids_above_the_cap(monkeypatch):
    sampled = []

    def noisy(th):
        sampled.append(len(th))
        return RNG.normal(size=th.shape)

    with pytest.raises(ConvergenceError, match="above the cap"):
        periodic_fourier(noisy, 4, n_start=2 * quad.FOURIER_MAX_GRID)
    assert sampled == []
    monkeypatch.setattr(quad, "FOURIER_MAX_GRID", 1024)
    with pytest.raises(ConvergenceError, match="2048 points") as exc:
        periodic_fourier(noisy, 4)
    # each doubling samples only the points between the previous grid's
    assert sampled == [256, 256, 512]
    assert len(exc.value.best) == 9


@pytest.mark.parametrize("kappa,doublings", [(1.0, 1), (4.0, 2), (16.0, 3)])
def test_periodic_fourier_keeps_the_coarse_samples_bit_for_bit(kappa, doublings):
    # e^{kappa cos 2 pi theta} from 16 points settles after 1, 2 or 3
    # doublings; each doubling samples only its new points, and the
    # spectrum and estimate equal those of full regrids to the bit
    def f(th):
        sampled.append(len(th))
        return np.exp(kappa * np.cos(2 * np.pi * th))

    sampled = []
    coeffs, err, evals = periodic_fourier(f, 4, n_start=16)
    ref, ref_err, sizes = periodic_fourier_regrid(f, 4, n_start=16)
    assert len(sizes) == doublings + 1
    assert sampled[:doublings + 1] == [16] + sizes[:-1]
    assert evals == sum(sampled[:doublings + 1]) == 16 * 2 ** doublings
    assert np.array_equal(coeffs, ref) and err == ref_err


def test_periodic_fourier_matches_direct():
    def f(th):
        return 1.0 + 0.5 * np.exp(2j * np.pi * th) - 2j * np.exp(-6j * np.pi * th)

    coeffs, err, _ = periodic_fourier(f, 4)
    ns = np.arange(-4, 5)
    expect = {0: 1.0, 1: 0.5, -3: -2j}
    for i, n in enumerate(ns):
        assert abs(coeffs[i] - expect.get(int(n), 0.0)) < 1e-13


# ------------------------------------------------------------ oscillatory

def test_oscillatory_decay_without_critical_points():
    """No stationary phase: doubling the frequency shrinks the value by
    10x or more (smooth periodic integrands decay superpolynomially)."""
    for trial in range(20):
        # keep min |phase'| >= 2 pi k (1 - 2 pi a) comfortably positive so
        # the nonstationary decay rate has margin over the 10x requirement
        a = RNG.uniform(0.04, 0.09)
        k = int(RNG.integers(8, 13))
        amp_c = RNG.uniform(0.5, 1.5)

        def value(freq_mult):
            def f(th):
                phase = 2 * np.pi * k * freq_mult * (th + a * np.sin(2 * np.pi * th))
                return (amp_c + np.cos(2 * np.pi * th)) * np.exp(1j * phase)
            return abs(periodic_mean(f)[0])

        v1, v2 = value(1), value(2)
        if v1 < 1e-13:      # already at noise level
            continue
        assert v2 <= 0.1 * v1, (trial, v1, v2)


@pytest.mark.parametrize("kind,target", [("quadratic", -0.5), ("cubic", -1.0 / 3.0)])
def test_stationary_phase_scaling(kind, target):
    lams = np.array([50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0])
    vals = []
    for lam in lams:
        if kind == "quadratic":
            def f(u, lam=lam):
                return np.exp(-u * u) * np.exp(1j * lam * u * u)
        else:
            def f(u, lam=lam):
                return np.exp(-u * u) * np.exp(1j * lam * u ** 3)

        r = oscillatory_integral(f, -3.0, 3.0, freq_max=3 * lam / np.pi)
        vals.append(abs(r.value))
    slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
    assert abs(slope - target) < 0.05


# ------------------------------------------------------------- phase scan

def test_analyze_phase_cosine():
    rep = analyze_phase(lambda th: np.cos(2 * np.pi * th), (0.0, 0.999999))
    assert rep.regime == "nondegenerate"
    locs = sorted(p[0] for p in rep.critical_points)
    assert len(locs) == 2
    assert abs(locs[0] - 0.0) < 1e-6 or abs(locs[0] - 0.5) < 1e-6
    assert abs(locs[1] - 0.5) < 1e-6
    for _, d2, order in rep.critical_points:
        assert order == 2 and abs(d2) > 1e-3


def test_analyze_phase_cubic():
    rep = analyze_phase(lambda t: t ** 3, (-0.5, 0.5))
    assert rep.regime == "cubic-degenerate"
    loc, d2, order = rep.critical_points[0]
    assert abs(loc) < 1e-4 and order == 3


def test_analyze_phase_model_no_critical_point():
    """Phase (lam/2) ln W(theta) - 2 pi n theta for the diagonal radius
    element: no critical points once 2 pi n exceeds the measured edge."""
    lam = 60.0
    W = lambda th: 2.125 - 1.875 * np.cos(4 * np.pi * th)
    grid = np.linspace(0, 1, 20001)
    lw = np.log(W(grid))
    c_edge = 0.5 * np.max(np.abs(np.gradient(lw, grid)))
    n = int(np.ceil(1.1 * c_edge * lam / (2 * np.pi))) + 2

    def phase(th):
        return 0.5 * lam * np.log(W(th)) - 2 * np.pi * n * th

    rep = analyze_phase(phase, (0.0, 1.0))
    assert rep.regime == "no-critical-point"
    # and just inside the edge there are critical points
    n_in = int(0.5 * c_edge * lam / (2 * np.pi))

    def phase_in(th):
        return 0.5 * lam * np.log(W(th)) - 2 * np.pi * n_in * th

    assert analyze_phase(phase_in, (0.0, 1.0)).regime == "nondegenerate"


def test_analyze_phase_resolution_error():
    with pytest.raises(ResolutionError):
        analyze_phase(lambda th: np.cos(2 * np.pi * 100 * th), (0.0, 1.0))


def test_phase_report_locations_inside_domain():
    rep = analyze_phase(lambda th: np.cos(2 * np.pi * th), (0.1, 0.9))
    for loc, _, order in rep.critical_points:
        assert 0.1 <= loc <= 0.9
        assert order in (2, 3)
