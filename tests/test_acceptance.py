"""The acceptance suite: every criterion as one test, one pass/fail line.

Cusp-form solves are cached on disk (see conftest.CACHE_DIR), so a fresh
checkout pays the solver cost once; each criterion still asserts its own
runtime budget.
"""

import numpy as np

from geoperiods import verify

from conftest import CACHE_DIR
from oracles import planted_stream, summary_lines, table_integral_pairs


def _run(name):
    results = list(verify.run_checks(names=[name], cache_dir=CACHE_DIR,
                                     solve_missing=True))
    assert len(results) == 1
    res = results[0]
    print()
    print(res.line())
    assert not res.skipped, res.details
    assert res.passed, res.details
    return res


def test_criterion_01_gamma_formula_vs_quadrature():
    _run("gamma-formula-vs-quadrature")


def test_criterion_02_table_integral_identity():
    _run("table-integral-identity")


def test_criterion_02_batches_equal_the_pair_by_pair_check():
    # one closed-form call and one oracle batch per half-line give the
    # details and the worst rel, to the bit, of a scalar call per pair
    res = verify.check_table_integral(n_samples=20)
    details, worst = table_integral_pairs(20, 20260810)
    assert res.details == details
    assert res.extras["worst_rel"] == worst


def test_criterion_03_geodesic_three_regime_envelopes():
    _run("geodesic-three-regime-envelopes")


def test_criterion_04_circle_regime_exponents():
    _run("circle-regime-exponents")


def test_criterion_04_median_is_numpys():
    rng = np.random.default_rng(4)
    for size in (1, 2, 7, 40):
        a = rng.lognormal(size=size)
        assert verify._median(a) == np.median(a)


def test_criterion_05_sphere_equator_sharpness():
    _run("sphere-equator-sharpness")


def test_criterion_06_plancherel_identity():
    _run("plancherel-identity")


def test_criterion_07_planted_coefficient_roundtrip():
    _run("planted-coefficient-roundtrip")


def test_criterion_07_plants_the_per_index_stream(monkeypatch):
    # the check's one draw per density kind gives the doubles of four
    # scalar draws per index, and each plant it restricts is the
    # index-by-index sum
    drawn, profiles = [], []
    planted_basis, fourier_periods = verify.planted_basis, verify.fourier_periods

    def record_basis(rng, dens, n_plants):
        drawn.append((dens, planted_basis(rng, dens, n_plants)))
        return drawn[-1][1]

    def record_profile(prof, n_range):
        profiles.append(prof.samples)
        return fourier_periods(prof, n_range)

    monkeypatch.setattr(verify, "planted_basis", record_basis)
    monkeypatch.setattr(verify, "fourier_periods", record_profile)
    res = _run("planted-coefficient-roundtrip")
    assert res.details.startswith("100 plants") and len(drawn) == 2
    ref_rng = np.random.default_rng(20260810)
    for k, (dens, (ns, coeffs, _)) in enumerate(drawn):
        plants = planted_stream(ref_rng, dens, 50)
        assert all(list(planted) == ns.tolist() for planted, _ in plants)
        assert np.array_equal(
            coeffs, [list(planted.values()) for planted, _ in plants])
        samples, want = profiles[50 * k], plants[0][1]
        assert np.max(np.abs(samples - want)) <= 1e-12 * np.max(np.abs(want))


def test_criterion_08_maass_solver_self_consistency():
    res = _run("maass-solver-self-consistency")
    assert res.extras["parity"] in ("even", "odd")


def test_criterion_09_average_bound_boundedness():
    res = _run("average-bound-boundedness")
    rep_g = res.extras["geodesic"]
    rep_c = res.extras["circle"]
    for line in summary_lines(rep_g) + summary_lines(rep_c):
        print("  ", line)


def test_criterion_10_test_vector_constants():
    _run("test-vector-constants")


def test_criterion_09_limit_override_reaches_the_growth_bound():
    # at T = 4, 8, 16 the geodesic ratios grow ~23x along T: beyond the
    # default limit of 3 but inside an overridden limit of 25
    res = verify.check_average_bound_maass(
        cache_dir=CACHE_DIR, t_grid=(4, 8, 16), variation_limit=25.0)
    assert res.extras["geodesic"].max_growth_t > 3.0
    assert res.passed, res.details
