import numpy as np
import pytest

from geoperiods.eigen import sphere_harmonic, torus_mode
from geoperiods.hypgeom import (GroupElement, circle_orbit,
                                geodesic_orbit_from_matrix)
from geoperiods.modelrep import SpectralParam, density_b, density_c
from geoperiods.periods import (RestrictionProfile, SphereEquator,
                                StructuralInconsistencyError, TorusGeodesic,
                                check_average_bound, coefficient_table,
                                extract_coefficients,
                                fit_restriction_exponent, periods, restrict)

RNG = np.random.default_rng(17)


# ---------------------------------------------------------------- restrict

def test_restrict_torus_constant_profile():
    prof = restrict(torus_mode((0, 5)), TorusGeodesic())
    assert np.max(np.abs(prof.samples - np.sqrt(2.0))) < 1e-14
    assert prof.norm_restriction() == pytest.approx(2.0)
    assert prof.resample_change < 1e-6


def test_restrict_sphere_odd_mode_vanishes():
    # Y(1,0) is odd across the equator
    prof = restrict(sphere_harmonic(1, 0), SphereEquator())
    assert np.max(np.abs(prof.samples)) < 1e-14


def test_restrict_grid_validation():
    with pytest.raises(ValueError):
        restrict(torus_mode((1, 0)), TorusGeodesic(), grid=100)
    with pytest.raises(ValueError):
        restrict(torus_mode((1, 0)), SphereEquator())


def test_restrict_torus_two_ways():
    # closed form vs sampled quadrature for the (3,4) mode on x2 = 0
    prof = restrict(torus_mode((3, 4)), TorusGeodesic())
    assert prof.norm_restriction() == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------- periods

def test_periods_constant_profile():
    length = 1.7
    prof = RestrictionProfile.from_samples(np.full(512, 2.5 + 0j), length)
    table = periods(prof, (-5, 5))
    i0 = list(table.n_values).index(0)
    assert abs(table.p[i0] - 2.5 * length) < 1e-12
    others = np.abs(np.delete(table.p, i0))
    assert np.max(others) < 1e-13


def test_periods_single_mode():
    prof = restrict(torus_mode((1, 0)), TorusGeodesic())
    table = periods(prof, (-4, 4))
    for i, n in enumerate(table.n_values):
        expect = np.sqrt(2.0) / 2.0 if abs(n) == 1 else 0.0
        assert abs(table.p[i] - expect) < 1e-13


def test_periods_grid_guard():
    prof = RestrictionProfile.from_samples(np.ones(256), 1.0)
    with pytest.raises(ValueError):
        periods(prof, (-200, 200))


def test_sphere_highest_weight_period_bounded():
    # plain periods of the highest-weight family stay bounded in n
    vals = []
    for n in (5, 20, 60):
        prof = restrict(sphere_harmonic(n, n), SphereEquator())
        table = periods(prof, (-1, 1))
        vals.append(abs(table.p[1]))
    assert max(vals) < 10.0


def test_plancherel_identity():
    for phi, curve in ((torus_mode((3, 4)), TorusGeodesic()),
                       (sphere_harmonic(20, 13), SphereEquator())):
        prof = restrict(phi, curve)
        table = periods(prof, (-prof.grid // 4, prof.grid // 4))
        assert table.plancherel_defect() < 1e-6


def test_parametrization_covariance():
    """Shifting the basepoint multiplies each period by a unit phase:
    magnitudes, extracted |a_n| and partial sums are unchanged."""
    par = SpectralParam(lam=30j)
    dens = density_b(par, 1.0, (-8, 8))
    theta = np.arange(1024) / 1024.0
    samples = np.zeros(1024, dtype=complex)
    plant = {n: complex(RNG.normal(), RNG.normal()) for n in range(-6, 7)}
    for n, a in plant.items():
        samples += a * dens.entry(n) * np.exp(2j * np.pi * n * theta)
    shift = 137
    t1 = periods(RestrictionProfile.from_samples(samples, 2.0), (-8, 8))
    t2 = periods(RestrictionProfile.from_samples(np.roll(samples, -shift), 2.0),
                 (-8, 8))
    assert np.max(np.abs(np.abs(t1.p) - np.abs(t2.p))) < 1e-9
    extract_coefficients(t1, dens)
    extract_coefficients(t2, dens)
    for t in (8, 4):
        assert t1.partial_sum(t) == pytest.approx(t2.partial_sum(t), abs=1e-9)


# ------------------------------------------------------------- extraction

def synth_profile(dens, plant, grid=1024, length=1.0):
    theta = np.arange(grid) / grid
    samples = np.zeros(grid, dtype=complex)
    for n, a in plant.items():
        samples += a * dens.entry(n) * np.exp(2j * np.pi * n * theta)
    return RestrictionProfile.from_samples(samples, length)


def test_extract_roundtrip_geodesic():
    par = SpectralParam(lam=40j)
    dens = density_b(par, 1.0 / np.log(2.0), (-20, 20))
    usable = [int(n) for n in dens.n_values
              if abs(dens.entry(int(n))) > 1e-4 * dens.max_abs()]
    for _ in range(10):
        plant = {n: complex(RNG.normal(), RNG.normal()) for n in usable}
        table = periods(synth_profile(dens, plant), (-20, 20))
        extract_coefficients(table, dens)
        for n in usable:
            assert abs(table.a[n] - plant[n]) < 1e-8


def test_extract_roundtrip_circle():
    par = SpectralParam(lam=40j)
    dens = density_c(par, GroupElement([[2.0, 0.0], [0.0, 0.5]]), (-20, 20))
    usable = [int(n) for n in dens.n_values if n % 2 == 0
              and abs(dens.entry(int(n))) > 1e-4 * dens.max_abs()]
    plant = {n: complex(RNG.normal(), RNG.normal()) for n in usable}
    table = periods(synth_profile(dens, plant), (-20, 20))
    extract_coefficients(table, dens)
    for n in usable:
        assert abs(table.a[n] - plant[n]) < 1e-8
    # odd entries are flagged, not extracted
    assert all(n % 2 == 0 for n in table.a)


def test_extract_threshold_flags():
    par = SpectralParam(lam=10j)
    dens = density_b(par, 2.0, (-30, 30))
    plant = {0: 1.0 + 0j, 1: 0.5j}
    table = periods(synth_profile(dens, plant), (-30, 30))
    extract_coefficients(table, dens, threshold=1e-12)
    flagged = [n for n, why in table.flags.items()
               if why == "near-zero model density"]
    assert flagged
    assert all(n not in table.a for n in flagged)


def test_extract_odd_inconsistency_raises():
    par = SpectralParam(lam=20j)
    dens = density_c(par, GroupElement([[2.0, 0.0], [0.0, 0.5]]), (-6, 6))
    theta = np.arange(512) / 512.0
    samples = np.exp(2j * np.pi * 3 * theta)     # pure odd content
    table = periods(RestrictionProfile.from_samples(samples, 1.0), (-6, 6))
    with pytest.raises(StructuralInconsistencyError):
        extract_coefficients(table, dens)


def test_extract_parameter_mismatch():
    par = SpectralParam(lam=20j)
    dens = density_b(par, 1.0, (-4, 4))
    prof = RestrictionProfile.from_samples(np.ones(256), 1.0, mu=0.25 + 81.0,
                                           spectral_r=9.0)
    table = periods(prof, (-4, 4))
    with pytest.raises(ValueError):
        extract_coefficients(table, dens)


def test_package_attribute_is_the_module():
    import geoperiods
    assert geoperiods.periods.restrict is restrict


@pytest.mark.parametrize("kind", ["geodesic-b", "circle-c"])
def test_coefficient_table_is_the_explicit_chain(first_eigenfunction, kind):
    phi = first_eigenfunction
    par = SpectralParam.from_r(phi.spectral_r)
    n_range = (-20, 20)
    if kind == "geodesic-b":
        curve = geodesic_orbit_from_matrix(GroupElement([[883, 1428],
                                                         [546, 883]]))
        dens = density_b(par, curve.q, n_range)
    else:
        curve = circle_orbit(0.2 + 1.1j, 1.6)
        dens = density_c(par, curve.g, n_range)
    table = coefficient_table(phi, curve, n_range)
    ref = extract_coefficients(
        periods(restrict(phi, curve, grid=2048), n_range), dens,
        threshold=1e-10)
    assert table.density.kind == kind
    assert np.array_equal(table.fourier, ref.fourier)
    assert np.array_equal(table.density.entries, ref.density.entries)
    assert table.a == ref.a and table.flags == ref.flags
    assert table.a


def test_coefficient_table_needs_a_modular_curve():
    with pytest.raises(ValueError):
        coefficient_table(sphere_harmonic(4, 4), SphereEquator(), (-4, 4))


def test_partial_sums_monotone():
    par = SpectralParam(lam=40j)
    dens = density_b(par, 1.0, (-15, 15))
    plant = {n: complex(RNG.normal(), RNG.normal()) for n in range(-10, 11)
             if abs(dens.entry(n)) > 1e-6 * dens.max_abs()}
    table = periods(synth_profile(dens, plant), (-15, 15))
    extract_coefficients(table, dens)
    sums = [table.partial_sum(t) for t in (1, 2, 4, 8, 15)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


# ---------------------------------------------------------- average bound

def unit_table(mu, n_max=64, curve_id="synthetic"):
    """PeriodTable whose extracted coefficients are exactly 1."""
    tb = periods(RestrictionProfile.from_samples(
        np.zeros(512, dtype=complex), 1.0, curve_id=curve_id, mu=mu),
        (-n_max, n_max))
    tb.a = {n: 1.0 + 0j for n in range(-n_max, n_max + 1)}
    return tb


def test_average_bound_planted_unit():
    # sum = 2T+1: ratio (2T+1)/max(T, sqrt(mu)) stays within [1, 3]
    tables = [unit_table(mu) for mu in (30.0, 100.0, 400.0)]
    rep = check_average_bound(tables, (8, 16, 32, 64))
    assert rep.passed
    assert rep.empirical_constant < 3.0


def test_average_bound_flags_growth():
    tables = [unit_table(mu) for mu in (30.0, 100.0)]
    bad = unit_table(100.0, curve_id="bad")
    bad.a = {n: complex(abs(n) + 1.0) for n in range(-64, 65)}  # sum ~ T^3
    rep = check_average_bound([tables[0], bad], (8, 16, 32, 64))
    assert not rep.passed
    assert rep.max_growth_t > 3.0


def test_average_bound_input_validation():
    with pytest.raises(ValueError):
        check_average_bound([unit_table(10.0)], (8, 16, 32))
    with pytest.raises(ValueError):
        check_average_bound([unit_table(10.0), unit_table(20.0)], (8, 16))


# ------------------------------------------------------------ exponent fit

def equator_norm(n, m):
    prof = restrict(sphere_harmonic(n, m), SphereEquator())
    return prof.norm_restriction()


def test_fit_exponent_sphere_quarter():
    pairs = [(n * (n + 1.0), equator_norm(n, n)) for n in range(10, 121, 5)]
    slope, const, resid = fit_restriction_exponent(pairs)
    assert abs(slope - 0.25) < 0.02
    assert const > 0


def test_fit_exponent_zonal_below_quarter():
    # the m = 0 family is non-extremal: strictly smaller growth
    pairs = [(n * (n + 1.0), equator_norm(n, 0)) for n in range(10, 121, 10)]
    slope, _, _ = fit_restriction_exponent(pairs)
    assert slope < 0.23


def test_fit_exponent_torus_flat():
    pairs = [(4 * np.pi ** 2 * (k * k + 9.0),
              restrict(torus_mode((3, k)), TorusGeodesic()).norm_restriction())
             for k in (1, 3, 7, 15, 31, 63)]
    slope, _, _ = fit_restriction_exponent(pairs)
    assert abs(slope) < 0.02


def test_fit_exponent_requires_spread():
    with pytest.raises(ValueError):
        fit_restriction_exponent([(10.0, 1.0), (11.0, 1.0), (12.0, 1.0),
                                  (13.0, 1.0), (14.0, 1.0)])
    with pytest.raises(ValueError):
        fit_restriction_exponent([(10.0, 1.0)] * 3)
