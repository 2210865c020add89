"""Property-based checks of the group law, the Mobius action, the
fundamental-domain reduction, cusp-form evaluation and the tanh-sinh
rule at an endpoint singularity (hypothesis, derandomized so reruns
agree)."""

import functools
import glob
import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import (assume, example, given, settings,  # noqa: E402
                        strategies as st)

from geoperiods import eigen  # noqa: E402
from geoperiods.eigen import pullback  # noqa: E402
from geoperiods.hypgeom import GroupElement, mobius_act  # noqa: E402
from geoperiods.quad import integrate_adaptive  # noqa: E402
from geoperiods.specfun import bessel_k_imag  # noqa: E402

COMMITTED_RECORDS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "form_cache", "maass_*.json")))

entries = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
matrices = st.tuples(entries, entries, entries, entries)
points = st.builds(complex, st.floats(-8.0, 8.0), st.floats(0.05, 8.0))
derandomized = settings(derandomize=True, database=None, deadline=None)


def element(entries):
    a, b, c, d = entries
    assume(abs(a * d - b * c) > 0.1)    # away from the singular matrices
    return GroupElement([[a, b], [c, d]])


@derandomized
@given(matrices, matrices, matrices)
def test_compose_is_associative_and_inverse_reverses(m1, m2, m3):
    g1, g2, g3 = element(m1), element(m2), element(m3)
    assert ((g1 @ g2) @ g3).is_close(g1 @ (g2 @ g3), tol=1e-9)
    assert (g1 @ g1.inv()).is_close(GroupElement(np.eye(2)), tol=1e-9)
    assert (g1 @ g2).inv().is_close(g2.inv() @ g1.inv(), tol=1e-9)


@derandomized
@given(matrices, matrices, points)
def test_mobius_act_is_a_left_action(m1, m2, z):
    g1, g2 = element(m1), element(m2)
    inner = mobius_act(g2, z)
    assume(inner.imag > 1e-3)           # well-conditioned second step
    lhs = mobius_act(g1 @ g2, z)
    rhs = mobius_act(g1, inner)
    assert lhs.imag > 0
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@derandomized
@given(points)
def test_pullback_lands_in_the_fundamental_domain_and_stays(z):
    w = pullback(z)
    assert abs(w.real) <= 0.5
    assert abs(w) >= 1.0 - 1e-15
    assert w.imag > 0
    assert w.imag >= np.sqrt(3) / 2 - 1e-12
    assert pullback(w) == w


@functools.cache
def committed_form(record):
    """A committed form and max|phi| over the fundamental-domain grid."""
    form = eigen.load_form(record)
    pts, _ = eigen._fundamental_domain_grid()
    return form, float(np.max(np.abs(form.value(pts))))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.sampled_from(COMMITTED_RECORDS), st.lists(
    st.builds(complex, st.floats(-8.0, 8.0), st.floats(1e-3, 10.0)),
    min_size=1, max_size=12))
@example(COMMITTED_RECORDS[0], [complex(-0.5, np.sqrt(3) / 2),  # e^{2 pi i/3}
                                complex(0.5, np.sqrt(3) / 2),
                                complex(-0.5, 1.3), complex(0.5, 9.5)])
def test_form_value_matches_the_exact_kernel_series(record, zs):
    # value reads K_iR from the form's table; the Fourier-Bessel series
    # summed with bessel_k_imag at the pulled-back points must agree
    form, scale = committed_form(record)
    w = np.array([pullback(z) for z in zs])
    n = np.arange(1, len(form.coefficients) + 1)
    osc = np.cos if form.parity == "even" else np.sin
    terms = (bessel_k_imag(form.R, 2 * np.pi * np.outer(w.imag, n))
             * osc(2 * np.pi * np.outer(w.real, n)))
    direct = form.l2_scale * np.sqrt(w.imag) * (terms @ form.coefficients)
    assert np.max(np.abs(form.value(np.array(zs)) - direct)) <= 1e-12 * scale


@derandomized
@given(st.floats(-0.95, 3.0, exclude_min=True, exclude_max=True))
def test_power_integral_is_exact_within_its_error_estimate(alpha):
    r = integrate_adaptive(lambda x: x ** alpha, 0.0, 1.0,
                           singular_exponent_at=(0.0, alpha))
    err = abs(r.value - 1.0 / (1.0 + alpha))
    assert err <= 1e-12
    assert err <= max(r.error_estimate, 1e-14)


@derandomized
@given(st.floats(-0.95, 3.0, exclude_min=True, exclude_max=True))
def test_power_integral_declared_at_b_is_exact_within_its_error_estimate(alpha):
    # int_0^1 (1-x)^alpha dx shifted to [-1, 0], so that the integrand
    # reads its distance to the singular end b = 0 exactly: written as
    # (1-x)^alpha on [0, 1], x rounds to ulp(1) near b and the rule
    # does not converge for alpha <= -0.6
    r = integrate_adaptive(lambda x: (-x) ** alpha, -1.0, 0.0,
                           singular_exponent_at=(0.0, alpha))
    err = abs(r.value - 1.0 / (1.0 + alpha))
    assert err <= 1e-12
    assert err <= max(r.error_estimate, 1e-14)
