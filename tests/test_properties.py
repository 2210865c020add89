"""Property-based checks of the group law, the Mobius action and the
fundamental-domain reduction (hypothesis, derandomized so reruns agree)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from geoperiods.eigen import pullback  # noqa: E402
from geoperiods.hypgeom import GroupElement, identity, mobius_act  # noqa: E402

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
    assert (g1 @ g1.inv()).is_close(identity(), tol=1e-9)
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
