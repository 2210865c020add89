import numpy as np
import pytest

from geoperiods.hypgeom import (GroupElement, InvalidElementError,
                                NotHyperbolicError, circle_orbit, diagonal,
                                geodesic_orbit_from_matrix,
                                hyperbolic_distance, identity, mobius_act,
                                rotation)

RNG = np.random.default_rng(20260810)


def random_element(det_sign=1):
    while True:
        m = RNG.normal(size=(2, 2))
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(d) > 0.1 and np.sign(d) == det_sign:
            return GroupElement(m)


def test_canonical_det_is_unit():
    for _ in range(50):
        g = random_element(det_sign=RNG.choice([-1, 1]))
        assert abs(abs(g.det) - 1.0) < 1e-12


def test_group_axioms():
    for _ in range(50):
        a, b, c = (random_element(RNG.choice([-1, 1])) for _ in range(3))
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        assert lhs.is_close(rhs, 1e-12)
        assert (a @ a.inv()).is_close(identity(), 1e-12)


def test_mobius_examples():
    assert mobius_act(identity(), 2 + 3j) == 2 + 3j
    assert abs(mobius_act(diagonal(2.0), 1j) - 4j) < 1e-15
    assert abs(mobius_act(rotation(np.pi / 2), 1j) - 1j) < 1e-15


def test_mobius_left_action():
    for _ in range(30):
        g1 = random_element(RNG.choice([-1, 1]))
        g2 = random_element(RNG.choice([-1, 1]))
        z = complex(RNG.normal(), abs(RNG.normal()) + 0.1)
        lhs = mobius_act(g1 @ g2, z)
        rhs = mobius_act(g1, mobius_act(g2, z))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
        assert mobius_act(g1, z).imag > 0


def test_mobius_rejects_noninvertible():
    with pytest.raises(InvalidElementError):
        GroupElement([[1.0, 2.0], [2.0, 4.0]])


def test_mobius_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        mobius_act(identity(), 1 - 1j)


def test_distance_basics():
    assert hyperbolic_distance(1j, 1j) == 0.0
    assert abs(hyperbolic_distance(1j, 4j) - np.log(4.0)) < 1e-14
    # symmetry
    assert hyperbolic_distance(0.3 + 1j, 2 + 0.5j) == pytest.approx(
        hyperbolic_distance(2 + 0.5j, 0.3 + 1j), abs=0)


def test_distance_path_length_oracle():
    # geodesic through i and 1+i: semicircle center 1/2, radius sqrt(5)/2;
    # integrate ds = r dtheta / y numerically
    c, r = 0.5, np.sqrt(1.25)
    t1 = np.arctan2(1.0, -0.5)
    t2 = np.arctan2(1.0, 0.5)
    thetas = np.linspace(t2, t1, 20001)
    ys = r * np.sin(thetas)
    path = np.trapezoid(r / ys, thetas)
    assert abs(hyperbolic_distance(1j, 1 + 1j) - path) < 1e-8


def test_distance_invariance_both_orientations():
    z, w = 0.4 + 1.3j, -0.7 + 0.2j + 0.5j
    d0 = hyperbolic_distance(z, w)
    for _ in range(20):
        g = random_element(RNG.choice([-1, 1]))
        d1 = hyperbolic_distance(mobius_act(g, z), mobius_act(g, w))
        assert abs(d1 - d0) < 1e-10


def test_geodesic_diagonal_case():
    orb = geodesic_orbit_from_matrix(diagonal(2.0))
    assert abs(orb.length - 2.0 * np.log(2.0)) < 1e-14
    assert orb.conjugator.is_close(identity(), 1e-12)
    assert abs(orb.q - 1.0 / np.log(2.0)) < 1e-13


def test_geodesic_displacement_oracle():
    gamma = GroupElement([[2.0, 1.0], [1.0, 1.0]])
    orb = geodesic_orbit_from_matrix(gamma)
    assert abs(orb.length - 2.0 * np.arccosh(1.5)) < 1e-12
    # displacement d(z, gamma z) along the computed axis equals the length
    for theta in (0.0, 0.3, 0.8):
        z = orb.points(np.array([theta]))[0]
        assert abs(hyperbolic_distance(z, mobius_act(gamma, z))
                   - orb.length) < 1e-10
    # and is minimized on the axis
    off_axis = orb.points(np.array([0.25]))[0] + 0.3j
    assert hyperbolic_distance(off_axis, mobius_act(gamma, off_axis)) \
        > orb.length


def test_geodesic_conjugation_invariance():
    gamma = GroupElement([[2.0, 1.0], [1.0, 1.0]])
    base = geodesic_orbit_from_matrix(gamma).length
    for _ in range(10):
        h = random_element(1)
        conj = GroupElement(h.mat @ gamma.mat @ h.inv().mat)
        assert abs(geodesic_orbit_from_matrix(conj).length - base) < 1e-10


def test_geodesic_power_scaling():
    gamma = GroupElement([[2.0, 1.0], [1.0, 1.0]])
    l1 = geodesic_orbit_from_matrix(gamma).length
    m = gamma.mat
    for n in (2, 3, 5):
        ln = geodesic_orbit_from_matrix(
            GroupElement(np.linalg.matrix_power(m, n))).length
        assert abs(ln - n * l1) < 1e-9


def test_geodesic_rejects_nonhyperbolic():
    with pytest.raises(NotHyperbolicError):
        geodesic_orbit_from_matrix(rotation(0.7))          # elliptic
    with pytest.raises(NotHyperbolicError):
        geodesic_orbit_from_matrix(GroupElement([[1.0, 1.0], [0.0, 1.0]]))


def test_geodesic_large_trace():
    orb = geodesic_orbit_from_matrix(GroupElement([[883, 1428], [546, 883]]))
    assert abs(orb.length - 2.0 * np.arccosh(883.0)) < 1e-10


def test_circle_construction():
    orb = circle_orbit(1j, np.log(2.0))
    theta = np.arange(16) / 16.0
    d = hyperbolic_distance(orb.points(theta), np.full(16, 1j))
    assert np.max(np.abs(d - np.log(2.0))) < 1e-10
    assert abs(mobius_act(orb.h, 1j) - 1j) < 1e-12
    assert abs(hyperbolic_distance(1j, mobius_act(orb.g, 1j))
               - np.log(2.0)) < 1e-12


def test_circle_distance_constancy():
    orb = circle_orbit(1 + 2j, 0.5)
    theta = RNG.uniform(0, 1, 40)
    d = hyperbolic_distance(orb.points(theta), np.full(40, 1 + 2j))
    assert np.max(np.abs(d - 0.5)) < 1e-9


def test_circle_points_concyclic():
    # the trace is a Euclidean circle: four sampled points are concyclic
    orb = circle_orbit(0.3 + 1.4j, 0.8)
    # theta and theta + 1/2 trace the same point; stay inside a half-loop
    z = orb.points(np.array([0.05, 0.17, 0.31, 0.44]))
    # circumcenter from the first three points
    ax, ay = z[0].real, z[0].imag
    bx, by = z[1].real, z[1].imag
    cx, cy = z[2].real, z[2].imag
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    center = complex(ux, uy)
    radii = np.abs(z - center)
    assert np.max(radii) - np.min(radii) < 1e-9


@pytest.mark.parametrize("radius", [1e-4, 0.8, 1.6])
def test_circle_points_match_group_product(radius):
    # the closed-form rotation against the product h k(2 pi theta) g . i
    orb = circle_orbit(0.2 + 1.1j, radius)
    theta = RNG.uniform(0, 1, 64)
    pts = orb.points(theta)
    ref = np.array([mobius_act(orb.h @ rotation(2 * np.pi * t) @ orb.g, 1j)
                    for t in theta])
    assert np.max(np.abs(pts - ref) / np.abs(ref)) < 1e-13


def test_circle_small_radius_limit():
    center = 0.5 + 1.5j
    for r in (1e-2, 1e-4):
        orb = circle_orbit(center, r)
        pts = orb.points(np.arange(8) / 8.0)
        assert np.max(np.abs(pts - center)) < 3 * r


def test_circle_rejects_bad_radius():
    with pytest.raises(ValueError):
        circle_orbit(1j, 0.0)
    with pytest.raises(ValueError):
        circle_orbit(1j, -1.0)


def test_circle_length_is_circumference():
    orb = circle_orbit(1j, 0.7)
    assert abs(orb.length - 2 * np.pi * np.sinh(0.7)) < 1e-12
