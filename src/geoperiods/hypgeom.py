"""Upper half-plane geometry and orbit descriptors.

Real 2x2 matrices up to scalars act on {Im z > 0} by fractional-linear
maps (det < 0 representatives act through the conjugate variable, so the
full motion group is covered).  Hyperbolic elements are diagonalized into
closed-geodesic data; circles are described by a centering element h and
a radius element g with the parametrization theta -> h k(2 pi theta) g.i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "InvalidElementError",
    "NotHyperbolicError",
    "GroupElement",
    "diagonal",
    "translation_to",
    "mobius_act",
    "hyperbolic_distance",
    "GeodesicOrbit",
    "geodesic_orbit_from_matrix",
    "CircleOrbit",
    "circle_orbit",
    "orbit_from_spec",
]


class InvalidElementError(ValueError):
    pass


class NotHyperbolicError(ValueError):
    pass


_HYPERBOLIC_MARGIN = 1e-9


def _det2(m) -> float:
    """2x2 determinant in extended precision.

    ad - bc cancels catastrophically for large integer-like entries (the
    interesting hyperbolic elements have ad - bc = 1 with ad ~ 1e6), and
    the constructor divides by sqrt|det|, so the naive float64 determinant
    would smear its cancellation error over every entry.
    """
    ml = np.asarray(m, dtype=np.longdouble)
    return float(ml[0, 0] * ml[1, 1] - ml[0, 1] * ml[1, 0])


@dataclass(frozen=True)
class GroupElement:
    """A real 2x2 matrix up to nonzero scalar, stored with |det| = 1.

    The canonical representative scales to |det| = 1 and makes the first
    nonzero entry (row-major) positive, so equality tests are meaningful.
    """

    mat: np.ndarray

    def __init__(self, mat):
        m = np.array(mat, dtype=float).reshape(2, 2)
        if not np.all(np.isfinite(m)):
            raise InvalidElementError("non-finite matrix entries")
        det = _det2(m)
        if abs(det) < 1e-100:
            raise InvalidElementError("matrix is not invertible")
        m = m / np.sqrt(abs(det))
        flat = m.ravel()
        lead = flat[np.nonzero(np.abs(flat) > 1e-14)[0][0]]
        if lead < 0:
            m = -m
        object.__setattr__(self, "mat", m)

    @property
    def det(self) -> float:
        return _det2(self.mat)

    @property
    def trace(self) -> float:
        return float(self.mat[0, 0] + self.mat[1, 1])

    def compose(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.mat @ other.mat)

    def __matmul__(self, other):
        return self.compose(other)

    def inv(self) -> "GroupElement":
        a, b, c, d = self.mat.ravel()
        return GroupElement(np.array([[d, -b], [-c, a]]))

    def is_close(self, other: "GroupElement", tol=1e-12) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.mat))),
                    float(np.max(np.abs(other.mat))))
        return bool(np.max(np.abs(self.mat - other.mat)) < tol * scale)

    def fixes_i(self, tol=1e-12) -> bool:
        return abs(mobius_act(self, 1j) - 1j) < tol

    def __repr__(self):
        a, b, c, d = self.mat.ravel()
        return f"GroupElement([[{a:.6g}, {b:.6g}], [{c:.6g}, {d:.6g}]])"


def diagonal(a: float) -> GroupElement:
    """diag(a, 1/a) for a != 0."""
    if a == 0:
        raise InvalidElementError("diagonal entry must be nonzero")
    return GroupElement(np.array([[a, 0.0], [0.0, 1.0 / a]]))


def translation_to(z: complex) -> GroupElement:
    """Upper-triangular element sending i to z (Im z > 0)."""
    z = complex(z)
    if z.imag <= 0:
        raise InvalidElementError("target must lie in the upper half-plane")
    sy = np.sqrt(z.imag)
    return GroupElement(np.array([[sy, z.real / sy], [0.0, 1.0 / sy]]))


def mobius_act(g: GroupElement, z):
    """Action on the upper half-plane: (az+b)/(cz+d), with z replaced by
    conj(z) for det < 0 representatives.  Accepts complex scalars/arrays."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(z.imag <= 0):
        raise ValueError("mobius_act: point must have Im z > 0")
    a, b, c, d = g.mat.ravel()
    if g.det < 0:
        z = np.conj(z)
    w = (a * z + b) / (c * z + d)
    return complex(w[0]) if scalar else w


def hyperbolic_distance(z, w):
    """Distance for the metric of curvature -1 on {Im z > 0}.

    Uses d = 2 asinh(|z - w| / (2 sqrt(Im z Im w))), stable for all
    separations.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if np.any(z.imag <= 0) or np.any(w.imag <= 0):
        raise ValueError("hyperbolic_distance: points must have Im > 0")
    out = 2.0 * np.arcsinh(np.abs(z - w) / (2.0 * np.sqrt(z.imag * w.imag)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GeodesicOrbit:
    """Closed-geodesic data of a hyperbolic element conjugate to
    diag(a, 1/a) with a > 1: conjugator carries the axis (columns are
    eigenvector directions), length = 2 ln a and ``q`` = 2/length = 1/ln a.
    """

    surface: ClassVar[str] = "modular"
    conjugator: GroupElement
    length: float

    @property
    def q(self) -> float:
        return 2.0 / self.length

    def points(self, theta):
        """Arc-length parametrization t(theta) = conjugator . (i e^{L theta})."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        z = 1j * np.exp(self.length * theta)
        return mobius_act(self.conjugator, z)

    def curve_id(self) -> str:
        return f"geodesic(length={self.length:.6g})"


def geodesic_orbit_from_matrix(gamma: GroupElement) -> GeodesicOrbit:
    """Diagonalize a hyperbolic element into closed-geodesic data.

    Requires |tr|/sqrt|det| > 2 (+ margin).  The reconstruction
    conjugator . generator . conjugator^{-1} reproduces gamma to 1e-10.
    """
    tr = abs(gamma.trace) / np.sqrt(abs(gamma.det))
    if gamma.det > 0 and tr <= 2.0 + _HYPERBOLIC_MARGIN:
        kind = "parabolic" if abs(tr - 2.0) <= _HYPERBOLIC_MARGIN else "elliptic"
        raise NotHyperbolicError(
            f"element is {kind}: |tr|/sqrt|det| = {tr:.12g}")
    # explicit 2x2 eigensystem; the small eigenvalue comes from det/big so
    # a huge trace does not wash it out in the subtraction
    m = gamma.mat
    t, det = gamma.trace, gamma.det
    disc = t * t - 4.0 * det
    big = 0.5 * (t + np.sign(t if t != 0 else 1.0) * np.sqrt(disc))
    small = det / big
    evals = np.array([big, small]) if abs(big) >= abs(small) \
        else np.array([small, big])
    if abs(evals[1]) < 1e-100 or abs(evals[0] / evals[1]) < 1.0 + 1e-12:
        raise NotHyperbolicError("eigenvalue ratio too close to 1")

    def eigvec(lam):
        v1 = np.array([m[0, 1], lam - m[0, 0]])
        v2 = np.array([lam - m[1, 1], m[1, 0]])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        return v / np.linalg.norm(v)

    evecs = np.column_stack([eigvec(evals[0]), eigvec(evals[1])])
    a = np.sqrt(abs(evals[0] / evals[1]))
    if np.linalg.det(evecs) < 0:
        evecs = evecs @ np.diag([1.0, -1.0])
    conj = GroupElement(evecs)
    gen = GroupElement(np.diag([a, 1.0 / a]) * np.sign(evals)
                       if evals[0] * evals[1] < 0 else np.diag([a, 1.0 / a]))
    recon = conj @ gen @ conj.inv()
    if not (recon.is_close(gamma, 1e-10)
            or recon.is_close(GroupElement(-gamma.mat), 1e-10)):
        raise NotHyperbolicError("diagonalization failed reconstruction check")
    return GeodesicOrbit(conjugator=conj, length=2.0 * np.log(a))


@dataclass(frozen=True)
class CircleOrbit:
    """Distance circle: center h.i, radius d(i, g.i), traced by
    theta -> h k(2 pi theta) g . i.  A full theta-loop passes each
    geometric point twice (the rotation subgroup has period pi), which
    makes all odd Fourier modes of restrictions vanish identically."""

    surface: ClassVar[str] = "modular"
    h: GroupElement
    g: GroupElement
    radius: float
    center: complex

    @property
    def length(self) -> float:
        """Hyperbolic circumference 2 pi sinh(radius)."""
        return float(2.0 * np.pi * np.sinh(self.radius))

    def points(self, theta):
        """h k(2 pi theta) g . i, with k(phi) = [[c, -s], [s, c]] acting in
        closed form on w = g . i."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        w = mobius_act(self.g, 1j)
        c, s = np.cos(2.0 * np.pi * theta), np.sin(2.0 * np.pi * theta)
        return mobius_act(self.h, (c * w - s) / (s * w + c))

    def curve_id(self) -> str:
        return f"circle(center={self.center:.6g}, radius={self.radius:.6g})"


def circle_orbit(center: complex, radius: float) -> CircleOrbit:
    """Circle of hyperbolic radius ``radius`` around ``center``."""
    if radius <= 0:
        raise ValueError(f"circle radius must be positive, got {radius:g}")
    center = complex(center)
    if center.imag <= 0:
        raise ValueError("circle center must lie in the upper half-plane")
    h = translation_to(center)
    g = diagonal(np.exp(radius / 2.0))
    return CircleOrbit(h=h, g=g, radius=float(radius), center=center)


def orbit_from_spec(spec):
    """The orbit of a config curve spec: ``{"kind": "geodesic", "matrix":
    M}`` or ``{"kind": "circle", "center": [x, y], "radius": r}``."""
    if spec["kind"] == "geodesic":
        return geodesic_orbit_from_matrix(GroupElement(spec["matrix"]))
    if spec["kind"] == "circle":
        return circle_orbit(complex(*spec["center"]), spec["radius"])
    raise ValueError(f"unknown curve kind {spec['kind']!r}")
