"""Eigenfunction providers on three surfaces.

Round sphere and flat torus modes come in closed form (they serve as
sharpness oracles); Laplace eigenfunctions on the modular surface are
produced by an automorphy-collocation solver: a truncated Fourier-Bessel
expansion is sampled on a low horocycle, pulled back into the fundamental
domain, and the implied linear system is closed by regularized least
squares.  Eigenvalues are located by bisecting the sign of a two-height
coefficient mismatch, then confirmed at deeper truncation.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .specfun import bessel_k_imag

__all__ = [
    "Eigenfunction",
    "MaassForm",
    "NoEigenvalueError",
    "ConditioningError",
    "AccuracyLossError",
    "ReductionError",
    "sphere_harmonic",
    "torus_mode",
    "hejhal_solve",
    "as_eigenfunction",
    "evaluate",
    "pullback",
    "laplace_residual",
    "save_form",
    "load_form",
    "cache_path",
    "find_form",
    "resolve_cache_dir",
]

CACHE_ENV_VAR = "GEOPERIODS_CACHE"
_CACHE_FORMAT_VERSION = 1


def resolve_cache_dir(*candidates) -> str:
    """The first non-empty candidate, else $GEOPERIODS_CACHE, else
    ``form_cache`` (relative to the working directory)."""
    for c in candidates:
        if c:
            return c
    return os.environ.get(CACHE_ENV_VAR) or "form_cache"


class NoEigenvalueError(Exception):
    pass


class ConditioningError(Exception):
    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class AccuracyLossError(Exception):
    pass


class ReductionError(Exception):
    """``pullback`` did not reach the fundamental domain within its steps."""


@dataclass(frozen=True)
class Eigenfunction:
    """An evaluatable unit-norm eigenfunction.

    ``surface`` is sphere / torus / modular; ``mu`` the eigenvalue of the
    (geometer's, nonnegative) Laplacian; ``spectral_r`` satisfies
    mu = 1/4 + r^2 on hyperbolic surfaces and is None otherwise.
    ``evaluator`` takes surface points (see ``evaluate``).
    """

    surface: str
    mu: float
    spectral_r: Optional[float]
    evaluator: Callable
    label: str = ""


# ---------------------------------------------------------------------------
# sphere: real orthonormal spherical harmonics through the fully
# normalized Legendre recurrence (stable to high degree, no factorials)


def _norm_legendre(n, m, costh):
    """N_n^m P_n^m(cos theta) with N_n^m = sqrt((2n+1)/(4pi) (n-m)!/(n+m)!)."""
    costh = np.asarray(costh, dtype=float)
    sinth = np.sqrt(np.maximum(0.0, 1.0 - costh * costh))
    q_mm = np.full(costh.shape, 1.0 / np.sqrt(4.0 * np.pi))
    for k in range(1, m + 1):
        q_mm = -np.sqrt((2.0 * k + 1.0) / (2.0 * k)) * sinth * q_mm
    if n == m:
        return q_mm
    q_prev = q_mm
    q_cur = np.sqrt(2.0 * m + 3.0) * costh * q_mm
    for k in range(m + 2, n + 1):
        a = np.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
        b = np.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
        q_cur, q_prev = a * (costh * q_cur - b * q_prev), q_cur
    return q_cur


def sphere_harmonic(n: int, m: int) -> Eigenfunction:
    """Real unit-norm spherical harmonic of degree n, order m.

    Points are (colatitude, longitude) pairs; orders m > 0 carry
    sqrt(2) cos(m phi), m < 0 carry sqrt(2) sin(|m| phi).
    """
    if abs(m) > n:
        raise ValueError(f"sphere_harmonic: |m| = {abs(m)} exceeds degree {n}")
    n = int(n)
    m_abs = abs(int(m))
    sign_m = int(np.sign(m))

    def ev(points):
        pts = np.asarray(points, dtype=float)
        theta, phi = pts[..., 0], pts[..., 1]
        leg = _norm_legendre(n, m_abs, np.cos(theta))
        if sign_m > 0:
            return np.sqrt(2.0) * leg * np.cos(m_abs * phi)
        if sign_m < 0:
            return np.sqrt(2.0) * leg * np.sin(m_abs * phi)
        return leg * np.ones_like(phi)

    return Eigenfunction(surface="sphere", mu=float(n * (n + 1)),
                         spectral_r=None, evaluator=ev,
                         label=f"Y({n},{m})")


def torus_mode(k) -> Eigenfunction:
    """Cosine mode sqrt(2) cos(2 pi <k, x>) on the unit-square torus
    (constant 1 for k = (0,0)); eigenvalue 4 pi^2 |k|^2."""
    k = tuple(int(v) for v in k)

    def ev(points):
        pts = np.asarray(points, dtype=float)
        phase = 2.0 * np.pi * (k[0] * pts[..., 0] + k[1] * pts[..., 1])
        if k == (0, 0):
            return np.ones_like(phase)
        return np.sqrt(2.0) * np.cos(phase)

    mu = 4.0 * np.pi ** 2 * float(k[0] ** 2 + k[1] ** 2)
    return Eigenfunction(surface="torus", mu=mu, spectral_r=None,
                         evaluator=ev, label=f"torus{k}")


# ---------------------------------------------------------------------------
# modular surface


def pullback(z: complex, max_steps=200) -> complex:
    """Reduce z into the standard fundamental domain {|z|>=1, |Re z|<=1/2}.

    Raises ReductionError if ``max_steps`` translate-and-invert steps do
    not get there.
    """
    z0 = z = complex(z)
    if z.imag <= 0:
        raise ValueError("pullback: point must have Im z > 0")
    for _ in range(max_steps):
        z = complex(z.real - round(z.real), z.imag)
        if abs(z) < 1.0 - 1e-15:
            z = -1.0 / z
        else:
            return z
    raise ReductionError(f"pullback: {z0} not reduced in {max_steps} steps")


class _KappaTable:
    """Cubic interpolant of u -> e^{pi R/2} K_{iR}(u) on a log grid."""

    def __init__(self, R, u_min, u_max, points=8192):
        self.R = R
        self.lo = np.log(u_min)
        self.hi = np.log(u_max)
        self.n = points
        grid = np.exp(np.linspace(self.lo, self.hi, points))
        self.values = bessel_k_imag(R, grid)
        self.step = (self.hi - self.lo) / (points - 1)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        live = (u > 0) & (np.log(np.maximum(u, 1e-300)) < self.hi)
        if not live.any():
            return out
        t = (np.log(u[live]) - self.lo) / self.step
        i = np.clip(np.floor(t).astype(int), 1, self.n - 3)
        s = t - i
        ym1, y0, y1, y2 = (self.values[i - 1], self.values[i],
                           self.values[i + 1], self.values[i + 2])
        # 4-point Lagrange on the uniform log grid
        out[live] = (ym1 * (-s * (s - 1) * (s - 2) / 6.0)
                     + y0 * ((s * s - 1) * (s - 2) / 2.0)
                     + y1 * (-s * (s + 1) * (s - 2) / 2.0)
                     + y2 * (s * (s * s - 1) / 6.0))
        return out


@dataclass
class MaassForm:
    """Cuspidal eigenfunction data on the modular surface.

    ``coefficients[n-1]`` is the n-th Fourier-Bessel coefficient in the
    a_1 = 1 normalization; ``l2_scale`` rescales to unit L^2 norm with
    respect to the hyperbolic area measure.  Evaluation at z uses
    sum_n a_n kappa(2 pi n y) sqrt(y) {cos|sin}(2 pi n x) after pullback.
    """

    R: float
    parity: str
    M0: int
    y0: float
    coefficients: np.ndarray
    l2_scale: float = 1.0
    residual: float = np.nan
    r_stability: float = np.nan
    height_agreement: float = np.nan
    bracket: tuple = ()
    _table: object = field(default=None, repr=False, compare=False)

    @property
    def mu(self) -> float:
        return 0.25 + self.R * self.R

    def _ensure_table(self):
        if self._table is None:
            u_max = 60.0 + 2.0 * self.R
            self._table = _KappaTable(self.R, 2.0 * np.pi * 0.28, u_max)
        return self._table

    def value(self, z, floor=0.05):
        """Evaluate at complex z (scalar or array), pulling back first.

        The K_iR kernel comes from the cubic table of ``_ensure_table``.
        """
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        pts = np.array([pullback(w) for w in zz.ravel()])
        if np.any(pts.imag < floor):
            raise AccuracyLossError(
                f"evaluation height below {floor:g} after pullback")
        x = pts.real
        y = pts.imag
        osc = np.cos if self.parity == "even" else np.sin
        kap = self._ensure_table()
        total = np.zeros(x.shape)
        sy = np.sqrt(y)
        for idx, a in enumerate(self.coefficients):
            n = idx + 1
            u = 2.0 * np.pi * n * y
            total += a * kap(u) * sy * osc(2.0 * np.pi * n * x)
        total *= self.l2_scale
        total = total.reshape(np.shape(z)) if np.ndim(z) else float(total[0])
        return total


class _Collocation:
    """Fixed sampling geometry: points on a horocycle and their pullbacks."""

    def __init__(self, Y, Q):
        self.Y = Y
        self.Q = Q
        j = np.arange(1, Q + 1)
        self.xj = (j - 0.5) / (2.0 * Q)
        zs = [pullback(complex(x, Y)) for x in self.xj]
        self.xs = np.array([z.real for z in zs])
        self.ys = np.array([z.imag for z in zs])


def _build_system(R, coll, M0, parity):
    ns = np.arange(1, M0 + 1)
    u_pull = 2.0 * np.pi * np.outer(coll.ys, ns)
    k_pull = bessel_k_imag(R, u_pull)
    c_y = bessel_k_imag(R, 2.0 * np.pi * ns * coll.Y) * np.sqrt(coll.Y)
    osc = np.cos if parity == "even" else np.sin
    b = k_pull * np.sqrt(coll.ys)[:, None] * osc(2.0 * np.pi * np.outer(coll.xs, ns))
    cm = osc(2.0 * np.pi * np.outer(coll.xj, ns))
    v = (2.0 / coll.Q) * cm.T @ b
    return v - np.diag(c_y)


def _solve_at(R, coll, M0, parity, rcond=1e-9):
    """Coefficients (a_1 = 1) by least squares; returns (coeffs, residual)."""
    a_mat = _build_system(R, coll, M0, parity)
    m = a_mat[:, 1:]
    rhs = -a_mat[:, 0]
    sol, _, rank, sv = np.linalg.lstsq(m, rhs, rcond=rcond)
    if sv[0] <= 0 or not np.all(np.isfinite(sol)):
        raise ConditioningError("collocation system is singular",
                                condition=np.inf)
    coeffs = np.concatenate([[1.0], sol])
    resid = float(np.linalg.norm(a_mat @ coeffs)
                  / (np.linalg.norm(a_mat, "fro") * np.linalg.norm(coeffs)))
    return coeffs, resid


class _Locator:
    def __init__(self, M0, parity, y1=0.40, y2=0.35):
        self.M0 = M0
        self.parity = parity
        self.coll1 = _Collocation(y1, M0 + 12)
        self.coll2 = _Collocation(y2, M0 + 12)

    def indicator(self, R):
        c1, r1 = _solve_at(R, self.coll1, self.M0, self.parity)
        c2, r2 = _solve_at(R, self.coll2, self.M0, self.parity)
        return float(c1[1] - c2[1]), c1, c2, max(r1, r2)

    def bisect(self, lo, hi, g_lo, steps=34):
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            gm = self.indicator(mid)[0]
            if np.sign(gm) == np.sign(g_lo):
                lo, g_lo = mid, gm
            else:
                hi = mid
        return 0.5 * (lo + hi)


def hejhal_solve(r_bracket, parity="even", M0=14, y0=0.40, scan_step=0.01,
                 residual_tol=1e-8, agreement_tol=1e-6) -> MaassForm:
    """Locate one cusp eigenvalue in ``r_bracket`` and return the form.

    parity "even"/"odd" selects the cosine/sine expansion; "auto" tries
    even first.  The returned R is confirmed by an independent relocation
    at truncation M0+8 (recorded in ``r_stability``); candidates whose
    full-system residual or two-height coefficient agreement fail the
    tolerances are rejected, and NoEigenvalueError is raised if nothing
    survives.
    """
    lo, hi = float(r_bracket[0]), float(r_bracket[1])
    if not (0 < lo < hi):
        raise ValueError("hejhal_solve: need 0 < lo < hi")
    if hi - lo > 2.0:
        raise ValueError("hejhal_solve: bracket too wide; split it")
    if not (0 < y0 < np.sqrt(3.0) / 2.0):
        raise ValueError("hejhal_solve: y0 must lie in (0, sqrt(3)/2)")
    if parity == "auto":
        try:
            return hejhal_solve((lo, hi), "even", M0, y0, scan_step,
                                residual_tol, agreement_tol)
        except NoEigenvalueError:
            return hejhal_solve((lo, hi), "odd", M0, y0, scan_step,
                                residual_tol, agreement_tol)
    if parity not in ("even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")

    locator = _Locator(M0, parity, y1=y0, y2=max(0.28, y0 - 0.05))
    rs = np.arange(lo, hi + scan_step / 2, scan_step)
    gs = np.array([locator.indicator(r)[0] for r in rs])
    flips = np.where(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0)[0]
    if len(flips) == 0:
        raise NoEigenvalueError(
            f"no sign change of the locator over [{lo:g}, {hi:g}] ({parity})")

    last_reason = "no sign change"
    for i in flips:
        r_loc = locator.bisect(rs[i], rs[i + 1], gs[i])
        _, c1, c2, resid = locator.indicator(r_loc)
        agree = float(np.max(np.abs(c1[:min(8, M0)] - c2[:min(8, M0)])))
        if resid > residual_tol or agree > agreement_tol:
            last_reason = (f"candidate R={r_loc:.6f} rejected: residual="
                           f"{resid:.2e}, height agreement={agree:.2e}")
            continue
        # confirm at deeper truncation
        deep = _Locator(M0 + 8, parity, y1=min(y0, 0.35), y2=0.28)
        w = 1e-4
        rs2 = np.linspace(r_loc - w, r_loc + w, 9)
        gs2 = np.array([deep.indicator(r)[0] for r in rs2])
        flips2 = np.where(np.sign(gs2[:-1]) * np.sign(gs2[1:]) < 0)[0]
        if len(flips2) == 0:
            last_reason = f"candidate R={r_loc:.6f} not confirmed at M0+8"
            continue
        j = flips2[np.argmin(np.abs(rs2[flips2] - r_loc))]
        r_deep = deep.bisect(rs2[j], rs2[j + 1], gs2[j])
        if abs(r_deep - r_loc) > 1e-6:
            last_reason = (f"candidate R={r_loc:.6f} unstable under deeper "
                           f"truncation (moved {abs(r_deep - r_loc):.2e})")
            continue
        coeffs, resid_f = _solve_at(r_deep, deep.coll1, M0 + 8, parity)
        form = MaassForm(R=float(r_deep), parity=parity, M0=M0 + 8, y0=y0,
                         coefficients=coeffs, residual=resid_f,
                         r_stability=float(abs(r_deep - r_loc)),
                         height_agreement=agree, bracket=(lo, hi))
        _normalize_l2(form)
        return form
    raise NoEigenvalueError(f"no verified eigenvalue in [{lo:g}, {hi:g}] "
                            f"({parity}); {last_reason}")


def _fundamental_domain_grid(nx=64, ny=48, y_cut=4.5):
    """Gauss product grid over the fundamental domain with d(mu) weights."""
    gx, wx = np.polynomial.legendre.leggauss(nx)
    gy, wy = np.polynomial.legendre.leggauss(ny)
    xs = 0.5 * gx                       # [-1/2, 1/2]
    wxs = 0.5 * wx
    pts = []
    wts = []
    for x, wx_ in zip(xs, wxs):
        y_lo = np.sqrt(max(1.0 - x * x, 0.0))
        ys = 0.5 * (y_cut - y_lo) * gy + 0.5 * (y_cut + y_lo)
        wys = 0.5 * (y_cut - y_lo) * wy
        for y, wy_ in zip(ys, wys):
            pts.append(complex(x, y))
            wts.append(wx_ * wy_ / (y * y))
    return np.array(pts), np.array(wts)


_FD_GRID = None


def _normalize_l2(form: MaassForm):
    global _FD_GRID
    if _FD_GRID is None:
        _FD_GRID = _fundamental_domain_grid()
    pts, wts = _FD_GRID
    form.l2_scale = 1.0
    vals = form.value(pts)
    norm_sq = float(np.sum(wts * np.abs(vals) ** 2))
    form.l2_scale = 1.0 / np.sqrt(norm_sq)
    return form


# ---------------------------------------------------------------------------


def evaluate(phi: Eigenfunction, point):
    """Evaluate an eigenfunction at a surface point (or batch).

    sphere: (colatitude, longitude); torus: (x1, x2); modular: complex z,
    pulled into the fundamental domain first.
    """
    return phi.evaluator(point)


def _d1_d2(f, h):
    """Fourth-order first and second derivatives from a 5-point stencil.

    ``f(k)`` returns the value displaced by k*h, k in -2..2.
    """
    y = [f(k) for k in (-2, -1, 0, 1, 2)]
    d1 = (-y[4] + 8 * y[3] - 8 * y[1] + y[0]) / (12 * h)
    d2 = (-y[4] + 16 * y[3] - 30 * y[2] + 16 * y[1] - y[0]) / (12 * h * h)
    return y[2], d1, d2


def laplace_residual(phi: Eigenfunction, points, h=None) -> float:
    """Max relative finite-difference Laplace residual over sample points.

    Five-point fourth-order stencils in each surface's coordinates; the
    residual is scaled by the largest term of the eigenvalue equation.
    """
    worst = 0.0
    scale = np.sqrt(max(phi.mu, 1.0))
    for p in points:
        if phi.surface == "sphere":
            step = h or min(1e-3, 0.05 / scale)
            th, ph = p
            f = lambda a, b: float(evaluate(phi, np.array([[a, b]]))[0])
            f0, ft, ftt = _d1_d2(lambda k: f(th + k * step, ph), step)
            _, _, fpp = _d1_d2(lambda k: f(th, ph + k * step), step)
            lap = ftt + ft / np.tan(th) + fpp / np.sin(th) ** 2
        elif phi.surface == "torus":
            step = h or min(1e-3, 0.05 / scale)
            x1, x2 = p
            f = lambda a, b: float(evaluate(phi, np.array([[a, b]]))[0])
            f0, _, f11 = _d1_d2(lambda k: f(x1 + k * step, x2), step)
            _, _, f22 = _d1_d2(lambda k: f(x1, x2 + k * step), step)
            lap = f11 + f22
        else:
            z = pullback(complex(p))
            step = h or min(1e-3, 0.05 / scale) * z.imag
            f = lambda w: float(evaluate(phi, w))
            f0, _, fxx = _d1_d2(lambda k: f(z + k * step), step)
            _, _, fyy = _d1_d2(lambda k: f(z + 1j * k * step), step)
            lap = z.imag ** 2 * (fxx + fyy)
        num = abs(-lap - phi.mu * f0)
        den = abs(phi.mu) * max(abs(f0), 1e-3)
        worst = max(worst, num / den)
    return worst


# ---------------------------------------------------------------------------
# cache files: one JSON record per solved form


def cache_path(cache_dir, bracket, parity, M0):
    name = (f"maass_{parity}_{bracket[0]:.4f}_{bracket[1]:.4f}_M{M0}.json")
    return os.path.join(cache_dir, name)


def find_form(cache_dir, bracket) -> Optional[MaassForm]:
    """The cached form for ``bracket``: either parity, any truncation M0;
    the record with the highest M0 wins.  None when there is none."""
    found = []
    for parity in ("even", "odd"):
        pattern = cache_path(glob.escape(cache_dir), bracket, parity, "*")
        for path in glob.glob(pattern):
            m0 = os.path.basename(path)[:-len(".json")].rpartition("_M")[2]
            if m0.isdigit():
                found.append((int(m0), path))
    if not found:
        return None
    return load_form(max(found, key=lambda f: f[0])[1])


def _atomic_write(path, text):
    """Write ``text`` to ``path`` through a temporary file and a rename.

    The file is created with mode 0o666 less the umask, as ``open`` would.
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_form(form: MaassForm, path):
    record = {
        "format_version": _CACHE_FORMAT_VERSION,
        "surface": "modular",
        "R": form.R,
        "parity": form.parity,
        "M0": form.M0,
        "y0": form.y0,
        "coefficients": [float(c) for c in form.coefficients],
        "l2_scale": form.l2_scale,
        "residual": form.residual,
        "r_stability": form.r_stability,
        "height_agreement": form.height_agreement,
        "bracket": list(form.bracket),
    }
    _atomic_write(path, json.dumps(record, indent=1, sort_keys=True) + "\n")


def load_form(path) -> MaassForm:
    with open(path) as fh:
        record = json.load(fh)
    if record.get("format_version") != _CACHE_FORMAT_VERSION:
        raise ValueError(f"unsupported cache format in {path}")
    return MaassForm(R=record["R"], parity=record["parity"], M0=record["M0"],
                     y0=record["y0"],
                     coefficients=np.array(record["coefficients"]),
                     l2_scale=record["l2_scale"],
                     residual=record["residual"],
                     r_stability=record["r_stability"],
                     height_agreement=record.get("height_agreement", np.nan),
                     bracket=tuple(record.get("bracket", ())))


def as_eigenfunction(form: MaassForm) -> Eigenfunction:
    return Eigenfunction(surface="modular", mu=form.mu, spectral_r=form.R,
                         evaluator=form.value,
                         label=f"maass(R={form.R:.6f},{form.parity})")
