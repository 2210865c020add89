"""Checks of the benchmark's outputs against independent computations.

Each check returns a list of problems (empty when the output is right).
The references come from outside the code under test where they can:
published eigenvalues, Hecke relations, ``mpmath`` special functions and
hyperbolic geometry, and exact identities between written columns.  The
program is called only to reload what it wrote and to place points on a
curve, and those points are themselves checked by ``mpmath``.
"""

from __future__ import annotations

import csv
import json

import mpmath
import numpy as np

# Published Laplace eigenvalues r of the modular surface (Hejhal;
# Booker, Strombergsson and Venkatesh 2006), keyed by solve bracket.
PUBLISHED = {
    (9.0, 10.0): ("odd", 9.53369526135),
    (13.5, 14.2): ("even", 13.77975135189),
}
R_TOL = 1e-6
HECKE_TOL = 1e-6
# A rebuilt geodesic restriction agreed with the mpmath evaluation to
# 3e-10 when this benchmark was written; a wrong period moves it by its
# own size, which for the periods that carry the restriction is >= 1e-3.
RESTRICTION_TOL = 1e-8
ODD_MODE_TOL = 1e-12          # relative to the largest |fourier_n|
SCALING_TOL = 1e-13           # |p - length * fourier| relative to max |p|
BESSEL_SLACK = 1e-9           # relative slack in Bessel's inequality
GAMMA_TOL = 1e-9              # relative, density_b and table_integral


# ------------------------------------------------------------------ solve

def check_solved_record(path, bracket, printed_r, load_form):
    """The record written for ``bracket``: eigenvalue, parity, Hecke
    relations, and a reload through ``load_form`` that gives back the
    same R and coefficients.  ``printed_r`` is the R the CLI printed."""
    problems = []
    with open(path) as fh:
        record = json.load(fh)
    parity, r_pub = PUBLISHED[tuple(bracket)]
    r = record["R"]
    if not abs(r - r_pub) <= R_TOL:
        problems.append(f"R={r!r} is {abs(r - r_pub):.2e} from the "
                        f"published {r_pub}")
    if record["parity"] != parity:
        problems.append(f"parity {record['parity']!r}, published {parity!r}")
    a = [None] + list(record["coefficients"])          # a[n], a[1] = 1
    relations = {"a4 = a2^2 - 1": a[4] - (a[2] ** 2 - 1.0),
                 "a6 = a2 a3": a[6] - a[2] * a[3],
                 "a9 = a3^2 - 1": a[9] - (a[3] ** 2 - 1.0)}
    for name, defect in relations.items():
        if not abs(defect) <= HECKE_TOL:
            problems.append(f"Hecke relation {name} off by {defect:.2e}")
    form = load_form(path)
    if form.R != r or not np.array_equal(form.coefficients,
                                         np.array(record["coefficients"])):
        problems.append("record does not reload to the same R and "
                        "coefficients")
    if printed_r is None or not abs(printed_r - r) <= 5e-10:
        problems.append(f"printed R {printed_r} does not match the record")
    return problems


# ------------------------------------------------------------------ sweep

def read_period_csv(path):
    """n -> (p, fourier) as complex numbers."""
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[int(row["n"])] = (
                complex(float(row["p_re"]), float(row["p_im"])),
                complex(float(row["fourier_re"]), float(row["fourier_im"])))
    return rows


def check_scaling(rows, length):
    """p_n = length * fourier_n, with ``length`` computed independently."""
    scale = max(abs(p) for p, _ in rows.values()) or 1.0
    worst = max(abs(p - length * f) for p, f in rows.values())
    if worst > SCALING_TOL * scale:
        return [f"p != length * fourier (worst {worst:.2e}, length "
                f"{length:.12g})"]
    return []


def check_bessel_inequality(rows, mean_square):
    """sum |fourier_n|^2 over the band <= the mass-one mean square."""
    total = sum(abs(f) ** 2 for _, f in rows.values())
    if total > mean_square * (1.0 + BESSEL_SLACK):
        return [f"sum |fourier|^2 = {total!r} exceeds the mean square "
                f"{mean_square!r}"]
    return []


def check_odd_modes(rows):
    """A circle traced twice has no odd Fourier modes."""
    scale = max(abs(f) for _, f in rows.values())
    worst = max((abs(f) for n, (_, f) in rows.items() if n % 2), default=0.0)
    if worst > ODD_MODE_TOL * scale:
        return [f"odd modes do not vanish (worst {worst:.2e} of {scale:.2e})"]
    return []


def geodesic_length(matrix):
    """Translation length 2 arccosh(|tr| / 2 sqrt(det)) of a hyperbolic
    element, in mpmath."""
    (a, b), (c, d) = matrix
    det = mpmath.mpf(a) * d - mpmath.mpf(b) * c
    return 2 * mpmath.acosh(abs(mpmath.mpf(a) + d) / (2 * mpmath.sqrt(det)))


def _mobius(matrix, z):
    (a, b), (c, d) = matrix
    return (a * z + b) / (c * z + d)


def _distance(z, w):
    return 2 * mpmath.asinh(abs(z - w) / (2 * mpmath.sqrt(z.imag * w.imag)))


def maass_value(record, z):
    """The form of a cache record at z, evaluated with mpmath: pull z into
    the fundamental domain, then sum a_n e^{pi R/2} K_{iR}(2 pi n y)
    sqrt(y) cos|sin(2 pi n x), scaled to unit L^2 norm."""
    z = mpmath.mpc(z)
    for _ in range(200):
        z = mpmath.mpc(z.real - mpmath.nint(z.real), z.imag)
        if abs(z) >= 1:
            break
        z = -1 / z
    x, y = z.real, z.imag
    r = mpmath.mpf(record["R"])
    osc = mpmath.cos if record["parity"] == "even" else mpmath.sin
    total = mpmath.mpf(0)
    for n, a_n in enumerate(record["coefficients"], start=1):
        k = mpmath.besselk(1j * r, 2 * mpmath.pi * n * y).real
        total += a_n * k * osc(2 * mpmath.pi * n * x)
    return float(total * mpmath.exp(mpmath.pi * r / 2) * mpmath.sqrt(y)
                 * record["l2_scale"])


def check_geodesic_restriction(rows, record, matrix, thetas, points):
    """The restriction rebuilt from the written Fourier periods against an
    mpmath evaluation of the form, at curve points ``points[j]`` for mass-
    one parameters ``thetas[j]``.  Each point must lie on the axis of
    ``matrix``: the element moves it by exactly the geodesic length."""
    problems = []
    length = geodesic_length(matrix)
    for theta, z in zip(thetas, points):
        zm = mpmath.mpc(z)
        moved = _distance(zm, _mobius(matrix, zm))
        if abs(moved - length) > 1e-8 * length:
            problems.append(f"curve point at theta={theta:.6f} is off the "
                            f"axis (moved {float(moved):.12g}, length "
                            f"{float(length):.12g})")
            continue
        rebuilt = sum(f * np.exp(2j * np.pi * n * theta)
                      for n, (_, f) in rows.items())
        exact = maass_value(record, z)
        if abs(rebuilt - exact) > RESTRICTION_TOL:
            problems.append(f"restriction at theta={theta:.6f}: periods give "
                            f"{rebuilt:.12g}, mpmath gives {exact:.12g}")
    return problems


# ----------------------------------------------------------------- verify

def verify_lines(stdout, names):
    """name -> problem (None when the check printed PASS)."""
    status = {}
    for line in stdout.splitlines():
        for name in names:
            if line.split("] ", 1)[-1].startswith(name + " "):
                status[name] = None if line.startswith("[PASS]") else line
    return {name: status.get(name, "no result line") for name in names}


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_density_b_entries(density_b, spectral_param, rng, count=6):
    """Seeded density_b entries against Gamma(zp) Gamma(zm) / Gamma(zd)
    from mpmath.loggamma, on the tables criterion 01 uses.  Deep in the
    tail an entry underflows, so ``log_abs2`` is compared everywhere and
    the entry itself where it is a normal double."""
    problems = []
    for _ in range(count):
        lam_abs = float(rng.choice([10.0, 20.0, 40.0, 80.0]))
        q = float(rng.choice([0.5, 1.0 / np.log(2.0), 2.0]))
        n = int(rng.integers(-200, 201))
        table = density_b(spectral_param(lam=1j * lam_abs), q, (n, n))
        sig = 2 * mpmath.pi * mpmath.mpf(q) * n
        lam = mpmath.mpc(0, lam_abs)
        lg = (mpmath.loggamma((1 - lam + 1j * sig) / 4)
              + mpmath.loggamma((1 - lam - 1j * sig) / 4)
              - mpmath.loggamma((1 - lam) / 2))
        ref_log_abs2 = float(2 * lg.real)
        ref = complex(mpmath.exp(lg))
        where = f"density_b(|lam|={lam_abs:g}, q={q:.6g}) entry {n}"
        if not (abs(table.log_abs2[0] - ref_log_abs2)
                <= GAMMA_TOL * max(1.0, abs(ref_log_abs2))):
            problems.append(f"{where}: log|entry|^2 {table.log_abs2[0]!r}, "
                            f"mpmath {ref_log_abs2!r}")
        elif abs(ref) > 1e-280 and not _rel(table.entry(n), ref) <= GAMMA_TOL:
            problems.append(f"{where}: {table.entry(n)!r}, mpmath {ref!r}")
    return problems


def check_table_integral_values(table_integral, rng, count=6):
    """Seeded table_integral(s, t) against
    Gamma((s+1)/2) Gamma(-t-(s+1)/2) / Gamma(-t) from mpmath.gamma."""
    problems = []
    for _ in range(count):
        s = complex(rng.uniform(-0.9, 2.0), rng.uniform(-5.0, 5.0))
        t = complex(rng.uniform(-4.0, -(s.real + 1.0) / 2.0 - 0.25),
                    rng.uniform(-5.0, 5.0))
        value = table_integral(s, t)
        sm, tm = mpmath.mpc(s), mpmath.mpc(t)
        ref = complex(mpmath.gamma((sm + 1) / 2) * mpmath.gamma(-tm - (sm + 1) / 2)
                      / mpmath.gamma(-tm))
        if not _rel(value, ref) <= GAMMA_TOL:
            problems.append(f"table_integral({s:.4g}, {t:.4g}) = {value!r}, "
                            f"mpmath {ref!r}")
    return problems
