"""Numerical toolkit for restrictions of Laplace eigenfunctions to closed
geodesics and distance circles: Fourier periods, model spectral densities,
coefficient extraction, and verification of the average bounds and
restriction-norm exponents they control."""

from .hypgeom import (GroupElement, GeodesicOrbit, CircleOrbit, mobius_act,
                      hyperbolic_distance, geodesic_orbit_from_matrix,
                      circle_orbit)
from .specfun import log_gamma, table_integral, bessel_k_imag
from .modelrep import (SpectralParam, ModelVector, model_functional,
                       DensityTable, density_b, density_c, test_vector)
from .eigen import (Eigenfunction, MaassForm, sphere_harmonic, torus_mode,
                    hejhal_solve, evaluate, as_eigenfunction)
from .periods import (RestrictionProfile, PeriodTable, restrict,
                      extract_coefficients, coefficient_table,
                      check_average_bound, fit_restriction_exponent,
                      SphereEquator, TorusGeodesic)

__version__ = "0.1.0"
