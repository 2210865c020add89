import os

import pytest

from geoperiods import eigen, verify

# Solved forms are cached on disk so repeated test runs skip the solver.
# Point GEOPERIODS_CACHE somewhere persistent to share the cache with the
# CLI; the default keeps it inside the repository.
CACHE_DIR = os.environ.get(eigen.CACHE_ENV_VAR,
                           os.path.join(os.path.dirname(__file__), "..",
                                        "form_cache"))


@pytest.fixture(scope="session")
def first_form():
    """The lowest cusp form on the modular surface (R ~ 9.5337), read from
    the cache or solved and cached."""
    return verify.acceptance_forms(CACHE_DIR, brackets=[(9.0, 10.0)])[0]


@pytest.fixture(scope="session")
def first_eigenfunction(first_form):
    return eigen.as_eigenfunction(first_form)
