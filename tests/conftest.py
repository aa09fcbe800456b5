import pytest

from cutkit import moments


@pytest.fixture(autouse=True)
def cold_geometry_cache():
    """Every test starts with no relaxation geometry kept, so what it
    checks does not hang on what an earlier test solved."""
    moments._geometry.cache_clear()
