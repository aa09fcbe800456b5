import pytest

from cutkit import moments, oracle


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with no relaxation geometry and no enumeration
    plan kept, so what it checks does not hang on what an earlier test
    solved."""
    moments._geometry.cache_clear()
    oracle._plan.cache_clear()
