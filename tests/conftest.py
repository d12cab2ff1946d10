import pytest

from detchern import classes, lagrangian, schubert


@pytest.fixture(autouse=True, scope="module")
def cold_memos():
    """Leave the per-process memos as a fresh process has them after each
    module, so no suite run later in the same session (bench/tests counts
    the layer calls of a cold run) inherits a warm class or box table."""
    yield
    classes._CM_CACHE.clear()
    lagrangian._CON_CACHE.clear()
    schubert._row_pieri.cache_clear()
    schubert.tangent_chern.cache_clear()
