import pytest

from detchern import classes, lagrangian, partitions, schubert


def empty_engine_memos() -> None:
    """Empty every per-process memo of the engine, as a fresh process has them."""
    classes._CM_CACHE.clear()
    lagrangian._CON_CACHE.clear()
    partitions._LR_CACHE.clear()
    schubert._row_pieri.cache_clear()
    schubert._corner.cache_clear()


@pytest.fixture(autouse=True, scope="module")
def cold_memos():
    """Leave the memos cold after each module, so no suite run later in the
    same session (bench/tests counts the layer calls of a cold run) inherits
    a warm class, box table or corner."""
    yield
    empty_engine_memos()
