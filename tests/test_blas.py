from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from glzi import _blas


@pytest.fixture
def two_threads():
    """Every pool found set to 2 threads for the test, then put back."""
    pools = _blas._pools()
    if not pools:
        pytest.skip("no OpenBLAS library found")
    before = {package: getter() for package, (_, getter) in pools.items()}
    for setter, _ in pools.values():
        setter(2)
    yield pools
    for package, (setter, _) in pools.items():
        setter(before[package])


def test_pin_sets_one_thread_and_restores(two_threads):
    with _blas.one_thread() as inside:
        assert {inside[p] for p in two_threads} == {1}
        assert {_blas.threads()[p] for p in two_threads} == {1}
    assert {_blas.threads()[p] for p in two_threads} == {2}

    with pytest.raises(RuntimeError):
        with _blas.one_thread():
            raise RuntimeError("cycle failed")
    assert {_blas.threads()[p] for p in two_threads} == {2}


def test_spawned_pool_worker_is_pinned(two_threads):
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn"),
                             initializer=_blas.pin) as pool:
        counts = pool.submit(_blas.threads).result(timeout=60)
    assert {counts[p] for p in two_threads} == {1}


def test_pin_without_libraries_is_a_no_op(two_threads, monkeypatch):
    monkeypatch.setattr(_blas, "_find", lambda package, pattern: None)
    with _blas.one_thread() as inside:
        assert inside == {"numpy": None, "scipy": None}
    _blas.pin()
    assert _blas.threads() == {"numpy": None, "scipy": None}
    monkeypatch.undo()
    assert {_blas.threads()[p] for p in two_threads} == {2}
