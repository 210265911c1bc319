import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

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


def _fresh(probe, **env_set):
    """The JSON that probe prints in a fresh interpreter, run with env_set."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(env_set, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def _fresh_threads(**env_set):
    """_blas.threads() in a fresh interpreter that imports glzi, then numpy."""
    return _fresh("import json, glzi, numpy; print(json.dumps(glzi._blas.threads()))",
                  **env_set)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a one-core pool starts at one thread")
def test_import_starts_both_pools_at_one_thread_unless_set():
    default = _fresh_threads()
    if set(default.values()) == {None}:
        pytest.skip("no OpenBLAS library found")
    assert {n for n in default.values() if n is not None} == {1}
    # a value the user set stands
    user = _fresh_threads(OPENBLAS_NUM_THREADS="2")
    assert {n for n in user.values() if n is not None} == {2}


_CALL_PROBE = """
import json, numpy
import glzi.protocol as protocol
from glzi import _blas
from glzi.states import BatterySpec

during, integrate = [], protocol.integrate_segment

def spy(*args, **kwargs):
    during.append(_blas.threads()["numpy"])
    return integrate(*args, **kwargs)

protocol.integrate_segment = spy
before = _blas.threads()["numpy"]
protocol.run_quantum(protocol.ProtocolParams(nbar=1.0), BatterySpec.coherent(1.0))
print(json.dumps([before, during, _blas.threads()["numpy"]]))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a one-core pool starts at one thread")
def test_library_call_runs_on_one_thread_when_numpy_came_first():
    # numpy imported before glzi starts its pool at the variable's count; a
    # direct run_quantum call integrates on one thread and puts it back
    before, during, after = _fresh(_CALL_PROBE, OPENBLAS_NUM_THREADS="2")
    if before is None:
        pytest.skip("no OpenBLAS library found")
    assert before == 2 and set(during) == {1} and after == 2
