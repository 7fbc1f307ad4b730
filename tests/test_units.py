"""The worker-process pool that `train` and `evaluate` run their units in."""

import ctypes
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fedsurg.federation import ClientFailure
from fedsurg.units import UnitError, UnitPool


def _square(x):
    return {"x": x, "square": x * x, "pid": os.getpid()}


def _fail_after(seconds, message):
    time.sleep(seconds)
    raise ValueError(message)


def _touch(path):
    path.write_text("ran")
    return str(path)


def _client_failure():
    raise ClientFailure("a", ValueError("lost"))


def _result(pool, name, fn, *args):
    """Submit unit ``name`` to ``pool`` and wait for its result."""
    pool.submit(name, fn, *args)
    return pool.result(name)


def _assert_reaped(pids):
    assert pids
    for pid in pids:
        # no such child any more: it has ended and been waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _echo(value):
    return value


def _lock_state(lock):
    return {"locked": lock.locked(), "pid": os.getpid()}


class _Counted:
    """An argument that records, in the process that pickles it, each time
    it is pickled."""

    pickled = []

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        _Counted.pickled.append(os.getpid())
        return _Counted, (self.value,)


def _killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)


def _blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get_threads = getattr(lib, name)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                return get_threads()
    return None


def test_results_come_back_from_worker_processes():
    with UnitPool(2) as pool:
        for x in range(5):
            pool.submit(f"u{x}", _square, x)
        got = [pool.result(f"u{x}") for x in range(5)]
    assert [g["square"] for g in got] == [0, 1, 4, 9, 16]
    pids = {g["pid"] for g in got}
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= 2


def test_seven_units_on_two_slots_fork_two_workers(forked):
    with UnitPool(2) as pool:
        for x in range(7):
            pool.submit(f"u{x}", _square, x)
        got = [pool.result(f"u{x}") for x in range(7)]
    assert [g["square"] for g in got] == [x * x for x in range(7)]
    assert len(forked) == 2
    assert {g["pid"] for g in got} <= set(forked)
    _assert_reaped(forked)


def test_a_unit_submitted_after_the_fork_receives_its_arguments(forked):
    with UnitPool(1) as pool:
        assert _result(pool, "first", _square, 2)["square"] == 4
        # made after the worker was forked, and larger than a pipe's buffer
        late = np.random.default_rng(5).uniform(size=300_000)
        back = _result(pool, "late", _echo, {"late": late, "name": "late"})
    assert len(forked) == 1
    assert back["name"] == "late"
    assert back["late"].tobytes() == late.tobytes()


def test_an_unpicklable_argument_is_that_units_error(forked):
    with UnitPool(1) as pool:
        assert _result(pool, "first", _square, 2)["square"] == 4
        # submitted once the worker exists, so its arguments must be pickled
        pool.submit("before", _square, 1)
        pool.submit("bad", _lock_state, threading.Lock())
        pool.submit("after", _square, 3)
        assert pool.result("before")["square"] == 1
        with pytest.raises(UnitError) as info:
            pool.result("bad")
        with pytest.raises(UnitError, match="^bad: "):
            pool.result("after")
    assert (info.value.unit, info.value.kind) == ("bad", "TypeError")
    assert "pickle" in info.value.detail
    _assert_reaped(forked)


def test_an_unpicklable_argument_queued_before_the_fork_runs_in_a_worker(
        forked):
    with UnitPool(2) as pool:
        pool.submit("lock", _lock_state, threading.Lock())
        got = pool.result("lock")
    assert got["locked"] is False
    assert got["pid"] in forked and got["pid"] != os.getpid()
    _assert_reaped(forked)


def test_a_unit_queued_before_the_fork_is_never_pickled(forked):
    _Counted.pickled.clear()
    offset = 10
    with UnitPool(2) as pool:
        for x in range(5):
            # a lambda, which pickle refuses too
            pool.submit(f"u{x}", lambda c: c.value + offset, _Counted(x))
        assert [pool.result(f"u{x}") for x in range(5)] == [10, 11, 12, 13, 14]
        # submitted after the fork: pickled, once, here
        assert _result(pool, "late", _echo, _Counted(7)).value == 7
    assert _Counted.pickled == [os.getpid()]
    assert len(forked) == 2


def test_a_killed_worker_fails_its_unit_and_starts_nothing(tmp_path, forked):
    # one slot: the later unit could only start in a newly forked worker
    with UnitPool(1) as pool:
        pool.submit("first", _square, 1)
        assert pool.result("first")["square"] == 1
        pool.submit("killed", _killed)
        pool.submit("later", _touch, tmp_path / "later")
        with pytest.raises(UnitError) as info:
            pool.result("killed")
        with pytest.raises(UnitError, match="^killed: WorkerDied: "):
            pool.result("later")
    assert str(info.value) == ("killed: WorkerDied: the worker process was "
                               "killed by SIGKILL and sent no result")
    assert not (tmp_path / "later").exists()
    _assert_reaped(forked)


@pytest.mark.skipif(_blas_threads() is None,
                    reason="numpy bundles no OpenBLAS with a thread count")
def test_each_worker_caps_blas_at_its_share_of_the_cpus():
    cpus = len(os.sched_getaffinity(0))
    for slots in (1, 2):
        with UnitPool(slots) as pool:
            assert _result(pool, "threads", _blas_threads) == max(1, cpus // slots)


def test_an_exception_pickle_cannot_rebuild_crosses_as_text():
    with UnitPool(1) as pool:
        pool.submit("fedavg", _client_failure)
        with pytest.raises(UnitError) as info:
            pool.result("fedavg")
    assert str(info.value) == "fedavg: ClientFailure: client 'a' failed: lost"
    assert (info.value.unit, info.value.kind) == ("fedavg", "ClientFailure")


def test_the_first_failure_in_submission_order_is_reported(tmp_path):
    # the second unit fails first; no unit starts after a failure
    with UnitPool(2) as pool:
        pool.submit("slow", _fail_after, 0.3, "slow one")
        pool.submit("fast", _fail_after, 0.0, "fast one")
        pool.submit("later", _touch, tmp_path / "later")
        with pytest.raises(UnitError, match="^slow: ValueError: slow one$"):
            pool.result("slow")
        with pytest.raises(UnitError, match="^fast: ValueError: fast one$"):
            pool.result("fast")
        with pytest.raises(UnitError, match="^slow: ValueError: slow one$"):
            pool.result("later")
    assert not (tmp_path / "later").exists()


def test_leaving_the_pool_kills_and_reaps_running_workers(forked):
    start = time.monotonic()
    with UnitPool(2) as pool:
        # the first wait forks both workers; the quick unit's worker then
        # takes the second sleep
        pool.submit("quick", _square, 1)
        pool.submit("a", time.sleep, 60)
        pool.submit("b", time.sleep, 60)
        assert pool.result("quick")["square"] == 1
    assert time.monotonic() - start < 10
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_workers_are_forked_only_from_the_main_thread(forked):
    raised = []

    def submit():
        with UnitPool(1) as pool:
            pool.submit("u", _square, 1)
            try:
                pool.result("u")
            except RuntimeError as exc:
                raised.append(str(exc))

    thread = threading.Thread(target=submit)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert raised == ["worker processes are forked only from the main thread"]
    assert forked == []


def test_slots_must_be_positive():
    with pytest.raises(ValueError, match="slots must be >= 1"):
        UnitPool(0)


def test_a_name_is_submitted_once_and_only_a_submitted_one_is_read():
    with UnitPool(1) as pool:
        pool.submit("u", _square, 3)
        with pytest.raises(ValueError, match="'u' was already submitted"):
            pool.submit("u", _square, 4)
        with pytest.raises(KeyError, match="no unit 'v' was submitted"):
            pool.result("v")
        assert pool.result("u")["square"] == 9
