"""The worker-process pool that `train` runs its models in."""

import os
import threading
import time

import pytest

from fedsurg.federation import ClientFailure
from fedsurg.units import UnitError, UnitPool, run_unit


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


def test_results_come_back_from_worker_processes():
    with UnitPool(2) as pool:
        for x in range(5):
            pool.submit(f"u{x}", _square, x)
        got = [pool.result(f"u{x}") for x in range(5)]
    assert [g["square"] for g in got] == [0, 1, 4, 9, 16]
    assert os.getpid() not in {g["pid"] for g in got}
    assert len({g["pid"] for g in got}) == 5


def test_run_unit_calls_here_without_a_pool_and_in_a_worker_with_one():
    assert run_unit("u", _square, 3)["pid"] == os.getpid()
    with UnitPool(1):
        assert run_unit("u", _square, 3)["pid"] != os.getpid()
    assert run_unit("u", _square, 3)["pid"] == os.getpid()


def test_run_refuses_a_unit_submitted_with_another_function():
    with UnitPool(1) as pool:
        pool.submit("u", _square, 3)
        with pytest.raises(ValueError, match="another function"):
            pool.run("u", _touch, 3)


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
        pool.submit("a", time.sleep, 60)
        pool.submit("b", time.sleep, 60)
    assert time.monotonic() - start < 10
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_workers_are_forked_only_from_the_main_thread():
    raised = []

    def submit():
        with UnitPool(1) as pool:
            try:
                pool.submit("u", _square, 1)
            except RuntimeError as exc:
                raised.append(str(exc))

    thread = threading.Thread(target=submit)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert raised == ["worker processes are forked only from the main thread"]


def test_slots_must_be_positive():
    with pytest.raises(ValueError, match="slots must be >= 1"):
        UnitPool(0)
