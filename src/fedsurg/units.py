"""Independent units of work in long-lived forked worker processes.

A unit is one call ``fn(*args)`` under a name, such as one model's
transforms and training, every model's predictions on one site, or the
scoring of one model on one site.
``UnitPool(slots)`` keeps at most ``slots`` worker processes, forked at
the pool's waits (``result`` and ``run``), never at a submit, and each
runs many units, one at a time, in the order they were submitted. A
worker inherits, through the fork, every unit still queued when it was
forked, so such a unit is sent down its task pipe as its name alone and
its function and arguments are never pickled; a unit submitted after its
worker was forked is streamed into the pipe with ``pickle.dump``. A
result comes back pickled and length-prefixed over the worker's result
pipe. Every random stream of a unit is keyed by its own inputs, so a
result does not depend on which process ran it or when.

Inside ``with UnitPool(...)``, ``run_unit`` hands its call to the pool;
outside, it calls ``fn(*args)`` in the calling process. Workers are
forked, not spawned, so they start without a fresh interpreter's import
cost; this needs Linux ``fork``, and forking happens only from the main
thread, because a child forked from another thread inherits every lock
the other threads hold. Each worker caps numpy's OpenBLAS at its share
of the usable CPUs, so that the workers do not oversubscribe them.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import selectors
import signal
import struct
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

_active: ContextVar["UnitPool | None"] = ContextVar("fedsurg_unit_pool",
                                                    default=None)

# the byte length of a pickled result, ahead of it on the result pipe
_LENGTH = struct.Struct("<Q")

# the names numpy's bundled OpenBLAS builds give their thread setter
_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                "scipy_openblas_set_num_threads",
                "openblas_set_num_threads64_", "openblas_set_num_threads")


class UnitError(RuntimeError):
    """Unit ``unit`` failed: its exception's type name and message, carried
    as text (an exception need not be rebuildable by ``pickle``), or
    ``WorkerDied`` for a worker that ended without a result."""

    def __init__(self, unit: str, kind: str, detail: str):
        super().__init__(f"{unit}: {kind}: {detail}")
        self.unit = unit
        self.kind = kind
        self.detail = detail


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def run_unit(name: str, fn: Callable, *args) -> Any:
    """``fn(*args)``: in a worker of the active pool, or here if none is."""
    pool = _active.get()
    if pool is None:
        return fn(*args)
    return pool.run(name, fn, *args)


@functools.cache
def _blas_thread_setter() -> Callable[[int], Any] | None:
    """The ``set_num_threads`` of the OpenBLAS bundled with numpy, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _SET_THREADS:
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                return set_threads
    return None


def _died(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return (f"the worker process was killed by "
                f"{signal.Signals(-code).name} and sent no result")
    return f"the worker process exited with code {code} and sent no result"


def _failure(exc: Exception) -> tuple[bool, tuple[str, str]]:
    return False, (type(exc).__name__, str(exc))


def _serve(tasks_fd: int, results_fd: int,
           inherited: dict[str, tuple[Callable, tuple]]) -> None:
    """A worker's life: run each unit read from the task pipe, given there
    as its name when it is one of the ``inherited`` queued units, and send
    back its outcome, until the pipe closes."""
    with open(tasks_fd, "rb") as tasks, open(results_fd, "wb") as results:
        while True:
            try:
                unit = pickle.load(tasks)
            except EOFError:
                return
            fn, args = inherited.pop(unit) if isinstance(unit, str) else unit
            try:
                payload = pickle.dumps((True, fn(*args)),
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                payload = pickle.dumps(_failure(exc))
            results.write(_LENGTH.pack(len(payload)))
            results.write(payload)
            results.flush()


@dataclass
class _Worker:
    pid: int
    tasks: int  # the write end of its task pipe
    results: int  # the read end of its result pipe
    inherited: frozenset[str]  # the units queued when it was forked
    unit: str | None = None  # the unit it runs
    received: bytearray = field(default_factory=bytearray)


class UnitPool:
    """At most ``slots`` forked workers that run the submitted units.

    ``submit`` queues a unit, and hands it to an idle worker if there is
    one; ``result`` forks the workers still missing, waits for one unit
    and returns its value or raises its ``UnitError``, so units submitted
    before the first wait reach their workers unpickled. Once a unit has
    failed no further unit is started, so the failure reported is always
    that of the first failing unit in submission order, when results are
    read in that order. Leaving the ``with`` block kills and reaps every
    worker.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = slots
        self._fns: dict[str, Callable] = {}
        # units not yet sent to a worker, in submission order
        self._queued: dict[str, tuple[Callable, tuple]] = {}
        # a worker's result pipe -> the worker
        self._workers: dict[int, _Worker] = {}
        self._done: dict[str, tuple[bool, Any]] = {}
        self._failed = False
        self._selector = selectors.DefaultSelector()
        self._token = None

    def __enter__(self) -> "UnitPool":
        self._token = _active.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _active.reset(self._token)
        self.close()

    def submit(self, name: str, fn: Callable, *args) -> None:
        if name in self._fns:
            raise ValueError(f"unit {name!r} was already submitted")
        self._fns[name] = fn
        self._queued[name] = (fn, args)
        if self._workers:
            # take in what has arrived, so that a worker done meanwhile is
            # idle, and hand it the next unit
            self._read(timeout=0)
            self._fill(fork=False)

    def run(self, name: str, fn: Callable, *args) -> Any:
        """The result of unit ``name``, submitted now unless it already
        was, with the same function."""
        if name not in self._fns:
            self.submit(name, fn, *args)
        elif self._fns[name] is not fn:
            raise ValueError(f"unit {name!r} was submitted with another "
                             "function")
        return self.result(name)

    def result(self, name: str) -> Any:
        if name not in self._fns:
            raise KeyError(f"no unit {name!r} was submitted")
        while name not in self._done:
            if name in self._queued and self._failed:
                # nothing more starts after a failure: report the first one
                name = next(n for n in self._fns
                            if n in self._done and not self._done[n][0])
                break
            self._wait()
        ok, value = self._done[name]
        if not ok:
            raise UnitError(name, *value)
        return value

    def close(self) -> None:
        """Kill and reap every worker: all are killed first, so that they
        end at the same time."""
        workers = list(self._workers.values())
        for worker in workers:
            worker.unit = None
            os.kill(worker.pid, signal.SIGKILL)
        for worker in workers:
            self._reap(worker)
        self._queued.clear()
        self._selector.close()

    def _fill(self, fork: bool) -> None:
        """Send queued units to idle workers, forking up to ``slots`` if
        ``fork``."""
        while self._queued and not self._failed:
            worker = next((w for w in self._workers.values() if w.unit is None),
                          None)
            if worker is None:
                if not fork or len(self._workers) == self.slots:
                    return
                worker = self._fork()
            name = next(iter(self._queued))
            self._send(worker, name, *self._queued.pop(name))

    def _fork(self) -> _Worker:
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker processes are forked only from the "
                               "main thread")
        set_threads = _blas_thread_setter()
        tasks_r, tasks_w = os.pipe()
        results_r, results_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                # hold no end of another worker's pipes, so that each
                # worker sees its own task pipe close with the parent
                for w in self._workers.values():
                    os.close(w.tasks)
                    os.close(w.results)
                os.close(tasks_w)
                os.close(results_r)
                # a unit that calls run_unit runs the call in place
                _active.set(None)
                if set_threads is not None:
                    set_threads(max(1, usable_cpus() // self.slots))
                _serve(tasks_r, results_w, self._queued)
                status = 0
            finally:
                # never return into the parent's code, nor run its exit hooks
                os._exit(status)
        os.close(tasks_r)
        os.close(results_w)
        worker = _Worker(pid, tasks_w, results_r, frozenset(self._queued))
        self._workers[results_r] = worker
        self._selector.register(results_r, selectors.EVENT_READ)
        return worker

    def _send(self, worker: _Worker, name: str, fn: Callable,
              args: tuple) -> None:
        worker.unit = name
        try:
            with open(worker.tasks, "wb", closefd=False) as fh:
                pickle.dump(name if name in worker.inherited else (fn, args),
                            fh, protocol=pickle.HIGHEST_PROTOCOL)
        except BrokenPipeError:
            pass  # the worker has died; its result pipe reports it
        except Exception as exc:
            # part of the unit may be in the pipe: the worker runs no more
            worker.unit = None
            self._kill(worker)
            self._finish(name, _failure(exc))

    def _wait(self) -> None:
        """Start what may start, forking workers as needed, then read from
        the workers until a unit has finished or a worker has ended, and
        start what may start again."""
        self._fill(fork=True)
        if not any(w.unit is not None for w in self._workers.values()):
            raise RuntimeError("no unit is running")
        while not self._read(timeout=None):
            pass
        self._fill(fork=True)

    def _read(self, timeout: float | None) -> bool:
        """Take in what the workers have sent, waiting up to ``timeout``
        seconds for any of it; whether a unit finished or a worker ended."""
        ended = False
        for key, _ in self._selector.select(timeout):
            worker = self._workers[key.fd]
            chunk = os.read(key.fd, 1 << 20)
            if not chunk:
                self._reap(worker)
                ended = True
                continue
            worker.received += chunk
            if len(worker.received) < _LENGTH.size:
                continue
            (size,) = _LENGTH.unpack_from(worker.received)
            if len(worker.received) < _LENGTH.size + size:
                continue
            payload, worker.received = worker.received, bytearray()
            try:
                # bytes this program's own forked worker wrote
                outcome = pickle.loads(memoryview(payload)[_LENGTH.size:])
            except Exception as exc:
                outcome = _failure(exc)
            name, worker.unit = worker.unit, None
            self._finish(name, outcome)
            ended = True
        return ended

    def _finish(self, name: str, outcome: tuple[bool, Any]) -> None:
        self._done[name] = outcome
        self._failed |= not outcome[0]

    def _kill(self, worker: _Worker) -> None:
        os.kill(worker.pid, signal.SIGKILL)
        self._reap(worker)

    def _reap(self, worker: _Worker) -> None:
        """Wait for a worker that has ended or been killed; the unit it
        held, if any, fails."""
        self._selector.unregister(worker.results)
        os.close(worker.results)
        os.close(worker.tasks)
        del self._workers[worker.results]
        _, status = os.waitpid(worker.pid, 0)
        if worker.unit is not None:
            self._finish(worker.unit, (False, ("WorkerDied", _died(status))))
