"""Independent units of work in forked worker processes.

A unit is one call ``fn(*args)`` under a name, such as one model's
transforms and training. ``UnitPool`` forks a worker process per unit,
at most ``slots`` at once, in the order the units were submitted; each
worker sends its result back pickled over a pipe and exits. Every random
stream of a unit is keyed by its own inputs, so a result does not depend
on which process ran it or when.

Inside ``with UnitPool(...)``, ``run_unit`` hands its call to the pool;
outside, it calls ``fn(*args)`` in the calling process. Workers are
forked, not spawned, so they start without a fresh interpreter's import
cost; this needs Linux ``fork``, and forking happens only from the main
thread, because a child forked from another thread inherits every lock
the other threads hold.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import threading
from contextvars import ContextVar
from typing import Any, Callable

_active: ContextVar["UnitPool | None"] = ContextVar("fedsurg_unit_pool",
                                                    default=None)


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


def _died(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return (f"the worker process was killed by "
                f"{signal.Signals(-code).name} and sent no result")
    return f"the worker process exited with code {code} and sent no result"


class UnitPool:
    """Forked workers for submitted units, at most ``slots`` at once.

    ``result`` waits for one unit and returns its value or raises its
    ``UnitError``. Once a unit has failed no further unit is started, so
    the failure reported is always that of the first failing unit in
    submission order, when results are read in that order. Leaving the
    ``with`` block kills and reaps every worker still running.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = slots
        self._queued: list[str] = []
        self._calls: dict[str, tuple[Callable, tuple]] = {}
        # a running worker's pipe -> (its unit, its pid, the bytes read)
        self._running: dict[int, tuple[str, int, bytearray]] = {}
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
        if name in self._calls:
            raise ValueError(f"unit {name!r} was already submitted")
        self._calls[name] = (fn, args)
        self._queued.append(name)
        self._fill()

    def run(self, name: str, fn: Callable, *args) -> Any:
        """The result of unit ``name``, submitted now unless it already
        was, with the same function."""
        if name not in self._calls:
            self.submit(name, fn, *args)
        elif self._calls[name][0] is not fn:
            raise ValueError(f"unit {name!r} was submitted with another "
                             "function")
        return self.result(name)

    def result(self, name: str) -> Any:
        if name not in self._calls:
            raise KeyError(f"no unit {name!r} was submitted")
        while name not in self._done:
            if name in self._queued and self._failed:
                # nothing more starts after a failure: report the first one
                name = next(n for n in self._calls
                            if n in self._done and not self._done[n][0])
                break
            self._wait()
        ok, value = self._done[name]
        if not ok:
            raise UnitError(name, *value)
        return value

    def close(self) -> None:
        """Kill and reap every worker still running."""
        for fd, (_, pid, _) in list(self._running.items()):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            self._selector.unregister(fd)
            os.close(fd)
        self._running.clear()
        self._queued.clear()
        self._selector.close()

    def _fill(self) -> None:
        while self._queued and len(self._running) < self.slots \
                and not self._failed:
            self._start(self._queued.pop(0))

    def _start(self, name: str) -> None:
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker processes are forked only from the "
                               "main thread")
        fn, args = self._calls[name]
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:
                    payload = pickle.dumps((True, fn(*args)),
                                           protocol=pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    payload = pickle.dumps(
                        (False, (type(exc).__name__, str(exc))))
                with open(write_fd, "wb") as fh:
                    fh.write(payload)
                status = 0
            finally:
                # never return into the parent's code, nor run its exit hooks
                os._exit(status)
        os.close(write_fd)
        self._running[read_fd] = (name, pid, bytearray())
        self._selector.register(read_fd, selectors.EVENT_READ)

    def _wait(self) -> None:
        """Read from the running workers until one has finished."""
        if not self._running:
            raise RuntimeError("no unit is running")
        while True:
            for key, _ in self._selector.select():
                fd = key.fd
                chunk = os.read(fd, 1 << 20)
                name, pid, buf = self._running[fd]
                if chunk:
                    buf += chunk
                    continue
                self._selector.unregister(fd)
                os.close(fd)
                del self._running[fd]
                _, status = os.waitpid(pid, 0)
                self._done[name] = self._outcome(bytes(buf), status)
                self._failed |= not self._done[name][0]
                self._fill()
                return

    @staticmethod
    def _outcome(payload: bytes, status: int) -> tuple[bool, Any]:
        if status == 0 and payload:
            try:
                # bytes this program's own forked worker wrote
                return pickle.loads(payload)
            except (pickle.UnpicklingError, EOFError):
                pass
        return False, ("WorkerDied", _died(status))
