"""Deterministic interleavings: hold one thread at a method's entry.

    with hold(monkeypatch, IdleStore, "push", when=mine) as gate:
        ...                # start the thread that will call push
        gate.wait_held()   # it now waits at push's entry
        ...                # the operation that must come first
    # leaving the block lets it go on

``hold`` replaces ``owner.name`` through ``monkeypatch``, for one test, with
a wrapper that stops the first call for which ``when(*args, **kwargs)`` is
true; every other call, and every later one, passes straight through. So
the code under test carries no hook. Every wait is bounded by ``timeout``:
a thread that never arrives, or a held thread never let go, fails the test.
"""

from __future__ import annotations

import functools
import threading

import pytest


class Gate:
    """One held call: the events it and the test wait on."""

    def __init__(self, timeout: float):
        self.timeout = timeout
        self._lock = threading.Lock()
        self._taken = False
        self._arrived = threading.Event()
        self._go = threading.Event()
        self._stuck = False

    def _take(self) -> bool:
        """True for the one call that this gate holds."""
        with self._lock:
            taken, self._taken = self._taken, True
            return not taken

    def _wait(self):  # on the held thread
        self._arrived.set()
        if not self._go.wait(self.timeout):
            self._stuck = True

    def wait_held(self):
        """Return once a call waits at the gate; fail after the timeout."""
        if not self._arrived.wait(self.timeout):
            pytest.fail(f"no call reached the gate in {self.timeout} s")

    def release(self):
        self._go.set()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.release()
        if self._stuck and exc[0] is None:
            pytest.fail(f"a held call waited more than {self.timeout} s")


def hold(monkeypatch, owner, name: str, when, timeout: float = 1.0) -> Gate:
    """Wrap ``owner.name`` so that the first call ``when`` selects waits at
    its entry until released."""
    orig = getattr(owner, name)
    gate = Gate(timeout)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if when(*args, **kwargs) and gate._take():
            gate._wait()
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return gate
