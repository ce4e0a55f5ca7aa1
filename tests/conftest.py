import contextlib
import gc
import os
import signal
import time

import pytest


class FakeWorker:
    """Minimal stand-in with the attributes the store and policies touch."""

    __slots__ = ("worker_id", "idle_since", "_park_lock", "task")

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.idle_since = 0

    def __repr__(self):
        return f"FakeWorker({self.worker_id})"


@pytest.fixture
def fake_workers():
    return lambda n: [FakeWorker(i) for i in range(n)]


@contextlib.contextmanager
def one_cpu():
    """Pin the calling thread, and so every thread it starts, to one CPU.

    Timed comparisons run under it, as perfbench/run.py runs its children:
    a hand-off then costs a context switch, not a wake-up of another CPU
    that may have gone idle, whose latency the host sets and not the code.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def wait_until(pred, timeout=2.0, interval=0.0005):
    """Spin until pred() is true; used to let workers reach the idle store."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(interval)
    return pred()


def reap_child(pid, timeout=5.0):
    """The child's exit code, or None when it outlived timeout (then it is
    killed, so no test leaves a child behind)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


def quiescent(rt):
    """Every worker the runtime made is idle or has exited, and counted so:
    creates - culls == live workers == idle workers."""
    s = rt.stats()
    return (s.physical_creates - s.physical_culls == len(rt._live)
            == s.current_idle)


def net_new_objects(op, n, settle):
    """GC-tracked objects left alive by n calls of op, once settle() holds."""
    for _ in range(20):  # lazily built state is not a leak
        op()
    assert wait_until(settle, timeout=10.0)
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(n):
        op()
    assert wait_until(settle, timeout=10.0)
    gc.collect()
    return len(gc.get_objects()) - before


@pytest.fixture
def runtime():
    import threadcache
    rts = []

    def make(**kw):
        rt = threadcache.ThreadCache(**kw)
        rts.append(rt)
        return rt

    yield make
    for rt in rts:
        rt.shutdown(join=False)
