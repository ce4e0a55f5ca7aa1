import gc
import time

import pytest


class FakeWorker:
    """Minimal stand-in with the attributes the store and policies touch."""

    __slots__ = ("worker_id", "idle_since", "_park_lock", "_box")

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.idle_since = 0

    def __repr__(self):
        return f"FakeWorker({self.worker_id})"


@pytest.fixture
def fake_workers():
    return lambda n: [FakeWorker(i) for i in range(n)]


def wait_until(pred, timeout=2.0, interval=0.0005):
    """Spin until pred() is true; used to let workers reach the idle store."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(interval)
    return pred()


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
