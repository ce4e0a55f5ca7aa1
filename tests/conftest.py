import time

import pytest


class FakeWorker:
    """Minimal stand-in with the attributes the store and policies touch."""

    __slots__ = ("worker_id", "idle_since", "state",
                 "stack_extent", "released", "_park_lock", "_box")

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.idle_since = 0
        self.state = None
        self.stack_extent = None
        self.released = False

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
