"""CPython's own thread tests, run once plain and once under the shim.

Each stdlib test module runs in two subprocesses at once: one plain, one
after ``shim.install()``, on the runtime that it builds. The shimmed run
may fail only the tests that the plain run fails, or the ones in
``ALLOWED``, each with the reason it differs. The runtime ages idle
workers out (``THREADCACHE_POLICY=age``):
``threading_helper.wait_threads_exit`` waits for ``_thread._count()`` to
fall back, which under the Unbounded policy the parked workers never let
it do.
"""

import json
import os
import subprocess
import sys

import pytest

import threadcache.shim as shim

pytest.importorskip("test.support")

MODULES = ["test.test_threading", "test.test_thread", "test.test_socketserver"]

ENV = {"THREADCACHE_POLICY": "age", "THREADCACHE_AGE_MS": "20",
       "THREADCACHE_REAP_MS": "10"}

ALLOWED = {
    "test.test_threading.MiscTestCase.test__all__":
        "threading.Thread is CachedThread, whose module is threadcache.shim",
    "test.test_threading.ThreadTests.test_various_ops":
        "threads that run on one recycled worker share its native id",
    "test.test_threading.ThreadTests.test_foreign_thread":
        "a raw start runs on a worker: threading._active holds the worker, "
        "not a _DummyThread, and it leaves when the worker is culled",
    "test.test_threading.ThreadTests.test_ident_of_no_threading_threads":
        "as test_foreign_thread: the ident's entry is the worker's",
    "test.test_threading.ThreadTests.test_limbo_cleanup":
        "a cached start does not call threading._start_new_thread, which "
        "the test makes fail",
    "test.test_thread.ThreadRunningTests.test__count":
        "timing: idle workers count in _thread._count() until they are "
        "culled, and a cache hit adds none",
}

_RUNNER = """
import json, sys, unittest
out, name, shimmed = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
if shimmed:
    import threadcache.shim as shim
    shim.install()
suite = unittest.defaultTestLoader.loadTestsFromName(name)
res = unittest.TextTestRunner(stream=sys.stdout).run(suite)
with open(out, "w") as f:
    json.dump({"run": res.testsRun,
               "failed": sorted(t.id() for t, _ in res.failures + res.errors)},
              f)
"""


def _start(tmp_path, module, shimmed):
    """The runner for module in a subprocess; its output goes to a log."""
    src = os.path.dirname(os.path.dirname(shim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    tag = "shim" if shimmed else "plain"
    result, log = tmp_path / f"{tag}.json", tmp_path / f"{tag}.log"
    with open(log, "w") as f:
        proc = subprocess.Popen(
            [sys.executable, "-c", _RUNNER, str(result), module,
             "1" if shimmed else "0"],
            env={**os.environ, **ENV, "PYTHONPATH": path},
            stdout=f, stderr=subprocess.STDOUT, cwd=tmp_path)
    return proc, result, log


def _finish(proc, result, log):
    """The failing test ids of a finished runner."""
    proc.wait(timeout=300)
    assert result.exists(), log.read_text()[-4000:]
    out = json.loads(result.read_text())
    assert out["run"] > 0, log.read_text()[-4000:]
    return set(out["failed"])


@pytest.mark.parametrize("module", MODULES)
def test_stdlib_thread_tests_pass_under_shim(tmp_path, module):
    runs = [_start(tmp_path, module, shimmed) for shimmed in (False, True)]
    try:
        plain, shimmed = (_finish(*run) for run in runs)
    finally:
        for proc, _, _ in runs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    unexplained = shimmed - plain - ALLOWED.keys()
    assert not unexplained, \
        f"{sorted(unexplained)}\n{runs[1][2].read_text()[-8000:]}"
