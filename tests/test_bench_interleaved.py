"""scripts/bench_interleaved.py --ladder and --retention: smoke runs of a
few tiny blocks."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "bench_interleaved", os.path.join(ROOT, "scripts", "bench_interleaved.py"))
bench_interleaved = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_interleaved)


def test_ladder_times_every_rung(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_interleaved, "BLOCKS", 2)
    monkeypatch.setattr(bench_interleaved, "LADDER_OPS", 20)
    out = tmp_path / "ladder.json"
    cpus = os.sched_getaffinity(0)
    try:  # the ladder pins its process, this one
        assert bench_interleaved.main(["--ladder", ROOT, "--json",
                                       str(out)]) == 0
    finally:
        os.sched_setaffinity(0, cpus)
    data = json.loads(out.read_text())
    rungs = ["floor", "latch", "bare_store", "locked_store", "handle",
             "stamp", "runtime"]
    assert data["mode"] == "ladder" and data["rungs"] == rungs
    assert len(data["rows"]) == 2
    summ = data["summary"]
    for k, name in enumerate(rungs):
        assert summ[f"{k}.{name}_us"]["median"] > 0
        assert (f"{k}.{name}.increment_us" in summ) == (k > 0)
    assert summ["0.floor.over_floor"]["median"] == 1


@pytest.mark.parametrize("argv", [["--ladder", ROOT, ROOT], [ROOT]])
def test_ladder_takes_one_tree_and_the_others_two(argv):
    with pytest.raises(SystemExit) as exc:
        bench_interleaved.main(argv)
    assert exc.value.code == 2


def test_retention_counts_passes_in_every_tree(monkeypatch, tmp_path):
    for name, value in (("RETENTION_BLOCKS", 2), ("IDLE_WORKERS", 4),
                        ("WINDOW_S", 0.05), ("CHURN_OPS", 20)):
        monkeypatch.setattr(bench_interleaved, name, value)
    out = tmp_path / "retention.json"
    cpus = os.sched_getaffinity(0)
    try:  # the comparison pins its process, this one
        assert bench_interleaved.main(["--retention", ROOT, ROOT, "--json",
                                       str(out)]) == 0
    finally:
        os.sched_setaffinity(0, cpus)
    data = json.loads(out.read_text())
    assert data["mode"] == "retention" and len(data["rows"]) == 2
    summ = data["summary"]
    for budget in bench_interleaved.BUDGETS:
        for k in ("passes_per_s", "cpu_us_per_pass", "spawn_join_us"):
            for ratio in ("change_over_base", "self_over_change"):
                assert summ[f"{budget}.{k}.{ratio}"]["blocks"] == 2
            for side in ("base", "change"):
                assert f"{side}.{budget}.{k}" in summ
        for side in ("base", "change"):
            assert summ[f"{side}.{budget}.passes_per_s"]["median"] > 0
            assert f"{side}.{budget}.culled" in summ
