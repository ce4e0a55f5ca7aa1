"""scripts/bench_interleaved.py --ladder: a smoke run of a few tiny blocks."""

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
