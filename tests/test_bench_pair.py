"""tools/bench_pair.py reads a recorded ``verdictbench/run.py`` output
(``tests/data/run_point_queries_seed1.txt``, one point-queries run of seed
1) and summarizes pairs of such results; its layers block of traced runs
(``tests/data/layers_block.json``) and its cold block of one-shot command
timings (``tests/data/cold_block.json``) summarize their runs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pair  # noqa: E402

RECORDED = (Path(__file__).parent / "data"
            / "run_point_queries_seed1.txt").read_text()
SHA = "1ee9027ff36a25fd05fa3c1e6eb7de21e2b686a832140d2c7035a6d6f1d98841"


def test_parse_recorded_run():
    run = bench_pair.parse_run(RECORDED)
    assert run["correct"] is True
    assert (run["attempted"], run["failed"]) == (160, 0)
    assert run["metrics"]["queries_per_s"] == 213.05368507006492
    assert run["metrics"]["ok_ratio"] == 1.0
    assert set(run["metrics"]) == {
        "setup_s", "query_p50_ms", "query_tail_ms", "queries_per_s",
        "sweep_cells_per_s", "pc_samples_per_s", "peak_rss_mb", "ok_ratio"}
    assert run["digests"] == {1: SHA}
    assert run["environment"]["nproc"] == 2


def test_unfinished_worker_has_no_digest():
    text = RECORDED.replace(SHA, "(none: the worker did not finish)")
    assert bench_pair.parse_run(text)["digests"] == {1: None}


def _run(qps, p50, digest=SHA, failed=0):
    run = bench_pair.parse_run(RECORDED)
    run["metrics"].update(queries_per_s=qps, query_p50_ms=p50)
    run["digests"] = {1: digest}
    run["failed"] = failed
    return run


def test_summary_counts_wins_by_direction():
    pairs = [{"seed": 1, "first": first, "parent": _run(100, 4.0),
              "change": _run(qps, p50)}
             for first, qps, p50 in (("parent", 130, 3.0),
                                     ("change", 120, 4.0),
                                     ("parent", 90, 5.0))]
    summary = bench_pair.summarize(
        pairs, {"queries_per_s": "higher", "query_p50_ms": "lower"})
    qps = summary["metrics"]["queries_per_s"]
    assert qps["wins"] == 2 and qps["pairs"] == 3
    assert qps["change"]["median"] == 120 and qps["parent"]["median"] == 100
    assert (qps["change"]["q1"], qps["change"]["q3"]) == (105, 125)
    assert qps["change_pct"] == pytest.approx(20.0)
    # a tie counts for neither side
    assert summary["metrics"]["query_p50_ms"]["wins"] == 1
    assert summary["digests_equal"] and summary["correct"]
    assert summary["first"] == ["parent", "change", "parent"]


@pytest.mark.parametrize("parent, change", [(SHA, "0" * 64), (None, None)],
                         ids=["differ", "unfinished"])
def test_summary_digests_unequal(parent, change):
    pairs = [{"seed": 1, "first": "parent", "parent": _run(1, 1, parent),
              "change": _run(1, 1, change)}] * 3
    summary = bench_pair.summarize(pairs, {"queries_per_s": "higher"})
    assert not summary["digests_equal"]


COLD = json.loads((Path(__file__).parent / "data"
                   / "cold_block.json").read_text())


def test_recorded_cold_block():
    """The cold block of a recorded run (that of BENCH_27.json) names
    every README command of tests/test_golden.py and the floor, with equal
    outputs on both sides, and its runs give the same summary again."""
    from test_golden import COMMANDS

    assert set(COLD["commands"]) == set(COMMANDS)
    pairs = [{"first": first, "parent": {}, "change": {}}
             for first in COLD["first"]]
    assert len(pairs) == COLD["pairs"] == bench_pair.COLD_PAIRS
    for name, entry in {**COLD["commands"],
                        bench_pair.FLOOR: COLD["floor"]}.items():
        assert entry["digests_equal"] and len(entry["digest"]) == 64
        for side in ("parent", "change"):
            assert len(entry[side]["runs"]) == len(pairs)
            for pair, seconds in zip(pairs, entry[side]["runs"]):
                pair[side][name] = [seconds, entry["digest"]]
    assert bench_pair.summarize_cold(pairs) == COLD


def test_cold_summary():
    def pair(first, parent, change, digest="a"):
        return {"first": first,
                "parent": {"cmd": [parent, "a"], bench_pair.FLOOR: [1, "f"]},
                "change": {"cmd": [change, digest],
                           bench_pair.FLOOR: [1, "f"]}}

    pairs = [pair("parent", 1.0, 0.9), pair("change", 2.0, 2.5),
             pair("parent", 3.0, 3.0)]
    block = bench_pair.summarize_cold(pairs)
    cmd = block["commands"]["cmd"]
    assert cmd["wins"] == 1 and cmd["digests_equal"] and cmd["digest"] == "a"
    assert (cmd["parent"]["median"], cmd["change"]["median"]) == (2.0, 2.5)
    # 0.5 slower, within the parent's interquartile range of 1.0
    assert cmd["within_parent_iqr"]
    assert block["floor"]["wins"] == 0 and block["first"][1] == "change"
    assert cmd["over_floor"] == {"parent": 1.0, "change": 1.5}
    pairs[1:] = [pair("change", 2.0, 4.0), pair("parent", 3.0, 9.0, "b")]
    cmd = bench_pair.summarize_cold(pairs)["commands"]["cmd"]
    assert not cmd["within_parent_iqr"] and not cmd["digests_equal"]
    assert cmd["digest"] is None


LAYERS = json.loads((Path(__file__).parent / "data"
                     / "layers_block.json").read_text())
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def test_recorded_layers_block():
    """The layers block of a recorded run (that of BENCH_32.json) holds,
    for every workload and both sides, a correct traced run and every
    per-layer metric of BENCHMARK.json, and its values give the same block
    again."""
    assert set(LAYERS["workloads"]) == set(bench_pair.WORKLOADS)
    pairs = {}
    for workload, entry in LAYERS["workloads"].items():
        assert entry["correct"] == {"parent": True, "change": True}
        assert list(entry["metrics"]) == [m["name"] for m in PER_LAYER]
        pairs[workload] = {"first": entry["first"], **{
            side: {"correct": True, "metrics": {
                name: m[side] for name, m in entry["metrics"].items()}}
            for side in ("parent", "change")}}
    assert bench_pair.summarize_layers(pairs, PER_LAYER,
                                       LAYERS["seed"]) == LAYERS


def test_layers_summary():
    per_layer = [{"name": "a.calls", "unit": "count", "better": "lower"},
                 {"name": "b.self_s", "unit": "s", "better": "lower"}]
    parent, change = _run(1, 1), _run(1, 1)
    parent["metrics"] = {"a.calls": 4.0, "b.self_s": 0.0}
    change["metrics"] = {"a.calls": 3.0}
    block = bench_pair.summarize_layers(
        {"w": {"first": "change", "parent": parent, "change": change}},
        per_layer, 7)
    assert (block["seed"], block["trace"]) == (7, 1)
    entry = block["workloads"]["w"]
    assert entry["first"] == "change"
    assert entry["correct"] == {"parent": True, "change": True}
    assert entry["metrics"]["a.calls"] == {
        "unit": "count", "better": "lower", "parent": 4.0, "change": 3.0,
        "change_pct": -25.0}
    # a metric the parent reads as 0, or the change does not report
    assert entry["metrics"]["b.self_s"]["change_pct"] is None
    assert entry["metrics"]["b.self_s"]["change"] is None
