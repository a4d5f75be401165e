"""tools/bench_pair.py reads a recorded ``verdictbench/run.py`` output
(``tests/data/run_point_queries_seed1.txt``, one point-queries run of seed
1) and summarizes pairs of such results."""

from __future__ import annotations

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
