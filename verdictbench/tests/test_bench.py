"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest verdictbench/tests -q
"""

from __future__ import annotations

import importlib
import io
import json
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, METHODS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _rounds(name, seed, count=2):
    w = workloads.Workload(name, seed)
    return [w.next_round() for _ in range(count)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fixed_seed_gives_identical_inputs(name):
    assert _rounds(name, 11) == _rounds(name, 11)
    assert _rounds(name, 11) != _rounds(name, 12)


def test_round_mix_is_the_same_for_every_seed():
    for name in workloads.WORKLOADS:
        mixes = {tuple(sorted(op["command"] for op in _rounds(name, s, 1)[0]))
                 for s in range(5)}
        assert len(mixes) == 1, name


def test_points_are_distinct_and_inside_the_closed_form():
    seen = set()
    for ops in _rounds("point-queries", 3, count=5):
        for op in ops:
            argv = op["argv"]
            at = argv[argv.index("--at") + 1]
            if at == "0,0":
                continue
            problem = argv[argv.index("--problem") + 1]
            x1, x2 = (float(t) for t in at.split(","))
            assert workloads.closed_form_feasible(
                workloads.FIGURE[problem], x1, x2)
            key = (workloads.FIGURE[problem], at)
            assert key not in seen
            seen.add(key)


def _cheap_run(monkeypatch, name, trace):
    """Run the benchmark with every round cut to a few cheap commands."""
    monkeypatch.setattr(run, "WORKER", [
        sys.executable, str(BENCH / "tests" / "cheap_worker.py")])
    monkeypatch.setattr(run, "SETUP_WORKERS", 2)
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0


def _result(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    last = json.loads(out[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last, out


def _names(last, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_short_run_emits_every_named_metric(monkeypatch, capsys, name, trace):
    _cheap_run(monkeypatch, name, trace)
    last, _ = _result(capsys)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    _names(last, trace)
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("trace", (0, 1))
def test_run_past_its_deadline_still_prints_a_result(monkeypatch, capsys,
                                                     trace):
    monkeypatch.setattr(run, "STOP_AT_S", -1)
    monkeypatch.setattr(run, "STOP_TRACED_AT_S", -1)
    _cheap_run(monkeypatch, "point-queries", trace)
    last, out = _result(capsys)
    assert not last["correct"]
    assert last["failed"] == last["attempted"] > 0
    assert any("commands not run" in line for line in out)
    _names(last, trace)


def _robustkkt_bindings():
    """Every function and method object reachable by name in robustkkt."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "robustkkt" or mod_name.startswith("robustkkt."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(mod_name, attr)] = value
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"robustkkt.{layer}"], cls_name)
        out[(layer, cls_name, meth)] = vars(cls)[meth]
    return out


def test_traced_run_patches_every_import_and_restores_them():
    worker.import_cli()
    for layer in LAYERS:
        importlib.import_module(f"robustkkt.{layer}")
    before = _robustkkt_bindings()
    setcalc = sys.modules["robustkkt.setcalc"]
    original = setcalc.minkowski_sum
    tracer = Tracer()
    tracer.install()
    try:
        for mod in ("robustkkt.setcalc", "robustkkt.subdiff",
                    "robustkkt.verify", "robustkkt"):
            assert sys.modules[mod].minkowski_sum is not original, mod
        cli = sys.modules["robustkkt.cli"]
        with redirect_stdout(io.StringIO()):
            assert cli.run_command(["subdiff", "--problem", "example_3_2",
                                    "--target", "g1", "--at", "0,0"]) == 0
    finally:
        tracer.uninstall()
    after = _robustkkt_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    summary = tracer.summary()
    assert summary["calls"]["cli.run_command"] == 1
    assert summary["calls"]["subdiff.sup_rule"] >= 1
    assert summary["self_s"]["cli.run_command"] >= 0.0


def test_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    wrapped = {}
    wrapped["depth"] = tracer._wrap(
        lambda n: 0 if n == 0 else 1 + wrapped["depth"](n - 1), "depth")
    outer = tracer._wrap(lambda f: f(3) + f(2), "outer")
    assert outer(wrapped["depth"]) == 5
    arrays = tracer.arrays()
    # Recursion through the wrapped name stays inside its first span.
    assert arrays["parent"].tolist() == [-1, 0, 0]
    total = arrays["end"][0] - arrays["start"][0]
    summary = tracer.summary()
    assert summary["calls"] == {"depth": 2, "outer": 1}
    assert sum(summary["self_s"].values()) == pytest.approx(total)


def test_tail_percentile_keeps_ten_samples_beyond():
    lat = list(range(1, 101))
    value, pct = run.tail(lat)
    assert value == 90 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def _spin(seconds):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


def test_every_workload_has_a_probe():
    assert set(workloads.PROBE_KIND) == set(workloads.WORKLOADS)
    assert set(workloads.PROBE_KIND.values()) <= set(speed.PROBES)


def test_sampler_takes_its_probes_off_the_time_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler("scalar")
    t0 = time.perf_counter()
    assert sampler.call(lambda: _spin(0.35) or "done") == "done"
    elapsed = time.perf_counter() - t0
    # Probes ran inside the call and are not part of its net time.
    assert 0.2 < sampler.net_s < 0.35 < elapsed
    assert sampler.speed > 0 and sampler.host_speed() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before

    def fail():
        _spin(0.05)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        sampler.call(fail)
    assert 0.0 < sampler.net_s <= 0.06
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
