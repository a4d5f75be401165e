"""Paired end-to-end benchmark runs of a parent commit and this checkout.

    python3 tools/bench_pair.py --parent REF --out BENCH_23.json

REF is the parent commit: ``HEAD`` while the change is still uncommitted
in the checkout, ``HEAD~1`` once it is committed.  Its files are exported
by ``git archive`` into a temporary directory (under ``TMPDIR``), which is
removed afterwards.
For each workload the script runs

    python3 verdictbench/run.py --workload W --seed N --seconds S --trace 0

in both trees, with S the ``run_seconds`` of ``BENCHMARK.json``, one pair
per seed, alternating which tree runs first, after the bytecode of both
trees' ``src/`` is compiled.  Each run starts in its own tree, so each
imports its own ``src/`` (``verdictbench/worker.py`` refuses any other).
The benchmark code of each tree is its own, so compare only commits whose
``verdictbench/`` agrees.

The JSON written holds, per workload and end-to-end metric, both sides'
medians and quartiles and the change's win count (ties count for neither),
and per workload whether every run was correct and whether the report
digests of the two trees agree seed by seed.  Beside ``setup_s``, which
run.py scales by its speed probe's factor, the metrics hold
``setup_raw_s`` the same way: per run, the median of the raw set-up
seconds that run.py records in its tree's
``.bench_out/result-W-seedN-trace0.json``.

Its ``layers`` block traces where the time goes: for each workload, one

    python3 verdictbench/run.py --workload W --seed N --seconds S --trace 1

per tree, with N the first seed, alternating which tree runs first from
one workload to the next.  Per workload it holds whether each side's run
was correct and, for each per-layer metric of ``BENCHMARK.json``, its
unit and direction, both sides' values and the change in percent.  One
traced run per side shows where a change moves time or calls; it does not
rank small differences, which the timed pairs above do.

Its ``cold`` block times one-shot processes: each command line of
``tests/test_golden.py`` (the README command set) runs as a fresh process
of each tree that calls ``robustkkt.cli.main``, as the ``robustkkt``
console script does, and ``python -c "import numpy"`` as the floor no
command can go below, in 9 pairs alternating which tree runs first.  Per
command it holds both sides' wall-time medians and quartiles in seconds,
the change's win count, whether the change's median is within the
parent's interquartile range of the parent's median or below, each side's
median over its floor, and whether the stdout and exit code of every run,
with each tree's path cut out, are the same.

Its ``lines`` block holds both trees' line counts of
``src/robustkkt/*.py``, counted as ``wc -l`` counts (newline characters),
per module and in total; a module missing from one tree counts 0 there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("point-queries", "sweep-rasters", "pseudoconvex-sweep")
DIGEST = re.compile(r"^# (\S+) seed (\d+): .* report sha256 (.+)$")
COLD_PAIRS = 9
FLOOR = "import-numpy"  # the cold block's name of the floor process
RAW_SETUP = "setup_raw_s"


def parse_run(text: str) -> dict:
    """The result of one ``run.py`` output: the last line's JSON object,
    its metric values by name, the report digest of each seed from the
    ``#`` lines (None where the worker did not finish) and the
    environment line."""
    lines = text.strip().splitlines()
    last = json.loads(lines[-1])
    digests, environment = {}, None
    for line in lines[:-1]:
        if line.startswith("# environment "):
            environment = json.loads(line[len("# environment "):])
        match = DIGEST.match(line)
        if match:
            sha = match.group(3)
            digests[int(match.group(2))] = sha if re.fullmatch(
                r"[0-9a-f]{64}", sha) else None
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "digests": digests, "environment": environment}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """One workload's summary from its pairs, each {"seed", "first",
    "parent", "change"} with the two sides' ``parse_run`` results; better
    maps a metric to "higher" or "lower"."""
    metrics = {}
    for name, way in better.items():
        sides = {side: [p[side]["metrics"][name] for p in pairs]
                 for side in ("parent", "change")}
        sign = 1 if way == "higher" else -1
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(sides["parent"], sides["change"]))
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        metrics[name] = {
            "better": way, "parent": parent, "change": change, "wins": wins,
            "pairs": len(pairs),
            "change_pct": (100.0 * (change["median"] / parent["median"] - 1)
                           if parent["median"] else None)}
    return {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "correct": all(p[s]["correct"] for p in pairs
                       for s in ("parent", "change")),
        "failed": {s: sum(p[s]["failed"] for p in pairs)
                   for s in ("parent", "change")},
        "digests_equal": all(
            p["parent"]["digests"].get(p["seed"]) is not None
            and p["parent"]["digests"] == p["change"]["digests"]
            for p in pairs),
        "digests": [{"seed": p["seed"],
                     "parent": p["parent"]["digests"].get(p["seed"]),
                     "change": p["change"]["digests"].get(p["seed"])}
                    for p in pairs],
        "metrics": metrics,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """parse_run of one run.py run in tree, with RAW_SETUP among the
    metrics of an untraced run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "verdictbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    run = parse_run(proc.stdout)
    if not trace:  # the raw set-up seconds are in run.py's record only
        record = json.loads((tree / ".bench_out" / (
            f"result-{workload}-seed{seed}-trace0.json")).read_text())
        run["metrics"][RAW_SETUP] = statistics.median(
            record["notes"]["setup_runs_s"])
    return run


def layer_pairs(parent_tree: Path, workloads, seed: int,
                seconds: float) -> dict:
    """Per workload: which tree ran first, and each side's parse_run
    result of one traced run."""
    out = {}
    for i, workload in enumerate(workloads):
        order = (("parent", parent_tree), ("change", ROOT))
        order = order if i % 2 == 0 else order[::-1]
        pair = {"first": order[0][0]}
        for side, tree in order:
            pair[side] = run_once(tree, workload, seed, seconds, trace=1)
            print(f"layers {workload} {side} done", file=sys.stderr,
                  flush=True)
        out[workload] = pair
    return out


def summarize_layers(pairs: dict, per_layer: list[dict], seed: int) -> dict:
    """The layers block from layer_pairs' pairs and the per_layer list of
    BENCHMARK.json (see the module docstring)."""
    workloads = {}
    for workload, pair in pairs.items():
        metrics = {}
        for m in per_layer:
            parent, change = (pair[side]["metrics"].get(m["name"])
                              for side in ("parent", "change"))
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "parent": parent,
                "change": change,
                "change_pct": (100.0 * (change / parent - 1) if parent
                               and change is not None else None)}
        workloads[workload] = {
            "first": pair["first"],
            "correct": {side: pair[side]["correct"]
                        for side in ("parent", "change")},
            "metrics": metrics}
    return {"seed": seed, "trace": 1, "workloads": workloads}


def golden_commands() -> dict[str, list[str]]:
    """The README command lines of tests/test_golden.py, by name; their
    file arguments are paths in this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_golden import COMMANDS
    return COMMANDS


def run_cold(tree: Path, argv: list[str] | None, cwd: str) -> list:
    """Wall seconds and output digest of one fresh process in tree: the
    CLI on argv, its paths in this checkout moved to tree, or the floor
    (argv None)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    cmd = (["-c", "import numpy"] if argv is None else
           ["-c", "import sys; from robustkkt.cli import main; "
            "sys.exit(main())",
            *(a.replace(str(ROOT), str(tree)) for a in argv)])
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *cmd], cwd=cwd, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    out = f"{proc.stdout.replace(str(tree), '<tree>')}exit {proc.returncode}"
    return [seconds, hashlib.sha256(out.encode()).hexdigest()]


def cold_pairs(parent_tree: Path) -> list[dict]:
    """Each pair: which tree ran first, and per side each command's (and
    the floor's) run_cold result."""
    commands = {**golden_commands(), FLOOR: None}
    out = []
    with tempfile.TemporaryDirectory(prefix="bench-cold-") as tmp:
        for i in range(COLD_PAIRS):
            order = (("parent", parent_tree), ("change", ROOT))
            order = order if i % 2 == 0 else order[::-1]
            pair = {"first": order[0][0], "parent": {}, "change": {}}
            for name, argv in commands.items():
                for side, tree in order:
                    pair[side][name] = run_cold(tree, argv, tmp)
            print(f"cold pair {i + 1} of {COLD_PAIRS} done",
                  file=sys.stderr, flush=True)
            out.append(pair)
    return out


def summarize_cold(pairs: list[dict]) -> dict:
    """The cold block from cold_pairs' pairs (see the module docstring)."""
    entries = {}
    for name in pairs[0]["parent"]:
        times = {side: [p[side][name][0] for p in pairs]
                 for side in ("parent", "change")}
        digests = {p[side][name][1] for p in pairs
                   for side in ("parent", "change")}
        parent, change = quartiles(times["parent"]), quartiles(
            times["change"])
        entries[name] = {
            "parent": parent, "change": change,
            "wins": sum(c < p for p, c in zip(times["parent"],
                                                times["change"])),
            "within_parent_iqr": change["median"] - parent["median"]
            <= parent["q3"] - parent["q1"],
            "digests_equal": len(digests) == 1,
            "digest": digests.pop() if len(digests) == 1 else None}
    floor = entries.pop(FLOOR)
    for entry in entries.values():
        entry["over_floor"] = {side: entry[side]["median"]
                               - floor[side]["median"]
                               for side in ("parent", "change")}
    return {"pairs": len(pairs), "first": [p["first"] for p in pairs],
            "floor": floor, "commands": entries}


def count_lines(tree: Path) -> dict[str, int]:
    """Newline characters per module of tree's src/robustkkt, as wc -l."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted((tree / "src" / "robustkkt").glob("*.py"))}


def summarize_lines(parent_tree: Path, change_tree: Path) -> dict:
    """The lines block: per module and in total, both trees' counts."""
    counts = {"parent": count_lines(parent_tree),
              "change": count_lines(change_tree)}
    names = sorted(set(counts["parent"]) | set(counts["change"]))
    return {
        "modules": {name: {side: counts[side].get(name, 0) for side in counts}
                    for name in names},
        "total": {side: sum(c.values()) for side, c in counts.items()}}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    if args.pairs < 3:
        ap.error("--pairs must be at least 3")
    # Terminated, unwind, so the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better[RAW_SETUP] = "lower"
    parent_sha = git("rev-parse", args.parent)
    record = {
        "parent": {"ref": args.parent, "commit": parent_sha},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain",
                                                   "--untracked-files=no"))},
        "settings": {"seconds": spec["run_seconds"], "pairs": args.pairs,
                     "trace": 0},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive,
                       check=True)
        record["lines"] = summarize_lines(parent_tree, ROOT)
        # both trees start with their bytecode compiled, as an install
        # does: PYTHONDONTWRITEBYTECODE=1 would leave only the checkout's
        # old cache, and time its imports against the parent's compiles
        for tree in (parent_tree, ROOT):
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(tree / "src")], check=True)
        for workload in args.workload or WORKLOADS:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = (("parent", parent_tree), ("change", ROOT))
                order = order if i % 2 == 0 else order[::-1]
                pair = {"seed": seed, "first": order[0][0]}
                for side, tree in order:
                    t0 = time.monotonic()
                    pair[side] = run_once(tree, workload, seed,
                                          spec["run_seconds"])
                    print(f"{workload} seed {seed} {side}: "
                          f"{time.monotonic() - t0:.0f} s",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            record["workloads"][workload] = summarize(pairs, better)
            record.setdefault("environment", {
                k: v for k, v in pairs[0]["change"]["environment"].items()
                if k != "commit"})
        record["layers"] = summarize_layers(layer_pairs(
            parent_tree, args.workload or WORKLOADS, args.first_seed,
            spec["run_seconds"]), spec["per_layer"], args.first_seed)
        record["cold"] = summarize_cold(cold_pairs(parent_tree))
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
