"""Verdict-latency benchmark for the robustkkt command line.

    python3 verdictbench/run.py --workload point-queries --seed 1 \
        --seconds 25 --trace 0

Run from the root of a robustkkt checkout.  Every run starts fresh worker
processes (see worker.py) that call ``robustkkt.cli.run_command`` in-process,
closed-loop with one client and ``ROBUSTKKT_THREADS`` unset.

``--trace 0`` prints the end-to-end metrics: one worker runs whole workload
rounds, as many as take about ``--seconds`` at the benchmark's reference
speed, and set-up time is the median of fresh workers timed between its
commands.  Every end-to-end timing is in reference seconds: the measured
time scaled by the host's speed while it was measured, which speed.py
probes, so that the shared host's slow phases cancel out.

``--trace 1`` prints the per-layer metrics: one worker runs the rounds with
every public robustkkt function wrapped (spans.py), and a second, untraced
worker replays the same rounds, which gives the per-command latencies and
the tracing overhead.  Layer counts and self times are per workload round,
and its timings are raw seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines, each
starting with ``#``, record the environment, the tail percentile used, the
report digests and any failed command.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import OUT_DIR, WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh workers, spread evenly between the
# commands of the workload worker: the host has fast and slow phases lasting
# seconds, and timing all through the run keeps one phase from deciding the
# median.
SETUP_WORKERS = 12
# Seconds one round of each workload takes at the parent commit of the
# benchmark on a 2-vCPU Intel Xeon.  A run does round(seconds / this)
# rounds, at least one: a fixed amount of work per --seconds, so runs of
# one seed repeat the same commands however fast the program is.
NOMINAL_ROUND_S = {"point-queries": 6.5, "sweep-rasters": 13.5,
                   "pseudoconvex-sweep": 30.0}
# Seconds after the run started from which a workload worker starts no new
# command (--trace 0, and the traced and untraced workers of --trace 1),
# and at which a worker still running is killed.  Commands not run count
# as failed, so a much slower program still gets a result line.
STOP_AT_S = 140
STOP_TRACED_AT_S = 90
KILL_AT_S = 172
TAIL_BEYOND = 10

# Commands reported by cli.cmd.<name>.p50_ms; 0 means "not in this
# workload's mix".
COMMANDS = ("feasible", "subdiff", "cq", "kkt search", "kkt check", "fuzzy",
            "duality strong", "pseudoconvex", "raster", "efficiency",
            "duality weak", "duality converse")
# Layer spans reported as calls and self time per round.
CALLS_AND_SELF = ("funcdsl.eval_on_grid", "robustfeas.envelope_grid",
                  "funcdsl.eval_expr", "funcdsl.contains_uncertainty",
                  "robustfeas.maximize_scenario",
                  "robustfeas.active_scenarios_interval",
                  "subdiff.limiting_subdiff", "subdiff.sup_rule",
                  "subdiff.scalarized_subdiff", "setcalc.minkowski_sum",
                  "setcalc.hull", "lp.solve.exact", "lp.solve.float",
                  "setcalc.zero_in_sum", "setcalc.Polytope.contains")
SELF_ONLY = ("certify.pseudoconvex_test", "certify.search_kkt",
             "certify.check_cq", "certify.check_kkt", "certify.fuzzy_kkt_demo",
             "verify.classify_point", "verify.dual_feasible",
             "verify.weak_duality_check", "verify.generate_feasible_samples",
             "robustfeas.Raster.to_csv", "cli.emit_report",
             "cli.load_problem")


STARTED = time.monotonic()
WORKER = [sys.executable, str(HERE / "worker.py")]


def _env() -> dict:
    return {k: v for k, v in os.environ.items() if k != "ROBUSTKKT_THREADS"}


def setup_worker() -> tuple[float, float]:
    """Set-up time of one fresh worker, raw and in reference seconds."""
    proc = subprocess.run([*WORKER, "setup"], stdout=subprocess.PIPE,
                          env=_env(), text=True, timeout=60, check=True)
    msg = json.loads(proc.stdout.strip().splitlines()[-1])
    return msg["setup_s"], msg["setup_s"] * msg["speed"]


def workload_worker(args, rounds: int, trace: bool = False,
                    probe: bool = False, between=None,
                    stop_at: float | None = None) -> dict:
    """Run the rounds in one fresh worker, one command at a time.

    With ``probe`` the worker records the host speed during each command
    (speed.py).  ``between(done, planned)`` runs before each command.  No
    command starts after ``stop_at`` (default ``STOP_AT_S``) seconds into the run,
    and the worker is killed at ``KILL_AT_S``; every command not run counts
    as failed.
    """
    stop_at = STOP_AT_S if stop_at is None else stop_at
    cmd = [*WORKER, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--rounds", str(rounds)] + (["--trace"] * trace
                                                       + ["--probe"] * probe)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=_env(), text=True)
    killer = threading.Timer(STARTED + KILL_AT_S - t0, proc.kill)
    killer.start()
    planned, records, final = None, [], {}
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if "planned" in msg:
                planned = msg["planned"]
            elif "command" in msg:
                records.append(msg)
            else:
                final = msg
                continue
            if len(records) < planned:
                if between is not None:
                    between(len(records), planned)
                go = time.monotonic() < STARTED + stop_at
                proc.stdin.write("go\n" if go else "stop\n")
                proc.stdin.flush()
    except BrokenPipeError:
        pass
    finally:
        killer.cancel()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        proc.wait()
    if planned is None:
        raise SystemExit(f"worker exited with code {proc.returncode} "
                         f"before planning any command")
    return summary(args, rounds, planned, records, final,
                   time.monotonic() - t0, proc.returncode)


def summary(args, rounds: int, planned: int, records: list, final: dict,
            wall_s: float, exit_code: int | None) -> dict:
    """One workload worker's result; commands not run count as failed."""
    lat = [r["latency_s"] for r in records]
    # Reference seconds: latency scaled by the host speed (speed.py).
    ref = [r["latency_s"] * r.get("speed", 1.0) for r in records]
    ok = [r for r in records if "errors" not in r]
    return {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "wall_s": wall_s, "planned": planned, "ran": len(records),
        "exit_code": exit_code, "attempted": planned,
        "failed": planned - len(ok), "busy_s": sum(lat), "latencies_s": lat,
        "busy_ref_s": sum(ref), "ref_latencies_s": ref,
        "speeds": [r.get("speed") for r in records],
        "commands": [r["command"] for r in records],
        "failures": [{"argv": r["argv"], "errors": r["errors"]}
                     for r in records if "errors" in r][:20],
        "points": sum(r["points"] for r in ok),
        "pc_samples": sum(r["pc_samples"] for r in ok),
        "report_bytes": sum(r["report_bytes"] for r in records),
        "peak_rss_mb": max((r["rss_mb"] for r in records), default=0.0),
        "digest_all": final.get("digest_all"),
        "trace": final.get("trace"),
    }


def command_p50_ms(result: dict) -> dict:
    by_cmd: dict[str, list[float]] = {}
    for cmd, lat in zip(result["commands"], result["latencies_s"]):
        by_cmd.setdefault(cmd, []).append(lat * 1e3)
    return {cmd: statistics.median(v) for cmd, v in by_cmd.items()}


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        # The caller's value; workers always run with it unset.
        "ROBUSTKKT_THREADS": os.environ.get("ROBUSTKKT_THREADS"),
        "loop": "closed, one client, one thread",
    }


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond.

    With fewer samples than that, the maximum (percentile 100)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def rounds_for(args) -> int:
    return max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))


def end_to_end(args) -> tuple[dict, dict]:
    setup_worker()  # untimed: fills the bytecode cache of the checkout
    setups = []

    def set_up(due: int) -> None:
        while len(setups) < due:
            setups.append(setup_worker())

    # Gap g is the one before command g + 1 of n; the last gap follows the
    # worker.  Each of the n + 1 gaps gets its share of the set-up workers.
    res = workload_worker(
        args, rounds_for(args), probe=True,
        between=lambda g, n: set_up(SETUP_WORKERS * (g + 1) // (n + 1)))
    set_up(SETUP_WORKERS if time.monotonic() < STARTED + STOP_AT_S else 1)
    # Every timing is in reference seconds (speed.py); the raw ones are
    # kept in the record.
    lat_ms = [t * 1e3 for t in res["ref_latencies_s"]] or [0.0]
    tail_ms, pct = tail(lat_ms)
    ok = res["attempted"] - res["failed"]
    busy = res["busy_ref_s"] or 1.0
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "query_tail_ms": (tail_ms, "ms"),
        "queries_per_s": (ok / busy, "1/s"),
        "sweep_cells_per_s": (res["points"] / busy, "1/s"),
        "pc_samples_per_s": (res["pc_samples"] / busy, "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": (ok / res["attempted"], "ratio"),
    }
    notes = {"setup_runs_s": [raw for raw, _ in setups],
             "setup_runs_ref_s": [ref for _, ref in setups],
             "tail": f"p{pct:.2f} of {len(lat_ms)} commands "
                     f"({TAIL_BEYOND} beyond)"}
    return metrics, {"runs": [res], **notes}


def per_layer(args) -> tuple[dict, dict]:
    rounds = rounds_for(args)
    traced = workload_worker(args, rounds, trace=True,
                             stop_at=STOP_TRACED_AT_S)
    if time.monotonic() < STARTED + STOP_AT_S:
        plain = workload_worker(args, rounds)
    else:  # no time left to start the replay
        plain = summary(args, rounds, traced["planned"], [], {}, 0.0, None)
    t = traced["trace"] or {"calls": {}, "self_s": {}, "counters": {},
                            "lp_by_caller": {}}
    calls, self_s = t["calls"], t["self_s"]
    counters, lp_by = t["counters"], t["lp_by_caller"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for span in CALLS_AND_SELF:
        put(f"{span}.calls", calls.get(span, 0) / rounds, "count")
        put(f"{span}.self_s", self_s.get(span, 0.0) / rounds, "s")
    for span in SELF_ONLY:
        put(f"{span}.self_s", self_s.get(span, 0.0) / rounds, "s")
    put("funcdsl.eval_on_grid.points",
        counters.get("funcdsl.eval_on_grid.points", 0) / rounds, "count")
    put("robustfeas.phi_i.calls", calls.get("robustfeas.phi_i", 0) / rounds,
        "count")
    for span in ("setcalc.minkowski_sum", "setcalc.hull"):
        put(f"{span}.lp_calls", lp_by.get(span, 0) / rounds, "count")
    zis = calls.get("setcalc.zero_in_sum", 0)
    put("setcalc.zero_in_sum.lps_per_call",
        lp_by.get("setcalc.zero_in_sum", 0) / zis if zis else 0.0, "count")
    exact = calls.get("lp.solve.exact", 0)
    put("lp.solve.exact.cols_mean",
        counters.get("lp.solve.exact.cols", 0) / exact if exact else 0.0,
        "count")
    solves = exact + calls.get("lp.solve.float", 0)
    put("lp.solve.infeasible_ratio",
        counters.get("lp.solve.infeasible", 0) / solves if solves else 0.0,
        "ratio")
    put("cli.report_bytes", plain["report_bytes"] / rounds, "bytes")
    p50 = command_p50_ms(plain)
    for cmd in COMMANDS:
        put(f"cli.cmd.{cmd.replace(' ', '_')}.p50_ms", p50.get(cmd, 0.0),
            "ms")
    # Over the commands both workers ran, in case one stopped early.
    both = min(traced["ran"], plain["ran"])
    plain_s = sum(plain["latencies_s"][:both])
    put("trace.overhead_ratio",
        sum(traced["latencies_s"][:both]) / plain_s - 1.0 if plain_s
        else 0.0, "ratio")
    notes = {"runs": [traced, plain],
             "waiting": "no layer waits: one closed-loop client, one "
                        "thread and no queue, so no waiting time is reported"}
    if (traced["ran"] == plain["ran"] and traced["digest_all"]
            and plain["digest_all"]
            and traced["digest_all"] != plain["digest_all"]):
        notes["digest_mismatch"] = "traced and untraced reports differ"
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/robustkkt/cli.py").is_file():
        print("run from the root of a robustkkt checkout: "
              "src/robustkkt/cli.py not found", file=sys.stderr)
        return 2
    Path(OUT_DIR).mkdir(exist_ok=True)
    env = environment()
    metrics, notes = (per_layer if args.trace else end_to_end)(args)
    runs = notes["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    complete = all(r["digest_all"] for r in runs)
    mismatch = "digest_mismatch" in notes
    metrics_json = {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "notes": notes, "metrics": metrics_json}
    out = Path(OUT_DIR) / (f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1))

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for r in runs:
        print(f"# {r['workload']} seed {r['seed']}: {r['rounds']} rounds, "
              f"{r['ran']} of {r['planned']} commands run, {r['failed']} "
              f"failed, {r['wall_s']:.1f} s; report sha256 "
              f"{r['digest_all'] or '(none: the worker did not finish)'}")
        if r["ran"] < r["planned"]:
            print(f"# FAILED {r['planned'] - r['ran']} commands not run: "
                  f"the worker ended before them, at the run's deadline "
                  f"or by a crash (exit code {r['exit_code']})")
        for f in r["failures"]:
            print(f"# FAILED {' '.join(f['argv'])}: {'; '.join(f['errors'])}")
    for key in ("tail", "waiting", "digest_mismatch"):
        if key in notes:
            print(f"# {key}: {notes[key]}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(f"# record written to {out}")
    print(json.dumps({
        "correct": failed == 0 and complete and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
