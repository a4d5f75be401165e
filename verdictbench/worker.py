"""One fresh benchmark worker process.

    python3 verdictbench/worker.py setup
    python3 verdictbench/worker.py run --workload W --seed N --rounds R
                                       [--trace | --probe]

Run from the root of a robustkkt checkout: the program is imported from
``src/`` there.  The worker drives robustkkt only through
``robustkkt.cli.run_command``.  ``setup`` prints one JSON line.  ``run``
prints JSON lines: first the number of commands planned, then one record
per command, then the report digest (and, traced, the span summary).  It
reads a line from stdin before each command and starts the command only if
that line is ``go``; anything else ends the run early.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

SRC = Path("src")


def import_cli():
    """Import robustkkt.cli from this checkout, never from elsewhere."""
    src = SRC.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import robustkkt.cli as cli
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"robustkkt was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def bundled_problems() -> list[str]:
    return sorted(p.stem for p in (SRC / "robustkkt" / "fixtures")
                  .glob("*.problem"))


def measure_setup() -> dict:
    """Time to import the CLI and load every bundled problem, and the host
    speed right after it (speed.py)."""
    names = bundled_problems()
    t0 = time.perf_counter()
    cli = import_cli()
    for name in names:
        cli.load_problem(name)
    setup_s = time.perf_counter() - t0
    from speed import Sampler
    return {"setup_s": setup_s, "speed": Sampler("scalar").host_speed(),
            "problems": len(names)}


def points_decided(command: str, details: dict) -> int:
    """Grid cells, samples or points one report classified."""
    if command == "raster":
        return details["total_cells"]
    if command == "efficiency":
        return details["resolution"] ** 2
    if command == "duality converse":
        return details["efficiency"]["resolution"] ** 2
    if command == "duality weak":
        return details["pairs_checked"]
    if command == "pseudoconvex":
        return details["samples"]
    if command == "subdiff":
        return 0
    return 1


def normalized(doc: dict) -> bytes:
    """Report bytes without the checkout-dependent problem path."""
    doc = json.loads(json.dumps(doc))
    if isinstance(doc.get("problem"), dict):
        doc["problem"]["path"] = Path(doc["problem"]["path"]).name
    return json.dumps(doc, sort_keys=True).encode()


def run_op(cli, op: dict, sampler=None) -> tuple[dict, bytes | None]:
    """Run one command; return its record and its normalised report.

    With a ``speed.Sampler`` the host speed during the command is recorded
    too, and the latency is net of the probes run inside it."""
    from checks import check_raster, check_report
    buf = io.StringIO()
    error = None

    def command():
        with redirect_stdout(buf):
            return cli.run_command(op["argv"])

    t0 = time.perf_counter()
    try:
        code = command() if sampler is None else sampler.call(command)
    except Exception:
        code = None
        error = traceback.format_exc(limit=3)
    latency, speed = time.perf_counter() - t0, None
    if sampler is not None:
        latency, speed = sampler.net_s, sampler.speed
    text = buf.getvalue()
    if error is None:
        doc, errors = check_report(op, code, text)
        if not errors and "raster" in op["expect"]:
            r = op["expect"]["raster"]
            errors = check_raster(r["figure"], r["region"], r["res"],
                                  r["path"])
        if not errors and "save_triple" in op["expect"]:
            # The dual triple for the converse check that follows.
            Path(op["expect"]["save_triple"]).write_text(
                json.dumps(doc["details"]["triple"]))
    else:
        doc, errors = None, [f"exception: {error}"]
    record = {"command": op["command"], "latency_s": latency,
              "report_bytes": len(text.encode()), "points": 0,
              "pc_samples": 0,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0}
    if speed is not None:
        record["speed"] = speed
    if errors:
        record.update(argv=op["argv"], errors=errors)
    else:
        details = doc.get("details", {})
        record["points"] = points_decided(op["command"], details)
        if op["command"] == "pseudoconvex":
            record["pc_samples"] = details["samples"]
    return record, None if doc is None else normalized(doc)


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true",
                    help="record the host speed during each command")
    args = ap.parse_args(argv)
    if os.environ.get("ROBUSTKKT_THREADS"):
        raise SystemExit("workers run with ROBUSTKKT_THREADS unset")
    if args.mode == "setup":
        print(json.dumps(measure_setup()))
        return 0
    cli = import_cli()
    from workloads import OUT_DIR, Workload
    Path(OUT_DIR).mkdir(exist_ok=True)
    workload = Workload(args.workload, args.seed)
    ops = [op for _ in range(args.rounds) for op in workload.next_round()]
    sampler = None
    if args.probe:
        from speed import Sampler
        from workloads import PROBE_KIND
        sampler = Sampler(PROBE_KIND[args.workload])
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    emit({"planned": len(ops)})
    digest = hashlib.sha256()
    try:
        for index, op in enumerate(ops):
            # The caller answers "go" when this command may start.
            if sys.stdin.readline().strip() != "go":
                break
            if tracer is not None:
                tracer.op_id = index
            record, report = run_op(cli, op, sampler)
            if report is not None:
                digest.update(report)
            emit(record)
    finally:
        if tracer is not None:
            tracer.uninstall()
    final = {"digest_all": digest.hexdigest()}
    if tracer is not None:
        final["trace"] = tracer.summary()
        tracer.write(Path(OUT_DIR) / f"spans-{args.workload}.npz")
    emit(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
