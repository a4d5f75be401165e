"""Seeded input generation for the three benchmark workloads.

Every workload is a sequence of *rounds*.  A round has the same command
mix for every seed; the seed only chooses points, regions, problem
rotation and order.  A run executes whole rounds, so two runs with
different seeds measure the same mix of work.

This module does not import robustkkt: inputs are made without touching the
program under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("point-queries", "sweep-rasters", "pseudoconvex-sweep")
# The host-speed probe (speed.py) that does the same kind of work as each
# workload: scalar scans and the exact simplex, or whole-grid array passes.
PROBE_KIND = {"point-queries": "scalar", "sweep-rasters": "array",
              "pseudoconvex-sweep": "scalar"}

FIXTURES = "src/robustkkt/fixtures"
OUT_DIR = ".bench_out"
RASTER_CSV = f"{OUT_DIR}/raster.csv"
TRIPLE_JSON = f"{OUT_DIR}/triple.json"

# README regions of the figure rasters, and the closed-form robust-feasible
# sets stated by tests/test_acceptance.py criterion 4.  example_2_2,
# example_2_3 and example_3_5 share their constraints, hence figure 2.
README_REGION = {
    "example_3_2": (-5.0, 1.0, -5.0, 5.0),
    "example_3_5": (-3.0, 3.0, -4.0, 1.0),
    "example_2_2": (-3.0, 3.0, -4.0, 1.0),
    "example_2_3": (-3.0, 3.0, -4.0, 1.0),
}
FIGURE = {"example_3_2": "figure1", "example_3_5": "figure2",
          "example_2_2": "figure2", "example_2_3": "figure2"}


def closed_form_feasible(figure: str, x1, x2):
    """Closed-form robust feasibility; works on floats and numpy arrays."""
    if figure == "figure1":
        return (((x1 >= -0.5) & (x1 <= 0) & (abs(x2) <= -3 * x1 + 2))
                | ((x1 <= -0.5) & (abs(x2) <= -x1 + 3)))
    return (((abs(x1) <= 1) & (x2 <= -abs(x1) / 2))
            | ((abs(x1) > 1) & (x2 <= -x1 ** 2 / 2)))


# Interior margin: a point counts as inside only if its neighbours at this
# distance are inside too, so a FEASIBLE verdict is never decided by
# floating-point rounding at the boundary.
MARGIN = 1e-3

# The point-queries round: 40 commands, 15% feasible, 20% subdiff, 20% cq,
# 20% kkt search, 15% fuzzy, 10% at the certificate or witness points.
FEASIBLE_PROBLEMS = ("example_3_2", "example_3_2", "example_3_2",
                     "example_3_5", "example_2_2", "example_2_3")
SUBDIFF_TARGETS = (("example_3_2", "f2", "limiting"),
                   ("example_3_2", "f3", "limiting"),
                   ("example_3_2", "g1", "hull"),
                   ("example_3_2", "g2", "hull"),
                   ("example_3_5", "f1", "limiting"),
                   ("example_3_5", "g1", "hull"),
                   ("example_3_5", "g2", "hull"),
                   ("example_2_3", "f1", "limiting"))
CQ_PROBLEMS = ("example_3_2", "example_3_2", "example_3_2",
               "example_3_5", "example_3_5", "example_2_2", "example_2_3")
KKT_PROBLEMS = ("example_3_2", "example_3_2", "example_3_2",
                "example_3_5", "example_3_5", "example_2_2", "example_2_3")
FUZZY_PROBLEMS = ("example_3_2", "example_3_2", "example_3_5",
                  "example_2_2", "example_2_3")
# Sign pattern of the dual cone K+ of each problem (K is an orthant).
DUAL_SIGNS = {"example_3_2": (1, 1, 1), "example_3_5": (-1, 1, 1),
              "example_2_2": (-1, 1, 1), "example_2_3": (-1, 1, 1)}

SWEEP_PROBLEMS = ("example_3_2", "example_3_5", "example_2_3")
EFFICIENCY_KINDS = ("efficient", "weak", "quasi", "weak-quasi")
# (problem, kind) pairs where the paper's solution notion holds at the
# origin, so any region must give NO-COUNTEREXAMPLE (criterion 5).
EFFICIENT_AT_ORIGIN = {("example_3_2", "weak-quasi"),
                       ("example_3_5", "weak-quasi"),
                       ("example_2_3", "quasi"),
                       ("example_2_3", "weak-quasi")}
# Duality kind per problem, as in acceptance criterion 7.
DUALITY_KIND = {"example_3_2": "I", "example_3_5": "I", "example_2_3": "II"}
SWEEP_RES = 401
WEAK_SAMPLES = 1000

PC_REGION = (-2.0, 2.0, -2.0, 2.0)
# The cost of a pseudo-convexity sweep grows with its region, so these
# regions move by at most 3% of a side: enough to vary every sample, small
# enough that the seed does not change the amount of work.
PC_JITTER = 0.03
PC_GRID = 21
PC_YRES = 24


def _op(command: str, argv: list[str], **expect) -> dict:
    return {"command": command, "argv": argv, "expect": expect}


def _fmt(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _jitter(rng: random.Random, region, share: float = 0.1):
    """Move each bound of a box by up to `share` of its side length."""
    a1, b1, a2, b2 = region
    w1, w2 = b1 - a1, b2 - a2
    return (round(a1 + rng.uniform(-share, share) * w1, 3),
            round(b1 + rng.uniform(-share, share) * w1, 3),
            round(a2 + rng.uniform(-share, share) * w2, 3),
            round(b2 + rng.uniform(-share, share) * w2, 3))


class PointSource:
    """Distinct interior points of the closed-form feasible regions."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[tuple[str, str]] = set()

    def draw(self, problem: str) -> str:
        a1, b1, a2, b2 = README_REGION[problem]
        fig = FIGURE[problem]
        while True:
            x1 = round(self.rng.uniform(a1, b1), 4)
            x2 = round(self.rng.uniform(a2, b2), 4)
            if not all(closed_form_feasible(fig, x1 + d1, x2 + d2)
                       for d1 in (-MARGIN, 0.0, MARGIN)
                       for d2 in (-MARGIN, 0.0, MARGIN)):
                continue
            text = f"{x1:.4f},{x2:.4f}"
            if (fig, text) not in self.seen:
                self.seen.add((fig, text))
                return text


def _ystar(rng: random.Random, problem: str) -> str:
    """A nonzero y* in the dual cone, with a few decimals."""
    vals = [round(s * rng.uniform(0.05, 1.0), 4) for s in DUAL_SIGNS[problem]]
    return _fmt(vals)


def point_queries_round(rng: random.Random, points: PointSource) -> list[dict]:
    ops = []
    for p in FEASIBLE_PROBLEMS:
        ops.append(_op("feasible", ["feasible", "--problem", p,
                                    "--at", points.draw(p)],
                       verdict="FEASIBLE"))
    for p, target, mode in SUBDIFF_TARGETS:
        ops.append(_op("subdiff", ["subdiff", "--problem", p, "--target",
                                   target, "--at", points.draw(p),
                                   "--mode", mode],
                       verdict="SET-COMPUTED"))
    ops.append(_op("cq", ["cq", "--problem", "example_3_2", "--at", "0,0"],
                   verdict="CQ-HOLDS"))
    for p in CQ_PROBLEMS:
        ops.append(_op("cq", ["cq", "--problem", p, "--at", points.draw(p)]))
    ops.append(_op("kkt search", ["kkt", "search", "--problem", "example_3_5",
                                  "--at", "0,0"],
                   verdict="CERTIFICATE-FOUND", recheck=True))
    for p in KKT_PROBLEMS:
        ops.append(_op("kkt search", ["kkt", "search", "--problem", p,
                                      "--at", points.draw(p)], recheck=True))
    ops.append(_op("fuzzy", ["fuzzy", "--problem", "example_3_2", "--at",
                             "0,0", "--ystar", "0.3535,0,0.3535",
                             "--eta", "0.1"]))
    for p in FUZZY_PROBLEMS:
        eta = round(rng.uniform(0.05, 0.2), 3)
        ops.append(_op("fuzzy", ["fuzzy", "--problem", p, "--at",
                                 points.draw(p), "--ystar", _ystar(rng, p),
                                 "--eta", f"{eta:g}"]))
    ops.append(_op("kkt check", [
        "kkt", "check", "--problem", "example_3_2", "--at", "0,0",
        "--cert", f"{FIXTURES}/example_3_2.cert.json", "--fixtures"],
        verdict="VALID"))
    ops.append(_op("kkt check", [
        "kkt", "check", "--problem", "example_3_5", "--at", "0,0",
        "--cert", f"{FIXTURES}/example_3_5.cert.json"], verdict="VALID"))
    ops.append(_op("duality strong", ["duality", "strong", "--problem",
                                      "example_3_5", "--at", "0,0"],
                   verdict="FEASIBLE"))
    ops.append(_witness_op())
    rng.shuffle(ops)
    return ops


def _witness_op() -> dict:
    return _op("pseudoconvex", [
        "pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
        "--type", "II", "--witness", f"{FIXTURES}/example_2_2_witness.json"],
        verdict="WITNESSED-FAILURE", samples=1)


def sweep_rasters_round(rng: random.Random, index: int) -> list[dict]:
    """Raster, four efficiency kinds, weak and converse duality.

    Problems rotate with the round so that every command meets every
    problem over three rounds; the first problem depends on the seed.
    """
    offset = index + rng.randrange(3)

    def problem(k):
        return SWEEP_PROBLEMS[(offset + k) % 3]

    def region(p):
        return _fmt(_jitter(rng, README_REGION[p]))

    ops = []
    p = problem(0)
    box = _jitter(rng, README_REGION[p])
    ops.append(_op("raster", ["raster", "--problem", p, "--region", _fmt(box),
                              "--res", str(SWEEP_RES), "--out", RASTER_CSV],
                   verdict="RASTER-WRITTEN",
                   raster={"figure": FIGURE[p], "region": box,
                           "res": SWEEP_RES, "path": RASTER_CSV}))
    for k, kind in enumerate(EFFICIENCY_KINDS):
        p = problem(k + 1)
        expect = {"verdict": "NO-COUNTEREXAMPLE"} \
            if (p, kind) in EFFICIENT_AT_ORIGIN else {}
        ops.append(_op("efficiency", [
            "efficiency", "--problem", p, "--at", "0,0", "--kind", kind,
            "--region", region(p), "--res", str(SWEEP_RES)], **expect))
    p = problem(2)
    ops.append(_op("duality weak", [
        "duality", "weak", "--problem", p, "--at", "0,0", "--kind",
        DUALITY_KIND[p], "--region", region(p), "--samples",
        str(WEAK_SAMPLES)], verdict="NO-VIOLATION"))
    # The converse check reads a dual triple from a file; the strong-duality
    # report of the same problem provides it.
    p = problem(1)
    ops.append(_op("duality strong", ["duality", "strong", "--problem", p,
                                      "--at", "0,0"],
                   verdict="FEASIBLE", save_triple=TRIPLE_JSON))
    ops.append(_op("duality converse", [
        "duality", "converse", "--problem", p, "--triple", TRIPLE_JSON,
        "--kind", DUALITY_KIND[p], "--region", region(p), "--res",
        str(SWEEP_RES)], verdict="NO-COUNTEREXAMPLE"))
    # One pseudo-convexity verdict per round keeps pc_samples_per_s defined
    # on this workload; it costs well under 1% of the round.
    ops.append(_witness_op())
    return ops


def pseudoconvex_round(rng: random.Random) -> list[dict]:
    n = PC_GRID * PC_GRID
    ops = [
        _op("pseudoconvex", [
            "pseudoconvex", "--problem", "example_2_2", "--at", "0,0",
            "--type", "I",
            "--region", _fmt(_jitter(rng, PC_REGION, PC_JITTER)),
            "--grid", str(PC_GRID), "--y-res", str(PC_YRES)],
            verdict="VERIFIED", samples=n),
        _op("pseudoconvex", [
            "pseudoconvex", "--problem", "example_2_3", "--at", "0,0",
            "--type", "II",
            "--region", _fmt(_jitter(rng, PC_REGION, PC_JITTER)),
            "--grid", str(PC_GRID), "--y-res", str(PC_YRES)],
            verdict="VERIFIED", samples=n),
        _witness_op(),
    ]
    rng.shuffle(ops)
    return ops


class Workload:
    """Endless, seed-determined stream of rounds for one workload."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; "
                             f"choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.points = PointSource(self.rng)
        self.index = 0

    def next_round(self) -> list[dict]:
        if self.name == "point-queries":
            ops = point_queries_round(self.rng, self.points)
        elif self.name == "sweep-rasters":
            ops = sweep_rasters_round(self.rng, self.index)
        else:
            ops = pseudoconvex_round(self.rng)
        self.index += 1
        return ops
