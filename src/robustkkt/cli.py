"""Problem-file ingestion, command dispatch and report emission.

Problem files are flat sectioned text: ``[section]`` headers and
``key = value`` lines, expressions quoted verbatim.  Reports are JSON on
stdout and byte-deterministic for fixed inputs (timings only with
``--timings``).  Exit codes: 0 affirmative verdict, 1 negative or
counterexample, 2 inconclusive, 3 usage or data error, 4 internal fault.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from . import certify, verify
from .certify import KKTCertificate, check_cq, check_kkt, fuzzy_kkt_demo, \
    pseudoconvex_test, search_kkt, ystar_grid_size
from .funcdsl import DomainError, ExprError, contains_uncertainty, \
    decimal_fraction, eval_expr, parse_expr
from .robustfeas import (
    ProblemError,
    ProblemSpec,
    UncertainConstraint,
    FixtureSet,
    compute_active_sets,
    raster,
    scenario_envelope,
)
from .setcalc import ConeSpec, OmegaSpec, Polytope, PolytopeSet, SetCalcError
from .subdiff import limiting_subdiff, sup_rule
from .verify import DualTriple, classify_point, converse_duality_check, \
    generate_feasible_samples, strong_duality_from, weak_duality_check

REPORT_VERSION = 1

# Upper bounds on the sizes a command allocates or loops over: command-line
# options (``--res`` makes N x N rasters, ``--grid`` N x N samples, ...)
# and problem-file options.  Larger values are refused as data errors.
OPTION_LIMITS = {"res": 1001, "grid": 101, "y_res": 48, "samples": 100_000,
                 "grid_n": 401}
PROBLEM_LIMITS = {"vgrid": 100_001, "ball_facets": 4096, "objectives": 16,
                  "constraints": 64}
# A pseudoconvex grid sweep holds a y*-grid points x --grid^2 premise
# matrix; the y*-grid has --y-res^(m-1) points for m dual-cone generators.
# 2^23 cells is 64 MiB per float64 array.
PREMISE_CELLS_LIMIT = 2 ** 23


class LoadError(Exception):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)
        self.line = line


def parse_scalar(text: str) -> float:
    """Numeric literal: fraction, decimal, or a constant expression."""
    text = text.strip()
    try:
        return float(Fraction(text) if "/" in text else decimal_fraction(text))
    except (ArithmeticError, ValueError, DomainError):
        pass
    try:
        return eval_expr(parse_expr(text, 0), [])
    except ExprError as exc:
        raise LoadError(f"bad numeric literal {text!r}: {exc}")


def parse_vector(text: str) -> np.ndarray:
    return np.array([parse_scalar(t) for t in text.split(",") if t.strip()])


def _cast(label: str, cast, text: str, line: int | None = None):
    """cast(text), refused as a LoadError naming label."""
    try:
        return cast(text)
    except ValueError:
        raise LoadError(f"bad {label} {text!r}", line) from None


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([a-zA-Z_][\w ]*)\]$")
_CONSTRAINT_RE = re.compile(
    r'^"(?P<expr>.*)"(?:\s+with\s+v\s+in\s+(?P<dom>.+))?$')
_FIXTURE_RE = re.compile(
    r"^(?P<name>\w+)\s*@\s*(?P<pt>[^:]+):\s*(?P<sets>.+)$")


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out).rstrip()


def _parse_polytope_set(text: str, lineno: int) -> PolytopeSet:
    comps = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise LoadError("fixture component must be {(..), (..)}", lineno)
        body = chunk[1:-1].strip()
        verts = []
        for m in re.finditer(r"\(([^()]*)\)", body):
            verts.append([parse_scalar(t) for t in m.group(1).split(",")])
        if not verts:
            raise LoadError("fixture component has no vertices", lineno)
        if len({len(v) for v in verts}) > 1:
            raise LoadError("fixture vertices differ in length", lineno)
        comps.append(Polytope(np.array(verts)))
    return PolytopeSet(comps)


def load_problem(path) -> ProblemSpec:
    """Parse and validate a .problem file into a ProblemSpec."""
    path = resolve_problem_path(path)
    text = Path(path).read_text()
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1).strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise LoadError("content before first [section]", lineno)
        if "=" not in line:
            raise LoadError("expected key = value", lineno)
        key, val = line.split("=", 1)
        sections[current].append((lineno, key.strip(), val.strip()))

    def single(section: str, key: str, default=None):
        for _, k, v in sections.get(section, []):
            if k == key:
                return v
        if default is None:
            raise LoadError(f"missing key {key!r} in [{section}]")
        return default

    # refused before any expression is parsed
    for section in ("objectives", "constraints"):
        count = len(sections.get(section, []))
        if count > PROBLEM_LIMITS[section]:
            raise LoadError(f"{count} {section} exceed the limit "
                            f"{PROBLEM_LIMITS[section]}")

    dim = _cast("dim", int, single("space", "dim"))
    if dim < 0:
        raise LoadError("dim must be >= 0")

    pattern = []
    for tok in single("cone", "pattern").split(","):
        tok = tok.strip()
        if tok == ">=0":
            pattern.append(1)
        elif tok == "<=0":
            pattern.append(-1)
        else:
            raise LoadError(f"cone pattern entry must be >=0 or <=0, got {tok!r}")
    cone = ConeSpec(pattern=tuple(pattern))

    theta = parse_vector(single("theta", "value"))

    okind = single("omega", "kind", "whole").lower()
    if okind == "whole":
        omega = OmegaSpec.whole(dim)
    elif okind == "box":
        lo, hi = [], []
        for tok in single("omega", "bounds").split(","):
            if tok.count("..") != 1:
                raise LoadError(f"box bound must be 'lo..hi', got {tok!r}")
            a, b = tok.split("..")
            lo.append(-np.inf if a.strip() == "-inf" else parse_scalar(a))
            hi.append(np.inf if b.strip() == "inf" else parse_scalar(b))
        omega = OmegaSpec.box(lo, hi)
    elif okind == "halfspaces":
        normals, offsets = [], []
        for lineno, k, v in sections.get("omega", []):
            if not k.startswith("h"):
                continue
            try:
                lhs, rhs = v.split(":")
                normals.append([parse_scalar(t) for t in lhs.split(",")])
                offsets.append(parse_scalar(rhs))
            except ValueError:
                raise LoadError("halfspace must be 'a1,a2 : b'", lineno)
        if not normals:
            raise LoadError("halfspaces omega needs h* entries")
        omega = OmegaSpec.halfspaces(normals, offsets)
    else:
        raise LoadError(f"unknown omega kind {okind!r}")

    obj_names, objs = [], []
    for lineno, k, v in sections.get("objectives", []):
        m = _CONSTRAINT_RE.match(v)
        if not m or m.group("dom"):
            raise LoadError("objective must be a quoted expression", lineno)
        try:
            expr = parse_expr(m.group("expr"), dim)
        except ExprError as exc:
            raise LoadError(f"objective {k}: {exc}", lineno)
        if contains_uncertainty(expr):
            raise LoadError(f"objective {k} must not use v", lineno)
        obj_names.append(k)
        objs.append(expr)
    if not objs:
        raise LoadError("at least one objective is required")

    constraints = []
    for lineno, k, v in sections.get("constraints", []):
        m = _CONSTRAINT_RE.match(v)
        if not m:
            raise LoadError("constraint must be a quoted expression", lineno)
        try:
            expr = parse_expr(m.group("expr"), dim)
        except ExprError as exc:
            raise LoadError(f"constraint {k}: {exc}", lineno)
        dom = m.group("dom")
        lo = hi = None
        scenarios = None
        if dom is not None:
            dom = dom.strip()
            if dom.startswith("[") and dom.endswith("]"):
                if dom.count(",") != 1:
                    raise LoadError("scenario interval must be [lo, hi]",
                                    lineno)
                a, b = dom[1:-1].split(",")
                lo, hi = parse_scalar(a), parse_scalar(b)
            elif dom.startswith("{") and dom.endswith("}"):
                scenarios = tuple(parse_scalar(t)
                                  for t in dom[1:-1].split(","))
            else:
                raise LoadError("scenario domain must be [lo, hi] or {..}",
                                lineno)
        elif contains_uncertainty(expr):
            raise LoadError(f"constraint {k} uses v but has no domain", lineno)
        try:
            constraints.append(UncertainConstraint(k, expr, lo, hi, scenarios))
        except ProblemError as exc:
            raise LoadError(str(exc), lineno)

    opts = {k: (lineno, v) for lineno, k, v in sections.get("options", [])
            if k != "fixture"}
    fixtures = []
    declared = set(obj_names) | {c.name for c in constraints}
    for lineno, k, v in sections.get("options", []):
        if k != "fixture":
            continue
        m = _FIXTURE_RE.match(v)
        if not m:
            raise LoadError("fixture must be 'name @ point : {..} | {..}'",
                            lineno)
        name = m.group("name")
        if name not in declared:
            raise LoadError(f"fixture references undeclared function {name!r}",
                            lineno)
        fixtures.append(FixtureSet(name, parse_vector(m.group("pt")),
                                   _parse_polytope_set(m.group("sets"), lineno)))

    def opt(key, cast, default):
        if key not in opts:
            return default
        lineno, text = opts[key]
        return _cast(f"option {key}", cast, text, lineno)

    for key in ("vgrid", "ball_facets"):
        bound = PROBLEM_LIMITS[key]
        if key in opts and opt(key, int, None) > bound:
            raise LoadError(f"option {key} exceeds its limit {bound}",
                            opts[key][0])
    vgrid, feas_tol = opt("vgrid", int, 1001), opt("feas_tol", float, 1e-8)
    kink_tol = opt("kink_tol", float, 1e-9)
    for key, ok, rule in (("vgrid", vgrid >= 2, "at least 2"),
                          ("feas_tol", not math.isnan(feas_tol), "a number"),
                          ("kink_tol", kink_tol >= 0.0, "a number >= 0")):
        if not ok:
            raise LoadError(f"option {key} must be {rule}", opts[key][0])

    try:
        return ProblemSpec(
            dim=dim,
            objective_names=tuple(obj_names),
            objectives=tuple(objs),
            constraints=tuple(constraints),
            cone=cone,
            omega=omega,
            theta=theta,
            norm=opt("norm", str, "l2"),
            ball_facets=opt("ball_facets", int, 64),
            feas_tol=feas_tol,
            kink_tol=kink_tol,
            vgrid=vgrid,
            seed=opt("seed", int, 20240601),
            fixtures=tuple(fixtures),
        )
    except (ProblemError, SetCalcError) as exc:
        raise LoadError(str(exc))


def resolve_problem_path(path) -> Path:
    p = Path(path)
    if p.exists():
        return p
    name = p.name if p.name.endswith(".problem") else p.name + ".problem"
    bundled = resources.files("robustkkt") / "fixtures" / name
    if bundled.is_file():
        return Path(str(bundled))
    raise LoadError(f"problem file not found: {path}")


def _sized(label: str, values, length: int | None = None):
    """values, refused unless a list or array (of length entries)."""
    if not isinstance(values, (list, np.ndarray)):
        raise LoadError(f"{label} must be a list")
    if length is not None and len(values) != length:
        raise LoadError(f"{label} has {len(values)} entries, the problem "
                        f"needs {length}")
    return values


def _field(kind: str, doc, field: str):
    """doc[field], refused unless doc is a JSON object holding field."""
    if not isinstance(doc, dict):
        raise LoadError(f"{kind} must be a JSON object")
    if field not in doc:
        raise LoadError(f"{kind} field {field} is missing")
    return doc[field]


def _numbers(label: str, vals, length: int) -> np.ndarray:
    return np.array([parse_scalar(str(t))
                     for t in _sized(label, vals, length)])


def _vec(kind: str, doc, field: str, length: int) -> np.ndarray:
    return _numbers(f"{kind} field {field}", _field(kind, doc, field), length)


def _rows(kind: str, doc, field: str, count: int, length: int):
    label = f"{kind} field {field}"
    return [_numbers(f"{label}[{k}]", row, length) for k, row
            in enumerate(_sized(label, _field(kind, doc, field), count))]


def load_certificate(path, spec: ProblemSpec) -> KKTCertificate:
    doc = json.loads(Path(path).read_text())
    p, n, d = spec.n_objectives, spec.n_constraints, spec.dim
    return KKTCertificate(
        ystar=_vec("certificate", doc, "ystar", p),
        mu=_vec("certificate", doc, "mu", n),
        u=_rows("certificate", doc, "u", p, d),
        v=_rows("certificate", doc, "v", n, d),
        vbar=[parse_scalar(str(t)) for t in _sized(
            "certificate field vbar", doc.get("vbar", [0] * n))],
        bstar=_vec("certificate", doc, "bstar", d),
        astar=_vec("certificate", doc, "astar", d),
    )


def load_witness(path, spec: ProblemSpec) -> dict:
    """A pseudo-convexity failure witness: x, ystar and one subgradient
    row u per objective, each checked against the problem's sizes."""
    doc = json.loads(Path(path).read_text())
    p, d = spec.n_objectives, spec.dim
    return {"x": _vec("witness", doc, "x", d),
            "ystar": _vec("witness", doc, "ystar", p),
            "u": _rows("witness", doc, "u", p, d)}


def load_triple(doc: dict, spec: ProblemSpec) -> DualTriple:
    """A Mond-Weir dual triple from one parsed JSON object, each field
    checked against the problem's sizes."""
    return DualTriple(
        z=_vec("triple", doc, "z", spec.dim),
        ystar=_vec("triple", doc, "ystar", spec.n_objectives),
        mu=_vec("triple", doc, "mu", spec.n_constraints),
    )


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [to_jsonable(t) for t in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Polytope):
        return {"vertices": obj.vertices.tolist()}
    if isinstance(obj, PolytopeSet):
        return {"components": [c.vertices.tolist() for c in obj.components]}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(t) for t in obj]
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in vars(obj).items()}
    return obj


def emit_report(command: str, problem_path, spec_hash: str, config: dict,
                verdict: str, details: dict, timings: float | None) -> None:
    doc = {
        "report_version": REPORT_VERSION,
        "command": command,
        "problem": {"path": str(problem_path), "sha256": spec_hash},
        "config": to_jsonable(config),
        "verdict": verdict,
        "details": to_jsonable(details),
    }
    if timings is not None:
        doc["timings_sec"] = timings
    print(json.dumps(doc, indent=2, sort_keys=True))


def _hash_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="robustkkt",
        description="Verification toolkit for nonsmooth robust "
                    "multiobjective optimization")
    ap.add_argument("--timings", action="store_true",
                    help="include wall-clock timing in the report "
                         "(off by default to keep reports byte-deterministic)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True)
        p.add_argument("--fixtures", action="store_true",
                       help="use problem-file fixture sets where declared")
        p.add_argument("--mode", choices=("limiting", "hull"),
                       default=None)

    p = sub.add_parser("feasible", help="robust feasibility of a point")
    common(p)
    p.add_argument("--at", required=True)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("raster", help="feasibility raster to CSV")
    common(p)
    p.add_argument("--region", required=True)
    p.add_argument("--res", type=int, default=401)
    p.add_argument("--out", default=None)

    p = sub.add_parser("subdiff", help="subdifferential set of one function")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--scenario", default=None)

    p = sub.add_parser("cq", help="constraint qualification at a point")
    common(p)
    p.add_argument("--at", required=True)

    p = sub.add_parser("kkt", help="KKT certificate check or search")
    common(p)
    p.add_argument("action", choices=("check", "search"))
    p.add_argument("--at", required=True)
    p.add_argument("--cert", default=None)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("fuzzy", help="fuzzy necessary-condition demonstrator")
    common(p)
    p.add_argument("--at", required=True)
    p.add_argument("--ystar", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--grid-n", type=int, default=81)

    p = sub.add_parser("pseudoconvex", help="type I/II pseudo-convexity test")
    common(p)
    p.add_argument("--at", required=True)
    p.add_argument("--type", dest="ptype", choices=("I", "II"), required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--y-res", type=int, default=24)
    p.add_argument("--witness", default=None)

    p = sub.add_parser("efficiency", help="classify a candidate point")
    common(p)
    p.add_argument("--at", required=True)
    p.add_argument("--kind", choices=verify.KINDS, required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--res", type=int, default=401)

    p = sub.add_parser("duality", help="Mond-Weir duality checks")
    common(p)
    p.add_argument("action", choices=("weak", "strong", "converse"))
    p.add_argument("--at", default=None)
    p.add_argument("--kind", choices=("I", "II"), default="I")
    p.add_argument("--triple", default=None)
    p.add_argument("--triples", default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--region", default=None)
    p.add_argument("--res", type=int, default=401)
    return ap


_VALUE_FLAGS = {"--region", "--at", "--ystar", "--scenario"}


def _merge_negative_values(argv):
    """Join value flags with leading-dash payloads ('--region -5,1,..')."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and re.match(
                r"^-[\d.]", argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


# Refused input: exit 3.  Any other exception is an internal fault: exit 4,
# never the negative verdict's 1.
DATA_ERRORS = (LoadError, ProblemError, ExprError, SetCalcError,
               certify.CertifyError, verify.VerifyError, OSError,
               json.JSONDecodeError, UnicodeDecodeError)


def run_command(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        code, verdict, details, config = _dispatch(args)
        timings = time.monotonic() - t0 if args.timings else None
        path = resolve_problem_path(args.problem)
        emit_report(args.command, path, _hash_file(path), config, verdict,
                    details, timings)
        return code
    except Exception as exc:
        print(json.dumps({"report_version": REPORT_VERSION,
                          "error": str(exc)}, indent=2, sort_keys=True))
        return 3 if isinstance(exc, DATA_ERRORS) else 4


def _check_option_limits(args) -> None:
    for name, bound in OPTION_LIMITS.items():
        value = getattr(args, name, None)
        flag = "--" + name.replace("_", "-")
        least = 1 if name == "y_res" else 0
        if value is not None and value > bound:
            raise LoadError(f"{flag} {value} exceeds its limit {bound}")
        if value is not None and value < least:
            raise LoadError(f"{flag} {value} is below {least}")


def _parse_points(args, spec: ProblemSpec) -> dict[str, np.ndarray]:
    """The point options given, parsed and checked against the problem:
    --at against its dimension, --ystar against its objectives and the
    --region box against twice its dimension."""
    points = {}
    for name, size in (("at", spec.dim), ("ystar", spec.n_objectives),
                       ("region", 2 * spec.dim)):
        text = getattr(args, name, None)
        if text is not None:
            points[name] = _sized(f"--{name}", parse_vector(text), size)
    return points


def _dispatch(args) -> tuple[int, str, dict, dict]:
    _check_option_limits(args)
    spec = load_problem(args.problem)
    points = _parse_points(args, spec)
    x = points.get("at")
    mode = args.mode or "limiting"
    use_fx = bool(args.fixtures)
    config = {"mode": mode, "fixtures": use_fx}

    if args.command == "feasible":
        acts = compute_active_sets(spec, x) if spec.constraints else None
        tol = spec.feas_tol if args.tol is None else args.tol
        ok = spec.omega.contains(x) and (acts is None or acts.phi <= tol)
        details = {"point": x, "feasible": ok}
        if acts:
            details["phi"] = acts.phi
            details["phi_i"] = acts.phis
        return (0 if ok else 1), ("FEASIBLE" if ok else "INFEASIBLE"), \
            details, config

    if args.command == "raster":
        region = points["region"]
        r = raster(spec, region, args.res)
        csv_text = r.to_csv()
        details = {"region": region, "res": args.res,
                   "feasible_cells": int(np.sum(r.feasible)),
                   "total_cells": int(r.feasible.size)}
        if args.out:
            Path(args.out).write_text(csv_text)
            details["out"] = args.out
        else:
            details["csv"] = csv_text
        return 0, "RASTER-WRITTEN", details, config

    if args.command == "subdiff":
        smode = args.mode or "hull"
        config["mode"] = smode
        name = args.target
        fx = spec.fixture_for(name, x) if use_fx else None
        if fx is not None:
            return 0, "SET-COMPUTED", {"target": name, "set": fx,
                                       "provenance": "fixture"}, config
        if name in spec.objective_names:
            res = limiting_subdiff(spec.objective(name), x, None, smode,
                                   spec.kink_tol)
        else:
            con = spec.constraint(name)
            if con.has_uncertainty and args.scenario is not None:
                res = limiting_subdiff(con.expr, x, parse_scalar(args.scenario),
                                       smode, spec.kink_tol)
            else:
                _, actives = scenario_envelope(con, x, spec.vgrid)
                res = sup_rule(con, x, actives, smode, spec.kink_tol)
        details = {"target": name, "set": res.set, "exactness": res.exactness,
                   "rules": list(res.rules), "provenance": "engine"}
        return 0, "SET-COMPUTED", details, config

    if args.command == "cq":
        rep = check_cq(spec, x, use_fixtures=use_fx)
        verdict = "CQ-HOLDS" if rep.holds else "CQ-FAILS"
        return (0 if rep.holds else 1), verdict, vars(rep), config

    if args.command == "kkt":
        if args.action == "check":
            if not args.cert:
                raise LoadError("kkt check requires --cert")
            cert = load_certificate(args.cert, spec)
            cmode = args.mode or "hull"
            config["mode"] = cmode
            rep = check_kkt(spec, x, cert, args.tol, cmode, use_fx)
            verdict = "VALID" if rep.valid else "INVALID"
            return (0 if rep.valid else 1), verdict, vars(rep), config
        rep = search_kkt(spec, x, mode, use_fx, tol=args.tol)
        if rep.found:
            details = {"certificate": rep.certificate.to_jsonable(),
                       "recheck": vars(rep.recheck),
                       "active_indices": rep.active_indices,
                       "heuristic": False,
                       "provenance": rep.provenance}
            return 0, "CERTIFICATE-FOUND", details, config
        return 1, "NONE-FOUND", {"active_indices": rep.active_indices,
                                 "selections_tried": rep.selections_tried},\
            config

    if args.command == "fuzzy":
        rep = fuzzy_kkt_demo(spec, x, points["ystar"], args.eta,
                             args.radius, args.grid_n, mode=mode)
        if rep.found:
            return 0, "WITNESS-FOUND", vars(rep.witness), config
        return 2, "NONE-FOUND", {"diagnostic": rep.diagnostic}, config

    if args.command == "pseudoconvex":
        witness = None
        if args.witness:
            witness = load_witness(args.witness, spec)
        else:
            cells = ystar_grid_size(spec, args.y_res) * args.grid ** 2
            if cells > PREMISE_CELLS_LIMIT:
                raise LoadError(
                    f"--y-res {args.y_res} and --grid {args.grid} make "
                    f"{cells} premise cells, over the limit "
                    f"{PREMISE_CELLS_LIMIT}")
        region = points.get("region")
        rep = pseudoconvex_test(spec, x, args.ptype, region=region,
                                grid=args.grid, y_resolution=args.y_res,
                                mode=mode, witness=witness)
        counts: dict[str, int] = {}
        for v in rep.verdicts:
            counts[v.verdict] = counts.get(v.verdict, 0) + 1
        details = {"counts": counts, "lp_optimum": rep.lp_optimum,
                   "samples": len(rep.verdicts)}
        if any(v.verdict == "WITNESSED-FAILURE" for v in rep.verdicts):
            return 1, "WITNESSED-FAILURE", details, config
        if rep.all_verified:
            return 0, "VERIFIED", details, config
        return 2, "INCONCLUSIVE", details, config

    if args.command == "efficiency":
        region = points["region"]
        rep = classify_point(spec, x, args.kind, region, args.res)
        details = vars(rep)
        if rep.no_counterexample:
            return 0, "NO-COUNTEREXAMPLE", details, config
        return 1, "COUNTEREXAMPLE", details, config

    if args.command == "duality":
        if args.action == "strong":
            if x is None:
                raise LoadError("duality strong requires --at")
            rep = strong_duality_from(spec, x, mode, use_fx)
            details = {"triple": rep.triple.to_jsonable(),
                       "feasibility": vars(rep.feasibility)}
            ok = rep.feasibility.feasible
            return (0 if ok else 1), ("FEASIBLE" if ok else "INFEASIBLE"), \
                details, config
        if args.action == "weak":
            if not args.region:
                raise LoadError("duality weak requires --region")
            region = points["region"]
            if args.triples:
                docs = json.loads(Path(args.triples).read_text())
                triples = [load_triple(doc, spec)
                           for doc in _sized("triples file", docs)]
            else:
                if x is None:
                    raise LoadError("duality weak needs --triples or --at")
                srep = strong_duality_from(spec, x, mode, use_fx)
                triples = [srep.triple]
            samples = generate_feasible_samples(spec, region, args.samples)
            rep = weak_duality_check(spec, samples, triples, args.kind,
                                     mode=mode)
            details = {"pairs_checked": rep.pairs_checked,
                       "violation": rep.violation}
            ok = rep.no_violation
            return (0 if ok else 1), \
                ("NO-VIOLATION" if ok else "VIOLATION"), details, config
        if not args.triple or not args.region:
            raise LoadError("duality converse requires --triple and --region")
        triple = load_triple(json.loads(Path(args.triple).read_text()), spec)
        region = points["region"]
        rep = converse_duality_check(spec, triple, args.kind, region, args.res)
        details = {"kind": rep.kind, "efficiency": vars(rep.efficiency)}
        ok = rep.consistent
        return (0 if ok else 1), \
            ("NO-COUNTEREXAMPLE" if ok else "COUNTEREXAMPLE"), details, config

    raise LoadError(f"unknown command {args.command}")


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
