"""Problem-file ingestion, command dispatch and report emission.

Problem files are flat sectioned text: ``[section]`` headers and
``key = value`` lines, expressions quoted verbatim.  Reports are JSON on
stdout and byte-deterministic for fixed inputs (timings only with
``--timings``).  Exit codes: 0 affirmative verdict, 1 negative or
counterexample, 2 inconclusive, 3 usage or data error, 4 internal fault,
141 stdout closed by its reader.  Every input rule is a row of ``TABLE``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import itertools
import json
import locale
import math
import os
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import certify, verify
from .certify import KKTCertificate, check_cq, check_kkt, fuzzy_kkt_demo, \
    pseudoconvex_test, search_kkt, witnessed_failure_check
from .funcdsl import DomainError, ExprError, decimal_fraction, eval_expr, \
    parse_expr
from .robustfeas import (
    ProblemError,
    ProblemSpec,
    UncertainConstraint,
    FixtureSet,
    compute_active_sets,
    raster,
    scenario_envelope,
)
from .setcalc import NORMS, ConeSpec, OmegaSpec, Polytope, PolytopeSet, \
    SetCalcError
from .subdiff import limiting_subdiff, sup_rule
from .verify import DualTriple, classify_point, converse_duality_check, \
    dual_feasible, strong_duality_from, weak_duality_check

REPORT_VERSION = 1


class LoadError(Exception):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


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


_NONFINITE_RE = re.compile(r"[+-]?(nan|inf|infinity)", re.IGNORECASE)


def _number(text: str) -> float:
    """parse_scalar, with nan and inf read as float() reads them, so that
    the row's bounds refuse them by name."""
    if _NONFINITE_RE.fullmatch(text.strip()):
        return float(text)
    return parse_scalar(text)


def _integer(text: str) -> int:
    value = parse_scalar(text)
    if value != int(value):
        raise ValueError(text)
    return int(value)


# ---------------------------------------------------------------------------
# The input table
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    """One input rule.  ``kind``: ``cli`` (an option of the verbs that
    ``commands`` lists, ``!`` where required), ``space`` or ``options``
    (a problem-file key), ``count`` (a problem-file section's entries) or
    the JSON file holding the field.  ``parse``: ``bool`` for a flag, a
    tuple of the words allowed, None for text.  A number above ``most`` is
    refused as over its limit, one below ``least`` or NaN by ``rule``.
    ``size``: a list's length per axis, per coordinate (d), objective (p),
    constraint (n), or two per coordinate (2d)."""
    kind: str
    name: str
    parse: object = None
    default: object = None
    least: float = -math.inf
    most: float = math.inf
    rule: str = "is below {least}"
    size: tuple[str, ...] = ()
    commands: str = ""
    help: str | None = None


COMMANDS = {
    "feasible": "robust feasibility of a point",
    "raster": "feasibility raster to CSV",
    "subdiff": "subdifferential set of one function",
    "cq": "constraint qualification at a point",
    "kkt check": "check a KKT certificate",
    "kkt search": "search for a KKT certificate",
    "fuzzy": "fuzzy necessary-condition demonstrator",
    "pseudoconvex": "type I/II pseudo-convexity test",
    "efficiency": "classify a candidate point",
    "duality weak": "Mond-Weir weak duality over feasible samples",
    "duality strong": "a Mond-Weir dual triple from a KKT point",
    "duality converse": "Mond-Weir converse duality of a triple",
}


def _param(fn, name: str):
    """The default of fn's parameter name: the library's default is the
    command line's, as ProblemSpec's is the problem file's."""
    return inspect.signature(fn).parameters[name].default


_SPEC = {f.name: f.default for f in dataclasses.fields(ProblemSpec)}
_NUMBER = "must be a number >= {least} and <= {most}"
_AT_LEAST = "must be at least {least}"
_DUALITY = "duality weak, duality strong, duality converse"

TABLE = [
    Row("cli", "--timings", bool, help="include wall-clock timing in the "
        "report (off by default to keep reports byte-deterministic)"),
    Row("cli", "--problem", commands="!, ".join(COMMANDS) + "!"),
    Row("cli", "--fixtures", bool, commands="subdiff, cq, kkt check, "
        "kkt search, pseudoconvex, " + _DUALITY,
        help="use problem-file fixture sets where declared"),
    Row("cli", "--mode", ("limiting", "hull"), "hull",
        commands="subdiff, kkt check"),
    Row("cli", "--mode", ("limiting", "hull"), "limiting",
        commands="kkt search, fuzzy, pseudoconvex, " + _DUALITY),
    Row("cli", "--at", size=("d",), commands="feasible!, subdiff!, cq!, "
        "kkt check!, kkt search!, fuzzy!, pseudoconvex!, efficiency!, "
        "duality weak, duality strong!"),
    Row("cli", "--ystar", size=("p",), commands="fuzzy!"),
    Row("cli", "--region", size=("2d",), commands="raster!, pseudoconvex, "
        "efficiency!, duality weak!, duality converse!"),
    # feasible's --tol defaults to the problem's feas_tol
    Row("cli", "--tol", _number, None, 0.0, 1.0, _NUMBER, commands="feasible"),
    Row("cli", "--tol", _number, _param(check_kkt, "tol"), 0.0, 1.0, _NUMBER,
        commands="kkt check, kkt search"),
    Row("cli", "--res", _integer, _param(classify_point, "resolution"), 0,
        1001, commands="raster, efficiency, duality converse"),
    Row("cli", "--out", commands="raster"),
    Row("cli", "--target", commands="subdiff!"),
    Row("cli", "--scenario", parse_scalar, commands="subdiff"),
    Row("cli", "--cert", commands="kkt check!"),
    Row("cli", "--eta", _number, None, 1e-9, 1e9, _NUMBER, commands="fuzzy!"),
    # fuzzy's --radius defaults to --eta
    Row("cli", "--radius", _number, None, 0.0, 1e9, _NUMBER, commands="fuzzy"),
    Row("cli", "--grid-n", _integer, _param(fuzzy_kkt_demo, "grid_n"), 2, 401,
        commands="fuzzy"),
    Row("cli", "--type", ("I", "II"), commands="pseudoconvex!"),
    # absent unless given, for --witness to refuse; the sweep has defaults
    Row("cli", "--grid", _integer, None, 0, 101, commands="pseudoconvex"),
    Row("cli", "--y-res", _integer, None, 1, 48, commands="pseudoconvex"),
    Row("cli", "--witness", commands="pseudoconvex"),
    Row("cli", "--kind", verify.KINDS, commands="efficiency!"),
    Row("cli", "--kind", ("I", "II"), "I",
        commands="duality weak, duality converse"),
    Row("cli", "--triple", commands="duality converse!"),
    Row("cli", "--triples", commands="duality weak"),
    Row("cli", "--samples", _integer, 1000, 1, 100_000,
        commands="duality weak"),
    # problem files; the section sizes are refused before any expression
    # is parsed, and an l1 norm's dual ball enters every LP as dim segments
    Row("space", "dim", _integer, None, 1, 16, "must be >= {least}"),
    Row("count", "objectives", least=1, most=16,
        rule="at least {least} objective is required"),
    Row("count", "constraints", least=0, most=64),
    Row("options", "vgrid", _integer, _SPEC["vgrid"], 2, 100_001, _AT_LEAST),
    Row("options", "feas_tol", _number, _SPEC["feas_tol"], 0.0, 1.0, _NUMBER),
    Row("options", "kink_tol", _number, _SPEC["kink_tol"], 0.0, 1.0, _NUMBER),
    Row("options", "ball_facets", _integer, _SPEC["ball_facets"], 8, 4096,
        _AT_LEAST),
    Row("options", "seed", _integer, _SPEC["seed"], 0, 2 ** 32 - 1, _AT_LEAST),
    Row("options", "norm", NORMS, _SPEC["norm"]),
    # JSON files: a kkt check certificate, a pseudoconvex witness, a dual
    # triple; vbar is reported only, and defaults to zeros
    Row("certificate", "ystar", size=("p",)),
    Row("certificate", "mu", size=("n",)),
    Row("certificate", "u", size=("p", "d")),
    Row("certificate", "v", size=("n", "d")),
    Row("certificate", "vbar", default=0, size=("n",)),
    Row("certificate", "bstar", size=("d",)),
    Row("certificate", "astar", size=("d",)),
    Row("witness", "x", size=("d",)),
    Row("witness", "ystar", size=("p",)),
    Row("witness", "u", size=("p", "d")),
    Row("triple", "z", size=("d",)),
    Row("triple", "ystar", size=("p",)),
    Row("triple", "mu", size=("n",)),
]

# the rows by verb ("" before the command), and by kind off the command line
ROWS: dict[str, list[Row]] = {}
for _row in TABLE:
    for _key in (_row.commands.split(", ") if _row.kind == "cli"
                 else [_row.kind]):
        ROWS.setdefault(_key.rstrip("!"), []).append(_row)


def _fmt(bound) -> str:
    return f"{bound:g}" if isinstance(bound, float) else str(bound)


def _read(row: Row, text: str, label: str = "", line: int | None = None):
    """text read by the row and checked against its words or bounds,
    refused as a LoadError naming label, by default the row's name (and
    showing a command-line value)."""
    label = label or row.name
    shown = f"{label} {text}" if row.kind == "cli" else label
    if isinstance(row.parse, tuple):
        if text not in row.parse:
            raise LoadError(f"{shown} must be one of {', '.join(row.parse)}",
                            line)
        return text
    try:
        value = row.parse(text)
    except (LoadError, ValueError):
        raise LoadError(f"bad {label} {text!r}", line) from None
    if value > row.most:
        raise LoadError(f"{shown} exceeds its limit {_fmt(row.most)}", line)
    if not value >= row.least:
        raise LoadError(f"{shown} " + row.rule.format(
            least=_fmt(row.least), most=_fmt(row.most)), line)
    return value


def _sizes(spec: ProblemSpec) -> dict[str, int]:
    return {"d": spec.dim, "p": spec.n_objectives, "n": spec.n_constraints,
            "2d": 2 * spec.dim}


def _array(label: str, values, axes: list[int]):
    """values as a float array, or a list of them for two axes; refused
    unless a list of axes[0] entries."""
    if not isinstance(values, list):
        raise LoadError(f"{label} must be a list")
    if len(values) != axes[0]:
        raise LoadError(f"{label} has {len(values)} entries, the problem "
                        f"needs {axes[0]}")
    if len(axes) > 1:
        return [_array(f"{label}[{k}]", row, axes[1:])
                for k, row in enumerate(values)]
    return np.array([parse_scalar(str(t)) for t in values])


def _fields(kind: str, doc, spec: ProblemSpec) -> dict:
    """The fields of a JSON input file, each read by its row."""
    if not isinstance(doc, dict):
        raise LoadError(f"{kind} must be a JSON object")
    sizes, out = _sizes(spec), {}
    for row in ROWS[kind]:
        axes = [sizes[a] for a in row.size]
        if row.name in doc:
            values = doc[row.name]
        elif row.default is not None:
            values = [row.default] * axes[0]
        else:
            raise LoadError(f"{kind} field {row.name} is missing")
        out[row.name] = _array(f"{kind} field {row.name}", values, axes)
    return out


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([a-zA-Z_][\w ]*)\]$")
_CONSTRAINT_RE = re.compile(
    r'^"(?P<expr>.*)"(?:\s+with\s+v\s+in\s+(?P<dom>.+))?$')
_FIXTURE_RE = re.compile(
    r"^(?P<name>\w+)\s*@\s*(?P<pt>[^:]+):\s*(?P<sets>.+)$")


# the line up to its first # outside double quotes (a quote left open
# runs to the end of the line)
_UNCOMMENTED_RE = re.compile(r'(?:[^"#]+|"[^"]*"?)*')


def _strip_comment(line: str) -> str:
    return _UNCOMMENTED_RE.match(line).group().rstrip()


_FUNCTIONS = ("objectives", "constraints")
# the keys of the other sections but [options] ([omega] also reads h*)
_KEYS = {"space": ("dim",), "cone": ("pattern",), "theta": ("value",),
         "omega": ("kind", "bounds")}


class _FixtureRefusal(Exception):
    """Fixture text refused; load_problem names the line that holds it."""


@lru_cache(maxsize=256)
def _parse_polytope_set(text: str) -> PolytopeSet:
    """The union a fixture's text declares, read once per text: its
    polytopes are read-only, so every load of the text shares them."""
    comps = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise _FixtureRefusal("fixture component must be {(..), (..)}")
        body = chunk[1:-1].strip()
        verts = []
        for m in re.finditer(r"\(([^()]*)\)", body):
            verts.append([parse_scalar(t) for t in m.group(1).split(",")])
        if not verts:
            raise _FixtureRefusal("fixture component has no vertices")
        if len({len(v) for v in verts}) > 1:
            raise _FixtureRefusal("fixture vertices differ in length")
        comps.append(Polytope(np.array(verts)))
    if len({p.dim for p in comps}) > 1:
        raise _FixtureRefusal("fixture components differ in dimension")
    return PolytopeSet(comps)


def load_problem(source) -> ProblemSpec:
    """Parse and validate a .problem file, given by its path or its bytes
    (decoded as Path.read_text decodes them), into a ProblemSpec."""
    if not isinstance(source, bytes):
        source = resolve_problem_path(source).read_bytes()
    text = source.decode(locale.getpreferredencoding(False))
    sections: dict[str, list[tuple[int, str, str]]] = {}
    seen: set[tuple] = set()
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1).strip().lower()
            if current not in (*_KEYS, *_FUNCTIONS, "options"):
                raise LoadError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise LoadError("content before first [section]", lineno)
        if "=" not in line:
            raise LoadError("expected key = value", lineno)
        key, val = (t.strip() for t in line.split("=", 1))
        if key not in _KEYS.get(current, (key,)) and not (
                current == "omega" and key.startswith("h")):
            raise LoadError(f"unknown key {key!r} in [{current}]", lineno)
        # objectives and constraints share one namespace of function names;
        # only fixtures and halfspaces may repeat
        space = _FUNCTIONS if current in _FUNCTIONS else current
        repeats = (current, key) == ("options", "fixture") or (
            current == "omega" and key.startswith("h"))
        if (space, key) in seen and not repeats:
            raise LoadError(f"duplicate function name {key!r}"
                            if space is _FUNCTIONS else
                            f"duplicate key {key!r} in [{current}]", lineno)
        seen.add((space, key))
        sections[current].append((lineno, key, val))

    def single(section: str, key: str, default=None):
        for _, k, v in sections.get(section, []):
            if k == key:
                return v
        if default is None:
            raise LoadError(f"missing key {key!r} in [{section}]")
        return default

    for row in ROWS["count"]:
        count = len(sections.get(row.name, []))
        if count > row.most:
            raise LoadError(f"{count} {row.name} exceed the limit {row.most}")
        if count < row.least:
            raise LoadError(row.rule.format(least=row.least))

    dim = _read(ROWS["space"][0], single("space", "dim"), "dim")

    signs = {">=0": 1, "<=0": -1}
    pattern = [tok.strip() for tok in single("cone", "pattern").split(",")]
    for tok in pattern:
        if tok not in signs:
            raise LoadError(f"cone pattern entry must be >=0 or <=0, got {tok!r}")
    cone = ConeSpec(pattern=tuple(signs[tok] for tok in pattern))

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
            if len(normals[-1]) != dim:
                raise LoadError(f"halfspace {k} has dimension "
                                f"{len(normals[-1])}, the problem has dim "
                                f"{dim}", lineno)
        if not normals:
            raise LoadError("halfspaces omega needs h* entries")
        omega = OmegaSpec.halfspaces(normals, offsets)
    else:
        raise LoadError(f"unknown omega kind {okind!r}")

    def expression(what: str, lineno: int, k: str, v: str):
        """A quoted expression and its scenario domain (None if none)."""
        m = _CONSTRAINT_RE.match(v)
        if not m:
            raise LoadError(f"{what} must be a quoted expression", lineno)
        try:
            return parse_expr(m.group("expr"), dim), m.group("dom")
        except ExprError as exc:
            raise LoadError(f"{what} {k}: {exc}", lineno)

    obj_names, objs = [], []
    for lineno, k, v in sections.get("objectives", []):
        expr, dom = expression("objective", lineno, k, v)
        if dom:
            raise LoadError("objective must be a quoted expression", lineno)
        if expr.has_v:
            raise LoadError(f"objective {k} must not use v", lineno)
        obj_names.append(k)
        objs.append(expr)

    constraints = []
    for lineno, k, v in sections.get("constraints", []):
        expr, dom = expression("constraint", lineno, k, v)
        lo = hi = scenarios = None
        if dom is not None:
            dom = dom.strip()
            if dom[:1] + dom[-1:] not in ("[]", "{}"):
                raise LoadError("scenario domain must be [lo, hi] or {..}",
                                lineno)
            values = tuple(parse_scalar(t) for t in dom[1:-1].split(","))
            if dom[0] == "{":
                scenarios = values
            elif len(values) == 2:
                lo, hi = values
            else:
                raise LoadError("scenario interval must be [lo, hi]", lineno)
        elif expr.has_v:
            raise LoadError(f"constraint {k} uses v but has no domain", lineno)
        try:
            constraints.append(UncertainConstraint(k, expr, lo, hi, scenarios))
        except ProblemError as exc:
            raise LoadError(str(exc), lineno)

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
        point = parse_vector(m.group("pt"))
        try:
            pset = _parse_polytope_set(m.group("sets"))
        except _FixtureRefusal as exc:
            raise LoadError(str(exc), lineno) from None
        for what, size in (("point", point.size), ("set", pset.dim)):
            if size != dim:
                raise LoadError(f"fixture {what} has dimension {size}, the "
                                f"problem has dim {dim}", lineno)
        fixtures.append(FixtureSet(name, point, pset))

    # only the options the file gives: ProblemSpec holds the defaults
    rows = {row.name: row for row in ROWS["options"]}
    for lineno, k, _ in sections.get("options", []):
        if k not in rows and k != "fixture":
            raise LoadError(f"unknown option {k!r}", lineno)
    given = {k: _read(rows[k], v, f"option {k}", lineno)
             for lineno, k, v in sections.get("options", []) if k in rows}
    try:
        return ProblemSpec(
            dim=dim,
            objective_names=tuple(obj_names),
            objectives=tuple(objs),
            constraints=tuple(constraints),
            cone=cone,
            omega=omega,
            theta=theta,
            fixtures=tuple(fixtures),
            **given,
        )
    except (ProblemError, SetCalcError) as exc:
        raise LoadError(str(exc))


def resolve_problem_path(path) -> Path:
    p = Path(path)
    if p.exists():
        return p
    name = p.name if p.name.endswith(".problem") else p.name + ".problem"
    bundled = Path(__file__).parent / "fixtures" / name
    if bundled.is_file():
        return bundled
    raise LoadError(f"problem file not found: {path}")


def load_certificate(path, spec: ProblemSpec) -> KKTCertificate:
    return KKTCertificate(**_fields("certificate",
                                    json.loads(Path(path).read_text()), spec))


def load_triple(doc: dict, spec: ProblemSpec) -> DualTriple:
    """A Mond-Weir dual triple from one parsed JSON object."""
    return DualTriple(**_fields("triple", doc, spec))


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def to_jsonable(obj):
    """obj as JSON data: arrays as lists, records as objects of their
    fields, and a non-finite float as the word float() reads back ("nan",
    "inf", "-inf"), since JSON has no such number."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(t) for t in obj.tolist()]
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, Polytope):
        return {"vertices": to_jsonable(obj.vertices)}
    if isinstance(obj, PolytopeSet):
        return {"components": [to_jsonable(c.vertices)
                               for c in obj.components]}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "_asdict"):  # a record, before the tuple it also is
        return to_jsonable(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(t) for t in obj]
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
    print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@cache
def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """One argument per command-line row, each value read by its row; the
    points are read once the problem is loaded (_read_points).  With a
    verb, only that verb's parser is built, and the usage lines still name
    every command, so texts and results on that verb's command lines are
    the full parser's.  Built once per process and verb and shared, so
    callers must not change it."""
    verbs = list(COMMANDS) if verb is None else [verb]

    def names(command: str) -> list[str]:
        return list(dict.fromkeys(v.removeprefix(command).split()[0]
                                  for v in COMMANDS if v.startswith(command)))

    def add_subparsers(parser, command: str, dest: str):
        # the full parser's usage shows the choices it holds
        metavar = None if verb is None else "{%s}" % ",".join(names(command))
        return parser.add_subparsers(dest=dest, required=True,
                                     metavar=metavar)

    ap = argparse.ArgumentParser(
        prog="robustkkt", allow_abbrev=False,
        description="Verification toolkit for nonsmooth robust "
                    "multiobjective optimization")
    subs = {"": add_subparsers(ap, "", "command")}
    parsers = {"": ap}
    for name in verbs:
        command, _, action = name.rpartition(" ")
        if command not in subs:  # kkt and duality: a parser per verb
            subs[command] = add_subparsers(subs[""].add_parser(
                command, help=", ".join(names(command + " "))),
                command + " ", "action")
        parsers[name] = subs[command].add_parser(action, help=COMMANDS[name],
                                                 allow_abbrev=False)
        # a report's config echoes these for a verb that reads no such flag
        parsers[name].set_defaults(verb=name, mode="limiting", fixtures=False)
    for row in TABLE:
        if row.kind != "cli":
            continue
        kw = {"help": row.help}
        if row.parse is bool:
            kw["action"] = "store_true"
        elif row.parse and not row.size:  # _read refuses a bad word first
            kw.update(type=partial(_read, row), default=row.default,
                      choices=row.parse if type(row.parse) is tuple else None)
        for name in row.commands.split(", "):
            if name.rstrip("!") in parsers:
                kw["required"] = name.endswith("!")
                parsers[name.rstrip("!")].add_argument(row.name, **kw)
    return ap


def _argv_verb(argv: list[str]) -> str | None:
    """The verb of COMMANDS that argv's first one or two words after any
    --timings name, or None (no verb, or a help flag anywhere), for which
    build_parser builds every verb."""
    if "-h" in argv or "--help" in argv:
        return None
    words = list(itertools.dropwhile(lambda t: t == "--timings", argv))
    for name in (" ".join(words[:1]), " ".join(words[:2])):
        if name in COMMANDS:
            return name
    return None


_VALUE_FLAGS = {row.name for row in TABLE
                if row.kind == "cli" and row.parse is not bool}


def _merge_negative_values(argv):
    """Join value flags with leading-dash payloads ('--region -5,1,..')."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# Refused input: exit 3.  Any other exception is an internal fault: exit 4,
# never the negative verdict's 1.
DATA_ERRORS = (LoadError, ProblemError, ExprError, SetCalcError,
               certify.CertifyError, verify.VerifyError, OSError,
               json.JSONDecodeError, UnicodeDecodeError)


def run_command(argv) -> int:
    try:
        argv = _merge_negative_values(argv)
        args = build_parser(_argv_verb(argv)).parse_args(argv)
        t0 = time.monotonic()
        # resolved and read once: the hash and the parse see the same bytes
        path = resolve_problem_path(args.problem)
        data = path.read_bytes()
        spec = load_problem(data)
        if not args.fixtures:  # the library reads every fixture a spec holds
            spec = dataclasses.replace(spec, fixtures=())
        code, verdict, details = _dispatch(args, spec)
        timings = time.monotonic() - t0 if args.timings else None
        config = {"mode": args.mode, "fixtures": args.fixtures}
        emit_report(args.command, path, hashlib.sha256(data).hexdigest(),
                    config, verdict, details, timings)
        return code
    except SystemExit as exc:  # argparse's usage errors, and --help
        return 3 if exc.code not in (0, None) else 0
    except BrokenPipeError:
        raise
    except Exception as exc:
        print(json.dumps({"report_version": REPORT_VERSION,
                          "error": str(exc)}, indent=2, sort_keys=True,
                         allow_nan=False))
        return 3 if isinstance(exc, DATA_ERRORS) else 4


def _read_points(args, spec: ProblemSpec) -> None:
    """Each point option given replaced by its entries, checked against
    the problem's sizes (the parser reads the other values)."""
    sizes = _sizes(spec)
    for row in ROWS[args.verb]:
        text = getattr(args, row.name[2:]) if row.size else None
        if text is not None:
            setattr(args, row.name[2:], _array(
                row.name, [t for t in text.split(",") if t.strip()],
                [sizes[a] for a in row.size]))


def _settled(ok: bool, yes: str, no: str, details: dict):
    """Exit 0 with the affirmative verdict, or 1 with the negative one."""
    return (0, yes, details) if ok else (1, no, details)


def _sampled(checked: int, ok: bool, yes: str, no: str, details: dict):
    """_settled for a verdict over samples: none checked is INCONCLUSIVE
    (exit 2), as nothing was found either way."""
    if not checked:
        return 2, "INCONCLUSIVE", details
    return _settled(ok, yes, no, details)


def _dispatch(args, spec: ProblemSpec) -> tuple[int, str, dict]:
    _read_points(args, spec)
    verb, mode = args.verb, args.mode

    if verb == "feasible":
        x = args.at
        acts = compute_active_sets(spec, x) if spec.constraints else None
        tol = spec.feas_tol if args.tol is None else args.tol
        ok = spec.omega.contains(x) and (acts is None or acts.phi <= tol)
        details = {"point": x, "feasible": ok}
        if acts:
            details["phi"] = acts.phi
            details["phi_i"] = acts.phis
        return _settled(ok, "FEASIBLE", "INFEASIBLE", details)

    if verb == "raster":
        r = raster(spec, args.region, args.res)
        csv_text = r.to_csv()
        details = {"region": args.region, "res": args.res,
                   "feasible_cells": int(np.sum(r.feasible)),
                   "total_cells": int(r.feasible.size)}
        if args.out:
            Path(args.out).write_text(csv_text)
            details["out"] = args.out
        else:
            details["csv"] = csv_text
        return 0, "RASTER-WRITTEN", details

    if verb == "subdiff":
        name, x = args.target, args.at
        if args.fixtures and args.scenario is not None:  # no v in a fixture
            raise LoadError("subdiff takes at most one of --scenario and "
                            "--fixtures")
        con = None if name in spec.objective_names else spec.constraint(name)
        if args.scenario is not None and not (con and con.expr.has_v):
            raise LoadError(f"--scenario fixes v, and {name} does not use v")
        fx = spec.fixture_for(name, x)
        if fx is not None:
            return 0, "SET-COMPUTED", {"target": name, "set": fx,
                                       "provenance": "fixture"}
        expr = spec.objective(name) if con is None else con.expr
        if con is None or args.scenario is not None:
            res = limiting_subdiff(expr, x, args.scenario, mode, spec.kink_tol)
        else:
            _, actives = scenario_envelope(con, x, spec.vgrid)
            res = sup_rule(con, x, actives, mode, spec.kink_tol)
        details = {"target": name, "set": res.set, "exactness": res.exactness,
                   "rules": list(res.rules), "provenance": "engine"}
        return 0, "SET-COMPUTED", details

    if verb == "cq":
        rep = check_cq(spec, args.at)
        return _settled(rep.holds, "CQ-HOLDS", "CQ-FAILS", rep._asdict())

    if verb == "kkt check":
        cert = load_certificate(args.cert, spec)
        rep = check_kkt(spec, args.at, cert, args.tol, mode)
        return _settled(rep.valid, "VALID", "INVALID", rep._asdict())

    if verb == "kkt search":
        rep = search_kkt(spec, args.at, mode, tol=args.tol)
        if rep.certificate is not None:
            details = {"certificate": rep.certificate,
                       "recheck": rep.recheck,
                       "active_indices": rep.active_indices,
                       "heuristic": False,
                       "provenance": rep.provenance}
            return 0, "CERTIFICATE-FOUND", details
        return 1, "NONE-FOUND", {"active_indices": rep.active_indices,
                                 "selections_tried": rep.selections_tried}

    if verb == "fuzzy":
        rep = fuzzy_kkt_demo(spec, args.at, args.ystar, args.eta,
                             args.radius, args.grid_n, mode=mode)
        if rep.witness is not None:
            return 0, "WITNESS-FOUND", rep.witness._asdict()
        return 2, "NONE-FOUND", {"diagnostic": rep.diagnostic}

    if verb == "pseudoconvex":
        x, sizes = args.at, {"grid": args.grid, "y_resolution": args.y_res}
        if args.witness is not None:
            for flag, value in [("--region", args.region),
                                ("--grid", args.grid), ("--y-res", args.y_res)]:
                if value is not None:
                    raise LoadError(f"{flag} is an option of the sweep, "
                                    "not of --witness")
            witness = _fields("witness",
                              json.loads(Path(args.witness).read_text()), spec)
            rep = witnessed_failure_check(spec, x, args.type, witness, mode)
        else:
            if args.fixtures:
                raise LoadError("--fixtures is an option of --witness, not "
                                "of the sweep")
            rep = pseudoconvex_test(spec, x, args.type, args.region, mode=mode,
                                    **{k: v for k, v in sizes.items()
                                       if v is not None})
        counts = Counter(rep.verdicts.tolist())
        details = {"counts": counts, "lp_optimum": rep.lp_optimum,
                   "samples": rep.verdicts.size}
        if counts["WITNESSED-FAILURE"]:
            return 1, "WITNESSED-FAILURE", details
        if rep.verdicts.size and not counts["INCONCLUSIVE"]:
            return 0, "VERIFIED", details
        return 2, "INCONCLUSIVE", details

    if verb == "efficiency":
        rep = classify_point(spec, args.at, args.kind, args.region, args.res)
        return _sampled(rep.feasible_checked, rep.no_counterexample,
                        "NO-COUNTEREXAMPLE", "COUNTEREXAMPLE", rep._asdict())

    if verb == "duality strong":
        triple = strong_duality_from(spec, args.at, mode)
        feas = dual_feasible(spec, triple, mode)
        return _settled(feas.feasible, "FEASIBLE", "INFEASIBLE",
                        {"triple": triple, "feasibility": feas})

    if verb == "duality weak":
        if (args.at is None) == (args.triples is None):
            raise LoadError("duality weak takes exactly one of --at and "
                            "--triples")
        if args.triples is not None:
            docs = json.loads(Path(args.triples).read_text())
            if not isinstance(docs, list):
                raise LoadError("triples file must be a list")
            triples = [load_triple(doc, spec) for doc in docs]
        else:
            triples = [strong_duality_from(spec, args.at, mode)]
        rep = weak_duality_check(spec, args.region, args.samples, triples,
                                 args.kind, mode)
        return _sampled(rep.pairs_checked, rep.violation is None,
                        "NO-VIOLATION", "VIOLATION", rep._asdict())

    # duality converse
    triple = load_triple(json.loads(Path(args.triple).read_text()), spec)
    rep = converse_duality_check(spec, triple, args.kind, args.region,
                                 args.res, mode)
    return _sampled(rep.feasible_checked, rep.no_counterexample,
                    "NO-COUNTEREXAMPLE", "COUNTEREXAMPLE",
                    {"kind": args.kind, "efficiency": rep})


def main(argv=None) -> int:
    """The console script.  A reader that closes stdout early exits 141,
    as for SIGPIPE; stdout then goes to the null device for the exit."""
    try:
        return run_command(sys.argv[1:] if argv is None else argv)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
