"""Reachability guard: every function defined in ``src/robustkkt`` runs
during the README command set, or is listed in ``KEPT`` with the reason it
stays.

The commands of ``tests/test_golden.py`` run in-process under
``sys.setprofile``; a function counts as reached when one of its frames is
entered. Functions are found by compiling each module and walking its
code objects, so methods and nested functions count, while lambdas,
comprehensions and dataclass-generated methods (compiled from strings) do
not. Code that no command reaches is deleted or named here; an entry whose
function is gone or is now reached fails the test too, so the list stays
exact.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path
from types import CodeType

import robustkkt
from test_golden import COMMANDS, report

SRC = Path(robustkkt.__file__).resolve().parent

KEPT = {
    "certify._lp_margin":
        "witness margins for d != 2; only pseudoconvex_test's samples= "
        "argument reaches them, as the CLI refuses grid sampling for d != 2",
    "certify._witness_ball":
        "the witness ball of one component for d != 2; the planar sweep "
        "adds the same directions for all y* at once",
    "certify._lp_witness_margin":
        "witness margins for d != 2; only pseudoconvex_test's samples= "
        "argument reaches them, as the CLI refuses grid sampling for d != 2",
    "cli.LoadError.__init__":
        "raised only on refused input; tests/test_cli.py covers the refusals",
    "cli._fmt": "formats a bound in a refusal; no README command is refused",
    "cli._param":
        "reads a library default into the input table when the module is "
        "imported, before any command runs",
    "cli.main": "console-script entry point; the commands call run_command",
    "funcdsl.Expr.__str__":
        "messages of domain errors, formatted when one is raised; no README "
        "command meets one",
    "funcdsl.ParseError.__init__":
        "raised only on a malformed expression",
    "funcdsl._PointWalk.fault":
        "a gradient at 1/0 or at the square root of a nonpositive value; "
        "no README command meets one",
    "funcdsl.max_on_grid": "body of envelope_grid",
    "funcdsl._split_negative":
        "printing a sum with a negative term, for an error message or an "
        "atom key; no README command prints one",
    "funcdsl.smooth_gradient": "public helper the acceptance tests use",
    "lp.LPBuilder._solve_float":
        "LPs over 160 columns or 80 rows: d >= 3 witness margins, "
        "memberships in polygons of more than 155 vertices",
    "robustfeas.ProblemSpec.constraint":
        "subdiff --target naming a constraint",
    "robustfeas.envelope_grid":
        "grid cells a hull bound leaves undecided, and constraints without "
        "a hull bound; the bundled problems have neither",
    "setcalc.OmegaSpec.box":
        "a box ground set; no bundled problem has one",
    "setcalc.OmegaSpec.halfspaces":
        "a halfspace ground set; no bundled problem has one",
    "setcalc.PolyCone.__repr__": "debugging representation",
    "setcalc.Polytope.__repr__": "debugging representation",
    "setcalc.PolytopeSet.__repr__": "debugging representation",
    "setcalc._lp_extreme_points": "hull reduction for d != 2",
    "setcalc._membership_residual":
        "membership for d != 2 or in polygons of more than 155 vertices",
    "setcalc._planar_keep_mask":
        "planar reduction of three or more points, such as the sum rule "
        "where abs(x1) + abs(x2) kinks; the bundled problems reduce at "
        "most two",
}


def _key(code: CodeType) -> tuple[str, int, str]:
    return str(Path(code.co_filename).resolve()), code.co_firstlineno, \
        code.co_name


def defined_functions() -> dict[tuple[str, int, str], str]:
    """Dotted name (module.Class.function) of every function in the
    package, keyed like the frames the profiler sees."""
    found = {}

    def walk(code: CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, CodeType):
                continue
            anonymous = const.co_name.startswith("<")
            name = prefix if anonymous else f"{prefix}.{const.co_name}"
            # class bodies are walked for their methods but are no function
            if not anonymous and const.co_flags & inspect.CO_OPTIMIZED:
                found[_key(const)] = name
            walk(const, name)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


def test_every_function_reached_or_kept(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a cache hit enters no frame, and earlier tests fill the caches
    for module in list(sys.modules.values()):
        if module.__name__.startswith("robustkkt."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    entered: set[CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in COMMANDS.values():
            report(argv)
    finally:
        sys.setprofile(previous)
    reached = {_key(code) for code in entered}
    unreached = {name for key, name in defined_functions().items()
                 if key not in reached}
    assert sorted(unreached - set(KEPT)) == [], "reached by no command"
    assert sorted(set(KEPT) - unreached) == [], "kept but reached or gone"
