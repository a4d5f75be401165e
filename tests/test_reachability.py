"""Reachability guards: every function defined in ``src/robustkkt`` runs
during the README command set, or is listed in ``KEPT`` with the reason it
stays; and every defaulted parameter is set by some call in ``src/``, or is
listed in ``KEPT_PARAMS`` with the reason it stays.

The commands of ``tests/test_golden.py`` run in-process under
``sys.setprofile``; a function counts as reached when one of its frames is
entered. Functions are found by compiling each module and walking its
code objects, so methods and nested functions count, while lambdas,
comprehensions and dataclass-generated methods (compiled from strings) do
not. Code that no command reaches is deleted or named here; an entry whose
function is gone or is now reached fails the test too, so the list stays
exact.

A default that every call in ``src/`` overrides with one and the same
literal is a constant in disguise as well, and fails like an unset one.
"""

from __future__ import annotations

import ast
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType

import robustkkt
from test_golden import COMMANDS, report

SRC = Path(robustkkt.__file__).resolve().parent

KEPT = {
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
    "funcdsl._rough_product":
        "refuses a product of two factors nonsmooth in x at the point; no "
        "README command has one",
    "funcdsl._split_negative":
        "printing a sum with a negative term, for an error message or an "
        "atom key; no README command prints one",
    "lp.LPBuilder.set_objective":
        "objective LPs: the witness check off the plane, memberships for "
        "d != 2, and a normal-cone residual where the ground set has a "
        "face at the point; README's commands have none of these",
    "lp.LPBuilder._solve_float":
        "LPs over 160 columns or 80 rows, such as a witness check off the "
        "plane; no bundled problem has one",
    "robustfeas.ProblemSpec.constraint":
        "subdiff --target naming a constraint",
    "robustfeas.envelope_grid":
        "grid cells a hull bound leaves undecided, and constraints without "
        "a hull bound; the bundled problems have neither",
    "setcalc.OmegaSpec.box":
        "a box ground set; no bundled problem has one",
    "setcalc.OmegaSpec.halfspaces":
        "a halfspace ground set; no bundled problem has one",
    "setcalc.Polytope.__repr__": "debugging representation",
    "setcalc.PolytopeSet.__repr__": "debugging representation",
    "setcalc._lp_extreme_points": "hull reduction for d != 2",
    "setcalc._membership_residual":
        "membership for d != 2, and point_in_cone_residual",
    "setcalc._planar_keep_mask":
        "planar reduction of three or more points, such as the sum rule "
        "where abs(x1) + abs(x2) kinks; the bundled problems reduce at "
        "most two",
}


# Defaulted parameters that no call in src/ sets, or that every call sets
# to the same literal, by module.function(name).
KEPT_PARAMS = {
    "cli.main(argv)":
        "the console script calls main() bare; tests pass their argv",
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


def _modules() -> dict[str, str]:
    """Source text of every module of the package, by module name."""
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def defaulted_parameters(modules: dict[str, str]
                         ) -> dict[str, tuple[str, int | None]]:
    """Every defaulted parameter of a function in the modules, as
    'module.Class.function(name)': the name a call uses (the class for
    __init__) and the parameter's position in a call (None if keyword
    only)."""
    found = {}

    def walk(node: ast.AST, prefix: str, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                names = [a.arg for a in args.posonlyargs + args.args]
                bound = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                called = owner if child.name == "__init__" else child.name
                for name in names[len(names) - len(args.defaults):]:
                    found[f"{prefix}.{child.name}({name})"] = (
                        called, names.index(name) - bound)
                for a, d in zip(args.kwonlyargs, args.kw_defaults):
                    if d is not None:
                        found[f"{prefix}.{child.name}({a.arg})"] = (
                            called, None)
                walk(child, f"{prefix}.{child.name}", None)
            else:
                walk(child, prefix, owner)

    for stem, text in modules.items():
        walk(ast.parse(text), stem, None)
    return found


def calls_by_name(modules: dict[str, str]) -> dict[str, list[ast.Call]]:
    """Every call in the modules, by the name it uses, so a name two
    functions share counts for both."""
    out = defaultdict(list)
    for text in modules.values():
        for call in ast.walk(ast.parse(text)):
            if isinstance(call, ast.Call):
                f = call.func
                out[getattr(f, "id", None) or getattr(f, "attr", None)] \
                    .append(call)
    return out


def passed(call: ast.Call, name: str, position: int | None):
    """What call passes for the parameter name at position: its node,
    "*" if a *args or **kwargs may hold it, None if it leaves the
    default."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return "*"
    for k in call.keywords:
        if k.arg == name:
            return k.value
    if position is not None and position < len(call.args):
        return call.args[position]
    return None


def _literal(node) -> str | None:
    """ast.dump of node if it is a literal, else None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def disguised_constants(modules: dict[str, str]) -> set[str]:
    """The defaulted parameters that no call sets, or that every call
    sets to one and the same literal."""
    calls = calls_by_name(modules)
    out = set()
    for key, (called, position) in defaulted_parameters(modules).items():
        name = key[key.index("(") + 1:-1]
        values = [passed(c, name, position) for c in calls[called]]
        if all(v is None for v in values):
            out.add(key)  # set by no call
        elif all(isinstance(v, ast.AST) for v in values):
            literals = {_literal(v) for v in values}
            if len(literals) == 1 and None not in literals:
                out.add(key)  # every call sets the same literal
    return out


def test_every_default_is_set_or_kept():
    """A default that no call overrides is a constant in disguise, and so
    is one that every call overrides with the same literal."""
    disguised = disguised_constants(_modules())
    assert sorted(disguised - set(KEPT_PARAMS)) == [], "a constant"
    assert sorted(set(KEPT_PARAMS) - disguised) == [], "kept but set or gone"


def test_a_default_every_call_overrides_alike_is_a_constant():
    def modules(*calls):
        return {"m": "def _k(a, b=1):\n    return a + b\n\n\n"
                     "def f(x):\n" + "".join(f"    {c}\n" for c in calls)}

    assert disguised_constants(modules("_k(x, 2)")) == {"m._k(b)"}
    assert disguised_constants(modules("_k(x, 2)", "_k(x, b=2)")) \
        == {"m._k(b)"}
    assert disguised_constants(modules("_k(x)")) == {"m._k(b)"}
    assert disguised_constants(modules("_k(x, 2)", "_k(x, 3)")) == set()
    assert disguised_constants(modules("_k(x, 2)", "_k(x)")) == set()
    assert disguised_constants(modules("_k(x, x)", "_k(x, x)")) == set()
    assert disguised_constants(modules("_k(*x)")) == set()
