"""Differential tests of the scalarization: ``subdiff.direct_subdiff``, one
``Scalarization`` call that walks each objective once, and
``Scalarization.groups``, the sets of a whole array of y* by structure
group, against the tree add(mul(const(y_1), f_1), ...) that neither builds
(``sweep_oracle.direct_subdiff``).

Sets must be bit-equal, vertices compared as int64 views so that -0.0 and
NaN count, with equal rules, exactness and mode; where the oracle raises,
the scalarization raises the same exception class with the same message.
The cases reach every way mul and add canonicalize the tree: zero weights,
product objectives whose constant folds with the weight, a weight times
constant of exactly 1 in front of a sum (flattened into the outer sum),
constant objectives, shared atoms, and faults under zero and nonzero
coefficients.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweep_oracle
import test_walker
from genexpr import random_convex_expr, random_point, random_supported_expr
from robustkkt.certify import ystar_grid
from robustkkt.funcdsl import DomainError, Expr, UnsupportedStructureError, \
    add, const, mul, parse_expr
from robustkkt.subdiff import Scalarization, direct_subdiff
from test_walker import _TREES, _bits

FIXTURES = ["example_2_2", "example_2_3", "example_3_2", "example_3_5"]
MODES = ("limiting", "hull")
# zero, unit and dyadic weights, and decimals no float holds exactly
WEIGHTS = [0.0, -0.0, 1.0, -1.0, 1 / 3, 0.5, 0.1, -0.3, 0.7, 2.5]


def _outcome(fn):
    try:
        res = fn()
    except Exception as exc:  # the class and message are what must match
        return "raised", type(exc), str(exc)
    return ("value", res.mode, res.exactness, res.rules,
            [(c.vertices.shape, _bits(c.vertices))
             for c in res.set.components])


def assert_same(ystar, fs, x, mode="limiting", kink_tol=1e-9, scal=None):
    """The scalarization (scal, or one built for this call) and the oracle
    agree; returns the oracle's outcome."""
    with np.errstate(all="ignore"):  # 1/u^2 may overflow, in both
        want = _outcome(lambda: sweep_oracle.direct_subdiff(
            ystar, fs, x, mode, kink_tol))
        got = _outcome(lambda: (scal or Scalarization(fs, x, mode, kink_tol))(
            ystar))
    assert got == want, ([str(f) for f in fs], list(ystar), list(x), mode)
    return want


def _parse(texts, dim=2):
    return [parse_expr(t, dim) for t in texts]


@pytest.mark.parametrize("name", FIXTURES)
def test_bundled_problems_over_the_ystar_grid(name):
    from robustkkt.cli import load_problem

    spec = load_problem(name)
    ys = ystar_grid(spec, 12)
    rng = np.random.default_rng(FIXTURES.index(name))
    # the kinks of abs(x1) and abs(x2 - 1), and generic points
    points = [np.zeros(2), np.array([0.0, 1.0]), np.array([0.5, -0.25]),
              rng.uniform(-2, 2, 2)]
    seen = set()
    for x in points:
        for mode in MODES:
            scal = Scalarization(spec.objectives, x, mode, spec.kink_tol)
            for y in ys:
                seen.add(assert_same(y, spec.objectives, x, mode,
                                     spec.kink_tol, scal)[0])
            for y in np.eye(3):  # unit weights: terms dropped or flattened
                assert_same(y, spec.objectives, x, mode, spec.kink_tol, scal)
    assert seen == {"value"}


def test_one_scalarization_serves_every_ystar(spec22):
    """Calls share no state: each call equals a fresh oracle call, also
    after calls that merged the same atoms with other coefficients."""
    x = np.zeros(2)
    scal = Scalarization(spec22.objectives, x)
    ys = list(ystar_grid(spec22, 24)) + [np.array([1.0, 0, 0]),
                                         np.array([0, -1.0, 1.0])]
    for y in ys + ys[::-1]:
        assert_same(y, spec22.objectives, x, scal=scal)


def _weights(rng, p):
    return [WEIGHTS[i] for i in rng.integers(0, len(WEIGHTS), p)]


def test_generated_objectives():
    rng = np.random.default_rng(41)
    for trial in range(60):
        dim = int(rng.integers(1, 4))
        x = np.round(random_point(rng, dim), 2)
        through = x if trial % 3 else None
        fs = [random_convex_expr(rng, dim) if rng.random() < 0.3 else
              random_supported_expr(rng, dim, through=through)
              for _ in range(int(rng.integers(1, 4)))]
        # the same objective twice: its atoms merge across terms
        if trial % 5 == 0:
            fs.append(fs[0])
        for mode in MODES:
            scal = Scalarization(fs, x, mode)
            for _ in range(4):
                assert_same(_weights(rng, len(fs)), fs, x, mode, scal=scal)


@pytest.mark.parametrize("texts, x, weights", [
    # product objectives: the constant folds with the weight
    (["(2/5)*abs(x1)", "x2"], [0.0, 1.0], [0.1, 1.0]),
    (["(2/5)*abs(x1)", "x2"], [0.0, 1.0], [2.5, 1 / 3]),
    (["(2/5)*abs(x1)*x2", "(1/3)*max(x1, x2)"], [0.0, 0.0], [0.3, -0.7]),
    (["3*x1*x2*abs(x1 - 1)"], [1.0, 2.0], [1 / 3]),
    (["(1/10)*x1^2*x2"], [0.3, 0.7], [10.0]),
    # weight times constant 1 in front of a lone sum: flattened
    (["2*(abs(x1) - x2 + 1/3)", "abs(x1)"], [0.0, 0.5], [0.5, 1.0]),
    (["4*(x1^2 + abs(x2) - 1)", "x1 - 1"], [0.5, 0.0], [0.25, -1.0]),
    (["abs(x1) + x2 + 1", "x1 - 1"], [0.0, 0.0], [1.0, 1.0]),
    (["abs(x1) + x2 + 1", "-1"], [0.0, 0.0], [1.0, 1.0]),
    (["abs(x1) + x2 + 1", "-1"], [0.0, 0.0], [1.0, 0.5]),
    # ... and the constants cancel, leaving one term, whose -0.0 survives
    (["abs(x1 - 2) + 1", "-1"], [0.0, 0.0], [1.0, 1.0]),
    (["2*(abs(x1 - 2) + 1)", "-1"], [0.0, 0.0], [0.5, 1.0]),
    # weight times constant 1 in front of a product of two factors
    (["2*x1*abs(x2)"], [3.0, 0.0], [0.5]),
    (["2*abs(x1)*abs(x2)", "x1"], [1.0, 0.0], [0.5, 1.0]),
    (["2*abs(x1)*abs(x2)", "x1"], [1.0, 0.0], [0.25, 1.0]),
    # constant objectives, alone and beside others
    (["7/3", "abs(x1)"], [0.0, 0.0], [0.1, 0.2]),
    (["7/3", "5"], [0.0, 0.0], [0.1, 0.2]),
    (["7/3"], [0.0, 0.0], [0.0]),
    (["x1"], [0.0, 0.0], [0.0]),
    # one term left: no outer sum, so -0.0 survives in the gradient
    (["abs(x1) - x2"], [-1.0, 0.0], [1.0]),
    (["-x1"], [1.0, 2.0], [1.0]),
    (["abs(x1)", "abs(x1)"], [0.0, 0.0], [1.0, -1.0]),
    (["abs(x1)", "-abs(x1)"], [0.0, 0.0], [1.0, 1.0]),
    # shared atoms, one of them in a product context
    (["abs(x1)*x2", "abs(x1)"], [0.0, 0.5], [0.7, 0.1]),
    (["abs(x1)", "abs(x1)*x2"], [0.0, 0.5], [0.7, 0.1]),
    (["max(x1, x2)*(x1 + 2)", "max(x1, x2)"], [1.0, 1.0], [0.3, 1.0]),
])
def test_canonical_forms(texts, x, weights):
    fs = _parse(texts)
    for mode in MODES:
        assert assert_same(weights, fs, x, mode)[0] == "value"
        assert_same([-w for w in weights], fs, x, mode)


@pytest.mark.parametrize("texts, x, weights, error", [
    # an atom fault counts only under a nonzero coefficient
    (["abs(sqrt(x1))", "abs(sqrt(x1))"], [0.0], [1.0, -1.0], None),
    (["abs(sqrt(x1))", "abs(sqrt(x1))"], [0.0], [1.0, 1.0], DomainError),
    (["abs(sqrt(x1))", "x1"], [0.0], [0.0, 1.0], None),
    # a walk fault, and the same objective under a zero weight
    (["sqrt(x1)", "x1"], [0.0], [0.5, 1.0], DomainError),
    (["sqrt(x1)", "x1"], [0.0], [0.0, 1.0], None),
    (["x1", "1/x1"], [0.0], [1.0, 0.1], DomainError),
    # a structure refusal outranks an earlier term's domain fault
    (["sqrt(x1 - x1)", "abs(x1)*abs(x2)"], [0.0, 0.0], [1.0, 1.0],
     UnsupportedStructureError),
    (["abs(abs(x1) - x2)", "sqrt(x1)"], [0.0, 0.0], [0.0, 1.0], DomainError),
    (["abs(abs(x1) - x2)", "sqrt(x1)"], [0.0, 0.0], [1.0, 1.0],
     UnsupportedStructureError),
    (["2*abs(x1)*abs(x2)"], [0.0, 0.0], [0.5], UnsupportedStructureError),
    (["2*abs(x1)*abs(x2)"], [0.0, 0.0], [0.1], UnsupportedStructureError),
    # a power that overflows
    (["x1^400 + x2"], [1e10, 0.0], [0.1], DomainError),
    # a folded constant too large for a float
    (["(10^300)*x1"], [1.0, 0.0], [1e10], DomainError),
    (["10^300", "10^300"], [1.0, 0.0], [1e10, 1e-10], DomainError),
    (["(10^300)*x1", "x2"], [1.0, 0.0], [1e-300, 1.0], None),
])
def test_faults_and_refusals(texts, x, weights, error):
    fs = _parse(texts, len(x))
    for mode in MODES:
        outcome = assert_same(weights, fs, x, mode)
        if error is not None:
            assert outcome[:2] == ("raised", error)


def test_refused_arguments():
    fs = _parse(["abs(x1)", "x2"])
    x = np.zeros(2)
    for ystar in ([1.0], [1.0, 2.0, 3.0], [np.inf, 1.0], [1.0, np.nan]):
        assert assert_same(ystar, fs, x)[0] == "raised"
    assert assert_same([1.0], fs, x)[1] is ValueError
    # an unknown mode is refused after the tree's own constants
    assert assert_same([1.0, 1.0], fs, x, "bogus")[1] is ValueError
    big = _parse(["(10^300)*x1", "x2"])
    assert assert_same([1e10, 1.0], big, x, "bogus")[1] is DomainError
    # an objective with v, kept or dropped
    v = [parse_expr("v*x1", 2), parse_expr("x2", 2)]
    assert assert_same([1.0, 1.0], v, x)[0] == "raised"
    assert assert_same([0.0, 1.0], v, x)[0] == "value"
    assert assert_same([], [], x)[0] == "value"


_WEIGHT = st.one_of(st.sampled_from(WEIGHTS),
                    st.fractions(-3, 3, max_denominator=7).map(float),
                    st.floats(-3, 3, allow_subnormal=False))
_CONSTANT = st.fractions(-3, 3, max_denominator=9).map(
    lambda q: Expr("const", value=Fraction(q)))
# mostly few values, so that kinks, ties and zero denominators are common
_AT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
                st.floats(-3, 3, allow_subnormal=False))


def _objective(tree, constant, shape):
    """tree as is, or as a product with a constant (mul's form or one mul
    never builds), or as a sum with a constant term."""
    if shape == 1:
        return Expr("prod", children=(constant, tree))
    if shape == 2:
        return Expr("prod", children=(tree, constant, tree))
    if shape == 3:
        return Expr("sum", children=(tree, constant))
    return tree


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_TREES, _CONSTANT, st.integers(0, 4), _WEIGHT),
                min_size=1, max_size=3),
       st.lists(_AT, min_size=2, max_size=2), st.sampled_from(MODES))
def test_hypothesis_objectives(terms, x, mode):
    fs = [_objective(t, c, shape) for t, c, shape, _ in terms]
    assert_same([w for *_, w in terms], fs, x, mode)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TREES, _WEIGHT), min_size=1, max_size=3),
       st.lists(_AT, min_size=2, max_size=2))
def test_hypothesis_unit_terms(terms, x):
    """Weights that make a product objective's constant exactly 1."""
    fs, ys = [], []
    for tree, w in terms:
        if w == 0:
            fs.append(tree)
            ys.append(1.0)
            continue
        q = Fraction(w)
        fs.append(Expr("prod", children=(Expr("const", value=1 / q), tree)))
        ys.append(w)
    assert_same(ys, fs, x)


def test_direct_subdiff_is_one_call():
    fs = _parse(["abs(x1) + x2", "max(x1, x2)"])
    x = np.zeros(2)
    got = direct_subdiff([0.3, 0.7], fs, x, "hull")
    want = Scalarization(fs, x, "hull")([0.3, 0.7])
    assert _outcome(lambda: got) == _outcome(lambda: want)


def assert_same_groups(fs, x, Y, mode="limiting", kink_tol=1e-9):
    """Scalarization.groups over the rows of Y against the oracle, row by
    row: each row in one group, its components bit-equal to the oracle's
    set, or the oracle's exception.  Returns the groups."""
    Y = np.asarray(Y, dtype=float)
    with np.errstate(all="ignore"):
        groups = Scalarization(fs, x, mode, kink_tol).groups(Y)
    seen = np.zeros(Y.shape[0], dtype=int)
    for rows, comps in groups:
        for i, r in enumerate(rows.tolist()):
            seen[r] += 1
            with np.errstate(all="ignore"):
                want = _outcome(lambda: sweep_oracle.direct_subdiff(
                    Y[r], fs, x, mode, kink_tol))
            if isinstance(comps, Exception):
                assert want[:3] == ("raised", type(comps), str(comps)), r
                continue
            assert want[0] == "value", (r, want)
            got = [V[i] for V in comps]
            assert [(V.shape, _bits(V)) for V in got] == want[4], (r, Y[r])
    assert seen.tolist() == [1] * Y.shape[0]
    return groups


@pytest.mark.parametrize("name", FIXTURES)
def test_groups_over_the_bundled_ystar_grid(name):
    """The sweep's y* grid at resolution 24 (and the unit weights), at the
    kinks and at generic points, in both modes."""
    from robustkkt.cli import load_problem

    spec = load_problem(name)
    Y = np.vstack([ystar_grid(spec, 24), np.eye(3), -np.eye(3)])
    for x, mode in (([0.0, 0.0], "limiting"), ([0.0, 0.0], "hull"),
                    ([0.0, 1.0], "limiting")):
        assert_same_groups(spec.objectives, np.array(x), Y, mode,
                           spec.kink_tol)


def test_groups_cover_every_structure():
    """Shared kinks whose coefficients take every sign, a max tie, zero
    weights of both signs, weights that make a constant 1, and rows whose
    sets' shapes depend on their values: two positive kinks make a
    parallelogram, reduced by Polytope and batched with the rows of its
    shape.  A group is vertex arrays of one shape, never anything else."""
    fs = _parse(["abs(x1) + max(x1, 2*x2)", "abs(x2) - abs(x1)",
                 "2*(abs(x1 - x2) + 1)", "(1/2)*abs(x2)"])
    grid = [0.0, -0.0, 0.5, 1.0, -0.3]
    Y = np.array(np.meshgrid(*[grid] * 4, indexing="ij")).reshape(4, -1).T
    for mode in MODES:
        groups = assert_same_groups(fs, np.zeros(2), Y, mode)
        sizes = []
        for rows, comps in groups:
            if isinstance(comps, Exception):
                continue
            assert type(comps) is list and all(
                type(V) is np.ndarray and V.shape[0] == rows.size
                and V.shape[2] == 2 for V in comps)
            sizes.append((rows.size, [V.shape[1] for V in comps]))
        # batched segments and point pairs, and batched parallelograms
        assert any(n > 1 and 2 in k for n, k in sizes)
        assert any(n > 1 and len(k) > 1 and set(k) == {1}
                   for n, k in sizes) == (mode == "limiting")
        assert any(n > 1 and max(k) >= 3 for n, k in sizes)


def test_groups_of_generated_objectives():
    rng = np.random.default_rng(43)
    for trial in range(30):
        dim = int(rng.integers(1, 4))
        x = np.round(random_point(rng, dim), 2)
        through = x if trial % 3 else None
        fs = [random_convex_expr(rng, dim) if rng.random() < 0.3 else
              random_supported_expr(rng, dim, through=through)
              for _ in range(int(rng.integers(1, 4)))]
        if trial % 5 == 0:
            fs.append(fs[0])
        Y = [_weights(rng, len(fs)) for _ in range(6)]
        # a hull in three dimensions is one exact LP per point
        for mode in MODES[:1] if dim == 3 else MODES:
            assert_same_groups(fs, x, Y, mode)


@pytest.mark.parametrize("texts, x, error", [
    # a fault under a nonzero coefficient only; a walk fault; a refused
    # product; a constant too large for a float, for some rows only
    (["abs(sqrt(x1))", "abs(sqrt(x1))"], [0.0], DomainError),
    (["sqrt(x1)", "x1"], [0.0], DomainError),
    (["2*abs(x1)*abs(x2)", "x1"], [0.0, 0.0], UnsupportedStructureError),
    (["(10^300)*x1", "x1"], [1.0, 0.0], DomainError),
])
def test_groups_with_refused_rows(texts, x, error):
    fs = _parse(texts, len(x))
    Y = [[a, b] for a in (0.0, 1.0, -1.0, 1e10) for b in (0.0, 1.0, -0.5)]
    for mode in MODES:
        groups = assert_same_groups(fs, x, Y, mode)
        raised = [c for _, c in groups if isinstance(c, Exception)]
        assert raised and all(isinstance(c, error) for c in raised)
        assert len(raised) < len(groups)


@pytest.mark.parametrize("texts, x", [
    # a max branch not selected faults, raises or refuses at the point
    (["max(x1 + 1, sqrt(x1))", "abs(x1)"], [0.0, 0.0]),
    (["max(x2 + 5, abs(x1)*abs(x2))", "x1"], [0.0, 0.0]),
    (["max(abs(abs(x1) - x2), x2 + 5)", "abs(x2)"], [0.0, 0.0]),
    (["2*max(x2 + 1, 1/x1)*x2", "max(x1 + 1, x1^400)"], [0.0, 0.0]),
    (["max(x1 + 1, x1^400)", "abs(x2)"], [1e10, 0.0]),
    # a fault inside a kink whose coefficient comes to zero
    (["abs(sqrt(x1)) + x2", "abs(sqrt(x1))"], [0.0, 0.0]),
])
def test_groups_where_branches_not_selected_fail(texts, x):
    """Scalarization.groups against the oracle row by row, and the
    oracle's tree against the recursive walk, on objectives with max
    branches that would fault, raise or refuse, where the walk does not
    select them and so never walks them."""
    fs = _parse(texts, len(x))
    grid = (0.0, 1.0, -1.0, 0.5)
    Y = [[a, b] for a in grid for b in grid]
    for mode in MODES:
        assert_same_groups(fs, x, Y, mode)
    for y in Y:
        test_walker.assert_same(add(*(mul(const(Fraction(w)), f)
                                      for w, f in zip(y, fs))), x)
