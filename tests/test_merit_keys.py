"""Differential tests of the fuzzy merit keys against the full scan they
replace (``grid_oracle.psi_on_grid``).

``Psi.candidate_keys`` must keep every cell that can hold the least key
``np.round(psi, 12)`` and give each kept cell its exact key, so that
``fuzzy_kkt_demo`` picks the same x_eta, and gives the same report, as when
it lexsorted the keys of every cell.  Inputs: the bundled problems in both
modes, centres inside and outside the feasible set, eta from 0.01 to 2, y*
with a zero component, constraints without v, none at all, finite scenario
lists, factors and objectives undefined on part of the disc (open cells),
branches that are not separable or have two features, generated separable
trees, and hull bounds widened until every key, or every cell, is open.
"""

from __future__ import annotations

import numpy as np
import pytest

import grid_oracle
from genexpr import random_supported_expr
from robustkkt import certify, robustfeas
from robustkkt.certify import fuzzy_kkt_demo
from robustkkt.cli import load_problem
from robustkkt.funcdsl import ExprError, parse_expr
from robustkkt.robustfeas import (
    ProblemSpec,
    Psi,
    UncertainConstraint,
    compute_active_sets,
    feasible_active_sets,
)
from robustkkt.setcalc import ConeSpec, OmegaSpec
from test_grid_scan import FEATURES, NOT_SEPARABLE, OFFSETS, SEPARABLE

BUNDLED = ("example_2_2", "example_2_3", "example_3_2", "example_3_5")
# Sign pattern of each bundled problem's dual cone K+.
SIGNS = {"example_2_2": (-1, 1, 1), "example_2_3": (-1, 1, 1),
         "example_3_2": (1, 1, 1), "example_3_5": (-1, 1, 1)}
CENTRES = ((0.0, 0.0), (-0.7, -1.3), (1.5, 1.0), (0.25, -0.5))
ETAS = (0.01, 0.1, 0.5, 2.0)


class _Stop(BaseException):
    """Ends fuzzy_kkt_demo once x_eta is known."""


def _oracle_keys(self, X):
    return np.arange(X.shape[1]), np.round(grid_oracle.psi_on_grid(self, X),
                                           12)


def _plain(report):
    w = report.witness
    return repr((report.found, report.diagnostic, w and {
        k: np.asarray(v).tolist() for k, v in vars(w).items()}))


def run(spec, xbar, ystar, eta, mode="limiting", oracle=False, full=True,
        scanned=None):
    """(x_eta as bytes or None, the report or None) of fuzzy_kkt_demo.
    With oracle, every cell is keyed by the full scan; scanned collects
    the columns envelope_grid sees."""
    seen = []

    def recording(spec, x):
        seen.append(np.asarray(x, dtype=float).tobytes())
        if not full:
            raise _Stop
        return compute_active_sets(spec, x)

    def counting(spec, con, X):
        scanned.append(X.shape[1])
        return scan(spec, con, X)

    scan = robustfeas.envelope_grid
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(certify, "compute_active_sets", recording)
        if oracle:
            mp.setattr(Psi, "candidate_keys", _oracle_keys)
        if scanned is not None:
            mp.setattr(robustfeas, "envelope_grid", counting)
        try:
            report = _plain(fuzzy_kkt_demo(spec, xbar, ystar, eta,
                                           mode=mode))
        except _Stop:
            report = None
        except ExprError as exc:  # f(xbar) undefined, for one
            report = type(exc).__name__
    return (seen[0] if seen else None), report


def assert_same(spec, xbar, ystar, eta, mode="limiting", full=True):
    """The same x_eta (and report) as the oracle; returns the columns
    rescanned by the new path."""
    scanned = []
    want = run(spec, xbar, ystar, eta, mode, oracle=True, full=full)
    got = run(spec, xbar, ystar, eta, mode, full=full, scanned=scanned)
    assert got == want, (xbar, ystar, eta, mode)
    return sum(scanned)


def assert_same_keys(spec, ystar, xbar, X):
    """On any columns X: the kept cells hold every least oracle key, their
    keys are the oracle's, and the lexsort winner is the oracle's."""
    m = Psi(spec, ystar, xbar)
    with np.errstate(all="ignore"):
        want = np.round(grid_oracle.psi_on_grid(m, X), 12)
        cells, keys = m.candidate_keys(X)
    assert np.array_equal(keys, want[cells], equal_nan=True)
    order = np.lexsort((X[1], X[0], want))
    assert order[0] in cells
    assert np.isin(np.flatnonzero(want == want[order[0]]), cells).all()
    assert cells[np.lexsort((X[1][cells], X[0][cells], keys))[0]] == order[0]


def _keys_on_disc(spec, xbar, ystar, eta, grid_n=81):
    """candidate_keys on the disc fuzzy_kkt_demo searches."""
    axes = [np.linspace(xbar[k] - eta, xbar[k] + eta, grid_n)
            for k in range(spec.dim)]
    X = np.vstack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    X = X[:, spec.primal_norm_grid(X - xbar[:, None]) <= eta + 1e-12]
    return Psi(spec, ystar, xbar).candidate_keys(X)


def _ystar(problem, rng, zero=None):
    y = np.array(SIGNS[problem]) * np.round(rng.uniform(0.05, 1.0, 3), 4)
    if zero is not None:
        y[zero] = 0.0
    return y


class TestBundled:
    @pytest.mark.parametrize("mode", ["limiting", "hull"])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_same_report(self, name, mode):
        spec = load_problem(name)
        rng = np.random.default_rng(BUNDLED.index(name))
        feasible = set()
        for k, (centre, eta) in enumerate(zip(CENTRES, ETAS)):
            xbar = np.array(centre)
            feasible.add(feasible_active_sets(spec, xbar) is not None)
            y = _ystar(name, rng, zero=k % 3 if k % 2 else None)
            assert assert_same(spec, xbar, y, eta, mode) == 0
        assert feasible == {True, False}

    def test_readme_command(self, spec32, origin):
        y = np.array([0.3535, 0.0, 0.3535])
        assert assert_same(spec32, origin, y, 0.1) == 0
        cells, _ = _keys_on_disc(spec32, origin, y, 0.1)
        assert cells.size == 41

    @pytest.mark.parametrize("name", BUNDLED)
    def test_keys_on_random_cells(self, name):
        spec = load_problem(name)
        rng = np.random.default_rng(7 + BUNDLED.index(name))
        for _ in range(3):
            X = rng.uniform(-3, 3, size=(2, 400))
            X[:, :50] = np.round(X[:, :50], 1)
            assert_same_keys(spec, _ystar(name, rng), rng.uniform(-1, 1, 2),
                             X)


def _spec(constraints, objectives=("x1", "abs(x2)"), theta=(0.0, 0.5),
          vgrid=101):
    cons = []
    for i, (text, dom) in enumerate(constraints):
        e = parse_expr(text, 2)
        name = f"g{i + 1}"
        if dom is None:
            cons.append(UncertainConstraint(name, e))
        elif isinstance(dom, list):
            cons.append(UncertainConstraint(name, e, scenarios=tuple(dom)))
        else:
            cons.append(UncertainConstraint(name, e, *dom))
    return ProblemSpec(
        dim=2, objective_names=tuple(f"f{k + 1}" for k in range(
            len(objectives))),
        objectives=tuple(parse_expr(f, 2) for f in objectives),
        constraints=tuple(cons), cone=ConeSpec(pattern=(1,) * len(objectives)),
        omega=OmegaSpec.whole(2), theta=np.asarray(theta), vgrid=vgrid)


# (constraints, objectives) of the hand-made problems
SYNTHETIC = {
    "no constraints": ([], ("x1", "abs(x2)")),
    "without v": ([("x1 + x2 - 1", None), ("v*x1 - x2", (-1.0, 1.0))],
                  ("x1", "abs(x2)")),
    "undefined without v": ([("sqrt(x1) + 1", None), ("v*x2", (-1.0, 1.0))],
                            ("x1", "abs(x2)")),
    "finite list": ([("v*x1 + x2 - v^2", [-1.0, 0.5, 2.0, 2.0])],
                    ("x1", "abs(x2)")),
    "sqrt factor": ([("sqrt(x1)*v + 5", (-1.0, 1.0))], ("x1", "abs(x2)")),
    "sqrt factor and another": ([("sqrt(x1)*v + 5", (-1.0, 1.0)),
                                 ("v*x2 + 1", (0.0, 1.0))], ("x1", "abs(x2)")),
    "sqrt objective": ([("v*x1 + x2/4 - 1/2", (-1.0, 1.0))],
                       ("x1", "sqrt(x2)")),
    "not separable": ([("abs(x1 + v) - 1", (-1.0, 1.0)),
                       ("v*x2 - 1", (0.0, 1.0))], ("x1", "abs(x2)")),
    "two features": ([("v*x1 + v^2*x2 - 1/2", (-1.0, 1.0))],
                     ("x1", "abs(x2)")),
}


class TestSynthetic:
    @pytest.mark.parametrize("case", sorted(SYNTHETIC))
    def test_same_x_eta(self, case):
        cons, objectives = SYNTHETIC[case]
        spec = _spec(cons, objectives)
        rng = np.random.default_rng(sorted(SYNTHETIC).index(case))
        for centre in ((0.0, 0.0), (-1.0, 0.5), (1.0, -1.0), (2.0, 2.0)):
            for k, eta in enumerate(ETAS):
                y = np.round(rng.uniform(0.05, 1.0, 2), 3)
                if k % 2:
                    y[k // 2] = 0.0
                assert_same(spec, np.array(centre), y, eta, full=False)

    def test_open_cells_hold_the_minimum(self):
        """Where sqrt(x1) is undefined every scenario is NaN, so P is NaN
        and the cell is open; psi is the objective branch there, below the
        envelope 5 of the defined cells.  The winner is an open cell,
        keyed by its rescan."""
        spec = _spec([("sqrt(x1)*v + 5", (-1.0, 1.0))])
        y = np.array([0.5, 0.5])
        x_eta, _ = run(spec, np.zeros(2), y, 0.5, full=False)
        assert np.frombuffer(x_eta)[0] < 0
        assert assert_same(spec, np.zeros(2), y, 0.5, full=False) > 0

    def test_undefined_objective(self):
        """first is NaN where sqrt(x2) is: psi is the envelope there."""
        spec = _spec([("v*x1 + x2/4 - 1/2", (-1.0, 1.0))], ("x1", "sqrt(x2)"),
                     theta=(0.0, 0.0))
        X = np.random.default_rng(3).uniform(-1, 1, size=(2, 300))
        for y in ([1.0, 0.0], [0.2, 0.7]):
            assert_same_keys(spec, np.array(y), np.zeros(2), X)

    def test_generated_trees(self):
        """tests/genexpr.py trees in the separable and non-separable
        templates of test_grid_scan.py."""
        rng = np.random.default_rng(83)
        for k in range(12):
            e = random_supported_expr(rng, 2)
            text = str(rng.choice(SEPARABLE + NOT_SEPARABLE)).format(
                e=f"({e})", a=rng.choice(FEATURES), b=rng.choice(OFFSETS))
            spec = _spec([(text, (-1.0, 1.0))], vgrid=41)
            xbar = rng.uniform(-1, 1, 2)
            y = np.round(rng.uniform(0.0, 1.0, 2), 3)
            assert_same(spec, xbar, y, float(rng.choice(ETAS)), full=False)
            assert_same_keys(spec, y, xbar, rng.uniform(-2, 2, size=(2, 200)))


class TestWideBounds:
    @pytest.mark.parametrize("widen", [1e9, np.inf])
    def test_every_key_rescanned(self, widen, spec32, spec35, origin):
        """With delta scaled by 1e9 the bound settles a key only where the
        objective branch is above it; with an infinite delta every cell is
        open."""
        hull_bound = robustfeas._hull_bound

        def wide(spec, con, X):
            P, widest, band = hull_bound(spec, con, X)
            return P, widest * widen, lambda *cells: band(*cells) * widen

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(robustfeas, "_hull_bound", wide)
            for spec, y in ((spec32, [0.3535, 0.0, 0.3535]),
                            (spec35, [-0.2, 0.4, 0.1])):
                y = np.array(y)
                rescanned = 0
                for eta in (0.1, 2.0):
                    rescanned += assert_same(spec, origin, y, eta)
                    cells, _ = _keys_on_disc(spec, origin, y, eta)
                    assert widen < np.inf or cells.size == 5025
                assert rescanned > 0

