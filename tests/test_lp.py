from fractions import Fraction

import lp_oracle
import numpy as np
import pytest
from genexpr import random_point, random_supported_expr
from test_golden import COMMANDS, report

from robustkkt import lp
from robustkkt.funcdsl import DomainError, UnsupportedStructureError
from robustkkt.lp import LPBuilder, LPError, simplex_standard
from robustkkt.setcalc import dual_ball, zero_in_sum
from robustkkt.subdiff import limiting_subdiff


def F(x):
    return Fraction(x)


class TestSimplexStandard:
    def test_basic_optimum(self):
        # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x1 + 3 x2 + t = 6
        A = [[F(1), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]]
        b = [F(4), F(6)]
        c = [F(-1), F(-2), F(0), F(0)]
        status, x, obj = simplex_standard(A, b, c)
        assert status == "optimal"
        assert obj == F(-5)  # x = (3, 1)
        assert x[0] == F(3) and x[1] == F(1)

    def test_infeasible(self):
        # x1 + x2 = -1 with x >= 0
        status, _, _ = simplex_standard([[F(1), F(1)]], [F(-1)], [F(0), F(0)])
        assert status == "infeasible"

    def test_unbounded(self):
        # min -x1 s.t. x1 - x2 = 0
        status, _, _ = simplex_standard([[F(1), F(-1)]], [F(0)],
                                        [F(-1), F(0)])
        assert status == "unbounded"

    def test_degenerate_terminates(self):
        A = [[F(1), F(1), F(1), F(0)], [F(1), F(1), F(0), F(1)]]
        b = [F(1), F(1)]
        c = [F(-1), F(-1), F(0), F(0)]
        status, x, obj = simplex_standard(A, b, c)
        assert status == "optimal" and obj == F(-1)

    def test_exact_rational_answer(self):
        # weights on [1, 2] hitting sqrt(2)-as-float exactly
        target = F(2 ** 0.5)
        A = [[F(1), F(2)], [F(1), F(1)]]
        b = [target, F(1)]
        status, x, _ = simplex_standard(A, b, [F(0), F(0)])
        assert status == "optimal"
        assert x[0] + 2 * x[1] == target


class TestLPBuilder:
    def test_free_variable_split(self):
        lp = LPBuilder()
        w = lp.add_var(free=True)
        lp.add_eq({w: 2.0}, -3.0)
        res = lp._solve_exact()
        assert res.feasible and res.values[w] == pytest.approx(-1.5)

    def test_inequalities_and_objective(self):
        lp = LPBuilder()
        x = lp.add_var()
        y = lp.add_var()
        lp.add_ub({x: 1.0, y: 1.0}, 4.0)
        lp.add_ub({x: 1.0, y: 3.0}, 6.0)
        lp.set_objective({x: -1.0, y: -2.0})
        for solve in (lp._solve_exact, lp._solve_float):
            res = solve()
            assert res.feasible
            assert res.objective == pytest.approx(-5.0, abs=1e-9)

    def test_infeasible_both_engines(self):
        lp = LPBuilder()
        x = lp.add_var()
        lp.add_eq({x: 1.0}, 1.0)
        lp.add_eq({x: 1.0}, 2.0)
        for solve in (lp._solve_exact, lp._solve_float):
            assert not solve().feasible

    def test_engines_agree_on_random_feasibility(self):
        """Nonnegative and free variables, equality and <= rows and an
        objective: both engines solve the one standard form, to the same
        status and optimum."""
        rng = np.random.default_rng(11)
        statuses = []
        for _ in range(60):
            lp = LPBuilder()
            ids = lp.add_vars(4)
            w = lp.add_var(free=True)
            lp.add_eq({i: 1.0 for i in ids}, 1.0)
            A = rng.uniform(-1, 1, size=(2, 5))
            rhs = rng.uniform(-0.3, 0.3, size=2)
            for r in range(2):
                lp.add_eq({k: A[r, k] for k in range(5)}, rhs[r])
            G = rng.uniform(-1, 1, size=(2, 5))
            for r in range(2):
                lp.add_ub({k: G[r, k] for k in range(5)}, rng.uniform(0, 0.2))
            lp.add_ub({w: 1.0}, 2.0)
            lp.add_ub({w: -1.0}, 2.0)
            lp.set_objective(dict(enumerate(rng.uniform(-1, 1, size=5))))
            r1 = lp._solve_exact()
            r2 = lp._solve_float()
            assert (r1.engine, r2.engine) == ("exact", "float")
            assert r1.status == r2.status
            if r1.feasible:
                assert r2.objective == pytest.approx(r1.objective, abs=1e-9)
            statuses.append(r1.status)
        assert set(statuses) == {"optimal", "infeasible"}

    @pytest.mark.parametrize("objective, status", [
        ({0: 1.0}, "optimal"), ({1: 1.0}, "unbounded")])
    def test_no_rows(self, objective, status):
        lp = LPBuilder()
        lp.add_var()
        lp.add_var(free=True)
        lp.set_objective(objective)
        for solve in (lp._solve_exact, lp._solve_float):
            res = solve()
            assert res.status == status
            if res.feasible:
                assert res.objective == 0 and res.values.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# Differential test: the fraction-free engine against the Fraction oracle
# ---------------------------------------------------------------------------

def oracle(A, b, c):
    """The oracle's result on the entries as Fractions, and its pivots as
    (row, column, pivot element)."""
    pivots = []
    pivot = lp_oracle._pivot

    def recording(rows, rhs, basis, r, col, m):
        pivots.append((r, col, rows[r][col]))
        return pivot(rows, rhs, basis, r, col, m)

    exact = ([[Fraction(a) for a in row] for row in A],
             [Fraction(a) for a in b], [Fraction(a) for a in c])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_oracle, "_pivot", recording)
        result = lp_oracle.simplex_standard(*exact)
    return result, pivots


@pytest.fixture
def engine(monkeypatch):
    """simplex_standard returning its result and its (row, column) pivots."""
    pivots = []
    pivot = lp._pivot

    def recording(inverse, rhs, basis, r, col, column, d):
        pivots.append((r, col))
        return pivot(inverse, rhs, basis, r, col, column, d)

    monkeypatch.setattr(lp, "_pivot", recording)

    def run(A, b, c):
        pivots.clear()
        return simplex_standard(A, b, c), list(pivots)

    return run


def assert_same(engine, A, b, c):
    """Same result after the same pivots; returns the status and the
    oracle's pivots."""
    got, got_pivots = engine(A, b, c)
    want, want_pivots = oracle(A, b, c)
    assert got == want
    assert got_pivots == [(r, col) for r, col, _ in want_pivots]
    return got[0], want_pivots


def captured_lps(action) -> list[tuple]:
    """The (A, b, c) of every exact LP that action() solves."""
    captured = []
    solve = lp.simplex_standard

    def capturing(A, b, c):
        captured.append((A, b, c))
        return solve(A, b, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "simplex_standard", capturing)
        action()
    return captured


LP_COMMANDS = ("kkt_search", "fuzzy", "duality_strong", "duality_weak",
               "duality_converse")


@pytest.fixture(scope="module")
def readme_lps():
    return {name: captured_lps(lambda: report(COMMANDS[name]))
            for name in LP_COMMANDS}


def subdiff_lps() -> list[tuple]:
    """zero_in_sum LPs over limiting subdifferentials of random trees whose
    kinks meet at one point, so the parts are polytopes, not points."""
    rng = np.random.default_rng(31)
    captured = []

    def one_sum():
        dim = int(rng.integers(2, 4))
        x = random_point(rng, dim)
        parts = []
        for _ in range(int(rng.integers(2, 4))):
            e = random_supported_expr(rng, dim, through=x)
            try:
                parts.append(limiting_subdiff(e, x).set)
            except (DomainError, UnsupportedStructureError):
                pass
        if parts:
            zero_in_sum(parts, np.zeros((0, dim)))

    while len(captured) < 40:
        captured += captured_lps(one_sum)
    return captured


ENTRIES = [Fraction(k) for k in (-2, -1, 0, 0, 0, 1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]


def random_degenerate_lp(rng):
    """Small entries, so ratio tests tie; mostly b = A x0 with x0 mostly
    zero (feasible, degenerate), else b at random; half the time one row
    a combination of two others, which can leave a zero artificial basic."""
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 13))

    def pick():
        return ENTRIES[int(rng.integers(len(ENTRIES)))]

    A = [[pick() for _ in range(n)] for _ in range(m)]
    b = [pick() for _ in range(m)]
    if m > 2 and rng.random() < 0.5:
        i, k, j = (int(t) for t in rng.choice(m, 3, replace=False))
        f, g = pick(), pick()
        A[i] = [f * p + g * q for p, q in zip(A[k], A[j])]
        b[i] = f * b[k] + g * b[j]
    if rng.random() < 0.7:
        x0 = [Fraction(int(t)) for t in rng.choice([0, 0, 0, 1, 2], n)]
        b = [sum((a * t for a, t in zip(row, x0)), Fraction(0)) for row in A]
    return A, b, [pick() for _ in range(n)]


def ball_lp(rng):
    """A zero-in-sum LP at the size of the certificate LPs and above: m in
    [8, 16] rows, n in [40, 100] columns, small rationals as the objective,
    nonnegative on the columns no group row bounds, so that phase 2 prices
    and pivots but stays bounded.  Rows 0 and 1 are
    the stationarity rows, with zero right-hand sides: the vertices of a
    scaled l2 dual ball (cos/sin floats, as _regular_polygon makes them)
    and then small rationals.  The other rows sum the weights of one group
    of columns to 1, the ball's first; the columns after the last group
    are free of them, as a normal cone's are."""
    m, n = int(rng.integers(8, 17)), int(rng.integers(40, 101))
    ball = dual_ball("l2", 2, 32).vertices * float(rng.uniform(0.1, 2))
    k = len(ball)
    A = [ball[:, r].tolist()
         + [ENTRIES[int(t)] for t in rng.integers(len(ENTRIES), size=n - k)]
         for r in (0, 1)]
    cuts = [0, k, *sorted(rng.choice(range(k + 1, n), m - 3,
                                     replace=False).tolist()), n]
    A += [[int(cuts[g] <= j < cuts[g + 1]) for j in range(n)]
          for g in range(m - 2)]
    c = [ENTRIES[int(t)] for t in rng.integers(len(ENTRIES), size=n)]
    return A, [0, 0] + [1] * (m - 2), [
        abs(a) if j >= cuts[-2] else a for j, a in enumerate(c)]


class TestAgainstOracle:
    @pytest.mark.parametrize("name", LP_COMMANDS)
    def test_readme_lps(self, name, readme_lps, engine):
        assert readme_lps[name]
        for A, b, c in readme_lps[name]:
            assert assert_same(engine, A, b, c)[1]

    def test_subdifferential_lps(self, engine):
        statuses = {assert_same(engine, A, b, c)[0]
                    for A, b, c in subdiff_lps()}
        assert statuses == {"optimal", "infeasible"}

    def test_random_degenerate_lps(self, engine):
        rng = np.random.default_rng(2026)
        statuses, negative = set(), 0
        for _ in range(400):
            A, b, c = random_degenerate_lp(rng)
            status, pivots = assert_same(engine, A, b, c)
            statuses.add(status)
            # only a drive-out of a leftover zero artificial pivots on a
            # negative element
            negative += any(element < 0 for _, _, element in pivots)
        assert statuses == {"optimal", "infeasible", "unbounded"}
        assert negative

    def test_ball_lps(self, engine):
        rng = np.random.default_rng(23)
        statuses = {assert_same(engine, *ball_lp(rng))[0] for _ in range(10)}
        assert statuses == {"optimal", "infeasible"}


class TestEngineEdges:
    def test_pivot_limit(self, monkeypatch):
        monkeypatch.setattr(lp, "_MAX_PIVOTS", 1)
        A = [[F(1), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]]
        with pytest.raises(LPError):
            simplex_standard(A, [F(4), F(6)], [F(-1), F(-2), F(0), F(0)])

    def test_extreme_coefficients(self, engine):
        tiny, huge = 1e-300, 1e300
        A = [[tiny, huge, 1.0, 0.0], [1.0, tiny, 0.0, -huge]]
        b = [huge, tiny]
        c = [-1.0, tiny, 0.0, huge]
        (status, x, obj), _ = engine(A, b, c)
        assert status == "optimal"
        assert (status, x, obj) == oracle(A, b, c)[0]
        builder = LPBuilder()
        ids = builder.add_vars(4)
        for row, rhs in zip(A, b):
            builder.add_eq(dict(zip(ids, row)), rhs)
        builder.set_objective(dict(zip(ids, c)))
        res = builder._solve_exact()
        assert res.values.tolist() == [float(v) for v in x]
        assert res.objective == float(obj)

    @pytest.mark.parametrize("bad, error", [(float("inf"), OverflowError),
                                            (float("nan"), ValueError)],
                             ids=["inf", "nan"])
    def test_non_finite_coefficient(self, bad, error):
        builder = LPBuilder()
        x = builder.add_var()
        builder.add_eq({x: bad}, 1.0)
        with pytest.raises(error):
            builder._solve_exact()


class TestNoFractionPivots:
    """The exact simplex pivots in integers: a README certificate command
    builds a few hundred Fractions (the problem's constants, the results),
    where Fraction pivots built over 23,000."""

    def test_kkt_search(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12
            coprime = Fraction._from_coprime_ints

            def counting_coprime(cls, numerator, denominator):
                made.append(1)
                return coprime(numerator, denominator)

            monkeypatch.setattr(Fraction, "_from_coprime_ints",
                                classmethod(counting_coprime))
        assert report(COMMANDS["kkt_search"])[0] == 0
        assert 0 < len(made) < 1000
