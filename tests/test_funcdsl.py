import numpy as np
import pytest

from robustkkt.funcdsl import (
    MAX_NESTING,
    DomainError,
    ParseError,
    ScenarioMismatchError,
    const,
    eval_expr,
    eval_on_grid,
    format_expr,
    parse_expr,
    recip,
)

from genexpr import random_point, random_supported_expr
from helpers import active_kinks, gradient


class TestParse:
    def test_formula_with_abs(self):
        e = parse_expr("5*abs(x1) - (2/5)*x2 + 4/5", 2)
        assert sum(1 for s in _walk(e) if s.kind == "abs") == 1

    def test_constant(self):
        e = parse_expr("0", 3)
        assert e.kind == "const" and e.value == 0

    def test_max_abs_uncertainty_nodes(self):
        e = parse_expr("max(x1, 2*x1) + v^2*abs(x2) - 3*abs(v)", 2)
        kinds = {s.kind for s in _walk(e)}
        assert {"max", "abs", "uvar"} <= kinds

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x1 + ^2", 2)
        assert "position" in str(exc.value)

    @pytest.mark.parametrize("opener", ["abs(", "(", "max(1, ", "-"])
    def test_nesting_bound(self, opener):
        closer = "" if opener == "-" else ")"
        deep = MAX_NESTING - 1
        parse_expr(opener * deep + "x1" + closer * deep, 1)
        for depth in (MAX_NESTING, 250, 5000):
            with pytest.raises(ParseError, match="nested deeper"):
                parse_expr(opener * depth + "x1" + closer * depth, 1)

    def test_coordinate_out_of_range(self):
        with pytest.raises(ParseError):
            parse_expr("x3 + 1", 2)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_expr("sin(x1)", 2)

    def test_exponent_must_be_positive_integer(self):
        with pytest.raises(ParseError):
            parse_expr("x1^0", 2)
        with pytest.raises(ParseError):
            parse_expr("x1^(2)", 2)

    @pytest.mark.parametrize("text, pos", [
        ("1/0", 1), ("x1/(2-2)", 2), ("1 + 2/0", 5), ("x1*(1/0)", 5),
        ("x1^0", 3), ("x1^a", 3), ("x3", 0), ("max(x1)", 0), ("abs(x1", 6),
        ("x1 x2", 3), ("x1 # 2", 2),
        ("(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1),
         MAX_NESTING),
        ("-" * (MAX_NESTING + 1) + "x1", MAX_NESTING),
    ])
    def test_error_position(self, text, pos):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, 2)
        assert exc.value.pos == pos

    def test_library_division_by_zero_at_position_zero(self):
        with pytest.raises(ParseError) as exc:
            recip(const(0))
        assert exc.value.pos == 0

    def test_rational_and_decimal_literals(self):
        assert eval_expr(parse_expr("2/5 + 0.25", 1), [0.0]) == pytest.approx(0.65)


class TestEval:
    def test_example_values(self, spec32, spec22):
        g2 = spec32.constraint("g2").expr
        assert eval_expr(g2, [0, 0], 1.0) == pytest.approx(-1.0, abs=1e-12)
        f1 = spec22.objective("f1")
        assert eval_expr(f1, [0, 0]) == pytest.approx(4 / 5, abs=1e-12)
        assert eval_expr(f1, [1, 5]) == pytest.approx(3.8, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_expr(parse_expr("1/x1", 1), [0.0])
        with pytest.raises(DomainError):
            eval_expr(parse_expr("sqrt(x1)", 1), [-1.0])

    def test_scenario_mismatch(self):
        e = parse_expr("v*x1", 1)
        with pytest.raises(ScenarioMismatchError):
            eval_expr(e, [1.0])
        with pytest.raises(ScenarioMismatchError):
            eval_expr(parse_expr("x1", 1), [1.0], 0.5)

    def test_deterministic_bits(self):
        e = parse_expr("1/sqrt(abs(x1) + 1) - abs(x2 - 1) - 1", 2)
        vals = {eval_expr(e, [0.3, -0.7]) for _ in range(50)}
        assert len(vals) == 1

    def test_grid_matches_scalar(self):
        rng = np.random.default_rng(5)
        e = parse_expr("max(x1, 2*x1) + v^2*abs(x2) - 3*abs(v)", 2)
        X = rng.uniform(-2, 2, size=(2, 64))
        grid = eval_on_grid(e, X, 0.3)
        for t in range(64):
            assert grid[t] == pytest.approx(eval_expr(e, X[:, t], 0.3),
                                            abs=1e-14)

    def test_grid_nan_on_domain_violation(self):
        e = parse_expr("sqrt(x1)", 1)
        out = eval_on_grid(e, np.array([[-1.0, 4.0]]))
        assert np.isnan(out[0]) and out[1] == 2.0


class TestGradient:
    def test_smooth_branches(self, spec32):
        g = gradient(spec32.objective("f1"), [1, 2])
        assert np.allclose(g, [-2.0, 1.0])

    def test_constant_zero(self):
        assert np.allclose(gradient(parse_expr("7/2", 3), [1, 2, 3]),
                           np.zeros(3))

    def test_finite_difference_agreement(self):
        # >= 1000 randomized (expression, point) pairs; central differences
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            dim = int(rng.integers(1, 4))
            e = random_supported_expr(rng, dim)
            x = random_point(rng, dim)
            if active_kinks(e, x, tol=1e-4):
                continue
            try:
                g = gradient(e, x)
            except DomainError:
                continue
            h = 1e-6
            for k in range(dim):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                try:
                    fd = (eval_expr(e, xp) - eval_expr(e, xm)) / (2 * h)
                except DomainError:
                    break
                assert abs(fd - g[k]) <= 1e-5 * max(1.0, abs(g[k])), \
                    f"{format_expr(e)} at {x}"
            else:
                checked += 1
        assert checked >= 1000


class TestKinks:
    def test_abs_kink_at_origin(self, spec22):
        ks = active_kinks(spec22.objective("f1"), [0, 0], tol=1e-9)
        assert [k.text for k in ks] == ["abs(x1)"]

    def test_all_three_atoms(self, spec32):
        ks = active_kinks(spec32.constraint("g1").expr, [0, 0], 0.0, tol=1e-9)
        texts = {k.text for k in ks}
        assert texts == {"abs(x2)", "max(x1, 2*x1)", "abs(v)"}

    def test_smooth_polynomial_empty(self):
        e = parse_expr("x1^2 + 3*x2 - 1/2", 2)
        assert active_kinks(e, [0.3, -1.0], tol=1e-9) == []


class TestRoundTrip:
    CASES = [
        "5*abs(x1) - (2/5)*x2 + 4/5",
        "max(x1, 2*x1) + v^2*abs(x2) - 3*abs(v)",
        "1/sqrt(abs(x1) + 1) - abs(x2 - 1) - 1",
        "-(4/5)*x1^2 + 5*abs(x1) - (4/5)*x2^2 - (2/5)*x2 + 4/5",
        "(1/8)*x1^2 + abs(v)*x2 - abs(v) + 1/4",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_print_parse_idempotent(self, text):
        once = format_expr(parse_expr(text, 2))
        twice = format_expr(parse_expr(once, 2))
        assert once == twice

    def test_random_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            e = random_supported_expr(rng, dim)
            once = format_expr(e)
            again = parse_expr(once, dim)
            assert format_expr(again) == once
            x = random_point(rng, dim)
            try:
                a, b = eval_expr(e, x), eval_expr(again, x)
            except DomainError:
                continue
            assert a == pytest.approx(b, abs=1e-12)


def _walk(e):
    yield e
    for c in e.children:
        yield from _walk(c)
