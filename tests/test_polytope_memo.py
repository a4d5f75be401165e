"""The polytopes built once per process: the dual-norm balls, one per
(norm, dimension, facets), and each fixture set, one per fixture text.

They are shared, so these tests pin that they are read-only, and that
the fixture memo keeps the refusals of ``load_problem`` as they were: a
refused text names its line on every load and is never cached.
"""

from __future__ import annotations

import pytest

from robustkkt import cli
from robustkkt.cli import LoadError, load_problem, resolve_problem_path
from robustkkt.setcalc import DUAL_NORM, SetCalcError, dual_ball

NORMS = [("l2", 2, 64), ("l2", 2, 400), ("l2", 1, 64), ("l2", 3, 64),
         ("l1", 3, 64), ("linf", 2, 64)]


@pytest.mark.parametrize("norm, d, m", NORMS)
def test_dual_ball_is_built_once_and_read_only(norm, d, m):
    ball = dual_ball(norm, d, m)
    assert dual_ball(norm, d, m) is ball
    assert not ball.vertices.flags.writeable
    with pytest.raises(ValueError):
        ball.vertices[0, 0] = 2.0
    fresh = dual_ball.__wrapped__(norm, d, m)
    assert fresh is not ball
    assert fresh.vertices.tobytes() == ball.vertices.tobytes()


def test_primal_ball_shares_the_dual_ball():
    assert dual_ball(DUAL_NORM["l2"], 2, 64) is dual_ball("l2", 2, 64)
    # the l1 ball is exact, whatever the facet count
    assert dual_ball(DUAL_NORM["l1"], 2, 64).vertices.tobytes() == \
        dual_ball(DUAL_NORM["l1"], 2, 8).vertices.tobytes()


def test_bad_ball_is_refused_every_time():
    for _ in range(2):
        with pytest.raises(SetCalcError, match="at least 8 facets"):
            dual_ball("l2", 2, 4)


def test_dual_ball_memo_is_bounded():
    maxsize = dual_ball.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


def test_loads_share_each_fixture_set():
    a, b = load_problem("example_3_2"), load_problem("example_3_2")
    assert len(a.fixtures) == len(b.fixtures) > 0
    for fa, fb in zip(a.fixtures, b.fixtures, strict=True):
        assert fa.pset is fb.pset
        assert isinstance(fa.pset.components, tuple)
        for comp in fa.pset.components:
            with pytest.raises(ValueError):
                comp.vertices[0, 0] = 7.0


def _with_fixture(tmp_path, name: str, fixture: str, blank: int = 0):
    """example_3_2 with its fixtures replaced by one, after blank empty
    lines; the path and the fixture's line."""
    lines = [t for t in resolve_problem_path("example_3_2").read_text()
             .splitlines() if not t.startswith("fixture")]
    lines += [""] * blank + [f"fixture = {fixture}"]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path, len(lines)


def test_same_text_is_one_set_in_any_file(tmp_path):
    text = "f1 @ 0,0 : {(-2,-1), (-2,1)} | {(3,0)}"
    first, _ = _with_fixture(tmp_path, "a.problem", text)
    second, _ = _with_fixture(tmp_path, "b.problem", text, blank=3)
    assert load_problem(first).fixtures[0].pset is \
        load_problem(second).fixtures[0].pset


@pytest.mark.parametrize("sets, error", [
    ("(1,2)", "fixture component must be {(..), (..)}"),
    ("{}", "fixture component has no vertices"),
    ("{(1,2), (3)}", "fixture vertices differ in length"),
])
def test_refused_fixture_names_its_line_every_time(tmp_path, sets, error):
    info = cli._parse_polytope_set.cache_info()
    for blank in (0, 0, 2):
        path, line = _with_fixture(tmp_path, "p.problem", f"f1 @ 0,0 : {sets}",
                                   blank)
        with pytest.raises(LoadError) as caught:
            load_problem(path)
        assert str(caught.value) == f"{error} (line {line})"
    assert cli._parse_polytope_set.cache_info().currsize == info.currsize


def test_bad_literal_is_refused_without_a_line(tmp_path):
    """A bad number in a fixture is refused as before: parse_scalar names
    the literal, not the line."""
    path, _ = _with_fixture(tmp_path, "p.problem", "f1 @ 0,0 : {(1,zz)}")
    for _ in range(2):
        with pytest.raises(LoadError, match=r"^bad numeric literal 'zz'"):
            load_problem(path)


def test_fixture_memo_is_bounded():
    maxsize = cli._parse_polytope_set.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


def test_bad_point_is_refused_before_the_set(tmp_path):
    path, _ = _with_fixture(tmp_path, "p.problem", "f1 @ 0,zz : {}")
    with pytest.raises(LoadError, match=r"^bad numeric literal 'zz'"):
        load_problem(path)
