"""Differential tests of the certificate LPs against ``cert_oracle``.

``certify.search_kkt``, ``certify.fuzzy_kkt_demo`` and the plain
``setcalc.zero_in_sum`` all state their LP to ``zero_in_sum`` now, and the
membership and cone residuals share one LP builder; ``tests/cert_oracle.py``
keeps each as it assembled its own LP.  Verdicts, certificates, fuzzy
witnesses, zero-in-sum weights and residuals must agree bit for bit at
seeded random points of the bundled problems, a third of them on the kink
axis x1 = 0, and on seeded random instances.
"""

from __future__ import annotations

import cert_oracle
import numpy as np
import pytest
from genexpr import random_point, random_supported_expr

from robustkkt import certify, setcalc
from robustkkt.cli import load_problem
from robustkkt.funcdsl import DomainError, UnsupportedStructureError
from robustkkt.subdiff import limiting_subdiff

PROBLEMS = ("example_2_2", "example_2_3", "example_3_2", "example_3_5",
            "example_3_2_printedg2")


def plain(x):
    """x with every array as its dtype, shape and bytes and every float as
    its hex form, so == compares bits."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if hasattr(x, "_asdict"):  # a record, before the tuple it also is
        return plain(x._asdict())
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, float):
        return x.hex()
    return x


def outcome(f, *args, **kwargs):
    try:
        return plain(f(*args, **kwargs))
    except Exception as e:  # the same refusal on both sides is agreement
        return type(e).__name__, str(e)


def points(spec, rng, n):
    for k in range(n):
        x = np.round(rng.uniform(-1, 1, spec.dim), 3)
        if k % 3 == 0:
            x[0] = 0.0
        yield k, x


@pytest.mark.parametrize("name", PROBLEMS)
def test_search_kkt(name):
    spec = load_problem(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    found = 0
    for _, x in points(spec, rng, 12):
        for mode in ("limiting", "hull"):
            got = outcome(certify.search_kkt, spec, x, mode)
            assert got == outcome(cert_oracle.search_kkt, spec, x, mode), \
                (x, mode)
            found += isinstance(got, dict) and got["certificate"] is not None
    assert found


@pytest.mark.parametrize("name", PROBLEMS)
def test_fuzzy(name):
    spec = load_problem(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    sigma = np.asarray(spec.cone.pattern, dtype=float)
    found = 0
    for k, x in points(spec, rng, 10):
        ystar = sigma * rng.uniform(0, 1, spec.n_objectives)
        if k % 4 == 0:
            ystar[rng.integers(spec.n_objectives)] = 0.0
        eta = float(rng.choice([0.05, 0.1, 0.2]))
        got = outcome(certify.fuzzy_kkt_demo, spec, x, ystar, eta, grid_n=21)
        assert got == outcome(cert_oracle.fuzzy_kkt_demo, spec, x, ystar,
                              eta, grid_n=21), (x, ystar, eta)
        found += isinstance(got, dict) and got["witness"] is not None
    assert found


def test_fuzzy_keeps_its_branch_columns():
    """Without the branch-weight columns lam_f, lam_g and their rows, this
    LP stops at another vertex, and the witness's inclusion residual reads
    6.9e-18 where this one reads 2.2e-16."""
    spec = load_problem("example_3_2_printedg2")
    args = (spec, np.array([-0.618, 0.951]),
            np.array([0.10747723, 0.45208879, 0.3946598]), 0.1)
    got = certify.fuzzy_kkt_demo(*args, grid_n=21)
    assert got.witness.inclusion_residual == 2.2215299868541707e-16
    assert plain(got) == plain(cert_oracle.fuzzy_kkt_demo(*args, grid_n=21))


def test_zero_in_sum():
    """Limiting subdifferentials of random trees whose kinks meet at one
    point, half of them shifted, with up to two random cone generators."""
    rng = np.random.default_rng(24)
    sat = 0
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        x = random_point(rng, dim)
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            e = random_supported_expr(rng, dim, through=x)
            try:
                S = limiting_subdiff(e, x).set
            except (DomainError, UnsupportedStructureError):
                continue
            shift = rng.uniform(-1, 1, dim) * (rng.random() < 0.5)
            parts.append(setcalc.PolytopeSet(
                [setcalc.Polytope(c.vertices + shift) for c in S.components]))
        if not parts:
            continue
        cone = rng.normal(size=(int(rng.integers(0, 3)), dim))
        got = setcalc.zero_in_sum(parts, cone)
        want = cert_oracle.zero_in_sum(parts, cone)
        assert (got.sat, got.selection, plain(got.weights)) == (
            want.sat, want.selection, plain(want.weights))
        if got.sat:
            assert plain(got.witness_points(parts)) == plain(
                want.witness_points(parts))
        sat += got.sat
    assert 50 < sat < 250


def test_residuals():
    """The membership and cone residuals, now one LP builder, against the
    two LPs they were: random points, vertex sets and cones in dimensions
    1 to 4, entries from a small set with zeros, an empty cone among them,
    and a polytope with more vertices than the exact engine takes."""
    rng = np.random.default_rng(240)
    entries = np.array([-2.0, -1.0, -0.5, 0.0, 0.0, 0.25, 1.0, 1.5])
    for _ in range(200):
        d = int(rng.integers(1, 5))
        p = rng.choice(entries, d) + rng.uniform(-0.1, 0.1, d)
        V = rng.choice(entries, (int(rng.integers(1, 7)), d))
        assert setcalc._membership_residual(p, V) == \
            cert_oracle._membership_residual(p, V)
        cone = rng.choice(entries, (int(rng.integers(0, 4)), d))
        assert setcalc.point_in_cone_residual(p, cone) == \
            cert_oracle.point_in_cone_residual(p, cone)
    V = rng.uniform(-1, 1, (200, 3))
    p = np.array([2.0, 0.0, -2.0])
    assert setcalc._membership_residual(p, V) == \
        cert_oracle._membership_residual(p, V)
