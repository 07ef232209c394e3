"""Simplex solver, coset-polytope constraint builders, LP decoding, audit."""

import itertools
import math

import numpy as np
import pytest

from hashprop.gf import FieldMatrix, coset
from hashprop.lp_md import (
    REL_EQ,
    REL_GE,
    REL_LE,
    LinearProgram,
    LpError,
    build_parity_constraints,
    build_type_constraints,
    md_via_lp,
    num_vars,
    patterns,
    polytope_vertex_audit,
    simplex_solve,
    var_s,
    var_u,
)
from hashprop.slepian_wolf import SwCode, sw_decode_md, sw_encode
from hashprop.types import Distribution


def test_simplex_textbook_maximization():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36
    lp = LinearProgram(num_vars=2, objective=np.array([3.0, 5.0]), maximize=True)
    lp.add([1, 0], REL_LE, 4)
    lp.add([0, 2], REL_LE, 12)
    lp.add([3, 2], REL_LE, 18)
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([2.0, 6.0])
    assert sol.objective == pytest.approx(36.0)
    assert sol.check_feasible(lp)


def test_simplex_minimization_with_equality():
    # min x + y s.t. x + y = 2, x >= 0.5
    lp = LinearProgram(num_vars=2, objective=np.array([1.0, 1.0]))
    lp.add([1, 1], REL_EQ, 2)
    lp.add([1, 0], REL_GE, 0.5)
    sol = simplex_solve(lp)
    assert sol.status == "optimal" and sol.objective == pytest.approx(2.0)


def test_simplex_infeasible_and_unbounded():
    lp = LinearProgram(num_vars=1, objective=np.array([1.0]))
    lp.add([1], REL_LE, 1)
    lp.add([1], REL_GE, 2)
    assert simplex_solve(lp).status == "infeasible"
    lp2 = LinearProgram(num_vars=1, objective=np.array([1.0]), maximize=True)
    lp2.add([-1], REL_LE, 0)
    assert simplex_solve(lp2).status == "unbounded"


def test_simplex_negative_rhs_normalization():
    lp = LinearProgram(num_vars=1, objective=np.array([1.0]))
    lp.add([-1], REL_LE, -2)  # means x >= 2
    sol = simplex_solve(lp)
    assert sol.status == "optimal" and sol.values == pytest.approx([2.0])


def test_program_validation():
    lp = LinearProgram(num_vars=2, objective=np.zeros(2))
    with pytest.raises(LpError):
        lp.add({5: 1.0}, REL_LE, 0)
    with pytest.raises(LpError):
        lp.add([1, 0], "<", 0)


def test_variable_indexing():
    n, k = 3, 2
    assert num_vars(n, k) == k * n + n * (1 << k)
    assert var_u(0, 0, n) == 0
    assert var_u(1, 2, n) == 5
    assert var_s(0, 0, n, k) == 6
    assert var_s(2, 3, n, k) == 6 + 3 * 3 + 2
    assert patterns(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_type_constraint_count_formula():
    for k in (2, 3):
        for n in (2, 4):
            t = [0] * (1 << k)
            t[0] = n
            cons = build_type_constraints(t, n, k)
            assert len(cons) == (2 * (k + 1) * n + 1) * (1 << k)
    with pytest.raises(LpError):
        build_type_constraints([1, 1], 2, 2)
    with pytest.raises(LpError):
        build_type_constraints([1, 1, 1, 1], 3, 2)


def test_type_constraints_integral_points():
    """On 0/1 points with s forced by the pattern, all rows must hold."""
    n, k = 2, 2
    t = [1, 0, 0, 1]  # pattern (0,0) once and (1,1) once
    cons = build_type_constraints(t, n, k)
    # u1 = (0, 1), u2 = (0, 1): position 0 carries (0,0), position 1 (1,1)
    x = np.zeros(num_vars(n, k))
    x[var_u(0, 1, n)] = 1
    x[var_u(1, 1, n)] = 1
    x[var_s(0, 0, n, k)] = 1
    x[var_s(1, 3, n, k)] = 1
    for row, rel, rhs in cons:
        lhs = sum(v * x[i] for i, v in row.items())
        assert (lhs <= rhs + 1e-9 if rel == REL_LE
                else lhs >= rhs - 1e-9 if rel == REL_GE
                else abs(lhs - rhs) <= 1e-9)


def test_parity_constraints_cut_exactly_wrong_vectors():
    A = FieldMatrix.from_dense(2, [[1, 1, 0], [0, 1, 1]])
    a = (1, 0)
    cons = build_parity_constraints(A, a)
    members = set(coset(A, a))
    for u in itertools.product((0, 1), repeat=3):
        ok = all(
            sum(v * u[i] for i, v in row.items()) <= rhs + 1e-9
            for row, _, rhs in cons
        )
        assert ok == (u in members)


def test_parity_constraints_guards():
    with pytest.raises(LpError):
        build_parity_constraints(FieldMatrix.from_dense(3, [[1]]), (0,))
    with pytest.raises(LpError):
        build_parity_constraints(FieldMatrix.from_dense(2, [[1, 1]]), (0, 1))
    wide = FieldMatrix.from_dense(2, [[1] * 13])
    with pytest.raises(LpError):
        build_parity_constraints(wide, (0,))


def test_md_via_lp_matches_exhaustive_when_integral():
    """Whenever every per-type LP lands on an integral vertex, the LP decode
    must equal the exhaustive minimum-divergence decode bit-exactly."""
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    rng = np.random.default_rng(3)
    seen_integral = 0
    for _ in range(12):
        n = int(rng.integers(2, 5))
        mats = tuple(
            FieldMatrix.from_dense(2, rng.integers(0, 2, size=(n - 1, n)))
            for _ in range(2)
        )
        x = tuple(int(v) for v in rng.integers(0, 2, size=n))
        y = tuple(int(v) for v in rng.integers(0, 2, size=n))
        code = SwCode(mats, mu)
        syn = sw_encode(code, (x, y))
        res = md_via_lp(mats, syn, mu, fallback="exhaustive")
        ref = sw_decode_md(code, syn)
        # with the exhaustive fallback the answer is always the oracle's
        assert res.x_hat == ref.x_hat
        if res.all_integral:
            seen_integral += 1
    assert seen_integral >= 1  # high-rate matrices keep some instances integral


def test_md_via_lp_validation():
    mu = Distribution([[0.5, 0.5]])
    with pytest.raises(LpError):
        md_via_lp((FieldMatrix.identity(2, 2),), ((0, 0),), mu)
    mu3 = Distribution(np.full((3, 3), 1 / 9))
    with pytest.raises(LpError):
        md_via_lp((FieldMatrix.identity(3, 2),) * 2, ((0, 0),) * 2, mu3)


def test_md_via_lp_type_log():
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    eye = FieldMatrix.identity(2, 2)
    res = md_via_lp((eye, eye), ((0, 1), (0, 1)), mu)
    assert res.x_hat == ((0, 1), (0, 1))
    assert not res.error
    assert len(res.type_log) == math.comb(2 + 3, 3)  # compositions of n=2 into 4
    assert all("status" in e for e in res.type_log)


def test_md_via_lp_cap_counts_members_built():
    """The final coset-product pass checks q^(n - rank) against fallback_cap
    before building a coset."""
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    row = FieldMatrix.from_dense(2, [[1, 1, 0]])
    with pytest.raises(LpError, match="exceeds cap"):
        md_via_lp((row, row), ((0,), (0,)), mu, fallback="exhaustive", fallback_cap=15)
    res = md_via_lp((row, row), ((0,), (0,)), mu, fallback="exhaustive", fallback_cap=16)
    assert res.x_hat == sw_decode_md(SwCode((row, row), mu), ((0,), (0,))).x_hat


def test_polytope_vertex_audit_all_patterns():
    for k in (1, 2, 3):
        for b in itertools.product((0, 1), repeat=k):
            out = polytope_vertex_audit(b)
            assert out["holds"], (b, out)
            assert len(out["integral"]) == 1 << k
            assert out["fractional"] == []
    with pytest.raises(LpError):
        polytope_vertex_audit((0,) * 5)
