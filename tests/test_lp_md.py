"""Simplex solver, coset-polytope constraint builders, LP decoding, audit."""

import itertools
import math

import numpy as np
import pytest

import oracles
from hashprop import types
from hashprop.ensemble import Ensemble
from hashprop.gf import FieldMatrix
from hashprop.lp_md import (
    CHECK_TOL,
    FEAS_TOL,
    INT_TOL,
    REL_EQ,
    REL_GE,
    REL_LE,
    LpError,
    _CosetTypes,
    _divergence_order,
    _rows_hold,
    _type_sweep,
    build_parity_constraints,
    build_type_constraints,
    md_via_lp,
    num_vars,
    patterns,
    polytope_vertex_audit,
    program_arrays,
    simplex_solve,
    var_s,
    var_u,
)
from hashprop.slepian_wolf import SwCode, sw_decode_md, sw_encode
from hashprop.types import Distribution, joint_type


def _holds(rows, num_vars, point):
    """Whether point satisfies every row within the solver's CHECK_TOL."""
    return point is not None and _rows_hold(*program_arrays(rows, num_vars), point, CHECK_TOL)


def test_simplex_textbook_maximization():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36
    rows = [({0: 1}, REL_LE, 4), ({1: 2}, REL_LE, 12), ({0: 3, 1: 2}, REL_LE, 18)]
    objective = np.array([3.0, 5.0])
    status, point = simplex_solve(rows, 2, cost=-objective)
    assert status == "optimal"
    assert point == pytest.approx([2.0, 6.0])
    assert objective @ point == pytest.approx(36.0)
    assert _holds(rows, 2, point)


def test_simplex_minimization_with_equality():
    # min x + y s.t. x + y = 2, x >= 0.5
    rows = [({0: 1, 1: 1}, REL_EQ, 2), ({0: 1}, REL_GE, 0.5)]
    status, point = simplex_solve(rows, 2, cost=np.array([1.0, 1.0]))
    assert status == "optimal" and point.sum() == pytest.approx(2.0)


def test_simplex_infeasible_and_unbounded():
    assert simplex_solve([({0: 1}, REL_LE, 1), ({0: 1}, REL_GE, 2)], 1) == ("infeasible", None)
    # max x s.t. -x <= 0
    assert simplex_solve([({0: -1}, REL_LE, 0)], 1, cost=np.array([-1.0])) == ("unbounded", None)


def test_simplex_negative_rhs_normalization():
    status, point = simplex_solve([({0: -1}, REL_LE, -2)], 1, cost=np.array([1.0]))  # x >= 2
    assert status == "optimal" and point == pytest.approx([2.0])


def test_program_arrays_match_a_row_loop():
    """The bulk conversion gives what filling one zero row per program row
    gives, bit for bit, on a type LP with parity rows."""
    mats = (FieldMatrix(2, [[1, 1, 0, 1], [0, 1, 1, 1]]), FieldMatrix(2, [[1, 0, 1, 1]]))
    rows, nv = _cold_program((1, 0, 2, 1), mats, ((1, 0), (1,)))
    loop = np.zeros((len(rows), nv))
    for r, (coeffs, _, _) in enumerate(rows):
        for i, v in coeffs.items():
            loop[r, i] = v
    coeffs, rels, rhs = program_arrays(rows, nv)
    assert coeffs.tobytes() == loop.tobytes() and coeffs.shape == loop.shape
    assert rels.tolist() == [rel for _, rel, _ in rows]
    assert rhs.tolist() == [float(v) for _, _, v in rows]


def test_program_validation():
    with pytest.raises(LpError, match="index 5 out of range"):
        program_arrays([({5: 1.0}, REL_LE, 0)], 2)
    with pytest.raises(LpError, match="unknown relation"):
        program_arrays([({0: 1}, "<", 0)], 2)


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
    dense = np.array([[1, 1, 0], [0, 1, 1]])
    a = (1, 0)
    cons = build_parity_constraints(FieldMatrix(2, dense), a)
    # the coset by brute force: every word of GF(2)^3 with the syndrome
    members = {u for u in itertools.product((0, 1), repeat=3)
               if (dense @ u % 2 == a).all()}
    for u in itertools.product((0, 1), repeat=3):
        ok = all(
            sum(v * u[i] for i, v in row.items()) <= rhs + 1e-9
            for row, _, rhs in cons
        )
        assert ok == (u in members)


def test_parity_constraints_guards():
    with pytest.raises(LpError):
        build_parity_constraints(FieldMatrix(3, [[1]]), (0,))
    with pytest.raises(LpError):
        build_parity_constraints(FieldMatrix(2, [[1, 1]]), (0, 1))
    with pytest.raises(LpError, match="0 or 1"):
        build_parity_constraints(FieldMatrix(2, [[1, 1]]), (2,))
    wide = FieldMatrix(2, [[1] * 13])
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
            FieldMatrix(2, rng.integers(0, 2, size=(n - 1, n)))
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


def _cold_program(t, mats, syns):
    """The rows of type t's LP and its variable count."""
    n, k = mats[0].cols, len(mats)
    rows = build_type_constraints(t, n, k)
    for j, (m, a) in enumerate(zip(mats, syns)):
        rows += build_parity_constraints(m, a, var_offset=j * n)
    return rows, num_vars(n, k)


def _warm_start_instances():
    """Seeded (matrices, syndromes) pairs at n = 3..5: random rows, rows of
    full degree n, and cosets emptied by a zero row with syndrome bit 1 or by
    a repeated row with both syndrome bits."""
    rng = np.random.default_rng(11)
    out = []
    for idx in range(30):
        n = (3, 4, 3, 4, 5, 3)[idx // 5]
        dense = [rng.integers(0, 2, size=(int(rng.integers(1, n)), n)) for _ in range(2)]
        syns = [tuple(int(v) for v in rng.integers(0, 2, size=d.shape[0])) for d in dense]
        if idx % 5 == 1:
            dense[0][0] = 1
        elif idx % 5 == 2:
            dense[1] = np.vstack([dense[1], np.zeros(n, dtype=np.int64)])
            syns[1] += (1,)
        elif idx % 5 == 3:
            dense[0] = np.vstack([dense[0], dense[0][:1]])
            syns[0] += (1 - syns[0][0],)
        out.append((tuple(FieldMatrix(2, d) for d in dense), tuple(syns)))
    return out


def _full_sweep(mats, syns, mu):
    """Every type's log entry, in md_via_lp's visiting order."""
    return list(_type_sweep(mats, syns, _divergence_order(mats[0].cols, len(mats), mu.table)))


def _bits(entry):
    """A log entry with its floats as float.hex, for bit-for-bit compares."""
    out = {**entry, "divergence": entry["divergence"].hex()}
    if "point" in entry:
        out["point"] = [v.hex() for v in entry["point"]]
    return out


def _assert_prefix(log, full):
    """log is full's first entries, bit for bit, and stops where the rule
    says: after the tie group of full's first integral type, or at full's
    end when no type is integral."""
    assert [_bits(e) for e in log] == [_bits(e) for e in full[:len(log)]]
    first = next((e["divergence"] for e in full if e["integral"]), math.inf)
    assert len(log) == sum(1 for e in full if e["divergence"] <= first + types.TIE_TOL)


def test_md_via_lp_warm_start_matches_cold_solver():
    """The full sweep visits every type once, by increasing divergence with
    ties in the order of the oracle's compositions, and md_via_lp's log is
    its prefix up to the stop rule.  Every type's status equals a cold solve
    of the same program; every logged point satisfies the program's rows,
    and every integral one is a coset-product member carrying the logged
    type."""
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    seen = {"optimal": 0, "infeasible": 0, "integral": 0, "fractional": 0, "empty": 0}
    for mats, syns in _warm_start_instances():
        n, k = mats[0].cols, len(mats)
        full = _full_sweep(mats, syns, mu)
        res = md_via_lp(mats, syns, mu)
        _assert_prefix(res.type_log, full)
        sweep = list(oracles.compositions(n, 1 << k))
        divs = types.type_divergences(n, mu.table).tolist()
        assert sorted(e["type"] for e in full) == sweep
        assert [(e["divergence"], sweep.index(e["type"])) for e in full] == sorted(
            (divs[i], i) for i in range(len(sweep)))
        for entry in full:
            program = _cold_program(entry["type"], mats, syns)
            assert entry["status"] == simplex_solve(*program)[0], entry["type"]
            seen[entry["status"]] += 1
            assert isinstance(entry["pivots"], int) and entry["pivots"] >= 0
            if entry["status"] != "optimal":
                continue
            point = np.array(entry["point"])
            assert _holds(*program, point)
            if not entry["integral"]:
                seen["fractional"] += 1
                continue
            seen["integral"] += 1
            u = np.rint(point[:k * n]).astype(np.int64).reshape(k, n)
            for m, a, uj in zip(mats, syns, u):
                assert tuple(int(v) for v in m.dense @ uj % 2) == a
            counts = np.asarray(joint_type([tuple(r) for r in u], (2,) * k).counts)
            assert tuple(counts.reshape(-1)) == entry["type"]
        if all(e["status"] == "infeasible" for e in full):
            seen["empty"] += 1
            assert res.error and res.x_hat is None
    assert all(v > 0 for v in seen.values()), seen


def _highs_status(rows, num_vars):
    """The status scipy's HiGHS gives the program, in this module's names."""
    from scipy.optimize import linprog

    rows, rels, rhs = program_arrays(rows, num_vars)
    le, ge, eq = rels == REL_LE, rels == REL_GE, rels == REL_EQ
    res = linprog(np.zeros(num_vars), A_ub=np.vstack([rows[le], -rows[ge]]),
                  b_ub=np.concatenate([rhs[le], -rhs[ge]]), A_eq=rows[eq], b_eq=rhs[eq],
                  bounds=(0, None), method="highs")
    return {0: "optimal", 2: "infeasible"}[res.status]


def test_md_via_lp_statuses_match_highs():
    """An oracle that shares no code with the tableau: every status of the
    full sweep on the warm-start instances equals the status HiGHS gives the
    type's program, and md_via_lp's log is the sweep's prefix."""
    pytest.importorskip("scipy")
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    seen = {"optimal": 0, "infeasible": 0}
    for mats, syns in _warm_start_instances():
        full = _full_sweep(mats, syns, mu)
        _assert_prefix(md_via_lp(mats, syns, mu).type_log, full)
        for entry in full:
            assert entry["status"] == _highs_status(*_cold_program(entry["type"], mats, syns)), \
                entry["type"]
            seen[entry["status"]] += 1
    assert all(v > 0 for v in seen.values()), seen


def _dense_sweep(mats, syns, sweep):
    """Per type of sweep, in its order, (status, pivots, point bits,
    integral) from a plain full tableau [rows | I | b]: the same row layout,
    warm start and Bland dual simplex, every column stored and updated.

    The tableau starts with every -0.0 made +0.0, and the pivot row is
    brought back to +0.0 zeros after its division; then no update makes a
    -0.0 (x - x and +0.0 - 0.0 give +0.0), so the sign of a zero term
    A_ic A_rj never matters and einsum forms the rank-1 terms.  The sign of
    a zero changes no nonzero value, so statuses, pivots and nonzero point
    entries are the full tableau's bit for bit, and every zero is +0.0."""
    rows, rels, rhs = program_arrays(*_cold_program(sweep[0], mats, syns))
    implied = ((rels == REL_GE) & (rhs <= 0) & ((rows != 0).sum(axis=1) == 1)
               & (rows.sum(axis=1) > 0))
    le, ge = np.flatnonzero(rels != REL_GE), np.flatnonzero((rels != REL_LE) & ~implied)
    src, sign = np.concatenate([le, ge]), np.repeat([1.0, -1.0], [le.size, ge.size])
    nv, m = rows.shape[1], src.size
    A = np.hstack([rows[src] * sign[:, None], np.eye(m), (rhs[src] * sign)[:, None]]) + 0.0
    b, terms = A[:, -1], np.empty_like(A)
    basis, count_rows, out = nv + np.arange(m), rels == REL_EQ, []
    for t in sweep:
        new = rhs.copy()
        new[count_rows] = t
        step, rhs = sign * (new - rhs)[src], new
        moved = np.flatnonzero(step)
        b += A[:, nv + moved] @ step[moved]  # slack columns hold B^-1
        status, pivots = "optimal", 0
        while (neg := (b < -FEAS_TOL).nonzero()[0]).size:
            r = neg[basis[neg].argmin()]
            c = int((A[r, :-1] < -FEAS_TOL).argmax())  # basic columns are unit vectors
            piv = A[r, c]
            if not piv < -FEAS_TOL:
                status = "infeasible"
                break
            A[r] /= piv
            A[r] += 0.0
            np.einsum("i,j->ij", A[:, c], A[r], out=terms)
            terms[r] = 0.0  # the pivot row keeps its divided values
            A -= terms
            basis[r], pivots = c, pivots + 1
        x = np.zeros(nv)
        x[basis[basis < nv]] = b[basis < nv]
        out.append((status, pivots, x.view(np.int64),
                    bool(np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= INT_TOL))))
    return out


def _criterion_8_stream(max_n):
    """The (matrices, syndromes) of criterion 8's seeded decodes with n <= max_n."""
    rng = np.random.default_rng(8)
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    for n in [3] * 100 + [4] * 70 + [6] * 24 + [8] * 6:
        ens = Ensemble.sparse(2, n - 1, n, 2)
        mats = (ens.sample(rng), ens.sample(rng))
        xy = [tuple(int(v) for v in rng.integers(0, 2, size=n)) for _ in range(2)]
        if n <= max_n:
            yield mats, sw_encode(SwCode(mats, mu), tuple(xy))


def test_md_via_lp_log_matches_dense_tableau():
    """The compact tableau takes the pivots of the full one, bit for bit:
    every entry of the full sweep has the status, pivot count, point
    (compared by its float64 bits) and integrality of the dense reference
    sweep in the same order, on the warm-start instances and criterion 8's
    decodes with n <= 6; md_via_lp's log is the sweep's prefix."""
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    seen = {"optimal": 0, "infeasible": 0, "pivots": 0}
    for mats, syns in itertools.chain(_warm_start_instances(), _criterion_8_stream(6)):
        full = _full_sweep(mats, syns, mu)
        _assert_prefix(md_via_lp(mats, syns, mu).type_log, full)
        dense = _dense_sweep(mats, syns, [e["type"] for e in full])
        for entry, (status, pivots, point, integral) in zip(full, dense, strict=True):
            assert (entry["status"], entry["pivots"]) == (status, pivots), entry["type"]
            if status == "optimal":
                assert (np.array(entry["point"]).view(np.int64) == point).all(), entry["type"]
                assert entry["integral"] == integral
            seen[status] += 1
            seen["pivots"] += pivots
    assert all(v > 0 for v in seen.values()), seen


def _flat_type(pair):
    return tuple(np.asarray(joint_type(pair, (2, 2)).counts).reshape(-1).tolist())


def test_md_via_lp_is_the_md_decode_on_criterion_8_stream():
    """On all 200 decodes of criterion 8's stream the exhaustive-fallback
    decode is sw_decode_md's, with its divergence within 1e-12, and so is
    every all-integral decode without the fallback."""
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    decodes = all_integral = 0
    for mats, syns in _criterion_8_stream(8):
        ref = sw_decode_md(SwCode(mats, mu), syns).x_hat
        ref_d = types.divergence(np.array(_flat_type(ref)) / mats[0].cols, mu)
        exact = md_via_lp(mats, syns, mu, fallback="exhaustive")
        assert exact.x_hat == ref
        assert exact.divergence == pytest.approx(ref_d, abs=1e-12)
        plain = md_via_lp(mats, syns, mu)
        if plain.all_integral:
            all_integral += 1
            assert plain.x_hat == ref
            assert plain.divergence == pytest.approx(ref_d, abs=1e-12)
        decodes += 1
    assert decodes == 200 and all_integral >= 1


def test_md_via_lp_decides_the_whole_tie_group():
    """A pinned n = 4 instance whose winning tie group holds two integral
    types one ulp apart: (2, 0, 1, 1) sorts first, and the lexicographically
    first minimum-divergence member has type (1, 1, 0, 2).  Only a decoder
    that solves the whole group, by TIE_TOL, returns the exhaustive
    decoder's member."""
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    mats = (FieldMatrix(2, [[1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 0, 1]]),
            FieldMatrix(2, [[0, 1, 0, 0], [1, 0, 0, 0]]))
    syns = ((1, 1, 1), (1, 0))
    ref = sw_decode_md(SwCode(mats, mu), syns).x_hat
    integral = [e for e in _full_sweep(mats, syns, mu) if e["integral"]]
    group = [e for e in integral if e["divergence"] <= integral[0]["divergence"] + types.TIE_TOL]
    assert [e["type"] for e in group] == [(2, 0, 1, 1), (1, 1, 0, 2)]
    assert _flat_type(ref) == group[1]["type"]
    assert group[0]["divergence"] < group[1]["divergence"]  # tied, but not bit-equal
    res = md_via_lp(mats, syns, mu)
    assert res.all_integral
    assert res.x_hat == ref
    assert res.divergence == group[0]["divergence"]


def test_simplex_solve_objective_matches_highs():
    """On seeded random small programs with box rows and mixed <=, = and >=
    rows, simplex_solve's status equals HiGHS's, and an optimal objective
    agrees within 1e-7."""
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    rng = np.random.default_rng(17)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(30):
        nv = int(rng.integers(2, 6))
        objective = rng.integers(-4, 5, size=nv).astype(float)
        cost = -objective if rng.integers(0, 2) else objective  # maximize or minimize
        program = [({int(i): 1.0}, REL_LE, float(rng.integers(1, 6)))  # box rows x_i <= u_i
                   for i in np.flatnonzero(rng.random(nv) < 0.8)]
        for _ in range(int(rng.integers(1, 5))):
            program.append((dict(enumerate(rng.integers(-3, 4, size=nv).tolist())),
                            (REL_LE, REL_EQ, REL_GE)[rng.integers(0, 3)],
                            float(rng.integers(-4, 8))))
        rows, rels, rhs = program_arrays(program, nv)
        le, ge, eq = rels == REL_LE, rels == REL_GE, rels == REL_EQ
        ref = linprog(cost, A_ub=np.vstack([rows[le], -rows[ge]]),
                      b_ub=np.concatenate([rhs[le], -rhs[ge]]),
                      A_eq=rows[eq] if eq.any() else None, b_eq=rhs[eq] if eq.any() else None,
                      bounds=(0, None), method="highs")
        status, point = simplex_solve(program, nv, cost=cost)
        assert status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        seen[status] += 1
        if status == "optimal":
            assert _holds(program, nv, point)
            assert cost @ point == pytest.approx(ref.fun, abs=1e-7)
    assert all(v > 0 for v in seen.values()), seen


def test_md_via_lp_raises_on_a_point_outside_its_rows(monkeypatch):
    """A point that fails the row check is an error, never a dropped type."""
    import hashprop.lp_md as lp_md

    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    eye = FieldMatrix(2, np.eye(2, dtype=np.int64))
    monkeypatch.setattr(lp_md, "CHECK_TOL", -1.0)
    with pytest.raises(LpError, match="violates"):
        md_via_lp((eye, eye), ((0, 1), (0, 1)), mu)


def test_md_via_lp_validation():
    mu = Distribution([[0.5, 0.5]])
    with pytest.raises(LpError):
        md_via_lp((FieldMatrix(2, np.eye(2, dtype=np.int64)),), ((0, 0),), mu)
    mu3 = Distribution(np.full((3, 3), 1 / 9))
    with pytest.raises(LpError):
        md_via_lp((FieldMatrix(3, np.eye(2, dtype=np.int64)),) * 2, ((0, 0),) * 2, mu3)


def test_md_via_lp_type_log():
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    eye = FieldMatrix(2, np.eye(2, dtype=np.int64))
    res = md_via_lp((eye, eye), ((0, 1), (0, 1)), mu)
    assert res.x_hat == ((0, 1), (0, 1))
    assert not res.error
    full = _full_sweep((eye, eye), ((0, 1), (0, 1)), mu)
    assert len(full) == math.comb(2 + 3, 3)  # compositions of n=2 into 4
    _assert_prefix(res.type_log, full)
    assert len(res.type_log) < len(full)
    assert all("status" in e for e in res.type_log)


def test_md_via_lp_cap_counts_members_built():
    """The final coset-product pass checks q^(n - rank) against fallback_cap
    before building a coset."""
    mu = Distribution([[0.475, 0.025], [0.025, 0.475]])
    row = FieldMatrix(2, [[1, 1, 0]])
    with pytest.raises(LpError, match="exceeds cap"):
        md_via_lp((row, row), ((0,), (0,)), mu, fallback="exhaustive", fallback_cap=15)
    res = md_via_lp((row, row), ((0,), (0,)), mu, fallback="exhaustive", fallback_cap=16)
    assert res.x_hat == sw_decode_md(SwCode((row, row), mu), ((0,), (0,))).x_hat


@pytest.mark.parametrize("chunk", [types.SCORE_CHUNK, 7])
def test_first_member_with_type_three_sources(monkeypatch, chunk):
    """With three binary sources at n = 4, whose 8-cell type keys fall into
    several lookup groups, the first candidate of the coset product with a
    wanted joint type, named by its row in the type-class table, is the one
    a brute-force search finds first, also in pieces of 7 candidates; a type
    no candidate has finds nothing."""
    monkeypatch.setattr(types, "SCORE_CHUNK", chunk)
    rng = np.random.default_rng(21)
    n, shape = 4, (2, 2, 2)
    row_of = {t: row for row, t in enumerate(oracles.compositions(n, 8))}

    def flat_type(cand):
        return tuple(np.asarray(joint_type(cand, shape).counts).reshape(-1).tolist())

    for _ in range(4):
        dense = [rng.integers(0, 2, size=(2, n)) for _ in range(3)]
        syns = [tuple((d @ rng.integers(0, 2, size=n) % 2).tolist()) for d in dense]
        sides = [[w for w in itertools.product((0, 1), repeat=n)
                  if tuple((d @ np.array(w) % 2).tolist()) == a] for d, a in zip(dense, syns)]
        candidates = list(itertools.product(*sides))
        seen = {flat_type(c) for c in candidates}
        wanted = {flat_type(candidates[i]) for i in rng.integers(0, len(candidates), size=2)}
        mats = [FieldMatrix(2, d) for d in dense]
        expected = next(c for c in candidates if flat_type(c) in wanted)
        coset = _CosetTypes(mats, syns, 1 << 20)
        assert coset.first_member({row_of[t] for t in wanted}) == expected
        assert all(coset.occurs(row_of[t]) for t in wanted)
        absent = next(t for t in row_of if t not in seen)
        assert not coset.occurs(row_of[absent])
        assert coset.first_member({row_of[absent]}) is None


def test_polytope_vertex_audit_all_patterns():
    for k in (1, 2, 3):
        for b in itertools.product((0, 1), repeat=k):
            out = polytope_vertex_audit(b)
            assert out["holds"], (b, out)
            assert len(out["integral"]) == 1 << k
            assert out["fractional"] == []
    with pytest.raises(LpError):
        polytope_vertex_audit((0,) * 5)
