"""Linear-programming realization of minimum-divergence decoding over binary
coset products: per-type constraint systems, parity-check (coset membership)
inequalities, a small simplex solver, and the single-position polytope
audit.  The builders give rows (coeffs dict, relation, rhs), and
``program_arrays`` turns them into the arrays every solve reads.

The per-position system couples an indicator s_i(b^k) with the k sequence
bits u_{1,i}..u_{k,i}: on integral points, s_i(b^k) = 1 exactly when position
i carries the pattern b^k, so the count equalities sum_i s_i(b^k) = t(b^k)
pin the joint type.  Parity rows use the odd/even-subset inequalities: for a
check row with support N and target bit a, a 0/1 vector u violates the check
iff the restriction of u to N matches some S subseteq N with |S| != a (mod 2),
and the inequality sum_{i in S} u_i - sum_{N\\S} u_i <= |S| - 1 cuts off
exactly the vectors agreeing with S on N.

A decode visits the joint types by increasing divergence and stops after
the tie group of the first type whose LP point is integral (or, with the
exhaustive fallback, whose fractional type occurs in the coset).  The type
LPs of one decode differ only in the count right-hand sides, so a decode
builds one slack-only tableau, and a dual simplex brings each visited type
to a feasible basis: the first from the all-slack basis, every later one
from the previous type's final basis.  A solve with an objective follows
the dual simplex with the primal one.  Both share one pivot routine and
Bland's rule by variable index.  The tableau is kept in compact
(dictionary) form: it stores only the nonbasic columns and b, since a basic
column is a unit vector, and its pivots make the float operations of the
full tableau [rows | I] on the entries it stores, so pivots and points are
the full tableau's bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import FieldMatrix, coset_factor_batch
from .types import (
    TIE_TOL,
    Distribution,
    product_keys,
    product_members,
    type_classes,
    type_divergences,
    type_key_groups,
    type_rows,
)

REL_LE, REL_EQ, REL_GE = "<=", "=", ">="
FEAS_TOL = 1e-9
CHECK_TOL = 1e-7
INT_TOL = 1e-6
MAX_ITER = 20000  # pivots per dual or primal simplex run
DEGREE_CAP = 12  # largest parity-row support expanded into 2^(d-1) subset rows


class LpError(ValueError):
    """Malformed program or solver iteration cap exceeded."""


def program_arrays(rows, num_vars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (coeffs, relation, rhs) of a program over variables
    0..num_vars-1, coeffs a {variable: coefficient} dict as the builders
    give it, as one (m, num_vars) float matrix, the relations and the
    right-hand sides, in row order."""
    unknown = [rel for _, rel, _ in rows if rel not in (REL_LE, REL_EQ, REL_GE)]
    if unknown:
        raise LpError(f"unknown relation {unknown[0]!r}")
    which = np.repeat(np.arange(len(rows)), [len(coeffs) for coeffs, _, _ in rows])
    index = np.fromiter((i for coeffs, _, _ in rows for i in coeffs), dtype=np.int64,
                        count=which.size)
    outside = index[(index < 0) | (index >= num_vars)]
    if outside.size:
        raise LpError(f"variable index {outside[0]} out of range")
    coeffs = np.zeros((len(rows), num_vars))
    coeffs[which, index] = np.fromiter((v for c, _, _ in rows for v in c.values()),
                                       dtype=np.float64, count=which.size)
    return (coeffs, np.array([rel for _, rel, _ in rows]),
            np.array([rhs for _, _, rhs in rows], dtype=np.float64))


def _rows_hold(rows: np.ndarray, rels: np.ndarray, rhs: np.ndarray, x: np.ndarray,
               tol: float) -> bool:
    """Whether x satisfies every row (coeffs, relation, rhs) within tol."""
    gap = rows @ x - rhs
    return not (np.any(gap[rels == REL_LE] > tol) or np.any(gap[rels == REL_GE] < -tol)
                or np.any(np.abs(gap[rels == REL_EQ]) > tol))


class _Tableau:
    """A compact simplex tableau over x >= 0, in dictionary form: only the
    nonbasic columns are stored, as T = [nonbasic columns | b] of shape
    m x (n + 1), pivoted in place by ``pivot`` in every solve.

    Every row is kept as a <= row: the <= rows come first as written, then
    the >= rows negated, each block in the original order, and an = row
    appears in both blocks.  Rows that x >= 0 already implies (one nonzero
    coefficient, positive, in a >= row with rhs <= 0) are left out.  Each
    row i gets a +1 slack, variable n + i, and the all-slack basis is the
    start.  In the full tableau [rows | I] a basic variable's column is the
    unit vector e_r of its row r, so it is not stored: ``basis[r]`` is row
    r's basic variable, ``nonbasic[j]`` the variable of column j, and
    ``where[v]`` is v's column, or ~r when v is basic in row r.  Bland's
    rule orders candidates by variable index, and ``pivot`` performs the
    full tableau's float operations on the entries it stores, so the layout
    fixes the pivots taken and the vertices reached, bit for bit those of
    the full tableau.  Slack i's full column keeps holding column i of
    B^-1 under any pivots (its column of T when nonbasic, e_r when basic),
    so ``set_rhs`` moves the basic solution to new right-hand sides without
    a rebuild.
    """

    def __init__(self, rows: np.ndarray, rels: np.ndarray, rhs: np.ndarray):
        self.rows, self.rels, self.rhs = rows, rels, rhs  # for the row check
        implied = ((rels == REL_GE) & (rhs <= 0) & ((rows != 0).sum(axis=1) == 1)
                   & (rows.sum(axis=1) > 0))
        le = np.flatnonzero(rels != REL_GE)
        ge = np.flatnonzero((rels != REL_LE) & ~implied)
        self.source = np.concatenate([le, ge])  # original row of each tableau row
        self.sign = np.repeat([1.0, -1.0], [le.size, ge.size])
        m, self.n = self.source.size, rows.shape[1]
        self.T = np.hstack([rows[self.source], rhs[self.source, None]]) * self.sign[:, None]
        self.basis = self.n + np.arange(m)
        self.nonbasic = np.arange(self.n)
        self.where = np.concatenate([self.nonbasic, ~np.arange(m)])

    def pivot(self, row: int, col: int) -> None:
        """Make column col's variable basic in row, and the row's basic
        variable nonbasic in column col: one rank-1 update of T, b carried
        as its last column.  The leaving variable's full column is e_row, so
        column col becomes e_row before the update, which leaves 1/piv at
        row and 0 - f (1/piv) elsewhere, as in the full tableau.  Every row
        is updated, as there: updating only the rows with a nonzero factor
        measured slower at 88 x 25 (about 11 us against 9 us), and it would
        keep a -0.0 that x - 0 y turns into +0.0."""
        T = self.T
        piv = T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T[:, col] = 0.0
        T[row, col] = 1.0
        T[row] /= piv
        T -= factors[:, None] * T[row]
        enter, leave = self.nonbasic[col], self.basis[row]
        self.basis[row], self.nonbasic[col] = enter, leave
        self.where[enter], self.where[leave] = ~row, col

    def _bland(self, mask: np.ndarray, names: np.ndarray) -> int:
        """Bland's rule: the position in names of the smallest variable that
        mask marks, or -1 if it marks none."""
        keyed = np.where(mask, names, self.where.size)
        pos = int(keyed.argmin())
        return pos if keyed[pos] < self.where.size else -1

    def primal(self, cost: np.ndarray) -> tuple[str, int]:
        """Minimize cost (one entry per variable) from the current feasible
        basis with Bland's rule; returns the status and the pivots made."""
        T, b = self.T, self.T[:, -1]
        for it in range(MAX_ITER):
            red = cost[self.nonbasic] - cost[self.basis] @ T[:, :-1]
            enter = self._bland(red < -FEAS_TOL, self.nonbasic)
            if enter < 0:
                return "optimal", it
            col = T[:, enter]
            rows = np.flatnonzero(col > FEAS_TOL)
            if rows.size == 0:
                return "unbounded", it
            ratios = b[rows] / col[rows]
            ties = rows[ratios <= ratios.min() + FEAS_TOL]
            self.pivot(int(ties[np.argmin(self.basis[ties])]), enter)  # Bland tie-break
        raise LpError("simplex iteration cap exceeded")

    def set_rhs(self, idx: np.ndarray, rhs: np.ndarray) -> None:
        """Give original rows idx new right-hand sides: b += B^-1 delta.
        The B^-1 columns of the moved slacks are gathered in Fortran order,
        the layout of the full tableau's column slice, which keeps the
        product on the same BLAS path and b bit for bit the same."""
        delta = np.zeros(self.rhs.size)
        delta[idx] = rhs - self.rhs[idx]
        self.rhs[idx] = rhs
        step = self.sign * delta[self.source]
        moved = np.flatnonzero(step)
        where = self.where[self.n + moved]
        nonbasic = where >= 0
        inverse = np.zeros((self.T.shape[0], moved.size), order="F")
        inverse[:, nonbasic] = self.T[:, where[nonbasic]]
        inverse[~where[~nonbasic], np.flatnonzero(~nonbasic)] = 1.0
        self.T[:, -1] += inverse @ step[moved]

    def dual(self) -> tuple[str, int]:
        """Reach a feasible basis by a dual simplex under Bland's rule, for a
        zero objective (every basis is dual feasible): the row with b < 0
        and the smallest basic variable leaves, the smallest variable with a
        negative entry in it enters.  Infeasible when such a row has no
        negative entry."""
        T, b = self.T, self.T[:, -1]
        for it in range(MAX_ITER):
            leave = self._bland(b < -FEAS_TOL, self.basis)
            if leave < 0:
                return "optimal", it
            enter = self._bland(T[leave, :-1] < -FEAS_TOL, self.nonbasic)
            if enter < 0:
                return "infeasible", it
            self.pivot(leave, enter)
        raise LpError("simplex iteration cap exceeded")

    def solution(self) -> np.ndarray:
        """The basic point, checked against the original rows."""
        x = np.zeros(self.n)
        structural = self.basis < self.n
        x[self.basis[structural]] = self.T[structural, -1]
        if not _rows_hold(self.rows, self.rels, self.rhs, x, CHECK_TOL):
            raise LpError("simplex point violates the program's rows")
        return x


def simplex_solve(rows, num_vars: int,
                  cost: np.ndarray | None = None) -> tuple[str, np.ndarray | None]:
    """The program of ``program_arrays(rows, num_vars)`` over x >= 0, from a
    cold start: a dual simplex reaches a feasible basis, then, given a cost
    (one entry per variable; negate it to maximize), the primal simplex
    minimizes cost . x, both under Bland's rule, each within MAX_ITER pivots.
    Returns (status, the checked basic point or None)."""
    tab = _Tableau(*program_arrays(rows, num_vars))
    if tab.dual()[0] == "infeasible":
        return "infeasible", None
    if cost is not None:
        full = np.zeros(tab.where.size)
        full[:num_vars] = cost
        if tab.primal(full)[0] == "unbounded":
            return "unbounded", None
    return "optimal", tab.solution()


# --- constraint builders ----------------------------------------------------


def patterns(k: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=k))


def var_u(j: int, i: int, n: int) -> int:
    return j * n + i


def var_s(i: int, pat_index: int, n: int, k: int) -> int:
    return k * n + pat_index * n + i


def num_vars(n: int, k: int) -> int:
    return k * n + n * (1 << k)


def position_rows(b, s: int, u) -> list[tuple[dict, str, float]]:
    """The rows of the one-position polytope P(b^k) over the indicator
    variable s and the bit variables u_1..u_k, in this order: s >= 0; the
    box side of each u_j that matches b_j; s +- u_j <= 1 - b_j; and
    s + sum_j +-u_j >= 1 - |b|.  The minus sign is taken where b_j = 1."""
    sign = [-1.0 if bj else 1.0 for bj in b]
    out: list[tuple[dict, str, float]] = [({s: 1.0}, REL_GE, 0.0)]
    out += [({uj: 1.0}, REL_LE, 1.0) if bj else ({uj: 1.0}, REL_GE, 0.0)
            for uj, bj in zip(u, b)]
    out += [({s: 1.0, uj: sj}, REL_LE, 1.0 - bj) for uj, bj, sj in zip(u, b, sign)]
    out.append(({s: 1.0, **dict(zip(u, sign))}, REL_GE, 1.0 - sum(b)))
    return out


def build_type_constraints(t, n: int, k: int) -> list[tuple[dict, str, float]]:
    """The per-position pattern system plus the 2^k count equalities.

    t gives the target count of each pattern, as a nested or flat count
    array in row-major pattern order.
    """
    counts = np.asarray(t, dtype=np.int64).reshape(-1)
    if counts.size != 1 << k:
        raise LpError("type must have one count per binary pattern")
    if counts.sum() != n:
        raise LpError("type counts must sum to n")
    out: list[tuple[dict, str, float]] = []
    for p, b in enumerate(patterns(k)):
        for i in range(n):
            out += position_rows(b, var_s(i, p, n, k), [var_u(j, i, n) for j in range(k)])
        out.append(({var_s(i, p, n, k): 1.0 for i in range(n)}, REL_EQ, float(counts[p])))
    return out


def build_parity_constraints(A: FieldMatrix, a,
                             var_offset: int = 0) -> list[tuple[dict, str, float]]:
    """Odd/even-subset inequalities forcing Au = a on integral points."""
    if A.q != 2:
        raise LpError("parity constraints are defined over GF(2)")
    if len(a) != A.rows:
        raise LpError("syndrome length mismatch")
    if any(int(v) not in (0, 1) for v in a):
        raise LpError("syndrome symbols must be 0 or 1 over GF(2)")
    out: list[tuple[dict, str, float]] = []
    for j, row in enumerate(A.dense.tolist()):
        N = [c for c, v in enumerate(row) if v]
        if len(N) > DEGREE_CAP:
            raise LpError(f"row {j} degree {len(N)} exceeds cap {DEGREE_CAP}")
        target = int(a[j])
        for rsz in range(len(N) + 1):
            if rsz % 2 == target:
                continue
            for S in itertools.combinations(N, rsz):
                row = {var_offset + i: (1.0 if i in S else -1.0) for i in N}
                out.append((row, REL_LE, float(rsz - 1)))
    return out


# --- minimum-divergence decoding via per-type LPs ---------------------------


@dataclass(frozen=True)
class LpDecodeResult:
    x_hat: tuple | None
    divergence: float
    all_integral: bool
    error: bool
    type_log: tuple


def md_via_lp(matrices, syndromes, mu: Distribution, fallback: str | None = None,
              fallback_cap: int = 1 << 16) -> LpDecodeResult:
    """Minimum-divergence decoding over the coset product by visiting joint
    types in increasing divergence, deciding one feasibility LP per type.

    Types are visited by increasing ``types.type_divergences``, the per-cell
    terms the exhaustive decoders add, with ties in table order (the rows of
    ``types.type_classes``, which name the types throughout).
    A type counts when its LP point is integral (an integral point is a
    coset-product member of the type) or, with fallback='exhaustive', when
    its point is fractional and the type occurs in the coset product.  The
    sweep stops after the tie group of the first type that counts: the types
    within TIE_TOL of its divergence.  The counting types of that group win,
    and the output tuple is the lexicographically first coset-product member
    carrying a winning type, matching the exhaustive decoder's tie rule.  An
    infeasible type has no coset member, so a decode whose solved types are
    all integral or infeasible is the exact minimum-divergence decode, and
    the exhaustive fallback is exact in any visiting order.  One pass over
    the coset product, made when first needed, serves the fallback and the
    output.

    ``type_log`` holds the log entries of the types solved, in visiting
    order (see ``_type_sweep``), and ``all_integral`` says that none of them
    had a fractional point; the types past the cut are never solved.
    """
    k = len(matrices)
    if any(s != 2 for s in mu.shape) or len(mu.shape) != k:
        raise LpError("the LP decoder needs one binary alphabet per terminal")
    n = matrices[0].cols
    if any(m.cols != n or m.q != 2 for m in matrices):
        raise LpError("matrices must be binary with a common n")
    order = _divergence_order(n, k, mu.table)
    coset = _CosetTypes(matrices, syndromes, fallback_cap)

    log = []
    winners = set()
    best_d = math.inf
    all_integral = True
    for i, ((row, d), entry) in enumerate(zip(order, _type_sweep(matrices, syndromes, order)), 1):
        log.append(entry)
        if entry["status"] == "optimal":
            all_integral &= entry["integral"]
            if entry["integral"] or (fallback == "exhaustive" and coset.occurs(row)):
                winners.add(row)
                best_d = min(best_d, d)
        if i < len(order) and order[i][1] > best_d + TIE_TOL:
            break  # the next type is past the winning tie group

    if not winners:
        return LpDecodeResult(x_hat=None, divergence=math.inf, all_integral=all_integral,
                              error=True, type_log=tuple(log))
    return LpDecodeResult(x_hat=coset.first_member(winners), divergence=best_d,
                          all_integral=all_integral, error=False, type_log=tuple(log))


def _divergence_order(n: int, k: int, table: np.ndarray) -> list[tuple[int, float]]:
    """Every row of ``type_classes(n, 2^k)`` with its type's divergence
    from table, by increasing divergence; tied floats keep table order."""
    divs = type_divergences(n, table)
    rows = np.argsort(divs, kind="stable")
    return list(zip(rows.tolist(), divs[rows].tolist()))


def _type_sweep(matrices, syndromes, order):
    """Decide the type LP of each (table row, divergence) of order and
    yield its log entry: type (the row's count vector as a tuple),
    divergence, status, integral, pivots and, when feasible, the point.

    The type LPs differ only in the right-hand sides of the 2^k count rows,
    so one tableau serves the whole sweep: each type moves those right-hand
    sides and is brought to feasibility by a dual simplex, the first type
    from the all-slack basis and every later one from the previous type's
    final basis.  Statuses are exact: infeasible types are exactly those
    whose LP is infeasible.  Each type LP has a zero objective, so its point
    is whichever vertex the warm start reaches, and ``integral`` records
    whether that vertex is integral.  Every point is checked against the
    type's rows (``LpError`` if one fails).  A type is solved only when its
    entry is asked for.
    """
    n, k = matrices[0].cols, len(matrices)
    counts = type_classes(n, 1 << k).counts
    rows = build_type_constraints(counts[order[0][0]], n, k)
    for j, (m, a) in enumerate(zip(matrices, syndromes)):
        rows += build_parity_constraints(m, a, var_offset=j * n)
    tab = _Tableau(*program_arrays(rows, num_vars(n, k)))
    count_rows = np.flatnonzero(tab.rels == REL_EQ)  # one per pattern, in order
    for type_row, d in order:
        t = counts[type_row]
        tab.set_rhs(count_rows, t.astype(np.float64))
        status, pivots = tab.dual()
        entry = {"type": tuple(t.tolist()), "divergence": d, "status": status,
                 "integral": False, "pivots": pivots}
        if status == "optimal":
            x = tab.solution()
            entry["integral"] = bool(np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= INT_TOL))
            entry["point"] = tuple(x.tolist())
        yield entry


class _CosetTypes:
    """The coset product of one decode, built on first use: its one-row
    factors and, per row of ``types.type_classes``, the product index of the
    first member of that joint type, -1 where none occurs.  ``type_rows``
    names each member's type from its lookup-group keys; building raises
    ``LpError`` when a coset exceeds the cap."""

    def __init__(self, matrices, syndromes, cap: int):
        self.matrices, self.syndromes, self.cap = matrices, syndromes, cap
        self.ncells, self.n = 1 << len(matrices), matrices[0].cols
        self.groups = type_key_groups(self.ncells, self.n)
        self.factors = None

    @cached_property
    def first(self) -> np.ndarray:
        first = np.full(len(type_classes(self.n, self.ncells).sizes), -1)
        found = coset_factor_batch(self.matrices, [[tuple(a)] for a in self.syndromes],
                                   self.cap, LpError)
        if found is None:
            return first
        self.factors = found[0]
        for span, keys in product_keys(self.factors, (2,) * len(self.matrices), self.groups):
            rows = type_rows([key[0] for key in keys], self.n, self.ncells, self.groups)
            seen, index = np.unique(rows, return_index=True)
            new = first[seen] < 0
            first[seen[new]] = span.start + index[new]
        return first

    def occurs(self, row: int) -> bool:
        return bool(self.first[row] >= 0)

    def first_member(self, wanted) -> tuple | None:
        """The first member of the product whose joint type's row is in wanted."""
        hits = self.first[list(wanted)]
        hits = hits[hits >= 0]
        if not hits.size:
            return None
        return tuple(map(tuple, product_members(self.factors, [hits.min()])[0].tolist()))


# --- single-position polytope audit -----------------------------------------


def polytope_vertex_audit(b) -> dict:
    """Enumerate all vertices of the one-position polytope P(b^k) in the
    variables (s, u_1..u_k) and compare the integral ones against the target
    set {(1, b)} union {(0, b') : b' != b}; fractional vertices must not exist.
    """
    b = tuple(int(x) for x in b)
    k = len(b)
    if k > 4:
        raise LpError("audit supports k <= 4")
    dim = k + 1
    rows, rels, rhs = program_arrays(position_rows(b, 0, range(1, dim)), dim)  # (s, u_1..u_k)
    vertices = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        M, r = rows[list(subset)], rhs[list(subset)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, r)
        if _rows_hold(rows, rels, rhs, x, 1e-9):
            vertices.add(tuple(round(float(v), 9) for v in x))
    integral = {v for v in vertices
                if all(abs(c - round(c)) <= 1e-9 and round(c) in (0, 1) for c in v)}
    fractional = vertices - integral
    expected = {(1.0,) + tuple(float(x) for x in b)}
    for b2 in patterns(k):
        if b2 != b:
            expected.add((0.0,) + tuple(float(x) for x in b2))
    integral_rounded = {tuple(float(round(c)) for c in v) for v in integral}
    return {
        "holds": integral_rounded == expected and not fractional,
        "integral": sorted(integral_rounded),
        "fractional": sorted(fractional),
        "expected": sorted(expected),
    }
