"""Linear-programming realization of minimum-divergence decoding over binary
coset products: per-type constraint systems, parity-check (coset membership)
inequalities, a small dense simplex solver, and the single-position polytope
audit.

The per-position system couples an indicator s_i(b^k) with the k sequence
bits u_{1,i}..u_{k,i}: on integral points, s_i(b^k) = 1 exactly when position
i carries the pattern b^k, so the count equalities sum_i s_i(b^k) = t(b^k)
pin the joint type.  Parity rows use the odd/even-subset inequalities: for a
check row with support N and target bit a, a 0/1 vector u violates the check
iff the restriction of u to N matches some S subseteq N with |S| != a (mod 2),
and the inequality sum_{i in S} u_i - sum_{N\\S} u_i <= |S| - 1 cuts off
exactly the vectors agreeing with S on N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gf import FieldMatrix, coset_factors
from .types import (
    TIE_TOL,
    Distribution,
    cell_counts,
    compositions,
    divergence,
    product_member,
    product_scores,
)

REL_LE, REL_EQ, REL_GE = "<=", "=", ">="
FEAS_TOL = 1e-9
CHECK_TOL = 1e-7
INT_TOL = 1e-6


class LpError(ValueError):
    """Malformed program or solver iteration cap exceeded."""


@dataclass
class LinearProgram:
    """min/max c.x over x >= 0 subject to rows of (coeffs, relation, rhs)."""

    num_vars: int
    objective: np.ndarray
    constraints: list[tuple[np.ndarray, str, float]] = field(default_factory=list)
    maximize: bool = False

    def add(self, coeffs, rel: str, rhs: float) -> None:
        row = np.zeros(self.num_vars)
        for idx, v in (coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)):
            if not 0 <= idx < self.num_vars:
                raise LpError(f"variable index {idx} out of range")
            row[idx] = v
        if rel not in (REL_LE, REL_EQ, REL_GE):
            raise LpError(f"unknown relation {rel!r}")
        self.constraints.append((row, rel, float(rhs)))


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    values: np.ndarray | None
    objective: float | None
    integral: bool

    def check_feasible(self, lp: LinearProgram, tol: float = CHECK_TOL) -> bool:
        if self.values is None:
            return False
        for row, rel, rhs in lp.constraints:
            lhs = float(row @ self.values)
            if rel == REL_LE and lhs > rhs + tol:
                return False
            if rel == REL_GE and lhs < rhs - tol:
                return False
            if rel == REL_EQ and abs(lhs - rhs) > tol:
                return False
        return True


def simplex_solve(lp: LinearProgram, max_iter: int = 20000) -> LpSolution:
    """Two-phase primal simplex with Bland's rule on a dense tableau."""
    m = len(lp.constraints)
    n = lp.num_vars
    rows = []
    rels = []
    rhs = []
    for r, rel, b in lp.constraints:
        if b < 0:
            r, b = -r, -b
            rel = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}[rel]
        rows.append(np.asarray(r, dtype=np.float64))
        rels.append(rel)
        rhs.append(b)

    n_slack = sum(1 for r in rels if r != REL_EQ)
    n_art = sum(1 for r in rels if r != REL_LE)
    total = n + n_slack + n_art
    A = np.zeros((m, total))
    b_vec = np.array(rhs)
    basis = [0] * m
    si = n
    ai = n + n_slack
    for i, (row, rel) in enumerate(zip(rows, rels)):
        A[i, :n] = row
        if rel == REL_LE:
            A[i, si] = 1.0
            basis[i] = si
            si += 1
        elif rel == REL_GE:
            A[i, si] = -1.0
            si += 1
            A[i, ai] = 1.0
            basis[i] = ai
            ai += 1
        else:
            A[i, ai] = 1.0
            basis[i] = ai
            ai += 1

    basis_mask = np.zeros(total, dtype=bool)
    basis_mask[basis] = True

    def run(cost: np.ndarray, allowed: int) -> str:
        """Minimize cost over the current tableau, pivoting in place."""
        nonlocal A, b_vec, basis
        basis_arr = np.array(basis)
        for _ in range(max_iter):
            # basis columns form an identity after pivoting, so reduced
            # costs are cost - cost[basis] @ A directly (Bland: smallest
            # eligible index enters)
            red = cost[:allowed] - cost[basis_arr] @ A[:, :allowed]
            eligible = np.nonzero((red < -FEAS_TOL) & ~basis_mask[:allowed])[0]
            if eligible.size == 0:
                return "optimal"
            enter = int(eligible[0])
            col = A[:, enter]
            rows = np.nonzero(col > FEAS_TOL)[0]
            if rows.size == 0:
                return "unbounded"
            ratios = b_vec[rows] / col[rows]
            best = ratios.min()
            ties = rows[ratios <= best + FEAS_TOL]
            leave = int(ties[np.argmin(basis_arr[ties])])  # Bland tie-break
            piv = col[leave]
            A[leave] /= piv
            b_vec[leave] /= piv
            factors = A[:, enter].copy()
            factors[leave] = 0.0
            touched = np.nonzero(np.abs(factors) > 1e-15)[0]
            A[touched] -= factors[touched, None] * A[leave]
            b_vec[touched] -= factors[touched] * b_vec[leave]
            basis_mask[basis_arr[leave]] = False
            basis_mask[enter] = True
            basis_arr[leave] = enter
            basis[leave] = enter
        raise LpError("simplex iteration cap exceeded")

    if n_art:
        phase1 = np.zeros(total)
        phase1[n + n_slack:] = 1.0
        status = run(phase1, total)
        if status != "optimal":
            raise LpError("phase 1 cannot be unbounded")
        if float(phase1[basis] @ b_vec) > 1e-7:
            return LpSolution("infeasible", None, None, False)
        # pivot lingering zero-level artificials out of the basis
        for i in range(m):
            if basis[i] >= n + n_slack:
                j = next(
                    (j for j in range(n + n_slack) if abs(A[i, j]) > FEAS_TOL), None
                )
                if j is not None:
                    piv = A[i, j]
                    A[i] /= piv
                    b_vec[i] /= piv
                    for r in range(m):
                        if r != i and abs(A[r, j]) > 1e-15:
                            f = A[r, j]
                            A[r] -= f * A[i]
                            b_vec[r] -= f * b_vec[i]
                    basis_mask[basis[i]] = False
                    basis_mask[j] = True
                    basis[i] = j

    cost = np.zeros(total)
    cost[:n] = -lp.objective if lp.maximize else lp.objective
    status = run(cost, n + n_slack)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, False)
    values = np.zeros(n)
    for i, bidx in enumerate(basis):
        if bidx < n:
            values[bidx] = b_vec[i]
    obj = float(lp.objective @ values)
    integral = bool(np.all(np.minimum(np.abs(values), np.abs(values - 1.0)) <= INT_TOL))
    return LpSolution("optimal", values, obj, integral)


# --- constraint builders ----------------------------------------------------


def patterns(k: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=k))


def var_u(j: int, i: int, n: int) -> int:
    return j * n + i


def var_s(i: int, pat_index: int, n: int, k: int) -> int:
    return k * n + pat_index * n + i


def num_vars(n: int, k: int) -> int:
    return k * n + n * (1 << k)


def build_type_constraints(t, n: int, k: int) -> list[tuple[dict, str, float]]:
    """The per-position pattern system plus the 2^k count equalities.

    t gives the target count of each pattern (a JointType over {0,1}^k or a
    nested/flat count array in row-major pattern order).
    """
    counts = np.asarray(t.counts if hasattr(t, "counts") else t, dtype=np.int64).reshape(-1)
    if counts.size != 1 << k:
        raise LpError("type must have one count per binary pattern")
    if counts.sum() != n:
        raise LpError("type counts must sum to n")
    out: list[tuple[dict, str, float]] = []
    for p, b in enumerate(patterns(k)):
        for i in range(n):
            s = var_s(i, p, n, k)
            out.append(({s: 1.0}, REL_GE, 0.0))
            for j, bj in enumerate(b):
                u = var_u(j, i, n)
                # box constraint in the direction matching the pattern bit
                if bj == 0:
                    out.append(({u: 1.0}, REL_GE, 0.0))
                else:
                    out.append(({u: 1.0}, REL_LE, 1.0))
            for j, bj in enumerate(b):
                u = var_u(j, i, n)
                sign = -1.0 if bj else 1.0
                out.append(({s: 1.0, u: sign}, REL_LE, 1.0 - bj))
            row = {s: 1.0}
            for j, bj in enumerate(b):
                row[var_u(j, i, n)] = -1.0 if bj else 1.0
            out.append((row, REL_GE, 1.0 - sum(b)))
        out.append(({var_s(i, p, n, k): 1.0 for i in range(n)}, REL_EQ, float(counts[p])))
    return out


def build_parity_constraints(A: FieldMatrix, a, var_offset: int = 0,
                             num_vars_total: int | None = None,
                             degree_cap: int = 12) -> list[tuple[dict, str, float]]:
    """Odd/even-subset inequalities forcing Au = a on integral points."""
    if A.q != 2:
        raise LpError("parity constraints are defined over GF(2)")
    if len(a) != A.rows:
        raise LpError("syndrome length mismatch")
    support: dict[int, list[int]] = {j: [] for j in range(A.rows)}
    for r, c, _ in A.entries:
        support[r].append(c)
    out: list[tuple[dict, str, float]] = []
    for j in range(A.rows):
        N = sorted(support[j])
        if len(N) > degree_cap:
            raise LpError(f"row {j} degree {len(N)} exceeds cap {degree_cap}")
        target = int(a[j]) % 2
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
              fallback_cap: int = 1 << 16, degree_cap: int = 12) -> LpDecodeResult:
    """Minimum-divergence decoding over the coset product by sweeping joint
    types, solving one feasibility LP per type.

    Each type LP has a zero objective, so its solution is the vertex phase 1
    reaches.  Types whose LP is infeasible cannot occur in the coset
    product.  Among types with an integral LP point, the minimum-divergence
    one wins, with types within TIE_TOL of it tied; any fractional point is
    logged (and optionally resolved exhaustively with
    fallback='exhaustive').  The output tuple is the lexicographically first
    coset-product member carrying a winning type, matching the exhaustive
    decoder's tie rule.
    """
    k = len(matrices)
    if any(s != 2 for s in mu.shape) or len(mu.shape) != k:
        raise LpError("the LP decoder needs one binary alphabet per terminal")
    n = matrices[0].cols
    if any(m.cols != n or m.q != 2 for m in matrices):
        raise LpError("matrices must be binary with a common n")
    nv = num_vars(n, k)
    parity = []
    for j, (m, a) in enumerate(zip(matrices, syndromes)):
        parity += build_parity_constraints(m, a, var_offset=j * n, degree_cap=degree_cap)

    log = []
    feasible: list[tuple[float, tuple, bool]] = []  # (divergence, type, certified)
    all_integral = True
    for t in compositions(n, 1 << k):
        d = divergence(np.asarray(t) / n, mu)
        lp = LinearProgram(num_vars=nv, objective=np.zeros(nv))
        for row, rel, rhs in build_type_constraints(t, n, k) + parity:
            lp.add(row, rel, rhs)
        sol = simplex_solve(lp)
        entry = {"type": t, "divergence": d, "status": sol.status,
                 "integral": sol.integral}
        if sol.status == "optimal":
            if sol.integral:
                feasible.append((d, t, True))
            else:
                all_integral = False
                entry["fractional_point"] = tuple(float(v) for v in sol.values)
                if fallback == "exhaustive" and _type_occurs(
                    matrices, syndromes, t, fallback_cap
                ):
                    feasible.append((d, t, False))
        log.append(entry)

    finite = [(d, t) for d, t, _ in feasible if not math.isinf(d)]
    pool = finite if finite else [(d, t) for d, t, _ in feasible]
    if not pool:
        return LpDecodeResult(x_hat=None, divergence=math.inf, all_integral=all_integral,
                              error=True, type_log=tuple(log))
    best_d = min(d for d, _ in pool)
    winners = {t for d, t in pool if d <= best_d + TIE_TOL}
    x_hat = _first_member_with_type(matrices, syndromes, winners, fallback_cap)
    return LpDecodeResult(x_hat=x_hat, divergence=best_d, all_integral=all_integral,
                          error=False, type_log=tuple(log))


def _type_hits(matrices, syndromes, types, cap: int):
    """The coset product's factors and, per candidate in product order,
    whether its joint type is in ``types``; None if the product is empty."""
    factors = coset_factors(matrices, syndromes, cap, LpError)
    if factors is None:
        return None
    ncells = 1 << len(matrices)
    wanted = np.array(sorted(types), dtype=np.int64).reshape(-1, ncells)

    def hit(cells):
        counts = cell_counts(cells, ncells)
        return (counts[:, None, :] == wanted[None]).all(axis=2).any(axis=1)

    return factors, product_scores(factors, (2,) * len(matrices), hit)


def _type_occurs(matrices, syndromes, t, cap: int) -> bool:
    found = _type_hits(matrices, syndromes, {tuple(t)}, cap)
    return found is not None and bool(found[1].any())


def _first_member_with_type(matrices, syndromes, winners: set, cap: int):
    found = _type_hits(matrices, syndromes, winners, cap)
    if found is None or not found[1].any():
        return None
    factors, hits = found
    return product_member(factors, int(np.flatnonzero(hits)[0]))


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
    # constraint rows as (normal, rel, rhs) with variables (s, u_1..u_k)
    cons: list[tuple[np.ndarray, str, float]] = []
    e = lambda idx: np.eye(dim)[idx]
    cons.append((e(0), REL_GE, 0.0))
    for j, bj in enumerate(b):
        cons.append((e(j + 1), REL_GE if bj == 0 else REL_LE, 0.0 if bj == 0 else 1.0))
    for j, bj in enumerate(b):
        cons.append((e(0) + (-1.0 if bj else 1.0) * e(j + 1), REL_LE, 1.0 - bj))
    row = e(0).copy()
    for j, bj in enumerate(b):
        row += (-1.0 if bj else 1.0) * e(j + 1)
    cons.append((row, REL_GE, float(1 - sum(b))))

    def satisfied(x) -> bool:
        for normal, rel, rhs in cons:
            v = float(normal @ x)
            if rel == REL_LE and v > rhs + 1e-9:
                return False
            if rel == REL_GE and v < rhs - 1e-9:
                return False
        return True

    vertices = set()
    for subset in itertools.combinations(range(len(cons)), dim):
        M = np.array([cons[i][0] for i in subset])
        r = np.array([cons[i][2] for i in subset])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, r)
        if satisfied(x):
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
