"""Method-of-types toolkit: empirical distributions, entropies, divergences,
typical-set predicates, and the slack functions used by the finite-length
bound checks.

All information quantities are in bits (base-2 logarithms) and follow the
conventions 0*log(0) = 0 and p > 0 with reference mass 0 giving +inf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MASS_TOL = 1e-12


class DistributionError(ValueError):
    """Invalid probability table or shape mismatch."""


class Distribution:
    """A finite probability mass table; shape gives per-coordinate alphabets."""

    def __init__(self, table) -> None:
        arr = np.asarray(table, dtype=np.float64)
        if arr.size == 0:
            raise DistributionError("empty probability table")
        if (arr < 0).any():
            raise DistributionError("negative probability mass")
        if abs(float(arr.sum()) - 1.0) > MASS_TOL:
            raise DistributionError(f"total mass {arr.sum()} is not 1")
        self.table = arr
        self.table.setflags(write=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.table.shape

    def __getitem__(self, idx):
        return self.table[idx]

    def marginal(self, axes: Sequence[int]) -> "Distribution":
        """Marginal over the kept axes (in their original order)."""
        keep = tuple(axes)
        drop = tuple(i for i in range(self.table.ndim) if i not in keep)
        marg = self.table.sum(axis=drop) if drop else self.table
        # sum() preserves kept-axis order, which may differ from `axes`
        order = tuple(sorted(range(len(keep)), key=lambda i: keep[i]))
        inverse = tuple(order.index(i) for i in range(len(keep)))
        return Distribution(np.transpose(marg, inverse))

    def conditional(self, target_axes: Sequence[int], given_axes: Sequence[int]) -> "CondDistribution":
        """q(target | given) with the given coordinates flattened into one
        trailing axis; zero-mass contexts get a uniform placeholder column."""
        joint = self.marginal(tuple(target_axes) + tuple(given_axes))
        t = len(target_axes)
        tab = joint.table
        tshape = tab.shape[:t]
        gshape = tab.shape[t:]
        flat = tab.reshape(int(np.prod(tshape)), int(np.prod(gshape)) if gshape else 1)
        col = flat.sum(axis=0)
        out = np.empty_like(flat)
        for j in range(flat.shape[1]):
            out[:, j] = flat[:, j] / col[j] if col[j] > 0 else 1.0 / flat.shape[0]
        return CondDistribution(out.reshape(tshape + (flat.shape[1],)), given_shape=gshape)


class CondDistribution:
    """Conditional mass table; the LAST axis indexes the conditioning symbol
    and every slice [..., v] sums to 1."""

    def __init__(self, table, given_shape: tuple[int, ...] | None = None) -> None:
        arr = np.asarray(table, dtype=np.float64)
        if (arr < 0).any():
            raise DistributionError("negative conditional mass")
        cols = arr.reshape(-1, arr.shape[-1]).sum(axis=0)
        if np.abs(cols - 1.0).max() > 1e-9:
            raise DistributionError("conditional slices must each sum to 1")
        self.table = arr
        self.table.setflags(write=False)
        self.given_shape = given_shape if given_shape is not None else (arr.shape[-1],)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.table.shape

    def __getitem__(self, idx):
        return self.table[idx]

    def slice(self, v: int) -> np.ndarray:
        return self.table[..., v]


@dataclass(frozen=True)
class JointType:
    """Occurrence counts of symbol tuples in aligned length-n sequences."""

    n: int
    counts: tuple  # nested tuple mirroring the alphabet shape

    def table(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)

    def empirical(self) -> np.ndarray:
        return self.table() / self.n


@dataclass(frozen=True)
class TypicalityParams:
    gamma: float
    gamma_cond: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma < 0 or self.gamma_cond < 0:
            raise DistributionError("typicality slack must be nonnegative")


def _as_nested(arr: np.ndarray):
    return tuple(arr.tolist()) if arr.ndim == 1 else tuple(_as_nested(a) for a in arr)


def joint_type(sequences: Sequence[Sequence[int]], sizes: Sequence[int]) -> JointType:
    """Exact occurrence counts of each aligned k-tuple."""
    k = len(sequences)
    if k != len(sizes):
        raise DistributionError("one alphabet size per sequence is required")
    n = len(sequences[0])
    if any(len(s) != n for s in sequences):
        raise DistributionError("sequences must have equal length")
    counts = np.zeros(tuple(sizes), dtype=np.int64)
    for symbols in zip(*sequences):
        counts[symbols] += 1
    return JointType(n=n, counts=_as_nested(counts))


# --- count-lookup scoring of candidate products -----------------------------
#
# A minimum-divergence or maximum-likelihood search scores each candidate of
# a product of row sets (coset members) through its joint type.  Candidates
# are materialized SCORE_CHUNK at a time as flat cell indices, one bincount
# gives their cell counts, and a divergence is a sum of per-cell lookups
# term[count], added in flat cell order.  The tables hold the Python floats
# that ``divergence`` computes, so every score equals
# ``divergence(joint_type(...).empirical(), p_ref)`` bit for bit.

SCORE_CHUNK = 1 << 14  # candidates materialized at once


def product_scores(factors: Sequence[np.ndarray], shape: Sequence[int], score) -> np.ndarray:
    """One value per candidate of ``factors[0] x factors[1] x ...`` in
    ``itertools.product`` order.

    Factor j is an (m_j, n) array of symbols on axis j of ``shape``; ``score``
    maps a (rows, n) array of flat cell indices to one value per row.
    """
    sizes = tuple(len(f) for f in factors)
    total = math.prod(sizes)
    out = None
    for start in range(0, total, SCORE_CHUNK):
        rows = np.unravel_index(np.arange(start, min(start + SCORE_CHUNK, total)), sizes)
        cells = np.ravel_multi_index(tuple(f[r] for f, r in zip(factors, rows)), tuple(shape))
        values = score(cells)
        if out is None:
            out = np.empty(total, dtype=values.dtype)
        out[start:start + len(values)] = values
    return out


def product_member(factors: Sequence[np.ndarray], index: int) -> tuple:
    """Candidate ``index`` of the product, as a tuple of symbol tuples."""
    rows = np.unravel_index(index, tuple(len(f) for f in factors))
    return tuple(tuple(f[r].tolist()) for f, r in zip(factors, rows))


def cell_counts(cells: np.ndarray, ncells: int) -> np.ndarray:
    """(rows, n) flat cell indices -> (rows, ncells) joint-type counts."""
    rows = len(cells)
    shifted = cells + (np.arange(rows) * ncells)[:, None]
    return np.bincount(shifted.ravel(), minlength=rows * ncells).reshape(rows, ncells)


@lru_cache(maxsize=4096)
def cell_terms(mass: float, n: int) -> np.ndarray:
    """term[c] = (c/n) log2((c/n) / mass) for c = 0..n: 0 at c = 0, inf for
    c > 0 when mass = 0."""
    terms = [0.0]
    for c in range(1, n + 1):
        x = c / n
        terms.append(x * math.log2(x / mass) if mass > 0 else math.inf)
    out = np.array(terms)
    out.setflags(write=False)
    return out


def type_divergences(counts: np.ndarray, p_ref: Distribution) -> np.ndarray:
    """divergence(row / n, p_ref) for every row of a nonempty counts array."""
    n = int(counts[0].sum())
    d = np.zeros(len(counts))
    for cell, mass in enumerate(p_ref.table.reshape(-1).tolist()):
        d += cell_terms(mass, n)[counts[:, cell]]
    return d


def product_divergences(factors: Sequence[np.ndarray], p_ref: Distribution) -> np.ndarray:
    """Joint-type divergence from ``p_ref`` of every candidate of the product."""
    ncells = p_ref.table.size
    return product_scores(factors, p_ref.shape,
                          lambda cells: type_divergences(cell_counts(cells, ncells), p_ref))


def empirical(sequence: Sequence[int], size: int) -> np.ndarray:
    counts = np.bincount(np.asarray(sequence, dtype=np.int64), minlength=size)
    return counts / len(sequence)


def entropy(p) -> float:
    arr = p.table if isinstance(p, Distribution) else np.asarray(p, dtype=np.float64)
    mask = arr > 0
    return float(-(arr[mask] * np.log2(arr[mask])).sum())


def cond_entropy(q: CondDistribution, p) -> float:
    parr = p.table if isinstance(p, Distribution) else np.asarray(p, dtype=np.float64)
    pflat = parr.reshape(-1)
    total = 0.0
    for v in range(q.table.shape[-1]):
        if pflat[v] > 0:
            total += pflat[v] * entropy(q.slice(v).reshape(-1) / q.slice(v).sum())
    return total


def divergence(p, p_ref) -> float:
    a = (p.table if isinstance(p, Distribution) else np.asarray(p, dtype=np.float64)).reshape(-1)
    b = (p_ref.table if isinstance(p_ref, Distribution) else np.asarray(p_ref, dtype=np.float64)).reshape(-1)
    total = 0.0
    for x, y in zip(a, b):
        if x > 0:
            if y <= 0:
                return math.inf
            total += x * math.log2(x / y)
    return total


def cond_divergence(q, q_ref, p) -> float:
    """D(q || q_ref | p): weights by p over the conditioning symbol, summing
    only over contexts with positive weight."""
    qt = q.table if isinstance(q, CondDistribution) else np.asarray(q, dtype=np.float64)
    rt = q_ref.table if isinstance(q_ref, CondDistribution) else np.asarray(q_ref, dtype=np.float64)
    pt = (p.table if isinstance(p, Distribution) else np.asarray(p, dtype=np.float64)).reshape(-1)
    total = 0.0
    for v in range(qt.shape[-1]):
        if pt[v] > 0:
            d = divergence(qt[..., v].reshape(-1), rt[..., v].reshape(-1))
            if math.isinf(d):
                return math.inf
            total += pt[v] * d
    return total


def mutual_information(joint: Distribution) -> float:
    """I between axis 0 and axis 1 of a two-axis joint table."""
    pu = joint.marginal((0,))
    pv = joint.marginal((1,))
    return entropy(pu) + entropy(pv) - entropy(joint)


def is_typical(x: Sequence[int], mu: Distribution, params: TypicalityParams) -> bool:
    nu = empirical(x, int(np.prod(mu.shape)))
    return divergence(nu, mu.table.reshape(-1)) < params.gamma


def is_joint_typical(xs: Sequence[Sequence[int]], mu: Distribution, params: TypicalityParams) -> bool:
    t = joint_type(xs, mu.shape)
    return divergence(t.empirical().reshape(-1), mu.table.reshape(-1)) < params.gamma


def is_cond_typical(
    x: Sequence[int],
    context: Sequence[int],
    mu_cond: CondDistribution,
    params: TypicalityParams,
) -> bool:
    """True iff D(nu_{x|context} || mu_cond | nu_context) < gamma_cond."""
    usize = int(np.prod(mu_cond.table.shape[:-1]))
    vsize = mu_cond.table.shape[-1]
    t = joint_type([x, context], (usize, vsize)).table()
    nu_v = t.sum(axis=0) / len(x)
    total = 0.0
    for v in range(vsize):
        if nu_v[v] > 0:
            nu_uv = t[:, v] / t[:, v].sum()
            d = divergence(nu_uv, mu_cond.table.reshape(usize, vsize)[:, v])
            if math.isinf(d):
                return False
            total += nu_v[v] * d
    return total < params.gamma_cond


# --- slack functions -------------------------------------------------------

def lambda_slack(size: int, n: int) -> float:
    return size * math.log2(n + 1) / n


def zeta_slack(size: int, gamma: float) -> float:
    if gamma == 0:
        return 0.0
    root = math.sqrt(2 * gamma)
    return gamma - root * math.log2(root / size)


def zeta_cond_slack(usize: int, vsize: int, gamma_cond: float, gamma: float) -> float:
    first = 0.0
    if gamma_cond > 0:
        root = math.sqrt(2 * gamma_cond)
        first = gamma_cond - root * math.log2(root / (usize * vsize))
    return first + math.sqrt(2 * gamma) * math.log2(usize)


def eta_slack(size: int, gamma: float, n: int) -> float:
    first = 0.0
    if gamma > 0:
        root = math.sqrt(2 * gamma)
        first = -root * math.log2(root / size)
    return first + size * math.log2(n + 1) / n


def eta_cond_slack(usize: int, vsize: int, gamma_cond: float, gamma: float, n: int) -> float:
    first = 0.0
    if gamma_cond > 0:
        root = math.sqrt(2 * gamma_cond)
        first = -root * math.log2(root / (usize * vsize))
    return first + math.sqrt(2 * gamma) * math.log2(usize) + usize * vsize * math.log2(n + 1) / n


def slack_functions(which: str, sizes, n: int, gamma: float = 0.0, gamma_cond: float = 0.0) -> float:
    """Dispatch on a slack-function name: lambda, zeta, zeta_cond, eta, eta_cond."""
    if which == "lambda":
        return lambda_slack(sizes if isinstance(sizes, int) else int(np.prod(sizes)), n)
    if which == "zeta":
        return zeta_slack(sizes if isinstance(sizes, int) else int(np.prod(sizes)), gamma)
    if which == "zeta_cond":
        return zeta_cond_slack(sizes[0], sizes[1], gamma_cond, gamma)
    if which == "eta":
        return eta_slack(sizes if isinstance(sizes, int) else int(np.prod(sizes)), gamma, n)
    if which == "eta_cond":
        return eta_cond_slack(sizes[0], sizes[1], gamma_cond, gamma, n)
    raise DistributionError(f"unknown slack function {which!r}")


# --- exhaustive checks of the finite-length typicality bounds --------------

def compositions(n: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All length-``parts`` count vectors summing to n (the length-n types),
    in lexicographic order."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in compositions(n - head, parts - 1):
            yield (head,) + tail


def _log2_multinomial(t: Sequence[int]) -> float:
    n = sum(t)
    total = math.lgamma(n + 1)
    for c in t:
        total -= math.lgamma(c + 1)
    return total / math.log(2)


def type_census(mu: np.ndarray, n: int):
    """Per-type (count, probability-mass, divergence) over all length-n types."""
    flat = mu.reshape(-1)
    out = []
    for t in compositions(n, flat.size):
        nu = np.asarray(t) / n
        d = divergence(nu, flat)
        log_count = _log2_multinomial(t)
        mass = 0.0
        if not math.isinf(d):
            log_mass = sum(c * math.log2(p) for c, p in zip(t, flat) if c > 0)
            mass = 2.0 ** (log_count + log_mass)
        out.append((t, round(2.0 ** log_count), mass, d))
    return out


def verify_typicality_bounds(
    lemma: str,
    mu: Distribution,
    gamma: float,
    n: int,
    gamma_cond: float = 0.0,
    cap: int = 2 ** 22,
) -> dict:
    """Exhaustively check one of the finite-length typicality bounds.

    lemma: 'prob' (tail mass), 'aep' (per-sequence log-probability sandwich),
    'number' (typical-set cardinality sandwich), or 'trans' (inclusion rules
    between joint, marginal and conditional typical sets; needs a two-axis mu).
    """
    flat = mu.table.reshape(-1)
    size = flat.size
    if lemma in ("prob", "aep", "number") and size ** n > cap:
        raise DistributionError("instance too large for exhaustive verification")

    if lemma == "prob":
        census = type_census(mu.table, n)
        lhs = sum(mass for _, _, mass, d in census if d >= gamma)
        rhs = 2.0 ** (-n * (gamma - lambda_slack(size, n)))
        return {"holds": lhs <= rhs + 1e-12, "lhs": lhs, "rhs": rhs}

    if lemma == "aep":
        h = entropy(mu)
        rhs = zeta_slack(size, gamma)
        lhs = 0.0
        for t, _, _, d in type_census(mu.table, n):
            if d < gamma:
                cross = sum(
                    c / n * -math.log2(flat[i]) for i, c in enumerate(t) if c > 0
                )
                lhs = max(lhs, abs(cross - h))
        return {"holds": lhs <= rhs + 1e-12, "lhs": lhs, "rhs": rhs}

    if lemma == "number":
        h = entropy(mu)
        eta = eta_slack(size, gamma, n)
        count = sum(c for _, c, _, d in type_census(mu.table, n) if d < gamma)
        lower = 2.0 ** (n * (h - eta))
        upper = 2.0 ** (n * (h + eta))
        holds = lower <= count + 1e-9 and count <= upper + 1e-9
        return {"holds": holds, "lhs": float(count), "rhs": upper, "lower": lower}

    if lemma == "trans":
        if mu.table.ndim != 2:
            raise DistributionError("trans check needs a two-axis joint distribution")
        usize, vsize = mu.table.shape
        if (usize * vsize) ** n > cap:
            raise DistributionError("instance too large for exhaustive verification")
        mu_v = mu.marginal((1,))
        mu_uv = mu.conditional((0,), (1,))
        p_joint = TypicalityParams(gamma + gamma_cond)
        p_g = TypicalityParams(gamma, gamma)
        p_cond = TypicalityParams(gamma, gamma_cond)
        violations = 0
        total = 0
        for u in itertools.product(range(usize), repeat=n):
            for v in itertools.product(range(vsize), repeat=n):
                total += 1
                v_typ = is_typical(v, mu_v, TypicalityParams(gamma))
                uv_cond = is_cond_typical(u, v, mu_uv, p_cond)
                joint_small = is_joint_typical([u, v], mu, p_g)
                if v_typ and uv_cond and not is_joint_typical([u, v], mu, p_joint):
                    violations += 1
                if joint_small:
                    if not is_typical(u, mu.marginal((0,)), TypicalityParams(gamma)):
                        violations += 1
                    if not is_cond_typical(u, v, mu_uv, p_g):
                        violations += 1
        return {"holds": violations == 0, "lhs": float(violations), "rhs": 0.0,
                "pairs": total}

    raise DistributionError(f"unknown typicality lemma {lemma!r}")
