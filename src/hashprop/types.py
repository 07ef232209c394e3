"""Method-of-types toolkit: empirical distributions, the table of type
classes, the joint-type key scorer with its one table builder
(``type_tables``), entropies, divergences, typical-set predicates, and the
slack functions used by the finite-length bound checks.

All information quantities are in bits (base-2 logarithms) and follow the
conventions 0*log(0) = 0 and p > 0 with reference mass 0 giving +inf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

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
        if not np.isfinite(arr).all():
            raise DistributionError("non-finite probability mass")
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
        return CondDistribution(out.reshape(tshape + (flat.shape[1],)))


class CondDistribution:
    """Conditional mass table; the LAST axis indexes the conditioning symbol
    and every slice [..., v] sums to 1."""

    def __init__(self, table) -> None:
        arr = np.asarray(table, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise DistributionError("non-finite conditional mass")
        if (arr < 0).any():
            raise DistributionError("negative conditional mass")
        cols = arr.reshape(-1, arr.shape[-1]).sum(axis=0)
        if np.abs(cols - 1.0).max() > 1e-9:
            raise DistributionError("conditional slices must each sum to 1")
        self.table = arr
        self.table.setflags(write=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.table.shape

    def __getitem__(self, idx):
        return self.table[idx]


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


# --- type classes ------------------------------------------------------------

class TypeClasses(NamedTuple):
    """The length-n types over ``parts`` cells, in table order (the count
    vectors in lexicographic order): ``counts`` is a read-only (types,
    parts) int64 array of their count vectors, and ``sizes`` holds the exact
    size of each type class, the multinomial n! / prod_c t_c!, as Python
    ints.  A type's row in this table is its one name: ``type_rows`` maps
    lookup-group keys to it."""

    counts: np.ndarray
    sizes: tuple[int, ...]


@lru_cache(maxsize=256)
def type_classes(n: int, parts: int) -> TypeClasses:
    """The one table of length-n type classes over ``parts`` cells; every
    walk over joint types reads it.  The count vectors are the gaps between
    parts - 1 bars placed among n + parts - 1 slots, bar positions in
    ``itertools.combinations`` order, which is the lexicographic order of
    the counts.  A class size is the product over the cells of
    comb(t_0 + ... + t_c, t_c)."""
    slots = n + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=np.int64)
    counts = np.diff(bars.reshape(len(bars), parts - 1), axis=1, prepend=-1, append=slots) - 1
    counts.setflags(write=False)
    sizes = tuple(math.prod(map(math.comb, itertools.accumulate(t), t))
                  for t in counts.tolist())
    return TypeClasses(counts, sizes)


# --- joint-type key scoring of candidate products ---------------------------
#
# A minimum-divergence or maximum-likelihood search scores each candidate of
# a product of row sets (coset members) through its joint type.  A batch of
# D searches is scored at once; callers slice a batch (``row_groups``) and
# ``product_keys`` slices a product's candidates, so that at most
# SCORE_CHUNK candidates are keyed at a time.  The cells of a joint type
# fall into lookup groups (``type_key_groups``).  In each group, one float32
# matmul of 0/1 indicators gives every candidate's key, and the key indexes
# a table of the group's summed per-cell terms (``type_tables``, cached per
# law, n and chunk, and read by the decoders and ``sw_error_exact``).  Each
# table entry adds its cells' terms in flat cell order from 0.0, and the
# groups follow that order, so a score is added as a per-cell loop adds it.
# The divergence tables hold the Python floats that ``divergence`` computes,
# so every divergence equals ``divergence(joint_type(...).empirical(),
# p_ref)`` bit for bit, whatever the batch or slice; candidates of the same
# joint type get bit-equal scores, and ``first_best`` decides.

SCORE_CHUNK = 1 << 14  # candidates keyed at once; entries of a keyed run's table
# mathematically tied scores of different joint types can differ in their
# last ulps, as their cells are added in a different order; scores within
# TIE_TOL of the optimum tie, so the lexicographic rule is what decides
TIE_TOL = 1e-12


def first_best(costs: np.ndarray) -> np.ndarray:
    """Per row of ``costs`` (last axis: candidates), the index of the first
    cost within TIE_TOL of the row's minimum; NaN marks a non-candidate, and
    a row without a candidate gives -1.

    Candidates costed in ``itertools.product`` order of lex-sorted factors
    make this the lexicographically first optimal candidate; when every
    candidate's cost is infinite, it is the first candidate.
    """
    best = np.fmin.reduce(costs, axis=-1, keepdims=True)  # NaN only for a row of NaN
    first = (costs <= best + TIE_TOL).argmax(axis=-1)
    return np.where(np.isnan(best[..., 0]), -1, first)


class TieClasses(NamedTuple):
    """The tie class of every key of a one-group score table: ``ids`` is a
    read-only array of small unsigned ints indexed by the key, and
    ``blank``, the largest id, marks a non-candidate (and a key no type
    has)."""

    ids: np.ndarray
    blank: int


def tie_classes(terms, masses: tuple, n: int) -> TieClasses | None:
    """The tie classes of the costs a decoder minimizes when every cell of
    the flat law ``masses`` is in one lookup group: the ``type_tables`` sums
    of ``cell_terms`` (divergences), or the negated sums of
    ``cell_log_masses``; callers check that the cells form one group.

    Classes are numbered by increasing cost: a class starts at the least
    cost above the last class's least cost + TIE_TOL, +inf has one class
    above the finite ones, and ``blank`` is one above that.  Then the first
    least id of a row of ids (its argmin) is the ``first_best`` of the row's
    costs, and a least id of ``blank`` means no candidate, as long as no
    class's largest cost + TIE_TOL reaches the next class; when one does,
    the classes are not separated and this is None.  The classes are cached
    per law, n and TIE_TOL."""
    return _tie_classes(terms, masses, n, TIE_TOL)


@lru_cache(maxsize=256)
def _tie_classes(terms, masses: tuple, n: int, tol: float) -> TieClasses | None:
    costs = _type_sums(terms, n, np.array(masses))
    if terms is cell_log_masses:
        costs = -costs
    starts: list[float] = []  # the least cost of each finite class
    for cost in np.sort(costs[np.isfinite(costs)]).tolist():
        if not starts or cost > starts[-1] + tol:
            if starts and last + tol >= cost:
                return None
            starts.append(cost)
        last = cost
    ids = np.where(np.isfinite(costs), np.searchsorted(starts, costs, side="right") - 1,
                   len(starts))
    blank = len(starts) + 1
    lookup = _row_lookup(n, len(masses), (tuple(range(len(masses))),))
    keyed = np.where(lookup >= 0, ids[lookup], blank).astype(np.min_scalar_type(blank))
    keyed.setflags(write=False)
    return TieClasses(keyed, blank)


def row_groups(rows: int, per_row: int) -> list[slice]:
    """Slices of a batch of ``rows`` searches of ``per_row`` candidates each,
    so that a slice holds at most SCORE_CHUNK candidates (or one row)."""
    step = max(1, SCORE_CHUNK // max(1, per_row))
    return [slice(i, i + step) for i in range(0, rows, step)]


def type_key_groups(ncells: int, n: int, limit: int | None = None) -> list[tuple[int, ...]]:
    """The lookup groups of a length-n joint type over ``ncells`` cells: the
    longest leading run of cells whose key table has at most ``limit``
    (default SCORE_CHUNK) entries, then each other cell alone.  A group's
    key is sum_i count_i (n+1)^i over its cells, but for a group of every
    cell the last is left out: its count is n minus the others."""
    limit = SCORE_CHUNK if limit is None else limit
    keyed = ncells - 1
    while keyed and (n + 1) ** keyed > limit:
        keyed -= 1
    if keyed == ncells - 1:
        return [tuple(range(ncells))]
    run = [tuple(range(keyed))] if keyed else []
    return run + [(cell,) for cell in range(keyed, ncells)]


def key_weights(cells: Sequence[int], ncells: int, n: int) -> np.ndarray:
    """(ncells,) int64: the weight of each cell's count in the key of the
    lookup group ``cells``, (n+1)^i for its i-th keyed cell and 0 off it."""
    keyed = list(cells[:-1] if len(cells) == ncells else cells)
    weights = np.zeros(ncells, dtype=np.int64)
    weights[keyed] = (n + 1) ** np.arange(len(keyed))
    return weights


@lru_cache(maxsize=64)
def _row_lookup(n: int, ncells: int, groups: tuple):
    """The row of every key of ``type_rows``: an array indexed by the key
    when ``groups`` is one group of every cell, else a dict from the tuple
    of group keys.  The groups are part of the cache key, as they follow
    SCORE_CHUNK."""
    counts = type_classes(n, ncells).counts
    keys = [counts @ key_weights(cells, ncells, n) for cells in groups]
    if len(groups) == 1:
        lookup = np.full((n + 1) ** (ncells - 1), -1, dtype=np.intp)
        lookup[keys[0]] = np.arange(len(counts))
        lookup.setflags(write=False)
        return lookup
    return dict(zip(zip(*(key.tolist() for key in keys)), range(len(counts))))


def type_rows(keys: Sequence[np.ndarray], n: int, ncells: int, groups) -> np.ndarray:
    """The row in ``type_classes(n, ncells)`` of each candidate whose keys
    in the lookup groups ``groups`` are ``keys``, one int array per group,
    all of one shape; the rows have that shape.  Modules outside ``types``
    name a joint type by this row and never read the key format."""
    lookup = _row_lookup(n, ncells, tuple(map(tuple, groups)))
    if len(groups) == 1:
        return lookup[keys[0]]
    rows = [lookup[key] for key in zip(*(np.ravel(key).tolist() for key in keys))]
    return np.array(rows, dtype=np.intp).reshape(np.shape(keys[0]))


def lead_rows(heads: Sequence[np.ndarray], sizes: Sequence[int], n: int) -> np.ndarray:
    """(D, R, n x leading cells) float32: row r of batch row d is the 0/1
    indicator, per position and flat cell of the leading axes, of the
    sequences heads[j][d, r], axis j having sizes[j] symbols (a head with
    one batch row serves every row).  Without heads, one all-ones row."""
    if not heads:
        return np.ones((1, 1, n), dtype=np.float32)
    rows = (heads[0][..., None] == np.arange(sizes[0])).astype(np.float32)
    for head, size in zip(heads[1:], sizes[1:]):
        rows = rows[..., None] * (head[..., None] == np.arange(size))[..., None, :]
        rows = rows.reshape(rows.shape[:3] + (-1,))
    return rows.reshape(rows.shape[:2] + (-1,))


def key_columns(last: np.ndarray, shape: Sequence[int], groups) -> list[np.ndarray]:
    """Per lookup group, a (D, n x leading cells, m) float32 array: the key
    weight that each position and flat leading cell of a ``lead_rows`` row
    adds, for each member of ``last``, a (D, m, n) array of symbols on the
    last axis of ``shape``.  Their float32 products sum exactly: every key
    is an integer below 2^24."""
    n, ncells = last.shape[2], math.prod(shape)
    return [np.take(key_weights(cells, ncells, n).reshape(-1, shape[-1]).astype(np.float32),
                    last.transpose(0, 2, 1), axis=1).transpose(1, 2, 0, 3)
            .reshape(len(last), -1, last.shape[1]) for cells in groups]


def product_keys(factors: Sequence[np.ndarray], shape: Sequence[int], groups):
    """The lookup-group keys of every candidate of every batch row's
    product, candidates in ``itertools.product`` order, as ``(span, keys)``
    pieces: ``span`` slices the flat candidate index and ``keys`` holds, per
    group of ``groups``, a (D, span length) int array.

    Factor j is a (D or 1, m_j, n) array of symbols on axis j of ``shape``;
    a factor with one row serves every batch row.  A piece covers at most
    max(1, SCORE_CHUNK // D) candidates per row: whole runs of the last
    factor when they fit, else slices of it.  A group's keys are one matmul
    of the leading factors' ``lead_rows`` with the last factor's
    ``key_columns``, which are built once.
    """
    rows, n = max(len(f) for f in factors), factors[0].shape[2]
    sizes = [f.shape[1] for f in factors]
    leads, last = math.prod(sizes[:-1]), sizes[-1]
    step = max(1, SCORE_CHUNK // rows)
    lead_step, last_step = (max(1, step // last), last) if last <= step else (1, step)
    cols = key_columns(factors[-1], shape, groups)
    for a0 in range(0, leads, lead_step):
        a1 = min(a0 + lead_step, leads)
        picks = np.unravel_index(np.arange(a0, a1), sizes[:-1]) if len(sizes) > 1 else ()
        lead = lead_rows([f[:, r] for f, r in zip(factors, picks)], shape[:-1], n)
        for s0 in range(0, last, last_step):
            s1 = min(s0 + last_step, last)
            yield (slice(a0 * last + s0, (a1 - 1) * last + s1),
                   [(lead @ col[:, :, s0:s1]).astype(np.intp).reshape(rows, -1) for col in cols])


def product_valid(kept: Sequence[np.ndarray]) -> np.ndarray:
    """(D, M): whether each candidate of the product is made of kept
    members, from one (D or 1, m_j) mask per factor."""
    valid = kept[0]
    for k in kept[1:]:
        valid = (valid[:, :, None] & k[:, None, :]).reshape(max(len(valid), len(k)), -1)
    return valid


def product_members(factors: Sequence[np.ndarray], index) -> np.ndarray:
    """(D, k, n): candidate ``index[d]`` of batch row d's product."""
    index = np.asarray(index)
    rows = np.arange(len(index))
    picks = np.unravel_index(index, tuple(f.shape[1] for f in factors))
    return np.stack([f[rows if len(f) > 1 else 0, r] for f, r in zip(factors, picks)], axis=1)


def product_best(factors: Sequence[np.ndarray], costs: np.ndarray,
                 valid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per batch row, the ``first_best`` of the product's ``valid``
    candidates: ``(members, cost, failed)``, with members (D, k, n); a row
    without a valid candidate is ``failed``, and its members and cost mean
    nothing."""
    costs = np.where(valid, costs, np.nan)
    winner = first_best(costs)
    failed = winner < 0
    winner = np.maximum(winner, 0)
    return (product_members(factors, winner), costs[np.arange(len(winner)), winner], failed)


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


@lru_cache(maxsize=4096)
def cell_log_masses(mass: float, n: int) -> np.ndarray:
    """term[c] = c log2(mass) for c = 0..n: 0 at c = 0, -inf for c > 0 when
    mass = 0."""
    log_mass = math.log2(mass) if mass > 0 else -math.inf
    out = np.array([0.0] + [c * log_mass for c in range(1, n + 1)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4096)
def type_tables(terms, masses: tuple, n: int, chunk: int) -> tuple[tuple[tuple, np.ndarray], ...]:
    """Per lookup group of ``type_key_groups(len(masses), n, chunk)``,
    ``(cells, table)``: the table maps the key of every count vector a
    length-n joint type can give to the sum of ``terms(masses[c], n)`` at
    count_c over the group's cells c, added in cell order from 0.0.
    ``terms`` is ``cell_terms`` or ``cell_log_masses`` and ``masses`` the
    flat law.  Every scorer passes SCORE_CHUNK, so the decoders and
    ``sw_error_exact`` share one cached table per law and n; the chunk is
    part of the cache key, as it decides the groups."""
    out = []
    for cells in type_key_groups(len(masses), n, chunk):
        keyed = len(cells) - (len(cells) == len(masses))
        counts = type_classes(n, keyed + 1).counts
        sums = np.zeros(len(counts))
        for cell, count in zip(cells, counts.T):
            sums += terms(masses[cell], n)[count]
        table = np.zeros((n + 1) ** keyed)
        table[counts[:, :keyed] @ (n + 1) ** np.arange(keyed)] = sums
        table.setflags(write=False)
        out.append((cells, table))
    return tuple(out)


def _product_array(factors, terms, table: np.ndarray) -> np.ndarray:
    """(D, M) sums of the per-cell ``terms`` of every candidate's joint type
    under the cell masses ``table``: per ``product_keys`` piece, one lookup
    per group of ``type_tables``, added in group order."""
    tables = type_tables(terms, tuple(table.reshape(-1).tolist()), factors[0].shape[2],
                         SCORE_CHUNK)
    out = np.empty((max(len(f) for f in factors), math.prod(f.shape[1] for f in factors)))
    for span, keys in product_keys(factors, table.shape, [cells for cells, _ in tables]):
        values = tables[0][1].take(keys[0])
        for key, (_, group_table) in zip(keys[1:], tables[1:]):
            values += group_table.take(key)
        out[:, span] = values
    return out


def product_divergences(factors: Sequence[np.ndarray], table: np.ndarray) -> np.ndarray:
    """(D, M) joint-type divergences from the cell masses ``table`` of every
    candidate of every batch row's product."""
    return _product_array(factors, cell_terms, table)


def product_log_masses(factors: Sequence[np.ndarray], table: np.ndarray) -> np.ndarray:
    """(D, M) joint-type log2-masses under the memoryless law ``table`` of
    every candidate of every batch row's product."""
    return _product_array(factors, cell_log_masses, table)


def _type_sums(terms, n: int, table: np.ndarray) -> np.ndarray:
    """Per length-n joint type, in table order, the sum of the per-cell
    ``terms(mass, n)[count]`` over the cells of ``table`` in flat order,
    added from 0.0."""
    masses = table.reshape(-1).tolist()
    counts = type_classes(n, len(masses)).counts
    out = np.zeros(len(counts))
    for mass, count in zip(masses, counts.T):
        out += terms(mass, n)[count]
    return out


def type_divergences(n: int, table: np.ndarray) -> np.ndarray:
    """D(t/n || table) of every length-n joint type t, in table order,
    from its ``cell_terms``: the floats ``divergence`` gives one type at a
    time."""
    return _type_sums(cell_terms, n, table)


def type_log_masses(n: int, table: np.ndarray) -> np.ndarray:
    """log2 of the mass, under the memoryless law ``table``, of any one
    sequence of each length-n joint type, in table order, from its
    ``cell_log_masses``: -inf where a type has a zero-mass cell."""
    return _type_sums(cell_log_masses, n, table)


def empirical(sequence: Sequence[int], size: int) -> np.ndarray:
    counts = np.bincount(np.asarray(sequence, dtype=np.int64), minlength=size)
    return counts / len(sequence)


def entropy(p) -> float:
    arr = p.table if isinstance(p, Distribution) else np.asarray(p, dtype=np.float64)
    mask = arr > 0
    return float(-(arr[mask] * np.log2(arr[mask])).sum())


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


def eta_slack(size: int, gamma: float, n: int) -> float:
    first = 0.0
    if gamma > 0:
        root = math.sqrt(2 * gamma)
        first = -root * math.log2(root / size)
    return first + size * math.log2(n + 1) / n


# --- exhaustive checks of the finite-length typicality bounds --------------

def type_census(mu: np.ndarray, n: int) -> tuple[TypeClasses, np.ndarray, np.ndarray]:
    """The length-n types of the law ``mu``, in table order:
    ``(classes, masses, divergences)``.  ``classes`` is their
    ``type_classes`` table, exact class sizes included; ``masses[i]`` is
    the mass of class i, 2^(log2 |T| + ``type_log_masses``), so no count is
    ever a float and nothing overflows (a type with a zero-mass cell has
    mass 0); ``divergences`` are the ``type_divergences``."""
    classes = type_classes(n, mu.size)
    log_sizes = np.array([math.log2(size) for size in classes.sizes])
    masses = np.exp2(log_sizes + type_log_masses(n, mu))
    return classes, masses, type_divergences(n, mu)


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

    Every lemma walks the length-n types of the cells of ``mu`` (for
    'trans', the joint types of the pair (u, v)), and ``cap`` bounds their
    number.  Every typicality predicate depends on a sequence only through
    its type, so 'trans' evaluates the predicates once per joint type, on
    one pair of that type, and weights its violations, and the ``pairs``
    it reports, by the exact class size.  'number' decides in the log
    domain, so no count or bound overflows a float: its ``lhs`` is log2 of
    the exact typical-set size (-inf when empty), and ``rhs`` and ``lower``
    are n (h + eta) and n (h - eta).
    """
    size = mu.table.size
    if math.comb(n + size - 1, size - 1) > cap:
        raise DistributionError("instance too large for exhaustive verification")

    if lemma == "prob":
        _, masses, divs = type_census(mu.table, n)
        lhs = math.fsum(masses[divs >= gamma].tolist())
        rhs = 2.0 ** (-n * (gamma - lambda_slack(size, n)))
        return {"holds": lhs <= rhs + 1e-12, "lhs": lhs, "rhs": rhs}

    if lemma == "aep":
        h = entropy(mu)
        rhs = zeta_slack(size, gamma)
        cross = -type_log_masses(n, mu.table)[type_divergences(n, mu.table) < gamma] / n
        lhs = float(np.abs(cross - h).max(initial=0.0))
        return {"holds": lhs <= rhs + 1e-12, "lhs": lhs, "rhs": rhs}

    if lemma == "number":
        h = entropy(mu)
        eta = eta_slack(size, gamma, n)
        classes, _, divs = type_census(mu.table, n)
        count = sum(itertools.compress(classes.sizes, (divs < gamma).tolist()))
        lhs = math.log2(count) if count else -math.inf
        lower, upper = n * (h - eta), n * (h + eta)
        holds = lower <= lhs + 1e-12 and lhs <= upper + 1e-12
        return {"holds": holds, "lhs": lhs, "rhs": upper, "lower": lower}

    if lemma == "trans":
        if mu.table.ndim != 2:
            raise DistributionError("trans check needs a two-axis joint distribution")
        mu_u, mu_v = mu.marginal((0,)), mu.marginal((1,))
        mu_uv = mu.conditional((0,), (1,))
        p_marg = TypicalityParams(gamma)
        p_joint = TypicalityParams(gamma + gamma_cond)
        p_g = TypicalityParams(gamma, gamma)
        p_cond = TypicalityParams(gamma, gamma_cond)
        classes = type_classes(n, size)
        violations = 0
        for t, class_size in zip(classes.counts, classes.sizes):
            u, v = np.divmod(np.repeat(np.arange(size), t), mu.shape[1])
            wrong = 0
            if is_typical(v, mu_v, p_marg) and is_cond_typical(u, v, mu_uv, p_cond):
                wrong += not is_joint_typical([u, v], mu, p_joint)
            if is_joint_typical([u, v], mu, p_g):
                wrong += (not is_typical(u, mu_u, p_marg)) + (not is_cond_typical(u, v, mu_uv, p_g))
            violations += wrong * class_size
        return {"holds": violations == 0, "lhs": float(violations), "rhs": 0.0,
                "pairs": sum(classes.sizes)}

    raise DistributionError(f"unknown typicality lemma {lemma!r}")
