"""Syndrome source coding for correlated sources: encoders a_j = A_j x_j,
minimum-divergence and typicality-constrained maximum-likelihood decoders,
and exact / Monte Carlo error evaluation.

Decoding is exhaustive over the coset product, which at desk scale is both
feasible and the reference oracle for the LP decoder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import types
from .gf import FieldMatrix, coset_factor_batch, coset_size
from .mc import McEstimate, distinct_rows, inverse_cdf, row_keys, run_blocks
from .types import (
    Distribution,
    TypicalityParams,
    cell_log_masses,
    cell_terms,
    entropy,
    first_best,
    key_columns,
    lead_rows,
    product_best,
    product_divergences,
    product_log_masses,
    product_valid,
    row_groups,
    tie_classes,
    type_classes,
    type_log_masses,
    type_rows,
    type_tables,
)

DEFAULT_CAP = 1 << 20


class SwError(ValueError):
    """Bad code parameters or a search space beyond the configured cap."""


@dataclass(frozen=True)
class SwCode:
    """Per-source parity matrices plus the joint source law.

    Source j's alphabet (axis j of mu) is embedded into GF(q_j) by index,
    so matrix j's modulus must be at least the alphabet size.
    """

    matrices: tuple[FieldMatrix, ...]
    mu: Distribution

    def __post_init__(self) -> None:
        if len(self.matrices) != len(self.mu.shape):
            raise SwError("one matrix per source axis is required")
        n = self.matrices[0].cols
        for m, size in zip(self.matrices, self.mu.shape):
            if m.cols != n:
                raise SwError("all matrices must share the block length n")
            if m.q < size:
                raise SwError(f"alphabet of size {size} does not embed in GF({m.q})")

    @property
    def k(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].cols

    def rates(self) -> "SwRates":
        n = self.n
        return SwRates(tuple(m.rows * math.log2(m.q) / n for m in self.matrices))


@dataclass(frozen=True)
class SwRates:
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(r < 0 for r in self.rates):
            raise SwError("rates must be nonnegative")


@dataclass(frozen=True)
class SwDecodeResult:
    x_hat: tuple[tuple[int, ...], ...]
    failure: bool = False        # ML decoder: restricted candidate set empty
    all_infinite: bool = False   # MD decoder: every candidate off-support


def sw_encode(code: SwCode, x_K) -> tuple[tuple[int, ...], ...]:
    if len(x_K) != code.k:
        raise SwError("one sequence per source is required")
    return tuple(m.matvec(x) for m, x in zip(code.matrices, x_K))


def _check_decoder(decoder: str) -> None:
    if decoder not in ("md", "ml", "ml_unconstrained"):
        raise SwError(f"unknown decoder {decoder!r}")


def sw_decode_batch(code: SwCode, syndromes, decoder: str = "md", gamma: float = 0.0,
                    cap: int = DEFAULT_CAP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode D syndrome tuples at once; ``syndromes[j]`` is a (D, rows_j)
    array.  Returns ``(x_hat, failure, all_infinite)``: x_hat is (D, k, n),
    with -1 on the rows where ML found no admissible candidate (failure);
    all_infinite marks MD rows whose every candidate is off-support.

    Each row searches its coset product, scored through joint types:
    "md" minimizes the divergence from mu; "ml" and "ml_unconstrained"
    maximize the log-mass, "ml" only over tuples whose every source type is
    within divergence gamma of its marginal.  GF(q) symbols beyond a source
    alphabet are not candidates.  The lex-first optimum wins (the rule of
    ``first_best``).  A row whose coset has no member inside the alphabet
    raises ``SwError``, as does a product beyond ``cap``.
    """
    _check_decoder(decoder)
    if decoder != "md":
        gamma = TypicalityParams(gamma).gamma
    syndromes = [np.asarray(a, dtype=np.int64) for a in syndromes]
    rows = len(syndromes[0])
    x_hat = np.empty((rows, code.k, code.n), dtype=np.int64)
    failure = np.zeros(rows, dtype=bool)
    all_infinite = np.zeros(rows, dtype=bool)
    per_row = math.prod(coset_size(m) for m in code.matrices)
    for sl in row_groups(rows, per_row):
        found = coset_factor_batch(code.matrices, [a[sl] for a in syndromes],
                                   cap, SwError, code.mu.shape)
        if found is None or not all(keep.any(axis=1).all() for keep in found[1]):
            raise SwError("syndrome outside the matrix image, or no coset member "
                          "inside the source alphabet")
        factors, kept = found
        if decoder == "md":
            costs = product_divergences(factors, code.mu.table)
        else:
            costs = -product_log_masses(factors, code.mu.table)
        if decoder == "ml":
            kept = [keep & (product_divergences([f], code.mu.marginal((axis,)).table) < gamma)
                    for axis, (f, keep) in enumerate(zip(factors, kept))]
        best, cost, failed = product_best(factors, costs, product_valid(kept))
        x_hat[sl] = np.where(failed[:, None, None], -1, best)
        failure[sl] = failed
        all_infinite[sl] = (decoder == "md") & np.isinf(cost)
    return x_hat, failure, all_infinite


def _one_row(syndromes) -> list:
    return [[tuple(a)] for a in syndromes]


def _as_tuples(x: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, x.tolist()))


def sw_decode_md(code: SwCode, syndromes, cap: int = DEFAULT_CAP) -> SwDecodeResult:
    """Minimum joint-empirical-divergence decoding over the coset product:
    the one-row case of ``sw_decode_batch``."""
    x_hat, _, all_infinite = sw_decode_batch(code, _one_row(syndromes), "md", cap=cap)
    return SwDecodeResult(x_hat=_as_tuples(x_hat[0]), all_infinite=bool(all_infinite[0]))


def sw_decode_ml_typical(code: SwCode, syndromes, gamma: float,
                         constrained: bool = True,
                         cap: int = DEFAULT_CAP) -> SwDecodeResult:
    """Maximum-likelihood decoding over the coset product, optionally
    restricted to per-source typical sequences (divergence < gamma): the
    one-row case of ``sw_decode_batch``.

    For a fixed code the typicality restriction can only raise the error: the
    unconstrained variant's, a largest-mass tuple per coset-product block, is
    the least any decoder reaches.  The restriction serves the paper's proof.
    """
    decoder = "ml" if constrained else "ml_unconstrained"
    x_hat, failure, _ = sw_decode_batch(code, _one_row(syndromes), decoder, gamma, cap)
    if failure[0]:
        return SwDecodeResult(x_hat=None, failure=True)
    return SwDecodeResult(x_hat=_as_tuples(x_hat[0]))


@lru_cache(maxsize=8)
def _sequences(size: int, n: int) -> np.ndarray:
    """Every alphabet sequence of length n, in lexicographic order: a
    read-only (size^n, n) int64 array, kept for the next layout of that
    (size, n)."""
    seqs = np.indices((size,) * n).reshape(n, size ** n).T.copy()
    seqs.setflags(write=False)
    return seqs


def _coset_slots(matrix: FieldMatrix, size: int, n: int):
    """Every alphabet sequence of length n, in lexicographic order, and a
    (cosets, widest coset) array of their indices: one coset per row, rows in
    syndrome order, members in lexicographic order, -1 in the padding.

    One stable argsort of the syndromes' ``row_keys`` groups the sequences.
    When the alphabet is the field, every coset holds q^(n - rank) of them,
    so the sorted order, reshaped, is the array.  This stays beside
    ``gf.coset_batch``: it enumerates the size^n alphabet sequences, while
    ``coset_factor_batch`` builds about q^n members in all (9.8M against
    1024 for a GF(5) check on a binary source at n = 10)."""
    seqs = _sequences(size, n)
    key = row_keys(seqs @ matrix.dense.T % matrix.q, [matrix.q] * matrix.rows)
    perm = np.argsort(key, kind="stable")
    if size == matrix.q:  # the width is the kernel's size, the zero sequence's coset
        return seqs, perm.reshape(-1, np.count_nonzero(key == key[0]))
    sizes = np.diff(np.flatnonzero(np.diff(key[perm])) + 1, prepend=0, append=len(perm))
    starts = np.cumsum(sizes) - sizes
    slots = np.full((len(sizes), sizes.max()), -1)
    slots[np.repeat(np.arange(len(sizes)), sizes),
          np.arange(len(seqs)) - np.repeat(starts, sizes)] = perm
    return seqs, slots


@lru_cache(maxsize=64)
def _type_weights(masses: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per length-n joint type of the flat law ``masses``, in table order,
    the mass of any one sequence of the type (2 to its ``type_log_masses``
    entry) and the exact class size: read-only float64 and int64 arrays."""
    weights = (np.exp2(type_log_masses(n, np.array(masses))),
               np.array(type_classes(n, len(masses)).sizes, dtype=np.int64))
    for array in weights:
        array.setflags(write=False)
    return weights


def sw_error_exact(code: SwCode, decoder: str = "md", gamma: float = 0.0,
                   cap: int = DEFAULT_CAP) -> float:
    """Exact decoding-error probability: the total mu-mass of the source
    tuples whose decode differs from the input, decoder failures included.

    Each axis lays out its source's alphabet sequences as (cosets, widest
    coset) slots, cosets in syndrome order and members in lexicographic
    order, so every coset-product block is a box of slots. A tuple is scored
    through its joint type by the key scorer of ``hashprop.types``, on the
    decoders' cached tables: MD costs are the ``cell_terms`` sums, ML costs
    the negated ``cell_log_masses`` sums. Padding slots, and for "ml"
    atypical sources, are non-candidates. Blocks are decoded in chunks of
    whole cosets of the first and the last axis, about SCORE_CHUNK slots
    (more only when one block with the middle axes is larger). Only a
    block's ``first_best`` tuple, its first tied minimum in row-major order,
    decodes correctly; in a block with no admissible tuple, none does.

    When the law's cells form one lookup group and its costs'
    ``tie_classes`` are separated, a block is decided on them instead: a
    tuple's code is its class id times the block's member count plus its
    row-major index in the block, so the block's least code, one minimum
    over the member axes, names its first least id, the same winner as
    ``first_best``. When the cells form several groups, or some class's
    largest cost + TIE_TOL reaches the next class, the float costs are
    summed group by group, a non-candidate's made NaN, and ``first_best``
    decides.

    The chunks tally these winners per joint type T, by its row in
    ``type_classes`` (``type_rows`` of the winners' keys), with one
    ``np.bincount`` per chunk. Every tuple of T has the mass mu(T), 2 to its
    ``type_log_masses`` entry, so the error is the ``math.fsum`` over the
    types of mu(T) (|T| - winners of T), with the exact class size |T| of
    ``type_classes`` and the difference in integers: one rounding per type.
    Both come from a cache per law and n. No array holds one value per
    tuple or per block.

    ``cap`` counts the source tuples, so it bounds the work. Memory is
    bounded by the SCORE_CHUNK-sized chunks and by arrays that grow with
    one axis's sequence count, not with the tuple count: the first axis's
    lead rows, built once per call, and the last axis's key columns (with
    three or more sources, the middle axes' lead rows, which every chunk
    reads whole, grow with the product of their sequence counts).
    """
    _check_decoder(decoder)
    n, shape = code.n, code.mu.shape
    total = math.prod(size ** n for size in shape)
    if total > cap:
        raise SwError(f"{total} source tuples exceed cap {cap}")
    chunk = types.SCORE_CHUNK
    seqs, slots = map(list, zip(*(_coset_slots(m, size, n)
                                  for m, size in zip(code.matrices, shape))))
    if decoder == "ml":
        gamma = TypicalityParams(gamma).gamma
        admit = [product_divergences([s[None]], code.mu.marginal((j,)).table)[0] < gamma
                 for j, s in enumerate(seqs)]
    else:
        admit = [np.ones(len(s), dtype=bool) for s in seqs]
    if code.k == 1:
        # a leading axis of one symbol and one sequence: every layout has two axes
        seqs.insert(0, np.zeros((1, n), dtype=np.int64))
        slots.insert(0, np.zeros((1, 1), dtype=np.int64))
        admit.insert(0, np.ones(1, dtype=bool))
        shape = (1,) + shape
    k = len(shape)

    masses = tuple(code.mu.table.reshape(-1).tolist())
    terms = cell_terms if decoder == "md" else cell_log_masses
    scores = type_tables(terms, masses, n, chunk)
    groups = [cells for cells, _ in scores]
    ties = tie_classes(terms, masses, n) if len(groups) == 1 else None
    (lead_cosets, lead_width), (last_cosets, last_width) = slots[0].shape, slots[-1].shape
    middle = [slot.shape for slot in slots[1:-1]]
    widths = [slot.shape[1] for slot in slots]
    members = math.prod(widths)
    # a chunk's axes: (cosets, width) per source, (width, cosets) for the last,
    # so that no block's members lie along the innermost axis
    count_axes = tuple(range(0, 2 * k - 2, 2)) + (2 * k - 1,)
    width_axes = tuple(range(1, 2 * k - 2, 2)) + (2 * k - 2,)
    block_major = count_axes + width_axes
    if ties is None:
        keep, drop, dtype = -np.inf, np.nan, np.float64
    else:
        # a tuple's code is its class id * members + its row-major index in its
        # block, so a block's least code names its first least id: the first_best
        dtype = np.min_scalar_type((ties.blank + 1) * members - 1)
        keep, drop = 0, ties.blank * members
        codes = ties.ids.astype(dtype) * members
        at = [1] * (2 * k)
        for axis, width in zip(width_axes, widths):
            at[axis] = width
        index = np.arange(members, dtype=dtype).reshape(at)
    # (axis, penalty) of each axis with padding or atypical sources, taken as a
    # maximum with the costs: a candidate's leaves its cost, a non-candidate's
    # makes it NaN, or a code of the blank class
    candidates = [(slot >= 0) & ok[slot] for slot, ok in zip(slots, admit)]
    pens = [(j, np.where(cand, keep, drop).astype(dtype))
            for j, cand in enumerate(candidates) if not cand.all()]
    slots = [np.maximum(slot, 0) for slot in slots]
    slot_cols = [col[0][:, slots[-1].T.reshape(-1)].reshape(-1, last_width, last_cosets)
                 for col in key_columns(seqs[-1][None], shape, groups)]
    type_mass, sizes = _type_weights(masses, n)
    hits = np.zeros(len(sizes), dtype=np.int64)  # winners per table row

    lead = lead_rows([seqs[0][slots[0].reshape(-1)][None]], shape[:1], n)[0]
    if middle:
        picks = np.unravel_index(np.arange(math.prod(c * w for c, w in middle)),
                                 [c * w for c, w in middle])
        mid = lead_rows([seq[slot.reshape(-1)[p]][None]
                         for seq, slot, p in zip(seqs[1:-1], slots[1:-1], picks)],
                        shape[1:-1], n)[0]
        mid = mid.reshape(len(mid), n, 1, -1)
    per_pair = members * math.prod(c for c, _ in middle)
    x_step = max(1, chunk // (per_pair * last_cosets))
    y_step = min(last_cosets, max(1, chunk // per_pair))
    for x0 in range(0, lead_cosets, x_step):
        x1 = min(x0 + x_step, lead_cosets)
        rows = lead[x0 * lead_width:x1 * lead_width]
        if middle:
            rows = (rows.reshape(-1, 1, n, shape[0], 1) * mid).reshape(-1, rows.shape[1] * mid.shape[-1])
        for y0 in range(0, last_cosets, y_step):
            y1 = min(y0 + y_step, last_cosets)
            counts = [x1 - x0] + [c for c, _ in middle] + [y1 - y0]
            bases = [x0] + [0] * (k - 2) + [y0]
            natural = [x1 - x0, lead_width] + [d for box in middle for d in box] + [last_width, y1 - y0]
            keys = [(rows @ col[:, :, y0:y1].reshape(len(col), -1)).astype(np.intp).reshape(natural)
                    for col in slot_cols]
            if ties is None:
                score = scores[0][1].take(keys[0])
                for key, (_, table) in zip(keys[1:], scores[1:]):
                    score += table.take(key)
                if decoder != "md":
                    np.negative(score, out=score)
            else:
                score = codes.take(keys[0])
                score += index
            for j, pen in pens:
                part = pen[bases[j]:bases[j] + counts[j]]
                at = [1] * (2 * k)
                at[count_axes[j]], at[width_axes[j]] = part.shape
                np.maximum(score, (part.T if j == k - 1 else part).reshape(at), out=score)
            if ties is None:
                first = first_best(score.transpose(block_major).reshape(-1, members))
                blocks = np.unravel_index(np.flatnonzero(first >= 0), counts)
                first = first.reshape(counts)
            else:
                for i, axis in enumerate(width_axes):  # one axis at a time is faster
                    score = score.min(axis=axis - i)
                least, first = np.divmod(score, members)
                blocks = np.nonzero(least != ties.blank)
            won = blocks + np.unravel_index(first[blocks], widths)
            hits += np.bincount(type_rows([key.transpose(block_major)[won] for key in keys],
                                          n, len(masses), groups), minlength=len(hits))

    # all but the winners of a type decode wrongly
    return min(1.0, math.fsum((type_mass * (sizes - hits)).tolist()))


def sw_error_mc(code: SwCode, decoder: str = "md", trials: int = 1000,
                seed: int = 0, gamma: float = 0.0,
                cap: int = DEFAULT_CAP) -> McEstimate:
    """Monte Carlo estimate of the decoding error with a Wilson interval.

    Runs on the block engine of ``hashprop.mc``: a block of ``size`` trials
    draws its (size, n) source cells by inverse CDF of the row-major flat
    law from one ``rng.random`` call, and the block's distinct syndrome
    tuples are decoded by one ``sw_decode_batch`` call. A decoder failure
    counts as an error. The result depends only on the arguments."""
    if trials < 1:
        raise SwError("trials must be >= 1")
    _check_decoder(decoder)
    ends = np.cumsum([0] + [m.rows for m in code.matrices]).tolist()
    bases = [m.q for m in code.matrices for _ in range(m.rows)]

    def block_errors(rng, size):
        cells = inverse_cdf(code.mu.table.reshape(-1), rng.random((size, code.n)))
        x = np.stack(np.unravel_index(cells, code.mu.shape), axis=1)
        syn = np.concatenate([x[:, j] @ m.dense.T % m.q
                              for j, m in enumerate(code.matrices)], axis=1)
        first, inverse = distinct_rows(syn, bases)
        x_hat, _, _ = sw_decode_batch(code, [syn[first, a:b] for a, b in zip(ends, ends[1:])],
                                      decoder, gamma, cap)
        # a failed row decodes to -1, which never equals a source symbol
        return (x_hat[inverse] != x).any(axis=(1, 2)).sum()

    return run_blocks(seed, trials, block_errors)


def sw_rate_check(rates: SwRates, mu: Distribution) -> dict:
    """Strict achievability check of every conditional-entropy constraint
    sum_{j in J} R_j > H(X_J | X_{J^c})."""
    k = len(mu.shape)
    if len(rates.rates) != k:
        raise SwError("one rate per source axis is required")
    h_all = entropy(mu)
    failed = []
    checks = []
    for r in range(1, k + 1):
        for J in itertools.combinations(range(k), r):
            Jc = tuple(j for j in range(k) if j not in J)
            h_cond = h_all - (entropy(mu.marginal(Jc)) if Jc else 0.0)
            lhs = sum(rates.rates[j] for j in J)
            ok = lhs > h_cond
            checks.append({"J": J, "rate_sum": lhs, "entropy": h_cond, "holds": ok})
            if not ok:
                failed.append(J)
    return {"inside": not failed, "failed": failed, "constraints": checks}
