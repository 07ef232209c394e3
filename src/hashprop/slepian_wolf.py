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

import numpy as np

from . import types
from .gf import FieldMatrix, coset_factor_batch, coset_size
from .mc import McEstimate, distinct_rows, inverse_cdf, run_blocks
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


def _coset_slots(matrix: FieldMatrix, size: int, n: int):
    """Every alphabet sequence of length n, in lexicographic order, and a
    (cosets, widest coset) array of their indices: one coset per row, rows in
    syndrome order, members in lexicographic order, -1 in the padding.

    This stays beside ``gf.coset_batch``: it enumerates the size^n alphabet
    sequences, while ``coset_factor_batch`` builds about q^n members in all
    (9.8M against 1024 for a GF(5) check on a binary source at n = 10)."""
    seqs = np.indices((size,) * n).reshape(n, size ** n).T
    # each sequence's rank among the distinct syndromes, in lexicographic order
    _, idx = distinct_rows(seqs @ matrix.dense.T % matrix.q, [matrix.q] * matrix.rows)
    perm = np.argsort(idx, kind="stable")
    sizes = np.bincount(idx)
    starts = np.cumsum(sizes) - sizes
    slots = np.full((len(sizes), sizes.max()), -1)
    slots[np.repeat(np.arange(len(sizes)), sizes),
          np.arange(len(seqs)) - np.repeat(starts, sizes)] = perm
    return seqs, slots


def sw_error_exact(code: SwCode, decoder: str = "md", gamma: float = 0.0,
                   cap: int = DEFAULT_CAP) -> float:
    """Exact decoding-error probability: the total mu-mass of the source
    tuples whose decode differs from the input, decoder failures included.

    Each axis lays out its source's alphabet sequences as (cosets, widest
    coset) slots, cosets in syndrome order and members in lexicographic
    order, so every coset-product block is a box of slots. A tuple is scored
    through its joint type by the key scorer of ``hashprop.types``, on the
    decoders' cached tables: MD adds ``cell_terms``, ML negates the sum of
    ``cell_log_masses``. Padding slots, and for "ml" atypical sources, add
    NaN, which marks a non-candidate. Blocks are decoded in chunks of whole
    cosets of the first and the last axis, about SCORE_CHUNK slots (more
    only when one block with the middle axes is larger). Only a block's
    ``first_best`` tuple, its first tied minimum in row-major order, decodes
    correctly; in a block with no admissible tuple, none does.

    The chunks tally these winners per joint type T, by its row in
    ``type_classes`` (``type_rows`` of the winners' keys), with one
    ``np.bincount`` per chunk. Every tuple of T has the mass mu(T), 2 to its
    ``type_log_masses`` entry, so the error is the ``math.fsum`` over the
    types of mu(T) (|T| - winners of T), with the exact class size |T| of
    ``type_classes`` and the difference in integers: one rounding per type.
    No array holds one value per tuple or per block.

    ``cap`` counts the source tuples, so it bounds the work; memory is
    bounded by the SCORE_CHUNK-sized chunks, whatever the tuple count.
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
    # (axis, penalty) of each axis with padding or atypical sources; the others add 0
    pens = [(j, pen) for j, pen in enumerate(np.where((slot >= 0) & ok[slot], 0.0, np.nan)
                                             for slot, ok in zip(slots, admit))
            if np.isnan(pen).any()]
    slots = [np.maximum(slot, 0) for slot in slots]

    masses = tuple(code.mu.table.reshape(-1).tolist())
    scores = type_tables(cell_terms if decoder == "md" else cell_log_masses, masses, n, chunk)
    groups = [cells for cells, _ in scores]
    slot_cols = [col[0][:, slots[-1].reshape(-1)]
                 for col in key_columns(seqs[-1][None], shape, groups)]
    sizes = type_classes(n, len(masses)).sizes
    hits = np.zeros(len(sizes), dtype=np.int64)  # winners per table row

    (lead_cosets, lead_width), (last_cosets, last_width) = slots[0].shape, slots[-1].shape
    middle = [slot.shape for slot in slots[1:-1]]
    per_pair = math.prod(slot.shape[1] for slot in slots) * math.prod(c for c, _ in middle)
    x_step = max(1, chunk // (per_pair * last_cosets))
    y_step = min(last_cosets, max(1, chunk // per_pair))
    block_major = tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2))
    for x0 in range(0, lead_cosets, x_step):
        x1 = min(x0 + x_step, lead_cosets)
        lead_shape = ((x1 - x0) * lead_width,) + tuple(c * w for c, w in middle)
        picks = np.unravel_index(np.arange(math.prod(lead_shape)), lead_shape)
        picks[0][:] += x0 * lead_width
        rows = lead_rows([seq[slot.reshape(-1)[p]][None] for seq, slot, p in zip(seqs, slots, picks)],
                         shape[:-1], n)[0]
        for y0 in range(0, last_cosets, y_step):
            y1 = min(y0 + y_step, last_cosets)
            boxes = [(x1 - x0, lead_width)] + middle + [(y1 - y0, last_width)]
            bases = [x0] + [0] * (k - 2) + [y0]
            natural = tuple(d for box in boxes for d in box)
            keys = [(rows @ col[:, y0 * last_width:y1 * last_width]).reshape(natural)
                    .transpose(block_major).astype(np.intp, order="C") for col in slot_cols]
            score = scores[0][1].take(keys[0])
            for key, (_, table) in zip(keys[1:], scores[1:]):
                score += table.take(key)
            if decoder != "md":
                np.negative(score, out=score)
            for j, pen in pens:
                at = [1] * (2 * k)
                at[j], at[k + j] = boxes[j]
                score += pen[bases[j]:bases[j] + boxes[j][0]].reshape(at)
            members = math.prod(w for _, w in boxes)
            first = first_best(score.reshape(-1, members))
            blocks = np.flatnonzero(first >= 0)
            won = [key.reshape(-1).take(blocks * members + first[blocks]) for key in keys]
            hits += np.bincount(type_rows(won, n, len(masses), groups), minlength=len(hits))

    # all but the winners of a type decode wrongly
    type_mass = np.exp2(type_log_masses(n, code.mu.table)).tolist()
    return min(1.0, math.fsum(m * (size - hit)
                              for m, size, hit in zip(type_mass, sizes, hits.tolist())))


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
