"""Syndrome source coding for correlated sources: encoders a_j = A_j x_j,
minimum-divergence and typicality-constrained maximum-likelihood decoders,
and exact / Monte Carlo error evaluation.

Decoding is exhaustive over the coset product, which at desk scale is both
feasible and the reference oracle for the LP decoder.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gf import FieldMatrix, coset_factor_batch, coset_size
from .mc import McEstimate, distinct_rows, inverse_cdf, run_blocks
from .types import (
    TIE_TOL,
    Distribution,
    TypicalityParams,
    cell_counts,
    cell_log_masses,
    cell_terms,
    entropy,
    product_best,
    product_divergences,
    product_log_masses,
    product_valid,
    row_groups,
    type_divergences,
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


def _check_decoder(code: SwCode, decoder: str) -> None:
    if decoder not in ("md", "ml", "ml_unconstrained"):
        raise SwError(f"unknown decoder {decoder!r}")
    if decoder != "md" and code.k != 2:
        raise SwError("the ML decoder is defined for two sources")


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
    _check_decoder(code, decoder)
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
            scores = product_divergences(factors, code.mu)
        else:
            scores = product_log_masses(factors, code.mu.table)
        if decoder == "ml":
            kept = [keep & (type_divergences(cell_counts(f.reshape(-1, code.n), size),
                                             code.mu.marginal((axis,))) < gamma
                            ).reshape(keep.shape)
                    for axis, (f, keep, size) in enumerate(zip(factors, kept, code.mu.shape))]
        best, score, failed = product_best(factors, scores, product_valid(kept),
                                           maximize=decoder != "md")
        x_hat[sl] = np.where(failed[:, None, None], -1, best)
        failure[sl] = failed
        all_infinite[sl] = (decoder == "md") & np.isinf(score)
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

    Whether the typicality restriction is actually necessary is open; the
    unconstrained variant is provided for experimentation.
    """
    decoder = "ml" if constrained else "ml_unconstrained"
    x_hat, failure, _ = sw_decode_batch(code, _one_row(syndromes), decoder, gamma, cap)
    if failure[0]:
        return SwDecodeResult(x_hat=None, failure=True)
    return SwDecodeResult(x_hat=_as_tuples(x_hat[0]))


def _syndrome_order(matrix: FieldMatrix, size: int, n: int):
    """Every alphabet sequence of length n, reordered so that each coset is
    one contiguous run.

    Returns the reordered sequences, the (stable) permutation from
    lexicographic order, the start of every run, the run lengths, and each
    reordered sequence's offset inside its run; members of a run stay in
    lexicographic order.
    """
    seqs = np.array(list(itertools.product(range(size), repeat=n)),
                    dtype=np.int64).reshape(-1, n)
    weights = matrix.q ** np.arange(matrix.rows - 1, -1, -1, dtype=np.int64)
    idx = (seqs @ matrix.to_dense().T % matrix.q) @ weights
    perm = np.argsort(idx, kind="stable")
    _, starts, sizes = np.unique(idx[perm], return_index=True, return_counts=True)
    offsets = np.arange(len(seqs)) - np.repeat(starts, sizes)
    return seqs[perm], perm, starts, sizes, offsets


def sw_error_exact(code: SwCode, decoder: str = "md", gamma: float = 0.0,
                   cap: int = DEFAULT_CAP) -> float:
    """Exact decoding-error probability: the total mu-mass of the source
    tuples whose decode differs from the input, decoder failures included.

    One table holds every source tuple. Each axis lists its source's
    alphabet sequences reordered by syndrome, so every coset-product block
    is a box of the table with its members in lexicographic order. Cell
    counts come from float matmuls of 0/1 indicators (exact for counts
    <= n). A tuple is scored cell by cell, as the decoders score: MD adds
    ``cell_terms``, ML adds ``-cell_log_masses``, and its log-mass adds
    ``cell_log_masses``. For "ml" a tuple with an atypical source scores
    NaN, which the block minima (``fmin.reduceat`` along every axis) skip.
    A block decodes to its tied tuple (within TIE_TOL of the minimum) of
    smallest row-major rank, the lexicographic rule of ``first_best``; a
    block with no admissible tuple decodes every tuple wrongly. The masses
    of the wrong tuples are summed left to right in row-major source order,
    as a per-tuple loop adds them. Memory is a few floats per tuple.
    """
    _check_decoder(code, decoder)
    n, shape = code.n, code.mu.shape
    total = math.prod(size ** n for size in shape)
    if total > cap:
        raise SwError(f"{total} source tuples exceed cap {cap}")
    seqs, perms, starts, sizes, offsets = zip(*(
        _syndrome_order(m, size, n) for m, size in zip(code.matrices, shape)))
    table_shape = tuple(len(s) for s in seqs)

    if decoder == "ml":
        gamma = TypicalityParams(gamma).gamma
        penalty = [np.where(type_divergences(cell_counts(s, size),
                                             code.mu.marginal((j,))) < gamma, 0.0, np.nan)
                   for j, (s, size) in enumerate(zip(seqs, shape))]
        score = functools.reduce(np.add.outer, penalty)
    else:
        score = np.zeros(table_shape)
    terms = cell_terms if decoder == "md" else lambda mass, n: -cell_log_masses(mass, n)
    indicators = [[(s == a).astype(np.float64) for a in range(size)]
                  for s, size in zip(seqs, shape)]
    mass_log = np.zeros(table_shape)
    for cell, mass in zip(np.ndindex(shape), code.mu.table.reshape(-1).tolist()):
        # the first k - 1 indicators folded into rows of the leading axes
        rows = np.ones((1, n))
        for ind, a in zip(indicators[:-1], cell[:-1]):
            rows = (rows[:, None] * ind[a]).reshape(-1, n)
        count = (rows @ indicators[-1][cell[-1]].T).astype(np.intp).reshape(table_shape)
        score += terms(mass, n)[count]
        mass_log += cell_log_masses(mass, n)[count]

    def block_min(table):
        for axis, axis_starts in enumerate(starts):
            table = np.fmin.reduceat(table, axis_starts, axis=axis)
        return table

    def spread(blocks):
        # one value per block, repeated over the block's box
        for axis, axis_sizes in enumerate(sizes):
            blocks = np.repeat(blocks, axis_sizes, axis=axis)
        return blocks

    tied = score <= spread(block_min(score) + TIE_TOL)
    # row-major rank of each tuple inside its block
    rank = np.zeros((), dtype=np.intp)
    for axis_sizes, axis_offsets in zip(sizes, offsets):
        rank = rank[..., None] * np.repeat(axis_sizes, axis_sizes) + axis_offsets
    winner = block_min(np.where(tied, rank, np.iinfo(np.intp).max))
    mass_log[rank == spread(winner)] = -np.inf

    # back to row-major source order for a left-to-right error sum; right
    # tuples contribute exact zeros, which leave the running sum alone
    for axis, perm in enumerate(perms):
        mass_log = np.take(mass_log, np.argsort(perm), axis=axis)
    return min(1.0, float(np.cumsum(np.exp2(mass_log))[-1]))


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
    _check_decoder(code, decoder)
    ends = np.cumsum([0] + [m.rows for m in code.matrices]).tolist()
    bases = [m.q for m in code.matrices for _ in range(m.rows)]

    def block_errors(rng, size):
        cells = inverse_cdf(code.mu.table.reshape(-1), rng.random((size, code.n)))
        x = np.stack(np.unravel_index(cells, code.mu.shape), axis=1)
        syn = np.concatenate([x[:, j] @ m.to_dense().T % m.q
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
