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

from .gf import FieldMatrix, coset_factors
from .mc import TRIAL_BLOCK, McEstimate, decode_distinct, inverse_cdf, run_blocks
from .types import (
    TIE_TOL,
    Distribution,
    TypicalityParams,
    cell_counts,
    cell_log_masses,
    cell_terms,
    entropy,
    first_best,
    product_divergences,
    product_log_masses,
    product_member,
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


def _cosets(code: SwCode, syndromes, cap: int) -> list[np.ndarray]:
    # GF(q) symbols beyond a source alphabet are not candidates; the product
    # of the lex-sorted cosets, in itertools.product order, is the tie order
    factors = coset_factors(code.matrices, syndromes, cap, SwError, code.mu.shape)
    if factors is None:
        raise SwError("syndrome outside the matrix image, or no coset member "
                      "inside the source alphabet")
    return factors


def sw_decode_md(code: SwCode, syndromes, cap: int = DEFAULT_CAP) -> SwDecodeResult:
    """Minimum joint-empirical-divergence decoding over the coset product."""
    factors = _cosets(code, syndromes, cap)
    d = product_divergences(factors, code.mu)
    winner = first_best(d)
    return SwDecodeResult(x_hat=product_member(factors, winner),
                          all_infinite=bool(np.isinf(d[winner])))


def sw_decode_ml_typical(code: SwCode, syndromes, gamma: float,
                         constrained: bool = True,
                         cap: int = DEFAULT_CAP) -> SwDecodeResult:
    """Maximum-likelihood decoding over the coset product, optionally
    restricted to per-source typical sequences (divergence < gamma).

    Whether the typicality restriction is actually necessary is open; the
    unconstrained variant is provided for experimentation.
    """
    if code.k != 2:
        raise SwError("the ML decoder is defined for two sources")
    params = TypicalityParams(gamma)
    factors = _cosets(code, syndromes, cap)
    log_masses = product_log_masses(factors, code.mu.table)
    candidates = np.arange(len(log_masses))
    if constrained:
        typical = [
            type_divergences(cell_counts(f, size), code.mu.marginal((axis,))) < params.gamma
            for axis, (f, size) in enumerate(zip(factors, code.mu.shape))
        ]
        candidates = np.flatnonzero(np.outer(*typical))
        if not len(candidates):
            return SwDecodeResult(x_hat=None, failure=True)
    winner = int(candidates[first_best(log_masses[candidates], maximize=True)])
    return SwDecodeResult(x_hat=product_member(factors, winner))


def _wrong_decodes(code: SwCode, decoder: str, gamma: float, cap: int):
    """A function telling which rows of an (N, k, n) array of source tuples
    decode wrongly, failures included; each distinct syndrome tuple is
    decoded once, with a cache kept across calls."""
    if decoder not in ("md", "ml", "ml_unconstrained"):
        raise SwError(f"unknown decoder {decoder!r}")
    ends = np.cumsum([0] + [m.rows for m in code.matrices]).tolist()
    cache: dict = {}

    def decode_row(row):
        syn = tuple(row[a:b] for a, b in zip(ends, ends[1:]))
        res = (sw_decode_md(code, syn, cap=cap) if decoder == "md" else
               sw_decode_ml_typical(code, syn, gamma, constrained=decoder == "ml", cap=cap))
        # -1 marks a failure: it never equals a source symbol
        return np.full((code.k, code.n), -1) if res.failure else res.x_hat

    def wrong(x: np.ndarray) -> np.ndarray:
        if not len(x):
            return np.zeros(0, dtype=bool)
        syn = np.concatenate([x[:, j] @ m.to_dense().T % m.q
                              for j, m in enumerate(code.matrices)], axis=1)
        return (decode_distinct(syn, cache, decode_row) != x).any(axis=(1, 2))

    return wrong


def sw_error_exact(code: SwCode, decoder: str = "md", gamma: float = 0.0,
                   cap: int = DEFAULT_CAP) -> float:
    """Exact decoding-error probability: total mu-mass of source tuples whose
    decode differs from the input (including decoder failures). Besides
    two-source MD, the tuples go through the Monte Carlo wrong-decode test."""
    sizes = [size ** code.n for size in code.mu.shape]
    total_seqs = math.prod(sizes)
    if total_seqs > cap:
        raise SwError(f"{total_seqs} source tuples exceed cap {cap}")
    if decoder == "md" and code.k == 2:
        return _error_exact_fast2(code)
    wrong = _wrong_decodes(code, decoder, gamma, cap)
    error = 0.0
    for start in range(0, total_seqs, TRIAL_BLOCK):
        # source tuples in row-major order, each sequence the digits of its
        # index; masses multiplied position by position
        idx = np.unravel_index(np.arange(start, min(start + TRIAL_BLOCK, total_seqs)), sizes)
        x = np.stack([np.stack(np.unravel_index(i, (size,) * code.n), axis=1)
                      for i, size in zip(idx, code.mu.shape)], axis=1)
        mass = np.ones(len(x))
        for i in range(code.n):
            mass *= code.mu.table[tuple(x[:, :, i].T)]
        x, mass = x[mass > 0], mass[mass > 0]
        # one running left-to-right sum, as a per-tuple loop would add
        error = np.cumsum(np.concatenate([[error], mass[wrong(x)]]))[-1]
    return min(1.0, float(error))


def _syndrome_order(seqs: np.ndarray, matrix: FieldMatrix):
    """Reorder sequences so that each coset is one contiguous run.

    Returns the (stable) permutation, the start of every run, the run
    lengths, and each reordered sequence's offset inside its run; members
    of a run stay in lexicographic order.
    """
    weights = matrix.q ** np.arange(matrix.rows - 1, -1, -1, dtype=np.int64)
    idx = (seqs @ matrix.to_dense().T % matrix.q) @ weights
    perm = np.argsort(idx, kind="stable")
    _, starts, sizes = np.unique(idx[perm], return_index=True, return_counts=True)
    offsets = np.arange(len(seqs)) - np.repeat(starts, sizes)
    return perm, starts, sizes, offsets


def _error_exact_fast2(code: SwCode) -> float:
    """Vectorized two-source minimum-divergence error via a full pair table.

    Enumerates all |X|^n x |Y|^n source pairs once, reordered so that every
    coset-product block (coset_a, coset_b) is a rectangle of the table with
    its members in lexicographic order. Cell counts come from one float
    matmul of 0/1 indicators per alphabet cell (exact for counts <= n); a
    pair's divergence and log-mass are then sums of the per-cell lookups
    ``cell_terms`` and ``cell_log_masses`` of ``hashprop.types``, added cell
    by cell, as the decoders score. Each block is
    decoded at once: block minima via ``reduceat``, then the winner is the
    tied candidate (within TIE_TOL of the minimum) with the smallest
    row-major rank in its block -- the lexicographic tie-break of
    ``sw_decode_md``. Cosets of different sizes need no padding. The masses
    of wrongly decoded pairs are summed left to right in row-major source
    order, so the result is bit-identical to a per-pair loop. Memory is
    O(|X|^n |Y|^n).
    """
    (sx, sy) = code.mu.shape
    n = code.n
    ma, mb = code.matrices
    seqs_x = np.array(list(itertools.product(range(sx), repeat=n)), dtype=np.int64)
    seqs_y = np.array(list(itertools.product(range(sy), repeat=n)), dtype=np.int64)
    perm_x, starts_x, sizes_x, off_x = _syndrome_order(seqs_x, ma)
    perm_y, starts_y, sizes_y, off_y = _syndrome_order(seqs_y, mb)
    seqs_x = seqs_x[perm_x]
    seqs_y = seqs_y[perm_y]

    div = np.zeros((len(seqs_x), len(seqs_y)))
    mass_log = np.zeros_like(div)
    for cell, mass in enumerate(code.mu.table.reshape(-1).tolist()):
        a, b = divmod(cell, sy)
        count = ((seqs_x == a).astype(np.float64)
                 @ (seqs_y == b).astype(np.float64).T).astype(np.intp)
        div += cell_terms(mass, n)[count]
        mass_log += cell_log_masses(mass, n)[count]

    def block_min(table):
        return np.minimum.reduceat(np.minimum.reduceat(table, starts_x, axis=0),
                                   starts_y, axis=1)

    def spread(blocks):
        # one value per block, repeated over the block's rectangle
        return np.repeat(np.repeat(blocks, sizes_x, axis=0), sizes_y, axis=1)

    tied = div <= spread(block_min(div) + TIE_TOL)
    rank = off_x[:, None] * np.repeat(sizes_y, sizes_y)[None, :] + off_y[None, :]
    winner = block_min(np.where(tied, rank, np.iinfo(np.intp).max))
    wrong_log_mass = np.where(rank != spread(winner), mass_log, -np.inf)

    # back to row-major (x, y) source order for a left-to-right error sum;
    # right pairs contribute exact zeros, which leave the running sum alone
    w = np.exp2(wrong_log_mass[np.ix_(np.argsort(perm_x), np.argsort(perm_y))])
    error = np.cumsum(w)[-1]
    return min(1.0, float(error))


def sw_error_mc(code: SwCode, decoder: str = "md", trials: int = 1000,
                seed: int = 0, gamma: float = 0.0,
                cap: int = DEFAULT_CAP) -> McEstimate:
    """Monte Carlo estimate of the decoding error with a Wilson interval.

    Runs on the block engine of ``hashprop.mc``: a block of ``size`` trials
    draws its (size, n) source cells by inverse CDF of the row-major flat
    law from one ``rng.random`` call, and each distinct syndrome tuple is
    decoded once, with the cache kept across blocks. A decoder failure
    counts as an error. The result depends only on the arguments."""
    if trials < 1:
        raise SwError("trials must be >= 1")
    wrong = _wrong_decodes(code, decoder, gamma, cap)

    def block_errors(rng, size):
        cells = inverse_cdf(code.mu.table.reshape(-1), rng.random((size, code.n)))
        return wrong(np.stack(np.unravel_index(cells, code.mu.shape), axis=1)).sum()

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
