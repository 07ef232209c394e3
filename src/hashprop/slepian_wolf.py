"""Syndrome source coding for correlated sources: encoders a_j = A_j x_j,
minimum-divergence and typicality-constrained maximum-likelihood decoders,
and exact / Monte Carlo error evaluation.

Decoding is exhaustive over the coset product, which at desk scale is both
feasible and the reference oracle for the LP decoder.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gf import FieldMatrix, coset_factors
from .mc import McEstimate, spawn_rngs
from .types import (
    Distribution,
    TypicalityParams,
    cell_counts,
    entropy,
    product_divergences,
    product_member,
    product_scores,
    type_divergences,
)

DEFAULT_CAP = 1 << 20
# two mathematically tied joint types can produce float divergences an ulp
# apart depending on summation order; ties are therefore tolerance-based so
# the documented lexicographic tie-break is what actually decides
TIE_TOL = 1e-12


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
    best = d.min()
    # ties within TIE_TOL go to the earliest (lex-smallest) candidate
    winner = int(np.flatnonzero(d <= best + TIE_TOL)[0])
    return SwDecodeResult(x_hat=product_member(factors, winner),
                          all_infinite=bool(np.isinf(best)))


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
    mu_flat = code.mu.table.reshape(-1)

    def mass(cells):
        # multiplied position by position, as a per-candidate loop would
        out = np.ones(len(cells))
        for i in range(code.n):
            out *= mu_flat[cells[:, i]]
        return out

    masses = product_scores(factors, code.mu.shape, mass)
    if constrained:
        typical = [
            type_divergences(cell_counts(f, size), code.mu.marginal((axis,))) < params.gamma
            for axis, (f, size) in enumerate(zip(factors, code.mu.shape))
        ]
        admissible = np.outer(*typical).reshape(-1)
        if not admissible.any():
            return SwDecodeResult(x_hat=None, failure=True)
        masses = np.where(admissible, masses, -1.0)
    return SwDecodeResult(x_hat=product_member(factors, int(np.argmax(masses))))


def _decoder_fn(code: SwCode, decoder: str, gamma: float, cap: int):
    if decoder == "md":
        return lambda syn: sw_decode_md(code, syn, cap=cap)
    if decoder == "ml":
        return lambda syn: sw_decode_ml_typical(code, syn, gamma, cap=cap)
    if decoder == "ml_unconstrained":
        return lambda syn: sw_decode_ml_typical(code, syn, gamma, constrained=False, cap=cap)
    raise SwError(f"unknown decoder {decoder!r}")


def sw_error_exact(code: SwCode, decoder: str = "md", gamma: float = 0.0,
                   cap: int = DEFAULT_CAP) -> float:
    """Exact decoding-error probability: total mu-mass of source tuples whose
    decode differs from the input (including decoder failures)."""
    total_seqs = 1
    for m, size in zip(code.matrices, code.mu.shape):
        total_seqs *= size ** m.cols
    if total_seqs > cap:
        raise SwError(f"{total_seqs} source tuples exceed cap {cap}")
    if decoder == "md" and code.k == 2:
        return _error_exact_fast2(code)
    decode = _decoder_fn(code, decoder, gamma, cap)
    cache: dict = {}
    error = 0.0
    for x_K in itertools.product(*(
        itertools.product(range(size), repeat=code.n) for size in code.mu.shape
    )):
        mass = 1.0
        for symbols in zip(*x_K):
            mass *= code.mu[symbols]
        if mass == 0.0:
            continue
        syn = sw_encode(code, x_K)
        if syn not in cache:
            cache[syn] = decode(syn)
        res = cache[syn]
        if res.failure or res.x_hat != x_K:
            error += mass
    return min(1.0, error)


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
    pair's divergence and log-mass are then sums of per-cell lookups
    term[count] and count * log2(mu_cell), added cell by cell. Each block is
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

    mu_flat = code.mu.table.reshape(-1)
    with np.errstate(divide="ignore"):
        log_mu = np.log2(mu_flat)
    k = np.arange(n + 1)
    nu = k / n
    div = np.zeros((len(seqs_x), len(seqs_y)))
    mass_log = np.zeros_like(div)
    for cell in range(sx * sy):
        a, b = divmod(cell, sy)
        count = ((seqs_x == a).astype(np.float64)
                 @ (seqs_y == b).astype(np.float64).T).astype(np.intp)
        if mu_flat[cell] > 0:
            term = np.zeros(n + 1)
            term[1:] = nu[1:] * (np.log2(nu[1:]) - log_mu[cell])
            div += term[count]
            mass_log += (k * log_mu[cell])[count]
        else:
            pos = count > 0
            div[pos] = np.inf
            mass_log[pos] = -np.inf

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
                seed: int = 0, gamma: float = 0.0, threads: int = 1,
                cap: int = DEFAULT_CAP) -> McEstimate:
    """Monte Carlo estimate of the decoding error with a Wilson interval.

    Each trial has its own derived RNG stream, so the result is identical for
    any thread count."""
    if trials < 1:
        raise SwError("trials must be >= 1")
    decode = _decoder_fn(code, decoder, gamma, cap)
    flat = code.mu.table.reshape(-1)
    shape = code.mu.shape
    rngs = spawn_rngs(seed, trials)
    cache: dict = {}

    def one_trial(rng) -> bool:
        cells = rng.choice(flat.size, size=code.n, p=flat)
        symbols = np.unravel_index(cells, shape)
        x_K = tuple(tuple(int(s) for s in col) for col in symbols)
        syn = sw_encode(code, x_K)
        if syn not in cache:
            cache[syn] = decode(syn)
        res = cache[syn]
        return res.failure or res.x_hat != x_K

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one_trial, rngs))
    else:
        outcomes = [one_trial(rng) for rng in rngs]
    return McEstimate.from_counts(sum(outcomes), trials)


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
