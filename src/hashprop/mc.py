"""Shared Monte Carlo plumbing: Wilson intervals, the keyed random streams,
the block engine and the distinct rows of a block."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Z_95 = 1.959963984540054
TRIAL_BLOCK = 4096


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    p, z2 = successes / trials, Z_95 * Z_95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (Z_95 / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class McEstimate:
    """An error-rate estimate with its 95% Wilson interval."""

    errors: int
    trials: int
    estimate: float
    ci_lo: float
    ci_hi: float

    @classmethod
    def from_counts(cls, errors: int, trials: int) -> "McEstimate":
        lo, hi = wilson_interval(errors, trials)
        return cls(errors=errors, trials=trials, estimate=errors / trials,
                   ci_lo=lo, ci_hi=hi)


def stream(seed: int, *key: int) -> np.random.Generator:
    """The generator on ``SeedSequence(seed, spawn_key=key)``, the package's one
    maker of random streams; the empty key is ``default_rng(seed)``'s stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators from ``seed``; generator i is ``stream(seed,
    i)``, so block i of a run draws the same stream at any trial count."""
    return [stream(seed, i) for i in range(count)]


def run_blocks(seed: int, trials: int, block_errors: Callable) -> McEstimate:
    """Count the failed trials among ``trials``: block i calls
    ``block_errors(rng, size)`` with generator i of ``spawn_rngs``."""
    n_blocks = -(-trials // TRIAL_BLOCK)
    errors = sum(int(block_errors(rng, min(TRIAL_BLOCK, trials - i * TRIAL_BLOCK)))
                 for i, rng in enumerate(spawn_rngs(seed, n_blocks)))
    return McEstimate.from_counts(errors, trials)


def inverse_cdf(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A cell of the law p[..., :] per uniform u in [0, 1): the count of CDF
    entries <= u, with the CDF scaled to end at 1.0 so zero-mass tails never draw."""
    cdf = np.cumsum(p, axis=-1)
    return (cdf / cdf[..., -1:] <= u[..., None]).sum(axis=-1)


def row_keys(rows: np.ndarray, bases) -> np.ndarray:
    """One int64 per row of a 2-D integer array whose column i holds
    symbols in [0, bases[i]): equal for equal rows and ordered as the rows
    are lexicographically.  It is the row's mixed-radix value when the
    product of the bases fits, else its rank among the distinct rows."""
    if math.prod(bases) >= 1 << 63:
        return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    weights = np.array([math.prod(bases[i + 1:]) for i in range(len(bases))], dtype=np.int64)
    return rows @ weights


def distinct_rows(rows: np.ndarray, bases) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` for a 2-D integer array whose column i holds
    symbols in [0, bases[i]): the index of one row per distinct row, and
    per row the position of its distinct row in ``first``, from the
    ``row_keys``."""
    _, first, inverse = np.unique(row_keys(rows, bases), return_index=True, return_inverse=True)
    return first, inverse
