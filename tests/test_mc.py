"""Wilson intervals, seed-stream derivation, and the Monte Carlo block
engine replayed trial by trial."""

import itertools

import numpy as np
import pytest

import oracles
from hashprop.broadcast import BcCode, BcProblem, bc_error_mc
from hashprop.gf import FieldMatrix
from hashprop.mc import (
    TRIAL_BLOCK,
    McEstimate,
    Z_95,
    distinct_rows,
    spawn_rngs,
    wilson_interval,
)
from hashprop.slepian_wolf import SwCode, sw_error_mc
from hashprop.types import CondDistribution, Distribution


def test_wilson_interval_known_value():
    lo, hi = wilson_interval(5, 10)
    # closed form with z = 1.959963984540054
    z2 = Z_95 * Z_95
    center = (0.5 + z2 / 20) / (1 + z2 / 10)
    half = (Z_95 / (1 + z2 / 10)) * np.sqrt(0.025 + z2 / 400)
    assert lo == pytest.approx(center - half)
    assert hi == pytest.approx(center + half)


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert 0.9 < lo < 1.0 and hi == 1.0
    with pytest.raises(ValueError):
        wilson_interval(2, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)


def test_mc_estimate_from_counts():
    est = McEstimate.from_counts(3, 12)
    assert est.estimate == pytest.approx(0.25)
    assert est.ci_lo < 0.25 < est.ci_hi


def test_spawn_rngs_deterministic_and_independent():
    a = spawn_rngs(99, 5)
    b = spawn_rngs(99, 5)
    assert len(a) == 5
    draws_a = [rng.integers(0, 1 << 30) for rng in a]
    draws_b = [rng.integers(0, 1 << 30) for rng in b]
    assert draws_a == draws_b
    assert len(set(int(d) for d in draws_a)) == 5


@pytest.mark.parametrize("bases", [[2] * 6 + [5] * 3, [1 << 40] * 2, []],
                         ids=["radix", "whole-rows", "no-columns"])
def test_distinct_rows(bases):
    """One representative per distinct row and the map back, by a radix key
    or, when the key would overflow int64, by whole rows."""
    rng = np.random.default_rng(len(bases))
    pool = np.stack([rng.integers(0, b, size=7) for b in bases], axis=1) if bases \
        else np.zeros((7, 0), dtype=np.int64)
    rows = pool[rng.integers(0, 7, size=200)]
    first, inverse = distinct_rows(rows, bases)
    assert len(first) == len({tuple(r) for r in rows.tolist()})
    assert np.array_equal(rows[first][inverse], rows)


# --- the block engine against a per-trial replay ----------------------------
#
# The replay redraws each block's uniforms in the engine's documented order
# from the same generators, then runs every trial on its own through the
# encoders and decoders of ``oracles``, with no vectorization.

DSBS = Distribution([[0.45, 0.05], [0.05, 0.45]])


def _blocks(seed: int, trials: int):
    n_blocks = -(-trials // TRIAL_BLOCK)
    for i, rng in enumerate(spawn_rngs(seed, n_blocks)):
        yield rng, min(TRIAL_BLOCK, trials - i * TRIAL_BLOCK)


def _sw_replay(code: SwCode, decoder: str, trials: int, seed: int, gamma: float = 0.0):
    checks = [(oracles.dense(m), m.q) for m in code.matrices]
    errors = failures = 0
    decoded = {}
    for rng, size in _blocks(seed, trials):
        u = rng.random((size, code.n))
        for row in u:
            cells = [np.unravel_index(oracles.draw(code.mu.table, v), code.mu.shape) for v in row]
            x_K = tuple(tuple(int(c[j]) for c in cells) for j in range(code.k))
            syn = tuple(oracles.syndromes(d, q, [x])[0] for (d, q), x in zip(checks, x_K))
            if syn not in decoded:
                decoded[syn] = oracles.sw_decode(code, syn, decoder, gamma)
            failures += decoded[syn] is None
            errors += decoded[syn] != x_K
    return errors, failures


def _dense(rng, q: int, rows: int, n: int) -> FieldMatrix:
    return FieldMatrix(q, rng.integers(0, q, size=(rows, n)))


def test_sw_engine_matches_replay_md_across_blocks():
    rng = np.random.default_rng(70)
    code = SwCode((_dense(rng, 2, 2, 4), _dense(rng, 2, 2, 4)), DSBS)
    trials = TRIAL_BLOCK + 1
    errors, _ = _sw_replay(code, "md", trials, seed=5)
    assert sw_error_mc(code, trials=trials, seed=5).errors == errors > 0


def test_sw_engine_matches_replay_ml_with_failures():
    rng = np.random.default_rng(71)
    code = SwCode((_dense(rng, 2, 3, 6), _dense(rng, 2, 3, 6)), DSBS)
    errors, failures = _sw_replay(code, "ml", 400, seed=6, gamma=0.05)
    assert 0 < failures < errors < 400
    est = sw_error_mc(code, decoder="ml", gamma=0.05, trials=400, seed=6)
    assert est.errors == errors


def test_sw_engine_matches_replay_three_sources():
    """Zero-mass cells, a ternary source, and a binary source coded over GF(3),
    with md and ml."""
    rng = np.random.default_rng(72)
    mass = rng.random((3, 2, 2)) * (rng.random((3, 2, 2)) < 0.8)
    mu = Distribution(mass / mass.sum())
    code = SwCode((_dense(rng, 3, 2, 4), _dense(rng, 3, 2, 4), _dense(rng, 2, 3, 4)), mu)
    for decoder, gamma in (("md", 0.0), ("ml", 0.3)):
        errors, _ = _sw_replay(code, decoder, 500, seed=7, gamma=gamma)
        assert sw_error_mc(code, decoder, trials=500, seed=7, gamma=gamma).errors == errors > 0


def _noisy_split_problem(stochastic: bool) -> BcProblem:
    table = np.zeros((2, 2, 4))
    for x in range(4):
        table[x >> 1, x & 1, x] = 1.0
    table = 0.85 * table + 0.15 / 4
    if stochastic:
        # each u-tuple sends its own x or, with mass 0.3, the next one
        f = np.zeros((2, 2, 4))
        for u, v in itertools.product(range(2), repeat=2):
            f[u, v, 2 * u + v] = 0.7
            f[u, v, (2 * u + v + 1) % 4] = 0.3
    else:
        f = np.array([[0, 1], [2, 3]], dtype=np.int64)
    return BcProblem(channel=CondDistribution(table),
                     mu_u=Distribution([[0.3, 0.2], [0.2, 0.3]]), f=f)


def _bc_code(seed: int, n: int = 5) -> BcCode:
    """Receiver 1's message row repeats the first row of its A, so the
    message that disagrees with the shared syndrome leaves an empty coset
    intersection: an encoder failure."""
    rng = np.random.default_rng(seed)
    pairs, syndromes = [], []
    for j in range(2):
        a = rng.integers(0, 2, size=(2, n))
        a[0, 0] = 1
        ap = a[:1] if j == 1 else rng.integers(0, 2, size=(1, n))
        pairs.append((FieldMatrix(2, a), FieldMatrix(2, ap)))
        syndromes.append(tuple(int(v) for v in a @ rng.integers(0, 2, size=n) % 2))
    return BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))


def _bc_replay(code: BcCode, p: BcProblem, variant: str, trials: int, seed: int):
    spaces = [oracles.image(oracles.dense(ap), ap.q) for _, ap in code.pairs]
    decoders = [oracles.bc_decoder(code, p, j, variant) for j in range(code.k)]
    yshape = p.channel.table.shape[:-1]
    errors = failures = 0
    for rng, size in _blocks(seed, trials):
        msgs = [rng.integers(0, len(space), size=size) for space in spaces]
        ux = None if p.deterministic else rng.random((size, code.n))
        uy = rng.random((size, code.n))
        for t in range(size):
            m_K = tuple(space[int(idx[t])] for space, idx in zip(spaces, msgs))
            encoded = oracles.bc_encode(code, p, m_K)
            if encoded is None:
                errors += 1
                failures += 1
                continue
            xs = [int(p.f[u]) if p.deterministic else oracles.draw(p.f[u], ux[t, i])
                  for i, u in enumerate(zip(*encoded[0]))]
            ys = [np.unravel_index(oracles.draw(p.channel.table[..., x], uy[t, i]), yshape)
                  for i, x in enumerate(xs)]
            errors += any(decode(tuple(int(y[j]) for y in ys))[0] != m_K[j]
                          for j, decode in enumerate(decoders))
    return errors, failures


@pytest.mark.parametrize("stochastic", [False, True], ids=["deterministic", "stochastic"])
@pytest.mark.parametrize("variant", ["ml", "md"])
def test_bc_engine_matches_replay(variant, stochastic):
    p = _noisy_split_problem(stochastic)
    code = _bc_code(80)
    errors, failures = _bc_replay(code, p, variant, 300, seed=8)
    assert 0 < failures < errors < 300
    assert bc_error_mc(code, p, trials=300, seed=8, variant=variant).errors == errors


def test_same_seed_same_result():
    rng = np.random.default_rng(73)
    code = SwCode((_dense(rng, 2, 3, 6), _dense(rng, 2, 3, 6)), DSBS)
    assert sw_error_mc(code, trials=700, seed=3) == sw_error_mc(code, trials=700, seed=3)
    p = _noisy_split_problem(stochastic=True)
    bc = _bc_code(81)
    assert bc_error_mc(bc, p, trials=700, seed=3) == bc_error_mc(bc, p, trials=700, seed=3)
