"""Broadcast coding: joint assembly, rate feasibility, encode/decode, error,
kappa schedules, and the random code search."""

import itertools
import math

import numpy as np
import pytest

import oracles
from hashprop import broadcast, gf, types
from hashprop.broadcast import (
    BcCode,
    BcError,
    BcProblem,
    RateParams,
    bc_check_params,
    bc_code_search,
    bc_decode,
    bc_decode_batch,
    bc_encode,
    bc_error_exact,
    bc_error_mc,
    bc_feasible_params,
    bc_rate_region,
    bc_select_batch,
    kappa_schedule,
    rows_for_rate,
)
from hashprop.ensemble import Ensemble
from hashprop.gf import FieldMatrix
from hashprop.types import CondDistribution, Distribution


def split_channel() -> BcProblem:
    """Noiseless split channel: X = (U, V) in {0..3}, Y = U, Z = V."""
    table = np.zeros((2, 2, 4))
    for x in range(4):
        table[x >> 1, x & 1, x] = 1.0
    channel = CondDistribution(table)
    mu_u = Distribution(np.full((2, 2), 0.25))
    f = np.array([[0, 1], [2, 3]], dtype=np.int64)
    return BcProblem(channel=channel, mu_u=mu_u, f=f)


def test_problem_validation():
    p = split_channel()
    assert p.deterministic and p.k == 2
    with pytest.raises(BcError):
        BcProblem(channel=p.channel, mu_u=p.mu_u, f=np.array([[0, 4], [1, 2]]))
    with pytest.raises(BcError):
        BcProblem(channel=p.channel, mu_u=p.mu_u, f=np.zeros((2, 2, 3)))
    stoch = np.zeros((2, 2, 4))
    stoch[..., 0] = 1.0
    sp = BcProblem(channel=p.channel, mu_u=p.mu_u, f=stoch)
    assert not sp.deterministic
    assert sp.joint[1, 1, 0, 0, 0] == 0.25  # x = 0 whatever u, so y = z = 0


def test_build_joint_mass_and_structure():
    p = split_channel()
    joint = p.joint
    assert joint.table.shape == (2, 2, 4, 2, 2)
    assert joint.table.sum() == pytest.approx(1.0)
    # noiseless: Y = U and Z = V hold with probability one
    for u, v in itertools.product(range(2), repeat=2):
        assert joint[u, v, 2 * u + v, u, v] == pytest.approx(0.25)


def test_rate_region_split_channel():
    p = split_channel()
    # I(U;Y) = I(V;Z) = 1 bit, independent auxiliaries: region is R1,R2 < 1
    out = bc_rate_region(p, (0.5, 0.5))
    assert out["inside"]
    sums = {c["J"]: c["bound"] for c in out["constraints"]}
    assert sums[(0,)] == pytest.approx(1.0)
    assert sums[(0, 1)] == pytest.approx(2.0)
    assert not bc_rate_region(p, (1.0, 0.5))["inside"]  # strict
    with pytest.raises(BcError):
        bc_rate_region(p, (0.5,))


def test_rate_params_validation():
    with pytest.raises(BcError):
        RateParams(pairs=((0.1, 0.5),), eps=0.0)


def test_feasible_params_split_channel():
    p = split_channel()
    params = bc_feasible_params(p, (0.5, 0.5))
    assert params is not None
    assert bc_check_params(p, params)["holds"]
    # independent auxiliaries force the relaxed lower-bound margin
    assert params.relaxed
    for (r, R), rate in zip(params.pairs, (0.5, 0.5)):
        assert R == rate and r > 0
    assert bc_feasible_params(p, (1.2, 0.5)) is None


def _split_code(n: int = 2) -> BcCode:
    a = FieldMatrix(2, [[1, 0], [0, 1]][: n - 1])
    ap = FieldMatrix(2, [[1, 1]])
    pair = (FieldMatrix(2, [[1, 0]]), ap)
    return BcCode(pairs=(pair, pair), syndromes=((0,), (0,)))


def test_code_validation_and_rates():
    code = _split_code()
    assert code.k == 2 and code.n == 2
    assert code.rates() == ((0.5, 0.5), (0.5, 0.5))
    assert code.message_space(0) == [(0,), (1,)]
    with pytest.raises(BcError):
        BcCode(pairs=code.pairs, syndromes=((0, 1), (0,)))
    bad = FieldMatrix.zeros(2, 1, 2)  # zero row: image is {0}
    with pytest.raises(BcError):
        BcCode(pairs=((bad, code.pairs[0][1]),) * 2, syndromes=((1,), (0,)))


def test_encode_decode_round_trip():
    p = split_channel()
    code = _split_code()
    for m0 in code.message_space(0):
        for m1 in code.message_space(1):
            enc = bc_encode(code, p, (m0, m1))
            assert not enc.failure
            # noiseless channel: y_j is determined by x
            y0 = tuple(x >> 1 for x in enc.x)
            y1 = tuple(x & 1 for x in enc.x)
            assert bc_decode(code, p, 0, y0, variant="ml") == m0
            assert bc_decode(code, p, 1, y1, variant="ml") == m1
            assert bc_decode(code, p, 0, y0, variant="md") == m0
    with pytest.raises(BcError):
        bc_encode(code, p, ((0,),))
    with pytest.raises(BcError):
        bc_decode(code, p, 0, (0, 0), variant="nope")


def test_encode_stochastic_map_needs_rng():
    p = split_channel()
    stoch = np.zeros((2, 2, 4))
    for u, v in itertools.product(range(2), repeat=2):
        stoch[u, v, 2 * u + v] = 1.0
    sp = BcProblem(channel=p.channel, mu_u=p.mu_u, f=stoch)
    code = _split_code()
    with pytest.raises(BcError):
        bc_encode(code, sp, ((0,), (0,)))
    enc = bc_encode(code, sp, ((0,), (0,)), rng=np.random.default_rng(0))
    assert not enc.failure


def test_error_exact_zero_on_noiseless_code():
    p = split_channel()
    code = _split_code()
    assert bc_error_exact(code, p, variant="ml") == 0.0
    assert bc_error_exact(code, p, variant="md") == 0.0


def test_error_exact_oracle_small():
    """The exact error of a tiny instance against the enumeration oracle."""
    p = split_channel()
    code = _split_code()
    assert bc_error_exact(code, p) == pytest.approx(oracles.bc_error(code, p, "ml"))


def test_error_mc_matches_exact():
    p = split_channel()
    code = _split_code()
    est = bc_error_mc(code, p, trials=200, seed=3)
    assert est.errors == 0 and est.ci_lo == 0.0
    with pytest.raises(BcError):
        bc_error_mc(code, p, trials=0)


def test_kappa_schedule_power_rule():
    ns = (4, 8, 16, 32)
    betas = [tuple(2.0 ** -n for n in ns)]
    sched = kappa_schedule(ns, betas, xi=0.5)
    assert sched.rule == "power"
    assert sched.kappa == tuple(float(n) ** 0.5 for n in ns)
    assert sched.checks["k2_product_vanishes"]
    assert sched.checks["k3_subexponential"]


def test_kappa_schedule_inverse_sqrt_rule():
    ns = (4, 8, 16, 32)
    betas = [(0.5, 0.5, 0.5, 0.5)]  # constant beta: n^xi rule must be refused
    sched = kappa_schedule(ns, betas, xi=0.5)
    assert sched.rule == "inverse-sqrt-beta"
    assert sched.kappa == tuple(1.0 / math.sqrt(0.5) for _ in ns)
    assert not sched.checks["k1_grows"]  # constant kappa is flagged
    # beta n^xi falls from 0.8 to 0.45: below min(1/2, 0.8) but not below
    # half its start, so it does not vanish
    assert kappa_schedule((4, 16), [(0.4, 0.1125)], xi=0.5).rule == "inverse-sqrt-beta"
    with pytest.raises(BcError):
        kappa_schedule(ns, betas, xi=0.0)
    with pytest.raises(BcError):
        kappa_schedule(ns, [(0.5, 0.5)], xi=0.5)


def test_kappa_schedule_refuses_nonpositive_n():
    """A block length n <= 0 is refused, as xi <= 0 is."""
    for ns in ((0, 4, 8), (-4, 4, 8)):
        with pytest.raises(BcError, match="block lengths"):
            kappa_schedule(ns, [(1.0, 0.9, 0.9)], xi=0.5)


def test_rows_for_rate_half_up():
    assert rows_for_rate(0.75, 4, 2) == 3
    assert rows_for_rate(0.75, 6, 2) == 5  # 4.5 rounds half up
    assert rows_for_rate(0.75, 8, 2) == 6
    assert rows_for_rate(1.0, 3, 4) == 2  # log2(4) = 2 bits per symbol
    assert rows_for_rate(0.0, 5, 2) == 0
    assert rows_for_rate(0.6, 4, 2) == 2  # 2.4 rounds down, not up


def test_code_search_finds_zero_error():
    p = split_channel()
    params = bc_feasible_params(p, (0.5, 0.5))
    n = 4
    la = rows_for_rate(params.pairs[0][0], n, 2)
    lr = rows_for_rate(0.5, n, 2)
    ens = tuple(
        (Ensemble.uniform_all(2, la, n), Ensemble.uniform_all(2, lr, n))
        for _ in range(2)
    )
    out = bc_code_search(p, params, ens, tries=16, seed=0)
    assert out["error"] == 0.0
    assert out["tries"] <= 16
    assert out["requested_rates"] == params.pairs
    assert len(out["realized_rates"]) == 2
    with pytest.raises(BcError):
        bc_code_search(p, params, ens, tries=0, seed=0)


# --- against the oracles of ``oracles`` -------------------------------------
#
# Every mass is a dyadic rational, so the oracle and the library work from
# bit-equal tables.


def _dyadic_problem(rng) -> BcProblem:
    """|U_j| = |Y_j| = 2, masses in multiples of 1/16 (prior) and 1/8
    (channel); zero-mass channel outputs and auxiliary cells are common."""
    x_size = int(rng.integers(2, 5))
    channel = np.zeros((2, 2, x_size))
    for x in range(x_size):
        support = rng.random(4) < 0.6
        support[int(rng.integers(0, 4))] = True
        counts = rng.multinomial(8, support / support.sum())
        channel[..., x] = counts.reshape(2, 2) / 8
    prior = rng.multinomial(16, rng.dirichlet(np.full(4, 0.7))).reshape(2, 2) / 16
    f = rng.integers(0, x_size, size=(2, 2))
    return BcProblem(channel=CondDistribution(channel),
                     mu_u=Distribution(prior), f=f)


def _dyadic_code(rng, n: int) -> BcCode:
    pairs, syndromes = [], []
    for _ in range(2):
        a = rng.integers(0, 2, size=(int(rng.integers(0, 3)), n))
        ap = rng.integers(0, 2, size=(1, n))
        u = rng.integers(0, 2, size=n)
        pairs.append((FieldMatrix(2, a) if len(a) else FieldMatrix.zeros(2, 0, n),
                      FieldMatrix(2, ap)))
        syndromes.append(tuple(int(v) for v in a @ u % 2))
    return BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))


def test_encode_decode_match_independent_oracle():
    rng = np.random.default_rng(2718)
    all_infinite = {"encode": 0, "ml": 0, "md": 0}
    encodes = decodes = 0
    for trial in range(20):
        p = _dyadic_problem(rng)
        code = _dyadic_code(rng, n=3 + trial % 3)
        n = code.n
        spaces = [oracles.image(oracles.dense(ap), 2) for _, ap in code.pairs]
        for m_K in itertools.product(*spaces):
            enc = bc_encode(code, p, m_K)
            ref = oracles.bc_encode(code, p, m_K)
            encodes += 1
            if ref is None:
                assert enc.failure and enc.u_K is None
                continue
            assert not enc.failure
            assert enc.u_K == ref[0]
            assert enc.divergence == ref[1]
            assert enc.x == tuple(int(p.f[s]) for s in zip(*ref[0]))
            all_infinite["encode"] += math.isinf(ref[1])
        for j, variant in itertools.product(range(2), ("ml", "md")):
            decode = oracles.bc_decoder(code, p, j, variant)
            for y in itertools.product((0, 1), repeat=n):
                message, infinite = decode(y)
                assert bc_decode(code, p, j, y, variant=variant) == message
                decodes += 1
                all_infinite[variant] += infinite
    assert encodes >= 40 and decodes == 1440
    # the -inf / inf branches and their first-member rule were exercised
    assert min(all_infinite.values()) > 0, all_infinite


def test_decode_ml_matches_exact_oracle():
    """ML decodes against exact posteriors: each position multiplies
    Fraction(mu_{U_j|Y_j} cell), so members of one joint type with y tie
    exactly, and the first member within 1e-12 of the best log2-posterior
    wins.  Random channels and priors make the masses non-dyadic."""
    rng = np.random.default_rng(4242)
    ties = 0
    for _ in range(40):
        channel = rng.dirichlet(np.full(4, 0.8), size=4).T.reshape(2, 2, 4)
        p = BcProblem(channel=CondDistribution(channel),
                      mu_u=Distribution(rng.dirichlet(np.ones(4)).reshape(2, 2)),
                      f=np.array([[0, 1], [2, 3]], dtype=np.int64))
        n = int(rng.integers(4, 9))
        pairs, syndromes = [], []
        for _ in range(2):
            a = rng.integers(0, 2, size=(int(rng.integers(max(0, n - 5), n - 1)), n))
            pairs.append((FieldMatrix(2, a) if len(a) else FieldMatrix.zeros(2, 0, n),
                          FieldMatrix(2, rng.integers(0, 2, size=(2, n)))))
            syndromes.append(tuple(int(v) for v in a @ rng.integers(0, 2, size=n) % 2))
        code = BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))
        for j in range(2):
            members, cond = oracles.bc_members(code, p, j), oracles.bc_conditional(p, j)
            for _ in range(5):
                y = tuple(int(v) for v in rng.integers(0, 2, size=n))
                tied = oracles.ml_ties([members, [y]], cond)
                tied = [oracles.bc_message(code, j, u) for u, _ in tied]
                ties += len(set(tied)) > 1
                assert bc_decode(code, p, j, y, variant="ml") == tied[0]
    assert ties > 0


def test_cap_counts_members_built():
    """Encoder and decoder check q^(n - rank) against the cap before building."""
    p = split_channel()
    wide = FieldMatrix(2, [[1] * 40])
    code = BcCode(pairs=((wide, wide), (wide, wide)), syndromes=((0,), (0,)))
    with pytest.raises(BcError, match="exceeds cap"):
        bc_decode(code, p, 0, (0,) * 40)
    with pytest.raises(BcError, match="exceeds cap"):
        bc_encode(code, p, ((0,), (0,)))
    with pytest.raises(BcError, match="exceeds cap"):
        bc_decode(_split_code(), p, 0, (0, 0), cap=1)  # a coset of 2


@pytest.mark.parametrize("chunk", [types.SCORE_CHUNK, 7])
def test_batch_select_and_decode_match_oracle(monkeypatch, chunk):
    """One ``bc_select_batch`` call over every message tuple and one
    ``bc_decode_batch`` call per receiver and variant over every output
    equal the independent oracle row by row, whether the batch is scored in
    one slice or in SCORE_CHUNK-sized slices.  Receiver 1's message row
    repeats the first row of its A, so the message that disagrees with the
    shared syndrome leaves an empty coset intersection."""
    monkeypatch.setattr(types, "SCORE_CHUNK", chunk)
    rng = np.random.default_rng(5150)
    seen = {"failure": 0, "infinite": 0, "ml": 0, "md": 0}
    decodes = 0
    for trial in range(12):
        p = _dyadic_problem(rng)
        n = 3 + trial % 3
        pairs, syndromes = [], []
        for j in range(2):
            a = rng.integers(0, 2, size=(2, n))
            a[0, 0] = 1
            ap = a[:1] if j == 1 else rng.integers(0, 2, size=(1, n))
            pairs.append((FieldMatrix(2, a), FieldMatrix(2, ap)))
            syndromes.append(tuple(int(v) for v in a @ rng.integers(0, 2, size=n) % 2))
        code = BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))
        tuples = list(itertools.product(code.message_space(0), code.message_space(1)))
        u, failure, divergence = bc_select_batch(
            code, p, [np.array([m[j] for m in tuples]) for j in range(2)])
        for row, m_K in enumerate(tuples):
            ref = oracles.bc_encode(code, p, m_K)
            if ref is None:
                assert failure[row] and math.isinf(divergence[row])
                seen["failure"] += 1
                continue
            assert not failure[row]
            assert tuple(map(tuple, u[row].tolist())) == ref[0]
            assert divergence[row] == ref[1]
            seen["infinite"] += math.isinf(ref[1])
        ys = np.array(list(itertools.product((0, 1), repeat=n)))
        for j, variant in itertools.product(range(2), ("ml", "md")):
            decode = oracles.bc_decoder(code, p, j, variant)
            for y, message in zip(ys.tolist(), bc_decode_batch(code, p, j, ys, variant).tolist()):
                ref, infinite = decode(tuple(y))
                assert tuple(message) == ref
                decodes += 1
                seen[variant] += infinite
    # md over every output of a noisy split code at n = 8: one row group
    # holds outputs of many types, each scored against one table
    p, code = noisy_split_channel(), _noisy_split_code(8)
    ys = np.array(list(itertools.product((0, 1), repeat=8)))
    for j in range(2):
        decode = oracles.bc_decoder(code, p, j, "md")
        for y, message in zip(ys.tolist(), bc_decode_batch(code, p, j, ys, "md").tolist()):
            assert tuple(message) == decode(tuple(y))[0]
            decodes += 1
    assert decodes == 2 * 2 * 4 * (2 ** 3 + 2 ** 4 + 2 ** 5) + 2 * 2 ** 8
    # empty intersections and the all-infinite first-member rules were exercised
    assert min(seen.values()) > 0, seen


def test_batch_cap_raises_before_building(monkeypatch):
    """Both batch forms check the cap against each coset's size before they
    build it."""
    p = split_channel()
    code = _split_code()

    def refuse(*args, **kwargs):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(gf, "coset_batch", refuse)
    with pytest.raises(BcError, match="exceeds cap"):
        bc_select_batch(code, p, [np.zeros((3, 1), dtype=np.int64)] * 2, cap=0)
    with pytest.raises(BcError, match="exceeds cap"):
        bc_decode_batch(code, p, 0, np.zeros((3, 2), dtype=np.int64), cap=1)
    monkeypatch.undo()
    assert bc_decode_batch(code, p, 0, np.zeros((3, 2), dtype=np.int64), cap=2).shape == (3, 1)


def _pinned_bc_cases():
    """A noisy split channel and a random channel with zero-mass outputs and a
    zero-mass auxiliary cell, each with a seeded two-receiver n = 6 code."""
    noisy = np.zeros((2, 2, 4))
    for x in range(4):
        noisy[x >> 1, x & 1, x] = 1.0
    noisy = 0.9 * noisy + 0.1 / 4
    rng = np.random.default_rng(606)
    sparse = rng.random((2, 2, 3)) * (rng.random((2, 2, 3)) < 0.6)
    sparse[0, 0] += 0.05
    sparse /= sparse.reshape(-1, 3).sum(axis=0)
    problems = [
        BcProblem(channel=CondDistribution(noisy),
                  mu_u=Distribution(np.full((2, 2), 0.25)),
                  f=np.array([[0, 1], [2, 3]], dtype=np.int64)),
        BcProblem(channel=CondDistribution(sparse),
                  mu_u=Distribution([[0.4, 0.0], [0.25, 0.35]]),
                  f=np.array([[0, 1], [2, 0]], dtype=np.int64)),
    ]
    cases = []
    for p in problems:
        pairs, syndromes = [], []
        for _ in range(2):
            a = rng.integers(0, 2, size=(3, 6))
            pairs.append((FieldMatrix(2, a),
                          FieldMatrix(2, rng.integers(0, 2, size=(1, 6)))))
            syndromes.append(tuple(int(v) for v in a @ rng.integers(0, 2, size=6) % 2))
        cases.append((p, BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))))
    return cases


# Values recorded from the per-candidate reference encoder and decoders.
PINNED_BC_DIVERGENCES = [  # bc_encode(..).divergence.hex() per message pair
    ["0x1.4ea9070aed41cp-4"] * 4,
    ["0x1.47bd2785b32b3p-5", "0x1.2761bea6d8310p-4", "0x1.2761bea6d8310p-4",
     "0x1.bdb8507f1197ep-6"],
]
# (ml, md) errors of 200 trials, recorded with ties between members of equal
# posterior going to the lexicographically first one, on the block-engine
# draw streams
PINNED_BC_MC = [(39, 39), (169, 148)]


def test_pinned_bc_decisions():
    for i, (p, code) in enumerate(_pinned_bc_cases()):
        messages = itertools.product(code.message_space(0), code.message_space(1))
        assert [bc_encode(code, p, m).divergence.hex() for m in messages] == \
            PINNED_BC_DIVERGENCES[i]
        ml = bc_error_mc(code, p, trials=200, seed=31 + i, variant="ml").errors
        md = bc_error_mc(code, p, trials=200, seed=31 + i, variant="md").errors
        assert (ml, md) == PINNED_BC_MC[i]


def test_gf3_code_over_binary_auxiliaries_matches_oracle():
    """A GF(3) code over binary auxiliaries: the encoder and both decoders
    search only the coset members inside {0, 1}^n, as the oracle does."""
    rng = np.random.default_rng(303)
    failures = decodes = 0
    for trial in range(16):
        p = _dyadic_problem(rng)
        n = 3 + trial % 2
        pairs, syndromes = [], []
        for _ in range(2):
            a = rng.integers(0, 3, size=(int(rng.integers(0, 3)), n))
            pairs.append((FieldMatrix(3, a) if len(a) else FieldMatrix.zeros(3, 0, n),
                          FieldMatrix(3, rng.integers(0, 3, size=(1, n)))))
            # a binary u, so the shared coset has a member inside the alphabet
            syndromes.append(tuple(int(v) for v in a @ rng.integers(0, 2, size=n) % 3))
        code = BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))
        spaces = [oracles.image(oracles.dense(ap), 3) for _, ap in code.pairs]
        for m_K in itertools.product(*spaces):
            enc = bc_encode(code, p, m_K)
            ref = oracles.bc_encode(code, p, m_K)
            if ref is None:
                assert enc.failure
                failures += 1
                continue
            assert (enc.u_K, enc.divergence) == ref
        for j, variant in itertools.product(range(2), ("ml", "md")):
            decode = oracles.bc_decoder(code, p, j, variant)
            for y in itertools.product((0, 1), repeat=n):
                assert bc_decode(code, p, j, y, variant=variant) == decode(y)[0]
                decodes += 1
        assert 0.0 <= bc_error_exact(code, p) <= 1.0
        assert bc_error_mc(code, p, trials=50, seed=trial).trials == 50
    assert failures > 0 and decodes == 8 * 4 * (2 ** 3 + 2 ** 4)  # per n: 2 receivers, 2 variants


def test_no_member_inside_alphabet_is_a_bc_error():
    """A shared coset with no member inside U_j^n leaves receiver j nothing
    to decode to, as a SW coset with no member inside the source alphabet."""
    p = split_channel()
    a = FieldMatrix(3, [[1, 0]])  # a = 2 forces u_1 = 2
    ap = FieldMatrix(3, [[0, 1]])
    code = BcCode(pairs=((a, ap), (a, ap)), syndromes=((2,), (2,)))
    assert bc_encode(code, p, ((0,), (0,))).failure
    with pytest.raises(BcError, match="inside U_j"):
        bc_decode(code, p, 0, (0, 0))
    with pytest.raises(BcError, match="inside U_j"):
        bc_error_exact(code, p)
    with pytest.raises(BcError, match="inside U_j"):
        bc_error_mc(code, p, trials=20)


def test_code_must_match_problem_receivers():
    p = split_channel()
    pair = _split_code().pairs[0]
    with pytest.raises(BcError, match="receiver"):
        BcCode(pairs=(), syndromes=())
    for count in (1, 3):
        code = BcCode(pairs=(pair,) * count, syndromes=((0,),) * count)
        with pytest.raises(BcError, match="receivers"):
            bc_error_exact(code, p)
        with pytest.raises(BcError, match="receivers"):
            bc_error_mc(code, p, trials=10)


def noisy_split_channel() -> BcProblem:
    """The split channel, each output pair replaced by a uniform one w.p. 0.1."""
    table = 0.9 * split_channel().channel.table + 0.1 / 4
    return BcProblem(channel=CondDistribution(table),
                     mu_u=Distribution(np.full((2, 2), 0.25)),
                     f=np.array([[0, 1], [2, 3]], dtype=np.int64))


def _noisy_split_code(n: int) -> BcCode:
    """Per receiver a 1 x n shared check and an (n // 2) x n message matrix."""
    rng = np.random.default_rng(n)
    pairs, syndromes = [], []
    for _ in range(2):
        a = rng.integers(0, 2, size=(1, n))
        pairs.append((FieldMatrix(2, a),
                      FieldMatrix(2, rng.integers(0, 2, size=(n // 2, n)))))
        syndromes.append(tuple(int(v) for v in a @ rng.integers(0, 2, size=n) % 2))
    return BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))


# (ml, md) exact errors recorded from the per-message enumeration of output
# tuples; the contraction sums in another order, so they agree to ulps
PINNED_BC_EXACT = {6: (0.3106482890624709, 0.30383261608883727),
                   7: (0.3418690476104259, 0.30610661042171017)}


def test_pinned_bc_exact_noisy_split():
    p = noisy_split_channel()
    for n, values in PINNED_BC_EXACT.items():
        code = _noisy_split_code(n)
        for variant, value in zip(("ml", "md"), values):
            assert bc_error_exact(code, p, variant=variant) == pytest.approx(value, abs=1e-12)


def test_exact_cap_raises_before_building(monkeypatch):
    """The cap counts both decode tables plus the contraction's largest
    operand (here one hit indicator), and is checked before any decode."""
    p = noisy_split_channel()
    code = _noisy_split_code(6)
    need = 2 * 2 ** 6 + 2 ** 6

    def refuse(*args, **kwargs):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(broadcast, "bc_select_batch", refuse)
    monkeypatch.setattr(broadcast, "bc_decode_batch", refuse)
    with pytest.raises(BcError, match="exceed cap"):
        bc_error_exact(code, p, cap=need - 1)
    with pytest.raises(BcError, match="exceed cap"):
        bc_error_exact(_noisy_split_code(24), p)  # 2 * 2^24 table entries
    monkeypatch.undo()
    assert bc_error_exact(code, p, cap=need) == pytest.approx(PINNED_BC_EXACT[6][0], abs=1e-12)


def test_exact_label_limit_is_a_bc_error():
    """numpy's einsum has 52 labels, one per (receiver, position)."""
    table = np.zeros((2, 2, 2, 2))
    table[0, 0, 0, :] = 1.0
    p = BcProblem(channel=CondDistribution(table),
                  mu_u=Distribution(np.full((2, 2, 2), 0.125)), f=np.zeros((2, 2, 2), dtype=np.int64))
    pair = (FieldMatrix(2, [[1] * 18]), FieldMatrix(2, [[1] + [0] * 17]))
    code = BcCode(pairs=(pair,) * 3, syndromes=((0,),) * 3)  # 3 tables of 2^18 fit the cap
    with pytest.raises(BcError, match="52"):
        bc_error_exact(code, p)


def _random_k_instance(rng, k: int):
    """k receivers with |U_j| = |Y_j| = 2, zero-mass channel and auxiliary
    cells, and a GF(2) or GF(3) code whose message cosets are often empty."""
    x_size = int(rng.integers(2, 4))
    channel = rng.random((2,) * k + (x_size,)) * (rng.random((2,) * k + (x_size,)) < 0.5)
    channel[(0,) * k] += 0.05
    channel /= channel.reshape(-1, x_size).sum(axis=0)
    mu_u = rng.random((2,) * k) * (rng.random((2,) * k) < 0.8)
    mu_u[(1,) * k] += 0.1
    p = BcProblem(channel=CondDistribution(channel),
                  mu_u=Distribution(mu_u / mu_u.sum()), f=rng.integers(0, x_size, size=(2,) * k))
    q = int(rng.integers(2, 4))
    n = int(rng.integers(3, 6)) if k == 1 else int(rng.integers(2, 4))
    pairs, syndromes = [], []
    for _ in range(k):
        a = rng.integers(0, q, size=(int(rng.integers(0, 2)), n))
        pairs.append((FieldMatrix(q, a) if len(a) else FieldMatrix.zeros(q, 0, n),
                      FieldMatrix(q, rng.integers(0, q, size=(int(rng.integers(1, 3)), n)))))
        syndromes.append(tuple(int(v) for v in a @ rng.integers(0, 2, size=n) % q))
    return p, BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))


@pytest.mark.parametrize("k", [1, 3])
def test_error_exact_matches_criterion_7_oracle(k):
    """The contraction against criterion 7's enumeration of output tuples,
    for one and for three receivers, with ml and md."""
    rng = np.random.default_rng(70 + k)
    failures = 0
    for i in range(12):
        p, code = _random_k_instance(rng, k)
        spaces = [oracles.image(oracles.dense(ap), ap.q) for _, ap in code.pairs]
        failures += any(oracles.bc_encode(code, p, m) is None for m in itertools.product(*spaces))
        variant = ("ml", "md")[i % 2]
        assert bc_error_exact(code, p, variant=variant) == \
            pytest.approx(oracles.bc_error(code, p, variant), abs=1e-12)
    assert failures > 0
