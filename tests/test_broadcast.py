"""Broadcast coding: joint assembly, rate feasibility, encode/decode, error,
kappa schedules, and the random code search."""

import itertools
import math

import numpy as np
import pytest

from hashprop.broadcast import (
    BcCode,
    BcError,
    BcProblem,
    RateParams,
    bc_build_joint,
    bc_check_params,
    bc_code_search,
    bc_decode,
    bc_encode,
    bc_error_exact,
    bc_error_mc,
    bc_feasible_params,
    bc_rate_region,
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
    channel = CondDistribution(table, given_shape=(4,))
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
    assert sp.x_given_u((1, 1))[0] == 1.0


def test_build_joint_mass_and_structure():
    p = split_channel()
    joint = bc_build_joint(p)
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
    a = FieldMatrix.from_dense(2, [[1, 0], [0, 1]][: n - 1])
    ap = FieldMatrix.from_dense(2, [[1, 1]])
    pair = (FieldMatrix.from_dense(2, [[1, 0]]), ap)
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
    """Independent direct computation of the error on a tiny instance."""
    p = split_channel()
    code = _split_code()
    spaces = [code.message_space(j) for j in range(2)]
    wrong = 0.0
    p_m = 1.0 / (len(spaces[0]) * len(spaces[1]))
    for m_K in itertools.product(*spaces):
        enc = bc_encode(code, p, m_K)
        y0 = tuple(x >> 1 for x in enc.x)
        y1 = tuple(x & 1 for x in enc.x)
        ok = (bc_decode(code, p, 0, y0) == m_K[0]
              and bc_decode(code, p, 1, y1) == m_K[1])
        if not ok:
            wrong += p_m
    assert bc_error_exact(code, p) == pytest.approx(wrong)


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
    with pytest.raises(BcError):
        kappa_schedule(ns, betas, xi=0.0)
    with pytest.raises(BcError):
        kappa_schedule(ns, [(0.5, 0.5)], xi=0.5)


def test_rows_for_rate_half_up():
    assert rows_for_rate(0.75, 4, 2) == 3
    assert rows_for_rate(0.75, 6, 2) == 5  # 4.5 rounds half up
    assert rows_for_rate(0.75, 8, 2) == 6
    assert rows_for_rate(1.0, 3, 4) == 2  # log2(4) = 2 bits per symbol
    assert rows_for_rate(0.0, 5, 2) == 0


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


# --- an oracle independent of bc_encode / bc_decode -------------------------
#
# Coset members come from filtering all of GF(2)^n with numpy, and scores
# from the loops below.  Every mass is a dyadic rational, so each sum the
# oracle and the library form is exact and their floats agree bit for bit;
# ties are then decided identically, and decisions can be compared exactly.


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
    return BcProblem(channel=CondDistribution(channel, given_shape=(x_size,)),
                     mu_u=Distribution(prior), f=f)


def _dyadic_code(rng, n: int) -> BcCode:
    pairs, syndromes = [], []
    for _ in range(2):
        a = rng.integers(0, 2, size=(int(rng.integers(0, 3)), n))
        ap = rng.integers(0, 2, size=(1, n))
        u = rng.integers(0, 2, size=n)
        pairs.append((FieldMatrix.from_dense(2, a) if len(a) else FieldMatrix.zeros(2, 0, n),
                      FieldMatrix.from_dense(2, ap)))
        syndromes.append(tuple(int(v) for v in a @ u % 2))
    return BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))


def _solutions(n: int, dense: np.ndarray, rhs) -> list[tuple[int, ...]]:
    """Every u in GF(2)^n with dense u = rhs, in lexicographic order."""
    words = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    keep = (words @ dense.T % 2 == np.asarray(rhs, dtype=np.int64)).all(axis=1)
    return [tuple(int(v) for v in w) for w in words[keep]]


def _oracle_type_divergence(columns, ref: np.ndarray) -> float:
    n = len(columns[0])
    counts: dict = {}
    for symbols in zip(*columns):
        counts[symbols] = counts.get(symbols, 0) + 1
    total = 0.0
    for cell in itertools.product(*(range(s) for s in ref.shape)):
        c = counts.get(cell, 0)
        if c:
            if ref[cell] == 0.0:
                return math.inf
            total += c / n * math.log2(c / n / float(ref[cell]))
    return total


def _oracle_encode(code: BcCode, p: BcProblem, messages):
    """(u_K, divergence) of the first strict divergence minimum over the
    product of coset intersections, or None if one is empty."""
    inter = []
    for (a_m, ap_m), a, m in zip(code.pairs, code.syndromes, messages):
        dense = np.concatenate([a_m.to_dense(), ap_m.to_dense()])
        inter.append(_solutions(code.n, dense, tuple(a) + tuple(m)))
    if not all(inter):
        return None
    best, best_d = None, math.inf
    for cand in itertools.product(*inter):
        d = _oracle_type_divergence(cand, p.mu_u.table)
        if best is None or d < best_d:
            best, best_d = cand, d
    return best, best_d


def _oracle_conditional(p: BcProblem, j: int) -> list[list[float]]:
    """mu_{U_j | Y_j}[u][y] by direct summation over the joint law."""
    joint = [[0.0, 0.0], [0.0, 0.0]]
    for u in itertools.product(range(2), repeat=2):
        x = int(p.f[u])
        for y in itertools.product(range(2), repeat=2):
            joint[u[j]][y[j]] += float(p.mu_u.table[u]) * float(p.channel.table[y + (x,)])
    cond = [[0.0, 0.0], [0.0, 0.0]]
    for y in range(2):
        col = joint[0][y] + joint[1][y]
        for u in range(2):
            cond[u][y] = joint[u][y] / col if col > 0 else 0.5
    return cond


def _oracle_decode(members, cond, y, variant: str):
    """(winner, whether every score was infinite) under the first strict
    optimum rule; the first member wins when every score is infinite."""
    n = len(y)
    scores = []
    for u in members:
        if variant == "ml":
            s = 0.0
            for us, ys in zip(u, y):
                if cond[us][ys] == 0.0:
                    s = -math.inf
                    break
                s += math.log2(cond[us][ys])
            scores.append(-s)  # minimize the negated log-posterior
            continue
        total = 0.0
        for v in range(2):
            n_v = sum(1 for ys in y if ys == v)
            if n_v == 0:
                continue
            d_v = 0.0
            for us in range(2):
                c = sum(1 for a, b in zip(u, y) if (a, b) == (us, v))
                if c:
                    if cond[us][v] == 0.0:
                        d_v = math.inf
                        break
                    d_v += c / n_v * math.log2(c / n_v / cond[us][v])
            total += n_v / n * d_v
        scores.append(total)
    best = 0
    for i, s in enumerate(scores):
        if s < scores[best]:
            best = i
    return members[best], all(math.isinf(s) for s in scores)


def test_encode_decode_match_independent_oracle():
    rng = np.random.default_rng(2718)
    all_infinite = {"encode": 0, "ml": 0, "md": 0}
    encodes = decodes = 0
    for trial in range(20):
        p = _dyadic_problem(rng)
        code = _dyadic_code(rng, n=3 + trial % 3)
        n = code.n
        spaces = [sorted({tuple(int(v) for v in ap.to_dense() @ np.array(u) % 2)
                          for u in itertools.product((0, 1), repeat=n)})
                  for _, ap in code.pairs]
        for m_K in itertools.product(*spaces):
            enc = bc_encode(code, p, m_K)
            ref = _oracle_encode(code, p, m_K)
            encodes += 1
            if ref is None:
                assert enc.failure and enc.u_K is None
                continue
            assert not enc.failure
            assert enc.u_K == ref[0]
            assert enc.divergence == ref[1]
            assert enc.x == tuple(int(p.f[s]) for s in zip(*ref[0]))
            all_infinite["encode"] += math.isinf(ref[1])
        for j, (a_m, ap_m) in enumerate(code.pairs):
            members = _solutions(n, a_m.to_dense(), code.syndromes[j])
            cond = _oracle_conditional(p, j)
            for y in itertools.product((0, 1), repeat=n):
                for variant in ("ml", "md"):
                    u, infinite = _oracle_decode(members, cond, y, variant)
                    expected = tuple(int(v) for v in ap_m.to_dense() @ np.array(u) % 2)
                    assert bc_decode(code, p, j, y, variant=variant) == expected
                    decodes += 1
                    all_infinite[variant] += infinite
    assert encodes >= 40 and decodes == 1440
    # the -inf / inf branches and their first-member rule were exercised
    assert min(all_infinite.values()) > 0, all_infinite


def test_cap_counts_members_built():
    """Encoder and decoder check q^(n - rank) against the cap before building."""
    p = split_channel()
    wide = FieldMatrix.from_dense(2, [[1] * 40])
    code = BcCode(pairs=((wide, wide), (wide, wide)), syndromes=((0,), (0,)))
    with pytest.raises(BcError, match="exceeds cap"):
        bc_decode(code, p, 0, (0,) * 40)
    with pytest.raises(BcError, match="exceeds cap"):
        bc_encode(code, p, ((0,), (0,)))
    with pytest.raises(BcError, match="exceeds cap"):
        bc_decode(_split_code(), p, 0, (0, 0), cap=1)  # a coset of 2


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
        BcProblem(channel=CondDistribution(noisy, given_shape=(4,)),
                  mu_u=Distribution(np.full((2, 2), 0.25)),
                  f=np.array([[0, 1], [2, 3]], dtype=np.int64)),
        BcProblem(channel=CondDistribution(sparse, given_shape=(3,)),
                  mu_u=Distribution([[0.4, 0.0], [0.25, 0.35]]),
                  f=np.array([[0, 1], [2, 0]], dtype=np.int64)),
    ]
    cases = []
    for p in problems:
        pairs, syndromes = [], []
        for _ in range(2):
            a = rng.integers(0, 2, size=(3, 6))
            pairs.append((FieldMatrix.from_dense(2, a),
                          FieldMatrix.from_dense(2, rng.integers(0, 2, size=(1, 6)))))
            syndromes.append(tuple(int(v) for v in a @ rng.integers(0, 2, size=6) % 2))
        cases.append((p, BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))))
    return cases


# Values recorded from the per-candidate reference encoder and decoders.
PINNED_BC_DIVERGENCES = [  # bc_encode(..).divergence.hex() per message pair
    ["0x1.4ea9070aed41cp-4"] * 4,
    ["0x1.47bd2785b32b3p-5", "0x1.2761bea6d8310p-4", "0x1.2761bea6d8310p-4",
     "0x1.bdb8507f1197ep-6"],
]
PINNED_BC_MC = [(26, 24), (173, 148)]  # (ml, md) errors of 200 trials


def test_pinned_bc_decisions():
    for i, (p, code) in enumerate(_pinned_bc_cases()):
        messages = itertools.product(code.message_space(0), code.message_space(1))
        assert [bc_encode(code, p, m).divergence.hex() for m in messages] == \
            PINNED_BC_DIVERGENCES[i]
        ml = bc_error_mc(code, p, trials=200, seed=31 + i, variant="ml").errors
        md = bc_error_mc(code, p, trials=200, seed=31 + i, variant="md").errors
        assert (ml, md) == PINNED_BC_MC[i]
