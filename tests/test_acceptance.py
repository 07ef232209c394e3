"""Acceptance suite: one test per criterion; the conftest hook prints one
pass/fail line per criterion at the end of the run.

Every comparison against an expected value goes through a brute-force
oracle of ``oracles``, written apart from the library, not through the
library routine under test.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hashprop.broadcast import (
    BcCode,
    BcProblem,
    bc_code_search,
    bc_error_exact,
    bc_error_mc,
    bc_feasible_params,
    rows_for_rate,
)
from hashprop.ensemble import (
    Ensemble,
    TypeFilter,
    alpha_beta_from_spectrum,
    collision_prob,
    universal_profile,
    verify_bound,
    verify_strong_hash,
)
from hashprop.gf import FieldMatrix
from hashprop.lp_md import build_type_constraints, md_via_lp, polytope_vertex_audit
from hashprop.slepian_wolf import (
    SwCode,
    SwRates,
    sw_decode_md,
    sw_encode,
    sw_error_exact,
    sw_error_mc,
    sw_rate_check,
)
from hashprop.types import (
    CondDistribution,
    Distribution,
    joint_type,
    verify_typicality_bounds,
)

DSBS_005 = Distribution([[0.475, 0.025], [0.025, 0.475]])


# --- criterion 1: universal-hash exactness ----------------------------------


def test_criterion_1():
    """All binary matrices, n <= 3, l <= 2: exact 2^-l collisions, (1,0)-H3."""
    start = time.monotonic()
    for l in (1, 2):
        for n in (1, 2, 3):
            ens = Ensemble.uniform_all(2, l, n)
            support = ens.enumerate_support()
            assert len(support) == 2 ** (l * n)
            domain = list(ens.domain())
            threshold = Fraction(1, 2 ** l)
            for u, u2 in itertools.combinations(domain, 2):
                cp = collision_prob(ens, u, u2, support=support)
                assert cp == threshold  # exact, and never strictly above
            profile = universal_profile(ens)
            assert (profile.alpha, profile.beta) == (1, 0)
            reports = verify_strong_hash(ens, profile, support=support)
            # beta = 0 means the collision sum must be empty for every u
            assert all(r["holds"] and r["lhs_sum"] == 0 for r in reports)
    assert time.monotonic() - start < 1.0


# --- criterion 2: sparse-ensemble (alpha, beta) at desk scale ---------------


def test_criterion_2():
    """Exact (alpha, beta) from the spectrum, then exhaustive H3."""
    start = time.monotonic()
    for q, l, n, tau in ((2, 1, 2, 2), (2, 2, 2, 2), (2, 2, 3, 2)):
        ens = Ensemble.sparse(q, l, n, tau)
        support = ens.enumerate_support()
        profile = alpha_beta_from_spectrum(ens, TypeFilter.default(n), support=support)
        assert profile.alpha >= 1 and profile.beta >= 0
        reports = verify_strong_hash(ens, profile, support=support)
        assert all(r["holds"] for r in reports)
    assert time.monotonic() - start < 10.0


# --- criterion 3: lemma bounds across random set choices --------------------


def _random_subset(rng, pool, max_size):
    size = int(rng.integers(1, max_size + 1))
    idx = rng.choice(len(pool), size=size, replace=False)
    return [pool[i] for i in idx]


def test_criterion_3():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    uni = Ensemble.uniform_all(2, 1, 2)
    spr = Ensemble.sparse(2, 2, 2, 2)
    setups = [
        (uni, universal_profile(uni), uni.enumerate_support()),
        (spr, alpha_beta_from_spectrum(spr, TypeFilter.default(2)),
         spr.enumerate_support()),
    ]
    for ens, profile, support in setups:
        domain = list(ens.domain())
        for _ in range(50):
            T = _random_subset(rng, domain, 4)
            T2 = _random_subset(rng, domain, 4)
            assert verify_bound("whash", ens, profile, T, T2, support=support)["holds"]
            G = _random_subset(rng, domain, 4)
            point = domain[int(rng.integers(0, len(domain)))]
            assert verify_bound("crp", ens, profile, G, point, support=support)["holds"]
            assert verify_bound("sp", ens, profile, T, support=support)["holds"]
    (ea, pa, sa), (eb, pb, sb) = setups
    da, db = list(ea.domain()), list(eb.domain())
    all_pairs = [(u, v) for u in da for v in db]
    for _ in range(100):
        pairs = _random_subset(rng, all_pairs, 6)
        point = all_pairs[int(rng.integers(0, len(all_pairs)))]
        assert verify_bound("cross_crp", ea, eb, pa, pb, pairs, point,
                            supports=(sa, sb))["holds"]
        assert verify_bound("cross_sp", ea, eb, pa, pb, pairs,
                            supports=(sa, sb))["holds"]
    # k = 3, n = 2 binary
    es = [uni, uni, uni]
    ps = [universal_profile(uni)] * 3
    sup = [setups[0][2]] * 3
    triples = [(u, v, w) for u in da for v in da for w in da]
    for _ in range(10):
        T = _random_subset(rng, triples, 5)
        point = triples[int(rng.integers(0, len(triples)))]
        assert verify_bound("multi_crp", es, ps, T, point, supports=sup)["holds"]
        assert verify_bound("multi_sp", es, ps, T, supports=sup)["holds"]
    assert time.monotonic() - start < 60.0


# --- criterion 4: joint-type fixture ----------------------------------------


def test_criterion_4():
    x = [0, 1, 0, 0, 1, 0, 1, 0]
    y = [0, 0, 1, 0, 1, 0, 0, 1]
    assert joint_type([x, y], (2, 2)).counts == ((3, 2), (2, 1))


# --- criterion 5: SW decoder and error oracle equivalence -------------------


def test_criterion_5():
    rng = np.random.default_rng(11)
    mu_pool = [
        DSBS_005,
        Distribution([[0.4, 0.1], [0.2, 0.3]]),
        Distribution([[0.25, 0.25], [0.25, 0.25]]),
    ]
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        la = int(rng.integers(1, n + 1))
        lb = int(rng.integers(1, n + 1))
        mats = (
            FieldMatrix(2, rng.integers(0, 2, size=(la, n))),
            FieldMatrix(2, rng.integers(0, 2, size=(lb, n))),
        )
        mu = mu_pool[int(rng.integers(0, len(mu_pool)))]
        code = SwCode(mats, mu)
        x = tuple(int(v) for v in rng.integers(0, 2, size=n))
        y = tuple(int(v) for v in rng.integers(0, 2, size=n))
        syn = sw_encode(code, (x, y))
        assert sw_decode_md(code, syn).x_hat == oracles.sw_decode(code, syn)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        la = int(rng.integers(1, n + 1))
        lb = int(rng.integers(1, n + 1))
        mats = (
            FieldMatrix(2, rng.integers(0, 2, size=(la, n))),
            FieldMatrix(2, rng.integers(0, 2, size=(lb, n))),
        )
        mu = mu_pool[int(rng.integers(0, len(mu_pool)))]
        code = SwCode(mats, mu)
        assert sw_error_exact(code) == pytest.approx(oracles.sw_error(code)[0], abs=1e-12)


# --- criterion 6: SW error trend over block length --------------------------


def test_criterion_6():
    """Best-of-32 sparse codes at symmetric rates (0.75, 0.75): the exact
    error should be non-increasing over n in {4, 6, 8} for >= 8 of 10 seeds.

    Row counts realize the rate by half-up rounding, so n = 6 carries
    5/6 per source instead of 3/4; the criterion is checked literally."""
    assert sw_rate_check(SwRates((0.75, 0.75)), DSBS_005)["inside"]
    wins = 0
    for seed in range(10):
        errors = []
        for n in (4, 6, 8):
            l = rows_for_rate(0.75, n, 2)
            ens = Ensemble.sparse(2, l, n, 2)
            rng = np.random.default_rng(1000 + seed)
            best = math.inf
            for _ in range(32):
                code = SwCode((ens.sample(rng), ens.sample(rng)), DSBS_005)
                best = min(best, sw_error_exact(code))
            errors.append(best)
        if errors[0] >= errors[1] >= errors[2]:
            wins += 1
    assert wins >= 8, f"monotone trend held in only {wins} of 10 seeds"


# --- criterion 7: broadcast zero-error construction + error oracle ----------


def _split_problem() -> BcProblem:
    table = np.zeros((2, 2, 4))
    for x in range(4):
        table[x >> 1, x & 1, x] = 1.0
    return BcProblem(
        channel=CondDistribution(table),
        mu_u=Distribution(np.full((2, 2), 0.25)),
        f=np.array([[0, 1], [2, 3]], dtype=np.int64),
    )


def _random_bc_instance(rng):
    n = int(rng.integers(2, 4))
    x_size = int(rng.integers(2, 5))
    channel = rng.random((2, 2, x_size))
    mask = rng.random((2, 2, x_size)) < 0.3
    channel[mask] = 0.0
    for x in range(x_size):
        if channel[..., x].sum() == 0:
            channel[0, 0, x] = 1.0
        channel[..., x] /= channel[..., x].sum()
    mu_u = rng.random((2, 2)) + 0.05
    mu_u /= mu_u.sum()
    f = rng.integers(0, x_size, size=(2, 2))
    p = BcProblem(channel=CondDistribution(channel),
                  mu_u=Distribution(mu_u), f=f)
    pairs = []
    syndromes = []
    for _ in range(2):
        la = int(rng.integers(0, 2))
        a = FieldMatrix(2, rng.integers(0, 2, size=(la, n)))
        ap = FieldMatrix(2, rng.integers(0, 2, size=(1, n)))
        u = tuple(int(v) for v in rng.integers(0, 2, size=n))
        pairs.append((a, ap))
        syndromes.append(a.matvec(u))
    return p, BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))


def test_criterion_7():
    p = _split_problem()
    params = bc_feasible_params(p, (0.5, 0.5))
    assert params is not None
    n = 4
    ensembles = tuple(
        (
            Ensemble.uniform_all(2, rows_for_rate(r, n, 2), n),
            Ensemble.uniform_all(2, rows_for_rate(R, n, 2), n),
        )
        for r, R in params.pairs
    )
    found = 0
    for seed in range(10):
        out = bc_code_search(p, params, ensembles, tries=64, seed=seed)
        if out["error"] == 0.0:
            found += 1
    assert found >= 9, f"zero-error code found in only {found} of 10 seeds"

    rng = np.random.default_rng(77)
    for i in range(50):
        prob, code = _random_bc_instance(rng)
        variant = "ml" if i % 2 == 0 else "md"
        lib = bc_error_exact(code, prob, variant=variant)
        assert lib == pytest.approx(oracles.bc_error(code, prob, variant), abs=1e-9)


# --- criterion 8: LP decode equivalence on integral instances ---------------


def test_criterion_8():
    rng = np.random.default_rng(8)
    n_plan = [3] * 100 + [4] * 70 + [6] * 24 + [8] * 6
    integral_seen = 0
    for n in n_plan:
        ens = Ensemble.sparse(2, n - 1, n, 2)
        mats = (ens.sample(rng), ens.sample(rng))
        code = SwCode(mats, DSBS_005)
        x = tuple(int(v) for v in rng.integers(0, 2, size=n))
        y = tuple(int(v) for v in rng.integers(0, 2, size=n))
        syn = sw_encode(code, (x, y))
        res = md_via_lp(mats, syn, DSBS_005)
        if res.all_integral:
            integral_seen += 1
            ref = sw_decode_md(code, syn)
            assert res.x_hat == ref.x_hat
            ref_d = oracles.divergence(ref.x_hat, DSBS_005.table)
            assert res.divergence == pytest.approx(ref_d, abs=1e-12)
    assert integral_seen >= 1
    # constraint-count formulas
    for n in (2, 4, 8):
        t2 = [n] + [0] * 3
        assert len(build_type_constraints(t2, n, 2)) == 24 * n + 4
        t3 = [n] + [0] * 7
        assert len(build_type_constraints(t3, n, 3)) == (2 * 4 * n + 1) * 8


# --- criterion 9: polytope vertex audit -------------------------------------


def test_criterion_9():
    start = time.monotonic()
    for k in (1, 2, 3):
        for b in itertools.product((0, 1), repeat=k):
            out = polytope_vertex_audit(b)
            assert out["holds"], (b, out)
    assert time.monotonic() - start < 5.0


# --- criterion 10: typicality bounds ----------------------------------------


def test_criterion_10():
    start = time.monotonic()
    binary = Distribution([0.7, 0.3])
    ternary = Distribution([0.5, 0.3, 0.2])
    for mu in (binary, ternary):
        for gamma in (0.1, 0.5, 1.0):
            for lemma in ("prob", "aep", "number"):
                out = verify_typicality_bounds(lemma, mu, gamma=gamma, n=12)
                assert out["holds"], (lemma, mu.shape, gamma, out)
    joints = [
        (Distribution([[0.4, 0.1], [0.2, 0.3]]), 4),
        (Distribution([[0.20, 0.10, 0.05],
                       [0.05, 0.20, 0.10],
                       [0.10, 0.05, 0.15]]), 3),
    ]
    for mu, n in joints:
        for gamma in (0.1, 0.5, 1.0):
            out = verify_typicality_bounds("trans", mu, gamma=gamma, n=n,
                                           gamma_cond=gamma)
            assert out["holds"], (mu.shape, gamma, out)
    assert time.monotonic() - start < 60.0


# --- criterion 11: Monte Carlo calibration ----------------------------------


def test_criterion_11():
    sw_code = SwCode(
        (FieldMatrix(2, [[1, 1]]), FieldMatrix(2, [[1, 0]])),
        DSBS_005,
    )
    sw_exact = sw_error_exact(sw_code)

    table = np.zeros((2, 2, 4))
    for x in range(4):
        table[x >> 1, x & 1, x] = 1.0
    table = 0.9 * table + 0.1 / 4
    table /= table.reshape(-1, 4).sum(axis=0)
    p = BcProblem(channel=CondDistribution(table),
                  mu_u=Distribution(np.full((2, 2), 0.25)),
                  f=np.array([[0, 1], [2, 3]], dtype=np.int64))
    pair = (FieldMatrix(2, [[1, 0]]), FieldMatrix(2, [[1, 1]]))
    bc_code = BcCode(pairs=(pair, pair), syndromes=((0,), (0,)))
    bc_exact = bc_error_exact(bc_code, p)

    covered = 0
    for rep in range(50):
        est = sw_error_mc(sw_code, trials=10_000, seed=rep)
        covered += est.ci_lo <= sw_exact <= est.ci_hi
    for rep in range(50):
        est = bc_error_mc(bc_code, p, trials=10_000, seed=10_000 + rep)
        covered += est.ci_lo <= bc_exact <= est.ci_hi
    assert covered >= 93, f"interval covered the exact error in {covered}/100 reps"
