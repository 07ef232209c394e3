"""Ensembles, spectra, (alpha, beta) profiles, and bound verification."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hashprop import ensemble, types
from hashprop.ensemble import (
    Ensemble,
    EnsembleError,
    EnsembleProfile,
    TypeFilter,
    alpha_beta_from_spectrum,
    bound_lem_E,
    collision_prob,
    spectrum_table,
    universal_profile,
    verify_bound,
    verify_strong_hash,
)
from hashprop.mc import stream


def test_type_filter_default():
    assert TypeFilter.default(4).w_min == 1
    assert TypeFilter.default(10).w_min == 1
    assert TypeFilter.default(11).w_min == 2
    assert TypeFilter.default(10 ** 400 + 1).w_min == 10 ** 399 + 1  # no float division
    assert TypeFilter(1).contains((1, 1))
    assert not TypeFilter(2).contains((1, 1))


def test_sparse_parameter_validation():
    with pytest.raises(EnsembleError):
        Ensemble.sparse(2, 2, 2, 3)  # odd tau
    with pytest.raises(EnsembleError):
        Ensemble.sparse(2, 2, 2, 0)
    with pytest.raises(Exception):
        Ensemble.sparse(4, 2, 2, 2)  # composite modulus


def test_dimension_validation():
    for bad in (lambda: Ensemble.uniform_all(2, -1, 2), lambda: Ensemble.uniform_all(2, 1, 0),
                lambda: Ensemble.sparse(2, 0, 2, 2), lambda: Ensemble.binning(2, 2, 0)):
        with pytest.raises(EnsembleError):
            bad()
    assert Ensemble.uniform_all(2, 0, 1).support_size() == 1  # zero rows is fine


def test_support_sizes():
    assert Ensemble.uniform_all(2, 2, 3).support_size() == 2 ** 6
    assert Ensemble.sparse(3, 2, 2, 2).support_size() == (2 * 2) ** 4
    assert Ensemble.binning(2, 2, 3).support_size() == 3 ** 4
    prod = Ensemble.product(Ensemble.uniform_all(2, 1, 2), Ensemble.uniform_all(2, 1, 2))
    assert prod.support_size() == 16 and prod.image_size == 4


def test_enumerate_support_cap():
    with pytest.raises(EnsembleError):
        Ensemble.uniform_all(2, 4, 5).enumerate_support(cap=100)
    # a support exactly at the cap is enumerated, one past it is not
    assert len(Ensemble.uniform_all(2, 2, 3).enumerate_support(cap=64)) == 64
    for cap in (63, 0):
        with pytest.raises(EnsembleError, match=f"2\\^6 elementary outcomes exceeds cap {cap}"):
            Ensemble.uniform_all(2, 2, 3).enumerate_support(cap=cap)


def test_support_bits_without_the_power():
    """support_bits is log2 of support_size, from logarithms alone, so a
    support of 2^(2^71) outcomes is refused at once and its size printed as
    a power of two."""
    prod = Ensemble.product(Ensemble.uniform_all(3, 1, 2), Ensemble.sparse(3, 2, 2, 2))
    for e in (Ensemble.uniform_all(2, 2, 3), Ensemble.sparse(3, 2, 2, 2),
              Ensemble.sparse(2, 1, 3, 2), Ensemble.binning(2, 2, 3), Ensemble.binning(3, 2, 1),
              prod):
        assert e.support_bits() == pytest.approx(math.log2(e.support_size()), abs=1e-12)
    assert Ensemble.binning(2, 5000, 2).support_bits() == math.inf
    with pytest.raises(EnsembleError, match=r"support of 2\^2.361e\+21 elementary outcomes"):
        Ensemble.uniform_all(2, 2, 2 ** 70).enumerate_support()
    with pytest.raises(EnsembleError, match=r"support of 2\^inf elementary outcomes"):
        Ensemble.binning(2, 5000, 2).enumerate_support()


def test_hash_values_beyond_int64_refused():
    """A joint image of 2^64 values cannot be keyed in int64: refused, not wrapped."""
    e = Ensemble.sparse(2, 64, 1, 2)
    with pytest.raises(EnsembleError):
        collision_prob(e, (0,), (1,))


def test_sparse_support_probabilities_sum_to_one():
    e = Ensemble.sparse(2, 2, 2, 2)
    support = e.enumerate_support()
    assert sum(p for _, p in support) == 1
    # duplicates are merged: distinct matrices only
    mats = [m for m, _ in support]
    assert len(mats) == len(set(mats))


def test_sparse_degenerate_single_row():
    """With q=2, l=1, even tau the two draws cancel: only the zero matrix."""
    e = Ensemble.sparse(2, 1, 1, 2)
    support = e.enumerate_support()
    assert len(support) == 1
    m, p = support[0]
    assert p == 1 and m.entries == ()


def test_uniform_collision_prob_exact():
    for l in (1, 2):
        e = Ensemble.uniform_all(2, l, 2)
        support = e.enumerate_support()
        domain = list(e.domain())
        for u, u2 in itertools.combinations(domain, 2):
            assert collision_prob(e, u, u2, support=support) == Fraction(1, 2 ** l)


def test_uniform_spectrum_matches_type_class():
    e = Ensemble.uniform_all(2, 2, 3)
    table = spectrum_table(e)
    # S(uniform, t) = |C_t| q^{-l}
    sizes = {(2, 1): 3, (1, 2): 3, (0, 3): 1}
    for t, c in sizes.items():
        assert table[t] == Fraction(c, 4)
    assert (3, 0) not in table  # the zero type
    with pytest.raises(EnsembleError):
        spectrum_table(Ensemble.binning(2, 2, 2))


def test_sparse_profile_exact_and_strong_hash():
    e = Ensemble.sparse(2, 2, 2, 2)
    profile = alpha_beta_from_spectrum(e, TypeFilter.default(2))
    assert profile.alpha == 2 and profile.beta == 0
    reports = verify_strong_hash(e, profile)
    assert all(r["holds"] for r in reports)


def test_universal_profile_strong_hash():
    e = Ensemble.uniform_all(2, 2, 2)
    profile = universal_profile(e)
    assert (profile.alpha, profile.beta) == (1, 0)
    assert all(r["holds"] for r in verify_strong_hash(e, profile))


def test_profile_validation():
    with pytest.raises(EnsembleError):
        EnsembleProfile(alpha=Fraction(-1), beta=Fraction(0), image_size=2)


def test_bounds_hold_on_uniform():
    e = Ensemble.uniform_all(2, 1, 2)
    profile = universal_profile(e)
    support = e.enumerate_support()
    domain = list(e.domain())
    out = verify_bound("whash", e, profile, domain[:3], domain[1:], support=support)
    assert out["holds"]
    out = verify_bound("crp", e, profile, domain, domain[0], support=support)
    assert out["holds"]
    out = verify_bound("sp", e, profile, domain[:2], support=support)
    assert out["holds"]
    out = bound_lem_E(e, domain[1], support=support)
    assert out["holds"] and out["lhs"] == Fraction(1, 2)


def test_cross_and_multi_bounds_hold():
    ea = Ensemble.uniform_all(2, 1, 2)
    eb = Ensemble.sparse(2, 1, 2, 2)
    pa = universal_profile(ea)
    pb = alpha_beta_from_spectrum(eb, TypeFilter.default(2))
    da = list(ea.domain())
    pairs = [(u, v) for u in da[:2] for v in da[:2]]
    assert verify_bound("cross_crp", ea, eb, pa, pb, pairs, pairs[0])["holds"]
    assert verify_bound("cross_sp", ea, eb, pa, pb, pairs)["holds"]
    triples = [(u, u, u) for u in da]
    es = [ea, ea, ea]
    ps = [pa, pa, pa]
    assert verify_bound("multi_crp", es, ps, triples, triples[0])["holds"]
    assert verify_bound("multi_sp", es, ps, triples)["holds"]
    with pytest.raises(EnsembleError):
        verify_bound("nope")


# (lemma, G or T as a slice of the pair list, point index, lhs, rhs) per
# field size, recorded from the two-domain formulas before they were folded
# into the k-domain ones
EVERY_FIFTH, NONE, FIRST_TWO = slice(1, 20, 5), slice(0, 0), slice(0, 2)
PINNED_CROSS = {
    2: [("cross_crp", EVERY_FIFTH, 1, Fraction(3, 4), Fraction(3)),
        ("cross_crp", EVERY_FIFTH, -1, Fraction(1), Fraction(3)),
        ("cross_crp", NONE, 0, Fraction(0), Fraction(0)),
        ("cross_sp", EVERY_FIFTH, None, Fraction(9, 16), Fraction(13, 3)),
        ("cross_sp", FIRST_TWO, None, Fraction(3, 4), Fraction(8))],
    3: [("cross_crp", EVERY_FIFTH, 1, Fraction(13, 24), Fraction(2)),
        ("cross_crp", EVERY_FIFTH, -1, Fraction(29, 72), Fraction(2)),
        ("cross_crp", NONE, 0, Fraction(0), Fraction(0)),
        ("cross_sp", EVERY_FIFTH, None, Fraction(49, 72), Fraction(23, 4)),
        ("cross_sp", FIRST_TWO, None, Fraction(5, 6), Fraction(11))],
}


def test_cross_bounds_pinned():
    """Two-domain bounds of a uniform and a sparse ensemble, as exact
    fractions, including an empty collision set."""
    for q, cases in PINNED_CROSS.items():
        ea, eb = Ensemble.uniform_all(q, 1, 2), Ensemble.sparse(q, 1, 2, 2)
        pa, pb = universal_profile(ea), alpha_beta_from_spectrum(eb, TypeFilter.default(2))
        pairs = [(u, v) for u in ea.domain() for v in eb.domain()]
        for lemma, members, point, lhs, rhs in cases:
            args = (pairs[members],) if point is None else (pairs[members], pairs[point])
            out = verify_bound(lemma, ea, eb, pa, pb, *args)
            assert (out["lhs"], out["rhs"], out["holds"]) == (lhs, rhs, True)


def test_sampling_reproducible():
    e = Ensemble.sparse(2, 3, 4, 2)
    a = e.sample(np.random.default_rng(5))
    b = e.sample(np.random.default_rng(5))
    assert a == b
    # over GF(3) each draw takes a row, then a nonzero scale: pinned
    assert Ensemble.sparse(3, 3, 4, 2).sample(np.random.default_rng(5)).dense.tolist() == \
        [[2, 0, 1, 1], [0, 0, 0, 1], [2, 0, 1, 0]]
    with pytest.raises(EnsembleError):
        Ensemble.binning(2, 2, 2).sample(np.random.default_rng(0))


@pytest.mark.parametrize("e, message", [
    (Ensemble.uniform_all(2, 1 << 12, (1 << 12) + 1), "matrix exceeds 16777216 entries"),
    (Ensemble.sparse(2, 1, (1 << 24) + 1, 2), "matrix exceeds 16777216 entries"),
    (Ensemble.sparse(2, 2, 2, 20_000_000), "80000000 sparse draws exceed 16777216"),
    (Ensemble.sparse(2, 2, 2, 2 ** 70), f"{2 ** 72} sparse draws exceed 16777216"),
], ids=["uniform", "sparse", "sparse-tau-2e7", "sparse-tau-2^70"])
def test_sample_past_the_matrix_bound_is_refused(e, message):
    """A draw of more than MAX_MATRIX_ENTRIES entries, or of a sparse
    matrix by more than that many bounded draws (2 tau n), is refused before
    its arrays are allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(EnsembleError, match=message):
            e.sample(np.random.default_rng(0))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_uniform_sample_golden():
    """The uniform draw is one rng.integers call; recorded when a matrix
    was still stored as its sorted nonzero entries."""
    assert Ensemble.uniform_all(2, 3, 5).sample(np.random.default_rng(11)).dense.tolist() == \
        [[0, 0, 1, 0, 1], [1, 1, 0, 0, 0], [0, 1, 1, 0, 1]]
    assert Ensemble.uniform_all(3, 2, 4).sample(np.random.default_rng(12)).dense.tolist() == \
        [[1, 0, 2, 2], [0, 0, 0, 0]]


# (q, l, tau): the 3 x 5 (or 1 x 5) sparse draw from stream(10 q + tau) and
# the generator's next random(), recorded from the per-draw loop that made
# 2 tau n scalar rng.integers calls; with l = 1 no row is drawn, and over
# GF(2) no scale is
SPARSE_SAMPLE_GOLDEN = [
    ((2, 3, 2), "01111 11011 10100", "0x1.f9b09e644b470p-1"),
    ((2, 3, 4), "11010 00001 11011", "0x1.6ca03ea491472p-1"),
    ((2, 3, 6), "00101 11001 11100", "0x1.077ac08ed9ca2p-2"),
    ((3, 3, 2), "01000 01102 00011", "0x1.44affade6a5ccp-2"),
    ((3, 3, 4), "02200 02121 00222", "0x1.76bc71dec17e0p-4"),
    ((3, 3, 6), "00221 02100 00210", "0x1.e6eb0f02bd020p-2"),
    ((5, 3, 2), "30411 03300 31024", "0x1.cac1fe8716b7bp-1"),
    ((5, 3, 4), "43023 13004 31310", "0x1.5d1235580e442p-1"),
    ((5, 3, 6), "41203 23000 40432", "0x1.ca4e856144ea4p-1"),
    ((7, 3, 2), "01006 12042 60010", "0x1.d0ad38b9afadcp-1"),
    ((7, 3, 4), "64052 45360 35451", "0x1.0771de2dc1ff2p-2"),
    ((7, 3, 6), "23563 21152 60402", "0x1.2d9fc31839928p-3"),
    ((2, 1, 2), "00000", "0x1.7723a55315c12p-2"),
    ((5, 1, 4), "31031", "0x1.e5f4f2781ee1ap-2"),
]


@pytest.mark.parametrize("params, rows, after", SPARSE_SAMPLE_GOLDEN,
                         ids=[f"q{q}-l{l}-tau{tau}" for (q, l, tau), _, _ in SPARSE_SAMPLE_GOLDEN])
def test_sparse_sample_golden(params, rows, after):
    """The one vectorized draw gives the per-draw loop's matrix and leaves
    the generator where the loop did, so a second draw from the stream (as
    ``sweep`` makes) is unchanged too."""
    q, l, tau = params
    rng = stream(10 * q + tau)
    m = Ensemble.sparse(q, l, 5, tau).sample(rng)
    assert " ".join("".join(map(str, row)) for row in m.dense.tolist()) == rows
    assert rng.random().hex() == after


def test_sample_matches_support_distribution():
    """Empirical sparse sampling frequencies track the exact support."""
    e = Ensemble.sparse(2, 2, 1, 2)
    support = dict(e.enumerate_support())
    rng = np.random.default_rng(123)
    counts: dict = {}
    trials = 4000
    for _ in range(trials):
        m = e.sample(rng)
        counts[m] = counts.get(m, 0) + 1
    assert set(counts) <= set(support)
    for m, p in support.items():
        assert counts.get(m, 0) / trials == pytest.approx(float(p), abs=0.05)


def test_bounds_read_member_lists_as_sets():
    """A member listed twice gives the same lhs and rhs as listed once."""
    e, eb = Ensemble.sparse(2, 2, 2, 2), Ensemble.uniform_all(2, 1, 2)
    pe, pb = alpha_beta_from_spectrum(e, TypeFilter.default(2)), universal_profile(eb)
    d = list(e.domain())
    pairs = [(u, v) for u in d for v in d][::3]
    triples = [(u, u, v) for u in d for v in d][::2]
    cases = [("whash", (e, pe), [d[:3]], [d[1:]]),
             ("crp", (e, pe), [d[:3]], [d[0]]),
             ("sp", (e, pe), [d[:2]], []),
             ("cross_crp", (e, eb, pe, pb), [pairs], [pairs[1]]),
             ("cross_sp", (e, eb, pe, pb), [pairs], []),
             ("multi_crp", ([e, eb, e], [pe, pb, pe]), [triples], [triples[0]]),
             ("multi_sp", ([e, eb, e], [pe, pb, pe]), [triples], [])]
    for lemma, head, members, tail in cases:
        once = verify_bound(lemma, *head, *members, *tail)
        twice = verify_bound(lemma, *head, *(m + m[:2] for m in members), *tail)
        assert (twice["lhs"], twice["rhs"]) == (once["lhs"], once["rhs"]), lemma


ORACLE_ENSEMBLES = [
    Ensemble.uniform_all(2, 2, 2), Ensemble.uniform_all(3, 1, 2), Ensemble.sparse(2, 2, 3, 2),
    Ensemble.sparse(3, 1, 2, 2), Ensemble.binning(2, 2, 2),
    Ensemble.product(Ensemble.uniform_all(3, 1, 2), Ensemble.sparse(3, 1, 2, 2)),
]


@pytest.mark.parametrize("chunk", [types.SCORE_CHUNK, 37])
def test_audits_match_per_function_oracle(monkeypatch, chunk):
    """Every audit equals the per-function oracle as exact fractions; at a
    chunk of 37 the support, the H3 rows and the k-domain combinations are
    split into several chunks, the last one short."""
    monkeypatch.setattr(types, "SCORE_CHUNK", chunk)
    rng = np.random.default_rng(11)
    for e in ORACLE_ENSEMBLES:
        support, dom = e.enumerate_support(), list(e.domain())
        def oracle_cp(sup):
            return {(u, v): sum((p for fn, p in sup if oracles.hash_value(e, fn, u) ==
                                 oracles.hash_value(e, fn, v)), Fraction(0)) for u in dom for v in dom}
        cp, part = oracle_cp(support), support[::3]  # part lacks the ensemble's symmetries
        assert {(u, v): collision_prob(e, u, v, support) for u in dom for v in dom} == cp
        assert {(u, v): collision_prob(e, u, v, part) for u in dom for v in dom} == oracle_cp(part)
        profile = EnsembleProfile(Fraction(3, 2), Fraction(1, 8), e.image_size)
        if e.family == "binning":
            with pytest.raises(EnsembleError):
                spectrum_table(e)
        else:
            spec, sizes, filt = {}, {}, TypeFilter.default(e.n)
            for u in dom[1:]:  # u is in the kernel iff Au = A0
                t = tuple(u.count(a) for a in range(e.q))
                spec[t], sizes[t] = spec.get(t, 0) + cp[u, dom[0]], sizes.get(t, 0) + 1
            assert spectrum_table(e) == {t: s for t, s in spec.items() if s}
            ql = e.q ** e.l
            alpha = max(spec[t] * ql / sizes[t] for t in spec if filt.contains(t))
            beta = sum((spec[t] for t in spec if not filt.contains(t)), Fraction(0))
            profile = EnsembleProfile(alpha * e.image_size / ql, beta, e.image_size)
            assert alpha_beta_from_spectrum(e, filt) == profile
        for prof in (profile, EnsembleProfile(Fraction(1, 2), Fraction(1, 4), e.image_size)):
            cut = prof.alpha / prof.image_size
            lhs = [sum((cp[u, v] for v in dom if v != u and cp[u, v] > cut), Fraction(0))
                   for u in dom]
            assert [(r["u"], r["lhs_sum"], r["holds"]) for r in verify_strong_hash(e, prof)] == \
                [(u, x, x <= prof.beta) for u, x in zip(dom, lhs)]
        for _ in range(3):  # member lists with repeats, read as sets
            T, T2, G = ([dom[i] for i in rng.integers(len(dom), size=rng.integers(1, 2 * len(dom)))]
                        for _ in range(3))
            u = dom[rng.integers(len(dom))]
            assert verify_bound("whash", e, profile, T, T2)["lhs"] == \
                sum(cp[a, b] for a in set(T) for b in set(T2))
            assert verify_bound("crp", e, profile, G, u)["lhs"] == \
                oracles.crp([e], [support], [(g,) for g in G], (u,))
            assert verify_bound("sp", e, profile, T)["lhs"] == \
                oracles.sp([e], [support], [(t,) for t in T])
            lem = sum(p * oracles.hash_image(e).count(oracles.hash_value(e, fn, u))
                      for fn, p in support) / e.image_size
            assert verify_bound("lem_E", e, u) == bound_lem_E(e, u) == \
                {"holds": True, "lhs": lem, "rhs": Fraction(1, e.image_size)}
    e = ORACLE_ENSEMBLES
    for es in ([e[1], e[4]], [e[2], e[5]], [e[1], e[3], e[4]]):
        profiles = [universal_profile(x) for x in es]
        supports = [x.enumerate_support() for x in es]
        tuples = list(itertools.product(*(x.domain() for x in es)))
        for _ in range(2):
            T = [tuples[i] for i in rng.integers(len(tuples), size=6)]
            point = tuples[rng.integers(len(tuples))]
            if len(es) == 2:
                assert verify_bound("cross_crp", *es, *profiles, T, point)["lhs"] == \
                    oracles.crp(es, supports, T, point)
                assert verify_bound("cross_sp", *es, *profiles, T)["lhs"] == \
                    oracles.sp(es, supports, T)
            assert verify_bound("multi_crp", es, profiles, T, point)["lhs"] == \
                oracles.crp(es, supports, T, point)
            assert verify_bound("multi_sp", es, profiles, T)["lhs"] == oracles.sp(es, supports, T)


def test_strong_hash_dtype_guard(monkeypatch):
    """float64 holds every integer below 2^53, not 2^53 + 1: the collision
    masses are float64 for sums bounded by 2^53 - 1 and int64 from 2^53,
    and both dtypes give the same H3 reports."""
    assert float((1 << 53) - 1) == (1 << 53) - 1 and float((1 << 53) + 1) != (1 << 53) + 1
    assert ensemble._exact_dtype((1 << 53) - 1) is np.float64
    assert ensemble._exact_dtype(1 << 53) is np.int64
    profiles = [(e, EnsembleProfile(a, b, e.image_size)) for e in ORACLE_ENSEMBLES
                for a, b in ((Fraction(3, 2), Fraction(1, 8)), (Fraction(1, 2), Fraction(1, 4)))]
    floats = [verify_strong_hash(e, prof) for e, prof in profiles]
    monkeypatch.setattr(ensemble, "_exact_dtype", lambda bound: np.int64)
    assert [verify_strong_hash(e, prof) for e, prof in profiles] == floats


def test_spectrum_table_memory():
    """The spectrum walks the support in chunks: uniform l = 1 at n = 10 peaks
    well under one whole (support x domain) int64 table of 8 MB."""
    e = Ensemble.uniform_all(2, 1, 10)
    support = e.enumerate_support()
    tracemalloc.start()
    try:
        table = spectrum_table(e, support=support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == {(10 - w, w): Fraction(math.comb(10, w), 2) for w in range(1, 11)}
    assert peak < 4 << 20
