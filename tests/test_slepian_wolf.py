"""Syndrome source coding: encoders, decoders, and error evaluation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from hashprop import gf, types
from hashprop.gf import FieldMatrix
from hashprop.slepian_wolf import (
    SwCode,
    SwError,
    SwRates,
    sw_decode_batch,
    sw_decode_md,
    sw_decode_ml_typical,
    sw_encode,
    sw_error_exact,
    sw_error_mc,
    sw_rate_check,
)
from hashprop.types import Distribution

DSBS = Distribution([[0.475, 0.025], [0.025, 0.475]])
ZERO_MASS = Distribution([[0.6, 0.0], [0.1, 0.3]])
THREE_BY_TWO = Distribution([[0.3, 0.05], [0.05, 0.3], [0.1, 0.2]])


def _dsbs_code():
    a = FieldMatrix(2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    b = FieldMatrix(2, [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]])
    return SwCode((a, b), DSBS)


def test_code_validation():
    a = FieldMatrix(2, [[1, 0]])
    with pytest.raises(SwError):
        SwCode((a,), DSBS)  # one matrix for two sources
    with pytest.raises(SwError):
        SwCode((a, FieldMatrix(2, [[1, 0, 1]])), DSBS)  # n mismatch
    with pytest.raises(SwError):
        SwCode((a, a), Distribution(np.full((3, 3), 1 / 9)))  # alphabet > q


def test_rates():
    code = _dsbs_code()
    assert code.rates().rates == (0.75, 0.75)
    with pytest.raises(SwError):
        SwRates((-0.1,))


def test_encode_is_syndrome():
    code = _dsbs_code()
    x = (0, 1, 1, 0)
    y = (1, 1, 0, 0)
    syn = sw_encode(code, (x, y))
    assert syn == (code.matrices[0].matvec(x), code.matrices[1].matvec(y))
    with pytest.raises(SwError):
        sw_encode(code, (x,))


def test_decode_md_recovers_typical_pair():
    code = _dsbs_code()
    x = (0, 1, 1, 0)
    y = (0, 1, 1, 0)
    res = sw_decode_md(code, sw_encode(code, (x, y)))
    assert res.x_hat == (x, y)
    assert not res.all_infinite


def test_decode_md_brute_force_oracle():
    """Agreement with the minimum-divergence oracle over the explicit coset product."""
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        la = int(rng.integers(1, n + 1))
        lb = int(rng.integers(1, n + 1))
        da = rng.integers(0, 2, size=(la, n))
        db = rng.integers(0, 2, size=(lb, n))
        code = SwCode((FieldMatrix(2, da), FieldMatrix(2, db)), DSBS)
        x = tuple(int(v) for v in rng.integers(0, 2, size=n))
        y = tuple(int(v) for v in rng.integers(0, 2, size=n))
        syn = sw_encode(code, (x, y))
        assert sw_decode_md(code, syn).x_hat == oracles.sw_decode(code, syn)


def test_decode_md_tie_break_is_lexicographic():
    """A rate-0 code under uniform mu ties every candidate whose joint type
    spreads over two cells; the decoder must return the lex-smallest one."""
    mu = Distribution([[0.25, 0.25], [0.25, 0.25]])
    z = FieldMatrix.zeros(2, 0, 2)
    code = SwCode((z, z), mu)
    res = sw_decode_md(code, ((), ()))
    # minimum divergence (1 bit at n=2) is shared by many pairs; the first in
    # concatenated lexicographic order is x=(0,0), y=(0,1)
    assert res.x_hat == ((0, 0), (0, 1))


def test_decode_md_all_infinite_flag():
    mu = Distribution([[0.5, 0.0], [0.0, 0.5]])
    z = FieldMatrix(2, [[1, 0], [0, 1]])
    code = SwCode((z, FieldMatrix.zeros(2, 0, 2)), mu)
    # force x = (0, 1); y free: every candidate pair has a mixed cell
    res = sw_decode_md(code, ((0, 1), ()))
    assert not res.all_infinite  # (0,1),(0,1) stays on-support
    res = sw_decode_md(code, ((0, 0), ()))
    assert res.x_hat[0] == (0, 0)


def test_decode_md_rejects_bad_syndrome():
    code = _dsbs_code()
    a = FieldMatrix(2, [[1, 1], [1, 1]])
    code2 = SwCode((a, a), DSBS)
    with pytest.raises(SwError):
        sw_decode_md(code2, ((1, 0), (0, 0)))


def test_decode_ml_typical():
    code = _dsbs_code()
    x = (0, 1, 1, 0)
    syn = sw_encode(code, (x, x))
    res = sw_decode_ml_typical(code, syn, gamma=1.0)
    assert res.x_hat == (x, x) and not res.failure
    # skewed marginals: every coset member is balanced, hence atypical at a
    # tiny gamma and the restricted set empties -> declared failure
    skew = Distribution([[0.81, 0.09], [0.09, 0.01]])
    code2 = SwCode(code.matrices, skew)
    res = sw_decode_ml_typical(code2, syn, gamma=1e-9)
    assert res.failure and res.x_hat is None
    # the unconstrained variant never fails
    res = sw_decode_ml_typical(code2, syn, gamma=0.0, constrained=False)
    assert not res.failure


# gamma = 0.05 leaves some cosets with no typical member: at n = 3 no
# binary sequence is typical for a uniform marginal
DECODERS = [("md", 0.0), ("ml", 0.05), ("ml", 0.3), ("ml_unconstrained", 0.0)]


def test_error_exact_fast_path_matches_generic():
    """The table engine equals the per-tuple oracle for every decoder."""
    rng = np.random.default_rng(9)
    failures = 0
    for _ in range(6):
        n = int(rng.integers(2, 4))
        a = FieldMatrix(2, rng.integers(0, 2, size=(2, n)))
        b = FieldMatrix(2, rng.integers(0, 2, size=(2, n)))
        code = SwCode((a, b), DSBS)
        for decoder, gamma in DECODERS:
            expected, failed = oracles.sw_error(code, decoder, gamma)
            assert sw_error_exact(code, decoder, gamma) == pytest.approx(expected, abs=1e-12)
            failures += failed
    assert failures > 0


def test_error_exact_fast_path_matches_generic_edge_cases():
    """Unequal coset sizes (q above the alphabet size), zero-mass cells,
    non-square alphabets, many-cell alphabets whose type keys outgrow one
    table, l = 0, one source and three sources against the per-tuple oracle."""
    diag = Distribution([[0.5, 0.0], [0.0, 0.5]])
    rect = Distribution([[0.2, 0.1, 0.05], [0.05, 0.1, 0.5]])
    skew = Distribution([[0.81, 0.09], [0.09, 0.01]])
    four = np.array([[8, 1, 1, 0], [1, 6, 1, 1], [1, 1, 7, 2], [0, 1, 1, 9]]) / 41
    three = np.array([[6, 1, 1], [1, 5, 0], [1, 2, 7]]) / 24
    codes = [
        # GF(3) and GF(5) checks over binary alphabets
        SwCode((FieldMatrix(3, [[1, 2, 0], [0, 1, 1]]),
                FieldMatrix(2, [[1, 0, 1]])), DSBS),
        SwCode((FieldMatrix(5, [[1, 3, 4, 1]]),
                FieldMatrix(3, [[2, 1, 0, 1], [0, 0, 1, 1]])), DSBS),
        # x is known exactly; every y coset missing x is an all-infinite block
        SwCode((FieldMatrix(2, np.eye(3, dtype=np.int64)),
                FieldMatrix(2, [[1, 1, 0], [0, 1, 1]])), diag),
        SwCode((FieldMatrix(2, [[1, 0, 1]]),
                FieldMatrix(2, [[0, 1, 1]])), ZERO_MASS),
        # skewed marginals: only some cosets hold a typical member
        SwCode((FieldMatrix(2, [[1, 1, 0, 0], [0, 0, 1, 1]]),
                FieldMatrix(3, [[1, 0, 1, 0]])), skew),
        # 3 x 2 and 2 x 3 alphabets
        SwCode((FieldMatrix(3, [[1, 2, 0], [0, 1, 1]]),
                FieldMatrix(2, [[1, 1, 0]])), THREE_BY_TWO),
        SwCode((FieldMatrix(2, [[1, 1, 0]]),
                FieldMatrix(5, [[1, 2, 3]])), rect),
        # l = 0 on either side
        SwCode((FieldMatrix.zeros(2, 0, 3),
                FieldMatrix(2, [[1, 1, 0], [0, 1, 1]])), DSBS),
        SwCode((FieldMatrix(3, [[1, 1, 1], [0, 1, 2]]),
                FieldMatrix.zeros(2, 0, 3)), THREE_BY_TWO),
        # 16 cells at n = 2 and 9 cells at n = 4: 3^15 and 5^8 type keys
        SwCode((FieldMatrix(5, [[1, 2]]),
                FieldMatrix(5, [[1, 3]])), Distribution(four)),
        SwCode((FieldMatrix(3, [[1, 2, 0, 1], [0, 1, 1, 2]]),
                FieldMatrix(3, [[1, 0, 2, 2], [1, 1, 0, 1]])), Distribution(three)),
    ]
    failures = 0
    for code in codes:
        for decoder, gamma in DECODERS:
            expected, failed = oracles.sw_error(code, decoder, gamma)
            assert sw_error_exact(code, decoder, gamma) == pytest.approx(expected, abs=1e-12)
            failures += failed
    assert failures > 0
    # one source, and three sources: with a zero-mass cell, and binary at
    # n = 2 and 3, where ML admits a tuple when every source is typical
    one = SwCode((FieldMatrix(5, [[1, 2, 4, 0], [0, 1, 1, 3]]),),
                 Distribution([0.6, 0.3, 0.1]))
    law = np.array([0.3, 0.1, 0.05, 0.0, 0.05, 0.1, 0.1, 0.3]).reshape(2, 2, 2)
    three = SwCode((FieldMatrix(2, [[1, 1, 0]]),
                    FieldMatrix(3, [[1, 0, 2]]),
                    FieldMatrix.zeros(2, 0, 3)), Distribution(law))
    cube = Distribution(np.array([9, 2, 1, 2, 2, 1, 2, 9]).reshape(2, 2, 2) / 28)
    three_n2 = SwCode((FieldMatrix(2, [[1, 1]]), FieldMatrix(2, [[1, 0]]),
                       FieldMatrix.zeros(2, 0, 2)), cube)
    three_n3 = SwCode((FieldMatrix(2, [[1, 1, 0], [0, 1, 1]]),
                       FieldMatrix(2, [[1, 0, 1]]),
                       FieldMatrix(2, [[0, 1, 1]])), cube)
    cases = [(code, decoder, gamma) for code in (one, three) for decoder, gamma in DECODERS]
    cases += [(code, decoder, gamma) for code in (three_n2, three_n3)
              for decoder, gamma in (("ml", 0.3), ("ml_unconstrained", 0.0))]
    failures = 0
    for code, decoder, gamma in cases:
        expected, failed = oracles.sw_error(code, decoder, gamma)
        assert sw_error_exact(code, decoder, gamma) == pytest.approx(expected, abs=1e-12)
        failures += failed
    assert failures > 0


def test_exact_error_of_a_check_whose_syndromes_pass_int64():
    """65 binary rows: 2^65 syndromes do not fit one int64 key, and the
    cosets of rows 0 and 64 must stay apart, as they do with 63 or 64 rows."""
    for rows in (63, 64, 65):
        dense = np.zeros((rows, 4), dtype=np.int64)
        dense[0, 0] = dense[rows - 1, 1] = 1
        code = SwCode((FieldMatrix(2, dense),), Distribution([0.9, 0.1]))
        assert sw_error_exact(code) == pytest.approx(oracles.sw_error(code)[0], abs=1e-12)


def test_field_larger_than_alphabet_decodes_over_alphabet():
    """q > |alphabet|: coset members outside the alphabet are never returned,
    by any decoder, and a coset with no member inside it is an SwError."""
    code = SwCode((FieldMatrix(3, [[1, 1, 0]]),
                   FieldMatrix(2, [[1, 0, 1]])), DSBS)
    x, y = (1, 1, 0), (1, 0, 0)
    syn = sw_encode(code, (x, y))
    for res in (sw_decode_md(code, syn),
                sw_decode_ml_typical(code, syn, gamma=0.0, constrained=False)):
        assert all(s < 2 for seq in res.x_hat for s in seq)
        assert code.matrices[0].matvec(res.x_hat[0]) == syn[0]
    est = sw_error_mc(code, trials=200, seed=0)
    assert est.ci_lo <= sw_error_exact(code) <= est.ci_hi
    assert sw_error_exact(code, decoder="ml_unconstrained") == pytest.approx(
        oracles.sw_error(code, "ml_unconstrained")[0], abs=1e-12)
    one = SwCode((FieldMatrix(3, [[1]]), FieldMatrix(2, [[1]])),
                 DSBS)
    with pytest.raises(SwError):
        sw_decode_md(one, ((2,), (0,)))  # only u = (2,) has syndrome 2


# Exact MD errors recorded from the per-type tally; the engine must
# reproduce them bit for bit, not just to a tolerance.
PINNED_EXACT = [
    # sparse tau = 2 codes over DSBS(0.05) at n = 4, 6, 8, two rates each
    (DSBS, (2, [[1, 0, 0, 0], [1, 0, 0, 0]]), (2, [[0, 0, 1, 0], [0, 0, 1, 0]]),
     "0x1.97be425aee62fp-1"),
    (DSBS, (2, [[0, 0, 0, 0], [1, 0, 0, 1], [1, 0, 0, 1]]),
     (2, [[1, 0, 1, 1], [0, 0, 0, 1], [1, 0, 1, 0]]),
     "0x1.2f7c84b5dcc62p-1"),
    (DSBS, (2, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 1, 0, 1], [1, 1, 0, 0, 0, 1]]),
     (2, [[1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 0, 1], [1, 0, 1, 0, 0, 0]]),
     "0x1.a1e882491afbdp-1"),
    (DSBS, (2, [[1, 0, 0, 0, 0, 0], [1, 0, 1, 1, 1, 1], [0, 0, 0, 0, 0, 1],
                [0, 0, 1, 1, 1, 0]]),
     (2, [[0, 0, 0, 0, 1, 0], [1, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0],
          [1, 0, 0, 1, 1, 0]]),
     "0x1.4ef57be121ee4p-1"),
    (DSBS, (2, [[1, 1, 1, 0, 0, 1, 1, 0], [1, 0, 0, 0, 1, 0, 1, 1],
                [0, 1, 0, 1, 0, 0, 0, 1], [0, 0, 1, 1, 1, 1, 0, 0]]),
     (2, [[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1, 1, 0],
          [0, 0, 1, 1, 1, 0, 1, 0], [0, 0, 0, 0, 0, 1, 0, 0]]),
     "0x1.ab150a100ec08p-1"),
    (DSBS, (2, [[0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0],
                [1, 1, 0, 0, 1, 1, 1, 0], [0, 0, 1, 1, 1, 1, 1, 0],
                [0, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0, 0, 0, 0]]),
     (2, [[1, 0, 0, 1, 0, 1, 1, 1], [0, 1, 0, 0, 0, 1, 0, 0],
          [0, 1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0, 0, 0, 1],
          [0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]]),
     "0x1.54c487a8cce81p-1"),
    # GF(3) parity checks over a binary alphabet: cosets of unequal size
    (DSBS, (3, [[2, 1, 1, 1, 1, 0], [0, 1, 0, 1, 0, 2], [0, 0, 1, 0, 1, 0]]),
     (2, [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 1, 0, 1, 0, 1],
          [0, 0, 0, 0, 0, 1]]),
     "0x1.a1fc9d27c3932p-2"),
    # one zero-mass cell
    (ZERO_MASS, (2, [[0, 1, 0, 0, 1, 1], [0, 1, 0, 1, 1, 1], [0, 0, 0, 1, 0, 0]]),
     (2, [[1, 0, 0, 1, 0, 1], [1, 0, 1, 1, 0, 0], [0, 0, 1, 0, 0, 1]]),
     "0x1.f01322f2734f6p-1"),
    # 3 x 2 alphabet
    (THREE_BY_TWO, (3, [[1, 0, 1, 0, 2], [0, 1, 0, 2, 0], [1, 1, 1, 0, 0]]),
     (2, [[0, 1, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 0, 0]]),
     "0x1.e86833c60029fp-1"),
    # l = 0 on the x side: x is decoded from the y syndrome alone
    (DSBS, (2, 0, 6),
     (2, [[1, 0, 1, 0, 1, 0], [1, 0, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0],
          [0, 1, 0, 0, 0, 1]]),
     "0x1.d0f441248d7dcp-1"),
    # 2^20 tuples at the default cap, over many decoding chunks
    (DSBS, (2, [[0, 0, 1, 0, 0, 0, 1, 0, 0, 1], [1, 0, 0, 0, 0, 1, 0, 0, 1, 0],
                [0, 1, 1, 1, 0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 0, 0, 0, 1, 1], [1, 0, 0, 1, 0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1, 1, 0, 1, 0, 0]]),
     (2, [[0, 0, 1, 0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 0, 1, 0, 0],
          [0, 1, 0, 0, 0, 0, 1, 1, 1, 1], [1, 1, 0, 0, 1, 1, 1, 0, 0, 0],
          [0, 0, 0, 0, 0, 0, 0, 0, 1, 1], [1, 0, 0, 1, 0, 1, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]),
     "0x1.63080a692463ep-1"),
    # GF(3) checks over a binary alphabet at n = 9: padded cosets in many chunks
    (DSBS, (3, [[2, 0, 2, 2, 2, 2, 1, 1, 0], [1, 1, 2, 2, 1, 1, 1, 1, 2],
                [0, 0, 1, 2, 1, 0, 0, 0, 0]]),
     (3, [[2, 1, 0, 1, 1, 1, 1, 1, 0], [0, 2, 2, 1, 1, 1, 0, 1, 1],
          [1, 2, 1, 2, 1, 0, 2, 2, 1], [2, 1, 2, 0, 0, 2, 2, 1, 2]]),
     "0x1.ddfe801e8351cp-2"),
]


def _matrix(spec):
    if len(spec) == 3:
        return FieldMatrix.zeros(*spec)
    return FieldMatrix(*spec)


@pytest.mark.parametrize("mu,ma,mb,expected", PINNED_EXACT, ids=[
    "dsbs-n4-l2", "dsbs-n4-l3", "dsbs-n6-l3", "dsbs-n6-l4", "dsbs-n8-l4",
    "dsbs-n8-l6", "q3-binary", "zero-mass", "3x2", "l0", "dsbs-n10-l7", "q3-binary-n9"])
def test_error_exact_is_bit_exact(mu, ma, mb, expected):
    code = SwCode((_matrix(ma), _matrix(mb)), mu)
    assert sw_error_exact(code).hex() == expected


def test_pinned_errors_are_near_the_exact_rational_error():
    """Every pin with n <= 8 lies within a relative 1e-13 of the error the
    oracle sums in exact rationals (a row-major float sum of the tuples'
    masses strays about 8e-13 at n = 8)."""
    for mu, ma, mb, expected in PINNED_EXACT:
        code = SwCode((_matrix(ma), _matrix(mb)), mu)
        if code.n <= 8:
            exact, _ = oracles.sw_error(code)
            assert float.fromhex(expected) == pytest.approx(exact, rel=1e-13, abs=0)


def test_error_exact_tallies_types_across_lookup_groups():
    """A 3 x 3 law at n = 4 has 5^8 > SCORE_CHUNK type keys, so its cells
    split into several lookup groups and each winner's table row comes from
    the tuple of its group keys: every decoder equals the exact oracle, ML
    at gamma = 0.3 with blocks that admit no tuple."""
    law = Distribution(np.array([[6, 1, 1], [1, 5, 0], [1, 2, 7]]) / 24)
    assert len(types.type_key_groups(law.table.size, 4)) > 1
    code = SwCode((FieldMatrix(3, [[1, 2, 0, 1], [0, 1, 1, 2], [1, 1, 1, 0]]),
                   FieldMatrix(3, [[1, 0, 2, 2]])), law)
    failures = 0
    for decoder, gamma in (("md", 0.0), ("ml", 0.3), ("ml_unconstrained", 0.0)):
        expected, failed = oracles.sw_error(code, decoder, gamma)
        assert sw_error_exact(code, decoder, gamma) == pytest.approx(expected, abs=1e-12)
        failures += failed
    assert failures > 0



def test_error_exact_first_best_path_matches_oracle(monkeypatch):
    """With TIE_TOL raised to 0.05 here and in the oracle, this one-group
    law's costs chain past the tolerance at n = 4 and 5, so tie_classes
    gives None and the engine decides on float costs by first_best: it
    equals the oracle at that tolerance for every decoder."""
    monkeypatch.setattr(types, "TIE_TOL", 0.05)
    monkeypatch.setattr(oracles, "TIE_TOL", 0.05)
    law = Distribution([[0.3, 0.2], [0.15, 0.35]])
    masses = tuple(law.table.reshape(-1).tolist())
    rng = np.random.default_rng(41)
    failures = 0
    for n in (4, 5):
        assert types.tie_classes(types.cell_terms, masses, n) is None
        assert types.tie_classes(types.cell_log_masses, masses, n) is None
        for _ in range(3):
            code = SwCode(tuple(FieldMatrix(2, rng.integers(0, 2, size=(int(rng.integers(1, n)), n)))
                                for _ in range(2)), law)
            for decoder, gamma in DECODERS:
                expected, failed = oracles.sw_error(code, decoder, gamma)
                assert sw_error_exact(code, decoder, gamma) == pytest.approx(expected, abs=1e-12)
                failures += failed
    assert failures > 0


@pytest.mark.parametrize("code", [
    _dsbs_code(),
    # 3^4 = 81 source tuples, fewer than the 3^8 keys of the decoders' one group
    SwCode((FieldMatrix(3, [[1, 2]]), FieldMatrix(3, [[1, 1]])),
           Distribution(np.array([[6, 1, 1], [1, 5, 0], [1, 2, 7]]) / 24)),
    # 4 x 4 at n = 4: several lookup groups
    SwCode((FieldMatrix(5, [[1, 2, 0, 1]]), FieldMatrix(5, [[1, 0, 2, 3]])),
           Distribution(np.arange(1, 17).reshape(4, 4) / 136)),
], ids=["dsbs_n4", "3x3_n2", "4x4_n4"])
def test_error_exact_reads_the_decoders_type_tables(code):
    """sw_error_exact scores on the cached type tables that the decoders
    built for the same law and n: after product_divergences, it adds a
    cache hit and no miss, whatever the tuple count."""
    n, mu = code.n, code.mu
    types.product_divergences([np.zeros((1, 1, n), dtype=np.int64)] * len(mu.shape), mu.table)
    before = types.type_tables.cache_info()
    sw_error_exact(code, "md")
    after = types.type_tables.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_error_exact_n12_memory():
    """Exact n = 12 (2^24 tuples) keeps its pinned value in a few chunks'
    memory: its peak traced allocation stays under 32 MB (a whole-table
    evaluation peaks near 800 MB)."""
    ma = ["010100000011", "000000010010", "110111000001", "001000000000", "000000100000",
          "000001100100", "100010010000", "001000001100", "000000001000"]
    mb = ["011100000011", "000000001100", "100100011000", "001000000000", "000011100001",
          "000001100010", "010000000000", "000000000100", "100010010000"]
    code = SwCode(tuple(FieldMatrix(2, [[int(c) for c in row] for row in rows])
                        for rows in (ma, mb)), DSBS)
    tracemalloc.start()
    try:
        value = sw_error_exact(code, cap=1 << 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.hex() == "0x1.673121f6c2907p-1"
    assert peak < 32 << 20


@pytest.mark.parametrize("chunk", [2, 7, 100])
def test_error_exact_chunks_do_not_change_values(monkeypatch, chunk):
    """Chunk sizes that split the cosets of the last axis, the rows of the
    error sum and the type keys give the same values bit for bit: at 2, one
    block or two tuples per chunk and every cell looked up alone."""
    three = SwCode((FieldMatrix(2, [[1, 1, 0]]),
                    FieldMatrix(3, [[1, 0, 2]]),
                    FieldMatrix.zeros(2, 0, 3)),
                   Distribution(np.array([0.3, 0.1, 0.05, 0.0, 0.05, 0.1, 0.1, 0.3]).reshape(2, 2, 2)))
    one = SwCode((FieldMatrix(5, [[1, 2, 4, 0], [0, 1, 1, 3]]),),
                 Distribution([0.6, 0.3, 0.1]))
    codes = [SwCode((_matrix(ma), _matrix(mb)), mu) for mu, ma, mb, _ in PINNED_EXACT]
    # every decoder at n = 4; at n = 6, GF(3) padding, a zero-mass cell and l = 0
    cases = [(code, decoder, gamma) for code in codes[:2] for decoder, gamma in DECODERS]
    cases += [(codes[6], "ml", 0.3), (codes[6], "md", 0.0), (codes[7], "md", 0.0),
              (codes[9], "md", 0.0), (one, "md", 0.0), (three, "md", 0.0)]
    expected = [sw_error_exact(*case).hex() for case in cases]
    monkeypatch.setattr(types, "SCORE_CHUNK", chunk)
    assert [sw_error_exact(*case).hex() for case in cases] == expected


def _ml_ties_against_oracle(laws, trials: int, seed: int, low: int, slack: int) -> int:
    """Constrained and unconstrained ML decodes of ``trials`` random codes at
    n in [low, low + 5), with n - slack to n - 1 rows per source, against the
    exact-mass oracle; returns how many decodes had tied candidates."""
    rng = np.random.default_rng(seed)
    ties = 0
    for trial in range(trials):
        mu = laws[trial % len(laws)]
        n = int(rng.integers(low, low + 5))
        dense = [rng.integers(0, 2, size=(int(rng.integers(n - slack, n)), n)) for _ in mu.shape]
        code = SwCode(tuple(FieldMatrix(2, d) if len(d) else FieldMatrix.zeros(2, 0, n)
                            for d in dense), mu)
        cells = rng.choice(mu.table.size, size=n, p=mu.table.reshape(-1))
        x_K = tuple(tuple(int(v) for v in col) for col in np.unravel_index(cells, mu.shape))
        syn = sw_encode(code, x_K)
        gamma = float(rng.uniform(0.05, 0.5))
        for constrained in (True, False):
            tied = oracles.ml_ties(oracles.sw_sides(code, syn), mu.table,
                                   gamma if constrained else None)
            res = sw_decode_ml_typical(code, syn, gamma, constrained=constrained)
            assert (None if res.failure else res.x_hat) == (tied[0] if tied else None)
            ties += len(tied) > 1
    return ties


def test_decode_ml_matches_exact_oracle():
    """Constrained and unconstrained ML decodes equal an exact-mass brute
    force over two and three sources: candidates of equal mass go to the
    lexicographically first one, not to whichever float product rounding
    favours."""
    two = [DSBS, Distribution([[0.4, 0.1], [0.1, 0.4]]), ZERO_MASS,
           Distribution([[0.3, 0.2], [0.1, 0.4]])]
    three = [Distribution(np.array([9, 2, 1, 2, 2, 1, 2, 9]).reshape(2, 2, 2) / 28),
             Distribution(np.array([6, 1, 2, 3, 0, 4, 5, 15]).reshape(2, 2, 2) / 36)]
    assert _ml_ties_against_oracle(two, 100, 77, low=4, slack=4) > 0
    assert _ml_ties_against_oracle(three, 40, 78, low=2, slack=2) > 0


def test_field_larger_than_alphabet_matches_oracle():
    """A 1 x 8 GF(5) check over a binary alphabet: 5^7 members are built per
    coset and at most 2^7 kept; the decode must match brute force."""
    rng = np.random.default_rng(55)
    for _ in range(4):
        dense_x = rng.integers(1, 5, size=(1, 8))
        dense_y = rng.integers(0, 2, size=(4, 8))
        code = SwCode((FieldMatrix(5, dense_x),
                       FieldMatrix(2, dense_y)), DSBS)
        x = tuple(int(v) for v in rng.integers(0, 2, size=8))
        y = tuple(int(v) for v in rng.integers(0, 2, size=8))
        syn = sw_encode(code, (x, y))
        assert sw_decode_md(code, syn).x_hat == oracles.sw_decode(code, syn)


def test_cap_counts_members_built():
    """The cap is checked against q^(n - rank) before a coset is built."""
    gf5 = FieldMatrix(5, [[1, 2, 3, 4, 1, 2, 3, 4]])
    code = SwCode((gf5, FieldMatrix(2, [[1] * 8])), DSBS)
    syn = sw_encode(code, ((0,) * 8, (0,) * 8))
    # 5^7 = 78125 members would be built, though at most 2^7 are kept
    with pytest.raises(SwError, match="78125"):
        sw_decode_md(code, syn, cap=60_000)
    assert sw_decode_md(code, syn, cap=80_000).x_hat == oracles.sw_decode(code, syn)
    # 2^39 members: only an up-front check can return at once
    wide = FieldMatrix(2, [[1] * 40])
    code = SwCode((wide, wide), DSBS)
    for decode in (lambda: sw_decode_md(code, ((0,), (0,))),
                   lambda: sw_decode_ml_typical(code, ((0,), (0,)), gamma=1.0)):
        with pytest.raises(SwError, match="exceeds cap"):
            decode()


def _all_syndromes(code: SwCode) -> list[tuple]:
    """Every syndrome tuple of a source tuple inside the alphabets, in
    lexicographic order."""
    words = [list(itertools.product(range(size), repeat=code.n)) for size in code.mu.shape]
    return sorted({tuple(m.matvec(w) for m, w in zip(code.matrices, ws))
                   for ws in itertools.product(*words)})


def _batch_cases():
    """Codes: DSBS at n = 5; a GF(3) check over a
    binary alphabet, so the cosets are ragged once filtered; two laws with
    zero-mass cells; and three sources with a zero-mass cell."""
    rng = np.random.default_rng(808)

    def dense(q, rows, n):
        return rng.integers(0, q, size=(rows, n))

    three = rng.random((2, 2, 2)) * (rng.random((2, 2, 2)) < 0.8)
    three[0, 0, 0] += 0.1
    laws = [(DSBS, ((2, 3, 5), (2, 3, 5))),
            (DSBS, ((3, 2, 5), (2, 3, 5))),
            (ZERO_MASS, ((2, 3, 4), (2, 2, 4))),
            (Distribution([[0.45, 0.0], [0.0, 0.55]]), ((2, 3, 4), (2, 3, 4))),
            (Distribution(three / three.sum()), ((2, 1, 3), (3, 2, 3), (2, 2, 3)))]
    return [SwCode(tuple(FieldMatrix(shape[0], dense(*shape)) for shape in shapes), mu)
            for mu, shapes in laws]


@pytest.mark.parametrize("chunk", [types.SCORE_CHUNK, 50, 7])
def test_batch_decoders_match_oracles_on_every_syndrome(monkeypatch, chunk):
    """One batch call per decoder over every syndrome of small codes equals
    the brute-force oracles row by row, whether the batch is scored in one
    slice or split across SCORE_CHUNK-sized slices."""
    monkeypatch.setattr(types, "SCORE_CHUNK", chunk)
    seen = {"failure": 0, "all_infinite": 0, "ragged": 0}
    for code in _batch_cases():
        syndromes = _all_syndromes(code)
        batch = [np.array([syn[j] for syn in syndromes]).reshape(len(syndromes), -1)
                 for j in range(code.k)]
        for decoder, gamma in [("md", 0.0), ("ml", 0.05), ("ml", 0.4), ("ml_unconstrained", 0.0)]:
            x_hat, failure, all_infinite = sw_decode_batch(code, batch, decoder, gamma)
            assert x_hat.shape == (len(syndromes), code.k, code.n)
            for row, syn in enumerate(syndromes):
                expected = oracles.sw_decode(code, syn, decoder, gamma)
                if decoder == "md":
                    infinite = math.isinf(oracles.divergence(expected, code.mu.table))
                    assert bool(all_infinite[row]) == infinite
                    seen["all_infinite"] += infinite
                if expected is None:
                    assert failure[row] and (x_hat[row] == -1).all()
                    seen["failure"] += 1
                    continue
                assert not failure[row]
                assert tuple(map(tuple, x_hat[row].tolist())) == expected
            seen["ragged"] += max(m.q for m in code.matrices) > 2
    # failures, off-support rows and filtered cosets were all exercised
    assert min(seen.values()) > 0, seen


def test_batch_cap_raises_before_building(monkeypatch):
    """The cap is checked against each coset's size before the batch builds
    it, for every row at once."""
    code = _batch_cases()[0]
    batch = [np.zeros((4, m.rows), dtype=np.int64) for m in code.matrices]

    def refuse(*args, **kwargs):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(gf, "coset_batch", refuse)
    first = gf.coset_size(code.matrices[0])
    with pytest.raises(SwError, match="exceeds cap"):
        sw_decode_batch(code, batch, "md", cap=first - 1)
    monkeypatch.undo()
    sw_decode_batch(code, batch, "md", cap=first * gf.coset_size(code.matrices[1]))

    # Three GF(3) checks over a binary alphabet: row 0 keeps (6, 2, 2)
    # members, row 1 keeps (4, 3, 1).  The cap bounds each row's own
    # product (max(6 * 2, 4 * 3) * 3^2 = 108 before the last coset), not
    # the batch's padded 6 * 3 * 3^2 = 162, so the batch raises exactly
    # when one of its rows would alone.
    mats = [[[2, 1, 1, 0], [0, 0, 0, 0]], [[0, 2, 1, 2], [1, 1, 2, 2]],
            [[1, 1, 1, 2], [0, 2, 2, 0]]]
    code = SwCode(tuple(FieldMatrix(3, m) for m in mats),
                  Distribution(np.full((2, 2, 2), 1 / 8)))
    rows = [sw_encode(code, (x,) * 3) for x in ((0, 0, 0, 0), (0, 1, 1, 1))]
    batch = [np.array([row[j] for row in rows]) for j in range(3)]
    x_hat, _, _ = sw_decode_batch(code, batch, "md", cap=108)
    for d, row in enumerate(rows):
        alone, _, _ = sw_decode_batch(code, [[a] for a in row], "md", cap=108)
        assert (alone[0] == x_hat[d]).all()
        with pytest.raises(SwError, match="exceeds cap"):
            sw_decode_batch(code, [[a] for a in row], "md", cap=107)
    with pytest.raises(SwError, match="exceeds cap"):
        sw_decode_batch(code, batch, "md", cap=107)


def _pinned_sw_codes():
    """Seeded codes: DSBS at n = 8, GF(3) over a binary alphabet, a
    zero-mass cell and a 3 x 2 alphabet."""
    rng = np.random.default_rng(404)

    def dense(q, rows, n):
        return FieldMatrix(q, rng.integers(0, q, size=(rows, n)))

    return [
        SwCode((dense(2, 5, 8), dense(2, 5, 8)), DSBS),
        SwCode((dense(3, 3, 6), dense(2, 4, 6)), DSBS),
        SwCode((dense(2, 3, 6), dense(2, 3, 6)), ZERO_MASS),
        SwCode((dense(3, 3, 5), dense(2, 2, 5)), THREE_BY_TWO),
    ]


def _pinned_sw_decodes(code, seed: int) -> list[str]:
    """MD decodes of three source pairs drawn from mu, as 'x|y' digit strings."""
    rng = np.random.default_rng(seed)
    flat = code.mu.table.reshape(-1)
    out = []
    for _ in range(3):
        cells = rng.choice(flat.size, size=code.n, p=flat)
        x_K = tuple(tuple(int(v) for v in col)
                    for col in np.unravel_index(cells, code.mu.shape))
        x_hat = sw_decode_md(code, sw_encode(code, x_K)).x_hat
        out.append("|".join("".join(map(str, seq)) for seq in x_hat))
    return out


# Decisions recorded from the per-candidate reference decoders; the
# count-lookup scorer must reproduce them exactly.
PINNED_SW_DECODES = [
    ["11100101|11100101", "00011101|00011101", "11000101|11000100"],
    ["011010|001010", "010101|010101", "000111|000111"],
    ["100101|100001", "100101|100001", "110010|010010"],
    ["01212|01011", "12102|11100", "01222|01101"],
]
# (md, ml) errors, recorded with ties between candidates of equal mass going
# to the lexicographically first one, on the block-engine draw streams
PINNED_SW_MC = [(129, 99), (54, 36), (276, 172), (283, 266)]


def test_pinned_sw_decisions():
    for i, code in enumerate(_pinned_sw_codes()):
        assert _pinned_sw_decodes(code, 500 + i) == PINNED_SW_DECODES[i]
        md = sw_error_mc(code, trials=300, seed=11 + i).errors
        ml = sw_error_mc(code, decoder="ml", gamma=0.5, trials=300, seed=11 + i).errors
        assert (md, ml) == PINNED_SW_MC[i]


def test_error_exact_identity_code_is_zero():
    eye = FieldMatrix(2, np.eye(3, dtype=np.int64))
    code = SwCode((eye, eye), DSBS)
    assert sw_error_exact(code) == 0.0
    assert sw_error_exact(code, decoder="ml", gamma=10.0) == 0.0


def test_error_exact_cap():
    code = _dsbs_code()
    with pytest.raises(SwError):
        sw_error_exact(code, cap=10)


def test_error_mc_matches_exact():
    code = _dsbs_code()
    exact = sw_error_exact(code)
    est = sw_error_mc(code, trials=4000, seed=1)
    assert est.ci_lo <= exact <= est.ci_hi
    # more trials than one block: pins the block size and each block's stream
    assert sw_error_mc(code, trials=5000, seed=1).errors == 2760
    with pytest.raises(SwError):
        sw_error_mc(code, trials=0)


def test_rate_check():
    inside = sw_rate_check(SwRates((0.7, 0.7)), DSBS)
    assert inside["inside"] and not inside["failed"]
    outside = sw_rate_check(SwRates((0.2, 0.9)), DSBS)
    assert not outside["inside"] and (0,) in outside["failed"]
    uniform = Distribution([[0.25, 0.25], [0.25, 0.25]])
    boundary = sw_rate_check(SwRates((1.0, 1.0)), uniform)
    assert not boundary["inside"]  # strict inequalities
    with pytest.raises(SwError):
        sw_rate_check(SwRates((0.5,)), DSBS)


def _map_bound_codes(count: int, seed: int):
    """Seeded random codes with uniform GF(q) checks of 1 to n - 1 rows:
    one, two and three sources, binary sources under GF(3) checks, and a
    3 x 3 law."""
    skew = Distribution([[0.6, 0.1], [0.05, 0.25]])
    three = Distribution([[0.3, 0.03, 0.02], [0.04, 0.2, 0.06], [0.01, 0.09, 0.25]])
    triple = Distribution(np.array([0.4, 0.05, 0.05, 0.02, 0.03, 0.05, 0.05, 0.35]).reshape(2, 2, 2))
    # (law, field of each source, largest n)
    setups = [(Distribution([0.8, 0.2]), (2,), 10), (Distribution([0.8, 0.2]), (3,), 7),
              (DSBS, (2, 2), 7), (skew, (3, 2), 5), (THREE_BY_TWO, (3, 3), 4),
              (three, (3, 3), 4), (triple, (2, 2, 2), 4)]
    rng = np.random.default_rng(seed)
    for i in range(count):
        mu, fields, top = setups[i % len(setups)]
        n = int(rng.integers(2, top + 1))
        yield SwCode(tuple(FieldMatrix(q, rng.integers(0, q, size=(int(rng.integers(1, n)), n)))
                           for q in fields), mu)


def test_map_error_bounds_every_decoder():
    """ml_unconstrained picks a tuple of the largest mass in every coset-
    product block, so its exact error is the least any decoder reaches with
    the same code: MD's and the typicality-constrained ML's at every gamma
    are at least as large.  No oracle is needed; 1e-12 covers tied types
    whose tallies round differently (seen up to 1.1e-16)."""
    worse = 0
    for code in _map_bound_codes(210, seed=18):
        best = sw_error_exact(code, "ml_unconstrained")
        for decoder, gamma in (("md", 0.0), ("ml", 0.05), ("ml", 0.3), ("ml", 1.0)):
            err = sw_error_exact(code, decoder, gamma)
            assert best <= err + 1e-12, (code, decoder, gamma)
            worse += err > best + 1e-12
    assert worse > 0  # the bound is strict on some codes
