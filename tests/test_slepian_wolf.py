"""Syndrome source coding: encoders, decoders, and error evaluation."""

import itertools
import math

import numpy as np
import pytest

from hashprop.gf import FieldMatrix, coset
from hashprop.slepian_wolf import (
    SwCode,
    SwError,
    SwRates,
    sw_decode_md,
    sw_decode_ml_typical,
    sw_encode,
    sw_error_exact,
    sw_error_mc,
    sw_rate_check,
)
from hashprop.types import Distribution, divergence, joint_type

DSBS = Distribution([[0.475, 0.025], [0.025, 0.475]])
ZERO_MASS = Distribution([[0.6, 0.0], [0.1, 0.3]])
THREE_BY_TWO = Distribution([[0.3, 0.05], [0.05, 0.3], [0.1, 0.2]])


def _dsbs_code():
    a = FieldMatrix.from_dense(2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    b = FieldMatrix.from_dense(2, [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]])
    return SwCode((a, b), DSBS)


def test_code_validation():
    a = FieldMatrix.from_dense(2, [[1, 0]])
    with pytest.raises(SwError):
        SwCode((a,), DSBS)  # one matrix for two sources
    with pytest.raises(SwError):
        SwCode((a, FieldMatrix.from_dense(2, [[1, 0, 1]])), DSBS)  # n mismatch
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
    """Bit-exact agreement with an argmin over the explicit coset product."""
    rng = np.random.default_rng(42)
    mu = DSBS
    for _ in range(25):
        n = int(rng.integers(2, 5))
        la = int(rng.integers(1, n + 1))
        lb = int(rng.integers(1, n + 1))
        a = FieldMatrix.from_dense(2, rng.integers(0, 2, size=(la, n)))
        b = FieldMatrix.from_dense(2, rng.integers(0, 2, size=(lb, n)))
        code = SwCode((a, b), mu)
        x = tuple(int(v) for v in rng.integers(0, 2, size=n))
        y = tuple(int(v) for v in rng.integers(0, 2, size=n))
        syn = sw_encode(code, (x, y))
        cands = [
            (cx, cy)
            for cx in coset(a, syn[0])
            for cy in coset(b, syn[1])
        ]
        best = min(
            cands,
            key=lambda c: (divergence(joint_type(c, (2, 2)).empirical(), mu), c),
        )
        assert sw_decode_md(code, syn).x_hat == best


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
    z = FieldMatrix.from_dense(2, [[1, 0], [0, 1]])
    code = SwCode((z, FieldMatrix.zeros(2, 0, 2)), mu)
    # force x = (0, 1); y free: every candidate pair has a mixed cell
    res = sw_decode_md(code, ((0, 1), ()))
    assert not res.all_infinite  # (0,1),(0,1) stays on-support
    res = sw_decode_md(code, ((0, 0), ()))
    assert res.x_hat[0] == (0, 0)


def test_decode_md_rejects_bad_syndrome():
    code = _dsbs_code()
    a = FieldMatrix.from_dense(2, [[1, 1], [1, 1]])
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


def _per_pair_error(code):
    """Exact MD error by decoding every source pair with sw_decode_md."""
    sx, sy = code.mu.shape
    error = 0.0
    for x in itertools.product(range(sx), repeat=code.n):
        for y in itertools.product(range(sy), repeat=code.n):
            mass = math.prod(code.mu[xs, ys] for xs, ys in zip(x, y))
            res = sw_decode_md(code, sw_encode(code, (x, y)))
            if res.x_hat != (x, y):
                error += mass
    return error


def test_error_exact_fast_path_matches_generic():
    """The vectorized two-source path must equal the generic loop exactly."""
    rng = np.random.default_rng(9)
    for _ in range(6):
        n = int(rng.integers(2, 4))
        a = FieldMatrix.from_dense(2, rng.integers(0, 2, size=(2, n)))
        b = FieldMatrix.from_dense(2, rng.integers(0, 2, size=(2, n)))
        code = SwCode((a, b), DSBS)
        fast = sw_error_exact(code)  # dispatches to the fast path
        assert fast == pytest.approx(_per_pair_error(code), abs=1e-12)


def test_error_exact_fast_path_matches_generic_edge_cases():
    """Unequal coset sizes (q above the alphabet size), zero-mass cells,
    non-square alphabets and l = 0 against the per-pair decoder loop."""
    diag = Distribution([[0.5, 0.0], [0.0, 0.5]])
    rect = Distribution([[0.2, 0.1, 0.05], [0.05, 0.1, 0.5]])
    codes = [
        # GF(3) and GF(5) checks over binary alphabets
        SwCode((FieldMatrix.from_dense(3, [[1, 2, 0], [0, 1, 1]]),
                FieldMatrix.from_dense(2, [[1, 0, 1]])), DSBS),
        SwCode((FieldMatrix.from_dense(5, [[1, 3, 4, 1]]),
                FieldMatrix.from_dense(3, [[2, 1, 0, 1], [0, 0, 1, 1]])), DSBS),
        # x is known exactly; every y coset missing x is an all-infinite block
        SwCode((FieldMatrix.identity(2, 3),
                FieldMatrix.from_dense(2, [[1, 1, 0], [0, 1, 1]])), diag),
        SwCode((FieldMatrix.from_dense(2, [[1, 0, 1]]),
                FieldMatrix.from_dense(2, [[0, 1, 1]])), ZERO_MASS),
        # 3 x 2 and 2 x 3 alphabets
        SwCode((FieldMatrix.from_dense(3, [[1, 2, 0], [0, 1, 1]]),
                FieldMatrix.from_dense(2, [[1, 1, 0]])), THREE_BY_TWO),
        SwCode((FieldMatrix.from_dense(2, [[1, 1, 0]]),
                FieldMatrix.from_dense(5, [[1, 2, 3]])), rect),
        # l = 0 on either side
        SwCode((FieldMatrix.zeros(2, 0, 3),
                FieldMatrix.from_dense(2, [[1, 1, 0], [0, 1, 1]])), DSBS),
        SwCode((FieldMatrix.from_dense(3, [[1, 1, 1], [0, 1, 2]]),
                FieldMatrix.zeros(2, 0, 3)), THREE_BY_TWO),
    ]
    for code in codes:
        assert sw_error_exact(code) == pytest.approx(_per_pair_error(code), abs=1e-12)


def test_field_larger_than_alphabet_decodes_over_alphabet():
    """q > |alphabet|: coset members outside the alphabet are never returned,
    by any decoder, and a coset with no member inside it is an SwError."""
    code = SwCode((FieldMatrix.from_dense(3, [[1, 1, 0]]),
                   FieldMatrix.from_dense(2, [[1, 0, 1]])), DSBS)
    x, y = (1, 1, 0), (1, 0, 0)
    syn = sw_encode(code, (x, y))
    for res in (sw_decode_md(code, syn),
                sw_decode_ml_typical(code, syn, gamma=0.0, constrained=False)):
        assert all(s < 2 for seq in res.x_hat for s in seq)
        assert code.matrices[0].matvec(res.x_hat[0]) == syn[0]
    est = sw_error_mc(code, trials=200, seed=3)
    assert est.ci_lo <= sw_error_exact(code) <= est.ci_hi
    assert 0.0 <= sw_error_exact(code, decoder="ml_unconstrained") <= 1.0  # generic branch
    one = SwCode((FieldMatrix.from_dense(3, [[1]]), FieldMatrix.from_dense(2, [[1]])),
                 DSBS)
    with pytest.raises(SwError):
        sw_decode_md(one, ((2,), (0,)))  # only u = (2,) has syndrome 2


# Exact errors recorded from the per-pair reference implementation; the
# vectorized path must reproduce them bit for bit, not just to a tolerance.
PINNED_EXACT = [
    # sparse tau = 2 codes over DSBS(0.05) at n = 4, 6, 8, two rates each
    (DSBS, (2, [[1, 0, 0, 0], [1, 0, 0, 0]]), (2, [[0, 0, 1, 0], [0, 0, 1, 0]]),
     "0x1.97be425aee64ap-1"),
    (DSBS, (2, [[0, 0, 0, 0], [1, 0, 0, 1], [1, 0, 0, 1]]),
     (2, [[1, 0, 1, 1], [0, 0, 0, 1], [1, 0, 1, 0]]),
     "0x1.2f7c84b5dcc72p-1"),
    (DSBS, (2, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 1, 0, 1], [1, 1, 0, 0, 0, 1]]),
     (2, [[1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 0, 1], [1, 0, 1, 0, 0, 0]]),
     "0x1.a1e882491b0bep-1"),
    (DSBS, (2, [[1, 0, 0, 0, 0, 0], [1, 0, 1, 1, 1, 1], [0, 0, 0, 0, 0, 1],
                [0, 0, 1, 1, 1, 0]]),
     (2, [[0, 0, 0, 0, 1, 0], [1, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0],
          [1, 0, 0, 1, 1, 0]]),
     "0x1.4ef57be122014p-1"),
    (DSBS, (2, [[1, 1, 1, 0, 0, 1, 1, 0], [1, 0, 0, 0, 1, 0, 1, 1],
                [0, 1, 0, 1, 0, 0, 0, 1], [0, 0, 1, 1, 1, 1, 0, 0]]),
     (2, [[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1, 1, 0],
          [0, 0, 1, 1, 1, 0, 1, 0], [0, 0, 0, 0, 0, 1, 0, 0]]),
     "0x1.ab150a1010528p-1"),
    (DSBS, (2, [[0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0],
                [1, 1, 0, 0, 1, 1, 1, 0], [0, 0, 1, 1, 1, 1, 1, 0],
                [0, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0, 0, 0, 0]]),
     (2, [[1, 0, 0, 1, 0, 1, 1, 1], [0, 1, 0, 0, 0, 1, 0, 0],
          [0, 1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0, 0, 0, 1],
          [0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]]),
     "0x1.54c487a8cdca0p-1"),
    # GF(3) parity checks over a binary alphabet: cosets of unequal size
    (DSBS, (3, [[2, 1, 1, 1, 1, 0], [0, 1, 0, 1, 0, 2], [0, 0, 1, 0, 1, 0]]),
     (2, [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 1, 0, 1, 0, 1],
          [0, 0, 0, 0, 0, 1]]),
     "0x1.a1fc9d27c3aa3p-2"),
    # one zero-mass cell
    (ZERO_MASS, (2, [[0, 1, 0, 0, 1, 1], [0, 1, 0, 1, 1, 1], [0, 0, 0, 1, 0, 0]]),
     (2, [[1, 0, 0, 1, 0, 1], [1, 0, 1, 1, 0, 0], [0, 0, 1, 0, 0, 1]]),
     "0x1.f01322f2734b4p-1"),
    # 3 x 2 alphabet
    (THREE_BY_TWO, (3, [[1, 0, 1, 0, 2], [0, 1, 0, 2, 0], [1, 1, 1, 0, 0]]),
     (2, [[0, 1, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 0, 0]]),
     "0x1.e86833c6001b5p-1"),
    # l = 0 on the x side: x is decoded from the y syndrome alone
    (DSBS, (2, 0, 6),
     (2, [[1, 0, 1, 0, 1, 0], [1, 0, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0],
          [0, 1, 0, 0, 0, 1]]),
     "0x1.d0f441248d8e2p-1"),
]


def _matrix(spec):
    if len(spec) == 3:
        return FieldMatrix.zeros(*spec)
    return FieldMatrix.from_dense(*spec)


@pytest.mark.parametrize("mu,ma,mb,expected", PINNED_EXACT, ids=[
    "dsbs-n4-l2", "dsbs-n4-l3", "dsbs-n6-l3", "dsbs-n6-l4", "dsbs-n8-l4",
    "dsbs-n8-l6", "q3-binary", "zero-mass", "3x2", "l0"])
def test_error_exact_is_bit_exact(mu, ma, mb, expected):
    code = SwCode((_matrix(ma), _matrix(mb)), mu)
    assert sw_error_exact(code).hex() == expected


def _oracle_md_decode(dense_mats, qs, mu: Distribution, syndromes):
    """Minimum-divergence decode by brute force: each source's candidates are
    the alphabet words with the right syndrome, the divergence comes from
    explicit counts, and ties within 1e-12 go to the lexicographically first
    candidate pair."""
    sx, sy = mu.shape
    n = dense_mats[0].shape[1]
    sides = []
    for dense, q, size, a in zip(dense_mats, qs, mu.shape, syndromes):
        sides.append([w for w in itertools.product(range(size), repeat=n)
                      if tuple(int(v) for v in dense @ np.array(w) % q) == tuple(a)])
    scored = []
    for cand in itertools.product(*sides):
        counts = np.zeros((sx, sy))
        for xs, ys in zip(*cand):
            counts[xs, ys] += 1
        d = 0.0
        for c, m in zip(counts.reshape(-1), mu.table.reshape(-1)):
            if c:
                d = math.inf if m == 0 else d + c / n * math.log2(c / n / m)
        scored.append((d, cand))
    best = min(d for d, _ in scored)
    return next(cand for d, cand in scored if d <= best + 1e-12)


def test_field_larger_than_alphabet_matches_oracle():
    """A 1 x 8 GF(5) check over a binary alphabet: 5^7 members are built per
    coset and at most 2^7 kept; the decode must match brute force."""
    rng = np.random.default_rng(55)
    for _ in range(4):
        dense_x = rng.integers(1, 5, size=(1, 8))
        dense_y = rng.integers(0, 2, size=(4, 8))
        code = SwCode((FieldMatrix.from_dense(5, dense_x),
                       FieldMatrix.from_dense(2, dense_y)), DSBS)
        x = tuple(int(v) for v in rng.integers(0, 2, size=8))
        y = tuple(int(v) for v in rng.integers(0, 2, size=8))
        syn = sw_encode(code, (x, y))
        assert sw_decode_md(code, syn).x_hat == _oracle_md_decode(
            (dense_x, dense_y), (5, 2), DSBS, syn)


def test_cap_counts_members_built():
    """The cap is checked against q^(n - rank) before a coset is built."""
    gf5 = FieldMatrix.from_dense(5, [[1, 2, 3, 4, 1, 2, 3, 4]])
    code = SwCode((gf5, FieldMatrix.from_dense(2, [[1] * 8])), DSBS)
    syn = sw_encode(code, ((0,) * 8, (0,) * 8))
    # 5^7 = 78125 members would be built, though at most 2^7 are kept
    with pytest.raises(SwError, match="78125"):
        sw_decode_md(code, syn, cap=60_000)
    assert sw_decode_md(code, syn, cap=80_000).x_hat == _oracle_md_decode(
        (gf5.to_dense(), code.matrices[1].to_dense()), (5, 2), DSBS, syn)
    # 2^39 members: only an up-front check can return at once
    wide = FieldMatrix.from_dense(2, [[1] * 40])
    code = SwCode((wide, wide), DSBS)
    for decode in (lambda: sw_decode_md(code, ((0,), (0,))),
                   lambda: sw_decode_ml_typical(code, ((0,), (0,)), gamma=1.0)):
        with pytest.raises(SwError, match="exceeds cap"):
            decode()


def _pinned_sw_codes():
    """Seeded codes: DSBS at n = 8, GF(3) over a binary alphabet, a
    zero-mass cell and a 3 x 2 alphabet."""
    rng = np.random.default_rng(404)

    def dense(q, rows, n):
        return FieldMatrix.from_dense(q, rng.integers(0, q, size=(rows, n)))

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
PINNED_SW_MC = [(133, 78), (54, 37), (285, 173), (284, 269)]  # (md, ml) errors


def test_pinned_sw_decisions():
    for i, code in enumerate(_pinned_sw_codes()):
        assert _pinned_sw_decodes(code, 500 + i) == PINNED_SW_DECODES[i]
        md = sw_error_mc(code, trials=300, seed=11 + i).errors
        ml = sw_error_mc(code, decoder="ml", gamma=0.5, trials=300, seed=11 + i).errors
        assert (md, ml) == PINNED_SW_MC[i]


def test_error_exact_identity_code_is_zero():
    eye = FieldMatrix.identity(2, 3)
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
    with pytest.raises(SwError):
        sw_error_mc(code, trials=0)


def test_error_mc_thread_invariant():
    code = _dsbs_code()
    a = sw_error_mc(code, trials=300, seed=7, threads=1)
    b = sw_error_mc(code, trials=300, seed=7, threads=4)
    assert (a.errors, a.trials) == (b.errors, b.trials)


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
