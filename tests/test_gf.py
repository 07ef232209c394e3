"""Exact GF(q) arithmetic and coset enumeration."""

import itertools

import numpy as np
import pytest

import oracles
from hashprop.gf import (
    _eliminate,
    FieldError,
    FieldMatrix,
    coset_array,
    coset_batch,
    coset_size,
    enumerate_image,
    finv,
    in_image,
    lex_order,
    rank,
    rref,
    solve_affine,
)


def test_matrix_rejects_composite_modulus():
    with pytest.raises(FieldError):
        FieldMatrix(6, [[1]])
    with pytest.raises(FieldError, match="exceeds"):  # prime, but past int64-exact products
        FieldMatrix(65537, [[1]])


def test_finv_all_units():
    for q in (2, 3, 5, 7):
        for x in range(1, q):
            assert (x * finv(x, q)) % q == 1
    with pytest.raises(FieldError):
        finv(0, 3)


def test_matrix_round_trip_and_validation():
    m = FieldMatrix(3, [[0, 1, 2], [2, 0, 1]])
    assert m.rows == 2 and m.cols == 3
    assert np.array_equal(m.dense, [[0, 1, 2], [2, 0, 1]])
    assert m.entries == ((0, 1, 1), (0, 2, 2), (1, 0, 2), (1, 2, 1))
    assert not m.dense.flags.writeable
    assert FieldMatrix(3, [[3, -1]]) == FieldMatrix(3, [[0, 2]])  # residues mod q
    with pytest.raises(FieldError):
        FieldMatrix(2, [[[1]]])


def test_equal_matrices_share_one_elimination():
    """Equality and hashing follow (q, shape, residues), so a matrix built
    again from the same residues hits the cached elimination of the first."""
    dense = [[1, 0, 1, 1], [0, 1, 1, 0]]
    a, b = FieldMatrix(2, dense), FieldMatrix(2, np.array(dense))
    assert a is not b and a == b and hash(a) == hash(b)
    _eliminate.cache_clear()
    rank(a)
    rank(b)
    assert _eliminate.cache_info().hits == 1 and _eliminate.cache_info().currsize == 1
    assert FieldMatrix(3, dense) != a  # same residues, other field
    assert FieldMatrix(2, np.reshape(dense, (4, 2))) != a  # same residues, other shape
    assert FieldMatrix.zeros(2, 0, 3) != FieldMatrix.zeros(2, 0, 2)


def test_matvec_matches_dense():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        dense = rng.integers(0, q, size=(3, 4))
        m = FieldMatrix(q, dense)
        for _ in range(20):
            u = tuple(int(x) for x in rng.integers(0, q, size=4))
            assert m.matvec(u) == tuple((dense @ u) % q)
    q = 65521  # the largest prime modulus: (q - 1)^2 sums stay exact in int64
    assert FieldMatrix(q, [[q - 1] * 3]).matvec((q - 1,) * 3) == (3 * (q - 1) ** 2 % q,)
    with pytest.raises(FieldError):
        FieldMatrix(2, np.eye(3, dtype=np.int64)).matvec((1, 0))


def test_stack_concatenates_rows():
    a = FieldMatrix(2, [[1, 0], [0, 1]])
    b = FieldMatrix(2, [[1, 1]])
    s = a.stack(b)
    assert np.array_equal(s.dense, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(FieldError):
        a.stack(FieldMatrix(2, [[1, 1, 1]]))


def test_rref_and_rank():
    m = FieldMatrix(2, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert rank(m) == 2
    r, pivots = rref(m.dense, 2)
    assert pivots == [0, 2]
    assert rank(FieldMatrix.zeros(3, 0, 2)) == 0


def test_enumerate_image_exhaustive():
    rng = np.random.default_rng(3)
    for q in (2, 3):
        for rows in (3, 0):
            for _ in range(10):
                dense = rng.integers(0, q, size=(rows, 3))
                m = FieldMatrix(q, dense) if rows else FieldMatrix.zeros(q, 0, 3)
                words = itertools.product(range(q), repeat=3)
                expected = sorted({tuple(int(v) for v in dense @ u % q) for u in words})
                assert enumerate_image(m) == expected
                assert len(expected) == q ** rank(m)
                for a in itertools.product(range(q), repeat=rows):
                    assert in_image(m, a) == (a in expected)


def test_coset_lexicographic_and_complete():
    m = FieldMatrix(2, [[1, 1, 0], [0, 1, 1]])
    members = list(solve_affine(m, (1, 0)))
    brute = sorted(
        u for u in itertools.product(range(2), repeat=3) if m.matvec(u) == (1, 0)
    )
    assert members == brute
    assert members == sorted(members)
    assert all(isinstance(v, int) for v in members[0])


def test_coset_empty_outside_image():
    m = FieldMatrix(2, [[1, 1], [1, 1]])
    assert coset_array(m, (1, 0)).shape == (0, 2)
    assert list(solve_affine(m, (1, 1))) == [(0, 1), (1, 0)]


def test_zero_row_matrix_coset_is_whole_space():
    m = FieldMatrix.zeros(2, 0, 2)
    assert list(solve_affine(m, ())) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_coset_array_matches_brute_force():
    rng = np.random.default_rng(5)
    shapes = [(2, 4), (3, 4), (0, 3), (4, 4), (3, 3), (1, 5)]
    for q in (2, 3, 5):
        for rows, n in shapes:
            for _ in range(4):
                dense = rng.integers(0, q, size=(rows, n))
                if rows >= 2:
                    dense[-1] = (2 * dense[0]) % q  # rank-deficient
                m = FieldMatrix(q, dense) if rows else FieldMatrix.zeros(q, 0, n)
                for syndrome in itertools.product(range(q), repeat=rows):
                    got = coset_array(m, syndrome)
                    assert got.dtype == np.int64 and got.shape[1] == n
                    members = [tuple(r) for r in got.tolist()]
                    assert members == oracles.coset(dense, q, syndrome)
                    assert members == list(solve_affine(m, syndrome))
                    if len(got):
                        assert len(got) == coset_size(m)


def test_coset_array_edge_cases():
    # l = 0: the whole space; rank = n: one member; inconsistent: (0, n)
    assert coset_array(FieldMatrix.zeros(3, 0, 2), ()).tolist() == [
        [a, b] for a in range(3) for b in range(3)]
    eye = FieldMatrix(5, np.eye(3, dtype=np.int64))
    assert coset_array(eye, (4, 0, 2)).tolist() == [[4, 0, 2]]
    assert coset_size(eye) == 1
    dup = FieldMatrix(3, [[1, 2, 0], [2, 1, 0]])  # row 2 = 2 * row 1
    empty = coset_array(dup, (1, 1))
    assert empty.shape == (0, 3) and empty.dtype == np.int64
    assert list(solve_affine(dup, (1, 1))) == []
    assert coset_array(dup, (1, 2)).shape == (9, 3) == (coset_size(dup), 3)
    with pytest.raises(FieldError):
        coset_array(dup, (1,))


@pytest.mark.parametrize("q,n", [(2, 6), (5, 4), (7, 23)])
def test_lex_order_sorts_each_row(q, n):
    """The radix key (q^n within int64) and the lexsort fallback (7^23 is
    not) both sort every batch row lexicographically."""
    rng = np.random.default_rng(q * n)
    rows = rng.integers(0, q, size=(5, 9, n))
    rows[2, 3] = rows[2, 1]  # a repeated member sorts stably
    got = np.take_along_axis(rows, lex_order(rows, q)[..., None], axis=1)
    for d in range(len(rows)):
        assert got[d].tolist() == sorted(rows[d].tolist())


def test_coset_batch_matches_coset_array():
    """Every row of one batch call equals its own one-row call, syndromes
    outside Im A included."""
    rng = np.random.default_rng(6)
    for q, rows, n in [(2, 3, 5), (3, 2, 4), (5, 0, 2)]:
        dense = rng.integers(0, q, size=(rows, n))
        if rows >= 2:
            dense[-1] = dense[0]  # rank-deficient: some syndromes lie outside
        m = FieldMatrix(q, dense) if rows else FieldMatrix.zeros(q, 0, n)
        syndromes = np.array(list(itertools.product(range(q), repeat=rows)),
                             dtype=np.int64).reshape(q ** rows, rows)
        members, outside = coset_batch(m, syndromes)
        assert members.shape == (len(syndromes), coset_size(m), n)
        for syn, row, out in zip(syndromes.tolist(), members, outside):
            expected = coset_array(m, syn)
            assert out == (len(expected) == 0)
            if not out:
                assert np.array_equal(row, expected)
        assert outside.any() == (rows >= 2)
