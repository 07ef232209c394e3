"""Exact GF(q) arithmetic and coset enumeration."""

import itertools

import numpy as np
import pytest

from hashprop.gf import (
    CosetSpec,
    FieldElement,
    FieldError,
    FieldMatrix,
    coset,
    coset_array,
    coset_size,
    enumerate_image,
    finv,
    image_basis,
    null_space,
    rank,
    rank_and_image_size,
    rref,
    solve_affine,
)


def test_field_element_arithmetic_gf5():
    a = FieldElement(3, 5)
    b = FieldElement(4, 5)
    assert (a + b).value == 2
    assert (a * b).value == 2
    assert (-a).value == 2
    assert a.inv().value == 2  # 3 * 2 = 6 = 1 mod 5
    assert (a * a.inv()).value == 1


def test_field_element_rejects_composite_modulus():
    with pytest.raises(FieldError):
        FieldElement(1, 4)
    with pytest.raises(FieldError):
        FieldMatrix.from_dense(6, [[1]])


def test_field_element_modulus_mismatch():
    with pytest.raises(FieldError):
        FieldElement(1, 3) + FieldElement(1, 5)


def test_finv_all_units():
    for q in (2, 3, 5, 7):
        for x in range(1, q):
            assert (x * finv(x, q)) % q == 1
    with pytest.raises(FieldError):
        finv(0, 3)


def test_matrix_round_trip_and_validation():
    m = FieldMatrix.from_dense(3, [[0, 1, 2], [2, 0, 1]])
    assert m.rows == 2 and m.cols == 3
    assert np.array_equal(m.to_dense(), [[0, 1, 2], [2, 0, 1]])
    with pytest.raises(FieldError):
        FieldMatrix(q=2, rows=1, cols=1, entries=((0, 0, 1), (0, 0, 1)))
    with pytest.raises(FieldError):
        FieldMatrix(q=2, rows=1, cols=1, entries=((1, 0, 1),))


def test_matvec_matches_dense():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        dense = rng.integers(0, q, size=(3, 4))
        m = FieldMatrix.from_dense(q, dense)
        for _ in range(20):
            u = tuple(int(x) for x in rng.integers(0, q, size=4))
            assert m.matvec(u) == tuple((dense @ u) % q)
    with pytest.raises(FieldError):
        FieldMatrix.identity(2, 3).matvec((1, 0))


def test_stack_concatenates_rows():
    a = FieldMatrix.from_dense(2, [[1, 0], [0, 1]])
    b = FieldMatrix.from_dense(2, [[1, 1]])
    s = a.stack(b)
    assert np.array_equal(s.to_dense(), [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(FieldError):
        a.stack(FieldMatrix.from_dense(2, [[1, 1, 1]]))


def test_rref_and_rank():
    m = FieldMatrix.from_dense(2, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert rank(m) == 2
    r, pivots = rref(m.to_dense(), 2)
    assert pivots == [0, 2]
    assert rank_and_image_size(m) == (2, 4)


def test_null_space_spans_kernel():
    rng = np.random.default_rng(11)
    for q in (2, 3):
        for _ in range(10):
            dense = rng.integers(0, q, size=(2, 4))
            m = FieldMatrix.from_dense(q, dense)
            basis = null_space(m)
            assert len(basis) == 4 - rank(m)
            for b in basis:
                assert m.matvec(b) == (0, 0)
            # every kernel vector is reached: count matches q^(n - rank)
            kernel = {
                u
                for u in itertools.product(range(q), repeat=4)
                if m.matvec(u) == (0, 0)
            }
            assert len(kernel) == q ** len(basis)


def test_enumerate_image_exhaustive():
    rng = np.random.default_rng(3)
    for q in (2, 3):
        for _ in range(10):
            m = FieldMatrix.from_dense(q, rng.integers(0, q, size=(3, 3)))
            expected = sorted(
                {m.matvec(u) for u in itertools.product(range(q), repeat=3)}
            )
            assert enumerate_image(m) == expected
            assert len(image_basis(m)) == rank(m)


def test_coset_lexicographic_and_complete():
    m = FieldMatrix.from_dense(2, [[1, 1, 0], [0, 1, 1]])
    members = coset(m, (1, 0))
    brute = sorted(
        u for u in itertools.product(range(2), repeat=3) if m.matvec(u) == (1, 0)
    )
    assert members == brute
    assert members == sorted(members)
    assert all(isinstance(v, int) for v in members[0])


def test_coset_empty_outside_image():
    m = FieldMatrix.from_dense(2, [[1, 1], [1, 1]])
    assert coset(m, (1, 0)) == []
    assert list(solve_affine(CosetSpec(m, (1, 1)))) == [(0, 1), (1, 0)]


def test_zero_row_matrix_coset_is_whole_space():
    m = FieldMatrix.zeros(2, 0, 2)
    assert coset(m, ()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def _brute_coset(dense: np.ndarray, q: int, syndrome) -> np.ndarray:
    """All of GF(q)^n filtered by dense u = syndrome, in lexicographic order."""
    n = dense.shape[1]
    words = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64)
    keep = (words @ dense.T % q == np.asarray(syndrome, dtype=np.int64)).all(axis=1)
    return words[keep].reshape(-1, n)


def test_coset_array_matches_brute_force():
    rng = np.random.default_rng(5)
    shapes = [(2, 4), (3, 4), (0, 3), (4, 4), (3, 3), (1, 5)]
    for q in (2, 3, 5):
        for rows, n in shapes:
            for _ in range(4):
                dense = rng.integers(0, q, size=(rows, n))
                if rows >= 2:
                    dense[-1] = (2 * dense[0]) % q  # rank-deficient
                m = FieldMatrix.from_dense(q, dense) if rows else FieldMatrix.zeros(q, 0, n)
                for syndrome in itertools.product(range(q), repeat=rows):
                    got = coset_array(m, syndrome)
                    assert got.dtype == np.int64 and got.shape[1] == n
                    assert np.array_equal(got, _brute_coset(dense, q, syndrome))
                    assert [tuple(r) for r in got.tolist()] == list(
                        solve_affine(CosetSpec(m, syndrome)))
                    if len(got):
                        assert len(got) == coset_size(m)


def test_coset_array_edge_cases():
    # l = 0: the whole space; rank = n: one member; inconsistent: (0, n)
    assert coset_array(FieldMatrix.zeros(3, 0, 2), ()).tolist() == [
        [a, b] for a in range(3) for b in range(3)]
    eye = FieldMatrix.identity(5, 3)
    assert coset_array(eye, (4, 0, 2)).tolist() == [[4, 0, 2]]
    assert coset_size(eye) == 1
    dup = FieldMatrix.from_dense(3, [[1, 2, 0], [2, 1, 0]])  # row 2 = 2 * row 1
    empty = coset_array(dup, (1, 1))
    assert empty.shape == (0, 3) and empty.dtype == np.int64
    assert coset(dup, (1, 1)) == []
    assert coset_array(dup, (1, 2)).shape == (9, 3) == (coset_size(dup), 3)
    with pytest.raises(FieldError):
        coset_array(dup, (1,))
