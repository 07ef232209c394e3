"""Exact arithmetic and linear algebra over prime fields GF(q).

A matrix is its dense array of residues: the workbench targets n <= 24,
q <= 7, where an l x n matrix holds a few hundred entries and every
elimination, coset, syndrome and hash value is computed from that array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np


class FieldError(ValueError):
    """Invalid field element, modulus, or dimension mismatch."""


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


MAX_MODULUS = 1 << 16  # residues below it keep every int64 sum of < 2^31 products exact


def check_prime(q: int) -> int:
    if q > MAX_MODULUS:
        raise FieldError(f"modulus {q} exceeds {MAX_MODULUS}: int64 arithmetic would overflow")
    if not is_prime(q):
        raise FieldError(f"modulus {q} is not prime")
    return q


def finv(x: int, q: int) -> int:
    if x % q == 0:
        raise FieldError("inversion of zero")
    return pow(x, q - 2, q)


# A matrix is its dense l x n array, so the shape alone sizes the allocation:
# matrix files and ensemble draws past this (far past n <= 24) are refused first.
MAX_MATRIX_ENTRIES = 1 << 24


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """An l x n matrix over GF(q): its residues as one read-only int64 array.

    Matrices are equal, and hash alike, when q, shape and residues agree."""

    q: int
    dense: np.ndarray
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_prime(self.q)
        arr = np.asarray(self.dense, dtype=np.int64) % self.q
        if arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, 0)
        if arr.ndim != 2:
            raise FieldError("a matrix must be two-dimensional")
        arr.setflags(write=False)
        object.__setattr__(self, "dense", arr)
        object.__setattr__(self, "_key", (self.q, arr.shape, arr.tobytes()))

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldMatrix) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def rows(self) -> int:
        return self.dense.shape[0]

    @property
    def cols(self) -> int:
        return self.dense.shape[1]

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """The nonzero entries (row, col, value), in (row, col) order."""
        r, c = np.nonzero(self.dense)
        return tuple(zip(r.tolist(), c.tolist(), self.dense[r, c].tolist()))

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "FieldMatrix":
        return cls(q, np.zeros((rows, cols), dtype=np.int64))

    def matvec(self, u: Sequence[int]) -> tuple[int, ...]:
        if len(u) != self.cols:
            raise FieldError(f"vector length {len(u)} != {self.cols} columns")
        return tuple((self.dense @ np.asarray(u, dtype=np.int64) % self.q).tolist())

    def stack(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.q != self.q or other.cols != self.cols:
            raise FieldError("stacked matrices must share modulus and column count")
        return FieldMatrix(self.q, np.concatenate([self.dense, other.dense]))


def rref(dense: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(q); returns (R, pivot columns)."""
    a = np.array(dense, dtype=np.int64) % q
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = next((i for i in range(r, rows) if a[i, c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = (a[r] * finv(int(a[r, c]), q)) % q
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = (a[i] - a[i, c] * a[r]) % q
        pivots.append(c)
        r += 1
    return a, pivots


def _span(basis: np.ndarray, q: int, cols: int) -> np.ndarray:
    """All q^d combinations of the d rows of basis, as a (q^d, cols) array."""
    span = np.zeros((1, cols), dtype=np.int64)
    steps = np.arange(q, dtype=np.int64)[None, :, None]
    for b in basis:
        span = ((span[:, None, :] + steps * b) % q).reshape(-1, cols)
    return span


COSET_CACHE = 128  # matrices whose elimination is kept


@dataclass(frozen=True, eq=False)
class _Elimination:
    """[A | I] reduced once: pivots of A, the row transform T with T A = R,
    and the null-space basis.  ``span`` (all q^d kernel vectors) is built on
    first use, so sizing a coset allocates nothing."""

    q: int
    cols: int
    pivots: np.ndarray      # pivot columns of A, ascending
    transform: np.ndarray   # T, (rows, rows)
    basis: np.ndarray       # (d, cols), one vector per free column

    @cached_property
    def span(self) -> np.ndarray:
        span = _span(self.basis, self.q, self.cols)
        span.setflags(write=False)
        return span


@lru_cache(maxsize=COSET_CACHE)
def _eliminate(matrix: FieldMatrix) -> _Elimination:
    q, rows, cols = matrix.q, matrix.rows, matrix.cols
    aug = np.concatenate([matrix.dense, np.eye(rows, dtype=np.int64)], axis=1)
    r, all_pivots = rref(aug, q)
    pivots = [p for p in all_pivots if p < cols]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        basis[i, pivots] = (-r[:len(pivots), f]) % q
    arrays = (np.array(pivots, dtype=np.intp), r[:, cols:].copy(), basis)
    for arr in arrays:
        arr.setflags(write=False)  # shared by every later call
    return _Elimination(q, cols, *arrays)


def coset_size(matrix: FieldMatrix) -> int:
    """|C_A(a)| = q^(n - rank) for any syndrome a in Im A, without building it."""
    return matrix.q ** len(_eliminate(matrix).basis)


def rank(matrix: FieldMatrix) -> int:
    return len(_eliminate(matrix).pivots)


def _transformed(matrix: FieldMatrix, syndromes):
    """The cached elimination of A and T a for a (D, rows) array of
    syndromes; a lies in Im A iff the entries of T a beyond the rank vanish."""
    e = _eliminate(matrix)
    a = np.asarray(syndromes, dtype=np.int64) % matrix.q
    if a.ndim != 2 or a.shape[1] != matrix.rows:
        raise FieldError("syndrome length does not match row count")
    return e, a @ e.transform.T % matrix.q


def in_image(matrix: FieldMatrix, syndrome: Iterable[int]) -> bool:
    """Whether Au = a has a solution."""
    e, ta = _transformed(matrix, [tuple(syndrome)])
    return not ta[0, len(e.pivots):].any()


def enumerate_image(matrix: FieldMatrix) -> list[tuple[int, ...]]:
    """All q^rank distinct syndromes Au, sorted lexicographically.  The pivot
    columns of A are a basis of Im A."""
    basis = matrix.dense[:, _eliminate(matrix).pivots].T
    return sorted(map(tuple, _span(basis, matrix.q, matrix.rows).tolist()))


def lex_order(rows: np.ndarray, q: int) -> np.ndarray:
    """Per batch row of a (D, m, n) array of symbols in [0, q), the order
    that sorts its m rows lexicographically: by the radix key sum of
    x_i q^(n-1-i) when q^n fits an int64, else by ``lexsort``."""
    d, m, n = rows.shape
    if q ** n < 1 << 63:
        return np.argsort(rows @ q ** np.arange(n - 1, -1, -1, dtype=np.int64), axis=1)
    keys = tuple(rows.reshape(d * m, n).T[::-1]) + (np.repeat(np.arange(d), m),)
    return np.lexsort(keys).reshape(d, m) - np.arange(d)[:, None] * m


def coset_batch(matrix: FieldMatrix, syndromes) -> tuple[np.ndarray, np.ndarray]:
    """The cosets C_A(a) of D syndromes at once: ``(members, outside)``.

    ``syndromes`` is a (D, rows) array.  T maps them in one matmul, the
    particular solutions sit on the pivot columns, and the kernel span is
    shifted for all D rows together.  ``members`` is (D, q^(n-rank), n),
    each row's members in lexicographic order; ``outside`` marks the
    syndromes outside Im A, whose rows of ``members`` mean nothing.
    """
    e, ta = _transformed(matrix, syndromes)
    rank = len(e.pivots)
    x = np.zeros((len(ta), matrix.cols), dtype=np.int64)
    x[:, e.pivots] = ta[:, :rank]
    members = (x[:, None, :] + e.span) % matrix.q
    members = members[np.arange(len(ta))[:, None], lex_order(members, matrix.q)]
    return members, ta[:, rank:].any(axis=1)


def coset_array(matrix: FieldMatrix, syndrome: Iterable[int]) -> np.ndarray:
    """The coset C_A(a) as an (m, n) int64 array, rows in lexicographic order:
    the one-row case of ``coset_batch``.  Empty (0, n) iff the syndrome lies
    outside Im A."""
    members, outside = coset_batch(matrix, [tuple(syndrome)])
    return members[0, :0] if outside[0] else members[0]


def coset_factor_batch(matrices: Sequence[FieldMatrix], syndromes, cap: int,
                       error: type[ValueError] = FieldError,
                       sizes: Sequence[int] | None = None):
    """The cosets C_{A_j}(a_j) of D rows at once, whose per-row product is
    the candidate set of an exhaustive decoder: ``(factors, kept)``.

    ``syndromes[j]`` is a (D, rows_j) array.  Factor j is (D, m_j, n) and
    ``kept[j]`` (D, m_j) marks its real members.  With ``sizes``, coset j
    keeps only its members inside {0..sizes[j]-1}^n: they move to the front
    of their row, in order, and the rest is zero padding, so m_j is the
    largest count kept by a row.  A row outside Im A_j keeps nothing.  The
    cap bounds the members built for a row, not only those kept: coset j is
    built only if q_j^(n - rank) times the largest product of the counts one
    row kept so far is at most ``cap``; otherwise ``error`` is raised, as it
    would be for that row alone.  The padded product of k >= 3 factors can
    exceed every row's own; slicing the batch by ``types.row_groups`` on the
    product of the q_j^(n - rank) bounds it.  Returns None as soon as every
    row has an empty coset.
    """
    factors, kept = [], []
    total = 1  # per row: the product of the counts kept so far
    for j, (m, a) in enumerate(zip(matrices, syndromes)):
        built = int(np.max(total)) * coset_size(m)
        if built > cap:
            raise error(f"coset product of {built} candidates exceeds cap {cap}")
        members, outside = coset_batch(m, a)
        keep = (~outside)[:, None].repeat(members.shape[1], axis=1)
        if sizes is not None and m.q > sizes[j]:
            keep &= (members < sizes[j]).all(axis=2)
            width = int(keep.sum(axis=1).max())
            rows = np.arange(len(keep))[:, None]
            order = np.argsort(~keep, axis=1, kind="stable")[:, :width]
            keep, members = keep[rows, order], members[rows, order]
            members[~keep] = 0
        if not keep.any():
            return None
        factors.append(members)
        kept.append(keep)
        total = total * keep.sum(axis=1)
    return factors, kept


def solve_affine(matrix: FieldMatrix, syndrome: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The rows of ``coset_array``, as tuples, in lexicographic order."""
    return iter(map(tuple, coset_array(matrix, syndrome).tolist()))
