"""Exact arithmetic and linear algebra over prime fields GF(q).

Matrices are stored sparsely as (row, col) -> nonzero value maps but all
elimination is done densely; the workbench targets n <= 24, q <= 7, where
dense Gaussian elimination is more than fast enough.
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


def check_prime(q: int) -> int:
    if not is_prime(q):
        raise FieldError(f"modulus {q} is not prime")
    return q


def finv(x: int, q: int) -> int:
    if x % q == 0:
        raise FieldError("inversion of zero")
    return pow(x, q - 2, q)


@dataclass(frozen=True)
class FieldMatrix:
    """An l x n matrix over GF(q) with sparse storage of nonzero entries."""

    q: int
    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        check_prime(self.q)
        if self.rows < 0 or self.cols < 0:
            raise FieldError("negative matrix dimensions")
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise FieldError(f"entry ({r},{c}) out of range")
            if not (0 < v < self.q):
                raise FieldError(f"entry value {v} not a nonzero residue mod {self.q}")
            if (r, c) in seen:
                raise FieldError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def from_dense(cls, q: int, dense: Sequence[Sequence[int]]) -> "FieldMatrix":
        arr = np.asarray(dense, dtype=np.int64) % q
        if arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, 0)
        if arr.ndim != 2:
            raise FieldError("dense input must be two-dimensional")
        entries = tuple(
            (int(r), int(c), int(arr[r, c]))
            for r in range(arr.shape[0])
            for c in range(arr.shape[1])
            if arr[r, c] != 0
        )
        return cls(q=q, rows=arr.shape[0], cols=arr.shape[1], entries=entries)

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "FieldMatrix":
        return cls(q=q, rows=rows, cols=cols)

    @classmethod
    def identity(cls, q: int, n: int) -> "FieldMatrix":
        return cls(q=q, rows=n, cols=n, entries=tuple((i, i, 1) for i in range(n)))

    def to_dense(self) -> np.ndarray:
        arr = np.zeros((self.rows, self.cols), dtype=np.int64)
        for r, c, v in self.entries:
            arr[r, c] = v
        return arr

    def matvec(self, u: Sequence[int]) -> tuple[int, ...]:
        if len(u) != self.cols:
            raise FieldError(f"vector length {len(u)} != {self.cols} columns")
        out = [0] * self.rows
        for r, c, v in self.entries:
            out[r] = (out[r] + v * u[c]) % self.q
        return tuple(out)

    def stack(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.q != self.q or other.cols != self.cols:
            raise FieldError("stacked matrices must share modulus and column count")
        shifted = tuple((r + self.rows, c, v) for r, c, v in other.entries)
        return FieldMatrix(
            q=self.q, rows=self.rows + other.rows, cols=self.cols,
            entries=self.entries + shifted,
        )


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
    aug = np.concatenate([matrix.to_dense(), np.eye(rows, dtype=np.int64)], axis=1)
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
    basis = matrix.to_dense()[:, _eliminate(matrix).pivots].T
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
