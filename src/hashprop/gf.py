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
class FieldElement:
    """A residue in [0, q) for prime q, with exact field arithmetic."""

    value: int
    q: int

    def __post_init__(self) -> None:
        check_prime(self.q)
        object.__setattr__(self, "value", self.value % self.q)

    def _coerce(self, other: "FieldElement") -> int:
        if other.q != self.q:
            raise FieldError(f"mismatched moduli {self.q} and {other.q}")
        return other.value

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.value + self._coerce(other), self.q)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.value * self._coerce(other), self.q)

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.value, self.q)

    def inv(self) -> "FieldElement":
        return FieldElement(finv(self.value, self.q), self.q)


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

    # verify_bound treats matrices and bin-coding tables uniformly through apply()
    def apply(self, u: Sequence[int]) -> tuple[int, ...]:
        return self.matvec(u)

    def stack(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.q != self.q or other.cols != self.cols:
            raise FieldError("stacked matrices must share modulus and column count")
        shifted = tuple((r + self.rows, c, v) for r, c, v in other.entries)
        return FieldMatrix(
            q=self.q, rows=self.rows + other.rows, cols=self.cols,
            entries=self.entries + shifted,
        )


@dataclass(frozen=True)
class CosetSpec:
    """The affine solution set C_A(a) = {u : Au = a}."""

    matrix: FieldMatrix
    syndrome: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.syndrome) != self.matrix.rows:
            raise FieldError("syndrome length does not match row count")
        object.__setattr__(
            self, "syndrome", tuple(int(s) % self.matrix.q for s in self.syndrome)
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


def rank(matrix: FieldMatrix) -> int:
    return len(rref(matrix.to_dense(), matrix.q)[1])


def rank_and_image_size(matrix: FieldMatrix) -> tuple[int, int]:
    r = rank(matrix)
    return r, matrix.q ** r


def null_space(matrix: FieldMatrix) -> list[tuple[int, ...]]:
    """Basis of {u : Au = 0}, one vector per free column."""
    q = matrix.q
    r, pivots = rref(matrix.to_dense(), q)
    free = [c for c in range(matrix.cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * matrix.cols
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = (-r[i, f]) % q
        basis.append(tuple(vec))
    return basis


def image_basis(matrix: FieldMatrix) -> list[tuple[int, ...]]:
    """Basis of the column space Im A = {Au}."""
    q = matrix.q
    r, pivots = rref(matrix.to_dense().T, q)
    return [tuple(int(x) for x in r[i]) for i in range(len(pivots))]


def enumerate_image(matrix: FieldMatrix) -> list[tuple[int, ...]]:
    """All q^rank distinct syndromes Au, sorted lexicographically."""
    q = matrix.q
    basis = image_basis(matrix)
    vectors = {tuple([0] * matrix.rows)}
    for b in basis:
        vectors = {
            tuple((x + c * bb) % q for x, bb in zip(v, b))
            for v in vectors
            for c in range(q)
        }
    return sorted(vectors)


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
        span = np.zeros((1, self.cols), dtype=np.int64)
        steps = np.arange(self.q, dtype=np.int64)[None, :, None]
        for b in self.basis:
            span = ((span[:, None, :] + steps * b) % self.q).reshape(-1, self.cols)
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


def coset_array(matrix: FieldMatrix, syndrome: Iterable[int]) -> np.ndarray:
    """The coset C_A(a) as an (m, n) int64 array, rows in lexicographic order.

    Empty (0, n) iff the syndrome lies outside Im A.  The elimination of A is
    cached per matrix, so a call only maps the syndrome through T, places the
    particular solution on the pivot columns and shifts the kernel span.
    """
    e = _eliminate(matrix)
    a = np.array(tuple(syndrome), dtype=np.int64) % matrix.q
    if len(a) != matrix.rows:
        raise FieldError("syndrome length does not match row count")
    ta = e.transform @ a % matrix.q
    rank = len(e.pivots)
    if ta[rank:].any():
        return np.zeros((0, matrix.cols), dtype=np.int64)  # a outside Im A
    x = np.zeros(matrix.cols, dtype=np.int64)
    x[e.pivots] = ta[:rank]
    members = (e.span + x) % matrix.q
    return members[np.lexsort(members.T[::-1])]


def coset_factors(matrices: Sequence[FieldMatrix], syndromes, cap: int,
                  error: type[ValueError] = FieldError,
                  sizes: Sequence[int] | None = None) -> list[np.ndarray] | None:
    """The cosets C_{A_j}(a_j), as ``coset_array``s, whose product is the
    candidate set of an exhaustive decoder.

    With ``sizes``, coset j keeps only its members inside {0..sizes[j]-1}^n,
    in order.  The cap bounds the members built, not only those kept:
    coset j is built only if q_j^(n - rank) times the product of the sizes
    kept so far is at most ``cap``; otherwise ``error`` is raised.  Returns
    None as soon as a coset is empty.
    """
    factors = []
    total = 1
    for j, (m, a) in enumerate(zip(matrices, syndromes)):
        built = total * coset_size(m)
        if built > cap:
            raise error(f"coset product of {built} candidates exceeds cap {cap}")
        members = coset_array(m, a)
        if sizes is not None and m.q > sizes[j]:
            members = members[(members < sizes[j]).all(axis=1)]
        if not len(members):
            return None
        factors.append(members)
        total *= len(members)
    return factors


def solve_affine(spec: CosetSpec) -> Iterator[tuple[int, ...]]:
    """Yield the coset C_A(a) in lexicographic (full-vector) order.

    Empty iterator iff the syndrome lies outside Im A.  The lexicographic
    order is what downstream decoders rely on for deterministic ties.
    """
    return iter(map(tuple, coset_array(spec.matrix, spec.syndrome).tolist()))


def coset(matrix: FieldMatrix, syndrome: Iterable[int]) -> list[tuple[int, ...]]:
    return list(solve_affine(CosetSpec(matrix, tuple(syndrome))))
