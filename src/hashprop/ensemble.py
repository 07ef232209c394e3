"""Matrix/function ensembles, their spectra and (alpha, beta) profiles, and
exact empirical verification of the collision/saturation bounds.

All support probabilities are kept as exact fractions so the desk-scale
checks can assert inequalities without floating-point slack.  Every audit is
one weighted sum over a support table: each function's hash values on the
points the audit names, as integers in [0, image_size), and its probability
as an integer weight over the support's common denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .gf import MAX_MATRIX_ENTRIES, FieldMatrix, check_prime
from .types import row_groups, type_classes


class EnsembleError(ValueError):
    """Unusable ensemble parameters or an enumeration beyond the cap."""


@dataclass(frozen=True)
class EnsembleProfile:
    """The (alpha, beta) pair bounding collision mass, plus the family-level
    image size used in all the closed-form bounds."""

    alpha: Fraction
    beta: Fraction
    image_size: int

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise EnsembleError("profile entries must be nonnegative")


@dataclass(frozen=True)
class TypeFilter:
    """Selects the high-weight types whose spectrum ratio defines alpha;
    everything else contributes to beta.  Weight = count of nonzero symbols."""

    w_min: int

    @classmethod
    def default(cls, n: int) -> "TypeFilter":
        return cls(w_min=max(1, -(-n // 10)))

    def contains(self, t: Sequence[int]) -> bool:
        n = sum(t)
        weight = n - t[0]
        return weight >= self.w_min


class Ensemble:
    """A distribution over hash functions U^n -> Im A.

    family is one of 'uniform' (all l x n matrices), 'sparse' (the tau-draw
    column procedure), 'binning' (all bin-assignment tables), or 'product'
    (two stacked ensembles on the same domain).
    """

    def __init__(self, family: str, q: int, l: int, n: int, tau: int | None = None,
                 bins: int | None = None, parts: tuple["Ensemble", "Ensemble"] | None = None):
        self.family = family
        self.q = q
        self.l = l
        self.n = n
        self.tau = tau
        self.bins = bins
        self.parts = parts
        if l < 0 or n < 1:
            raise EnsembleError(f"need l >= 0 and n >= 1, got l = {l}, n = {n}")
        if family in ("uniform", "sparse"):
            check_prime(q)
        if family == "binning" and (bins is None or bins < 1):
            raise EnsembleError("binning ensembles need at least one bin")
        if family == "sparse":
            if tau is None or tau % 2 != 0 or tau <= 0:
                raise EnsembleError("sparse ensembles need a positive even tau")
            if l < 1:
                raise EnsembleError("sparse ensembles need a row for each draw to land in")

    # --- constructors ------------------------------------------------------

    @classmethod
    def uniform_all(cls, q: int, l: int, n: int) -> "Ensemble":
        return cls("uniform", q, l, n)

    @classmethod
    def sparse(cls, q: int, l: int, n: int, tau: int) -> "Ensemble":
        return cls("sparse", q, l, n, tau=tau)

    @classmethod
    def binning(cls, alphabet: int, n: int, bins: int) -> "Ensemble":
        return cls("binning", alphabet, 1, n, bins=bins)

    @classmethod
    def product(cls, a: "Ensemble", b: "Ensemble") -> "Ensemble":
        if (a.q, a.n) != (b.q, b.n):
            raise EnsembleError("product ensembles must share the domain")
        return cls("product", a.q, a.l + b.l, a.n, parts=(a, b))

    # --- basic facts -------------------------------------------------------

    @property
    def image_size(self) -> int:
        if self.family == "binning":
            return self.bins
        if self.family == "product":
            return self.parts[0].image_size * self.parts[1].image_size
        return self.q ** self.l

    def domain(self) -> Iterator[tuple[int, ...]]:
        yield from itertools.product(range(self.q), repeat=self.n)

    def support_size(self) -> int:
        """Number of elementary random choices behind the ensemble."""
        if self.family == "uniform":
            return self.q ** (self.l * self.n)
        if self.family == "sparse":
            return (self.l * (self.q - 1)) ** (self.tau * self.n)
        if self.family == "binning":
            return self.bins ** (self.q ** self.n)
        if self.family == "product":
            return self.parts[0].support_size() * self.parts[1].support_size()
        raise EnsembleError(self.family)

    def support_bits(self) -> float:
        """log2 of ``support_size()`` from logarithms alone, so it costs
        nothing at any n; inf past the float range."""
        if self.family == "product":
            return self.parts[0].support_bits() + self.parts[1].support_bits()
        try:
            if self.family == "uniform":
                return self.l * self.n * math.log2(self.q)
            if self.family == "sparse":
                return self.tau * self.n * math.log2(self.l * (self.q - 1))
            if self.family == "binning":  # bins^(q^n)
                return math.log2(self.bins) * 2.0 ** (self.n * math.log2(self.q))
        except OverflowError:
            return math.inf
        raise EnsembleError(self.family)

    # --- exact support enumeration -----------------------------------------

    def enumerate_support(self, cap: int = 200_000) -> list[tuple[object, Fraction]]:
        """Exact (function, probability) support with merged duplicates; the
        size meets the cap in the log domain first, so no huge power is built."""
        bits = self.support_bits()
        if cap < 1 or bits > math.log2(cap) + 1 or self.support_size() > cap:
            raise EnsembleError(
                f"support of 2^{bits:.4g} elementary outcomes exceeds cap {cap}")
        if self.family == "uniform":
            prob = Fraction(1, self.support_size())
            out = []
            for values in itertools.product(range(self.q), repeat=self.l * self.n):
                dense = np.array(values, dtype=np.int64).reshape(self.l, self.n)
                out.append((FieldMatrix(self.q, dense), prob))
            return out
        if self.family == "sparse":
            options = [(j, a) for j in range(self.l) for a in range(1, self.q)]
            draws_per_matrix = self.tau * self.n
            prob = Fraction(1, len(options) ** draws_per_matrix)
            merged: dict[FieldMatrix, Fraction] = {}
            for seq in itertools.product(options, repeat=draws_per_matrix):
                dense = np.zeros((self.l, self.n), dtype=np.int64)
                for idx, (j, a) in enumerate(seq):
                    dense[j, idx // self.tau] = (dense[j, idx // self.tau] + a) % self.q
                m = FieldMatrix(self.q, dense)
                merged[m] = merged.get(m, Fraction(0)) + prob
            return sorted(merged.items(), key=lambda kv: kv[0].entries)
        if self.family == "binning":
            # a bin-coding function is the tuple of its bins in domain() order
            size = self.q ** self.n
            prob = Fraction(1, self.bins ** size)
            return [(bins, prob) for bins in itertools.product(range(self.bins), repeat=size)]
        if self.family == "product":
            sa = self.parts[0].enumerate_support(cap)
            sb = self.parts[1].enumerate_support(cap)
            return [((fa, fb), pa * pb) for fa, pa in sa for fb, pb in sb]
        raise EnsembleError(self.family)

    # --- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> FieldMatrix:
        """Draw one matrix, reproducibly from the generator's state.  A
        uniform matrix is one ``rng.integers`` call over its l x n entries.
        A sparse column i takes tau draws, each a row in [0, l) and then a
        nonzero scale in [1, q) added to entry (row, i) mod q; all 2*tau*n
        bounded draws are one ``rng.integers`` call, in that order, and each
        consumes what a scalar call with its bounds would (none for a bound
        of one value: a row when l = 1, a scale over GF(2)).  A shape past
        ``MAX_MATRIX_ENTRIES`` entries, or past that many draws, is refused
        before allocating."""
        if self.l * self.n > MAX_MATRIX_ENTRIES:
            raise EnsembleError(f"{self.l}x{self.n} matrix exceeds {MAX_MATRIX_ENTRIES} entries")
        if self.family == "uniform":
            dense = rng.integers(0, self.q, size=(self.l, self.n))
            return FieldMatrix(self.q, dense)
        if self.family == "sparse":
            draws = self.tau * self.n
            if 2 * draws > MAX_MATRIX_ENTRIES:
                raise EnsembleError(f"{2 * draws} sparse draws exceed {MAX_MATRIX_ENTRIES}")
            row, scale = rng.integers([0, 1], [self.l, self.q], size=(draws, 2)).T
            dense = np.zeros((self.l, self.n), dtype=np.int64)
            np.add.at(dense, (row, np.arange(self.n).repeat(self.tau)), scale)
            return FieldMatrix(self.q, dense)
        raise EnsembleError(f"sampling is not defined for family {self.family!r}")


def universal_profile(e: Ensemble) -> EnsembleProfile:
    return EnsembleProfile(alpha=Fraction(1), beta=Fraction(0), image_size=e.image_size)


# --- the support table ------------------------------------------------------


def _hash_values(e: Ensemble, functions: Sequence, points: np.ndarray) -> np.ndarray:
    """h[i, j] in [0, image_size): support function i at points[j], a
    (P, n) array.

    A matrix's value is the radix key of its syndrome over the rows, so 0 is
    the zero syndrome; a bin-coding function is the tuple of its bins in
    domain() order; a product's is the pair (fa, fb), keyed
    code_a * |Im b| + code_b."""
    if e.family == "binning":
        return np.asarray(functions, dtype=np.int64)[:, points @ e.q ** np.arange(e.n - 1, -1, -1)]
    if e.family == "product":
        a, b = e.parts
        return (_hash_values(a, [f[0] for f in functions], points) * b.image_size
                + _hash_values(b, [f[1] for f in functions], points))
    dense = np.array([f.dense for f in functions], dtype=np.int64).reshape(-1, e.l, e.n)
    return e.q ** np.arange(e.l - 1, -1, -1) @ (dense @ points.T % e.q)


def _table(es: Sequence[Ensemble], supports, points: Sequence[tuple]):
    """The product of the ensembles' supports as ``(den, chunks)``.

    points are k-tuples, one point per ensemble.  Each chunk is ``(w, h)``
    for at most SCORE_CHUNK entries of h (or one combination): h[i, j] is
    combination i's joint hash value at points[j], keyed over the ensembles
    in order as the product ensemble keys its parts, and w[i] is its
    probability times den, the product of each support's lcm of
    denominators.  For a support of ``enumerate_support`` that lcm is at most
    ``support_size()``, so the integer sums stay exact in int64."""
    if math.prod(e.image_size for e in es) >= 1 << 63:
        raise EnsembleError("joint hash values beyond int64")
    supports = [s if s is not None else e.enumerate_support()
                for e, s in zip(es, supports or [None] * len(es))]
    dens = [math.lcm(*(p.denominator for _, p in s)) for s in supports]
    weights = [np.array([p.numerator * (d // p.denominator) for _, p in s], dtype=np.int64)
               for s, d in zip(supports, dens)]
    columns = [np.array([p[j] for p in points], dtype=np.int64).reshape(-1, e.n)
               for j, e in enumerate(es)]
    shape = [len(s) for s in supports]
    total = math.prod(shape)

    def chunks():
        for rows in row_groups(total, len(points)):
            combos = np.unravel_index(np.arange(rows.start, min(rows.stop, total)), shape)
            w, h = 1, 0
            for e, s, x, weight, ix in zip(es, supports, columns, weights, combos):
                used, inv = np.unique(ix, return_inverse=True)
                hx = _hash_values(e, [s[i][0] for i in used], x)
                w, h = w * weight[ix], h * e.image_size + hx[inv]
            yield w, h
    return math.prod(dens), chunks()


# --- collision statistics ---------------------------------------------------


def collision_prob(e: Ensemble, u: Sequence[int], u2: Sequence[int],
                   support=None) -> Fraction:
    """p_A({A : Au = Au'}), exactly."""
    den, chunks = _table([e], [support], [(tuple(u),), (tuple(u2),)])
    return Fraction(sum(int(w @ (h[:, 0] == h[:, 1])) for w, h in chunks), den)


def _linear(e: Ensemble) -> bool:
    """Matrices and products of them; a product's kernel is its stack's."""
    return e.family != "binning" and all(map(_linear, e.parts or ()))


def spectrum_table(e: Ensemble, support=None) -> dict[tuple[int, ...], Fraction]:
    """S(p_A, t) for every nonzero type, from exact support enumeration."""
    if not _linear(e):
        raise EnsembleError("spectrum is defined for linear (matrix) ensembles only")
    domain = list(e.domain())
    den, chunks = _table([e], [support], [(u,) for u in domain])
    kernel = sum(w @ (h == 0) for w, h in chunks)  # mass of Au = 0, per u
    table: dict[tuple[int, ...], int] = {}
    for u, mass in zip(domain[1:], kernel[1:].tolist()):  # domain[0] is the zero vector
        if mass:
            t = tuple(u.count(a) for a in range(e.q))
            table[t] = table.get(t, 0) + mass
    return {t: Fraction(mass, den) for t, mass in table.items()}


def alpha_beta_from_spectrum(e: Ensemble, filt: TypeFilter, support=None) -> EnsembleProfile:
    """Exact (alpha, beta) from the ensemble spectrum versus the uniform-all
    spectrum, over the high-weight type filter."""
    table = spectrum_table(e, support=support)
    ql = e.q ** e.l
    scale = Fraction(e.image_size, ql)
    alpha = Fraction(0)
    beta = Fraction(0)
    counts, sizes = type_classes(e.n, e.q)
    for t, size in zip(map(tuple, counts.tolist()), sizes):
        if t[0] == e.n:
            continue  # the zero type
        s = table.get(t, Fraction(0))
        if filt.contains(t):
            alpha = max(alpha, s / Fraction(size, ql))  # a class size is >= 1
        else:
            beta += s
    return EnsembleProfile(alpha=scale * alpha, beta=beta, image_size=e.image_size)


def _exact_dtype(bound: int):
    """float64 when every integer up to bound is a float64 (bound < 2^53),
    where its matrix products run faster than int64 ones; else int64."""
    return np.float64 if bound < 1 << 53 else np.int64


def verify_strong_hash(e: Ensemble, profile: EnsembleProfile,
                       support=None) -> list[dict]:
    """Check the collision-mass condition for every u: the total probability
    of collisions exceeding alpha/|Im A| is at most beta.  The collision
    masses of one block of rows u, at most SCORE_CHUNK masses (or one row),
    are summed over the whole support at a time, as integer weights held in
    the dtype ``_exact_dtype`` picks for sums up to den * q^n."""
    support = support if support is not None else e.enumerate_support()
    domain = list(e.domain())
    reports = []
    for block in row_groups(len(domain), len(domain)):
        rows = range(len(domain))[block]
        den, chunks = _table([e], [support], [(u,) for u in domain])
        dtype = _exact_dtype(den * len(domain))
        mass = np.zeros((len(rows), len(domain)), dtype=dtype)
        for w, h in chunks:
            w = w.astype(dtype, copy=False)
            for i, u in enumerate(rows):
                mass[i] += w @ (h == h[:, u:u + 1])
        mass[np.arange(len(rows)), rows] = 0  # u2 = u is no collision
        # an integer mass exceeds den * alpha/|Im A| iff it exceeds its floor
        cut = math.floor(profile.alpha * den / profile.image_size)
        lhs_sums = np.where(mass > cut, mass, 0).sum(axis=1).astype(np.int64)
        for u, lhs in zip(rows, lhs_sums.tolist()):
            lhs = Fraction(lhs, den)
            reports.append({"u": domain[u], "holds": lhs <= profile.beta, "lhs_sum": lhs})
    return reports


# --- closed-form bound verification ----------------------------------------
#
# Every bound reads its lists of members as the sets they name: a repeated
# member is dropped at entry.

BOUND_TOL = 1e-12


def _holds(lhs, rhs) -> bool:
    return float(lhs) <= float(rhs) + BOUND_TOL


def bound_whash(e: Ensemble, profile: EnsembleProfile,
                T: Iterable, T2: Iterable, support=None) -> dict:
    T, T2 = (list(dict.fromkeys(tuple(t) for t in s)) for s in (T, T2))
    den, chunks = _table([e], [support], [(u,) for u in T + T2])
    total = 0
    for w, h in chunks:
        for i in range(len(T)):
            total += int(w @ (h[:, len(T):] == h[:, i:i + 1]).sum(axis=1))
    lhs = Fraction(total, den)
    inter = len(set(T) & set(T2))
    rhs = inter + Fraction(len(T) * len(T2)) * profile.alpha / profile.image_size \
        + min(len(T), len(T2)) * profile.beta
    return {"holds": _holds(lhs, rhs), "lhs": lhs, "rhs": rhs}


def bound_crp(e: Ensemble, profile: EnsembleProfile,
              G: Iterable, u: Sequence[int], support=None) -> dict:
    """Collision-resistance: probability that some other member of G shares
    u's hash value; the k = 1 case of ``bound_multi_crp``."""
    return bound_multi_crp([e], [profile], [(g,) for g in G], (u,), supports=[support])


def bound_sp(e: Ensemble, profile: EnsembleProfile,
             T: Iterable, support=None) -> dict:
    """Saturation: probability over (A, uniform syndrome) that T misses the
    whole coset; the k = 1 case of ``bound_multi_sp``."""
    return bound_multi_sp([e], [profile], [(t,) for t in T], supports=[support])


def _subsets(k: int):
    for mask in range(1 << k):
        yield tuple(j for j in range(k) if mask >> j & 1)


def _multi_alpha(profiles: Sequence[EnsembleProfile], J: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for j in J:
        out *= profiles[j].alpha
    return out


def _multi_beta(profiles: Sequence[EnsembleProfile], J: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for j in J:
        out *= profiles[j].beta + 1
    return out - 1


def _set_stat(T: list[tuple], J: tuple[int, ...], k: int) -> int:
    """|T_{J|J^c}| of a set of k-tuples of sequences."""
    if not J:
        return 1
    if len(J) == k:
        return len(T)
    Jc = tuple(j for j in range(k) if j not in J)
    groups: dict = {}
    for t in T:
        key = tuple(t[j] for j in Jc)
        groups.setdefault(key, set()).add(tuple(t[j] for j in J))
    return max((len(s) for s in groups.values()), default=0)


def bound_multi_crp(es: Sequence[Ensemble], profiles: Sequence[EnsembleProfile],
                    G: Iterable, point: Sequence, supports=None) -> dict:
    """k-domain collision resistance (product cosets across k ensembles)."""
    k = len(es)
    G = list(dict.fromkeys(tuple(tuple(x) for x in g) for g in G))
    p0 = tuple(tuple(x) for x in point)
    den, chunks = _table(es, supports, [p0] + [g for g in G if g != p0])
    lhs = Fraction(sum(int(w @ (h[:, 1:] == h[:, :1]).any(axis=1)) for w, h in chunks), den)
    rhs = _multi_beta(profiles, tuple(range(k)))
    for J in _subsets(k):
        if not J:
            continue
        Jc = tuple(j for j in range(k) if j not in J)
        im = math.prod([profiles[j].image_size for j in J])
        rhs += (Fraction(_set_stat(G, J, k)) * _multi_alpha(profiles, J)
                * (_multi_beta(profiles, Jc) + 1) / im)
    return {"holds": _holds(lhs, rhs), "lhs": lhs, "rhs": rhs}


def bound_multi_sp(es: Sequence[Ensemble], profiles: Sequence[EnsembleProfile],
                   T: Iterable, supports=None) -> dict:
    """k-domain saturation with independent uniform syndromes."""
    k = len(es)
    T = list(dict.fromkeys(tuple(tuple(x) for x in t) for t in T))
    if not T:
        raise EnsembleError("saturation bound needs a nonempty target set")
    den, chunks = _table(es, supports, T)
    image = math.prod(e.image_size for e in es)
    missed = 0  # over (A, syndrome tuple) pairs, weighted by A's probability
    for w, h in chunks:
        h = np.sort(h, axis=1)
        missed += int(w @ (image - 1 - (h[:, 1:] != h[:, :-1]).sum(axis=1)))
    lhs = Fraction(missed, den * image)
    rhs = _multi_alpha(profiles, tuple(range(k))) - 1
    for J in _subsets(k):
        if len(J) == k:
            continue
        Jc = tuple(j for j in range(k) if j not in J)
        im_c = math.prod([profiles[j].image_size for j in Jc])
        rhs += (Fraction(im_c * _set_stat(T, J, k)) * _multi_alpha(profiles, J)
                * (_multi_beta(profiles, Jc) + 1) / len(T))
    return {"holds": _holds(lhs, rhs), "lhs": lhs, "rhs": rhs}


def bound_lem_E(e: Ensemble, u: Sequence[int], support=None) -> dict:
    """Expectation over the uniform syndrome of hitting Au, for each fixed A
    and averaged over A: both equal 1/|Im A| exactly."""
    den, chunks = _table([e], [support], [(tuple(u),)])
    # each A's value Au is hit by exactly one of the |Im A| syndromes
    hits = sum(int(w @ ((h[:, 0] >= 0) & (h[:, 0] < e.image_size))) for w, h in chunks)
    avg, expected = Fraction(hits, den * e.image_size), Fraction(1, e.image_size)
    return {"holds": avg == expected, "lhs": avg, "rhs": expected}


def verify_bound(lemma: str, *args, **kwargs) -> dict:
    dispatch: dict[str, Callable] = {
        "whash": bound_whash,
        "crp": bound_crp,
        "sp": bound_sp,
        # the one- and two-domain lemmas are the k = 1 and k = 2 cases of the
        # k-domain ones
        "cross_crp": lambda ea, eb, pa, pb, G, point, supports=None:
            bound_multi_crp([ea, eb], [pa, pb], G, point, supports=supports),
        "cross_sp": lambda ea, eb, pa, pb, T, supports=None:
            bound_multi_sp([ea, eb], [pa, pb], T, supports=supports),
        "multi_crp": bound_multi_crp,
        "multi_sp": bound_multi_sp,
        "lem_E": bound_lem_E,
    }
    if lemma not in dispatch:
        raise EnsembleError(f"unknown bound {lemma!r}")
    return dispatch[lemma](*args, **kwargs)
