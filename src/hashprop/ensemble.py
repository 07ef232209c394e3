"""Matrix/function ensembles, their spectra and (alpha, beta) profiles, and
exact empirical verification of the collision/saturation bounds.

All support probabilities are kept as exact fractions so the desk-scale
checks can assert inequalities without floating-point slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .gf import FieldMatrix, check_prime
from .types import compositions


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
        return cls(w_min=max(1, math.ceil(n / 10)))

    def contains(self, t: Sequence[int]) -> bool:
        n = sum(t)
        weight = n - t[0]
        return weight >= self.w_min


@dataclass(frozen=True)
class FunctionTable:
    """An explicit map from domain tuples to bin indices (random bin coding)."""

    table: tuple[tuple[tuple[int, ...], int], ...]

    @cached_property
    def _bins(self) -> dict[tuple[int, ...], int]:
        return dict(self.table)

    def apply(self, u: Sequence[int]) -> int:
        return self._bins[tuple(u)]


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

    def syndromes(self) -> Iterator:
        """Im A at the family level (the uniform syndrome's support)."""
        if self.family == "binning":
            yield from range(self.bins)
        elif self.family == "product":
            yield from itertools.product(self.parts[0].syndromes(), self.parts[1].syndromes())
        else:
            yield from itertools.product(range(self.q), repeat=self.l)

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

    # --- exact support enumeration -----------------------------------------

    def enumerate_support(self, cap: int = 200_000) -> list[tuple[object, Fraction]]:
        """Exact (function, probability) support with merged duplicates."""
        if self.support_size() > cap:
            raise EnsembleError(
                f"support of {self.support_size()} elementary outcomes exceeds cap {cap}"
            )
        if self.family == "uniform":
            prob = Fraction(1, self.support_size())
            out = []
            for values in itertools.product(range(self.q), repeat=self.l * self.n):
                dense = np.array(values, dtype=np.int64).reshape(self.l, self.n)
                out.append((FieldMatrix.from_dense(self.q, dense), prob))
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
                m = FieldMatrix.from_dense(self.q, dense)
                merged[m] = merged.get(m, Fraction(0)) + prob
            return sorted(merged.items(), key=lambda kv: kv[0].entries)
        if self.family == "binning":
            domain = list(self.domain())
            prob = Fraction(1, self.bins ** len(domain))
            out = []
            for assignment in itertools.product(range(self.bins), repeat=len(domain)):
                out.append((FunctionTable(tuple(zip(domain, assignment))), prob))
            return out
        if self.family == "product":
            sa = self.parts[0].enumerate_support(cap)
            sb = self.parts[1].enumerate_support(cap)
            return [(_StackedMap(fa, fb), pa * pb) for fa, pa in sa for fb, pb in sb]
        raise EnsembleError(self.family)

    # --- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> FieldMatrix:
        """Draw one matrix; each column consumes exactly 2*tau RNG outputs for
        the sparse family so generation is reproducible from the seed."""
        if self.family == "uniform":
            dense = rng.integers(0, self.q, size=(self.l, self.n))
            return FieldMatrix.from_dense(self.q, dense)
        if self.family == "sparse":
            dense = np.zeros((self.l, self.n), dtype=np.int64)
            for i in range(self.n):
                for _ in range(self.tau):
                    j = int(rng.integers(0, self.l))
                    a = int(rng.integers(1, self.q))
                    dense[j, i] = (dense[j, i] + a) % self.q
            return FieldMatrix.from_dense(self.q, dense)
        raise EnsembleError(f"sampling is not defined for family {self.family!r}")


@dataclass(frozen=True)
class _StackedMap:
    first: object
    second: object

    def apply(self, u: Sequence[int]) -> tuple:
        return (self.first.apply(u), self.second.apply(u))


def universal_profile(e: Ensemble) -> EnsembleProfile:
    return EnsembleProfile(alpha=Fraction(1), beta=Fraction(0), image_size=e.image_size)


# --- collision statistics ---------------------------------------------------


def collision_prob(e: Ensemble, u: Sequence[int], u2: Sequence[int],
                   support=None) -> Fraction:
    """p_A({A : Au = Au'}), exactly."""
    u, u2 = tuple(u), tuple(u2)
    total = Fraction(0)
    for fn, p in (support if support is not None else e.enumerate_support()):
        if fn.apply(u) == fn.apply(u2):
            total += p
    return total


def spectrum(e: Ensemble, t, support=None) -> Fraction:
    """S(p_A, t): expected number of kernel vectors of the given type."""
    key = tuple(np.asarray(t.counts if hasattr(t, "counts") else t).reshape(-1).tolist())
    return spectrum_table(e, support=support).get(key, Fraction(0))


def spectrum_table(e: Ensemble, support=None) -> dict[tuple[int, ...], Fraction]:
    """S(p_A, t) for every nonzero type, from exact support enumeration."""
    if e.family == "binning":
        raise EnsembleError("spectrum is defined for linear (matrix) ensembles only")
    support = support if support is not None else e.enumerate_support()
    zero_type = None
    table: dict[tuple[int, ...], Fraction] = {}
    domain = list(itertools.product(range(e.q), repeat=e.n))
    types = [tuple(np.bincount(np.array(u), minlength=e.q).tolist()) for u in domain]
    zero_type = types[domain.index(tuple([0] * e.n))]
    for fn, p in support:
        for u, t in zip(domain, types):
            if t != zero_type and all(x == 0 for x in fn.apply(u)):
                table[t] = table.get(t, Fraction(0)) + p
    return table


def _type_class_size(t: Sequence[int]) -> int:
    n = sum(t)
    total = math.factorial(n)
    for c in t:
        total //= math.factorial(c)
    return total


def alpha_beta_from_spectrum(e: Ensemble, filt: TypeFilter, support=None) -> EnsembleProfile:
    """Exact (alpha, beta) from the ensemble spectrum versus the uniform-all
    spectrum, over the high-weight type filter."""
    table = spectrum_table(e, support=support)
    ql = e.q ** e.l
    scale = Fraction(e.image_size, ql)
    alpha = Fraction(0)
    beta = Fraction(0)
    for t in compositions(e.n, e.q):
        if t[0] == e.n:
            continue  # the zero type
        s = table.get(t, Fraction(0))
        if filt.contains(t):
            uniform_s = Fraction(_type_class_size(t), ql)
            if uniform_s == 0:
                raise EnsembleError("uniform spectrum vanished on a filtered type")
            ratio = s / uniform_s
            if ratio > alpha:
                alpha = ratio
        else:
            beta += s
    return EnsembleProfile(alpha=scale * alpha, beta=beta, image_size=e.image_size)


def verify_strong_hash(e: Ensemble, profile: EnsembleProfile,
                       support=None) -> list[dict]:
    """Check the collision-mass condition for every u: the total probability
    of collisions exceeding alpha/|Im A| is at most beta."""
    support = support if support is not None else e.enumerate_support()
    threshold = profile.alpha / Fraction(profile.image_size)
    reports = []
    domain = list(e.domain())
    for u in domain:
        lhs = Fraction(0)
        for u2 in domain:
            if u2 == u:
                continue
            cp = collision_prob(e, u, u2, support=support)
            if cp > threshold:
                lhs += cp
        reports.append({"u": u, "holds": lhs <= profile.beta, "lhs_sum": lhs})
    return reports


def concat_ensembles(e: Ensemble, e2: Ensemble,
                     profile: EnsembleProfile, profile2: EnsembleProfile
                     ) -> tuple[Ensemble, EnsembleProfile]:
    """Stack two ensembles on the same domain; the profile composes as
    (alpha*alpha', beta+beta') and image sizes multiply."""
    prod = Ensemble.product(e, e2)
    return prod, EnsembleProfile(
        alpha=profile.alpha * profile2.alpha,
        beta=profile.beta + profile2.beta,
        image_size=profile.image_size * profile2.image_size,
    )


# --- closed-form bound verification ----------------------------------------

BOUND_TOL = 1e-12


def _holds(lhs, rhs) -> bool:
    return float(lhs) <= float(rhs) + BOUND_TOL


def bound_whash(e: Ensemble, profile: EnsembleProfile,
                T: Iterable, T2: Iterable, support=None) -> dict:
    T, T2 = [tuple(t) for t in T], [tuple(t) for t in T2]
    support = support if support is not None else e.enumerate_support()
    lhs = Fraction(0)
    for u in T:
        for u2 in T2:
            lhs += collision_prob(e, u, u2, support=support)
    inter = len(set(T) & set(T2))
    rhs = inter + Fraction(len(T) * len(T2)) * profile.alpha / profile.image_size \
        + min(len(T), len(T2)) * profile.beta
    return {"holds": _holds(lhs, rhs), "lhs": lhs, "rhs": rhs}


def bound_crp(e: Ensemble, profile: EnsembleProfile,
              G: Iterable, u: Sequence[int], support=None) -> dict:
    """Collision-resistance: probability that some other member of G shares
    u's hash value."""
    G = {tuple(g) for g in G}
    u = tuple(u)
    support = support if support is not None else e.enumerate_support()
    lhs = Fraction(0)
    for fn, p in support:
        hu = fn.apply(u)
        if any(g != u and fn.apply(g) == hu for g in G):
            lhs += p
    rhs = Fraction(len(G)) * profile.alpha / profile.image_size + profile.beta
    return {"holds": _holds(lhs, rhs), "lhs": lhs, "rhs": rhs}


def bound_sp(e: Ensemble, profile: EnsembleProfile,
             T: Iterable, support=None) -> dict:
    """Saturation: probability over (A, uniform syndrome) that T misses the
    whole coset."""
    T = [tuple(t) for t in T]
    if not T:
        raise EnsembleError("saturation bound needs a nonempty target set")
    support = support if support is not None else e.enumerate_support()
    syndromes = list(e.syndromes())
    lhs = Fraction(0)
    p_syn = Fraction(1, len(syndromes))
    for fn, p in support:
        hits = {fn.apply(t) for t in T}
        missed = sum(1 for a in syndromes if a not in hits)
        lhs += p * p_syn * missed
    rhs = profile.alpha - 1 + Fraction(profile.image_size) * (profile.beta + 1) / len(T)
    return {"holds": _holds(lhs, rhs), "lhs": lhs, "rhs": rhs}


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
    G = [tuple(tuple(x) for x in g) for g in G]
    p0 = tuple(tuple(x) for x in point)
    supports = supports if supports is not None else [e.enumerate_support() for e in es]
    lhs = Fraction(0)
    for combo in itertools.product(*supports):
        fns = [c[0] for c in combo]
        prob = math.prod([c[1] for c in combo], start=Fraction(1))
        anchors = [fn.apply(x) for fn, x in zip(fns, p0)]
        if any(g != p0 and all(fn.apply(g[j]) == anchors[j] for j, fn in enumerate(fns))
               for g in G):
            lhs += prob
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
    T = [tuple(tuple(x) for x in t) for t in T]
    if not T:
        raise EnsembleError("saturation bound needs a nonempty target set")
    supports = supports if supports is not None else [e.enumerate_support() for e in es]
    syn = [list(e.syndromes()) for e in es]
    p_syn = Fraction(1, math.prod(len(s) for s in syn))
    lhs = Fraction(0)
    for combo in itertools.product(*supports):
        fns = [c[0] for c in combo]
        prob = math.prod([c[1] for c in combo], start=Fraction(1))
        hit = {tuple(fn.apply(t[j]) for j, fn in enumerate(fns)) for t in T}
        missed = sum(1 for a in itertools.product(*syn) if a not in hit)
        lhs += prob * p_syn * missed
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
    u = tuple(u)
    support = support if support is not None else e.enumerate_support()
    syndromes = list(e.syndromes())
    p_syn = Fraction(1, len(syndromes))
    expected = Fraction(1, e.image_size)
    per_fn_ok = True
    avg = Fraction(0)
    for fn, p in support:
        hu = fn.apply(u)
        ev = p_syn * sum(1 for a in syndromes if a == hu)
        per_fn_ok = per_fn_ok and ev == expected
        avg += p * ev
    return {"holds": per_fn_ok and avg == expected, "lhs": avg, "rhs": expected}


def verify_bound(lemma: str, *args, **kwargs) -> dict:
    dispatch: dict[str, Callable] = {
        "whash": bound_whash,
        "crp": bound_crp,
        "sp": bound_sp,
        # the two-domain lemmas are the k = 2 cases of the k-domain ones
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
