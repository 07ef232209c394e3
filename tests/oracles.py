"""Brute-force oracles for the tests, written apart from the library.

Plain Python over itertools, fractions, math and numpy.  This module never
imports hashprop (``test_oracles.py`` checks it) and calls none of its
functions or methods: it reads only the data fields of the objects a test
hands it, namely a matrix's q, rows, cols and entries, a law's table, a
code's matrices, mu, pairs and syndromes, a broadcast problem's channel, mu_u
and f, and an ensemble's family, q, l, n, bins and parts.

Candidates come in lexicographic order, and every decision takes the first
candidate whose score is within ``TIE_TOL`` of the optimum.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

TIE_TOL = 1e-12


# --- GF(q) checks ------------------------------------------------------------


def dense(m) -> np.ndarray:
    """A matrix as a dense int64 array, from its (row, col, value) entries."""
    out = np.zeros((m.rows, m.cols), dtype=np.int64)
    for r, c, v in m.entries:
        out[r, c] = v
    return out


def words(size: int, n: int) -> np.ndarray:
    """Every word of {0..size-1}^n, one per row, in lexicographic order."""
    return np.indices((size,) * n, dtype=np.int64).reshape(n, -1).T


def syndromes(check: np.ndarray, q: int, rows: np.ndarray) -> list[tuple[int, ...]]:
    """check @ row over GF(q) for each row, as tuples."""
    return list(map(tuple, (np.asarray(rows) @ np.asarray(check).T % q).tolist()))


def coset(check: np.ndarray, q: int, syndrome, size: int | None = None) -> list[tuple[int, ...]]:
    """Every word w of {0..size-1}^n (of GF(q)^n by default) with check w =
    syndrome over GF(q), in lexicographic order."""
    w = words(q if size is None else size, np.shape(check)[1])
    keep = (w @ np.asarray(check).T % q == np.asarray(syndrome, dtype=np.int64)).all(axis=1)
    return list(map(tuple, w[keep].tolist()))


def image(check: np.ndarray, q: int) -> list[tuple[int, ...]]:
    """The image of the check: every syndrome check u over u in GF(q)^n, sorted."""
    return sorted(set(syndromes(check, q, words(q, np.shape(check)[1]))))


# --- joint types -------------------------------------------------------------


def counts(cand, shape) -> list[int]:
    """The joint type of a tuple of sequences: the count of each cell of
    ``shape``, cells in row-major order."""
    seen = Counter(zip(*cand))
    return [seen[cell] for cell in itertools.product(*map(range, shape))]


def divergence(cand, table: np.ndarray) -> float:
    """D(joint type of cand || table) in bits, from explicit counts: cells
    in row-major order, added from 0.0; inf when the type charges a cell of
    zero mass."""
    n, d = len(cand[0]), 0.0
    for c, m in zip(counts(cand, table.shape), np.ravel(table).tolist()):
        if c:
            d = math.inf if m == 0 else d + c / n * math.log2(c / n / m)
    return d


def log2_mass(cand, table: np.ndarray) -> float:
    """sum over cells of count * log2(mass), cells in row-major order, from 0.0."""
    total = 0.0
    for c, m in zip(counts(cand, table.shape), np.ravel(table).tolist()):
        if c:
            total += c * math.log2(m) if m > 0 else -math.inf
    return total


def exact_log2(mass: Fraction) -> float:
    """log2 of an exact mass, -inf for zero."""
    return math.log2(mass.numerator) - math.log2(mass.denominator) if mass else -math.inf


def compositions(n: int, parts: int):
    """Every count vector of ``parts`` nonnegative integers summing to n,
    the length-n types over ``parts`` cells, in lexicographic order: the
    first count runs up from 0, and for each the rest recurse."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in compositions(n - head, parts - 1):
            yield (head,) + tail


def multinomial(t) -> int:
    """The size of the type class of the count vector t: the number of
    sequences of length sum(t) with t[c] copies of each symbol c,
    n! / prod_c t[c]!."""
    size = math.factorial(sum(t))
    for c in t:
        size //= math.factorial(c)
    return size


def marginal(table: np.ndarray, axis: int) -> np.ndarray:
    """The law of one axis of table: the sum over every other axis."""
    return np.array([np.take(table, a, axis=axis).sum() for a in range(table.shape[axis])])


# --- decisions ---------------------------------------------------------------


def first_min(scores) -> int:
    """The first index whose score is within TIE_TOL of the minimum."""
    best = min(scores)
    return next(i for i, s in enumerate(scores) if s <= best + TIE_TOL)


def md_decode(sides, table: np.ndarray):
    """(winner, divergence) of the minimum-divergence tuple of the product of
    the candidate lists ``sides``, or None when a list is empty."""
    cands = list(itertools.product(*sides))
    if not cands:
        return None
    scores = [divergence(cand, table) for cand in cands]
    best = first_min(scores)
    return cands[best], scores[best]


def ml_ties(sides, table: np.ndarray, gamma: float | None = None) -> list:
    """The maximum-likelihood tuples of the product of the candidate lists
    ``sides``, in lexicographic order.  A tuple's mass multiplies the exact
    Fractions of its cells' masses, so tuples of one joint type tie exactly;
    a tuple ties when its log2-mass is within TIE_TOL of the best.  With
    ``gamma``, a tuple is admissible only when each source's type lies
    within divergence gamma (strictly) of its marginal.  Empty when no tuple
    is admissible."""
    if gamma is not None:
        laws = [marginal(table, j) for j in range(table.ndim)]
        sides = [[w for w in side if divergence((w,), law) < gamma] for side, law in zip(sides, laws)]
    cells, by_type, scored = np.ravel(table).tolist(), {}, []
    for cand in itertools.product(*sides):
        key = tuple(counts(cand, table.shape))
        if key not in by_type:  # one exact mass per joint type
            mass = math.prod((Fraction(m) ** c for c, m in zip(key, cells)), start=Fraction(1))
            by_type[key] = -exact_log2(mass)
        scored.append((by_type[key], cand))
    best = min((s for s, _ in scored), default=None)
    return [cand for s, cand in scored if s <= best + TIE_TOL]


# --- Slepian-Wolf ------------------------------------------------------------


def sw_sides(code, syn) -> list[list[tuple[int, ...]]]:
    """Each source's candidates: the coset of its syndrome inside its alphabet."""
    return [coset(dense(m), m.q, a, size)
            for m, a, size in zip(code.matrices, syn, code.mu.table.shape)]


def sw_decode(code, syn, decoder: str = "md", gamma: float = 0.0):
    """The decode of the syndrome tuple ``syn`` over ``sw_sides``: "md", "ml"
    (with per-source typicality) or "ml_unconstrained"; None when ML admits
    no tuple."""
    sides, table = sw_sides(code, syn), code.mu.table
    if decoder == "md":
        return md_decode(sides, table)[0]
    tied = ml_ties(sides, table, gamma if decoder == "ml" else None)
    return tied[0] if tied else None


def sw_error(code, decoder: str = "md", gamma: float = 0.0) -> tuple[float, int]:
    """(error, failures): the mass of the source tuples that decode wrongly,
    each syndrome tuple decoded once and a failed decode counting as wrong,
    and the number of tuples whose decode failed.  The wrong tuples are
    counted per joint type in integers; the error is one rounding of the
    exact sum over types of count * prod_c Fraction(mass_c) ** n_c."""
    table, n = code.mu.table, code.matrices[0].cols
    sources = []  # per source, (word, syndrome) over the alphabet's words
    for m, size in zip(code.matrices, table.shape):
        w = words(size, n)
        sources.append(list(zip(map(tuple, w.tolist()), syndromes(dense(m), m.q, w))))
    wrong, failures, decoded = Counter(), 0, {}
    for pairs in itertools.product(*sources):
        x_K, syn = tuple(w for w, _ in pairs), tuple(a for _, a in pairs)
        if syn not in decoded:
            decoded[syn] = sw_decode(code, syn, decoder, gamma)
        failures += decoded[syn] is None
        if decoded[syn] != x_K:
            wrong[tuple(counts(x_K, table.shape))] += 1
    cells = np.ravel(table).tolist()
    error = sum((count * math.prod((Fraction(m) ** c for c, m in zip(key, cells)), start=Fraction(1))
                 for key, count in wrong.items()), Fraction(0))
    return float(error), failures


# --- broadcast ---------------------------------------------------------------


def bc_conditional(p, j: int) -> np.ndarray:
    """mu_{U_j|Y_j} as a (|U_j|, |Y_j|) array, by direct summation of
    mu_U(u) P(x|u) W(y|x) over every (u, y, x); a y of zero mass gets the
    uniform column."""
    mu_u, channel, f = p.mu_u.table, p.channel.table, np.asarray(p.f)
    if np.issubdtype(f.dtype, np.integer):
        f = np.eye(channel.shape[-1])[f]  # P(x|u) of a deterministic map
    joint = np.zeros((mu_u.shape[j], channel.shape[j]))
    for u in itertools.product(*map(range, mu_u.shape)):
        for y in itertools.product(*map(range, channel.shape[:-1])):
            for x, w in enumerate(f[u].tolist()):
                joint[u[j], y[j]] += float(mu_u[u]) * w * float(channel[y + (x,)])
    col = joint.sum(axis=0)
    return np.where(col > 0, joint / np.where(col > 0, col, 1.0), 1 / len(joint))


def bc_members(code, p, j: int) -> list[tuple[int, ...]]:
    """Receiver j's candidates: the shared coset of a_j inside U_j^n."""
    a_m = code.pairs[j][0]
    return coset(dense(a_m), a_m.q, code.syndromes[j], p.mu_u.table.shape[j])


def bc_message(code, j: int, u) -> tuple[int, ...]:
    """A'_j u: the message that a member u of receiver j's coset carries."""
    ap_m = code.pairs[j][1]
    return syndromes(dense(ap_m), ap_m.q, [u])[0]


def bc_decoder(code, p, j: int, variant: str):
    """Receiver j's decoder, a function of its output tuple y that returns
    (the message of the member u it picks, whether every member scored
    infinite).  "ml" picks the member of largest exact posterior mass
    prod_i cond[u_i, y_i]; "md" the member of least conditional divergence
    sum_(u, v) c_uv/n log2((c_uv/n_v) / cond[u, v]), where cond is
    ``bc_conditional`` and c_uv counts the positions with (u_i, y_i) = (u, v)."""
    members, cond = bc_members(code, p, j), bc_conditional(p, j)

    @functools.cache
    def decode(y: tuple):
        if variant == "ml":
            u = ml_ties([members, [y]], cond)[0][0]
            return bc_message(code, j, u), log2_mass((u, y), cond) == -math.inf
        scores = []
        for u in members:
            d = 0.0
            for (us, v), c in sorted(Counter(zip(u, y)).items()):
                m = cond[us, v]
                d = math.inf if m == 0 else d + c / len(y) * math.log2(c / y.count(v) / m)
            scores.append(d)
        best = first_min(scores)
        return bc_message(code, j, members[best]), math.isinf(scores[best])
    return decode


def bc_encode(code, p, messages):
    """(u_K, divergence) of the minimum-divergence tuple from mu_U over the
    product of the coset intersections C(A_j, a_j) & C(A'_j, m_j) inside
    U_j^n, or None when one is empty."""
    sides = [coset(np.concatenate([dense(a_m), dense(ap_m)]), a_m.q, tuple(a) + tuple(m), size)
             for (a_m, ap_m), a, m, size in zip(code.pairs, code.syndromes, messages,
                                               p.mu_u.table.shape)]
    return md_decode(sides, p.mu_u.table)


def bc_error(code, p, variant: str) -> float:
    """Exact error under uniform messages and a deterministic symbol map, by
    enumeration of every message tuple and every output tuple; an encoder
    failure counts with the message tuple's full mass."""
    k, n = len(code.pairs), code.pairs[0][0].cols
    spaces = [image(dense(ap_m), ap_m.q) for _, ap_m in code.pairs]
    channel = p.channel.table
    y_tuples = list(itertools.product(*map(range, channel.shape[:-1])))
    decoders = [bc_decoder(code, p, j, variant) for j in range(k)]
    p_m = 1.0 / math.prod(len(s) for s in spaces)
    err = 0.0
    for m_K in itertools.product(*spaces):
        enc = bc_encode(code, p, m_K)
        if enc is None:
            err += p_m
            continue
        x = [int(p.f[u]) for u in zip(*enc[0])]
        for outs in itertools.product(y_tuples, repeat=n):
            prob = math.prod(float(channel[y + (xi,)]) for y, xi in zip(outs, x))
            if prob == 0.0:
                continue
            if any(decode(tuple(y[j] for y in outs))[0] != tuple(m_K[j])
                   for j, decode in enumerate(decoders)):
                err += p_m * prob
    return err


# --- ensembles: one function at one point at a time --------------------------


def hash_value(e, fn, u):
    """fn's hash value at u: A u over GF(q), the bin of a bin-coding table
    (its bins in lexicographic domain order), or a product's pair."""
    if e.family == "binning":
        return fn[np.ravel_multi_index(u, (e.q,) * e.n)]
    if e.family == "product":
        return tuple(hash_value(part, f, u) for part, f in zip(e.parts, fn))
    out = [0] * fn.rows
    for r, c, v in fn.entries:
        out[r] += v * u[c]
    return tuple(x % e.q for x in out)


def hash_image(e) -> list:
    """Every hash value of the ensemble, in lexicographic order."""
    if e.family == "binning":
        return list(range(e.bins))
    if e.family == "product":
        return list(itertools.product(*map(hash_image, e.parts)))
    return list(itertools.product(range(e.q), repeat=e.l))


def _combos(supports):
    """(functions, probability) over the product of the supports."""
    for combo in itertools.product(*supports):
        yield [fn for fn, _ in combo], math.prod((p for _, p in combo), start=Fraction(1))


def crp(es, supports, G, p0) -> Fraction:
    """P(some g != p0 in G collides with p0 under every function)."""
    def hit(fns):
        return any(g != p0 and all(hash_value(e, f, x) == hash_value(e, f, y)
                                   for e, f, x, y in zip(es, fns, g, p0)) for g in set(G))
    return sum((p for fns, p in _combos(supports) if hit(fns)), Fraction(0))


def sp(es, supports, T) -> Fraction:
    """The expected fraction of joint hash values that no tuple of T maps to."""
    images = [hash_image(e) for e in es]

    def missed(fns):
        hits = {tuple(hash_value(e, f, x) for e, f, x in zip(es, fns, t)) for t in T}
        return sum(a not in hits for a in itertools.product(*images))
    total = sum((p * missed(fns) for fns, p in _combos(supports)), Fraction(0))
    return total / math.prod(map(len, images))


# --- Monte Carlo replays -----------------------------------------------------


def draw(p, u: float) -> int:
    """The first cell whose normalized cumulative mass exceeds u."""
    cum = list(itertools.accumulate(float(v) for v in np.ravel(p)))
    return next(i for i, c in enumerate(cum) if u < c / cum[-1])
