"""Broadcast-channel coding via coset intersections: joint-law assembly,
rate-region and parameter feasibility, the minimum-divergence encoder, the
per-receiver coset decoders, exact / Monte Carlo error, code search, and the
kappa-schedule rule.

Receiver j has a coset pair (A_j, A'_j): the shared syndrome a_j pins the
coset, the message m_j in Im A'_j selects the sub-coset, and the encoder
picks the candidate whose joint empirical type is divergence-closest to the
auxiliary law.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import FieldMatrix, coset_factors, enumerate_image, rank
from .mc import McEstimate, spawn_rngs
from .types import (
    CondDistribution,
    Distribution,
    cell_counts,
    cell_terms,
    entropy,
    product_divergences,
    product_member,
    product_scores,
)

DEFAULT_CAP = 1 << 20


class BcError(ValueError):
    """Inconsistent problem shapes, bad code parameters, or oversized search."""


@dataclass(frozen=True)
class BcProblem:
    """Channel mu_{Y_K|X}, auxiliary law mu_{U_K}, and the symbol map.

    channel.table has shape (|Y_1|, ..., |Y_k|, |X|) with the channel input
    as the trailing conditioning axis.  f is either an integer table of shape
    |U_1| x ... x |U_k| (deterministic map to X) or a stochastic table of
    shape (..., |X|) whose trailing axis is a distribution over X.
    """

    channel: CondDistribution
    mu_u: Distribution
    f: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.f)
        object.__setattr__(self, "f", f)
        ushape = self.mu_u.shape
        nx = self.channel.table.shape[-1]
        if self.deterministic:
            if f.shape != ushape:
                raise BcError("deterministic f must have one entry per u-tuple")
            if f.min() < 0 or f.max() >= nx:
                raise BcError("f values outside the channel input alphabet")
        else:
            if f.shape != ushape + (nx,):
                raise BcError("stochastic f must map u-tuples to X-distributions")
            if (f < 0).any() or np.abs(f.sum(axis=-1) - 1.0).max() > 1e-9:
                raise BcError("stochastic f rows must be distributions")

    @property
    def deterministic(self) -> bool:
        return np.issubdtype(np.asarray(self.f).dtype, np.integer)

    @property
    def k(self) -> int:
        return len(self.mu_u.shape)

    @cached_property
    def receiver_conditionals(self) -> tuple[np.ndarray, ...]:
        """mu_{U_j | Y_j} per receiver as a (|U_j|, |Y_j|) table, all from
        one assembly of the joint law."""
        joint = bc_build_joint(self)
        k = self.k
        return tuple(joint.marginal((j, k + 1 + j)).conditional((0,), (1,)).table
                     for j in range(k))

    def x_given_u(self, u: tuple) -> np.ndarray:
        nx = self.channel.table.shape[-1]
        if self.deterministic:
            out = np.zeros(nx)
            out[int(self.f[u])] = 1.0
            return out
        return self.f[u]


def bc_build_joint(p: BcProblem) -> Distribution:
    """The exact joint law over (U_1..U_k, X, Y_1..Y_k)."""
    ushape = p.mu_u.shape
    yshape = p.channel.table.shape[:-1]
    nx = p.channel.table.shape[-1]
    table = np.zeros(ushape + (nx,) + yshape)
    for u in itertools.product(*(range(s) for s in ushape)):
        px = p.x_given_u(u)
        for x in range(nx):
            if px[x] > 0:
                table[u + (x,)] = p.mu_u[u] * px[x] * p.channel.table[..., x]
    return Distribution(table)


def bc_rate_region(p: BcProblem, rates) -> dict:
    """Strict subset constraints sum_{j in J} R_j < sum I(U_j;Y_j) -
    [sum H(U_j) - H(U_J)], with per-constraint slack."""
    rates = tuple(rates)
    k = p.k
    if len(rates) != k:
        raise BcError("one rate per receiver is required")
    joint = bc_build_joint(p)
    h_u = [entropy(joint.marginal((j,))) for j in range(k)]
    i_uy = []
    for j in range(k):
        pair = joint.marginal((j, k + 1 + j))
        i_uy.append(h_u[j] + entropy(pair.marginal((1,))) - entropy(pair))
    checks = []
    inside = True
    for r in range(1, k + 1):
        for J in itertools.combinations(range(k), r):
            h_joint = entropy(joint.marginal(J))
            bound = sum(i_uy[j] for j in J) - (sum(h_u[j] for j in J) - h_joint)
            lhs = sum(rates[j] for j in J)
            slack = bound - lhs
            ok = slack > 0
            inside = inside and ok
            checks.append({"J": J, "rate_sum": lhs, "bound": bound,
                           "slack": slack, "holds": ok})
    return {"inside": inside, "constraints": checks}


@dataclass(frozen=True)
class RateParams:
    """Per-receiver (r_j, R_j) pairs plus the common margin eps > 0.

    relaxed marks the degenerate independent-auxiliary case: when the
    auxiliary laws share no mutual information, the per-receiver bounds
    r_j + R_j < H(U_j) - eps force the total below H(U_K) - k*eps, which
    contradicts the lower bound H(U_K) - eps for every eps > 0.  The lower
    bound is then checked with margin (k+1)*eps instead, the smallest
    integer multiple leaving a nonempty window."""

    pairs: tuple[tuple[float, float], ...]
    eps: float
    relaxed: bool = False

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise BcError("eps must be positive")


def bc_check_params(p: BcProblem, params: RateParams) -> dict:
    """Independent re-check of every feasibility inequality."""
    k = p.k
    joint = bc_build_joint(p)
    h_u = [entropy(joint.marginal((j,))) for j in range(k)]
    h_uk = entropy(joint.marginal(tuple(range(k))))
    checks = []
    for j, (r, R) in enumerate(params.pairs):
        pair = joint.marginal((j, k + 1 + j))
        h_cond = entropy(pair) - entropy(pair.marginal((1,)))
        checks.append(("r_gt_cond_entropy", j, r > h_cond))
        checks.append(("sum_lt_entropy", j, r + R < h_u[j] - params.eps))
    total = sum(r + R for r, R in params.pairs)
    lower_margin = (k + 1) * params.eps if params.relaxed else params.eps
    checks.append(("total_upper", None, total < h_uk))
    checks.append(("total_lower", None, total > h_uk - lower_margin))
    return {"holds": all(c[2] for c in checks), "checks": checks,
            "relaxed": params.relaxed}


def bc_feasible_params(p: BcProblem, rates, grid: int = 32) -> RateParams | None:
    """Search r_j = H(U_j|Y_j) + s over a margin grid, deriving eps from the
    remaining slack; returns the first tuple passing every inequality."""
    rates = tuple(rates)
    region = bc_rate_region(p, rates)
    if not region["inside"]:
        return None
    k = p.k
    joint = bc_build_joint(p)
    h_cond = []
    gaps = []
    for j in range(k):
        pair = joint.marginal((j, k + 1 + j))
        hc = entropy(pair) - entropy(pair.marginal((1,)))
        h_cond.append(hc)
        i_uy = entropy(joint.marginal((j,))) + entropy(pair.marginal((1,))) - entropy(pair)
        gaps.append(i_uy - rates[j])
    h_us = [entropy(joint.marginal((j,))) for j in range(k)]
    h_uk = entropy(joint.marginal(tuple(range(k))))
    corr = sum(h_us) - h_uk  # total correlation of the auxiliary law
    s_max = min(min(gaps), (sum(gaps) - corr) / k)
    if s_max <= 0:
        return None
    for relaxed in (False, True):
        for frac in range(1, grid):
            s = s_max * frac / grid
            total = sum(h_cond) + k * s + sum(rates)
            gap_lower = h_uk - total  # how far the sum sits below H(U_K)
            eps_lo = max(0.0, gap_lower / (k + 1) if relaxed else gap_lower)
            eps_hi = min(g - s for g in gaps)
            if eps_lo >= eps_hi:
                continue
            eps = (eps_lo + eps_hi) / 2
            if eps <= 0:
                continue
            params = RateParams(
                pairs=tuple((h_cond[j] + s, rates[j]) for j in range(k)),
                eps=eps, relaxed=relaxed,
            )
            if bc_check_params(p, params)["holds"]:
                return params
        if corr > 1e-9:
            # only the independent-auxiliary degenerate case may relax
            break
    return None


@dataclass(frozen=True)
class BcCode:
    """Per-receiver (A_j, A'_j) matrix pairs and shared syndromes a_j."""

    pairs: tuple[tuple[FieldMatrix, FieldMatrix], ...]
    syndromes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.pairs[0][0].cols
        for (a_m, ap_m), a in zip(self.pairs, self.syndromes):
            if a_m.cols != n or ap_m.cols != n or a_m.q != ap_m.q:
                raise BcError("receiver matrices must share n and the field")
            if len(a) != a_m.rows:
                raise BcError("syndrome length mismatch")
            stacked = a_m.to_dense()
            aug = np.concatenate([stacked, np.array([a], dtype=np.int64).T], axis=1)
            if rank(FieldMatrix.from_dense(a_m.q, aug)) != rank(a_m):
                raise BcError("shared syndrome outside Im A_j")

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def n(self) -> int:
        return self.pairs[0][0].cols

    def rates(self) -> tuple[tuple[float, float], ...]:
        n = self.n
        return tuple(
            (a.rows * math.log2(a.q) / n, ap.rows * math.log2(ap.q) / n)
            for a, ap in self.pairs
        )

    def message_space(self, j: int) -> list[tuple[int, ...]]:
        return enumerate_image(self.pairs[j][1])

    @cached_property
    def stacked(self) -> tuple[FieldMatrix, ...]:
        """(A_j; A'_j) per receiver: the coset-intersection systems."""
        return tuple(a_m.stack(ap_m) for a_m, ap_m in self.pairs)


@dataclass(frozen=True)
class BcEncodeResult:
    u_K: tuple | None
    x: tuple[int, ...] | None
    failure: bool
    divergence: float


def bc_encode(code: BcCode, p: BcProblem, messages,
              rng: np.random.Generator | None = None,
              cap: int = DEFAULT_CAP) -> BcEncodeResult:
    """Minimum-divergence selection over the product of coset intersections
    C_{A_j}(a_j) cap C_{A'_j}(m_j), then the symbol map applied per position."""
    if len(messages) != code.k:
        raise BcError("one message per receiver is required")
    systems = [tuple(a) + tuple(m) for a, m in zip(code.syndromes, messages)]
    factors = coset_factors(code.stacked, systems, cap, BcError)
    if factors is None:
        return BcEncodeResult(None, None, True, math.inf)
    d = product_divergences(factors, p.mu_u)
    winner = int(np.argmin(d))  # the first strict minimum
    best = product_member(factors, winner)
    if p.deterministic:
        x = tuple(int(p.f[symbols]) for symbols in zip(*best))
    else:
        if rng is None:
            raise BcError("a stochastic symbol map needs an rng")
        x = tuple(
            int(rng.choice(p.channel.table.shape[-1], p=p.f[symbols]))
            for symbols in zip(*best)
        )
    return BcEncodeResult(u_K=best, x=x, failure=False, divergence=float(d[winner]))


def bc_decode(code: BcCode, p: BcProblem, j: int, y,
              variant: str = "ml", cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Receiver j's estimate: pick the coset member maximizing the memoryless
    posterior (ml) or minimizing the conditional divergence (md), then report
    its image under A'_j."""
    a_m, ap_m = code.pairs[j]
    factors = coset_factors([a_m], [code.syndromes[j]], cap, BcError)
    if factors is None:
        raise BcError("empty shared coset")
    cond = p.receiver_conditionals[j]
    usize, ysize = cond.shape
    y = np.array([int(v) for v in y], dtype=np.int64)
    n = len(y)
    if variant == "ml":
        log_cond = np.array([math.log2(pv) if pv > 0 else -math.inf
                             for pv in cond.reshape(-1).tolist()])

        def score(cells):
            # log-posteriors summed position by position
            out = np.zeros(len(cells))
            for i in range(n):
                out += log_cond[cells[:, i]]
            return out

        # the first maximum; members[0] when every score is -inf
        winner = int(np.argmax(product_scores([factors[0], y[None]], cond.shape, score)))
    elif variant == "md":
        # D(nu_{u|y} || mu_{U_j|Y_j} | nu_y): context v's column of the joint
        # type is normalized by n_v, the same for every candidate
        n_y = np.bincount(y, minlength=ysize)
        nu_y = n_y / n

        def score(cells):
            counts = cell_counts(cells, usize * ysize)
            out = np.zeros(len(cells))
            for v in np.flatnonzero(n_y).tolist():
                d_v = np.zeros(len(cells))
                for u in range(usize):
                    d_v += cell_terms(float(cond[u, v]), int(n_y[v]))[counts[:, u * ysize + v]]
                out += nu_y[v] * d_v
            return out

        winner = int(np.argmin(product_scores([factors[0], y[None]], cond.shape, score)))
    else:
        raise BcError(f"unknown decoder variant {variant!r}")
    return ap_m.matvec(tuple(factors[0][winner].tolist()))


def _channel_support(p: BcProblem):
    """Per channel input x: the positive-probability output tuples."""
    yshape = p.channel.table.shape[:-1]
    nx = p.channel.table.shape[-1]
    out = []
    for x in range(nx):
        rows = []
        for y in itertools.product(*(range(s) for s in yshape)):
            pr = float(p.channel.table[y + (x,)])
            if pr > 0:
                rows.append((y, pr))
        out.append(rows)
    return out


def bc_error_exact(code: BcCode, p: BcProblem, variant: str = "ml",
                   cap: int = DEFAULT_CAP) -> float:
    """Exact error under uniform messages: mass of (m_K, y_K) where any
    receiver misdecodes; encoder failures count with full mass."""
    if not p.deterministic:
        raise BcError("exact evaluation needs a deterministic symbol map")
    k = code.k
    spaces = [code.message_space(j) for j in range(k)]
    support = _channel_support(p)
    n = code.n
    p_m = 1.0 / math.prod(len(s) for s in spaces)
    decode_cache: dict = {}

    def decode(j, yj) -> tuple[int, ...]:
        key = (j, yj)
        if key not in decode_cache:
            decode_cache[key] = bc_decode(code, p, j, yj, variant=variant, cap=cap)
        return decode_cache[key]

    success = 0.0
    for m_K in itertools.product(*spaces):
        enc = bc_encode(code, p, m_K, cap=cap)
        if enc.failure:
            continue
        per_pos = [support[x] for x in enc.x]
        total_outputs = math.prod(len(s) for s in per_pos)
        if total_outputs > cap:
            raise BcError("output space exceeds cap")
        for outs in itertools.product(*per_pos):
            prob = math.prod(pr for _, pr in outs)
            y_K = tuple(
                tuple(outs[i][0][j] for i in range(n)) for j in range(k)
            )
            if all(decode(j, y_K[j]) == tuple(m_K[j]) for j in range(k)):
                success += p_m * prob
    return min(1.0, max(0.0, 1.0 - success))


def bc_error_mc(code: BcCode, p: BcProblem, trials: int = 1000, seed: int = 0,
                variant: str = "ml", cap: int = DEFAULT_CAP) -> McEstimate:
    """Monte Carlo error estimate: uniform messages, symbolwise channel."""
    if trials < 1:
        raise BcError("trials must be >= 1")
    k = code.k
    spaces = [code.message_space(j) for j in range(k)]
    flat_channel = p.channel.table.reshape(-1, p.channel.table.shape[-1])
    yshape = p.channel.table.shape[:-1]
    decode_cache: dict = {}
    encode_cache: dict = {}
    errors = 0
    for rng in spawn_rngs(seed, trials):
        m_K = tuple(spaces[j][int(rng.integers(0, len(spaces[j])))] for j in range(k))
        if p.deterministic:
            # the encoder is deterministic in the message, so memoize it
            if m_K not in encode_cache:
                encode_cache[m_K] = bc_encode(code, p, m_K, cap=cap)
            enc = encode_cache[m_K]
        else:
            enc = bc_encode(code, p, m_K, rng=rng, cap=cap)
        if enc.failure:
            errors += 1
            continue
        flat_idx = [
            int(rng.choice(flat_channel.shape[0], p=flat_channel[:, x]))
            for x in enc.x
        ]
        ys = np.array([np.unravel_index(i, yshape) for i in flat_idx])
        ok = True
        for j in range(k):
            yj = tuple(int(v) for v in ys[:, j])
            key = (j, yj)
            if key not in decode_cache:
                decode_cache[key] = bc_decode(code, p, j, yj, variant=variant, cap=cap)
            if decode_cache[key] != tuple(m_K[j]):
                ok = False
                break
        if not ok:
            errors += 1
    return McEstimate.from_counts(errors, trials)


# --- kappa schedule ---------------------------------------------------------


@dataclass(frozen=True)
class KappaSchedule:
    n_values: tuple[int, ...]
    kappa: tuple[float, ...]
    rule: str  # 'power' or 'inverse-sqrt-beta'
    checks: dict


def kappa_schedule(n_values, beta_sequences, xi: float) -> KappaSchedule:
    """kappa(n) = n^xi when beta vanishes faster than n^(-xi), else
    1/sqrt(beta(n)); the o(.) test is the numeric surrogate 'beta * n^xi is
    non-increasing and ends below min(1/2, half its start)'.

    The growth/vanishing invariants are themselves checked numerically over
    the supplied range and reported (a constant beta, say, is flagged)."""
    if xi <= 0:
        raise BcError("xi must be positive")
    n_values = tuple(int(n) for n in n_values)
    seqs = [tuple(float(b) for b in s) for s in beta_sequences]
    if not seqs or any(len(s) != len(n_values) for s in seqs):
        raise BcError("each beta sequence must align with the n range")
    if any(not 0 < b <= 1 for s in seqs for b in s):
        raise BcError("beta values must lie in (0, 1]")
    beta = [max(s[i] for s in seqs) for i in range(len(n_values))]
    test = [b * n ** xi for b, n in zip(beta, n_values)]
    small_o = all(test[i + 1] <= test[i] + 1e-12 for i in range(len(test) - 1)) \
        and test[-1] <= min(0.5, test[0] / 2)
    if small_o:
        rule = "power"
        kappa = [float(n) ** xi for n in n_values]
    else:
        rule = "inverse-sqrt-beta"
        kappa = [1.0 / math.sqrt(b) for b in beta]
    grows = all(kappa[i + 1] >= kappa[i] - 1e-12 for i in range(len(kappa) - 1)) \
        and kappa[-1] >= max(2.0, 2.0 * kappa[0])
    prod = [k * b for k, b in zip(kappa, beta)]
    vanishes = all(prod[i + 1] <= prod[i] + 1e-12 for i in range(len(prod) - 1)) \
        and prod[-1] <= min(0.5, prod[0] / 2)
    sub = [math.log2(k) / n if k > 0 else 0.0 for k, n in zip(kappa, n_values)]
    subexp = all(sub[i + 1] <= sub[i] + 1e-12 for i in range(len(sub) - 1)) \
        and (sub[0] <= 0 or sub[-1] <= sub[0] / 2 + 1e-12)
    checks = {"k1_grows": grows, "k2_product_vanishes": vanishes,
              "k3_subexponential": subexp}
    return KappaSchedule(n_values=n_values, kappa=tuple(kappa), rule=rule,
                         checks=checks)


# --- code search ------------------------------------------------------------


def rows_for_rate(rate: float, n: int, q: int) -> int:
    """Realized row count for a target rate (rounding half up)."""
    return max(0, math.floor(n * rate / math.log2(q) + 0.5))


def bc_code_search(p: BcProblem, params: RateParams, ensembles, tries: int,
                   seed: int, variant: str = "ml",
                   cap: int = DEFAULT_CAP) -> dict:
    """Random search over ensemble draws for the lowest-exact-error code.

    ensembles is one (ensemble for A_j, ensemble for A'_j) pair per receiver.
    Syndromes are sampled as A_j u with u uniform, i.e. uniformly on Im A_j.
    """
    if tries < 1:
        raise BcError("tries must be >= 1")
    if len(ensembles) != p.k or len(params.pairs) != p.k:
        raise BcError("one ensemble pair and one rate pair per receiver")
    rng = np.random.default_rng(seed)
    best = None
    history = []
    for t in range(tries):
        pairs = []
        syndromes = []
        for ens_a, ens_ap in ensembles:
            a_m = ens_a.sample(rng)
            ap_m = ens_ap.sample(rng)
            u = rng.integers(0, a_m.q, size=a_m.cols)
            syndromes.append(a_m.matvec(tuple(int(v) for v in u)))
            pairs.append((a_m, ap_m))
        code = BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))
        err = bc_error_exact(code, p, variant=variant, cap=cap)
        history.append(err)
        if best is None or err < best[1]:
            best = (code, err)
        if err == 0.0:
            break
    realized = best[0].rates()
    return {"code": best[0], "error": best[1], "tries": len(history),
            "history": history, "requested_rates": params.pairs,
            "realized_rates": realized}
