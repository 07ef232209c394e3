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
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import FieldMatrix, coset_factor_batch, coset_size, enumerate_image, in_image
from .mc import McEstimate, distinct_rows, inverse_cdf, run_blocks, stream
from .types import (
    CondDistribution,
    Distribution,
    entropy,
    first_best,
    product_best,
    product_divergences,
    product_log_masses,
    product_valid,
    row_groups,
)

DEFAULT_CAP = 1 << 20
MARGIN_GRID = 32  # bc_feasible_params tries the margins s_max * i / MARGIN_GRID


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

    def check_code(self, code: "BcCode") -> None:
        if code.k != self.k:
            raise BcError(f"the code has {code.k} receivers, the problem {self.k}")

    @cached_property
    def joint(self) -> Distribution:
        """The exact joint law over (U_1..U_k, X, Y_1..Y_k): each cell is
        (mu_U(u) P(x|u)) mu(y|x)."""
        nx = self.channel.table.shape[-1]
        px = np.eye(nx)[self.f] if self.deterministic else self.f  # (..., |X|)
        weights = self.mu_u.table[..., None] * px
        ydims = self.channel.table.ndim - 1
        channel = np.moveaxis(self.channel.table, -1, 0)  # (|X|, |Y_1|, ..., |Y_k|)
        # C order, so marginal sums add in the same order whatever the views
        return Distribution(np.ascontiguousarray(
            weights.reshape(weights.shape + (1,) * ydims) * channel))

    def _receiver_pairs(self) -> list[Distribution]:
        """The (U_j, Y_j) marginal per receiver."""
        return [self.joint.marginal((j, self.k + 1 + j)) for j in range(self.k)]

    @cached_property
    def receiver_conditionals(self) -> tuple[np.ndarray, ...]:
        """mu_{U_j | Y_j} per receiver as a (|U_j|, |Y_j|) table."""
        return tuple(pair.conditional((0,), (1,)).table for pair in self._receiver_pairs())

    @cached_property
    def entropies(self) -> dict:
        """The entropies of the joint law the rate checks use: ``"U_J"`` maps
        every nonempty J to H(U_J); ``"cond"`` holds H(U_j | Y_j) and
        ``"info"`` I(U_j; Y_j) per receiver."""
        k = self.k
        h_u = {J: entropy(self.joint.marginal(J))
               for r in range(1, k + 1) for J in itertools.combinations(range(k), r)}
        pairs = self._receiver_pairs()
        h_y = [entropy(pair.marginal((1,))) for pair in pairs]
        h_uy = [entropy(pair) for pair in pairs]
        return {"U_J": h_u,
                "cond": tuple(h_uy[j] - h_y[j] for j in range(k)),
                "info": tuple(h_u[(j,)] + h_y[j] - h_uy[j] for j in range(k))}


def bc_rate_region(p: BcProblem, rates) -> dict:
    """Strict subset constraints sum_{j in J} R_j < sum I(U_j;Y_j) -
    [sum H(U_j) - H(U_J)], with per-constraint slack."""
    rates = tuple(rates)
    k = p.k
    if len(rates) != k:
        raise BcError("one rate per receiver is required")
    h_u, i_uy = p.entropies["U_J"], p.entropies["info"]
    checks = []
    for r in range(1, k + 1):
        for J in itertools.combinations(range(k), r):
            bound = sum(i_uy[j] for j in J) - (sum(h_u[(j,)] for j in J) - h_u[J])
            lhs = sum(rates[j] for j in J)
            checks.append({"J": J, "rate_sum": lhs, "bound": bound,
                           "slack": bound - lhs, "holds": bound - lhs > 0})
    return {"inside": all(c["holds"] for c in checks), "constraints": checks}


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
    h_u, h_cond = p.entropies["U_J"], p.entropies["cond"]
    h_uk = h_u[tuple(range(k))]
    checks = []
    for j, (r, R) in enumerate(params.pairs):
        checks.append(("r_gt_cond_entropy", j, r > h_cond[j]))
        checks.append(("sum_lt_entropy", j, r + R < h_u[(j,)] - params.eps))
    total = sum(r + R for r, R in params.pairs)
    lower_margin = (k + 1) * params.eps if params.relaxed else params.eps
    checks.append(("total_upper", None, total < h_uk))
    checks.append(("total_lower", None, total > h_uk - lower_margin))
    return {"holds": all(c[2] for c in checks), "checks": checks,
            "relaxed": params.relaxed}


def bc_feasible_params(p: BcProblem, rates) -> RateParams | None:
    """Search r_j = H(U_j|Y_j) + s over a margin grid, deriving eps from the
    remaining slack; returns the first tuple passing every inequality."""
    rates = tuple(rates)
    if not bc_rate_region(p, rates)["inside"]:
        return None
    k = p.k
    h_u, h_cond = p.entropies["U_J"], p.entropies["cond"]
    gaps = [i_uy - rate for i_uy, rate in zip(p.entropies["info"], rates)]
    h_uk = h_u[tuple(range(k))]
    corr = sum(h_u[(j,)] for j in range(k)) - h_uk  # total correlation of the auxiliary law
    s_max = min(min(gaps), (sum(gaps) - corr) / k)
    if s_max <= 0:
        return None
    for relaxed in (False, True):
        for frac in range(1, MARGIN_GRID):
            s = s_max * frac / MARGIN_GRID
            total = sum(h_cond) + k * s + sum(rates)
            gap_lower = h_uk - total  # how far the sum sits below H(U_K)
            eps_lo = max(0.0, gap_lower / (k + 1) if relaxed else gap_lower)
            eps_hi = min(g - s for g in gaps)
            if eps_lo >= eps_hi:
                continue
            eps = (eps_lo + eps_hi) / 2  # > 0, as 0 <= eps_lo < eps_hi
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
        if not self.pairs or len(self.syndromes) != len(self.pairs):
            raise BcError("a code needs at least one receiver, and one syndrome per receiver")
        n = self.pairs[0][0].cols
        for (a_m, ap_m), a in zip(self.pairs, self.syndromes):
            if a_m.cols != n or ap_m.cols != n or a_m.q != ap_m.q:
                raise BcError("receiver matrices must share n and the field")
            if len(a) != a_m.rows:
                raise BcError("syndrome length mismatch")
            if not in_image(a_m, a):
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


def bc_select_batch(code: BcCode, p: BcProblem, messages,
                    cap: int = DEFAULT_CAP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minimum-divergence u_K over the product of coset intersections
    C_{A_j}(a_j) cap C_{A'_j}(m_j) cap U_j^n, and its divergence, for D
    message tuples at once; ``messages[j]`` is a (D, rows of A'_j) array.
    The symbol map plays no part.  Returns ``(u, failure, divergence)``: u
    is (D, k, n), with -1 on the rows whose coset intersections are not all
    inhabited (failure), where the divergence is inf."""
    p.check_code(code)
    if len(messages) != code.k:
        raise BcError("one message per receiver is required")
    messages = [np.asarray(m, dtype=np.int64) for m in messages]
    rows = len(messages[0])
    systems = [np.concatenate([np.broadcast_to(np.asarray(a, dtype=np.int64), (rows, len(a))),
                               m], axis=1)
               for a, m in zip(code.syndromes, messages)]
    u = np.full((rows, code.k, code.n), -1, dtype=np.int64)
    failure = np.ones(rows, dtype=bool)
    divergence = np.full(rows, math.inf)
    per_row = math.prod(coset_size(m) for m in code.stacked)
    for sl in row_groups(rows, per_row):
        found = coset_factor_batch(code.stacked, [s[sl] for s in systems], cap, BcError,
                                   p.mu_u.shape)
        if found is None:
            continue
        factors, kept = found
        best, d, failed = product_best(factors, product_divergences(factors, p.mu_u.table),
                                       product_valid(kept))
        u[sl] = np.where(failed[:, None, None], -1, best)
        failure[sl] = failed
        divergence[sl] = np.where(failed, math.inf, d)
    return u, failure, divergence


def bc_encode(code: BcCode, p: BcProblem, messages,
              rng: np.random.Generator | None = None,
              cap: int = DEFAULT_CAP) -> BcEncodeResult:
    """The one-row case of ``bc_select_batch``, then the symbol map applied
    per position; a stochastic map draws each x_i from f[u_i] by inverse CDF
    of one ``rng.random(n)``.  An empty intersection gives a failure with
    no u_K or x and divergence inf."""
    if not p.deterministic and rng is None:
        raise BcError("a stochastic symbol map needs an rng")
    u, failure, divergence = bc_select_batch(code, p, [[tuple(m)] for m in messages], cap)
    if failure[0]:
        return BcEncodeResult(None, None, True, math.inf)
    f_u = p.f[tuple(u[0])]
    x = f_u if p.deterministic else inverse_cdf(f_u, rng.random(code.n))
    return BcEncodeResult(u_K=tuple(map(tuple, u[0].tolist())), x=tuple(x.tolist()),
                          failure=False, divergence=float(divergence[0]))


def bc_decode_batch(code: BcCode, p: BcProblem, j: int, ys,
                    variant: str = "ml", cap: int = DEFAULT_CAP) -> np.ndarray:
    """``bc_decode`` for D outputs of receiver j at once: ``ys`` is (D, n),
    and row d of the (D, rows of A'_j) result is the estimate for ys[d].

    The shared coset is built once. md scores every row against the one
    table mu_{U_j|Y_j}: D(nu_{u|y} || mu_{U_j|Y_j} | nu_y) is that score
    plus H(nu_y), which is the same for every candidate of a row.
    """
    p.check_code(code)
    if variant not in ("ml", "md"):
        raise BcError(f"unknown decoder variant {variant!r}")
    a_m, ap_m = code.pairs[j]
    found = coset_factor_batch([a_m], [[code.syndromes[j]]], cap, BcError, p.mu_u.shape[j:j + 1])
    if found is None:
        raise BcError("no member of the shared coset inside U_j^n")
    members = found[0][0]
    cond = p.receiver_conditionals[j]
    ys = np.asarray(ys, dtype=np.int64)
    winners = np.empty(len(ys), dtype=np.intp)
    for sl in row_groups(len(ys), members.shape[1]):
        candidates = [members, ys[sl, None, :]]
        winners[sl] = first_best(product_divergences(candidates, cond) if variant == "md"
                                 else -product_log_masses(candidates, cond))
    return members[0, winners] @ ap_m.dense.T % ap_m.q


def bc_decode(code: BcCode, p: BcProblem, j: int, y,
              variant: str = "ml", cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Receiver j's estimate: pick the coset member maximizing the memoryless
    posterior (ml) or minimizing the conditional divergence (md), then report
    its image under A'_j. Members outside U_j^n are not candidates. The
    one-row case of ``bc_decode_batch``."""
    return tuple(bc_decode_batch(code, p, j, [tuple(y)], variant, cap)[0].tolist())


def bc_error_exact(code: BcCode, p: BcProblem, variant: str = "ml",
                   cap: int = DEFAULT_CAP) -> float:
    """Exact error under uniform messages: mass of (m_K, y_K) where any
    receiver misdecodes; encoder failures count with full mass. Each y_j in
    Y_j^n is decoded once, into a table of message indices; the success mass
    of a message tuple is one contraction of the hit indicators [dec_j = m_j]
    with the channel slices W(.|x_i), on a path found once. ``cap`` bounds the
    decode tables' entries plus those of the contraction's largest operand,
    checked before either is built."""
    if not p.deterministic:
        raise BcError("exact evaluation needs a deterministic symbol map")
    p.check_code(code)
    k, n = code.k, code.n
    axes = string.ascii_letters  # label j*n + i is position i of y_j
    if k * n > len(axes):
        raise BcError(f"{k} receivers at n = {n} need {k * n} einsum labels; numpy has 52")
    yshape = p.channel.table.shape[:-1]
    tables = [size ** n for size in yshape]
    room = cap - sum(tables)  # left for the contraction's largest operand
    if room < max(tables + [math.prod(yshape)]):
        raise BcError(f"decode tables and contraction exceed cap {cap}")
    subscripts = ",".join([axes[j * n:j * n + n] for j in range(k)] +
                          [axes[i:k * n:n] for i in range(n)]) + "->"
    shapes = [(size,) * n for size in yshape] + [yshape] * n
    path = np.einsum_path(subscripts, *(np.broadcast_to(0.0, s) for s in shapes),
                          optimize=("greedy", room))[0]
    spaces = [code.message_space(j) for j in range(k)]
    index = [{m: i for i, m in enumerate(space)} for space in spaces]
    dec = []
    for j in range(k):
        # every y_j in lexicographic order, decoded in one batch
        ys = np.indices(shapes[j]).reshape(n, -1).T
        msgs = bc_decode_batch(code, p, j, ys, variant, cap)
        first, inverse = distinct_rows(msgs, [code.pairs[j][1].q] * msgs.shape[1])
        indices = np.array([index[j][m] for m in map(tuple, msgs[first].tolist())])
        dec.append(indices[inverse].reshape(shapes[j]))
    tuples = np.indices([len(s) for s in spaces]).reshape(k, -1)
    u, failure, _ = bc_select_batch(
        code, p, [np.array(space, dtype=np.int64)[i] for space, i in zip(spaces, tuples)], cap)
    success = 0.0
    for m, u_m, failed in zip(tuples.T.tolist(), u, failure):
        if not failed:
            success += np.einsum(subscripts, *(table == i for table, i in zip(dec, m)),
                                 *(p.channel.table[..., x] for x in p.f[tuple(u_m)]),
                                 optimize=path)
    return min(1.0, max(0.0, 1.0 - float(success) / math.prod(len(s) for s in spaces)))


def bc_error_mc(code: BcCode, p: BcProblem, trials: int = 1000, seed: int = 0,
                variant: str = "ml", cap: int = DEFAULT_CAP) -> McEstimate:
    """Monte Carlo error estimate: uniform messages, symbolwise channel.

    A block of ``size`` trials (see ``hashprop.mc``) draws the message
    indices by ``rng.integers``, one receiver at a time; then, for a
    stochastic map, the (size, n) inputs by inverse CDF of f[u]; then the
    (size, n) outputs by inverse CDF of each input's channel column. The
    block's distinct message tuples are encoded by one ``bc_select_batch``
    call, and its distinct y_j by one ``bc_decode_batch`` call per
    receiver. An encoder failure counts as an error."""
    if trials < 1:
        raise BcError("trials must be >= 1")
    spaces = [np.array(code.message_space(j), dtype=np.int64) for j in range(code.k)]
    yshape = p.channel.table.shape[:-1]
    columns = p.channel.table.reshape(-1, p.channel.table.shape[-1]).T  # (|X|, |Y_K|)

    def block_errors(rng, size):
        m = np.stack([rng.integers(0, len(space), size=size) for space in spaces], axis=1)
        first, inverse = distinct_rows(m, [len(space) for space in spaces])
        u, failure, _ = bc_select_batch(
            code, p, [space[m[first, j]] for j, space in enumerate(spaces)], cap)
        bad = failure[inverse]
        u = tuple(np.maximum(u[inverse], 0).transpose(1, 0, 2))  # failed rows: any symbol
        x = p.f[u] if p.deterministic else inverse_cdf(p.f[u], rng.random((size, code.n)))
        y = np.unravel_index(inverse_cdf(columns[x], rng.random((size, code.n))), yshape)
        for j, space in enumerate(spaces):
            first, inverse = distinct_rows(y[j], [yshape[j]] * code.n)
            decoded = bc_decode_batch(code, p, j, y[j][first], variant, cap)
            bad |= (decoded[inverse] != space[m[:, j]]).any(axis=1)
        return bad.sum()

    return run_blocks(seed, trials, block_errors)


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
    if any(n <= 0 for n in n_values):
        raise BcError("block lengths n must be positive")
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
    rng = stream(seed)
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
    return {"code": best[0], "error": best[1], "tries": len(history),
            "history": history, "requested_rates": params.pairs,
            "realized_rates": best[0].rates()}
