"""The four benchmark workloads: seeded inputs, the op pool, and the output
checks.

A workload's op pool is a whole number of *cycles*; a cycle is the fixed mix
of op kinds that places the median and the 90th percentile inside different
op classes.  Every input is derived from the workload seed; the program only
sees the files written here and each op's argv.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

DSBS_005 = np.array([[0.475, 0.025], [0.025, 0.475]])
SE_LIMIT = 5.0  # an MC estimate may sit this many standard errors from its reference


class CheckError(Exception):
    """An op's output is malformed or wrong."""


@dataclass
class OpSpec:
    argv: list[str]
    kind: str
    meta: dict = field(default_factory=dict)


# --- input generation ------------------------------------------------------


def sparse_binary(rng: np.random.Generator, rows: int, cols: int, tau: int = 2) -> np.ndarray:
    """A tau-draw sparse binary matrix: each column adds 1 at tau uniformly
    drawn rows (mod 2), drawing (row, value) per step as ``Ensemble.sample``
    documents for its sparse family."""
    dense = np.zeros((rows, cols), dtype=np.int64)
    for i in range(cols):
        for _ in range(tau):
            j = int(rng.integers(0, rows))
            v = int(rng.integers(1, 2))
            dense[j, i] = (dense[j, i] + v) % 2
    return dense


def gf2_rank(mat: np.ndarray) -> int:
    m = np.array(mat, dtype=np.int64) % 2
    rank = 0
    for col in range(m.shape[1]):
        pivot = next((r for r in range(rank, m.shape[0]) if m[r, col]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(m.shape[0]):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def full_rank_matrix(rng, rows: int, cols: int, tau: int | None = None) -> np.ndarray:
    """Uniform (tau None) or tau-draw sparse binary matrix of full row rank.
    Tau must be odd for the sparse case: even-weight columns span at most
    rows - 1 dimensions."""
    while True:
        mat = (sparse_binary(rng, rows, cols, tau) if tau
               else rng.integers(0, 2, size=(rows, cols)))
        if gf2_rank(mat) == rows:
            return mat


def write_matrix(path: str, dense) -> str:
    dense = np.asarray(dense, dtype=np.int64)
    lines = [f"2 {dense.shape[0]} {dense.shape[1]}"]
    lines += [f"{r} {c} {int(dense[r, c])}" for r, c in zip(*np.nonzero(dense))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def write_dist(tmp: str, table) -> str:
    table = np.asarray(table, dtype=np.float64)
    return write_json(os.path.join(tmp, "dist.json"),
                      {"sizes": list(table.shape), "probs": table.reshape(-1).tolist()})


def noisy_split_channel(noise: float = 0.1) -> np.ndarray:
    """channel[y1, y2, x]: x = 2*u1 + u2 goes to (u1, u2), mixed with
    uniform noise of weight ``noise`` (the criterion-11 channel)."""
    table = np.zeros((2, 2, 4))
    for x in range(4):
        table[x >> 1, x & 1, x] = 1.0
    table = (1.0 - noise) * table + noise / 4
    return table / table.reshape(-1, 4).sum(axis=0)


SPLIT_F = np.array([[0, 1], [2, 3]], dtype=np.int64)
UNIFORM_U = np.full((2, 2), 0.25)


def write_bc(tmp: str, tag: str, pairs, syndromes) -> tuple[str, str]:
    """Problem (noisy split channel) and code JSON for a two-receiver code."""
    problem = write_json(os.path.join(tmp, f"{tag}_problem.json"), {
        "y_sizes": [2, 2], "x_size": 4,
        "channel": noisy_split_channel().reshape(-1).tolist(),
        "mu_u": {"sizes": [2, 2], "probs": UNIFORM_U.reshape(-1).tolist()},
        "f": SPLIT_F.reshape(-1).tolist(),
    })
    receivers = []
    for j, ((a, ap), syn) in enumerate(zip(pairs, syndromes)):
        receivers.append({
            "A": os.path.basename(write_matrix(os.path.join(tmp, f"{tag}_A{j}.txt"), a)),
            "A_prime": os.path.basename(write_matrix(os.path.join(tmp, f"{tag}_Ap{j}.txt"), ap)),
            "syndrome": [int(v) for v in syn],
        })
    code = write_json(os.path.join(tmp, f"{tag}_code.json"), {"receivers": receivers})
    return problem, code


def op_seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# --- output parsing shared by the MC workloads -----------------------------


def parse_json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}")
    if not isinstance(obj, dict):
        raise CheckError("output is not a JSON object")
    return obj


def parse_mc(spec: OpSpec, text: str) -> dict:
    obj = parse_json(text)
    try:
        err, (lo, hi), trials = float(obj["error"]), obj["ci"], int(obj["trials"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"MC output lacks error/ci/trials: {exc}")
    if trials != spec.meta["trials"]:
        raise CheckError(f"ran {trials} trials, asked for {spec.meta['trials']}")
    if not 0.0 <= lo <= err <= hi <= 1.0:
        raise CheckError(f"estimate {err} outside its interval [{lo}, {hi}] or [0, 1]")
    return {"error": err, "trials": trials}


def within_se(est: float, ref: float, trials: int) -> bool:
    se = math.sqrt(ref * (1.0 - ref) / trials)
    return abs(est - ref) <= SE_LIMIT * se


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    cycle_len = 1     # ops per cycle
    cycles = 1        # cycles per pool
    trace_cycles = 1  # cycles run by --trace 1

    def build(self, seed: int, tmp: str, tiny: bool) -> list[OpSpec]:
        raise NotImplementedError

    def parse(self, spec: OpSpec, text: str) -> dict:
        """Cheap output check, inside the timed region."""
        raise NotImplementedError

    def check(self, done: list[tuple[int, OpSpec, dict]]) -> dict[int, str]:
        """Reference checks after timing: ``done`` holds (op index, spec,
        parsed output) per passing op; returns failing op index -> reason."""
        return {}

    def warmup_ops(self, pool: list[OpSpec]) -> list[OpSpec]:
        """Ops run once during set-up: one per subcommand, from the first cycle."""
        first: dict[str, OpSpec] = {}
        for spec in pool[:self.cycle_len]:
            first.setdefault(spec.argv[0], spec)
        return list(first.values())


class SwExact(Workload):
    """``sweep sw --mode exact`` at one rate point per op over DSBS(0.05):
    five n = 8 ops (two codes each) then one n = 10 op (one code)."""

    name = "sw_exact"
    cycle_len = 6
    trace_cycles = 1
    cycles = 4

    def build(self, seed, tmp, tiny):
        rng = np.random.default_rng([seed, 1])
        dist = write_dist(tmp, DSBS_005)
        small, large = (4, 5) if tiny else (8, 10)
        plan = [(small, 0.625, 2), (small, 0.75, 2), (small, 0.625, 2),
                (small, 0.75, 2), (small, 0.625, 2), (large, 0.7, 1)]
        cycles = 1 if tiny else self.cycles
        seeds = op_seeds(rng, cycles * len(plan))
        ops = []
        for i, s in enumerate(seeds):
            n, rate, tries = plan[i % len(plan)]
            ops.append(OpSpec(
                argv=["sweep", "sw", "--dist", dist, "--rates", f"{rate}:{rate}:1",
                      "--n-list", str(n), "--tau", "2", "--tries", str(tries),
                      "--mode", "exact", "--seed", str(s)],
                kind=f"n={n}", meta={"n": n, "rate": rate, "tries": tries, "seed": s,
                                     "pool_index": i}))
        return ops

    def parse(self, spec, text):
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != 2 or rows[0] != ["R_X", "R_Y", "n", "error", "ci_lo", "ci_hi"]:
            raise CheckError(f"expected a header and one CSV row, got {len(rows)} rows")
        try:
            r_x, r_y, n, err, lo, hi = (float(v) for v in rows[1])
        except ValueError as exc:
            raise CheckError(f"non-numeric CSV field: {exc}")
        m = spec.meta
        if (r_x, r_y, int(n)) != (m["rate"], m["rate"], m["n"]):
            raise CheckError(f"row is for ({r_x}, {r_y}, {n}), not the requested point")
        if not (0.0 <= err <= 1.0 and lo == err == hi):
            raise CheckError(f"exact error {err} with interval [{lo}, {hi}]")
        return {"error": err}

    def check(self, done):
        bad = {}
        first: dict[int, float] = {}
        for idx, spec, out in done:
            p = spec.meta["pool_index"]
            if p in first and out["error"] != first[p]:
                bad[idx] = f"repeat of pool op {p} gave {out['error']}, first run {first[p]}"
            first.setdefault(p, out["error"])
        # the oracle checks a fixed sample: the first cycle of the pool
        sample = {spec.meta["pool_index"]: (idx, spec, out) for idx, spec, out in done
                  if spec.meta["pool_index"] < self.cycle_len}
        for idx, spec, out in sample.values():
            ref = sweep_oracle(spec.meta)
            if abs(out["error"] - ref) > 1e-9:
                bad[idx] = f"error {out['error']} but the oracle gives {ref}"
        return bad


def sweep_oracle(meta: dict) -> float:
    """Best-of-tries exact MD error, re-drawing the codes the way ``sweep``
    documents: one SeedSequence child per grid point, then (A, B) per try."""
    n, rate, tries = meta["n"], meta["rate"], meta["tries"]
    rows = max(0, math.floor(n * rate + 0.5))
    child = np.random.SeedSequence(meta["seed"]).spawn(1)[0]
    rng = np.random.default_rng(child)
    best = math.inf
    for _ in range(tries):
        a = sparse_binary(rng, rows, n)
        b = sparse_binary(rng, rows, n)
        best = min(best, oracles.sw_md_error(a, b, DSBS_005))
    return best


class McWorkload(Workload):
    """Cycles of two ``sw-sim --mode mc`` ops then one ``bc-sim --mode mc`` op,
    each with its own seed."""

    cycle_len = 3
    cycles = 10
    trace_cycles = 4
    WARMUP_TRIALS = 10

    def mc_ops(self, rng, tiny, sw_argv, bc_argv, sw_trials, bc_trials):
        cycles = 1 if tiny else self.cycles
        ops = []
        for i, s in enumerate(op_seeds(rng, cycles * self.cycle_len)):
            argv, kind, trials = ((sw_argv, "sw-sim", sw_trials) if i % self.cycle_len < 2
                                  else (bc_argv, "bc-sim", bc_trials))
            ops.append(OpSpec(argv + ["--trials", str(trials), "--seed", str(s)],
                              kind, {"trials": trials}))
        # warm-up runs each command briefly, so that set-up time does not
        # depend on the MC trial counts
        self.warm = [OpSpec(argv + ["--trials", str(self.WARMUP_TRIALS), "--seed", "0"], kind,
                            {"trials": self.WARMUP_TRIALS})
                     for argv, kind in ((sw_argv, "sw-sim"), (bc_argv, "bc-sim"))]
        return ops

    def warmup_ops(self, pool):
        return self.warm

    def parse(self, spec, text):
        return parse_mc(spec, text)


class McCalib(McWorkload):
    """MC on the criterion-11 codes: SW (n = 2) and BC (n = 2, noisy split
    channel).  Encode and decode caches hit on almost every trial."""

    name = "mc_calib"

    def build(self, seed, tmp, tiny):
        rng = np.random.default_rng([seed, 2])
        dist = write_dist(tmp, DSBS_005)
        self.sw_mats = (np.array([[1, 1]]), np.array([[1, 0]]))
        sw_x = write_matrix(os.path.join(tmp, "sw_x.txt"), self.sw_mats[0])
        sw_y = write_matrix(os.path.join(tmp, "sw_y.txt"), self.sw_mats[1])
        pair = (np.array([[1, 0]]), np.array([[1, 1]]))
        self.bc_code = ((pair, pair), ((0,), (0,)))
        problem, code = write_bc(tmp, "bc", *self.bc_code)
        trials = 200 if tiny else 2000
        return self.mc_ops(
            rng, tiny,
            ["sw-sim", "--dist", dist, "--matrix", f"x={sw_x}", "--matrix", f"y={sw_y}",
             "--mode", "mc"],
            ["bc-sim", "--problem", problem, "--code", code, "--mode", "mc"],
            trials, trials)

    def check(self, done):
        ref = {"sw-sim": oracles.sw_md_error(*self.sw_mats, DSBS_005),
               "bc-sim": oracles.bc_ml_error(noisy_split_channel(), UNIFORM_U, SPLIT_F,
                                             *self.bc_code)}
        return {idx: f"estimate {out['error']} is over {SE_LIMIT} SE from exact {ref[spec.kind]}"
                for idx, spec, out in done
                if not within_se(out["error"], ref[spec.kind], out["trials"])}


class McDecode(McWorkload):
    """MC where almost every trial decodes afresh: SW MD on a full-rank
    tau = 3 sparse n = 10, l = 7 code (a 64-candidate coset product) and BC
    md decoding on a random two-receiver n = 12 code."""

    name = "mc_decode"

    def build(self, seed, tmp, tiny):
        rng = np.random.default_rng([seed, 3])
        dist = write_dist(tmp, DSBS_005)
        n_sw, l_sw = (6, 4) if tiny else (10, 7)
        self.sw_mats = tuple(full_rank_matrix(rng, l_sw, n_sw, tau=3) for _ in range(2))
        sw_x = write_matrix(os.path.join(tmp, "sw_x.txt"), self.sw_mats[0])
        sw_y = write_matrix(os.path.join(tmp, "sw_y.txt"), self.sw_mats[1])
        n_bc, l_a, l_ap = (6, 3, 1) if tiny else (12, 7, 3)
        pairs, syndromes = [], []
        for _ in range(2):
            stacked = full_rank_matrix(rng, l_a + l_ap, n_bc)
            u = rng.integers(0, 2, size=n_bc)
            pairs.append((stacked[:l_a], stacked[l_a:]))
            syndromes.append(tuple(int(v) for v in stacked[:l_a] @ u % 2))
        problem, code = write_bc(tmp, "bc", pairs, syndromes)
        trials = 4 if tiny else 40
        return self.mc_ops(
            rng, tiny,
            ["sw-sim", "--dist", dist, "--matrix", f"x={sw_x}", "--matrix", f"y={sw_y}",
             "--mode", "mc"],
            ["bc-sim", "--problem", problem, "--code", code, "--mode", "mc", "--variant", "md"],
            trials, trials)

    def check(self, done):
        sw_ref = oracles.sw_md_error(*self.sw_mats, DSBS_005)
        bc = [out for _, spec, out in done if spec.kind == "bc-sim"]
        pooled = (sum(out["error"] * out["trials"] for out in bc)
                  / max(1, sum(out["trials"] for out in bc)))
        bad = {}
        for idx, spec, out in done:
            ref = sw_ref if spec.kind == "sw-sim" else pooled
            if not within_se(out["error"], ref, out["trials"]):
                bad[idx] = f"estimate {out['error']} is over {SE_LIMIT} SE from {ref}"
        return bad


class LpDecode(Workload):
    """``lp-md`` on criterion-8-style instances over DSBS(0.05): per terminal
    a sparse (n-1) x n matrix split into the A / A' stack, n in {4, 5, 6}
    mixed 15 : 4 : 1 per cycle of 20."""

    name = "lp_decode"
    cycle_len = 20
    trace_cycles = 1
    cycles = 5
    SIZES = [4, 4, 4, 5, 4, 4, 4, 4, 5, 4, 4, 4, 5, 4, 4, 4, 4, 6, 4, 5]

    def build(self, seed, tmp, tiny):
        rng = np.random.default_rng([seed, 4])
        dist = write_dist(tmp, DSBS_005)
        sizes = [3, 3, 4] if tiny else self.SIZES * self.cycles
        ops = []
        for i, n in enumerate(sizes):
            mats = [sparse_binary(rng, n - 1, n) for _ in range(2)]
            src = [rng.integers(0, 2, size=n) for _ in range(2)]
            syn = [tuple(int(v) for v in m @ x % 2) for m, x in zip(mats, src)]
            split = n // 2
            argv = ["lp-md", "--dist", dist]
            for j, (m, s) in enumerate(zip(mats, syn)):
                a = write_matrix(os.path.join(tmp, f"lp{i}_{j}_A.txt"), m[:split])
                ap = write_matrix(os.path.join(tmp, f"lp{i}_{j}_Ap.txt"), m[split:])
                argv += ["--stack", f"A={a}", "--stack", f"Ap={ap}"]
            for s in syn:
                argv += ["--syndrome", "a=" + "".join(map(str, s[:split])),
                         "--syndrome", "m=" + "".join(map(str, s[split:]))]
            ops.append(OpSpec(argv, f"n={n}", {"n": n, "mats": mats, "syn": syn}))
        if tiny:
            self.cycle_len = len(ops)
        return ops

    def parse(self, spec, text):
        obj = parse_json(text)
        n = spec.meta["n"]
        try:
            x_hat, div, integral = obj["x_hat"], obj["divergence"], obj["all_integral"]
            types = int(obj["types_considered"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"lp-md output lacks a field: {exc}")
        if types != math.comb(n + 3, 3):
            raise CheckError(f"{types} types considered, expected {math.comb(n + 3, 3)}")
        if x_hat is not None:
            if len(x_hat) != 2 or any(len(x) != n or set(x) - {0, 1} for x in x_hat):
                raise CheckError("x_hat is not two binary sequences of length n")
            x_hat = tuple(tuple(x) for x in x_hat)
        div = math.inf if div == "inf" else float(div)
        return {"x_hat": x_hat, "divergence": div, "all_integral": bool(integral),
                "error": bool(obj.get("error"))}

    def check(self, done):
        bad = {}
        refs: dict[int, tuple] = {}
        for idx, spec, out in done:
            key = id(spec)
            if key not in refs:
                refs[key] = oracles.md_decode(spec.meta["mats"], spec.meta["syn"], DSBS_005)
            ref_x, ref_d = refs[key]
            x_hat, d = out["x_hat"], out["divergence"]
            if out["all_integral"]:
                if x_hat != ref_x or abs(d - ref_d) > 1e-9:
                    bad[idx] = f"all-integral decode {x_hat} ({d}) differs from oracle {ref_x} ({ref_d})"
            elif x_hat is not None:
                in_coset = all(tuple(int(v) for v in m @ np.array(x) % 2) == s
                               for m, x, s in zip(spec.meta["mats"], x_hat, spec.meta["syn"]))
                own_d = oracles.pair_divergence(*x_hat, DSBS_005)
                if not in_coset or abs(own_d - d) > 1e-9 or d < ref_d - 1e-9:
                    bad[idx] = f"fractional-type decode {x_hat} ({d}) is not a consistent coset member"
            elif not out["error"]:
                bad[idx] = "no decode but no error flag"
        return bad


WORKLOADS = {w.name: w for w in (SwExact, McCalib, McDecode, LpDecode)}
