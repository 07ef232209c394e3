"""Out-of-program tracing: wrap hashprop's public layer functions for one
traced pass, record spans and counts, and restore every attribute after.

Each target is replaced at every import site, i.e. on every ``hashprop``
module (and class) whose attribute is the original object, so a call through
``slepian_wolf.solve_affine`` is traced just like one through
``gf.solve_affine``.  A span's self time is its duration minus the durations
of the wrapped calls made inside it, so per op the self times of all wrapped
calls add up to the duration of the root ``cli.main`` span.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, trace name, aggregated).  Aggregated functions run once
# per candidate, so they get a count and a total instead of one span per call.
TARGETS = [
    ("hashprop.cli", "main", "cli.main", False),
    ("hashprop.formats", "load_matrix", "formats.load", False),
    ("hashprop.formats", "load_distribution", "formats.load", False),
    ("hashprop.formats", "load_bc_problem", "formats.load", False),
    ("hashprop.formats", "load_bc_code", "formats.load", False),
    ("hashprop.gf", "solve_affine", "gf.solve_affine", False),
    ("hashprop.types", "joint_type", "types.joint_type", True),
    ("hashprop.types", "divergence", "types.divergence", True),
    ("hashprop.ensemble", "Ensemble.sample", "ensemble.sample", False),
    ("hashprop.slepian_wolf", "sw_error_exact", "slepian_wolf.sw_error_exact", False),
    ("hashprop.slepian_wolf", "sw_decode_md", "slepian_wolf.sw_decode_md", False),
    ("hashprop.slepian_wolf", "sw_error_mc", "slepian_wolf.sw_error_mc", False),
    ("hashprop.mc", "spawn_rngs", "mc.spawn_rngs", False),
    ("hashprop.broadcast", "bc_encode", "broadcast.bc_encode", False),
    ("hashprop.broadcast", "bc_decode", "broadcast.bc_decode", False),
    ("hashprop.broadcast", "bc_error_mc", "broadcast.bc_error_mc", False),
    ("hashprop.lp_md", "md_via_lp", "lp_md.md_via_lp", False),
    ("hashprop.lp_md", "simplex_solve", "lp_md.simplex_solve", False),
    ("hashprop.lp_md", "build_type_constraints", "lp_md.build", False),
    ("hashprop.lp_md", "build_parity_constraints", "lp_md.build", False),
]

# Per-layer metric names, units and direction, in the order they are printed.
LAYER_METRICS = [
    ("slepian_wolf.sw_error_exact.calls", "count/op", "lower"),
    ("slepian_wolf.sw_error_exact.s", "s/op", "lower"),
    ("slepian_wolf.exact_pairs", "count/op", "lower"),
    ("slepian_wolf.exact_ns_per_pair", "ns", "lower"),
    ("ensemble.sample.calls", "count/op", "lower"),
    ("ensemble.sample.s", "s/op", "lower"),
    ("slepian_wolf.sw_decode_md.calls", "count/op", "lower"),
    ("slepian_wolf.sw_decode_md.s", "s/op", "lower"),
    ("slepian_wolf.candidates", "count/op", "lower"),
    ("slepian_wolf.us_per_candidate", "us", "lower"),
    ("types.joint_type.calls", "count/op", "lower"),
    ("types.joint_type.s", "s/op", "lower"),
    ("types.divergence.calls", "count/op", "lower"),
    ("types.divergence.s", "s/op", "lower"),
    ("gf.solve_affine.calls", "count/op", "lower"),
    ("gf.solve_affine.s", "s/op", "lower"),
    ("gf.solve_affine.members", "count/op", "lower"),
    ("slepian_wolf.sw_error_mc.trials", "count/op", "lower"),
    ("slepian_wolf.sw_error_mc.s", "s/op", "lower"),
    ("slepian_wolf.decode_hit_ratio", "ratio", "higher"),
    ("mc.spawn_rngs.calls", "count/op", "lower"),
    ("mc.spawn_rngs.s", "s/op", "lower"),
    ("mc.streams", "count/op", "lower"),
    ("mc.us_per_stream", "us", "lower"),
    ("broadcast.bc_encode.calls", "count/op", "lower"),
    ("broadcast.bc_encode.s", "s/op", "lower"),
    ("broadcast.bc_decode.calls", "count/op", "lower"),
    ("broadcast.bc_decode.s", "s/op", "lower"),
    ("broadcast.bc_error_mc.trials", "count/op", "lower"),
    ("broadcast.bc_error_mc.s", "s/op", "lower"),
    ("broadcast.encode_hit_ratio", "ratio", "higher"),
    ("broadcast.decode_hit_ratio", "ratio", "higher"),
    ("lp_md.md_via_lp.calls", "count/op", "lower"),
    ("lp_md.md_via_lp.s", "s/op", "lower"),
    ("lp_md.simplex_solve.calls", "count/op", "lower"),
    ("lp_md.simplex_solve.s", "s/op", "lower"),
    ("lp_md.types_per_decode", "count", "lower"),
    ("lp_md.build.s", "s/op", "lower"),
    ("lp_md.integral_ratio", "ratio", "higher"),
    ("lp_md.all_integral_ratio", "ratio", "higher"),
    ("formats.load.calls", "count/op", "lower"),
    ("formats.load.s", "s/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


class Tracer:
    """Spans, per-name call counts and self/inclusive times, and the counts
    the per-layer ratios need.  Install with ``patched()``."""

    def __init__(self):
        self.stack: list[list] = []   # frames: [child_time, span_id, name]
        self.spans: list[tuple] = []  # (id, name, start, end, self_s, parent_id, op_id)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_id = None
        self.op_self_sum = 0.0
        self.op_checks: list[tuple[float, float]] = []  # (root duration, sum of self times)
        self._next_id = 0

    # --- bookkeeping -----------------------------------------------------

    def parent_name(self) -> str | None:
        return self.stack[-1][2] if self.stack else None

    def _wrap(self, fn, name: str, aggregated: bool):
        note = _NOTES.get(name)
        sig = inspect.signature(fn) if note in _NEEDS_ARGS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span_id = None
            if not aggregated:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id, name]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - start
                own = dur - frame[0]
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.incl_s[name] += dur
                tracer.op_self_sum += own
                if parent is not None:
                    parent[0] += dur
                if not aggregated:
                    tracer.spans.append((span_id, name, start, end, own,
                                         parent[1] if parent else None, tracer.op_id))
                if parent is None:
                    tracer.op_checks.append((dur, tracer.op_self_sum))
                    tracer.op_self_sum = 0.0
            if note is not None:
                arguments = None
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                result = note(tracer, arguments, result)
            return result

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, own, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "self_s": own,
                                     "parent": parent, "op": op}) + "\n")

    def max_self_sum_error(self) -> float:
        """Largest |sum of self times - root duration| over traced ops."""
        return max((abs(d - s) for d, s in self.op_checks), default=0.0)

    # --- per-layer metrics -------------------------------------------------

    def layer_metrics(self, ops: int, overhead: float) -> dict:
        c, s, i, k = self.calls, self.self_s, self.incl_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("slepian_wolf.sw_error_exact", "ensemble.sample",
                     "slepian_wolf.sw_decode_md", "types.joint_type",
                     "types.divergence", "gf.solve_affine", "mc.spawn_rngs",
                     "broadcast.bc_encode", "broadcast.bc_decode",
                     "lp_md.md_via_lp", "lp_md.simplex_solve", "formats.load"):
            out[name + ".calls"] = c[name] / ops
            out[name + ".s"] = s[name] / ops
        out["slepian_wolf.exact_pairs"] = k["exact_pairs"] / ops
        out["slepian_wolf.exact_ns_per_pair"] = 1e9 * ratio(
            i["slepian_wolf.sw_error_exact"], k["exact_pairs"])
        out["slepian_wolf.candidates"] = k["sw_candidates"] / ops
        out["slepian_wolf.us_per_candidate"] = 1e6 * ratio(
            i["slepian_wolf.sw_decode_md"], k["sw_candidates"])
        out["gf.solve_affine.members"] = k["coset_members"] / ops
        out["slepian_wolf.sw_error_mc.trials"] = k["sw_trials"] / ops
        out["slepian_wolf.sw_error_mc.s"] = s["slepian_wolf.sw_error_mc"] / ops
        out["slepian_wolf.decode_hit_ratio"] = (
            1.0 - ratio(k["sw_mc_decodes"], k["sw_trials"]) if k["sw_trials"] else 0.0)
        out["mc.streams"] = k["streams"] / ops
        out["mc.us_per_stream"] = 1e6 * ratio(s["mc.spawn_rngs"], k["streams"])
        out["broadcast.bc_error_mc.trials"] = k["bc_trials"] / ops
        out["broadcast.bc_error_mc.s"] = s["broadcast.bc_error_mc"] / ops
        out["broadcast.encode_hit_ratio"] = (
            1.0 - ratio(k["bc_mc_encodes"], k["bc_trials"]) if k["bc_trials"] else 0.0)
        out["broadcast.decode_hit_ratio"] = (
            1.0 - ratio(k["bc_mc_decodes"], k["bc_receiver_trials"])
            if k["bc_receiver_trials"] else 0.0)
        out["lp_md.types_per_decode"] = ratio(k["lp_types"], c["lp_md.md_via_lp"])
        out["lp_md.build.s"] = s["lp_md.build"] / ops
        out["lp_md.integral_ratio"] = ratio(k["lp_integral"], k["lp_optimal"])
        out["lp_md.all_integral_ratio"] = ratio(k["lp_all_integral"], c["lp_md.md_via_lp"])
        out["cli.main.self_s"] = s["cli.main"] / ops
        out["trace.overhead"] = overhead
        return {name: out[name] for name, _, _ in LAYER_METRICS}

    def ratio_bases(self) -> dict:
        """The numerators and denominators behind every ratio metric."""
        k, c = self.counts, self.calls
        return {
            "slepian_wolf.decode_hit_ratio": {"decodes": k["sw_mc_decodes"], "trials": k["sw_trials"]},
            "broadcast.encode_hit_ratio": {"encodes": k["bc_mc_encodes"], "trials": k["bc_trials"]},
            "broadcast.decode_hit_ratio": {"decodes": k["bc_mc_decodes"],
                                           "receiver_trials": k["bc_receiver_trials"]},
            "lp_md.integral_ratio": {"integral": k["lp_integral"], "optimal": k["lp_optimal"]},
            "lp_md.all_integral_ratio": {"all_integral": k["lp_all_integral"],
                                         "decodes": c["lp_md.md_via_lp"]},
            "lp_md.types_per_decode": {"types": k["lp_types"], "decodes": c["lp_md.md_via_lp"]},
            "slepian_wolf.exact_ns_per_pair": {"pairs": k["exact_pairs"]},
            "slepian_wolf.us_per_candidate": {"candidates": k["sw_candidates"]},
            "mc.us_per_stream": {"streams": k["streams"]},
        }


# --- counts taken from a traced call's arguments and result ---------------


def _note_solve_affine(tr, args, result):
    members = list(result)
    tr.counts["coset_members"] += len(members)
    return iter(members)


def _note_joint_type(tr, args, result):
    if tr.parent_name() == "slepian_wolf.sw_decode_md":
        tr.counts["sw_candidates"] += 1
    return result


def _note_sw_error_exact(tr, args, result):
    code = args["code"]
    tr.counts["exact_pairs"] += math.prod(size ** code.n for size in code.mu.shape)
    return result


def _note_sw_decode_md(tr, args, result):
    if tr.parent_name() == "slepian_wolf.sw_error_mc":
        tr.counts["sw_mc_decodes"] += 1
    return result


def _note_sw_error_mc(tr, args, result):
    tr.counts["sw_trials"] += args["trials"]
    return result


def _note_spawn_rngs(tr, args, result):
    tr.counts["streams"] += args["count"]
    return result


def _note_bc_encode(tr, args, result):
    if tr.parent_name() == "broadcast.bc_error_mc":
        tr.counts["bc_mc_encodes"] += 1
    return result


def _note_bc_decode(tr, args, result):
    if tr.parent_name() == "broadcast.bc_error_mc":
        tr.counts["bc_mc_decodes"] += 1
    return result


def _note_bc_error_mc(tr, args, result):
    tr.counts["bc_trials"] += args["trials"]
    tr.counts["bc_receiver_trials"] += args["trials"] * args["code"].k
    return result


def _note_md_via_lp(tr, args, result):
    log = result.type_log
    tr.counts["lp_types"] += len(log)
    optimal = [e for e in log if e["status"] == "optimal"]
    tr.counts["lp_optimal"] += len(optimal)
    tr.counts["lp_integral"] += sum(1 for e in optimal if e["integral"])
    tr.counts["lp_all_integral"] += bool(result.all_integral)
    return result


_NOTES = {
    "gf.solve_affine": _note_solve_affine,
    "types.joint_type": _note_joint_type,
    "slepian_wolf.sw_error_exact": _note_sw_error_exact,
    "slepian_wolf.sw_decode_md": _note_sw_decode_md,
    "slepian_wolf.sw_error_mc": _note_sw_error_mc,
    "mc.spawn_rngs": _note_spawn_rngs,
    "broadcast.bc_encode": _note_bc_encode,
    "broadcast.bc_decode": _note_bc_decode,
    "broadcast.bc_error_mc": _note_bc_error_mc,
    "lp_md.md_via_lp": _note_md_via_lp,
}
_NEEDS_ARGS = (_note_sw_error_exact, _note_sw_error_mc, _note_spawn_rngs,
               _note_bc_error_mc)


# --- installing and removing the wrappers ----------------------------------


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def import_sites(original) -> list[tuple[object, str]]:
    """Every (owner, attribute) in the loaded hashprop modules, and the
    classes they define, that holds ``original``."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hashprop" or mod_name.startswith("hashprop.")):
            continue
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod_name]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    sites.append((owner, key))
    return sites


class patched:
    """Context manager: every target wrapped at every import site on entry,
    every attribute restored (and checked to be the original) on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, attr, name, aggregated in TARGETS:
            owner, leaf = _resolve(module_name, attr)
            original = vars(owner)[leaf]
            wrapper = self.tracer._wrap(original, name, aggregated)
            for site_owner, site_attr in import_sites(original):
                self.saved.append((site_owner, site_attr, original))
                setattr(site_owner, site_attr, wrapper)
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self.saved
                    if vars(o)[a] is not orig]
        if leftover:
            raise RuntimeError(f"tracing wrappers left in place: {leftover}")

