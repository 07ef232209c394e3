"""Self-test of the benchmark harness at tiny sizes (a few seconds):

    python3 bench/selftest.py

Runs every workload in BENCHMARK.json once untraced, once with corrupted op
outputs and once traced, and checks that every named metric is emitted with
its unit, that corrupted outputs are counted as failures, and that the
tracing wrappers are gone afterwards.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 7


class SelfTestError(Exception):
    pass


def expect(cond, msg: str) -> None:
    if not cond:
        raise SelfTestError(msg)


# --- corruptions of op 0's output, each aimed at a different check ----------


def shift_exact_error(i, text):
    """sw_exact: a well-formed row whose error is off by 0.01; only the
    oracle can tell."""
    if i != 0:
        return text
    rows = list(csv.reader(io.StringIO(text)))
    err = float(rows[1][3])
    err = err + 0.01 if err < 0.5 else err - 0.01
    rows[1][3:6] = [repr(err)] * 3
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def flip_mc_estimate(i, text):
    """MC: an estimate at the far end of [0, 1], with a matching interval."""
    if i != 0:
        return text
    obj = json.loads(text)
    e = 1.0 if obj["error"] < 0.5 else 0.0
    obj["error"], obj["ci"] = e, [e, e]
    return json.dumps(obj)


def wrong_trials(i, text):
    """MC: a result for a different trial count."""
    if i != 0:
        return text
    obj = json.loads(text)
    obj["trials"] += 1
    return json.dumps(obj)


def shift_divergence(i, text):
    """lp_decode: the decode's divergence off by 0.5."""
    if i != 0:
        return text
    obj = json.loads(text)
    obj["divergence"] = float(obj["divergence"]) + 0.5
    return json.dumps(obj)


def truncate(i, text):
    return text[: len(text) // 2]


CORRUPTIONS = {
    "sw_exact": shift_exact_error,
    "mc_calib": flip_mc_estimate,
    "mc_decode": wrong_trials,
    "lp_decode": shift_divergence,
}


def attribute_snapshot():
    """Every import site of every traced function, with its current object."""
    from tracing import TARGETS, _resolve, import_sites
    snap = []
    for module_name, attr, _, _ in TARGETS:
        owner, leaf = _resolve(module_name, attr)
        original = vars(owner)[leaf]
        snap += [(o, a, original) for o, a in import_sites(original)]
    return snap


def tiny_run(name, **kw):
    return run.run(name, SEED, 0.0, tiny=True, min_ops=1, setup_repeats=1, **kw)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    from workloads import WORKLOADS
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(WORKLOADS), f"BENCHMARK.json names {names}")

    for name in names:
        res = tiny_run(name, trace=False)
        expect(res["correct"] and res["failed"] == 0, f"{name}: clean run failed: {res['failures']}")
        for metric, unit in e2e.items():
            got = res["metrics"].get(metric)
            expect(got is not None and got["unit"] == unit and math.isfinite(got["value"]),
                   f"{name}: end-to-end metric {metric} missing or without unit {unit}")

        for mutate in (CORRUPTIONS[name], truncate):
            bad = tiny_run(name, trace=False, mutate=mutate)
            expect(bad["failed"] >= 1 and bad["fail_frac"] > 0 and not bad["correct"],
                   f"{name}: corruption {mutate.__name__} went unnoticed")

        before = attribute_snapshot()
        res = tiny_run(name, trace=True)
        expect(res["correct"], f"{name}: traced run failed: {res['failures']}")
        for metric, unit in layer.items():
            got = res["metrics"].get(metric)
            expect(got is not None and got["unit"] == unit and math.isfinite(got["value"]),
                   f"{name}: per-layer metric {metric} missing or without unit {unit}")
        expect(res["trace"]["max_self_sum_error_s"] <= 1e-6,
               f"{name}: self times do not add up to the op wall time")
        leftover = [f"{o.__name__}.{a}" for o, a, orig in before if vars(o)[a] is not orig]
        expect(not leftover, f"{name}: tracing wrappers still installed: {leftover}")
        print(f"selftest {name}: ok")
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
