"""Command-line workbench: ensemble generation and audits, codec
simulations, LP decoding, and rate sweeps.

stdout carries data (JSON, or CSV for sweeps), stderr carries logs.  Exit
codes: 0 ok, 2 configuration/input error, 3 compute error.  All randomized
subcommands require an explicit --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from . import broadcast, ensemble as ens_mod, formats, lp_md, slepian_wolf as sw_mod
from .formats import ParseError
from .gf import FieldMatrix

CONFIG_EXIT = 2
COMPUTE_EXIT = 3


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("HASHPROP_THREADS", "1")))
    except ValueError:
        return 1


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _frac(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator, "value": float(f)}


def _build_ensemble(args) -> tuple[ens_mod.Ensemble, ens_mod.TypeFilter]:
    if getattr(args, "desc", None):
        ens, filt, _ = formats.ensemble_from_obj(formats._load_json(args.desc))
        return ens, filt
    if args.family == "uniform":
        ens = ens_mod.Ensemble.uniform_all(args.q, args.l, args.n)
    elif args.family == "sparse":
        if args.tau is None:
            raise ParseError("--tau is required for the sparse family")
        ens = ens_mod.Ensemble.sparse(args.q, args.l, args.n, args.tau)
    elif args.family == "binning":
        ens = ens_mod.Ensemble.binning(args.q, args.n, args.bins or args.q ** args.l)
    else:
        raise ParseError(f"unknown family {args.family!r}")
    filt = (ens_mod.TypeFilter(args.w_min) if args.w_min is not None
            else ens_mod.TypeFilter.default(args.n))
    return ens, filt


def cmd_gen_matrix(args) -> None:
    ens = ens_mod.Ensemble.sparse(args.q, args.rows, args.cols, args.tau)
    rng = np.random.default_rng(args.seed)
    m = ens.sample(rng)
    text = formats.emit_matrix(m)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit({"command": "gen-matrix", "out": args.out, "q": args.q,
               "rows": args.rows, "cols": args.cols, "tau": args.tau,
               "seed": args.seed, "nonzeros": len(m.entries)})
    else:
        sys.stdout.write(text)


def cmd_hash_audit(args) -> None:
    ens, filt = _build_ensemble(args)
    support = ens.enumerate_support(cap=args.cap)
    profile = ens_mod.alpha_beta_from_spectrum(ens, filt, support=support)
    result = {"command": "hash-audit", "family": ens.family, "q": ens.q,
              "l": ens.l, "n": ens.n, "image_size": profile.image_size,
              "alpha": _frac(profile.alpha), "beta": _frac(profile.beta)}
    if args.exhaustive:
        reports = ens_mod.verify_strong_hash(ens, profile, support=support)
        result["h3_holds"] = all(r["holds"] for r in reports)
        result["h3_checked"] = len(reports)
    _emit(result)


def cmd_spectrum(args) -> None:
    ens, _ = _build_ensemble(args)
    table = ens_mod.spectrum_table(ens, support=ens.enumerate_support(cap=args.cap))
    rows = [{"type": list(t), "value": _frac(v)}
            for t, v in sorted(table.items())]
    _emit({"command": "spectrum", "family": ens.family, "q": ens.q,
           "l": ens.l, "n": ens.n, "spectrum": rows})


def _parse_named(values, what: str) -> list[tuple[str, str]]:
    out = []
    for v in values:
        for part in v.split(","):
            if "=" not in part:
                raise ParseError(f"{what} must look like name=value, got {part!r}")
            name, val = part.split("=", 1)
            out.append((name.strip(), val.strip()))
    return out


def cmd_sw_sim(args) -> None:
    mu = formats.load_distribution(args.dist)
    mats = [formats.load_matrix(path) for _, path in _parse_named(args.matrix, "--matrix")]
    code = sw_mod.SwCode(matrices=tuple(mats), mu=mu)
    result = {"command": "sw-sim", "decoder": args.decoder, "n": code.n,
              "rates": list(code.rates().rates), "mode": args.mode}
    if args.mode == "exact":
        err = sw_mod.sw_error_exact(code, decoder=args.decoder, gamma=args.gamma)
        result["error"] = err
        result["ci"] = [err, err]
    else:
        if args.seed is None:
            raise ParseError("--seed is required in mc mode")
        est = sw_mod.sw_error_mc(code, decoder=args.decoder, trials=args.trials,
                                 seed=args.seed, gamma=args.gamma,
                                 threads=_threads())
        result["error"] = est.estimate
        result["ci"] = [est.ci_lo, est.ci_hi]
        result["trials"] = est.trials
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["R_X", "R_Y", "n", "error", "ci_lo", "ci_hi"])
            rates = list(code.rates().rates) + [0.0, 0.0]
            w.writerow([rates[0], rates[1], code.n, result["error"],
                        result["ci"][0], result["ci"][1]])
    _emit(result)


def cmd_bc_sim(args) -> None:
    problem = formats.load_bc_problem(args.problem)
    code = formats.load_bc_code(args.code)
    result = {"command": "bc-sim", "mode": args.mode, "variant": args.variant,
              "n": code.n, "rates": [list(p) for p in code.rates()]}
    if args.mode == "exact":
        err = broadcast.bc_error_exact(code, problem, variant=args.variant)
        result["error"] = err
        result["ci"] = [err, err]
    else:
        if args.seed is None:
            raise ParseError("--seed is required in mc mode")
        est = broadcast.bc_error_mc(code, problem, trials=args.trials,
                                    seed=args.seed, variant=args.variant)
        result["error"] = est.estimate
        result["ci"] = [est.ci_lo, est.ci_hi]
        result["trials"] = est.trials
    _emit(result)


def cmd_lp_md(args) -> None:
    mu = formats.load_distribution(args.dist)
    stacks = _parse_named(args.stack, "--stack")
    syns = _parse_named(args.syndrome, "--syndrome")
    mats = [formats.load_matrix(path) for _, path in stacks]
    syndromes = [formats.parse_symbols(v) for _, v in syns]
    if len(mats) != 2 * len(mu.shape) or len(syndromes) != 2 * len(mu.shape):
        raise ParseError(
            "expected one coset matrix + one message matrix and one syndrome "
            "+ one message per terminal (pass --stack/--syndrome pairs in order)"
        )
    k = len(mu.shape)
    stacked = []
    merged = []
    for j in range(k):
        a, ap = mats[2 * j], mats[2 * j + 1]
        stacked.append(a.stack(ap))
        merged.append(tuple(syndromes[2 * j]) + tuple(syndromes[2 * j + 1]))
    res = lp_md.md_via_lp(stacked, merged, mu, fallback=args.fallback)
    _emit({
        "command": "lp-md",
        "error": res.error,
        "x_hat": [list(x) for x in res.x_hat] if res.x_hat else None,
        "divergence": res.divergence if not math.isinf(res.divergence) else "inf",
        "all_integral": res.all_integral,
        "types_considered": len(res.type_log),
        "fractional_types": sum(
            1 for e in res.type_log
            if e["status"] == "optimal" and not e["integral"]
        ),
    })


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"non-numeric grid bound in {spec!r}")
    if step <= 0 or hi < lo:
        raise ParseError(f"empty grid {spec!r}")
    out = []
    v = lo
    while v <= hi + 1e-9:
        out.append(round(v, 10))
        v += step
    return out


def _sweep_point(mu, r_x, r_y, n, tau, tries, mode, trials, seed_seq):
    """Best-of-tries sparse code at one grid point."""
    l_x = broadcast.rows_for_rate(r_x, n, 2)
    l_y = broadcast.rows_for_rate(r_y, n, 2)
    ens_x = ens_mod.Ensemble.sparse(2, l_x, n, tau) if l_x else None
    ens_y = ens_mod.Ensemble.sparse(2, l_y, n, tau) if l_y else None
    rng = np.random.default_rng(seed_seq)
    mc_seed = int(seed_seq.generate_state(1)[0])
    best = None
    for _ in range(tries):
        a = ens_x.sample(rng) if ens_x else FieldMatrix.zeros(2, 0, n)
        b = ens_y.sample(rng) if ens_y else FieldMatrix.zeros(2, 0, n)
        code = sw_mod.SwCode(matrices=(a, b), mu=mu)
        if mode == "exact":
            err = sw_mod.sw_error_exact(code)
            rec = (err, err, err)
        else:
            est = sw_mod.sw_error_mc(code, trials=trials, seed=mc_seed)
            rec = (est.estimate, est.ci_lo, est.ci_hi)
        if best is None or rec[0] < best[0]:
            best = rec
    return {"R_X": r_x, "R_Y": r_y, "n": n, "error": best[0],
            "ci_lo": best[1], "ci_hi": best[2]}


def cmd_sweep(args) -> None:
    if args.target != "sw":
        raise ParseError("only 'sweep sw' is supported")
    mu = formats.load_distribution(args.dist)
    grid = _parse_grid(args.rates)
    n_list = [int(v) for v in args.n_list.split(",")]
    points = [(rx, ry, n) for rx in grid for ry in grid for n in n_list]
    seeds = np.random.SeedSequence(args.seed).spawn(len(points))

    def work(item):
        (rx, ry, n), ss = item
        return _sweep_point(mu, rx, ry, n, args.tau, args.tries, args.mode,
                            args.trials, ss)

    threads = _threads()
    items = list(zip(points, seeds))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(work, items))
    else:
        records = [work(it) for it in items]

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["R_X", "R_Y", "n", "error", "ci_lo", "ci_hi"])
    for rec in records:
        w.writerow([rec["R_X"], rec["R_Y"], rec["n"], rec["error"],
                    rec["ci_lo"], rec["ci_hi"]])
    summary = {"command": "sweep", "target": "sw", "points": len(records),
               "grid": grid, "n_list": n_list, "mode": args.mode,
               "min_error": min(r["error"] for r in records)}
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(buf.getvalue())
        _emit(summary)
    else:
        sys.stdout.write(buf.getvalue())
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hashprop",
                                 description="hash-property code workbench")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-matrix", help="sample a sparse matrix")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--tau", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen_matrix)

    for name, fn in (("hash-audit", cmd_hash_audit), ("spectrum", cmd_spectrum)):
        h = sub.add_parser(name, help=f"{name} over an exact ensemble support")
        h.add_argument("--family", choices=["uniform", "sparse", "binning"])
        h.add_argument("--q", type=int)
        h.add_argument("--l", type=int)
        h.add_argument("--n", type=int)
        h.add_argument("--tau", type=int)
        h.add_argument("--bins", type=int)
        h.add_argument("--w-min", dest="w_min", type=int)
        h.add_argument("--desc", help="ensemble descriptor JSON file")
        h.add_argument("--cap", type=int, default=200_000)
        if name == "hash-audit":
            h.add_argument("--exhaustive", action="store_true")
        h.set_defaults(fn=fn)

    s = sub.add_parser("sw-sim", help="source-coding simulation")
    s.add_argument("--dist", required=True)
    s.add_argument("--matrix", action="append", required=True,
                   help="name=matrixfile, one per source")
    s.add_argument("--decoder", choices=["md", "ml", "ml_unconstrained"],
                   default="md")
    s.add_argument("--gamma", type=float, default=0.0)
    s.add_argument("--mode", choices=["exact", "mc"], default="exact")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int)
    s.add_argument("--csv")
    s.set_defaults(fn=cmd_sw_sim)

    b = sub.add_parser("bc-sim", help="broadcast-coding simulation")
    b.add_argument("--problem", required=True)
    b.add_argument("--code", required=True)
    b.add_argument("--variant", choices=["ml", "md"], default="ml")
    b.add_argument("--mode", choices=["exact", "mc"], default="exact")
    b.add_argument("--trials", type=int, default=1000)
    b.add_argument("--seed", type=int)
    b.set_defaults(fn=cmd_bc_sim)

    l = sub.add_parser("lp-md", help="LP minimum-divergence decoding")
    l.add_argument("--dist", required=True)
    l.add_argument("--stack", action="append", required=True,
                   help="A=file,A'=file per terminal, in order")
    l.add_argument("--syndrome", action="append", required=True,
                   help="a=symbols,m=symbols per terminal, in order")
    l.add_argument("--fallback", choices=["exhaustive"])
    l.set_defaults(fn=cmd_lp_md)

    sw = sub.add_parser("sweep", help="rate-grid sweep emitting CSV")
    sw.add_argument("target", choices=["sw"])
    sw.add_argument("--dist", required=True)
    sw.add_argument("--rates", required=True, help="lo:hi:step")
    sw.add_argument("--n-list", dest="n_list", required=True, help="e.g. 4,6,8")
    sw.add_argument("--tau", type=int, default=2)
    sw.add_argument("--tries", type=int, default=8)
    sw.add_argument("--mode", choices=["exact", "mc"], default="exact")
    sw.add_argument("--trials", type=int, default=1000)
    sw.add_argument("--seed", type=int, required=True)
    sw.add_argument("--csv")
    sw.set_defaults(fn=cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return CONFIG_EXIT if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except ValueError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return COMPUTE_EXIT
    print(f"done in {time.monotonic() - start:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
