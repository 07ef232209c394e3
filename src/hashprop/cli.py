"""Command-line workbench: ensemble generation and audits, codec
simulations, LP decoding, and rate sweeps.

stdout carries data (JSON, or CSV for sweeps), stderr carries logs.  Exit
codes: 0 ok, 2 configuration/input error, 3 compute error.  All randomized
subcommands require an explicit --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import broadcast, ensemble as ens_mod, formats, lp_md, slepian_wolf as sw_mod
from .formats import ParseError
from .gf import FieldMatrix
from .mc import stream
from .types import type_classes

CONFIG_EXIT = 2
COMPUTE_EXIT = 3
DEFAULT_TRIALS = 1000


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _frac(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator, "value": float(f)}


def _build_ensemble(args) -> tuple[ens_mod.Ensemble, ens_mod.TypeFilter]:
    """The ensemble of --desc, or of the ensemble flags read as a descriptor."""
    if args.desc:
        obj = formats.load_json(args.desc)
    else:
        flags = {"family": args.family, "q": args.q, "l": args.l, "n": args.n,
                 "tau": args.tau, "w_min": args.w_min}
        obj = {key: value for key, value in flags.items() if value is not None}
    return formats.ensemble_from_obj(obj)


def cmd_gen_matrix(args) -> None:
    ens = ens_mod.Ensemble.sparse(args.q, args.rows, args.cols, args.tau)
    m = ens.sample(stream(args.seed))
    text = formats.emit_matrix(m)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit({"command": "gen-matrix", "out": args.out, "q": args.q,
               "rows": args.rows, "cols": args.cols, "tau": args.tau,
               "seed": args.seed, "nonzeros": int(np.count_nonzero(m.dense))})
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
    """``name=value`` pairs, several per flag when comma-separated; a part
    without ``=`` continues the value before it, so ``a=0,1`` is ``0,1``."""
    out = []
    for v in values:
        first = len(out)
        for part in v.split(","):
            if "=" in part:
                name, val = part.split("=", 1)
                out.append((name.strip(), val.strip()))
            elif len(out) > first:
                out[-1] = (out[-1][0], f"{out[-1][1]},{part.strip()}")
            else:
                raise ParseError(f"{what} must look like name=value, got {part!r}")
    return out


def _mc_trials(args) -> int | None:
    """The MC trial count of a ``--mode mc`` run, None in exact mode; exact
    evaluation draws nothing, so it refuses an explicit --trials or --seed."""
    if args.mode == "exact":
        given = [flag for flag, value in (("--trials", args.trials), ("--seed", args.seed))
                 if value is not None]
        if given:
            raise ParseError(f"{' and '.join(given)} only apply to --mode mc")
        return None
    if args.seed is None:
        raise ParseError("--seed is required in mc mode")
    return DEFAULT_TRIALS if args.trials is None else args.trials


def cmd_sw_sim(args) -> None:
    trials = _mc_trials(args)
    if args.decoder != "ml" and args.gamma is not None:
        raise ParseError(f"--gamma is the ml typicality slack; --decoder {args.decoder} has none")
    gamma = 0.0 if args.gamma is None else args.gamma
    if args.decoder == "ml" and not gamma > 0:
        raise ParseError("--gamma must be > 0 for --decoder ml: typical means divergence < gamma")
    mu = formats.load_distribution(args.dist)
    mats = [formats.load_matrix(path) for _, path in _parse_named(args.matrix, "--matrix")]
    try:
        code = sw_mod.SwCode(matrices=tuple(mats), mu=mu)
    except sw_mod.SwError as exc:
        raise ParseError(str(exc))
    if args.csv and code.k != 2:
        raise ParseError(f"--csv writes R_X,R_Y and needs two sources, got {code.k}")
    result = {"command": "sw-sim", "decoder": args.decoder, "n": code.n,
              "rates": list(code.rates().rates), "mode": args.mode}
    if args.mode == "exact":
        err = sw_mod.sw_error_exact(code, decoder=args.decoder, gamma=gamma)
        result["error"] = err
        result["ci"] = [err, err]
    else:
        est = sw_mod.sw_error_mc(code, decoder=args.decoder, trials=trials,
                                 seed=args.seed, gamma=gamma)
        result["error"] = est.estimate
        result["ci"] = [est.ci_lo, est.ci_hi]
        result["trials"] = est.trials
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["R_X", "R_Y", "n", "error", "ci_lo", "ci_hi"])
            w.writerow([*result["rates"], code.n, result["error"], *result["ci"]])
    _emit(result)


def cmd_bc_sim(args) -> None:
    trials = _mc_trials(args)
    problem = formats.load_bc_problem(args.problem)
    code = formats.load_bc_code(args.code)
    try:
        problem.check_code(code)
    except broadcast.BcError as exc:
        raise ParseError(f"code JSON: {exc}")
    if args.mode == "exact" and not problem.deterministic:
        raise ParseError("--mode exact needs a deterministic symbol map 'f', "
                         "not 'f_stochastic'")
    result = {"command": "bc-sim", "mode": args.mode, "variant": args.variant,
              "n": code.n, "rates": [list(p) for p in code.rates()]}
    if args.mode == "exact":
        err = broadcast.bc_error_exact(code, problem, variant=args.variant)
        result["error"] = err
        result["ci"] = [err, err]
    else:
        est = broadcast.bc_error_mc(code, problem, trials=trials,
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
    if any(s != 2 for s in mu.shape):
        raise ParseError(f"lp-md needs a binary alphabet per terminal, got sizes {mu.shape}")
    for (name, _), m, (sname, _), s in zip(stacks, mats, syns, syndromes):
        if m.q != 2:
            raise ParseError(f"lp-md needs GF(2) matrices, {name!r} is over GF({m.q})")
        if len(s) != m.rows:
            raise ParseError(f"syndrome {sname!r} has {len(s)} symbols but matrix "
                             f"{name!r} has {m.rows} rows")
        if set(s) - {0, 1}:
            raise ParseError(f"syndrome {sname!r} has a symbol outside GF(2)")
    if len({m.cols for m in mats}) != 1:
        raise ParseError("every --stack matrix needs the same column count n, got "
                         + ", ".join(f"{name}: {m.cols}" for (name, _), m in zip(stacks, mats)))
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
        "types_considered": len(type_classes(stacked[0].cols, 1 << k).sizes),
        "types_solved": len(res.type_log),
        "pivots": sum(e["pivots"] for e in res.type_log),
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


def _sweep_point(mu, r_x, r_y, n, tau, tries, mode, trials, seed):
    """Best-of-tries sparse code at one grid point, drawn from ``stream(seed, 0)``
    as every point is; the MC seed is that stream's first seed-sequence word."""
    l_x = broadcast.rows_for_rate(r_x, n, 2)
    l_y = broadcast.rows_for_rate(r_y, n, 2)
    ens_x = ens_mod.Ensemble.sparse(2, l_x, n, tau) if l_x else None
    ens_y = ens_mod.Ensemble.sparse(2, l_y, n, tau) if l_y else None
    rng = stream(seed, 0)
    mc_seed = int(rng.bit_generator.seed_seq.generate_state(1)[0])
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
    if args.mode == "exact" and args.trials is not None:
        raise ParseError("--trials only applies to --mode mc")
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    mu = formats.load_distribution(args.dist)
    grid = _parse_grid(args.rates)
    # one stream for every point, so a row does not depend on the rest of the grid
    records = [_sweep_point(mu, rx, ry, n, args.tau, args.tries, args.mode, trials, args.seed)
               for rx in grid for ry in grid for n in args.n_list]

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["R_X", "R_Y", "n", "error", "ci_lo", "ci_hi"])
    for rec in records:
        w.writerow([rec["R_X"], rec["R_Y"], rec["n"], rec["error"],
                    rec["ci_lo"], rec["ci_hi"]])
    summary = {"command": "sweep", "target": "sw", "points": len(records),
               "grid": grid, "n_list": args.n_list, "mode": args.mode,
               "min_error": min(r["error"] for r in records)}
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(buf.getvalue())
        _emit(summary)
    else:
        sys.stdout.write(buf.getvalue())
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)  # numpy seeds must be non-negative
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(v) for v in text.split(",")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use; parsing
    leaves it unchanged, so every ``main`` call can reuse it."""
    ap = argparse.ArgumentParser(prog="hashprop",
                                 description="hash-property code workbench")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-matrix", help="sample a sparse matrix")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--tau", type=int, required=True)
    g.add_argument("--seed", type=_seed, required=True)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen_matrix)

    for name, fn in (("hash-audit", cmd_hash_audit), ("spectrum", cmd_spectrum)):
        h = sub.add_parser(name, help=f"{name} over an exact ensemble support")
        h.add_argument("--family", choices=["uniform", "sparse"])
        h.add_argument("--q", type=int)
        h.add_argument("--l", type=int)
        h.add_argument("--n", type=int)
        h.add_argument("--tau", type=int)
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
    s.add_argument("--gamma", type=float,
                   help="typicality slack of --decoder ml, > 0; refused with md and "
                        "ml_unconstrained")
    s.add_argument("--mode", choices=["exact", "mc"], default="exact")
    s.add_argument("--trials", type=_positive_int,
                   help=f"mc only (default {DEFAULT_TRIALS}); refused in exact mode")
    s.add_argument("--seed", type=_seed, help="required in mc mode; refused in exact mode")
    s.add_argument("--csv")
    s.set_defaults(fn=cmd_sw_sim)

    b = sub.add_parser("bc-sim", help="broadcast-coding simulation")
    b.add_argument("--problem", required=True)
    b.add_argument("--code", required=True)
    b.add_argument("--variant", choices=["ml", "md"], default="ml")
    b.add_argument("--mode", choices=["exact", "mc"], default="exact")
    b.add_argument("--trials", type=_positive_int,
                   help=f"mc only (default {DEFAULT_TRIALS}); refused in exact mode")
    b.add_argument("--seed", type=_seed, help="required in mc mode; refused in exact mode")
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
    sw.add_argument("--n-list", type=_positive_ints, required=True, help="e.g. 4,6,8")
    sw.add_argument("--tau", type=int, default=2)
    sw.add_argument("--tries", type=_positive_int, default=8)
    sw.add_argument("--mode", choices=["exact", "mc"], default="exact")
    sw.add_argument("--trials", type=_positive_int,
                    help=f"MC trials per code (default {DEFAULT_TRIALS}); refused in exact mode")
    sw.add_argument("--seed", type=_seed, required=True)
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
