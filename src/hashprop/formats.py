"""File codecs shared by the CLI: matrix text files, distribution JSON,
ensemble descriptors, and broadcast problem/code JSON."""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .broadcast import BcCode, BcProblem
from .ensemble import Ensemble, TypeFilter
from .gf import MAX_MATRIX_ENTRIES, FieldError, FieldMatrix, check_prime
from .types import CondDistribution, Distribution


class ParseError(ValueError):
    """Malformed input file; message carries the offending location."""


def _is_int(v) -> bool:
    """A JSON integer (a JSON boolean is not one)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_positive_int(v) -> bool:
    return _is_int(v) and v > 0


def _is_number(v) -> bool:
    """A finite JSON number (``json`` also reads the literals NaN and Infinity)."""
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _list_field(obj: dict, name: str, what: str, ok, length: int | None = None) -> list:
    """``obj[name]`` if it is a list of ``what``, each entry passing ``ok``,
    with ``length`` entries when that is given; else a ParseError naming it."""
    value = obj.get(name)
    if not isinstance(value, list) or not all(map(ok, value)):
        raise ParseError(f"{name!r} must be a list of {what}, got {value!r}")
    if length is not None and len(value) != length:
        raise ParseError(f"{name!r} has {len(value)} entries, expected {length}")
    return value


# --- matrix text format -----------------------------------------------------
# First line "q l n"; each following line "r c v" (0-based row, col, nonzero
# value); entries sorted by (r, c); unlisted entries are zero.

def parse_matrix(text: str) -> FieldMatrix:
    lines = [ln for ln in text.splitlines()]
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ParseError("line 1: missing 'q l n' header")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: header must be 'q l n', got {header!r}")
    try:
        q, l, n = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer header field in {header!r}")
    try:
        check_prime(q)
    except FieldError as exc:
        raise ParseError(f"line {lineno}: {exc}")
    if l < 0 or n < 0:
        raise ParseError(f"line {lineno}: negative matrix dimensions in {header!r}")
    if l * n > MAX_MATRIX_ENTRIES:
        raise ParseError(f"line {lineno}: {l}x{n} matrix exceeds {MAX_MATRIX_ENTRIES} entries")
    dense = np.zeros((l, n), dtype=np.int64)
    prev = None
    for lineno, ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: entry must be 'r c v', got {ln!r}")
        try:
            r, c, v = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer entry field in {ln!r}")
        if not 0 <= r < l or not 0 <= c < n:
            raise ParseError(f"line {lineno}: entry ({r},{c}) outside {l}x{n}")
        if not 0 < v < q:
            raise ParseError(f"line {lineno}: value {v} not a nonzero residue mod {q}")
        if prev is not None and (r, c) <= prev:
            if (r, c) == prev:
                raise ParseError(f"line {lineno}: duplicate entry at ({r},{c})")
            raise ParseError(f"line {lineno}: entries must be sorted by (r, c)")
        prev = (r, c)
        dense[r, c] = v
    return FieldMatrix(q, dense)


def emit_matrix(m: FieldMatrix) -> str:
    lines = [f"{m.q} {m.rows} {m.cols}"]
    lines += [f"{r} {c} {v}" for r, c, v in m.entries]
    return "\n".join(lines) + "\n"


def load_matrix(path: str) -> FieldMatrix:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")
    try:
        return parse_matrix(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}")


# --- distribution JSON ------------------------------------------------------
# {"sizes": [s1, ..., sk], "probs": [flat row-major masses]}


def distribution_from_obj(obj) -> Distribution:
    if not isinstance(obj, dict) or "sizes" not in obj or "probs" not in obj:
        raise ParseError("distribution JSON needs 'sizes' and 'probs' fields")
    sizes = _list_field(obj, "sizes", "positive ints", _is_positive_int)
    probs = _list_field(obj, "probs", "finite numbers", _is_number, math.prod(sizes))
    try:
        return Distribution(np.asarray(probs, dtype=np.float64).reshape(sizes))
    except ValueError as exc:
        raise ParseError(str(exc))


def load_distribution(path: str) -> Distribution:
    return distribution_from_obj(load_json(path))


def load_json(path: str):
    """The JSON value in the file at ``path``; an unreadable file or invalid
    JSON raises ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}")


# --- ensemble descriptor ----------------------------------------------------
# {"family": "sparse"|"uniform", "q", "l", "n", "tau", "w_min"}


def ensemble_from_obj(obj) -> tuple[Ensemble, TypeFilter]:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParseError("ensemble descriptor needs a 'family' field")
    family = obj["family"]

    def int_field(name: str) -> int:
        value = obj.get(name)
        if not _is_int(value):
            raise ParseError(f"ensemble descriptor: {name!r} must be an int, got {value!r}")
        return value

    q, l, n = int_field("q"), int_field("l"), int_field("n")
    try:
        filt = (TypeFilter(int_field("w_min")) if obj.get("w_min") is not None
                else TypeFilter.default(n))
        if family == "uniform":
            ens = Ensemble.uniform_all(q, l, n)
        elif family == "sparse":
            if obj.get("tau") is None:
                raise ParseError("sparse ensembles need 'tau'")
            ens = Ensemble.sparse(q, l, n, int_field("tau"))
        else:
            raise ParseError(f"unknown ensemble family {family!r}")
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc))
    return ens, filt


# --- broadcast problem / code JSON ------------------------------------------
# problem: {"y_sizes": [...], "x_size": N,
#           "channel": [flat row-major over (y_1..y_k, x), columns sum to 1],
#           "mu_u": {"sizes": [...], "probs": [...]},
#           "f": [flat row-major ints]  or  "f_stochastic": [flat probs]}
# code: {"receivers": [{"A": path, "A_prime": path, "syndrome": [...]} ...]}


def bc_problem_from_obj(obj) -> BcProblem:
    if not isinstance(obj, dict):
        raise ParseError("problem JSON must be an object")
    try:
        mu_u = distribution_from_obj(obj.get("mu_u"))
    except ParseError as exc:
        raise ParseError(f"'mu_u': {exc}")
    # one output alphabet per receiver, i.e. per auxiliary axis of mu_u
    y_sizes = _list_field(obj, "y_sizes", "positive ints", _is_positive_int, len(mu_u.shape))
    x_size = obj.get("x_size")
    if not _is_positive_int(x_size):
        raise ParseError(f"'x_size' must be a positive int, got {x_size!r}")
    channel = _list_field(obj, "channel", "finite numbers", _is_number,
                          math.prod(y_sizes) * x_size)
    if "f" in obj:
        f = np.array(_list_field(obj, "f", "ints", _is_int, mu_u.table.size),
                     dtype=np.int64).reshape(mu_u.shape)
    elif "f_stochastic" in obj:
        f = np.array(_list_field(obj, "f_stochastic", "finite numbers", _is_number,
                                 mu_u.table.size * x_size),
                     dtype=np.float64).reshape(mu_u.shape + (x_size,))
    else:
        raise ParseError("problem JSON needs 'f' or 'f_stochastic'")
    try:
        channel = np.array(channel, dtype=np.float64).reshape(tuple(y_sizes) + (x_size,))
        return BcProblem(channel=CondDistribution(channel), mu_u=mu_u, f=f)
    except ValueError as exc:
        raise ParseError(f"problem JSON: {exc}")


def bc_code_from_obj(obj, base_dir: str = ".") -> BcCode:
    if not isinstance(obj, dict) or not isinstance(obj.get("receivers"), list):
        raise ParseError("code JSON needs a 'receivers' list")
    pairs = []
    syndromes = []
    for i, rec in enumerate(obj["receivers"]):
        if not isinstance(rec, dict):
            raise ParseError(f"receiver {i}: must be an object, got {rec!r}")
        for field in ("A", "A_prime", "syndrome"):
            if field not in rec:
                raise ParseError(f"receiver {i}: missing field {field!r}")
        if not isinstance(rec["A"], str) or not isinstance(rec["A_prime"], str):
            raise ParseError(f"receiver {i}: 'A' and 'A_prime' must be file paths")
        syn = rec["syndrome"]
        if not isinstance(syn, list) or not all(map(_is_int, syn)):
            raise ParseError(f"receiver {i}: 'syndrome' must be a list of ints, got {syn!r}")
        pairs.append((load_matrix(os.path.join(base_dir, rec["A"])),
                      load_matrix(os.path.join(base_dir, rec["A_prime"]))))
        q = pairs[-1][0].q
        if not all(0 <= v < q for v in syn):
            raise ParseError(f"receiver {i}: 'syndrome' entries must lie in [0, {q}), got {syn!r}")
        syndromes.append(tuple(syn))
    try:
        return BcCode(pairs=tuple(pairs), syndromes=tuple(syndromes))
    except ValueError as exc:
        raise ParseError(f"code JSON: {exc}")


def load_bc_problem(path: str) -> BcProblem:
    return bc_problem_from_obj(load_json(path))


def load_bc_code(path: str) -> BcCode:
    return bc_code_from_obj(load_json(path), base_dir=os.path.dirname(path) or ".")


def parse_symbols(text: str) -> tuple[int, ...]:
    """A syndrome/message literal: digits, optionally comma-separated."""
    text = text.strip()
    if text == "":
        return ()
    if "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"cannot parse symbol string {text!r}")
