"""Brute-force reference answers for the benchmark's output checks.

Written from the definitions, independently of ``hashprop``: nothing here
imports the package.  Sequences are binary and indexed in lexicographic
order (index i is the binary expansion of i, most significant symbol first),
so "first in index order" is the lexicographic tie-break every decoder in the
package documents.  Ties are taken within ``TIE_TOL``: two candidates with
the same joint type get bit-identical scores here, and mathematically tied
types differ by a few ulps at most.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TIE_TOL = 1e-9


def all_sequences(n: int) -> np.ndarray:
    """Every binary sequence of length n, one per row, in lexicographic order."""
    idx = np.arange(1 << n, dtype=np.int64)
    return (idx[:, None] >> np.arange(n - 1, -1, -1, dtype=np.int64)) & 1


def syndrome_keys(seqs: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Integer label of each row's syndrome ``mat @ x mod 2``."""
    syn = seqs @ mat.T % 2
    return syn @ (1 << np.arange(mat.shape[0], dtype=np.int64))


def _cell_tables(mu: np.ndarray, n: int):
    """Per-cell lookup tables over counts 0..n: divergence terms
    (c/n) log2(c / (n mu)) and masses mu^c."""
    counts = np.arange(n + 1, dtype=np.float64)
    div, mass = [], []
    for m in np.asarray(mu, dtype=np.float64).reshape(-1):
        nu = counts / n
        with np.errstate(divide="ignore", invalid="ignore"):
            term = nu * (np.log2(nu) - np.log2(m)) if m > 0 else np.full(n + 1, np.inf)
        term[0] = 0.0
        div.append(term)
        mass.append(m ** counts)
    return div, mass


def pair_divergence(x, y, mu: np.ndarray) -> float:
    """D(joint type of (x, y) || mu) for binary sequences x, y."""
    n = len(x)
    div, _ = _cell_tables(mu, n)
    cells = [0, 0, 0, 0]
    for a, b in zip(x, y):
        cells[2 * a + b] += 1
    return float(sum(div[c][cells[c]] for c in range(4)))


def sw_md_error(mat_x: np.ndarray, mat_y: np.ndarray, mu: np.ndarray) -> float:
    """Exact error probability of two-source minimum-divergence decoding.

    The decoder is correct exactly when the source pair is the pair it
    outputs for that syndrome pair, so the error is one minus the total mass
    of the decoded pairs, one per syndrome pair.
    """
    n = mat_x.shape[1]
    seqs = all_sequences(n)
    key_x = syndrome_keys(seqs, mat_x)
    key_y = syndrome_keys(seqs, mat_y)
    w = seqs.sum(axis=1)
    n11 = seqs @ seqs.T
    n10 = w[:, None] - n11
    n01 = w[None, :] - n11
    n00 = n - n10 - n01 - n11
    div, mass = _cell_tables(mu, n)
    d = (div[0][n00] + div[1][n01] + div[2][n10] + div[3][n11]).ravel()
    p = (mass[0][n00] * mass[1][n01] * mass[2][n10] * mass[3][n11]).ravel()
    keys = (key_x[:, None] * (1 << mat_y.shape[0]) + key_y[None, :]).ravel()
    best = np.full(int(keys.max()) + 1, np.inf)
    np.minimum.at(best, keys, d)
    ok = d <= best[keys] + TIE_TOL
    positions = np.flatnonzero(ok)
    _, first = np.unique(keys[positions], return_index=True)
    return float(1.0 - math.fsum(p[positions[first]]))


def coset_members(mat: np.ndarray, syndrome) -> list[tuple[int, ...]]:
    """Binary solutions of ``mat @ x = syndrome (mod 2)`` in lexicographic order."""
    n = mat.shape[1]
    seqs = all_sequences(n)
    target = np.asarray(syndrome, dtype=np.int64).reshape(-1)
    hit = ((seqs @ mat.T % 2) == target).all(axis=1)
    return [tuple(int(v) for v in row) for row in seqs[hit]]


def md_decode(mats, syndromes, mu: np.ndarray):
    """Lexicographically first minimum-divergence member of the two-terminal
    coset product, with its divergence; ``(None, inf)`` if the product is
    empty."""
    cosets = [coset_members(m, s) for m, s in zip(mats, syndromes)]
    best, best_d = None, math.inf
    for x, y in itertools.product(*cosets):
        d = pair_divergence(x, y, mu)
        if best is None or d < best_d - TIE_TOL:
            best, best_d = (x, y), d
    return best, best_d


def bc_ml_error(channel: np.ndarray, mu_u: np.ndarray, f: np.ndarray,
                pairs, syndromes) -> float:
    """Exact error of a two-receiver broadcast code with a deterministic
    symbol map, the minimum-divergence encoder and per-receiver ML decoders,
    under uniform messages.

    channel[y1, y2, x] is the channel law, mu_u[u1, u2] the auxiliary law and
    f[u1, u2] the channel input.  pairs[j] = (A_j, A'_j) as dense 0/1 arrays;
    syndromes[j] is receiver j's shared syndrome.  Enumerates every message
    pair and every output sequence pair, so it is for n <= 3 or so.
    """
    n = pairs[0][0].shape[1]
    seqs = all_sequences(n)
    images = [sorted({tuple(int(v) for v in r) for r in seqs @ ap.T % 2})
              for _, ap in pairs]
    # receiver posteriors P(U_j = u | Y_j = y)
    joint = np.zeros((2, 2, 2, 2))  # (u1, u2, y1, y2)
    for u1, u2 in itertools.product(range(2), repeat=2):
        joint[u1, u2] = mu_u[u1, u2] * channel[:, :, f[u1, u2]]
    post = []
    for j in range(2):
        pair = joint.sum(axis=(1, 3)) if j == 0 else joint.sum(axis=(0, 2))
        post.append(pair / pair.sum(axis=0, keepdims=True))

    def decode(j, y):
        a_m, ap_m = pairs[j]
        best, best_s = None, -math.inf
        for u in coset_members(a_m, syndromes[j]):
            s = sum(math.log2(post[j][ui, yi]) if post[j][ui, yi] > 0 else -math.inf
                    for ui, yi in zip(u, y))
            if best is None or s > best_s + TIE_TOL:
                best, best_s = u, s
        return tuple(int(v) for v in np.asarray(ap_m) @ np.asarray(best) % 2)

    p_ok = 0.0
    p_msg = 1.0 / (len(images[0]) * len(images[1]))
    for m1, m2 in itertools.product(*images):
        stacks = [coset_members(np.vstack([a, ap]), tuple(s) + m)
                  for (a, ap), s, m in zip(pairs, syndromes, (m1, m2))]
        enc, enc_d = None, math.inf
        for u1, u2 in itertools.product(*stacks):
            d = pair_divergence(u1, u2, mu_u)
            if enc is None or d < enc_d - TIE_TOL:
                enc, enc_d = (u1, u2), d
        if enc is None:
            continue
        x = [int(f[a, b]) for a, b in zip(*enc)]
        for ys in itertools.product(itertools.product(range(2), repeat=2), repeat=n):
            prob = math.prod(channel[y1, y2, xi] for (y1, y2), xi in zip(ys, x))
            if prob == 0.0:
                continue
            y1s = tuple(y[0] for y in ys)
            y2s = tuple(y[1] for y in ys)
            if decode(0, y1s) == m1 and decode(1, y2s) == m2:
                p_ok += p_msg * prob
    return 1.0 - p_ok
