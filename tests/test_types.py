"""Method-of-types toolkit: entropies, divergences, typicality, slacks."""

import itertools
import math

import numpy as np
import pytest

import oracles
from hashprop import types
from hashprop.types import (
    CondDistribution,
    Distribution,
    DistributionError,
    TypicalityParams,
    cell_log_masses,
    cell_terms,
    divergence,
    empirical,
    entropy,
    eta_slack,
    first_best,
    is_cond_typical,
    is_joint_typical,
    is_typical,
    joint_type,
    key_weights,
    lambda_slack,
    product_divergences,
    product_keys,
    product_log_masses,
    product_members,
    tie_classes,
    type_census,
    type_classes,
    type_divergences,
    type_key_groups,
    type_rows,
    type_tables,
    verify_typicality_bounds,
    zeta_slack,
)


def test_distribution_validation():
    with pytest.raises(DistributionError):
        Distribution([0.5, 0.6])
    with pytest.raises(DistributionError):
        Distribution([0.5, -0.5, 1.0])
    with pytest.raises(DistributionError):
        Distribution([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_masses_are_refused(bad):
    """A NaN fails every comparison, so it needs its own check."""
    with pytest.raises(DistributionError, match="non-finite"):
        Distribution([bad, 1.0])
    with pytest.raises(DistributionError, match="non-finite"):
        CondDistribution([[bad, 0.5], [1.0, 0.5]])


def test_marginal_and_conditional():
    joint = Distribution([[0.4, 0.1], [0.2, 0.3]])
    assert np.allclose(joint.marginal((0,)).table, [0.5, 0.5])
    assert np.allclose(joint.marginal((1,)).table, [0.6, 0.4])
    cond = joint.conditional((0,), (1,))
    assert np.allclose(cond.table, [[0.4 / 0.6, 0.1 / 0.4], [0.2 / 0.6, 0.3 / 0.4]])


def test_marginal_axis_order():
    rng = np.random.default_rng(0)
    t = rng.random((2, 3, 2))
    t /= t.sum()
    joint = Distribution(t)
    swapped = joint.marginal((2, 0))
    assert np.allclose(swapped.table, t.sum(axis=1).T)


def test_cond_distribution_validation():
    with pytest.raises(DistributionError):
        CondDistribution([[0.5, 0.5], [0.6, 0.5]])


def test_entropy_values():
    assert entropy(Distribution([0.5, 0.5])) == pytest.approx(1.0)
    assert entropy(Distribution([1.0, 0.0])) == 0.0
    assert entropy(Distribution([0.25] * 4)) == pytest.approx(2.0)


def test_divergence_conventions():
    assert divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert math.isinf(divergence([0.5, 0.5], [1.0, 0.0]))
    assert divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)
    assert divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(1.0)


def test_joint_type_fixture():
    x = [0, 1, 0, 0, 1, 0, 1, 0]
    y = [0, 0, 1, 0, 1, 0, 0, 1]
    t = joint_type([x, y], (2, 2))
    assert t.n == 8
    assert t.counts == ((3, 2), (2, 1))
    assert t.table().sum() == 8


def test_joint_type_validation():
    with pytest.raises(DistributionError):
        joint_type([[0, 1], [0]], (2, 2))
    with pytest.raises(DistributionError):
        joint_type([[0, 1]], (2, 2))


def test_empirical():
    assert np.allclose(empirical([0, 1, 1, 2], 4), [0.25, 0.5, 0.25, 0.0])


def test_typicality_predicates():
    mu = Distribution([0.5, 0.5])
    assert is_typical([0, 1, 0, 1], mu, TypicalityParams(0.1))
    assert not is_typical([0, 0, 0, 0], mu, TypicalityParams(0.5))
    joint = Distribution([[0.4, 0.1], [0.2, 0.3]])
    assert is_joint_typical([[0, 0, 1, 1], [0, 1, 0, 1]], joint, TypicalityParams(0.5))
    cond = joint.conditional((0,), (1,))
    assert is_cond_typical([0, 0, 1, 1], [0, 1, 0, 1], cond,
                           TypicalityParams(0.5, 0.5))
    # a conditional type with mass where the reference has none is never typical
    det = CondDistribution([[1.0, 0.0], [0.0, 1.0]])
    assert not is_cond_typical([0, 1], [0, 0], det, TypicalityParams(1.0, 10.0))


def test_lambda_slack_value():
    assert lambda_slack(2, 3) == pytest.approx(4.0 / 3.0)


def test_zeta_eta_limits():
    assert zeta_slack(2, 0.0) == 0.0
    assert eta_slack(2, 0.0, 4) == pytest.approx(lambda_slack(2, 4))


def test_type_census_totals():
    mu = np.array([0.7, 0.3])
    classes, masses, _ = type_census(mu, 6)
    assert sum(classes.sizes) == 2 ** 6
    assert masses.sum() == pytest.approx(1.0)


def test_type_classes_are_exact_multinomials():
    """The table's class sizes equal the factorial multinomials and sum to
    parts^n: binary at every n <= 60, four cells at every n <= 12 and at
    n = 30 and 60; its rows are the oracle's compositions, in order,
    read-only int64.  One cell and n = 0 give one type each."""
    cases = [(2, n) for n in range(61)] + [(4, n) for n in list(range(13)) + [30, 60]]
    cases += [(1, n) for n in (0, 1, 7)] + [(parts, 0) for parts in (1, 3, 9)]
    for parts, n in cases:
        counts, sizes = type_classes(n, parts)
        assert counts.dtype == np.int64 and not counts.flags.writeable
        assert list(map(tuple, counts.tolist())) == list(oracles.compositions(n, parts))
        assert list(sizes) == [oracles.multinomial(t) for t in counts.tolist()], (parts, n)
        assert sum(sizes) == parts ** n


def test_type_census_counts_are_exact():
    """The census counts are the exact class sizes where a float multinomial
    is off (four cells at n = 30, binary at n = 60), and the masses, from
    the log domain, still sum to 1."""
    for mu, n in ((np.array([0.4, 0.1, 0.2, 0.3]), 30), (np.array([0.7, 0.3]), 60)):
        classes, masses, divs = type_census(mu, n)
        assert list(classes.sizes) == [oracles.multinomial(t) for t in classes.counts.tolist()]
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert divs.tolist() == type_divergences(n, mu).tolist()


def test_typicality_bounds_at_long_binary_n():
    """The tail-mass and AEP checks hold at binary n = 2000, where a type
    class has more sequences than a float can count."""
    mu = Distribution([0.7, 0.3])
    for gamma in (0.1, 0.5):
        for lemma in ("prob", "aep"):
            out = verify_typicality_bounds(lemma, mu, gamma=gamma, n=2000)
            assert out["holds"], (lemma, gamma, out)


def test_number_bound_decides_in_the_log_domain():
    """The typical-set size check runs at binary n = 1000 and 2000, where
    2^(n (h + eta)) overflows a float: it compares log2 of the exact count
    with n (h +- eta)."""
    mu = Distribution([0.7, 0.3])
    for n in (1000, 2000):
        out = verify_typicality_bounds("number", mu, gamma=0.5, n=n)
        classes, _, divs = type_census(mu.table, n)
        count = sum(size for size, d in zip(classes.sizes, divs.tolist()) if d < 0.5)
        assert out["holds"] and out["lhs"] == math.log2(count), (n, out)
        assert out["lower"] <= out["lhs"] <= out["rhs"]


def test_trans_walks_joint_types_at_n_12():
    """The trans check walks the 455 joint types of a 2 x 2 law at n = 12,
    not its 4^12 pairs, and counts every pair."""
    joint = Distribution([[0.4, 0.1], [0.2, 0.3]])
    for gamma in (0.1, 0.5, 1.0):
        out = verify_typicality_bounds("trans", joint, gamma=gamma, n=12, gamma_cond=gamma)
        assert out["holds"] and out["pairs"] == 4 ** 12, (gamma, out)


def test_trans_weights_violations_by_class_size(monkeypatch):
    """With the conditional predicate made to fail, every jointly typical
    pair (u, v) is one violation, so the type walk's count must equal the
    number of such pairs found by walking all pairs."""
    joint = Distribution([[0.4, 0.1], [0.2, 0.3]])
    monkeypatch.setattr(types, "is_cond_typical", lambda *args: False)
    n, gamma = 5, 0.3
    pairs = [(u, v) for u in itertools.product(range(2), repeat=n)
             for v in itertools.product(range(2), repeat=n)]
    expected = sum(oracles.divergence(pair, joint.table) < gamma for pair in pairs)
    out = verify_typicality_bounds("trans", joint, gamma=gamma, n=n)
    assert 0 < expected < len(pairs)
    assert (out["lhs"], out["pairs"]) == (expected, len(pairs))


def test_verify_typicality_bounds_basic():
    mu = Distribution([0.7, 0.3])
    for lemma in ("prob", "aep", "number"):
        out = verify_typicality_bounds(lemma, mu, gamma=0.5, n=8)
        assert out["holds"], (lemma, out)
    joint = Distribution([[0.4, 0.1], [0.2, 0.3]])
    out = verify_typicality_bounds("trans", joint, gamma=0.5, n=3, gamma_cond=0.5)
    assert out["holds"] and out["pairs"] == 4 ** 3


def test_verify_typicality_bounds_guards():
    mu = Distribution([0.7, 0.3])
    with pytest.raises(DistributionError):
        verify_typicality_bounds("nope", mu, gamma=0.5, n=4)
    with pytest.raises(DistributionError):
        verify_typicality_bounds("prob", mu, gamma=0.5, n=4, cap=4)  # 5 binary types
    with pytest.raises(DistributionError):
        verify_typicality_bounds("trans", mu, gamma=0.5, n=4)


def test_verify_typicality_bounds_cap_counts_types():
    """The single-sequence lemmas walk the n + 1 binary types, not the 2^n
    sequences, so n = 30 fits the default cap."""
    mu = Distribution([0.7, 0.3])
    out = verify_typicality_bounds("prob", mu, gamma=0.5, n=30)
    assert out["holds"], out


def test_product_divergences_bit_exact_across_chunks(monkeypatch):
    """The key scorer equals divergence(joint_type(..).empirical()) and a
    math.log2 sum of the log-mass bit for bit, in itertools.product order
    per batch row, also across chunk boundaries and batch rows; a one-row
    factor serves every batch row.  The 2x2x2 law at n = 12 runs at the
    default chunk, where keying all its cells would need 13^7 entries, so
    its cells fall into several lookup groups."""
    rng = np.random.default_rng(12)
    laws = [Distribution([[0.475, 0.025], [0.025, 0.475]]),
            Distribution([[0.6, 0.0], [0.1, 0.3]]),
            Distribution([[0.3, 0.05], [0.05, 0.3], [0.1, 0.2]]),
            Distribution(np.full((2, 2, 2), 1 / 8))]
    cube = Distribution(np.array([6, 1, 2, 3, 0, 4, 5, 15]).reshape(2, 2, 2) / 36)
    assert len(type_key_groups(8, 12)) > 1
    for mu, n, chunk in [(law, None, 7) for law in laws] + [(cube, 12, types.SCORE_CHUNK)]:
        monkeypatch.setattr(types, "SCORE_CHUNK", chunk)
        n = int(rng.integers(2, 6)) if n is None else n
        rows = int(rng.integers(1, 4))
        factors = [rng.integers(0, size, size=(rows if j else 1, int(rng.integers(1, 6)), n))
                   for j, size in enumerate(mu.shape)]
        got = product_divergences(factors, mu.table)
        log_masses = product_log_masses(factors, mu.table)
        picks = rng.integers(0, got.shape[1], size=rows)
        chosen = product_members(factors, picks)
        for d in range(rows):
            row = [f[d if len(f) > 1 else 0] for f in factors]
            candidates = list(itertools.product(*(f.tolist() for f in row)))
            for i, cand in enumerate(candidates):
                t = joint_type(cand, mu.shape)
                assert got[d, i] == divergence(t.empirical(), mu)
                assert log_masses[d, i] == oracles.log2_mass(cand, mu.table)
            assert tuple(map(tuple, chosen[d].tolist())) == tuple(map(tuple, candidates[picks[d]]))


def test_type_divergences_equal_divergence_on_every_type():
    """The per-cell-term score of every length-n type, n <= 8, is the float
    divergence(t / n, mu) gives, zero-mass cells and three sources included."""
    laws = [Distribution([[0.475, 0.025], [0.025, 0.475]]),
            Distribution([[0.6, 0.0], [0.1, 0.3]]),
            Distribution(np.array([6, 1, 2, 3, 0, 4, 5, 15]).reshape(2, 2, 2) / 36)]
    for mu in laws:
        for n in range(1, 9):
            got = type_divergences(n, mu.table)
            ref = [divergence(np.asarray(t) / n, mu) for t in oracles.compositions(n, mu.table.size)]
            assert [x.hex() for x in got.tolist()] == [float(x).hex() for x in ref], (mu, n)


def test_first_best_rule():
    """first_best minimizes per row: NaN entries are not candidates, a row of
    NaN gives -1, a row of inf gives its first non-NaN index, and costs
    within TIE_TOL of the minimum tie, the earliest winning; a cost
    2 TIE_TOL above the minimum does not tie."""
    tol, nan, inf = types.TIE_TOL, math.nan, math.inf
    costs = np.array([[nan, 3.0, 1.0, nan, 1.0],
                      [nan, nan, nan, nan, nan],
                      [nan, inf, inf, nan, inf],
                      [2.0, 1.0 + tol / 2, 1.0, 1.0 + tol, 1.5],
                      [1.0 + 2 * tol, nan, 1.0, 1.0, 2.0]])
    assert first_best(costs).tolist() == [2, -1, 1, 1, 2]
    assert first_best(costs[3]) == 1  # one row, no batch axis


def _decide_both_ways(terms, masses, n, rng, rows=300):
    """Rows of candidates drawn from the one-group costs of a law, with NaN
    slots, rows of NaN, rows of +inf and rows holding a pair of unequal
    costs within TIE_TOL: the first_best of the costs and the first least
    tie-class id (argmin, -1 at the blank id) of each row, and the number
    of such near pairs among the costs."""
    ncells = len(masses)
    keys = type_classes(n, ncells).counts @ types.key_weights(tuple(range(ncells)), ncells, n)
    table = type_tables(terms, masses, n, types.SCORE_CHUNK)[0][1]
    costs = (table if terms is cell_terms else -table)[keys]
    ties = tie_classes(terms, masses, n)
    finite = np.flatnonzero(np.isfinite(costs))
    order = finite[np.argsort(costs[finite], kind="stable")]
    gaps = np.diff(costs[order])
    near = np.flatnonzero((gaps > 0) & (gaps <= types.TIE_TOL))[:rows - 10]
    # candidates from three random keys each, so exact ties are common
    picks = np.take_along_axis(rng.integers(0, len(keys), size=(rows, 3)),
                               rng.integers(0, 3, size=(rows, 6)), axis=1)
    picks[:len(near), :2] = np.stack([order[near + 1], order[near]], axis=1)
    inf = np.flatnonzero(np.isinf(costs))
    if len(inf):
        picks[-5:] = rng.choice(inf, size=(5, 6))
    blank = rng.random(picks.shape) < 0.25
    blank[-10:-5] = True
    blank[:len(near), :2] = False
    want = first_best(np.where(blank, np.nan, costs[picks]))
    ids = np.where(blank, ties.blank, ties.ids[keys[picks]])
    got = np.where(ids.min(axis=1) == ties.blank, -1, ids.argmin(axis=1))
    return want, got, len(near)


def test_tie_classes_decide_as_first_best():
    """On one-group laws (2 x 2 with ties of several ulps between types
    of one mathematical cost, a zero-mass cell whose costs are +inf, the
    uniform law, three cells, random laws), the argmin of each row's tie
    classes is the first_best of its float costs, rows without a candidate
    included."""
    rng = np.random.default_rng(17)
    laws = [(0.45, 0.05, 0.05, 0.45), (0.475, 0.025, 0.025, 0.475), (0.3, 0.2, 0.2, 0.3),
            (0.5, 0.25, 0.0, 0.25), (0.25,) * 4, (0.6, 0.3, 0.1)]
    laws += [tuple(rng.dirichlet(np.ones(4)).tolist()) for _ in range(3)]
    near = infinite = empty = 0
    for masses in laws:
        for n in (1, 4, 6, 8):
            assert len(type_key_groups(len(masses), n)) == 1
            for terms in (cell_terms, cell_log_masses):
                want, got, pairs = _decide_both_ways(terms, masses, n, rng)
                assert got.tolist() == want.tolist(), (masses, n, terms.__name__)
                near += pairs
                infinite += 0.0 in masses
                empty += (want == -1).sum()
    assert near > 0 and infinite > 0 and empty > 0


def test_tie_classes_that_chain_past_the_tolerance_are_none(monkeypatch):
    """At TIE_TOL = 0.05, the costs of a 2 x 2 law at n = 5 chain: some
    class's largest cost + TIE_TOL reaches the next class, so no classes
    are given, although the classes at the default tolerance were just
    cached; at n = 2 they stay separated and still decide as first_best at
    that tolerance."""
    law = (0.3, 0.2, 0.15, 0.35)
    assert tie_classes(cell_terms, law, 5) is not None
    monkeypatch.setattr(types, "TIE_TOL", 0.05)
    for terms in (cell_terms, cell_log_masses):
        assert tie_classes(terms, law, 5) is None
        want, got, _ = _decide_both_ways(terms, law, 2, np.random.default_rng(3))
        assert got.tolist() == want.tolist()


def test_product_keys_slices_long_rows(monkeypatch):
    """product_keys keys at most max(1, SCORE_CHUNK // D) candidates per
    batch row at a time, also when one row's product exceeds SCORE_CHUNK;
    its pieces tile the product in itertools.product order, and each group
    key is the candidate's joint-type counts times the group's weights.
    Each case keys all cells in one group, but the last, which splits its
    8 cells into a keyed run and single cells."""
    monkeypatch.setattr(types, "SCORE_CHUNK", 8)
    rng = np.random.default_rng(5)
    cases = [(rows, widths, 5 ** 7) for rows, widths in
             [(1, (5, 30)), (1, (3, 4, 5)), (2, (3, 3)), (1, (40,)), (3, (2, 9)), (9, (2, 2))]]
    for rows, widths, limit in cases + [(2, (3, 4, 5), 25)]:
        factors = [rng.integers(0, 2, size=(rows, m, 4)) for m in widths]
        shape, ncells = (2,) * len(widths), 2 ** len(widths)
        groups = type_key_groups(ncells, 4, limit)
        assert (len(groups) > 1) == (limit == 25)
        # weights 5^i on a group's cells, but none on the last cell of a
        # group of every cell, whose count the others fix
        weights = []
        for cells in groups:
            keyed = cells[:-1] if len(cells) == ncells else cells
            weights.append([5 ** keyed.index(c) if c in keyed else 0 for c in range(ncells)])
        assert weights == [key_weights(cells, ncells, 4).tolist() for cells in groups]
        end = 0
        for span, keys in product_keys(factors, shape, groups):
            assert span.start == end and 0 < span.stop - span.start <= max(1, 8 // rows)
            assert [key.shape for key in keys] == [(rows, span.stop - span.start)] * len(groups)
            end = span.stop
            for d in range(rows):
                candidates = list(itertools.product(*(f[d].tolist() for f in factors)))
                for i, cand in enumerate(candidates[span], start=span.start):
                    counts = np.asarray(joint_type(cand, shape).counts).reshape(-1)
                    assert [key[d, i - span.start] for key in keys] == [counts @ w for w in weights]
        assert end == math.prod(widths)


@pytest.mark.parametrize("chunk", [types.SCORE_CHUNK, 7])
def test_type_rows_name_every_table_row(monkeypatch, chunk):
    """Every row of type_classes(n, ncells), keyed in each lookup group as
    sum_i count_i (n+1)^i over the group's keyed cells, maps back to that
    row: one group (4 cells, n = 12), several groups (8 and 9 cells, n = 4),
    one cell, and n = 0; at a chunk of 7 every case has several groups but
    one cell.  Keys in any array shape give rows in that shape."""
    monkeypatch.setattr(types, "SCORE_CHUNK", chunk)
    for ncells, n in [(4, 12), (8, 4), (9, 4), (1, 5), (3, 0)]:
        groups = type_key_groups(ncells, n)
        if chunk == 7:
            assert (len(groups) > 1) == (ncells > 1 and n > 0), (ncells, n)
        elif ncells in (8, 9):
            assert len(groups) > 1
        counts = type_classes(n, ncells).counts
        keys = []
        for cells in groups:
            keyed = cells[:-1] if len(cells) == ncells else cells
            keys.append(sum(counts[:, c] * (n + 1) ** i for i, c in enumerate(keyed))
                        + np.zeros(len(counts), dtype=np.int64))
        rows = np.arange(len(counts))
        assert type_rows(keys, n, ncells, groups).tolist() == rows.tolist(), (ncells, n)
        picks = np.random.default_rng(ncells).integers(0, len(counts), size=(2, 3))
        got = type_rows([key[picks] for key in keys], n, ncells, groups)
        assert got.shape == (2, 3) and got.tolist() == picks.tolist()
