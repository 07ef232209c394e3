"""Method-of-types toolkit: entropies, divergences, typicality, slacks."""

import itertools
import math

import numpy as np
import pytest

from hashprop import types
from hashprop.types import (
    CondDistribution,
    Distribution,
    DistributionError,
    TypicalityParams,
    cond_divergence,
    cond_entropy,
    divergence,
    empirical,
    entropy,
    eta_slack,
    is_cond_typical,
    is_joint_typical,
    is_typical,
    joint_type,
    lambda_slack,
    mutual_information,
    product_divergences,
    product_member,
    slack_functions,
    type_census,
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


def test_cond_entropy_chain_rule():
    joint = Distribution([[0.4, 0.1], [0.2, 0.3]])
    hv = entropy(joint.marginal((1,)))
    huv = cond_entropy(joint.conditional((0,), (1,)), joint.marginal((1,)))
    assert hv + huv == pytest.approx(entropy(joint))


def test_divergence_conventions():
    assert divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert math.isinf(divergence([0.5, 0.5], [1.0, 0.0]))
    assert divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)
    assert divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(1.0)


def test_cond_divergence_weighted():
    q = CondDistribution([[1.0, 0.5], [0.0, 0.5]])
    r = CondDistribution([[0.5, 0.5], [0.5, 0.5]])
    p = Distribution([0.5, 0.5])
    assert cond_divergence(q, r, p) == pytest.approx(0.5)
    # zero-weight contexts are skipped even when their slice diverges
    assert cond_divergence(q, r, Distribution([0.0, 1.0])) == 0.0


def test_mutual_information():
    indep = Distribution(np.outer([0.3, 0.7], [0.6, 0.4]))
    assert mutual_information(indep) == pytest.approx(0.0, abs=1e-12)
    eq = Distribution([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(eq) == pytest.approx(1.0)


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
    assert slack_functions("lambda", 2, 3) == pytest.approx(4.0 / 3.0)
    assert slack_functions("zeta", 2, 0, gamma=0.5) == zeta_slack(2, 0.5)
    with pytest.raises(DistributionError):
        slack_functions("nope", 2, 3)


def test_type_census_totals():
    mu = np.array([0.7, 0.3])
    census = type_census(mu, 6)
    assert sum(c for _, c, _, _ in census) == 2 ** 6
    assert sum(m for _, _, m, _ in census) == pytest.approx(1.0)


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
        verify_typicality_bounds("prob", mu, gamma=0.5, n=4, cap=8)
    with pytest.raises(DistributionError):
        verify_typicality_bounds("trans", mu, gamma=0.5, n=4)


def test_product_divergences_bit_exact_across_chunks(monkeypatch):
    """The count-lookup scorer equals divergence(joint_type(..).empirical())
    bit for bit, in itertools.product order, also across chunk boundaries."""
    monkeypatch.setattr(types, "SCORE_CHUNK", 7)
    rng = np.random.default_rng(12)
    laws = [Distribution([[0.475, 0.025], [0.025, 0.475]]),
            Distribution([[0.6, 0.0], [0.1, 0.3]]),
            Distribution([[0.3, 0.05], [0.05, 0.3], [0.1, 0.2]]),
            Distribution(np.full((2, 2, 2), 1 / 8))]
    for mu in laws:
        n = int(rng.integers(2, 6))
        factors = [rng.integers(0, size, size=(int(rng.integers(1, 6)), n))
                   for size in mu.shape]
        got = product_divergences(factors, mu)
        for i, cand in enumerate(itertools.product(*(f.tolist() for f in factors))):
            expected = divergence(joint_type(cand, mu.shape).empirical(), mu)
            assert got[i] == expected
            assert product_member(factors, i) == tuple(map(tuple, cand))
