"""Urn chain: transitions, samplers, exact enumerations, tau."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from conftest import master_stream
from kingman import urn, verify


@given(st.integers(2, 40), st.data())
def test_transitions_form_a_distribution(n, data):
    k = data.draw(st.integers(0, n - 2))
    u = data.draw(st.sampled_from(urn.states(n, k)))
    down, stay, up = urn.transition_probabilities(n, k, u)
    assert down + stay + up == 1
    assert min(down, stay, up) >= 0
    assert all(isinstance(p, Fraction) for p in (down, stay, up))


def test_transition_values_small():
    # n=6, k=2, u=1: C(1,2)=0 down, 1*(4-1)=3 stay, C(3,2)=3 up, over C(4,2)=6
    down, stay, up = urn.transition_probabilities(6, 2, 1)
    assert (down, stay, up) == (0, Fraction(1, 2), Fraction(1, 2))
    # boundary start: k=0, u=0 forces an up-step
    assert urn.transition_probabilities(5, 0, 0) == (0, 0, 1)


def test_transition_rejects_bad_state():
    with pytest.raises(ValueError):
        urn.transition_probabilities(6, 2, 5)  # more red balls than balls left
    with pytest.raises(ValueError):
        urn.transition_probabilities(6, 5, 1)  # step index beyond n-2
    with pytest.raises(ValueError):
        urn.transition_probabilities(1, 0, 0)


def test_urn_path_invariants():
    urn.UrnPath(4, (0, 1, 2, 1, 0))
    with pytest.raises(ValueError):
        urn.UrnPath(4, (0, 1, 3, 1, 0))  # jump of 2
    urn.UrnPath(6, (0, 1, 2, 3, 2, 1, 0))  # the peaked path is admissible


@pytest.mark.parametrize("n, u, message", [
    (6, (1, 1, 2, 2, 2, 1, 0), "U_0=1 outside 0..0"),
    (6, (0, 2, 2, 2, 2, 1, 0), "U_1=2 outside 1..1"),
    (6, (0, 1, 2, 3, 3, 1, 0), "U_4=3 outside 1..2"),
    (6, (0, 1, 2, 2, 2, 2, 0), "U_5=2 outside 1..1"),
    (6, (0, 1, 2, 2, 2, 1, 1), "U_6=1 outside 0..0"),
    (4, (0, 1, 1.5, 1, 0), "U_2=1.5 outside 1..2"),
], ids=["U_0", "U_1", "interior", "U_(n-1)", "U_n", "non-integer"])
def test_urn_path_refuses_a_value_outside_the_states(n, u, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        urn.UrnPath(n, u)


def test_pair_counts_and_states_are_the_step():
    for n in range(2, 61):
        for k in range(n):
            us = np.arange(n - k + 1)
            assert np.array_equal(np.array(urn.pair_counts(n, k, us)).T,
                                  [urn.pair_counts(n, k, int(u)) for u in us]), (n, k)
        for k in range(n + 1):
            for u in urn.states(n, k):
                counts = urn.pair_counts(n, k, u)
                assert min(counts) >= 0 and sum(counts) == math.comb(n - k, 2), (n, k, u)
    for n in range(2, 13):
        for k, law in enumerate(urn.exact_marginal(n)):
            assert set(urn.states(n, k)) == set(law), (n, k)


def test_exact_path_law_n4_frozen():
    # independent hand enumeration: from (0,1,?) the step at k=1 (u=1, n-k-u=2)
    # stays with probability 1*2/3 and rises with probability 1/3
    law = urn.exact_path_law(4)
    assert law[(0, 1, 1, 1, 0)] == Fraction(2, 3)
    assert law[(0, 1, 2, 1, 0)] == Fraction(1, 3)
    assert len(law) == 2


def test_exact_path_law_normalizes():
    for n in range(2, 8):
        law = urn.exact_path_law(n)
        assert sum(law.values()) == 1
        for path in law:
            urn.UrnPath(n, path)  # every outcome is an admissible trajectory


def path_marginal(law, *steps):
    """The law of the path's values at steps, from a law over whole paths."""
    out = {}
    for path, p in law.items():
        key = tuple(path[k] for k in steps)
        out[key] = out.get(key, Fraction(0)) + p
    return out


def test_exact_marginal_matches_path_enumeration():
    # every marginal and every joint law, against the enumerated paths at each n <= 9
    for n in range(2, urn.MAX_PATH_ENUM_N + 1):
        law = urn.exact_path_law(n)
        marginals = urn.exact_marginal(n)
        assert len(marginals) == n + 1
        for k, marginal in enumerate(marginals):
            assert dict(marginal) == {u: p for (u,), p in path_marginal(law, k).items()}, (n, k)
            joints = urn.exact_joint_marginal(n, k)
            assert len(joints) == n + 1 - k
            for l, joint in enumerate(joints, k):
                assert dict(joint) == path_marginal(law, k, l), (n, k, l)


def test_joint_marginal_consistency():
    n, k, l = 8, 3, 5
    joint = urn.exact_joint_marginal(n, k)[l - k]
    assert sum(joint.values()) == 1
    left, right = {}, {}
    for (a, b), p in joint.items():
        left[a] = left.get(a, Fraction(0)) + p
        right[b] = right.get(b, Fraction(0)) + p
    marginals = urn.exact_marginal(n)
    assert (left, right) == (dict(marginals[k]), dict(marginals[l]))


def test_chain_moments_step_each_law_once(monkeypatch):
    # one pass per n for the marginals, one per state of U_k for the joint laws; stepping
    # U_k's marginal again for each (k, l) took 4 651 calls
    calls, step_law = [], urn.step_law
    monkeypatch.setattr(urn, "step_law", lambda *args: calls.append(args) or step_law(*args))
    assert verify.check_chain_moments(7).passed
    assert len(calls) < 2_000, len(calls)


@given(st.integers(2, 60), st.data())
def test_hypergeometric_pmf_normalizes(n, data):
    k = data.draw(st.integers(1, n - 1))
    total = sum(urn.hypergeometric_pmf(n, k, u - 1) for u in urn.states(n, k))
    assert total == 1


def test_sampler_matches_exact_law():
    n, reps = 5, 20_000
    law = urn.exact_path_law(n)
    rng = master_stream(123)
    counts = {path: 0 for path in law}
    for _ in range(reps):
        counts[urn.sample_urn_path(n, rng).u] += 1
    chi2 = sum((counts[p] - reps * float(q)) ** 2 / (reps * float(q))
               for p, q in law.items())
    p_value = float(gammaincc((len(law) - 1) / 2.0, chi2 / 2.0))
    assert p_value > 0.001


def test_box_scheme_sampler_has_the_exact_path_law():
    for n in range(2, 6):
        assert urn.enumerated_law(
            lambda rng: urn.sample_box_scheme(n, rng).u) == urn.exact_path_law(n), n


def reverse_path(p):
    return urn.UrnPath(p.n, tuple(reversed(p.u)))


def tau_first_hit(p):
    """max{k >= 1 : U_k = k}: the step count before the first red removal."""
    return max(k for k in range(1, p.n) if p.u[k] == k)


def test_reverse_path_and_tau_duality():
    rng = master_stream(5)
    for _ in range(300):
        p = urn.sample_urn_path(9, rng)
        r = reverse_path(p)
        assert reverse_path(r) == p
        # reversal swaps the two equivalent definitions of tau
        assert urn.tau(p) == tau_first_hit(r)
        assert urn.tau(r) == tau_first_hit(p)


def local_balance_pairs(n):
    """(pi_i(u) p_i(u, v), pi_(i+1)(v) p_(n-1-i)(v, u)) for every step i and pair (u, v)
    on which either side is nonzero, with pi_i the law of U_i by exact_marginal.

    Both the chain and its reversal start at 0, so (U_0..U_n) and (U_n..U_0) are
    equal in law if and only if every pair is equal: the theorem from the
    transitions alone, without enumerating paths.
    """
    laws = urn.exact_marginal(n)
    for i in range(n):  # step_law of the point mass pi_i(u) at u is pi_i(u) p_i(u, .)
        forward = {(u, v): q for u, p in laws[i].items()
                   for v, q in urn.step_law(n, i, {u: p}).items()}
        backward = {(u, v): q for v, p in laws[i + 1].items()
                    for u, q in urn.step_law(n, n - 1 - i, {v: p}).items()}
        for key in forward.keys() | backward.keys():
            yield forward.get(key, 0), backward.get(key, 0)


LOCAL_BALANCE_PAIRS = 241_523  # at n <= 100


def test_reversal_by_local_balance():
    # every n to 100, where check_reversibility's path enumeration stops at n = 9
    report = verify._exact_report("local_balance", 100, 0, local_balance_pairs)
    assert (report.params["checks"], report.statistic) == (LOCAL_BALANCE_PAIRS, 0), report


def test_same_law_fails_an_outcome_only_one_law_lists():
    # a listed outcome of probability 0 is not the same law as an unlisted one
    report = verify._exact_report(
        "support", 2, 0, lambda n: verify._same_law({1: urn.ONE}, {1: urn.ONE, 2: urn.ZERO}))
    assert (report.params["checks"], report.statistic) == (2, 1), report


def test_tau_examples():
    assert urn.tau(urn.UrnPath(4, (0, 1, 1, 1, 0))) == 1
    assert urn.tau(urn.UrnPath(4, (0, 1, 2, 1, 0))) == 2
    assert urn.tau(urn.UrnPath(2, (0, 1, 0))) == 1


def test_tau_exact_law_normalizes_and_tail_monotone():
    for n in range(2, 12):
        law = urn.tau_exact_law(n)
        assert sum(law.values()) == 1
        tails = [urn.tau_exact_tail(n, k) for k in range(1, n + 2)]
        assert tails[0] == 1
        assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_tau_sqrt_n_scaling():
    # tail at k ~ t sqrt(n) approaches exp(-t^2)
    n, t = 40_000, 1.0
    k = int(t * math.sqrt(n))
    assert float(urn.tau_exact_tail(n, k)) == pytest.approx(math.exp(-t * t), rel=0.02)


def test_exact_law_lists_only_its_outcomes():
    law = urn.exact_marginal(6)[3]
    assert 99 not in law
    assert law.get(99, "d") == "d"
    assert law[99] == 0
    assert dict(law) == {1: Fraction(3, 10), 2: Fraction(3, 5), 3: Fraction(1, 10)}
    assert dict(urn.ExactLaw({1: 0.5, 2: 0, 3: Fraction(1, 2)})) == {1: Fraction(1, 2),
                                                                     3: Fraction(1, 2)}
    with pytest.raises(ValueError, match="^negative probability for outcome 2$"):
        urn.ExactLaw({1: Fraction(3, 2), 2: Fraction(-1, 2)})
    with pytest.raises(ValueError, match="^probabilities sum to 3/4, not 1$"):
        urn.ExactLaw({1: Fraction(1, 2), 2: Fraction(1, 4)})


def test_exact_law_json_shape():
    law = urn.exact_marginal(6)[3]
    rows = [{"outcome": str(o), "num": str(p.numerator), "den": str(p.denominator)}
            for o, p in sorted(law.items(), key=lambda item: str(item[0]))]
    assert all(set(r) == {"outcome", "num", "den"} for r in rows)
    assert sum(Fraction(int(r["num"]), int(r["den"])) for r in rows) == 1


@settings(max_examples=25)
@given(st.integers(2, 7), st.integers(0, 2 ** 31 - 1))
def test_sampled_paths_are_admissible(n, seed):
    p = urn.sample_urn_path(n, master_stream(seed))
    assert p.u[0] == p.u[n] == 0
    if n >= 2:
        assert p.u[1] == p.u[n - 1] == 1 or n == 2
