"""Primitives: rng streams, simplex checks, belief algebra, trajectories."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisionlab.core import (
    Belief,
    KernelPair,
    Rng,
    TabularTask,
    Trajectory,
    Unsupported,
    ZeroLikelihood,
    belief_predictive,
    belief_update,
    kl_divergence,
)
from decisionlab.core import _validated_probs


def random_simplex(rng, n):
    x = rng.uniform(size=n) + 1e-3
    return x / x.sum()


# ---------------------------------------------------------------------------
# Rng


def test_rng_same_key_same_draws():
    a, b = Rng(123, 7), Rng(123, 7)
    assert np.array_equal(a.uniform(size=50), b.uniform(size=50))
    assert np.array_equal(a.integers(0, 1000, size=20), b.integers(0, 1000, size=20))


def test_rng_distinct_streams_differ():
    a, b = Rng(123, 0), Rng(123, 1)
    assert not np.array_equal(a.uniform(size=50), b.uniform(size=50))


def test_rng_split_is_deterministic_and_disjoint():
    root = Rng(9)
    kids1 = [root.split(i).uniform(size=8) for i in range(5)]
    kids2 = [Rng(9).split(i).uniform(size=8) for i in range(5)]
    for x, y in zip(kids1, kids2):
        assert np.array_equal(x, y)
    for i in range(5):
        for j in range(i + 1, 5):
            assert not np.array_equal(kids1[i], kids1[j])


def test_rng_split_independent_of_consumption():
    a = Rng(4, 2)
    a.uniform(size=100)  # consuming the parent must not move child streams
    b = Rng(4, 2)
    assert np.array_equal(a.split(3).uniform(size=8), b.split(3).uniform(size=8))


def test_rng_nested_split_reproducible():
    x = Rng(11).split(2).split(5).uniform(size=4)
    y = Rng(11).split(2).split(5).uniform(size=4)
    assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 2**64 - 1])
def test_rng_draws_the_philox_stream_of_its_key(monkeypatch, seed, stream):
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox",
                        lambda *a, **k: built.append(1) or philox(*a, **k))
    rng = Rng(seed, stream)
    rng.split(3)
    assert built == []  # nothing is built before the first draw
    want = np.random.Generator(philox(key=seed | stream << 64))
    assert np.array_equal(rng.uniform(size=16), want.uniform(size=16))
    assert np.array_equal(rng.standard_normal(16), want.standard_normal(16))
    assert len(built) == 1


@pytest.mark.parametrize("seed, stream", [(0, 0), (2**64 - 1, 7)])
def test_rng_chisquare_is_the_philox_generator_chisquare(seed, stream):
    df = np.array([50.0, 49.0, 3.0, 1.0])
    want = np.random.Generator(np.random.Philox(key=seed | stream << 64)).chisquare(df, (64, 4))
    assert Rng(seed, stream).chisquare(df, (64, 4)).tobytes() == want.tobytes()


def test_pickled_rng_continues_its_stream():
    fresh, used = Rng(21, 4), Rng(21, 4)
    used.uniform(size=5)
    for rng in (fresh, used):
        copy = pickle.loads(pickle.dumps(rng))
        assert (copy.seed, copy.stream) == (21, 4)
        assert np.array_equal(copy.uniform(size=8), rng.uniform(size=8))
    assert np.array_equal(fresh.uniform(size=8), Rng(21, 4).uniform(size=16)[8:])


@pytest.mark.parametrize("T", [1, 2, 3, 7, 100])
def test_block_draws_equal_successive_scalar_draws(T):
    # batched mdp episodes draw each stream as one block where rollout draws
    # one value per period; the two must be the same values in the same order
    for seed in range(30):
        block, scalar = Rng(seed, T), Rng(seed, T)
        assert block.gen.random(T).tolist() == [scalar.gen.random() for _ in range(T)]
        for A in range(1, 20):
            block, scalar = Rng(seed).split(A * 1000 + T), Rng(seed).split(A * 1000 + T)
            assert block.integers(0, A, size=T).tolist() == [
                int(scalar.integers(0, A)) for _ in range(T)]


def test_draw_index_matches_empirical_frequencies():
    probs = np.array([0.2, 0.5, 0.3])
    counts = np.zeros(3)
    rng = Rng(0, 1)
    n = 20000
    for _ in range(n):
        counts[rng.draw_index(probs)] += 1
    assert np.abs(counts / n - probs).max() < 0.02


def test_draw_index_degenerate_rows():
    rng = Rng(1)
    for k in range(3):
        probs = np.zeros(3)
        probs[k] = 1.0
        assert all(rng.draw_index(probs) == k for _ in range(5))


def test_draw_index_consumes_one_uniform():
    # paired rollouts rely on a fixed draw count per categorical sample
    a, b = Rng(5, 3), Rng(5, 3)
    a.draw_index(np.array([0.25, 0.25, 0.5]))
    b.uniform()
    assert a.uniform() == b.uniform()


def _draw_index_reference(rng, probs):
    """Inverse-CDF draw through numpy's scalar search and clip."""
    u = rng.gen.uniform()
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=100).filter(lambda w: sum(w) > 0),
       st.sampled_from([1.0, 1.0 - 1e-12, 0.5]), st.integers(0, 2**63), st.integers(1, 30))
def test_draw_index_matches_the_searchsorted_reference(weights, mass, seed, draws):
    # a row whose mass falls short of 1 exercises the upper bound of the index
    probs = mass * np.array(weights) / sum(weights)
    fast, reference = Rng(seed), Rng(seed)
    for _ in range(draws):
        assert fast.draw_index(probs) == _draw_index_reference(reference, probs)
    assert fast.gen.random() == reference.gen.random()  # the streams stay aligned


# ---------------------------------------------------------------------------
# simplex validation


def test_validated_probs_accepts_and_locks():
    p = _validated_probs(np.array([[0.25, 0.75]]), "p")
    assert not p.flags.writeable
    assert p.sum() == 1.0


def test_validated_probs_renormalizes_tiny_drift():
    p = _validated_probs(np.array([[0.5 + 2e-10, 0.5]]), "p")
    assert abs(p.sum(axis=-1)[0] - 1.0) < 1e-15


def test_validated_probs_is_idempotent_bitwise():
    rng = np.random.default_rng(2)
    raw = rng.dirichlet(np.ones(7) * 0.4, size=(5, 3))
    once = _validated_probs(raw, "p")
    twice = _validated_probs(once.copy(), "p")
    assert np.array_equal(once, twice)


def test_validated_probs_keeps_a_read_only_array_and_copies_a_writeable_one():
    raw = np.array([[0.25, 0.75]])
    locked = _validated_probs(raw, "p")
    assert locked is not raw and raw.flags.writeable  # the caller's array stays theirs
    assert _validated_probs(locked, "p") is locked
    drifted = np.array([[0.5 + 2e-10, 0.5]])
    drifted.flags.writeable = False
    assert _validated_probs(drifted, "p") is not drifted  # a row to renormalize


def test_validated_probs_clips_tiny_negative():
    p = _validated_probs(np.array([[-5e-10, 1.0]]), "p")
    assert p[0, 0] == 0.0
    assert p.sum() == 1.0


def test_validated_probs_rejects_bad_rows():
    with pytest.raises(ValueError):
        _validated_probs(np.array([[0.6, 0.6]]), "p")
    with pytest.raises(ValueError):
        _validated_probs(np.array([[-0.01, 1.01]]), "p")
    with pytest.raises(ValueError):
        _validated_probs(np.array([[np.nan, 1.0]]), "p")


def test_tabular_mdp_validates_inputs():
    P = np.zeros((2, 1, 2))
    P[:, 0, 0] = 1.0
    R = np.zeros((2, 1))
    with pytest.raises(ValueError):
        TabularTask("mdp", [KernelPair(P)], R, [0.7, 0.2], horizon=3)  # initial dist off
    with pytest.raises(ValueError):
        TabularTask("mdp", [KernelPair(P)], R, [0.5, 0.5], horizon=0)
    with pytest.raises(ValueError):
        TabularTask("mdp", [KernelPair(P)], R, [0.5, 0.5], horizon=3, discount=1.5)


_P = np.zeros((2, 1, 2))
_P[:, 0, 0] = 1.0
_Q = np.full((2, 1, 2), 0.5)
_ONE = np.ones((2, 1, 1))  # a valid kernel of the wrong shape


@pytest.mark.parametrize("kind, models, changes, message", [
    ("bandit", [KernelPair(_P)], {}, "kind must be mdp, pomdp or apomdp"),
    ("apomdp", [], {}, "models must be non-empty"),
    ("pomdp", [KernelPair(_P, _Q)] * 2, {}, "a pomdp task has exactly one model"),
    ("mdp", [KernelPair(_P)], {"reward": np.full((2, 1), np.inf)}, "reward: must be"),
    ("mdp", [KernelPair(_P)], {"initial_dist": np.full(3, 1 / 3)}, "initial_dist: shape"),
    ("mdp", [KernelPair(_ONE)], {}, r"models\[0\].transition: shape"),
    ("mdp", [KernelPair(_P, _Q)], {}, r"models\[0\].observation: required"),
    ("apomdp", [KernelPair(_P, _Q), KernelPair(_P, _ONE)], {},
     r"models\[1\].observation: shape \(2, 1, 1\), expected \(2, 1, 2\)"),
    ("apomdp", [KernelPair(_P, _Q)], {"alpha": 1.5}, "alpha must lie in"),
])
def test_tabular_task_rejects_each_malformed_field(kind, models, changes, message):
    fields = {"reward": np.zeros((2, 1)), "initial_dist": [0.5, 0.5], "horizon": 3} | changes
    with pytest.raises(ValueError, match=message):
        TabularTask(kind, models, **fields)


# ---------------------------------------------------------------------------
# belief algebra


def _brute_posterior(b, a, o, P, Q):
    # enumerate latent (s, s') paths
    post = np.zeros(P.shape[0])
    for s in range(P.shape[0]):
        for sp in range(P.shape[0]):
            post[sp] += b[s] * P[s, a, sp] * Q[sp, a, o]
    return post / post.sum()


def test_belief_update_matches_latent_path_enumeration():
    rng = np.random.default_rng(3)
    S, A, O = 4, 2, 3
    for _ in range(25):
        P = rng.dirichlet(np.ones(S), size=(S, A))
        Q = rng.dirichlet(np.ones(O), size=(S, A))
        b = random_simplex(rng, S)
        a = int(rng.integers(A))
        o = int(rng.integers(O))
        got = belief_update(Belief(b), a, o, P, Q).probs
        want = _brute_posterior(b, a, o, P, Q)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_belief_update_zero_likelihood_raises():
    P = np.zeros((2, 1, 2))
    P[:, 0, 0] = 1.0  # everything moves to state 0
    Q = np.zeros((2, 1, 2))
    Q[0, 0, 0] = 1.0  # state 0 always emits obs 0
    Q[1, 0, 1] = 1.0
    with pytest.raises(ZeroLikelihood):
        belief_update(Belief([0.5, 0.5]), 0, 1, P, Q)


def test_belief_predictive_is_distribution_and_consistent():
    rng = np.random.default_rng(7)
    S, A, O = 3, 2, 4
    P = rng.dirichlet(np.ones(S), size=(S, A))
    Q = rng.dirichlet(np.ones(O), size=(S, A))
    b = random_simplex(rng, S)
    for a in range(A):
        pred = belief_predictive(Belief(b), a, P, Q)
        assert pred.shape == (O,)
        assert abs(pred.sum() - 1.0) < 1e-12
        # law of total probability: mixing posteriors by predictive weights
        # recovers the one-step state propagation
        mix = np.zeros(S)
        for o in range(O):
            if pred[o] > 0:
                mix += pred[o] * belief_update(Belief(b), a, o, P, Q).probs
        np.testing.assert_allclose(mix, b @ P[:, a, :], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_belief_update_stays_on_simplex(seed):
    rng = np.random.default_rng(seed)
    S, A, O = 5, 3, 4
    P = rng.dirichlet(np.ones(S) * 0.7, size=(S, A))
    Q = rng.dirichlet(np.ones(O) * 0.7, size=(S, A))
    b = random_simplex(rng, S)
    a = int(rng.integers(A))
    pred = belief_predictive(Belief(b), a, P, Q)
    o = int(np.argmax(pred))
    post = belief_update(Belief(b), a, o, P, Q).probs
    assert np.all(post >= 0)
    assert abs(post.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_known_value():
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.75])
    want = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
    assert abs(kl_divergence(p, q) - want) < 1e-15


def test_kl_zero_on_identical_and_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_simplex(rng, 6)
        q = random_simplex(rng, 6)
        assert kl_divergence(p, p) == 0.0
        assert kl_divergence(p, q) >= 0.0


def test_kl_support_mismatch_raises():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([1.0, 0.0, 0.0])
    with pytest.raises(Unsupported):
        kl_divergence(p, q)


def test_kl_ignores_zero_mass_in_p():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert abs(kl_divergence(p, q) - np.log(2.0)) < 1e-15


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_discounted_return_hand_value():
    traj = Trajectory("t0")
    traj.append(3, 1, 1.0)
    traj.append(2, 0, 2.0)
    traj.append(1, 1, 4.0)
    # 1 + 0.5*2 + 0.25*4 = 3.0
    assert traj.discounted_return(0.5) == 3.0
    assert len(traj) == 3


def test_trajectory_return_bit_identical_to_running_weight_loop():
    rng = np.random.default_rng(12)
    rewards = rng.standard_normal(9)
    traj = Trajectory("t1")
    for i, r in enumerate(rewards):
        traj.append(i % 4, i % 3, float(r))
    total, w = 0.0, 1.0
    for r in rewards:
        total += w * float(r)
        w *= 0.95
    assert traj.discounted_return(0.95) == total
