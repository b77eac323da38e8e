"""Task families: energy kernels, ambiguity sets, darkroom, task files."""

import numpy as np
import pytest

from decisionlab.core import Rng, kl_divergence
from decisionlab.envs import (
    AmbiguityConfig,
    DarkroomTask,
    EnergyParams,
    SamplingExhausted,
    all_darkroom_goals,
    energy_kernels,
    gen_energy_apomdp,
    gen_energy_mdp,
    gen_energy_pomdp,
    load_task,
    noisy_level_observation,
    sample_ambiguity_set,
    save_task,
    split_goals,
    task_from_dict,
    task_to_dict,
)

from conftest import darkroom_bfs_distance


# ---------------------------------------------------------------------------
# energy kernels


def test_energy_kernels_hand_values():
    P, R = energy_kernels(energy_cap=2, charge_cost=-0.02, success_prob=0.7)
    # charging from level 1: up to 2 w.p. 0.7, stay w.p. 0.3
    np.testing.assert_allclose(P[1, 0], [0.0, 0.3, 0.7])
    # working from level 1: down to 0 w.p. 0.7
    np.testing.assert_allclose(P[1, 1], [0.7, 0.3, 0.0])
    # boundaries collapse onto themselves
    np.testing.assert_allclose(P[2, 0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(P[0, 1], [1.0, 0.0, 0.0])
    # work pays the normalized level, charging a flat cost
    np.testing.assert_allclose(R[:, 1], [0.0, 0.5, 1.0])
    assert np.all(R[:, 0] == -0.02) and np.all(R[:, 2] == -0.02)


def test_energy_charge_actions_redundant():
    P, R = energy_kernels(9, -0.02, 0.83)
    np.testing.assert_array_equal(P[:, 0, :], P[:, 2, :])
    np.testing.assert_array_equal(R[:, 0], R[:, 2])


def test_energy_rows_are_distributions():
    P, _ = energy_kernels(9, -0.02, 0.61)
    np.testing.assert_allclose(P.sum(axis=2), 1.0, atol=1e-12)


def test_gen_energy_mdp_fixed_and_sampled_p():
    params = EnergyParams(success_prob=0.75)
    mdp = gen_energy_mdp(params, Rng(0))
    assert mdp.models[0].transition[0, 0, 1] == 0.75
    assert mdp.num_states == 10 and mdp.num_actions == 3
    np.testing.assert_allclose(mdp.initial_dist, 0.1)

    sampled = EnergyParams()  # p ~ U[0.5, 1)
    ps = [gen_energy_mdp(sampled, Rng(0).split(i)).models[0].transition[0, 0, 1] for i in range(40)]
    assert all(0.5 <= p < 1.0 for p in ps)
    assert len(set(ps)) > 30  # actually varies across tasks


def test_gen_energy_mdp_reproducible():
    a = gen_energy_mdp(EnergyParams(), Rng(7, 3))
    b = gen_energy_mdp(EnergyParams(), Rng(7, 3))
    np.testing.assert_array_equal(a.models[0].transition, b.models[0].transition)


def test_noisy_level_observation_shape_and_values():
    Q = noisy_level_observation(5, 3, 0.8)
    assert Q.shape == (5, 3, 5)
    np.testing.assert_allclose(np.diagonal(Q[:, 1, :]), 0.8)
    assert abs(Q[0, 2, 1] - 0.05) < 1e-15
    np.testing.assert_allclose(Q.sum(axis=2), 1.0, atol=1e-12)
    # action-independent sensor
    np.testing.assert_array_equal(Q[:, 0, :], Q[:, 2, :])


def test_noisy_level_observation_perfect_sensor():
    Q = noisy_level_observation(4, 2, 1.0)
    for a in range(2):
        np.testing.assert_array_equal(Q[:, a, :], np.eye(4))


def test_gen_energy_pomdp_wires_mdp_and_sensor():
    task = gen_energy_pomdp(EnergyParams(obs_prob=0.9, horizon=4), Rng(1))
    assert task.kind == "pomdp"
    assert task.num_obs == task.num_states
    assert task.horizon == 4
    assert task.models[0].observation[3, 0, 3] == pytest.approx(0.9, abs=1e-12)


# ---------------------------------------------------------------------------
# ambiguity sets


def test_ambiguity_set_base_is_element_zero():
    pomdp = gen_energy_pomdp(EnergyParams(), Rng(2))
    models = sample_ambiguity_set(pomdp.models[0].transition, pomdp.models[0].observation,
                                  AmbiguityConfig(num_models=3), Rng(2, 9))
    assert len(models) == 3
    np.testing.assert_array_equal(models[0].transition, pomdp.models[0].transition)
    np.testing.assert_array_equal(models[0].observation, pomdp.models[0].observation)


def test_ambiguity_set_rows_inside_kl_ball_and_support_preserved():
    pomdp = gen_energy_pomdp(EnergyParams(), Rng(3))
    config = AmbiguityConfig(num_models=4, kl_radius=0.2)
    models = sample_ambiguity_set(pomdp.models[0].transition, pomdp.models[0].observation,
                                  config, Rng(3, 1))
    base_P, base_Q = pomdp.models[0].transition, pomdp.models[0].observation
    for m in models[1:]:
        for kernel, base in ((m.transition, base_P), (m.observation, base_Q)):
            S, A, _ = kernel.shape
            for s in range(S):
                for a in range(A):
                    assert kl_divergence(base[s, a], kernel[s, a]) <= config.kl_radius
                    # support never grows
                    assert np.all(kernel[s, a][base[s, a] == 0.0] == 0.0)
        assert not np.array_equal(m.transition, base_P)


def test_ambiguity_set_charge_rows_share_one_perturbation():
    pomdp = gen_energy_pomdp(EnergyParams(), Rng(4))
    models = sample_ambiguity_set(pomdp.models[0].transition, pomdp.models[0].observation,
                                  AmbiguityConfig(num_models=3), Rng(4, 1))
    for m in models[1:]:
        np.testing.assert_array_equal(m.transition[:, 0, :], m.transition[:, 2, :])
        assert not np.array_equal(m.transition[:, 0, :], m.transition[:, 1, :])
        # action-independent sensor survives perturbation
        for a in range(1, 3):
            np.testing.assert_array_equal(m.observation[:, 0, :], m.observation[:, a, :])


def test_ambiguity_singleton_returns_base_only():
    pomdp = gen_energy_pomdp(EnergyParams(), Rng(5))
    models = sample_ambiguity_set(pomdp.models[0].transition, pomdp.models[0].observation,
                                  AmbiguityConfig(num_models=1), Rng(5, 1))
    assert len(models) == 1
    np.testing.assert_array_equal(models[0].transition, pomdp.models[0].transition)


def test_ambiguity_sampler_exhaustion():
    pomdp = gen_energy_pomdp(EnergyParams(), Rng(6))
    # a wide Dirichlet almost never lands in a microscopic KL ball
    config = AmbiguityConfig(num_models=2, kl_radius=1e-14, concentration=0.5,
                             max_attempts=25)
    with pytest.raises(SamplingExhausted):
        sample_ambiguity_set(pomdp.models[0].transition, pomdp.models[0].observation, config, Rng(6, 1))


def test_gen_energy_apomdp_end_to_end():
    task = gen_energy_apomdp(EnergyParams(horizon=3), AmbiguityConfig(num_models=3),
                             Rng(8))
    assert task.kind == "apomdp"
    assert len(task.models) == 3
    assert task.alpha == 0.5
    # simulation model is the base
    base = gen_energy_pomdp(EnergyParams(horizon=3), Rng(8))
    np.testing.assert_array_equal(base.models[0].transition, task.models[0].transition)


# ---------------------------------------------------------------------------
# darkroom


def test_darkroom_step_moves_and_clamps():
    task = DarkroomTask(goal=(3, 4))
    s = task.state_index(0, 0)
    assert task.step(s, 0) == (s, 0.0)     # up off the edge clamps
    assert task.step(s, 2) == (s, 0.0)     # left off the edge clamps
    ns, r = task.step(s, 1)                # down
    assert task.cell(ns) == (1, 0) and r == 0.0
    ns, r = task.step(s, 3)                # right
    assert task.cell(ns) == (0, 1) and r == 0.0
    corner = task.state_index(9, 9)
    assert task.step(corner, 1) == (corner, 0.0)
    assert task.step(corner, 3) == (corner, 0.0)


def test_darkroom_reward_only_for_stay_on_goal():
    task = DarkroomTask(goal=(2, 2))
    g = task.state_index(2, 2)
    assert task.step(g, 4) == (g, 1.0)
    assert task.step(g, 0)[1] == 0.0       # moving off the goal pays nothing
    off = task.state_index(2, 3)
    assert task.step(off, 4) == (off, 0.0)


def test_darkroom_oracle_walks_shortest_path():
    task = DarkroomTask(goal=(6, 2))
    s, total = task.state_index(0, 0), 0.0
    for _ in range(task.horizon):
        a = task.oracle_action(s)
        s, r = task.step(s, a)
        total += r
    dist = darkroom_bfs_distance((6, 2))
    assert total == task.horizon - dist
    assert task.oracle_return() == total


def test_darkroom_oracle_return_matches_bfs_for_all_goals():
    for goal in all_darkroom_goals():
        task = DarkroomTask(goal=goal)
        assert task.oracle_return() == task.horizon - darkroom_bfs_distance(goal)


def test_darkroom_to_mdp_consistent_with_step():
    task = DarkroomTask(goal=(1, 3), size=4, horizon=6)
    mdp = task.to_mdp()
    for s in range(task.num_states):
        for a in range(task.num_actions):
            ns, r = task.step(s, a)
            assert mdp.models[0].transition[s, a, ns] == 1.0
            assert mdp.reward[s, a] == r
    assert mdp.initial_dist[0] == 1.0


def test_darkroom_goal_validation():
    with pytest.raises(ValueError):
        DarkroomTask(goal=(10, 0))
    with pytest.raises(ValueError):
        DarkroomTask(goal=(0, -1))


def test_split_goals_disjoint_exhaustive_deterministic():
    train, test = split_goals(Rng(13, 2))
    assert len(train) == 80 and len(test) == 20
    assert set(train) | set(test) == set(all_darkroom_goals())
    assert not set(train) & set(test)
    train2, test2 = split_goals(Rng(13, 2))
    assert train == train2 and test == test2
    train3, _ = split_goals(Rng(14, 2))
    assert train != train3


# ---------------------------------------------------------------------------
# task files


@pytest.mark.parametrize("kind", ["mdp", "pomdp", "apomdp", "darkroom"])
def test_task_roundtrip_bit_exact(tmp_path, kind):
    rng = Rng(21)
    if kind == "mdp":
        task = gen_energy_mdp(EnergyParams(), rng)
    elif kind == "pomdp":
        task = gen_energy_pomdp(EnergyParams(), rng)
    elif kind == "apomdp":
        task = gen_energy_apomdp(EnergyParams(horizon=3),
                                 AmbiguityConfig(num_models=2), rng)
    else:
        task = DarkroomTask(goal=(4, 7))

    path = tmp_path / "task.json"
    save_task(path, task, meta={"task_id": "t-0"})
    loaded, meta = load_task(path)
    assert meta == {"task_id": "t-0"}

    if kind == "darkroom":
        assert loaded.goal == task.goal and loaded.horizon == task.horizon
    elif kind == "apomdp":
        assert len(loaded.models) == len(task.models)
        for got, want in zip(loaded.models, task.models):
            np.testing.assert_array_equal(got.transition, want.transition)
            np.testing.assert_array_equal(got.observation, want.observation)
        assert loaded.alpha == task.alpha
    else:
        np.testing.assert_array_equal(loaded.models[0].transition, task.models[0].transition)
        np.testing.assert_array_equal(loaded.reward, task.reward)
        assert loaded.discount == task.discount

    # save -> load -> save is byte-identical
    first = path.read_bytes()
    path2 = tmp_path / "task2.json"
    save_task(path2, loaded, meta=meta)
    assert path2.read_bytes() == first


def test_task_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        task_from_dict({"kind": "markov-chain"})
    with pytest.raises(TypeError):
        task_to_dict(object())


@pytest.mark.parametrize("kind, field", [
    ("mdp", "num_states"), ("mdp", "num_actions"), ("pomdp", "num_states"),
    ("pomdp", "num_obs"), ("apomdp", "num_actions"), ("apomdp", "num_obs"),
])
def test_task_dict_sizes_must_match_arrays(kind, field):
    params = EnergyParams(energy_cap=2, horizon=3)
    task = {"mdp": lambda: gen_energy_mdp(params, Rng(9)),
            "pomdp": lambda: gen_energy_pomdp(params, Rng(9)),
            "apomdp": lambda: gen_energy_apomdp(params, AmbiguityConfig(num_models=2),
                                                Rng(9))}[kind]()
    data = task_to_dict(task)
    task_from_dict(data)  # the sizes as written load
    data[field] += 1
    with pytest.raises(ValueError):
        task_from_dict(data)
