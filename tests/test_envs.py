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
    darkroom_kernel,
    darkroom_rewards,
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
from decisionlab.solvers import solve_mdp

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


def _next_state(mdp, state, action):
    """The one successor of a one-hot transition row."""
    row = mdp.models[0].transition[state, action]
    assert np.count_nonzero(row) == 1 and row.max() == 1.0
    return int(row.argmax())


def test_darkroom_step_moves_and_clamps():
    mdp = DarkroomTask(goal=(3, 4)).to_mdp()
    assert _next_state(mdp, 0, 0) == 0     # up off the edge clamps
    assert _next_state(mdp, 0, 2) == 0     # left off the edge clamps
    assert _next_state(mdp, 0, 1) == 10    # down to (1, 0)
    assert _next_state(mdp, 0, 3) == 1     # right to (0, 1)
    assert _next_state(mdp, 99, 1) == 99   # the far corner clamps down and right
    assert _next_state(mdp, 99, 3) == 99
    assert mdp.reward[[0, 99]].max() == 0.0


def test_darkroom_reward_only_for_stay_on_goal():
    mdp = DarkroomTask(goal=(2, 2)).to_mdp()
    g = 2 * 10 + 2
    assert mdp.reward[g, 4] == 1.0
    assert _next_state(mdp, g, 4) == g
    assert mdp.reward.sum() == 1.0         # moving off the goal, or staying elsewhere, pays 0


def test_darkroom_oracle_walks_shortest_path():
    task = DarkroomTask(goal=(6, 2))
    mdp = task.to_mdp()
    sol = solve_mdp(mdp)
    s, total, actions = 0, 0.0, []
    for t in range(1, task.horizon + 1):
        a = sol.action(t, s)
        actions.append(a)
        total += mdp.reward[s, a]
        s = _next_state(mdp, s, a)
    dist = darkroom_bfs_distance((6, 2))
    assert total == task.horizon - dist
    assert sol.expected_return() == total
    # ties go to the lowest index: down before right, then stay
    assert actions == [1] * 6 + [3] * 2 + [4] * (task.horizon - dist)


def test_darkroom_oracle_return_matches_bfs_for_all_goals():
    for horizon in (100, 9):  # at 9 the goals past distance 9 cannot be reached
        for goal in all_darkroom_goals():
            value = solve_mdp(DarkroomTask(goal, horizon=horizon).to_mdp()).expected_return()
            assert value == max(0, horizon - darkroom_bfs_distance(goal))


def test_darkroom_to_mdp_consistent_with_step():
    # a per-state reference step, written from the grid's rules
    task = DarkroomTask(goal=(1, 3), size=4, horizon=6)
    mdp = task.to_mdp()
    moves = [(-1, 0), (1, 0), (0, -1), (0, 1), (0, 0)]
    assert mdp.models[0].transition.shape == (16, 5, 16)
    for s in range(16):
        r, c = divmod(s, 4)
        for a, (dr, dc) in enumerate(moves):
            nr, nc = min(max(r + dr, 0), 3), min(max(c + dc, 0), 3)
            assert _next_state(mdp, s, a) == nr * 4 + nc
            assert mdp.reward[s, a] == (1.0 if (r, c) == (1, 3) and a == 4 else 0.0)
    assert mdp.initial_dist[0] == 1.0
    assert (mdp.horizon, mdp.discount) == (6, 1.0)


def test_darkroom_goals_share_one_kernel():
    tasks = [DarkroomTask(goal, size=4, horizon=6).to_mdp() for goal in ((0, 0), (3, 2))]
    kernel = darkroom_kernel(4)
    assert all(t.models[0].transition is kernel for t in tasks)
    assert not kernel.flags.writeable and darkroom_kernel(4) is kernel
    rewards = darkroom_rewards([(0, 0), (3, 2)], 4)
    assert rewards.shape == (16, 5, 2)
    for g, task in enumerate(tasks):
        assert np.array_equal(rewards[:, :, g], task.reward)


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
