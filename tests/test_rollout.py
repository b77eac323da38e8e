"""Episode simulation, paired env streams, and the external-policy protocol."""

import hashlib
import importlib
import json
import os
import selectors
import shutil
import signal
import socket
import sys
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisionlab.core import (Belief, KernelPair, Rng, TabularTask, belief_update,
                              belief_updates)
from decisionlab.dataset import build_dpt_dataset, build_sft_corpus, encode
from decisionlab.envs import (DarkroomTask, EnergyParams, gen_energy_apomdp, gen_energy_mdp,
                             gen_energy_pomdp, noisy_level_observation)
from decisionlab.envs import AmbiguityConfig
from decisionlab.rollout import (
    ExternalPolicyClient,
    PolicyHandle,
    ProtocolError,
    env_draws,
    policy_actor,
    rollout,
    step_episodes,
)
from decisionlab.evaluation import evaluation_policy, optimality_gap, reference_policy
from decisionlab.solvers import BeliefSolverConfig, solve_apomdp, solve_mdp, solve_pomdp

from conftest import reference_rollout, tiny_energy_mdp, tiny_energy_pomdp


# ---------------------------------------------------------------------------
# protocol server helper


def serve(handler):
    """One-connection NDJSON server; returns (port, received-request list)."""
    received = []
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)

    def run():
        conn, _ = srv.accept()
        rfile = conn.makefile("rb")
        try:
            for line in rfile:
                req = json.loads(line)
                received.append(req)
                out = handler(req)
                if out is None:
                    break
                if isinstance(out, (bytes, str)):
                    raw = out.encode() if isinstance(out, str) else out
                else:
                    raw = json.dumps(out).encode()
                conn.sendall(raw + b"\n")
        except (ConnectionError, OSError):
            pass
        finally:
            conn.close()
            srv.close()

    threading.Thread(target=run, daemon=True).start()
    return srv.getsockname()[1], received


# ---------------------------------------------------------------------------
# core rollout behaviour


def test_rollout_reproducible_for_same_generator():
    task = tiny_energy_mdp(horizon=5)
    a = rollout(task, PolicyHandle.random(), Rng(3, 7))
    b = rollout(task, PolicyHandle.random(), Rng(3, 7))
    assert a.trajectory.steps == b.trajectory.steps
    assert a.online_return == b.online_return


def test_env_stream_independent_of_policy():
    # the environment consumes rng.split(0) only, so two different policies
    # see the same initial conditions draw-for-draw
    task = tiny_energy_pomdp(horizon=4)
    sol = solve_pomdp(task, BeliefSolverConfig(quantization=1e-3))
    r1 = rollout(task, PolicyHandle.random(), Rng(5, 1))
    r2 = rollout(task, PolicyHandle.oracle(sol), Rng(5, 1))
    assert r1.trajectory.steps[0].obs == r2.trajectory.steps[0].obs


def test_online_return_matches_trajectory_return_bitwise():
    mdp = tiny_energy_mdp(horizon=6)
    res = rollout(mdp, PolicyHandle.random(), Rng(11))
    assert res.online_return == res.trajectory.discounted_return(mdp.discount)

    pomdp = tiny_energy_pomdp(horizon=5)
    res = rollout(pomdp, PolicyHandle.random(), Rng(12))
    assert res.online_return == res.trajectory.discounted_return(pomdp.discount)

    dark = DarkroomTask(goal=(2, 5)).to_mdp()
    res = rollout(dark, PolicyHandle.random(), Rng(13))
    assert res.online_return == res.trajectory.discounted_return(dark.discount)


def test_trajectory_length_and_task_id():
    task = tiny_energy_mdp(horizon=4)
    res = rollout(task, PolicyHandle.random(), Rng(2), task_id="task-17")
    assert len(res.trajectory) == 4
    assert res.trajectory.task_id == "task-17"


def test_belief_side_channel_replays_bayes_updates():
    task = gen_energy_pomdp(EnergyParams(energy_cap=3, horizon=5), Rng(4))
    res = rollout(task, PolicyHandle.random(), Rng(4, 2))
    assert len(res.beliefs) == task.horizon
    np.testing.assert_array_equal(res.beliefs[0].probs, task.initial_dist)
    b = Belief(task.initial_dist)
    for t in range(1, task.horizon):
        step_t, step_next = res.trajectory.steps[t - 1], res.trajectory.steps[t]
        b = belief_update(b, step_t.action, step_next.obs,
                          task.models[0].transition, task.models[0].observation)
        np.testing.assert_array_equal(res.beliefs[t].probs, b.probs)


def test_first_observation_emitted_before_any_action():
    # with a perfect sensor the first recorded obs is the sampled start state,
    # while the planner belief still starts at the unconditioned prior
    mdp = tiny_energy_mdp(horizon=3)
    obs = noisy_level_observation(mdp.num_states, mdp.num_actions, 1.0)
    pomdp = TabularTask("pomdp", [KernelPair(mdp.models[0].transition, obs)], mdp.reward,
                        mdp.initial_dist, mdp.horizon, mdp.discount)
    res = rollout(pomdp, PolicyHandle.random(), Rng(6))
    start = Rng(6).split(0).draw_index(mdp.initial_dist)
    assert res.trajectory.steps[0].obs == start
    np.testing.assert_array_equal(res.beliefs[0].probs, mdp.initial_dist)


def test_apomdp_simulated_under_nominal_model():
    task = gen_energy_apomdp(EnergyParams(energy_cap=2, horizon=4),
                             AmbiguityConfig(num_models=3), Rng(7))
    res = rollout(task, PolicyHandle.random(), Rng(7, 1))
    # replaying the episode on the base model with the same generator gives
    # the identical trajectory
    base = TabularTask("pomdp", task.models[:1], task.reward, task.initial_dist,
                       task.horizon, task.discount)
    res2 = rollout(base, PolicyHandle.random(), Rng(7, 1))
    assert res.trajectory.steps == res2.trajectory.steps


def test_mdp_oracle_beats_random_on_average():
    task = tiny_energy_mdp(p=0.9, horizon=6)
    sol = solve_mdp(task)
    oracle = np.mean([rollout(task, PolicyHandle.oracle(sol), Rng(0).split(i)).online_return
                      for i in range(40)])
    rand = np.mean([rollout(task, PolicyHandle.random(), Rng(0).split(i)).online_return
                    for i in range(40)])
    assert oracle > rand


def test_darkroom_oracle_rollout_hits_closed_form():
    task = DarkroomTask(goal=(4, 3)).to_mdp()
    sol = solve_mdp(task)
    res = rollout(task, PolicyHandle.oracle(sol), Rng(1))
    assert res.online_return == sol.expected_return() == task.horizon - (4 + 3)
    assert len(res.trajectory) == task.horizon


def test_qmdp_handle_runs_on_pomdp():
    task = tiny_energy_pomdp(horizon=4)
    res = rollout(task, PolicyHandle.qmdp(solve_mdp(task)), Rng(9))
    assert len(res.trajectory) == 4
    assert res.invalid_actions == 0


# ---------------------------------------------------------------------------
# policy handle validation


def test_oracle_solution_must_match_task():
    mdp = tiny_energy_mdp(horizon=3)
    pomdp = tiny_energy_pomdp(horizon=3)
    mdp_sol = solve_mdp(mdp)
    with pytest.raises(TypeError):
        rollout(pomdp, PolicyHandle.oracle(mdp_sol), Rng(0))
    other = solve_mdp(tiny_energy_mdp(horizon=5))
    with pytest.raises(ValueError):
        rollout(mdp, PolicyHandle.oracle(other), Rng(0))
    with pytest.raises(ValueError):  # Darkroom goals differ only in the reward
        rollout(DarkroomTask(goal=(1, 1)).to_mdp(),
                PolicyHandle.oracle(solve_mdp(DarkroomTask(goal=(2, 2)).to_mdp())), Rng(0))


def test_oracle_solved_for_another_task_is_rejected():
    # same sizes, horizon and reward table; only the success probability differs
    mdp_a, mdp_b = tiny_energy_mdp(p=0.55), tiny_energy_mdp(p=0.95)
    with pytest.raises(ValueError):
        rollout(mdp_a, PolicyHandle.oracle(solve_mdp(mdp_b)), Rng(0))
    pomdp_a, pomdp_b = tiny_energy_pomdp(p=0.55), tiny_energy_pomdp(p=0.95)
    with pytest.raises(ValueError):
        rollout(pomdp_a, PolicyHandle.oracle(solve_pomdp(pomdp_b)), Rng(0))
    sensor = tiny_energy_pomdp(p=0.55, obs_prob=0.7)  # differs in the observation only
    with pytest.raises(ValueError):
        rollout(pomdp_a, PolicyHandle.oracle(solve_pomdp(sensor)), Rng(0))
    rollout(pomdp_a, PolicyHandle.oracle(solve_pomdp(tiny_energy_pomdp(p=0.55))), Rng(0))
    # a QMDP handle wraps an MdpSolution and is held to the same rule
    with pytest.raises(ValueError):
        rollout(pomdp_a, PolicyHandle.qmdp(solve_mdp(pomdp_b)), Rng(0))
    with pytest.raises(ValueError):
        rollout(tiny_energy_pomdp(horizon=5),
                PolicyHandle.qmdp(solve_mdp(tiny_energy_pomdp(horizon=3))), Rng(0))
    with pytest.raises(TypeError):
        rollout(mdp_a, PolicyHandle.qmdp(solve_mdp(mdp_a)), Rng(0))
    rollout(pomdp_a, PolicyHandle.qmdp(solve_mdp(tiny_energy_pomdp(p=0.55))), Rng(0))


def test_robust_oracle_must_plan_over_the_tasks_models_and_alpha():
    task = gen_energy_apomdp(EnergyParams(energy_cap=3, horizon=3),
                             AmbiguityConfig(num_models=3, alpha=0.5), Rng(17))
    rollout(task, PolicyHandle.oracle(solve_apomdp(task)), Rng(0))
    # the same nominal model, but another pessimism weight or model set
    for other in (replace(task, alpha=1.0), replace(task, models=task.models[:2])):
        with pytest.raises(ValueError):
            rollout(task, PolicyHandle.oracle(solve_apomdp(other)), Rng(0))
        # QMDP acts through the nominal model alone and is checked on it alone
        rollout(task, PolicyHandle.qmdp(solve_mdp(other)), Rng(0))
    with pytest.raises(ValueError):  # a pomdp solve plans over the nominal model only
        rollout(task, PolicyHandle.oracle(solve_pomdp(task)), Rng(0))


def test_unknown_policy_kind_rejected():
    with pytest.raises(ValueError):
        rollout(tiny_energy_mdp(), PolicyHandle(kind="hope"), Rng(0))


def test_rollout_rejects_unknown_task_type():
    with pytest.raises(TypeError):
        rollout(42, PolicyHandle.random(), Rng(0))


def test_every_episode_entry_point_rejects_a_non_tabular_task(monkeypatch):
    # a DarkroomTask must go through to_mdp(); the check comes before any draw
    dark = DarkroomTask(goal=(2, 3), size=5, horizon=6)
    oracle = PolicyHandle.oracle(solve_mdp(dark.to_mdp()))
    built = []
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1))
    for run in (lambda: rollout(dark, PolicyHandle.random(), Rng(0)),
                lambda: optimality_gap([dark], [oracle], PolicyHandle.random(), Rng(0)),
                lambda: build_sft_corpus([dark], [PolicyHandle.random()], Rng(0)),
                lambda: build_dpt_dataset([dark], [oracle], Rng(0))):
        with pytest.raises(TypeError, match="unsupported task type DarkroomTask"):
            run()
    assert built == []


# ---------------------------------------------------------------------------
# batched mdp episodes


def _one_hot_mdp(horizon=6) -> TabularTask:
    """Action 0 moves deterministically (one-hot rows), action 1 at random;
    the start state is fixed, so the initial row is one-hot too."""
    S, A = 5, 2
    P = np.zeros((S, A, S))
    P[np.arange(S), 0, (np.arange(S) + 1) % S] = 1.0
    P[:, 1] = Rng(3).dirichlet(np.ones(S))
    P[2, 1] = [0.0, 0.0, 1.0, 0.0, 0.0]
    R = np.arange(S * A, dtype=float).reshape(S, A) / 7.0
    return TabularTask("mdp", [KernelPair(P)], R, np.eye(S)[2], horizon, 0.9)


def _stepped(task, handle, env, actions=None) -> list[float]:
    """Returns of the episodes that ``handle`` steps on ``task`` from the
    given environment and random-policy blocks."""
    return step_episodes(task, env, policy_actor(task, handle, actions)).returns.tolist()


def _stepped_returns(task, handle, rngs) -> list[float]:
    """``_stepped`` from each episode's environment and policy blocks."""
    env = np.array([rng.split(0).gen.random(env_draws(task)) for rng in rngs])
    actions = None if handle.kind != "random" else np.array(
        [rng.split(1).integers(0, task.num_actions, size=task.horizon) for rng in rngs])
    return _stepped(task, handle, env, actions)


@pytest.mark.parametrize("task", [
    *(gen_energy_mdp(EnergyParams(horizon=T), Rng(40 + T).split(i))
      for T in (1, 5, 10) for i in range(3)),
    DarkroomTask(goal=(2, 3), size=5, horizon=20).to_mdp(),
    DarkroomTask(goal=(0, 0), size=4, horizon=1).to_mdp(),
    tiny_energy_mdp(horizon=1),
    _one_hot_mdp(),
], ids=lambda task: f"S{task.num_states}-T{task.horizon}-d{task.discount}")
def test_episode_returns_equal_rollout_bit_for_bit(task):
    task_rng = Rng(2027)
    rngs = [task_rng.split(j) for j in range(12)]
    for handle in (PolicyHandle.random(), PolicyHandle.oracle(solve_mdp(task))):
        expected = [reference_rollout(task, handle, rng).online_return for rng in rngs]
        assert _stepped_returns(task, handle, rngs) == expected


class _FedRng(Rng):
    """An episode generator whose split(0) and split(1) hand out the given
    environment uniforms and policy actions in order, as block draws would."""

    def __init__(self, env, actions):
        super().__init__(0)
        self.blocks = (env, actions)

    def split(self, index):
        child = Rng(0, index)
        child._gen = mock.Mock(random=iter(self.blocks[index]).__next__,
                               integers=lambda *a, _it=iter(self.blocks[index]): next(_it))
        return child


def test_episode_returns_invert_uniforms_on_cumsum_edges_as_rollout_does():
    # rows of ten 0.1s sum to 0.9999999999999999: a uniform equal to a cumsum
    # entry picks the next index, and one past the last entry the last index
    S, A, T = 10, 2, 8
    P = np.full((S, A, S), 0.1)
    task = TabularTask("mdp", [KernelPair(P)], np.arange(S * A).reshape(S, A) / 3.0,
                       np.full(S, 0.1), T, 0.9)
    cum = np.full(S, 0.1).cumsum()
    edges = [0.0, cum[2], np.nextafter(1.0, 0.0), cum[8], 0.5, cum[0], cum[9], 0.25]
    env = np.array([edges, edges[::-1], np.roll(edges, 3), np.roll(edges, -2)])
    actions = np.array([[0, 1] * 4, [1] * 8, [1, 0, 0, 1, 1, 0, 1, 0], [0] * 8])
    expected = [reference_rollout(task, PolicyHandle.random(), _FedRng(e.tolist(), a.tolist())
                                  ).online_return for e, a in zip(env, actions)]
    assert _stepped(task, PolicyHandle.random(), env, actions) == expected


def test_episode_returns_rejects_what_rollout_rejects():
    mdp, pomdp = tiny_energy_mdp(p=0.55), tiny_energy_pomdp(p=0.55)
    apomdp = gen_energy_apomdp(EnergyParams(energy_cap=2, horizon=3),
                               AmbiguityConfig(num_models=3, alpha=0.5), Rng(8))
    rngs = [Rng(0).split(j) for j in range(2)]
    for task, handle, error in (
            (mdp, PolicyHandle.oracle(solve_mdp(tiny_energy_mdp(p=0.95))), ValueError),
            (mdp, PolicyHandle.oracle(solve_mdp(tiny_energy_mdp(horizon=5))), ValueError),
            (mdp, PolicyHandle.oracle(solve_pomdp(tiny_energy_pomdp())), TypeError),
            (mdp, PolicyHandle.qmdp(solve_mdp(mdp)), TypeError),
            (pomdp, PolicyHandle.oracle(solve_mdp(pomdp)), TypeError),
            (pomdp, PolicyHandle.oracle(solve_pomdp(tiny_energy_pomdp(p=0.95))), ValueError),
            (pomdp, PolicyHandle.qmdp(solve_mdp(tiny_energy_pomdp(obs_prob=0.7))),
             ValueError),
            (apomdp, PolicyHandle.oracle(solve_pomdp(apomdp)), ValueError),
            (apomdp, PolicyHandle.oracle(solve_apomdp(replace(apomdp, alpha=1.0))),
             ValueError),
            (apomdp, PolicyHandle.external(None), ValueError),
            (pomdp, PolicyHandle(kind="hope"), ValueError)):
        with pytest.raises(error):
            rollout(task, handle, rngs[0])
        with pytest.raises(error):
            _stepped_returns(task, handle, rngs)
    with pytest.raises(ValueError):  # a belief episode draws 2T uniforms
        _stepped(pomdp, PolicyHandle.random(), np.zeros((2, pomdp.horizon)),
                 np.zeros((2, pomdp.horizon), dtype=np.int64))


# ---------------------------------------------------------------------------
# batched belief episodes


def _belief_tasks():
    """pomdp and apomdp tasks over horizons 1, 2 and longer ones."""
    tasks = [gen_energy_pomdp(EnergyParams(energy_cap=E, horizon=T), Rng(60 + T).split(E))
             for E, T in ((3, 1), (3, 2), (5, 5), (9, 4), (3, 8))]
    tasks += [gen_energy_apomdp(EnergyParams(energy_cap=E, horizon=T),
                                AmbiguityConfig(num_models=3, alpha=0.5), Rng(70 + T))
              for E, T in ((2, 1), (3, 2), (4, 4))]
    return tasks


def _handles(task):
    """Random, exact oracle, qmdp, and (past horizon 1, where the tree is the
    root alone) a QMDP-fallback oracle from a tight budget; on an mdp, random
    and the exact oracle alone."""
    exact, _ = reference_policy(task)
    if task.kind == "mdp":
        return {"random": PolicyHandle.random(), "oracle": exact}
    handles = {"random": PolicyHandle.random(), "oracle": exact,
               "qmdp": evaluation_policy("qmdp", task, exact)}
    if task.horizon > 1:
        handles["fallback"], label = reference_policy(task, BeliefSolverConfig(node_budget=1))
        assert label == "qmdp-fallback"
    return handles


def _edge_pomdp(horizon=6) -> TabularTask:
    """Ten-entry 0.1 rows, whose cumsum ends below 1, and observation rows
    with zeros inside them; every row's last entry is positive, so a draw
    past the end of a row still names a possible outcome."""
    S, A = 10, 2
    P = np.full((S, A, S), 0.1)
    P[:, 1] = Rng(5).dirichlet(np.ones(S))
    Q = np.full((S, A, S), 0.1)
    Q[1::2, :] = [0.2, 0.0, 0.1, 0.1, 0.0, 0.3, 0.1, 0.0, 0.1, 0.1]
    Q[:, 1, :3] = [0.0, 0.3, 0.0]
    Q[:, 1] /= Q[:, 1].sum(axis=1, keepdims=True)
    return TabularTask("pomdp", [KernelPair(P, Q)], np.arange(S * A).reshape(S, A) / 3.0,
                       np.full(S, 0.1), horizon, 0.9)


@pytest.mark.parametrize("task", _belief_tasks(),
                         ids=lambda task: f"{task.kind}-S{task.num_states}-T{task.horizon}")
def test_belief_episode_returns_equal_rollout_bit_for_bit(task):
    task_rng = Rng(2031)
    rngs = [task_rng.split(j) for j in range(15)]
    for kind, handle in _handles(task).items():
        expected = [reference_rollout(task, handle, rng).online_return for rng in rngs]
        assert _stepped_returns(task, handle, rngs) == expected, kind


@pytest.mark.parametrize("task", _belief_tasks()[2::3] + [
    gen_energy_mdp(EnergyParams(horizon=5), Rng(45)),
    DarkroomTask(goal=(2, 3), size=5, horizon=20).to_mdp()],
                         ids=lambda task: f"{task.kind}-S{task.num_states}-T{task.horizon}")
def test_zero_episodes_step_to_zero_returns(task):
    for kind, handle in _handles(task).items():
        actions = np.empty((0, task.horizon), dtype=np.int64) if kind == "random" else None
        episodes = step_episodes(task, np.empty((0, env_draws(task))),
                                 policy_actor(task, handle, actions))
        assert episodes.returns.shape == (0,) and episodes.returns.dtype == np.float64, kind
        for recorded in (episodes.obs, episodes.actions, episodes.rewards):
            assert recorded.shape == (0, task.horizon), kind
        assert episodes.beliefs is None if task.kind == "mdp" else (
            episodes.beliefs.shape == (0, task.horizon, task.num_states)), kind


def test_belief_updates_of_zero_rows_are_empty():
    task = tiny_energy_pomdp()
    model, none = task.models[0], np.empty(0, dtype=np.int64)
    got = belief_updates(np.empty((0, task.num_states)), none, none,
                         model.transition, model.observation)
    assert got.shape == (0, task.num_states) and got.dtype == np.float64


def test_belief_updates_replay_belief_update_bit_for_bit():
    # the returns hide a last-bit difference in a belief unless it flips an
    # action, so the batched update is pinned on its own
    for task in _belief_tasks() + [_edge_pomdp()]:
        model, rng = task.models[0], np.random.default_rng(task.num_states)
        beliefs = rng.dirichlet(np.full(task.num_states, 0.5), size=200)
        beliefs[:50] = task.initial_dist
        beliefs = np.array([Belief(b).probs for b in beliefs])
        actions = rng.integers(0, task.num_actions, size=200)
        pred = np.array([b @ model.transition[:, a] for b, a in zip(beliefs, actions)])
        # each belief's observation is one it can see
        obs = np.array([rng.choice(task.num_obs, p=Belief(p @ model.observation[:, a]).probs)
                        for p, a in zip(pred, actions)])
        expected = [belief_update(Belief(b), a, o, model.transition, model.observation).probs
                    for b, a, o in zip(beliefs, actions.tolist(), obs.tolist())]
        got = belief_updates(beliefs, actions, obs, model.transition, model.observation)
        assert got.tobytes() == np.array(expected).tobytes()


def test_belief_episodes_leave_the_solved_tree_as_rollout_does():
    # two fresh oracles of one task: the stepped episodes build exactly the
    # off-tree nodes that one scalar episode loop per episode builds
    task = gen_energy_pomdp(EnergyParams(energy_cap=5, horizon=5), Rng(61))
    stepped, rolled = (PolicyHandle.oracle(solve_pomdp(task)) for _ in range(2))
    solved = stepped.solution.node_count
    rngs = [Rng(5).split(j) for j in range(30)]
    expected = [reference_rollout(task, rolled, rng).online_return for rng in rngs]
    assert _stepped_returns(task, stepped, rngs) == expected
    assert stepped.solution.node_count == rolled.solution.node_count > solved


def test_belief_episode_returns_invert_uniforms_on_cumsum_edges_as_rollout_does():
    task = _edge_pomdp()
    model, T = task.models[0], task.horizon
    edges = np.unique(np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)], task.initial_dist.cumsum(),
        model.transition.cumsum(axis=-1).ravel(), model.observation.cumsum(axis=-1).ravel()]))
    pick = np.random.default_rng(0)
    env = pick.choice(edges, size=(40, 2 * T))
    actions = pick.integers(0, task.num_actions, size=(40, T))
    exact = solve_pomdp(task, BeliefSolverConfig(quantization=0.05))
    for handle in (PolicyHandle.random(), PolicyHandle.qmdp(solve_mdp(task)),
                   PolicyHandle.oracle(exact)):
        expected = [reference_rollout(task, handle, _FedRng(e.tolist(), a.tolist())
                                      ).online_return for e, a in zip(env, actions)]
        assert _stepped(task, handle, env, actions) == expected


# ---------------------------------------------------------------------------
# external policies over TCP


def test_external_policy_echo_over_tcp():
    task = tiny_energy_mdp(horizon=4)
    port, received = serve(
        lambda req: {"action": req["current_obs"] % req["num_actions"]})
    with ExternalPolicyClient.tcp("127.0.0.1", port, timeout=5.0) as client:
        ctx = "TRAJ 1: <O_1> 0, <A_1> 1, <R_1> 0.00"
        res = rollout(task, PolicyHandle.external(client, context=ctx), Rng(21),
                      task_id="probe-3")
    assert res.invalid_actions == 0
    for step in res.trajectory.steps:
        assert step.action == step.obs % 3
    # wire format of the requests
    assert [r["step"] for r in received] == [1, 2, 3, 4]
    first, last = received[0], received[-1]
    assert first["task_id"] == "probe-3"
    assert first["context"] == ctx
    assert first["history"] == []
    assert first["num_actions"] == 3
    assert isinstance(first["current_obs"], int)
    assert len(last["history"]) == 3
    assert set(last["history"][0]) == {"obs", "action", "reward"}


def test_external_invalid_action_maps_to_zero_and_counts():
    task = tiny_energy_mdp(horizon=3)
    port, _ = serve(lambda req: {"action": 99})
    with ExternalPolicyClient.tcp("127.0.0.1", port, timeout=5.0) as client:
        res = rollout(task, PolicyHandle.external(client), Rng(1))
    assert res.invalid_actions == 3
    assert all(s.action == 0 for s in res.trajectory.steps)


@pytest.mark.parametrize("reply", [
    "this is not json",
    '{"no_action": 1}',
    '{"action": true}',
    '{"action": 1.5}',
    '{"action": "1"}',
    '[1]',
])
def test_external_malformed_replies_raise_protocol_error(reply):
    task = tiny_energy_mdp(horizon=2)
    port, _ = serve(lambda req: reply)
    with ExternalPolicyClient.tcp("127.0.0.1", port, timeout=5.0) as client:
        with pytest.raises(ProtocolError):
            rollout(task, PolicyHandle.external(client), Rng(1))


def test_external_timeout_raises():
    def slow(req):
        time.sleep(2.0)
        return {"action": 0}

    task = tiny_energy_mdp(horizon=2)
    port, _ = serve(slow)
    with ExternalPolicyClient.tcp("127.0.0.1", port, timeout=0.2) as client:
        with pytest.raises(TimeoutError):
            rollout(task, PolicyHandle.external(client), Rng(1))


def test_a_failed_batch_closes_the_client():
    # the reply to request 0 comes after the timeout: read by the next query,
    # it would pass for that query's own reply
    def late_first(req):
        if req["n"] == 0:
            time.sleep(0.5)
        return {"action": req["n"]}

    port, _ = serve(late_first)
    with ExternalPolicyClient.tcp("127.0.0.1", port, timeout=0.2) as client:
        with pytest.raises(TimeoutError):
            client.query(['{"n":0}'], num_actions=2)
        time.sleep(0.4)  # the late reply has come in by now
        with pytest.raises(ProtocolError, match="closed"):
            client.query(['{"n":1}'], num_actions=2)
        client.close()  # closing again is a no-op


def test_external_reply_deadline_covers_a_drip_feeding_peer():
    # every recv returns within the timeout, but the reply line never ends
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    stop = threading.Event()

    def drip():
        conn, _ = srv.accept()
        with conn:
            conn.recv(65536)
            for _ in range(30):  # 3 s, then close
                if stop.wait(0.1):
                    break
                conn.sendall(b" ")
        srv.close()

    threading.Thread(target=drip, daemon=True).start()
    try:
        with ExternalPolicyClient.tcp("127.0.0.1", srv.getsockname()[1],
                                      timeout=0.3) as client:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                client.query(['{"x":1}'], num_actions=2)
            assert time.monotonic() - start < 1.5
    finally:
        stop.set()


OVERSIZE_CHILD = r"""
import sys
sys.stdin.readline()
sys.stdout.write(" " * int(sys.argv[1]) + '{"action": 1}\n')
sys.stdout.flush()
sys.stdin.read()
"""


def test_external_oversize_reply_line_raises_protocol_error():
    # leading blanks keep the line valid JSON, so only the length is at fault
    limit = importlib.import_module("decisionlab.rollout").MAX_REPLY_BYTES
    with ExternalPolicyClient.child_process(
            [sys.executable, "-c", OVERSIZE_CHILD, str(limit)], timeout=10.0) as client:
        with pytest.raises(ProtocolError, match="exceeds"):
            client.query(['{"x":1}'], num_actions=2)


_LINE_LIMIT = 48  # stands in for MAX_REPLY_BYTES, so that lines fall on both sides of it


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.binary(max_size=80).map(lambda line: line.replace(b"\n", b"")),
                          st.sampled_from([_LINE_LIMIT, _LINE_LIMIT + 1]).map(lambda n: b"x" * n)),
                min_size=1, max_size=6),
       st.lists(st.integers(1, 64), min_size=1, max_size=10))
def test_replies_are_reassembled_from_arbitrary_splits(lines, sizes):
    # replies come in chunks of the drawn sizes, in turn
    module, limit = importlib.import_module("decisionlab.rollout"), _LINE_LIMIT
    stream = b"".join(line + b"\n" for line in lines)
    chunks, at = [], 0
    while at < len(stream):
        chunks.append(stream[at:at + sizes[len(chunks) % len(sizes)]])
        at += len(chunks[-1])
    pending = iter(chunks)
    ready, peer = socket.socketpair()
    with (ExternalPolicyClient(5.0, sock=ready) as client, peer,
          mock.patch.object(module, "MAX_REPLY_BYTES", limit)):
        peer.sendall(b"!")  # keeps ``ready`` readable; ``read`` hands out the chunks
        client._read = lambda n: next(pending, b"")
        for line in lines:
            if len(line) > limit:
                with pytest.raises(ProtocolError, match="exceeds"):
                    client._exchange(b"", 1)
                assert len(client._buf) <= limit + max(sizes)  # it stopped reading at the limit
                break
            assert client._exchange(b"", 1) == [line]
        else:
            assert not client._buf and next(pending, None) is None


def test_external_eof_raises_protocol_error():
    task = tiny_energy_mdp(horizon=2)
    port, _ = serve(lambda req: None)  # close without replying
    with ExternalPolicyClient.tcp("127.0.0.1", port, timeout=5.0) as client:
        with pytest.raises(ProtocolError):
            rollout(task, PolicyHandle.external(client), Rng(1))


def test_external_client_query_validates_range_directly():
    port, _ = serve(lambda req: {"action": 2})
    with ExternalPolicyClient.tcp("127.0.0.1", port, timeout=5.0) as client:
        assert client.query(['{"x":1}'], num_actions=3) == [2]
        assert client.query(['{"x":1}', '{"x":2}'], num_actions=2) == [-1, -1]  # out of range
        assert client.query([], num_actions=2) == []


def test_external_closed_client_refuses_queries():
    port, _ = serve(lambda req: {"action": 0})
    client = ExternalPolicyClient.tcp("127.0.0.1", port, timeout=5.0)
    client.close()
    with pytest.raises(ProtocolError):
        client.query(['{"x":1}'], num_actions=2)


class LineRecorder:
    """Stands in for an external policy: records each request line and acts
    by how many it has seen."""

    def __init__(self):
        self.lines = []

    def query(self, lines, num_actions):
        actions = []
        for line in lines:
            self.lines.append(line)
            actions.append(len(self.lines) % num_actions)
        return actions


_AWKWARD_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"', "\\", '\\"', "\n\t\r\x00\x1f\x7f", "é☃ü", "𝄞\u2028", ""]))
_AWKWARD_REWARD = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e16, -1e16, 5e-324, 0.1]),
    st.floats())  # json writes nan and infinities as NaN and Infinity, on both sides


@settings(max_examples=150, deadline=None)
@given(_AWKWARD_TEXT, _AWKWARD_TEXT, st.integers(1, 12), st.integers(1, 4), st.data())
def test_external_request_lines_are_json_dumps_of_the_request(task_id, context, horizon,
                                                              rows, data):
    task = tiny_energy_mdp(horizon=horizon)
    drawn = iter(data.draw(st.lists(st.lists(_AWKWARD_REWARD, min_size=rows, max_size=rows),
                                     min_size=horizon, max_size=horizon)))
    uniforms = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                  min_size=rows * horizon, max_size=rows * horizon))
    client = LineRecorder()
    act = policy_actor(task, PolicyHandle.external(client, context), task_id=task_id)
    with np.errstate(over="ignore", invalid="ignore"):  # returns of huge or infinite rewards
        episodes = step_episodes(task, np.reshape(uniforms, (rows, horizon)), act,
                                 reward=lambda state, action: np.array(next(drawn)))
    obs, actions = episodes.obs.tolist(), episodes.actions.tolist()
    rewards = episodes.rewards.tolist()
    want = [json.dumps({"task_id": task_id, "step": t, "context": context,
                        "history": [{"obs": o, "action": a, "reward": r}
                                    for o, a, r in zip(obs[j], actions[j], rewards[j][:t - 1])],
                        "current_obs": obs[j][t - 1], "num_actions": task.num_actions},
                       separators=(",", ":"))
            for t in range(1, horizon + 1) for j in range(rows)]
    assert client.lines == want


@pytest.mark.parametrize("transport", ["tcp", "child"])
def test_a_client_keeps_one_selector_until_close(monkeypatch, transport):
    built, default = [], selectors.DefaultSelector

    def counted():
        built.append(default())
        return built[-1]

    monkeypatch.setattr(selectors, "DefaultSelector", counted)
    if transport == "tcp":
        port, received = serve(lambda req: {"action": req["step"] % 3})
        client = ExternalPolicyClient.tcp("127.0.0.1", port, timeout=5.0)
    else:
        client = ExternalPolicyClient.child_process(
            [sys.executable, "-u", "-c", CHILD_POLICY], timeout=10.0)
    with client:
        for t in range(100):
            assert client.query([f'{{"step":{t},"num_actions":3}}'], num_actions=3) == [t % 3]
        # a line with a newline in it would be two requests: refused, nothing sent
        with pytest.raises(ValueError, match="newline"):
            client.query(['{"step":1,"num_actions":3}\n{"step":2,"num_actions":3}'], 3)
        assert client.query(['{"step":101,"num_actions":3}'], num_actions=3) == [101 % 3]
        assert len(built) == 1 and built[0].get_map() is not None
    assert built[0].get_map() is None  # closed with the client
    if transport == "tcp":
        assert [req["step"] for req in received] == [*range(100), 101]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_opening_and_closing_clients_leaves_no_descriptor_open():
    cat = shutil.which("cat")
    assert cat is not None
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        # cat echoes the request line, which is a valid reply
        with ExternalPolicyClient.child_process([cat], timeout=10.0) as client:
            assert client.query(['{"action":1}'], num_actions=2) == [1]
    assert len(os.listdir("/proc/self/fd")) <= before


# ---------------------------------------------------------------------------
# external policies over stdio


CHILD_POLICY = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    sys.stdout.write(json.dumps({"action": req["step"] % req["num_actions"]}) + "\n")
    sys.stdout.flush()
"""


def test_external_child_process_policy():
    task = tiny_energy_mdp(horizon=4)
    with ExternalPolicyClient.child_process(
            [sys.executable, "-u", "-c", CHILD_POLICY], timeout=10.0) as client:
        res = rollout(task, PolicyHandle.external(client), Rng(3))
    actions = [s.action for s in res.trajectory.steps]
    assert actions == [1 % 3, 2 % 3, 3 % 3, 4 % 3]


def test_external_child_process_exit_detected():
    with ExternalPolicyClient.child_process(
            [sys.executable, "-c", "pass"], timeout=5.0) as client:
        time.sleep(0.3)
        with pytest.raises(ProtocolError):
            client.query(['{"x":1}'], num_actions=2)


IGNORES_SIGTERM = r"""
import signal, sys, time
signal.signal(signal.SIGTERM, signal.SIG_IGN)
for line in sys.stdin:
    sys.stdout.write('{"action": 0}\n')
    sys.stdout.flush()
time.sleep(60)
"""


def test_close_kills_a_child_that_ignores_sigterm(monkeypatch):
    # the package re-exports the ``rollout`` function under the module's name
    monkeypatch.setattr(importlib.import_module("decisionlab.rollout"), "CLOSE_GRACE_S", 0.2)
    client = ExternalPolicyClient.child_process(
        [sys.executable, "-c", IGNORES_SIGTERM], timeout=10.0)
    assert client.query(['{"x":1}'], num_actions=2) == [0]  # SIGTERM is ignored by now
    proc = client._proc
    start = time.monotonic()
    client.close()
    assert time.monotonic() - start < 5.0
    assert proc.returncode == -signal.SIGKILL
    with pytest.raises(ProtocolError):
        client.query(['{"x":1}'], num_actions=2)
    client.close()  # a second close is a no-op


# ---------------------------------------------------------------------------
# a period's requests in one batch


ECHO_CHILD = r"""
import sys
for line in sys.stdin:
    sys.stdout.write(line)
    sys.stdout.flush()
"""


def _padded_requests(count, width):
    """Request lines that are also valid replies: ``{"action": i % 5}``,
    padded to about ``width`` bytes, so that an echo peer answers each."""
    return [json.dumps({"action": i % 5, "pad": "x" * (width - 30 + i % 7)}) for i in range(count)]


def _split_tcp_peer(seed, close_after=None):
    """A TCP peer that reads in chunks of random size and echoes every
    complete line back in pieces of random size; after ``close_after`` lines
    it closes the connection instead.  Returns its port."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    pick = np.random.default_rng(seed)

    def run():
        conn, _ = srv.accept()
        srv.close()
        buf, seen = b"", 0
        with conn:
            while chunk := conn.recv(int(pick.integers(1, 70000))):
                buf += chunk
                *done, buf = buf.split(b"\n")
                if close_after is not None and seen + len(done) >= close_after:
                    return
                seen += len(done)
                out = b"".join(line + b"\n" for line in done)
                while out:
                    cut = int(pick.integers(1, 4000))
                    conn.sendall(out[:cut])
                    out = out[cut:]

    threading.Thread(target=run, daemon=True).start()
    return srv.getsockname()[1]


def _bounded(client, call, seconds):
    """``[call()]``, or ``[the exception it raised]``, or ``[]`` if it has not
    returned within ``seconds``: it runs in a thread, so that a call that
    blocks fails its test instead of hanging it.  A call still running then
    has ``client``'s transport cut under it (child killed, socket shut)."""
    out = []

    def run():
        try:
            out.append(call())
        except Exception as exc:
            out.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        if client._proc is not None:
            client._proc.kill()
        if client._sock is not None:
            client._sock.shutdown(socket.SHUT_RDWR)
        worker.join(5.0)
        out.clear()
    return out


@pytest.mark.parametrize("transport", ["child", "tcp"])
def test_a_period_larger_than_the_buffers_completes_in_request_order(transport):
    # 3,000 lines of about 420 bytes: 1.3 MB each way, past any pipe or socket buffer
    lines = _padded_requests(3000, 420)
    assert sum(map(len, lines)) > 1 << 20
    if transport == "child":
        client = ExternalPolicyClient.child_process(
            [sys.executable, "-u", "-c", ECHO_CHILD], timeout=10.0)
    else:
        client = ExternalPolicyClient.tcp("127.0.0.1", _split_tcp_peer(3), timeout=10.0)
    with client:
        batch = _bounded(client, lambda: client.query(lines, num_actions=4), 20.0)
        one_by_one = _bounded(client, lambda: [client.query([line], num_actions=4)[0]
                                               for line in lines[:200]], 20.0)
    assert batch == [[i % 5 if i % 5 < 4 else -1 for i in range(3000)]]
    assert one_by_one == [batch[0][:200]]


@pytest.mark.parametrize("transport", ["child", "tcp", "child-input-closed"])
def test_a_peer_that_closes_mid_period_raises_protocol_error(transport):
    lines = _padded_requests(3000, 420)
    if transport == "child":  # answers three requests, then exits
        client = ExternalPolicyClient.child_process([sys.executable, "-u", "-c", (
            "import sys\nfor _ in range(3): sys.stdout.write(sys.stdin.readline())")],
            timeout=10.0)
    elif transport == "child-input-closed":  # reads nothing and keeps its output open
        client = ExternalPolicyClient.child_process([sys.executable, "-c", (
            "import os, time\nos.close(0)\ntime.sleep(30)")], timeout=10.0)
        time.sleep(0.5)
    else:
        client = ExternalPolicyClient.tcp("127.0.0.1", _split_tcp_peer(4, close_after=3),
                                          timeout=10.0)
    with client:
        outcome = _bounded(client, lambda: client.query(lines, num_actions=4), 20.0)
    assert len(outcome) == 1 and isinstance(outcome[0], ProtocolError)


def test_the_timeout_bounds_each_reply_of_a_period():
    # six replies 0.25 s apart: 1.5 s in all, each within the 0.6 s timeout
    def slow(req):
        time.sleep(0.25)
        return {"action": req["step"] % 3}

    port, _ = serve(slow)
    with ExternalPolicyClient.tcp("127.0.0.1", port, timeout=0.6) as client:
        lines = [f'{{"step":{t},"num_actions":3}}' for t in range(6)]
        assert client.query(lines, num_actions=3) == [t % 3 for t in range(6)]


def test_a_child_that_stops_reading_times_out_while_written_to():
    sleep = shutil.which("sleep")
    assert sleep is not None
    with ExternalPolicyClient.child_process([sleep, "30"], timeout=1.0) as client:
        start = time.monotonic()
        outcome = _bounded(client, lambda: client.query(['{"pad":"%s"}' % ("x" * 300_000)], 2),
                           5.0)
        elapsed = time.monotonic() - start
    assert len(outcome) == 1 and isinstance(outcome[0], TimeoutError)
    assert 1.0 <= elapsed < 3.0


# ---------------------------------------------------------------------------
# golden digests


# SHA-256 over 8 episodes per (task, policy kind): encoded trajectory,
# repr(online_return), invalid-action count and the raw bytes of every belief.
# Reruns only prove determinism within one version; these fixed values pin
# the rollout loop's output bytes across versions.
GOLDEN_ROLLOUT_DIGESTS = {
    "mdp/random":
        "3f15f02e7a9a6d294adf8529508fab6aaa250e56f6adf7c71a991ae2fece3c50",
    "mdp/oracle":
        "3af99e2c12445364f09a264d0355cfd6aa8f85d44a240f499525027a0093feb9",
    "pomdp/random":
        "df0e75b3399b8913fecafae717eb61a351b65f889830a20dedf48034c92c8e4d",
    "pomdp/oracle":
        "91f5c2d4c825a1f70123b0e013eb143746d5aa1779234574a36da99c5ad8a8d9",
    "pomdp/qmdp":
        "03be933a9db436e2bc698ec4f6eaefb204d81fc49714014a76b600c764207738",
    "apomdp/random":
        "67c6dd8fee7ec3f2c2501092b6135173e1734878db94d0e025712fd731175ad7",
    "apomdp/oracle":
        "c86355078d4edc9d60c7e398a7f7100fa4b836bd3dd79dea9c4afe30f6bd47a4",
    "apomdp/qmdp":
        "89c05b60a759d44b533bf86a9e2a1b7b0ac4644d1af9286c44872248cde4595c",
    "darkroom/random":
        "98f5a9f882b56eb1cef064491ce2c007555eb561cc30f428945a2f045f80d8f9",
    "darkroom/oracle":
        "b15d8703b15d36076c6f1e67e65acd342f643ff45249453da164c4a9b0b6fb6f",
}


def _golden_tasks():
    return {
        "mdp": gen_energy_mdp(EnergyParams(energy_cap=3, horizon=6), Rng(101)),
        # noisy enough that the oracle and QMDP disagree on some episodes
        "pomdp": gen_energy_pomdp(EnergyParams(energy_cap=3, obs_prob=0.6, horizon=6),
                                  Rng(106)),
        "apomdp": gen_energy_apomdp(EnergyParams(energy_cap=3, obs_prob=0.6, horizon=5),
                                    AmbiguityConfig(num_models=3), Rng(108)),
        "darkroom": DarkroomTask(goal=(3, 7), size=8, horizon=24).to_mdp(),
    }


def test_rollout_golden_digests():
    digests = {}
    for setting, task in _golden_tasks().items():
        reference, label = reference_policy(task)
        assert label == "exact"
        kinds = ["random", "oracle"] + (["qmdp"] if setting in ("pomdp", "apomdp") else [])
        for kind in kinds:
            handle = evaluation_policy(kind, task, reference)
            h = hashlib.sha256()
            for j in range(8):
                res = rollout(task, handle, Rng(2026).split(j), task_id=f"{setting}-{kind}")
                h.update(encode(res.trajectory).encode() + b"\n")
                h.update(f"{res.online_return!r} {res.invalid_actions}\n".encode())
                for belief in res.beliefs or ():
                    h.update(belief.probs.tobytes())
            digests[f"{setting}/{kind}"] = h.hexdigest()
    assert digests == GOLDEN_ROLLOUT_DIGESTS
