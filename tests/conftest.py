"""Shared fixtures and independent reference computations.

The reference implementations here (policy enumeration, unmemoized
expectimax, robust hand recursion, BFS, a per-episode rollout loop) are
deliberately naive and written against the math directly, so solver and
stepper tests compare two genuinely different computations.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from decisionlab.core import Belief, KernelPair, TabularTask, Trajectory, belief_update
from decisionlab.envs import energy_kernels, noisy_level_observation

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# tiny task builders


def tiny_energy_mdp(p=0.8, horizon=3, energy_cap=2, discount=0.95) -> TabularTask:
    P, R = energy_kernels(energy_cap, -0.02, p)
    S = energy_cap + 1
    return TabularTask("mdp", [KernelPair(P)], R, np.full(S, 1.0 / S), horizon, discount)


def tiny_energy_pomdp(p=0.8, obs_prob=0.8, horizon=3, energy_cap=2,
                      discount=0.95) -> TabularTask:
    mdp = tiny_energy_mdp(p, horizon, energy_cap, discount)
    obs = noisy_level_observation(mdp.num_states, mdp.num_actions, obs_prob)
    return TabularTask("pomdp", [KernelPair(mdp.models[0].transition, obs)], mdp.reward,
                       mdp.initial_dist, horizon, discount)


# ---------------------------------------------------------------------------
# brute-force references


def enumerate_mdp_value(mdp: TabularTask) -> float:
    """Best expected return over ALL deterministic Markov policies.

    Evaluates every (T x S -> A) table by exact backward policy evaluation;
    exponential, only for tiny tasks.
    """
    S, A, T = mdp.num_states, mdp.num_actions, mdp.horizon
    best = -np.inf
    per_period = list(itertools.product(range(A), repeat=S))
    for choice in itertools.product(per_period, repeat=T):
        v = np.zeros(S)
        for t in range(T - 1, -1, -1):
            acts = np.array(choice[t])
            idx = np.arange(S)
            v = mdp.reward[idx, acts] + mdp.discount * np.einsum(
                "sp,p->s", mdp.models[0].transition[idx, acts], v)
        best = max(best, float(mdp.initial_dist @ v))
    return best


def uniform_policy_value(mdp: TabularTask) -> float:
    """Exact expected return of the uniform-random policy."""
    v = np.zeros(mdp.num_states)
    for _ in range(mdp.horizon):
        q = mdp.reward + mdp.discount * (mdp.models[0].transition @ v)
        v = q.mean(axis=1)
    return float(mdp.initial_dist @ v)


def expectimax_pomdp_value(pomdp: TabularTask) -> float:
    """Unmemoized exact expectimax over the (action, observation) tree."""
    P, Q, R = pomdp.models[0].transition, pomdp.models[0].observation, pomdp.reward
    gamma, T = pomdp.discount, pomdp.horizon

    def value(t, b):
        if t > T:
            return 0.0
        best = -np.inf
        for a in range(pomdp.num_actions):
            u = float(b @ R[:, a])
            if t < T:
                pred = b @ P[:, a, :]
                future = 0.0
                for o in range(pomdp.num_obs):
                    post = pred * Q[:, a, o]
                    mass = post.sum()
                    if mass <= 0.0:
                        continue
                    future += mass * value(t + 1, post / mass)
                u += gamma * future
            best = max(best, u)
        return best

    return value(1, pomdp.initial_dist.copy())


def robust_q_values(models, reward, rho, horizon, discount, alpha,
                    quantizer=None) -> np.ndarray:
    """Per-action values at period 1 of the exact pessimism-weighted recursion
    over a candidate-model set.

    ``quantizer`` optionally maps each posterior onto the solver's grid so the
    recursion can be compared at shared representatives.
    """
    num_actions = reward.shape[1]
    num_obs = models[0][1].shape[2]

    def q_values(t, b):
        out = []
        for a in range(num_actions):
            u = float(b @ reward[:, a])
            if t < horizon:
                h = []
                for P, Q in models:
                    pred = b @ P[:, a, :]
                    total, acc = 0.0, 0.0
                    for o in range(num_obs):
                        post = pred * Q[:, a, o]
                        mass = post.sum()
                        if mass <= 0.0:
                            continue
                        child = post / mass
                        if quantizer is not None:
                            child = quantizer(child)
                        total += mass
                        acc += mass * max(q_values(t + 1, child))
                    h.append(acc / total)
                h = np.array(h)
                u += discount * (alpha * h.min() + (1 - alpha) * h.max())
            out.append(u)
        return out

    start = rho if quantizer is None else quantizer(np.asarray(rho, float))
    return np.array(q_values(1, np.asarray(start, float)))


def robust_value(models, reward, rho, horizon, discount, alpha,
                 quantizer=None) -> float:
    """Exact optimal value of the pessimism-weighted recursion (see
    ``robust_q_values``)."""
    return float(robust_q_values(models, reward, rho, horizon, discount, alpha,
                                 quantizer).max())


def darkroom_bfs_distance(goal: tuple[int, int], size: int = 10) -> int:
    """Grid BFS from (0, 0); independent of the closed-form manhattan answer."""
    from collections import deque
    start = (0, 0)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        if (r, c) == goal:
            return seen[(r, c)]
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr = min(max(r + dr, 0), size - 1)
            nc = min(max(c + dc, 0), size - 1)
            if (nr, nc) not in seen:
                seen[(nr, nc)] = seen[(r, c)] + 1
                queue.append((nr, nc))
    raise AssertionError("goal unreachable")


def reference_rollout(task: TabularTask, policy, rng, task_id: str = ""):
    """One episode, stepped one period at a time: ``rollout`` as a scalar loop.

    The environment draws each uniform from ``rng.split(0)`` as it needs it
    (``Rng.draw_index``): the initial state, on a belief task the first
    observation (kernel slot 0), then a transition and, on a belief task, an
    observation per later period.  A random policy draws ``integers(0, A)``
    from ``rng.split(1)`` once per period; an oracle acts by its solution's
    ``action`` (on the state, or on the nominal Bayes belief), a qmdp handle
    by ``qmdp_action``, and an external one sends one request per period,
    with invalid actions mapped to 0 and counted.  Handles are not checked
    against the task.  Returns ``rollout``'s ``RolloutResult``.
    """
    from decisionlab.rollout import InvalidAction, RolloutResult

    env_rng, policy_rng = rng.split(0), rng.split(1)
    nominal = task.models[0]
    transition, observation = nominal.transition, nominal.observation
    traj, invalid = Trajectory(task_id), 0
    state = env_rng.draw_index(task.initial_dist)
    obs, belief, beliefs = state, None, None
    if observation is not None:
        obs = env_rng.draw_index(observation[state, 0])
        belief = Belief(task.initial_dist)
        beliefs = [belief]
    for t in range(1, task.horizon + 1):
        if policy.kind == "random":
            action = int(policy_rng.integers(0, task.num_actions))
        elif policy.kind == "qmdp":
            action = policy.solution.qmdp_action(t, belief)
        elif policy.kind == "oracle":
            action = policy.solution.action(t, obs if belief is None else belief)
        else:
            request = {"task_id": task_id, "step": t, "context": policy.context,
                       "history": [{"obs": s.obs, "action": s.action, "reward": s.reward}
                                   for s in traj.steps],
                       "current_obs": int(obs), "num_actions": task.num_actions}
            try:
                action = policy.client.query(request, task.num_actions)
            except InvalidAction:
                action, invalid = 0, invalid + 1
        traj.append(obs, action, float(task.reward[state, action]))
        if t < task.horizon:
            state = env_rng.draw_index(transition[state, action])
            obs = state
            if observation is not None:
                obs = env_rng.draw_index(observation[state, action])
                belief = belief_update(belief, action, obs, transition, observation)
                beliefs.append(belief)
    return RolloutResult(traj, traj.discounted_return(task.discount), beliefs, invalid)


@pytest.fixture
def rng_factory():
    from decisionlab.core import Rng

    def make(seed=0, stream=0):
        return Rng(seed, stream)

    return make
