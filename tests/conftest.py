"""Shared fixtures and independent reference computations.

The reference implementations here (policy enumeration, unmemoized
expectimax, robust hand recursion, BFS) are deliberately naive and written
against the math directly, so solver tests compare two genuinely different
computations.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from decisionlab.core import KernelPair, TabularTask
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


def robust_value(models, reward, rho, horizon, discount, alpha,
                 quantizer=None) -> float:
    """Exact pessimism-weighted recursion over a candidate-model set.

    ``quantizer`` optionally maps each posterior onto the solver's grid so the
    recursion can be compared at shared representatives.
    """
    num_actions = reward.shape[1]
    num_obs = models[0][1].shape[2]

    def value(t, b):
        if t > horizon:
            return 0.0
        best = -np.inf
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
                        acc += mass * value(t + 1, child)
                    h.append(acc / total)
                h = np.array(h)
                u += discount * (alpha * h.min() + (1 - alpha) * h.max())
            best = max(best, u)
        return best

    start = rho if quantizer is None else quantizer(np.asarray(rho, float))
    return value(1, np.asarray(start, float))


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


@pytest.fixture
def rng_factory():
    from decisionlab.core import Rng

    def make(seed=0, stream=0):
        return Rng(seed, stream)

    return make
