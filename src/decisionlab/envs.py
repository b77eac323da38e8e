"""Task families: stochastic energy management and the Darkroom gridworld.

Energy management: states are battery levels 0..E, actions are {charge-A,
work, charge-B} where the two charge actions are deliberately identical
(index 0 and 2), so an agent must discover the redundancy from data.  Work
pays the normalized battery level and drains one unit with the same success
probability p that charging gains one; charging pays a small fixed cost.
Partial observability blurs the level through a symmetric-noise channel, and
the ambiguous variant surrounds the true kernels with a finite set of
Dirichlet-perturbed models constrained to a per-row KL ball.

Darkroom: a 10x10 grid with an unknown goal cell; reward 1 only for executing
"stay" on the goal.  Dynamics are deterministic and fully observed; a
``DarkroomTask`` is the task-file spec and ``to_mdp()`` the task itself.
Every goal on a grid shares one transition kernel (``darkroom_kernel``) and
differs only in its reward column (``darkroom_rewards``).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import KernelPair, Rng, TabularTask, kl_divergence

SCHEMA_VERSION = 1


class SamplingExhausted(RuntimeError):
    """Rejection sampling failed to land inside the KL ball within max_attempts."""


# ---------------------------------------------------------------------------
# energy management


@dataclass
class EnergyParams:
    """Generator knobs for the energy-management family.

    ``success_prob=None`` draws p uniformly from ``p_range`` per task, which is
    the usual task-distribution regime; fixing it pins a single task.
    ``obs_prob`` is the probability the observed level equals the true level
    (remaining mass spread uniformly over the other levels); it only matters
    for the partially observed variants.
    """

    energy_cap: int = 9
    charge_cost: float = -0.02
    success_prob: float | None = None
    p_range: tuple[float, float] = (0.5, 1.0)
    obs_prob: float = 0.8
    horizon: int = 10
    discount: float = 0.95


def energy_kernels(energy_cap: int, charge_cost: float, success_prob: float):
    """Transition (S, A, S) and reward (S, A) tables for one energy task.

    Actions 0 and 2 both charge (level +1 with prob p, cost ``charge_cost``);
    action 1 works (level -1 with prob p, reward = level / energy_cap).
    """
    E = energy_cap
    S, A = E + 1, 3
    P = np.zeros((S, A, S))
    R = np.zeros((S, A))
    for s in range(S):
        up, down = min(E, s + 1), max(0, s - 1)
        for a in (0, 2):
            P[s, a, up] += success_prob
            P[s, a, s] += 1.0 - success_prob
            R[s, a] = charge_cost
        P[s, 1, down] += success_prob
        P[s, 1, s] += 1.0 - success_prob
        R[s, 1] = s / E
    return P, R


def _resolve_success_prob(params: EnergyParams, rng: Rng) -> float:
    if params.success_prob is not None:
        p = float(params.success_prob)
    else:
        lo, hi = params.p_range
        p = float(rng.uniform(lo, hi))
    if not (0.0 < p <= 1.0):
        raise ValueError(f"success_prob must lie in (0, 1], got {p}")
    return p


def gen_energy_mdp(params: EnergyParams, rng: Rng) -> TabularTask:
    """Sample one fully observed energy task (uniform initial level)."""
    p = _resolve_success_prob(params, rng)
    P, R = energy_kernels(params.energy_cap, params.charge_cost, p)
    S = params.energy_cap + 1
    return TabularTask("mdp", [KernelPair(P)], R, np.full(S, 1.0 / S), params.horizon,
                       params.discount)


def noisy_level_observation(num_states: int, num_actions: int, obs_prob: float) -> np.ndarray:
    """Symmetric-noise level sensor: true level w.p. q, else uniform over the rest."""
    if not (0.0 < obs_prob <= 1.0):
        raise ValueError("obs_prob must lie in (0, 1]")
    S = num_states
    Q = np.full((S, S), (1.0 - obs_prob) / (S - 1))
    np.fill_diagonal(Q, obs_prob)
    # the sensor does not depend on the action; tile for the (S, A, O) layout
    return np.repeat(Q[:, None, :], num_actions, axis=1)


def gen_energy_pomdp(params: EnergyParams, rng: Rng) -> TabularTask:
    """Sample one partially observed energy task."""
    mdp = gen_energy_mdp(params, rng)
    obs = noisy_level_observation(mdp.num_states, mdp.num_actions, params.obs_prob)
    return replace(mdp, kind="pomdp", models=[KernelPair(mdp.models[0].transition, obs)])


# ---------------------------------------------------------------------------
# KL-ball ambiguity sets


@dataclass
class AmbiguityConfig:
    """Knobs for the Dirichlet rejection sampler producing candidate models.

    Every row of every candidate kernel satisfies KL(base_row || candidate_row)
    <= kl_radius.  ``concentration`` scales the Dirichlet around the base row:
    larger values concentrate candidates near the base; the default keeps the
    observation rows' typical divergence near (but inside) the ball so the
    radius constraint is actually exercised.
    """

    num_models: int = 3
    kl_radius: float = 0.2
    concentration: float = 50.0
    max_attempts: int = 10000
    alpha: float = 0.5


def _perturb_row(row: np.ndarray, config: AmbiguityConfig, rng: Rng) -> np.ndarray:
    """One Dirichlet draw around ``row`` inside the KL ball; support is preserved.

    Zero entries stay exactly zero, so candidate kernels never invent
    transitions or observations the base model rules out.
    """
    support = np.flatnonzero(row > 0.0)
    if support.size == 1:
        return row.copy()
    base = row[support]
    for _ in range(config.max_attempts):
        draw = rng.dirichlet(config.concentration * base)
        if np.any(draw <= 0.0):
            continue  # zero mass on the support would make the KL infinite
        if kl_divergence(base, draw) <= config.kl_radius:
            out = np.zeros_like(row)
            out[support] = draw
            return out
    raise SamplingExhausted(
        f"no Dirichlet draw within KL radius {config.kl_radius} "
        f"after {config.max_attempts} attempts")


def sample_ambiguity_set(transition: np.ndarray, observation: np.ndarray,
                         config: AmbiguityConfig, rng: Rng) -> list[KernelPair]:
    """Base model plus ``num_models - 1`` perturbed candidates.

    Element 0 is always the unperturbed base.  For perturbed candidates, rows
    of the transition kernel that are identical across actions in the base
    (the two redundant charge actions) receive a single shared perturbation,
    so action redundancy survives in every candidate; the observation kernel
    is perturbed once per state and tiled across actions, matching the
    action-independent sensor.
    """
    if config.num_models < 1:
        raise ValueError("num_models must be >= 1")
    S, A, _ = transition.shape
    O = observation.shape[2]
    models = [KernelPair(transition.copy(), observation.copy())]
    for _ in range(config.num_models - 1):
        P = np.zeros_like(transition)
        for s in range(S):
            done: list[int] = []
            for a in range(A):
                for prev in done:
                    if np.array_equal(transition[s, a], transition[s, prev]):
                        P[s, a] = P[s, prev]
                        break
                else:
                    P[s, a] = _perturb_row(transition[s, a], config, rng)
                done.append(a)
        Q_rows = np.zeros((S, O))
        for s in range(S):
            Q_rows[s] = _perturb_row(observation[s, 0], config, rng)
        Q = np.repeat(Q_rows[:, None, :], A, axis=1)
        models.append(KernelPair(P, Q))
    return models


def gen_energy_apomdp(params: EnergyParams, config: AmbiguityConfig,
                      rng: Rng) -> TabularTask:
    """Sample one ambiguous energy task: base kernels plus a KL-ball model set."""
    pomdp = gen_energy_pomdp(params, rng)
    base = pomdp.models[0]
    models = sample_ambiguity_set(base.transition, base.observation, config, rng)
    return replace(pomdp, kind="apomdp", models=models, alpha=config.alpha)


# ---------------------------------------------------------------------------
# darkroom


DARKROOM_ACTIONS = ("up", "down", "left", "right", "stay")
DARKROOM_STAY = 4
_DARKROOM_DELTA = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))  # (row, col) per action


@dataclass
class DarkroomTask:
    """A Darkroom task file's content; ``to_mdp()`` is the task itself.

    States are cells indexed row-major (state = row * size + col); the agent
    starts at (0, 0); moves off the edge clamp in place; reward 1 only for
    "stay" on the goal cell.
    """

    goal: tuple[int, int]
    size: int = 10
    horizon: int = 100

    def __post_init__(self):
        r, c = self.goal
        if not (0 <= r < self.size and 0 <= c < self.size):
            raise ValueError(f"goal {self.goal} outside {self.size}x{self.size} grid")
        self.goal = (int(r), int(c))

    def to_mdp(self) -> TabularTask:
        """Tabular encoding: the grid's shared ``darkroom_kernel``, this goal's
        column of ``darkroom_rewards``, start fixed at cell 0, undiscounted."""
        rho = np.zeros(self.size * self.size)
        rho[0] = 1.0
        return TabularTask("mdp", [KernelPair(darkroom_kernel(self.size))],
                           darkroom_rewards([self.goal], self.size)[:, :, 0], rho,
                           self.horizon, 1.0)


# size -> kernel, kept only while a task or caller holds it: a kernel held for
# the life of the process raised the peak RSS of later work (fragmented heap)
_DARKROOM_KERNELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def darkroom_kernel(size: int) -> np.ndarray:
    """The read-only one-hot transition kernel (S, A, S) of a ``size x size``
    grid, shared by every goal's task: built once, and again only after
    nothing holds it any more."""
    P = _DARKROOM_KERNELS.get(size)
    if P is None:
        states = np.arange(size * size)
        row, col = np.divmod(states, size)
        P = np.zeros((size * size, len(DARKROOM_ACTIONS), size * size))
        for a, (dr, dc) in enumerate(_DARKROOM_DELTA):
            nxt = np.clip(row + dr, 0, size - 1) * size + np.clip(col + dc, 0, size - 1)
            P[states, a, nxt] = 1.0
        P.flags.writeable = False
        _DARKROOM_KERNELS[size] = P
    return P


def darkroom_rewards(goals: list[tuple[int, int]], size: int) -> np.ndarray:
    """Rewards (S, A, G) of goals on a ``size x size`` grid, one column per
    goal: 1 for "stay" on the goal cell, else 0."""
    R = np.zeros((size * size, len(DARKROOM_ACTIONS), len(goals)))
    R[[r * size + c for r, c in goals], DARKROOM_STAY, np.arange(len(goals))] = 1.0
    return R


def all_darkroom_goals(size: int = 10) -> list[tuple[int, int]]:
    return [(r, c) for r in range(size) for c in range(size)]


def split_goals(rng: Rng, size: int = 10,
                train_fraction: float = 0.8) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Disjoint train/test goal sets via a seeded permutation of all cells."""
    goals = all_darkroom_goals(size)
    order = rng.permutation(len(goals))
    cut = int(round(train_fraction * len(goals)))
    train = [goals[i] for i in order[:cut]]
    test = [goals[i] for i in order[cut:]]
    return train, test


# ---------------------------------------------------------------------------
# task serialization
#
# Floats go through json's repr-based encoder (shortest round-trip decimal),
# so save -> load -> save is byte-identical and kernels reload bit-exact.


def task_to_dict(task, meta: dict | None = None) -> dict:
    if isinstance(task, DarkroomTask):
        body = {"kind": "darkroom", "goal": list(task.goal), "size": task.size,
                "horizon": task.horizon}
    elif isinstance(task, TabularTask):
        body = {
            "kind": task.kind,
            "num_states": task.num_states, "num_actions": task.num_actions,
            "horizon": task.horizon, "discount": task.discount,
            "reward": task.reward.tolist(), "initial_dist": task.initial_dist.tolist(),
        }
        nominal = task.models[0]
        if task.kind == "apomdp":
            body.update(alpha=task.alpha, models=[
                {"transition": m.transition.tolist(), "observation": m.observation.tolist()}
                for m in task.models])
        else:  # the one model's kernels sit at the top level
            body["transition"] = nominal.transition.tolist()
        if task.kind == "pomdp":
            body["observation"] = nominal.observation.tolist()
        if task.kind != "mdp":
            body["num_obs"] = task.num_obs
    else:
        raise TypeError(f"cannot serialize task of type {type(task).__name__}")
    body["schema_version"] = SCHEMA_VERSION
    if meta:
        body["meta"] = meta
    return body


def task_from_dict(data: dict):
    """Inverse of ``task_to_dict``; declared sizes must match the arrays."""
    kind = data.get("kind")
    if kind == "darkroom":
        return DarkroomTask(tuple(data["goal"]), data["size"], data["horizon"])
    if kind not in ("mdp", "pomdp", "apomdp"):
        raise ValueError(f"unknown task kind: {kind!r}")
    models = [KernelPair(np.array(m["transition"]),
                         None if kind == "mdp" else np.array(m["observation"]))
              for m in (data["models"] if kind == "apomdp" else [data])]
    task = TabularTask(kind, models, np.array(data["reward"]),
                       np.array(data["initial_dist"]), data["horizon"], data["discount"],
                       data["alpha"] if kind == "apomdp" else 1.0)
    declared = (data["num_states"], data["num_actions"],
                data["num_obs"] if kind != "mdp" else data["num_states"])
    if declared != (task.num_states, task.num_actions, task.num_obs):
        raise ValueError(f"declared sizes {declared} disagree with the arrays' "
                         f"{(task.num_states, task.num_actions, task.num_obs)}")
    return task


def save_task(path, task, meta: dict | None = None):
    Path(path).write_text(
        json.dumps(task_to_dict(task, meta), sort_keys=True, indent=1) + "\n")


def load_task(path):
    data = json.loads(Path(path).read_text())
    return task_from_dict(data), data.get("meta", {})
