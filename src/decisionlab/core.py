"""Shared domain types: seeded randomness, the tabular task type, belief algebra.

Conventions used throughout the package:

* time is 1-based, ``t = 1..T``; a trajectory records one ``(obs, action, reward)``
  step per period,
* probability vectors / stochastic-matrix rows must sum to 1 within ``PROB_ATOL``
  and are renormalized exactly on construction,
* transition kernels are indexed ``[state, action, next_state]`` and observation
  kernels ``[state, action, obs]`` where ``state`` is the state *emitting* the
  observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

PROB_ATOL = 1e-9

_U64 = (1 << 64) - 1


class ZeroLikelihood(ValueError):
    """Bayes update conditioned on an observation with zero predictive mass."""


class Unsupported(ValueError):
    """KL divergence query where p has mass on an outcome q rules out."""


# ---------------------------------------------------------------------------
# randomness


def _splitmix64(z: int) -> int:
    """One step of the splitmix64 output mix; used to derive child stream ids."""
    z = (z + 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Hands ``Philox`` the key words ``(seed, stream)`` as they are.

    ``Philox(key=k)`` keys the generator the same way, but first builds a
    ``SeedSequence`` from OS entropy and then discards it.
    """

    def __init__(self, seed: int, stream: int):
        self.words = (seed, stream)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return np.array(self.words, dtype=np.uint64)


class Rng:
    """Counter-based generator with explicit stream splitting.

    Wraps numpy's Philox so that results are reproducible across platforms and
    insensitive to execution order: a generator is fully determined by
    ``(seed, stream)``, packed into the 128-bit Philox key as
    ``seed | (stream << 64)``.  ``split(i)`` derives an independent child
    stream from the parent stream id and the index ``i`` with a splitmix64
    mix, so parallel workers can build their own generators from plain
    integers without sharing state.  The numpy generator is built on the
    first draw, so a split that is never drawn from costs only the mix.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _U64
        self.stream = int(stream) & _U64
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.Philox(_PhiloxKey(self.seed, self.stream)))
        return self._gen

    def split(self, index: int) -> "Rng":
        child = _splitmix64(self.stream ^ _splitmix64(int(index)))
        return Rng(self.seed, child)

    # thin passthroughs for the handful of draws used in this package
    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def standard_normal(self, size=None, out=None):
        return self.gen.standard_normal(size, out=out)

    def chisquare(self, df, size=None):
        return self.gen.chisquare(df, size)

    def dirichlet(self, alpha):
        return self.gen.dirichlet(alpha)

    def permutation(self, x):
        return self.gen.permutation(x)

    def draw_index(self, probs: np.ndarray) -> int:
        """Sample a categorical index using a single uniform draw.

        Inverse-CDF keeps the number of underlying draws fixed per call, which
        keeps paired rollouts aligned stream-for-stream.
        """
        u = self.gen.random()  # the same double as uniform() with its default bounds
        return min(int(probs.cumsum().searchsorted(u, side="right")), len(probs) - 1)

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


# ---------------------------------------------------------------------------
# probability validation


def _validated_probs(arr: np.ndarray, name: str) -> np.ndarray:
    """Check that trailing-axis slices are probability vectors; renormalize exactly.

    Entries in ``[-PROB_ATOL, 0)`` are treated as roundoff and clipped to zero;
    anything more negative, non-finite, or with a row sum off by more than
    ``PROB_ATOL`` is rejected.  The result is read-only: a writeable array is
    copied, and a read-only one that needs no change is returned as it is.
    """
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite entries")
    if np.any(arr < -PROB_ATOL):
        raise ValueError(f"{name}: negative entries")
    if arr.flags.writeable or np.any(arr < 0.0):
        arr = np.clip(arr, 0.0, None)
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > PROB_ATOL):
        worst = float(np.abs(sums - 1.0).max())
        raise ValueError(f"{name}: rows must sum to 1 (max deviation {worst:.3e})")
    # Renormalize only rows measurably off 1: a freshly normalized row lands
    # within a few ulps of 1, so validation is idempotent and arrays survive
    # a save/load cycle bit-exact.
    tol = 4.0 * np.finfo(np.float64).eps * arr.shape[-1]
    off = np.abs(sums - 1.0) > tol
    if np.any(off):
        arr = np.where(off[..., None], arr / sums[..., None], arr)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# tabular tasks


@dataclass
class KernelPair:
    """One candidate model: transition (S, A, S) and observation (S, A, O).

    ``observation[s, a, o]`` is the probability of emitting ``o`` from state
    ``s`` when the most recent action was ``a``; the initial observation
    (before any action) uses action index 0.  A fully observed task has no
    observation kernel (None): its observation is its state.
    """

    transition: np.ndarray
    observation: np.ndarray | None = None


@dataclass
class TabularTask:
    """Finite-horizon tabular task: an MDP, a POMDP or an ambiguous POMDP.

    ``kind`` is "mdp" (the state is observed), "pomdp" or "apomdp" (dynamics
    known only up to the candidate models).  ``models[0]`` is the nominal
    model, which the task is simulated under; an MDP or POMDP has exactly one
    model.  ``reward`` has shape (S, A) and ``initial_dist`` (S,); the sizes
    are read from the arrays.  ``discount`` weights period t by
    discount**(t-1) in returns; ``alpha`` in [0, 1] weights worst-case
    against best-case model evaluation when planning (1 = fully pessimistic).
    """

    kind: str
    models: list[KernelPair]
    reward: np.ndarray
    initial_dist: np.ndarray
    horizon: int
    discount: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("mdp", "pomdp", "apomdp"):
            raise ValueError(f"kind must be mdp, pomdp or apomdp, got {self.kind!r}")
        if not self.models:
            raise ValueError("models must be non-empty")
        if self.kind != "apomdp" and len(self.models) != 1:
            raise ValueError(f"a {self.kind} task has exactly one model")
        self.reward = np.array(self.reward, dtype=np.float64)
        if self.reward.ndim != 2 or not np.all(np.isfinite(self.reward)):
            raise ValueError("reward: must be a finite (S, A) array")
        self.reward.flags.writeable = False
        S, A = self.reward.shape
        self.initial_dist = _validated_probs(self.initial_dist, "initial_dist")
        if self.initial_dist.shape != (S,):
            raise ValueError(f"initial_dist: shape {self.initial_dist.shape}, expected {(S,)}")
        fixed = []
        for i, m in enumerate(self.models):
            P = _validated_probs(m.transition, f"models[{i}].transition")
            if P.shape != (S, A, S):
                raise ValueError(f"models[{i}].transition: shape {P.shape}, "
                                 f"expected {(S, A, S)}")
            if (m.observation is None) != (self.kind == "mdp"):
                raise ValueError(f"models[{i}].observation: required for a belief "
                                 "task, absent for an mdp")
            Q = m.observation
            if Q is not None:
                Q = _validated_probs(Q, f"models[{i}].observation")
                want = fixed[0].observation.shape if fixed else (S, A, Q.shape[-1])
                if Q.shape != want:
                    raise ValueError(f"models[{i}].observation: shape {Q.shape}, "
                                     f"expected {want}")
            fixed.append(KernelPair(P, Q))
        self.models = fixed
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not (0.0 < self.discount <= 1.0):
            raise ValueError("discount must lie in (0, 1]")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def num_states(self) -> int:
        return self.reward.shape[0]

    @property
    def num_actions(self) -> int:
        return self.reward.shape[1]

    @property
    def num_obs(self) -> int:
        """Observation count; an MDP observes its state."""
        observation = self.models[0].observation
        return self.num_states if observation is None else observation.shape[2]


# ---------------------------------------------------------------------------
# beliefs


@dataclass
class Belief:
    """Probability vector over latent states."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = _validated_probs(np.asarray(self.probs, dtype=np.float64).ravel(), "belief")

    def __len__(self):
        return len(self.probs)


def belief_update(belief: Belief, action: int, obs: int,
                  transition: np.ndarray, observation: np.ndarray) -> Belief:
    """Bayes posterior over next states after taking ``action`` and seeing ``obs``.

    post(s') prop-to Q(obs | s', action) * sum_s P(s' | s, action) b(s).
    Raises ZeroLikelihood when the predictive mass of ``obs`` is zero.
    """
    pred = belief.probs @ transition[:, action, :]
    post = pred * observation[:, action, obs]
    mass = post.sum()
    if mass <= 0.0:
        raise ZeroLikelihood(
            f"observation {obs} has zero predictive probability under action {action}")
    return Belief(post / mass)


def _row_products(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows[i] @ matrix`` (or ``rows[i] @ matrix[i]`` for a stack of
    matrices) for each row of ``rows`` (n, S), as one (n, K) array.

    Bit for bit each row's own one-row product: numpy's matmul loops over
    the stack of (1, S) items in C and hands each to the BLAS gemv that
    ``rows[i] @ matrix`` calls (dot when K is 1, numpy's own loop when S is
    1), so a row's result does not depend on the rows that share the call.
    A 2-D product (gemm) or ``einsum`` rounds differently.
    """
    return np.matmul(rows[:, None, :], matrix)[:, 0]


def belief_updates(beliefs: np.ndarray, action: np.ndarray, obs: np.ndarray,
                   transition: np.ndarray, observation: np.ndarray) -> np.ndarray:
    """``belief_update`` of each row of ``beliefs`` (n, S) under its own action
    and observation, bit for bit, as validated probability rows; zero rows
    give an empty (0, S) array.

    Each prediction is its row's one-row product with its own
    ``transition[:, a, :]``, gathered as an (n, S, S) stack (see
    ``_row_products``), so a row's posterior does not depend on the rows
    that share its batch.  The rest is elementwise or row-wise.
    ``belief_update`` keeps its own scalar steps: one row through this batch
    costs 1.2-1.5 times as much at S = 10, and ``rollout`` updates one belief
    per period.
    """
    pred = _row_products(beliefs, transition.transpose(1, 0, 2)[action])
    post = pred * observation[:, action, obs].T
    mass = post.sum(axis=1)
    if (mass <= 0.0).any():
        j = int(np.argmax(mass <= 0.0))
        raise ZeroLikelihood(f"observation {obs[j]} has zero predictive probability "
                             f"under action {action[j]}")
    return _validated_probs(post / mass[:, None], "belief")


def belief_predictive(belief: Belief, action: int,
                      transition: np.ndarray, observation: np.ndarray) -> np.ndarray:
    """Predictive distribution over the next observation given belief and action."""
    pred = belief.probs @ transition[:, action, :]
    return pred @ observation[:, action, :]


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for finite distributions, with 0 log 0 = 0.

    Raises Unsupported when p places mass where q has none; the result is
    clipped at zero to absorb roundoff on nearly identical inputs.
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError("p and q must have the same length")
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        raise Unsupported("p has mass where q has none")
    val = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# trajectories


class Step(NamedTuple):
    obs: int
    action: int
    reward: float


@dataclass
class Trajectory:
    """One episode: (obs, action, reward) per period, plus the owning task id."""

    task_id: str
    steps: list[Step] = field(default_factory=list)

    def append(self, obs: int, action: int, reward: float):
        self.steps.append(Step(int(obs), int(action), float(reward)))

    def __len__(self):
        return len(self.steps)

    def discounted_return(self, discount: float) -> float:
        """Sum of discount**(t-1) * r_t, accumulated in step order."""
        total = 0.0
        weight = 1.0
        for step in self.steps:
            total += weight * step.reward
            weight *= discount
        return total
