"""Exact and robust oracles for ``TabularTask``.

``solve_mdp`` is plain finite-horizon backward induction under a task's
nominal transition kernel.  ``solve_pomdp`` (the nominal model alone) and
``solve_apomdp`` (every candidate model) share one belief-tree engine: beliefs reachable from the
initial distribution are enumerated level by level (one level per period),
quantized onto a simplex grid so that recurring beliefs are merged, and values
are computed by backward induction over the levels.  The robust recursion
evaluates, for every action, the candidate-model values

    H(b, a, m) = sum_o P(o | b, a, m) * V_{t+1}(update(b, a, o, m))

and combines them as ``alpha * min_m H + (1 - alpha) * max_m H`` before adding
the expected immediate reward; with a single candidate model this reduces to
the ordinary POMDP recursion, and the weighting interpolates between
worst-case (alpha = 1) and best-case (alpha = 0) planning.

Values are stored at quantized representatives: ``value(t, b)`` returns the
value of the grid point nearest ``b`` under largest-remainder rounding.  Each
level is stored once, as the sorted byte view of its keys that deduplication
and lookups share.  Queries off the solved tree lazily expand the missing
subtree; only the solve is held to the node budget (see ``RobustSolution``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Belief, KernelPair, TabularTask


class BudgetExceeded(RuntimeError):
    """The belief tree needs more distinct quantized nodes than allowed."""


# ---------------------------------------------------------------------------
# fully observed


@dataclass
class MdpSolution:
    """Backward-induction tables; row i holds period t = i + 1 (1-based time)."""

    task: TabularTask
    values: np.ndarray   # (T + 1, S); final row is the zero terminal value
    policy: np.ndarray   # (T, S) greedy actions, ties broken toward index 0

    def value(self, t: int, state: int) -> float:
        return float(self.values[t - 1, state])

    def action(self, t: int, state: int) -> int:
        return int(self.policy[t - 1, state])

    def q_values(self, t: int) -> np.ndarray:
        """State-action values at period t, shape (S, A)."""
        m = self.task
        future = m.models[0].transition @ self.values[t]  # (S, A) of E[V_{t+1}]
        return m.reward + m.discount * future

    def expected_return(self) -> float:
        """Optimal expected discounted return from the initial distribution."""
        return float(self.task.initial_dist @ self.values[0])


def solve_mdp(task: TabularTask) -> MdpSolution:
    """Exact finite-horizon backward induction under the nominal transition
    kernel, as if the state were observed."""
    T, S, A = task.horizon, task.num_states, task.num_actions
    transition = task.models[0].transition.reshape(S * A, S)
    states = np.arange(S)
    values = np.zeros((T + 1, S))
    policy = np.zeros((T, S), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        q = task.reward + task.discount * (transition @ values[t + 1]).reshape(S, A)
        policy[t] = q.argmax(axis=1)
        values[t] = q[states, policy[t]]
    return MdpSolution(task, values, policy)


# ---------------------------------------------------------------------------
# simplex quantization


def quantize_batch(probs: np.ndarray, ticks: int) -> np.ndarray:
    """Largest-remainder rounding of each row onto the grid {k / ticks}.

    Returns integer tick counts summing exactly to ``ticks`` per row.  Floors
    every coordinate, then distributes the remaining ticks to the largest
    fractional parts (ties toward lower index, stable across platforms).
    """
    probs = np.asarray(probs, dtype=np.float64)
    scaled = probs * ticks
    base = np.floor(scaled).astype(np.int32)
    frac = scaled - base
    short = ticks - base.sum(axis=1)
    order = np.argsort(-frac, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(probs.shape[0])[:, None]
    ranks[rows, order] = np.arange(probs.shape[1])[None, :]
    base += (ranks < short[:, None]).astype(np.int32)
    return base


def quantize_belief(belief: Belief, step: float) -> Belief:
    """Nearest grid belief under largest-remainder rounding; exact on grid points."""
    ticks = int(round(1.0 / step))
    key = quantize_batch(belief.probs[None, :], ticks)[0]
    return Belief(key.astype(np.float64) / ticks)


def _row_order_view(keys: np.ndarray) -> np.ndarray:
    """View int32 rows as fixed-width byte scalars whose memcmp order is
    numeric lexicographic order (big-endian, non-negative entries only)."""
    be = np.ascontiguousarray(keys.astype(">i4"))
    return be.view(f"V{4 * keys.shape[1]}").ravel()


def _view_rows(view: np.ndarray) -> np.ndarray:
    """The (k, S) big-endian int32 rows behind a ``_row_order_view``."""
    return view.view(">i4").reshape(len(view), view.dtype.itemsize // 4)


def _unique_rows(keys: np.ndarray) -> np.ndarray:
    """Distinct rows of ``keys`` as a sorted ``_row_order_view``; decoded with
    ``_view_rows`` they equal ``np.unique(keys, axis=0)``."""
    return np.unique(_row_order_view(keys))


# ---------------------------------------------------------------------------
# belief-tree engine


@dataclass
class BeliefSolverConfig:
    """Grid resolution, pruning, and resource limits for the belief-tree solver."""

    quantization: float = 1e-3
    node_budget: int = 5_000_000
    obs_prune: float = 1e-12
    expansion_chunk: int = 4096


class RobustSolution:
    """Backward-induction values over a quantized reachable belief tree.

    ``value(t, belief)`` evaluates the quantized representative of ``belief``
    at period ``t``; ``action(t, belief)`` is a one-step lookahead at the exact
    belief against the stored next-level values.  Beliefs outside the solved
    tree are handled by lazily solving the missing subtree.  Only the solve
    is held to ``node_budget``; lazily built nodes still count in
    ``node_count``, and their cache is emptied at the start of a query once it
    holds more than ``node_budget`` entries (a node's value depends only on
    its period and key, so answers do not change).
    """

    def __init__(self, models: list[KernelPair], reward: np.ndarray,
                 initial_dist: np.ndarray, horizon: int, discount: float,
                 alpha: float, config: BeliefSolverConfig):
        self.models = models
        self.reward = reward
        self.initial_dist = initial_dist
        self.horizon = horizon
        self.discount = discount
        self.alpha = alpha
        self.config = config
        self.ticks = int(round(1.0 / config.quantization))
        self.num_states = reward.shape[0]
        self.num_actions = reward.shape[1]
        self.num_obs = models[0].observation.shape[2]
        # per period t (index t-1): sorted _row_order_view of its keys, values
        self._levels: list[np.ndarray] = []
        self._values: list[np.ndarray] = []
        # lazily added off-tree nodes: per period dict key-bytes -> value
        self._extra: list[dict[bytes, float]] = [dict() for _ in range(horizon)]
        self.node_count = 0
        self.level_sizes: list[int] = []
        self._solve()

    # -- construction -------------------------------------------------------

    def _check_budget(self, nodes: int):
        if nodes > self.config.node_budget:
            raise BudgetExceeded(
                f"belief tree exceeds node budget {self.config.node_budget}")

    def _beliefs(self, view: np.ndarray) -> np.ndarray:
        return _view_rows(view).astype(np.float64) / self.ticks

    def _expand_chunk(self, beliefs: np.ndarray):
        """Children of a batch of beliefs for every (action, model, obs).

        Returns quantized child keys (c, A, M, O, S) int32 and observation
        weights (c, A, M, O) renormalized over unpruned observations; pruned
        children carry weight exactly 0 and an all-zero key.
        """
        c = beliefs.shape[0]
        A, M, O, S = (self.num_actions, len(self.models), self.num_obs,
                      self.num_states)
        keys = np.zeros((c, A, M, O, S), dtype=np.int32)
        weights = np.zeros((c, A, M, O))
        for mi, model in enumerate(self.models):
            pred_s = np.einsum("cs,sap->cap", beliefs, model.transition)
            post = pred_s[:, :, None, :] * model.observation.transpose(1, 2, 0)[None]
            mass = post.sum(axis=3)                      # (c, A, O) predictive probs
            keep = mass > self.config.obs_prune
            safe = np.where(keep, mass, 1.0)
            post = post / safe[..., None]
            k = quantize_batch(post.reshape(-1, S), self.ticks).reshape(c, A, O, S)
            k[~keep] = 0
            w = np.where(keep, mass, 0.0)
            w = w / w.sum(axis=2, keepdims=True)
            keys[:, :, mi] = k
            weights[:, :, mi] = w
        return keys, weights

    def _solve(self):
        cfg = self.config
        self.node_count = 1
        self._check_budget(self.node_count)
        levels = [_unique_rows(quantize_batch(self.initial_dist[None, :], self.ticks))]
        # forward pass: discover the distinct quantized beliefs of each period
        for _ in range(1, self.horizon):
            parents = self._beliefs(levels[-1])
            pending: list[np.ndarray] = []
            pending_rows = 0
            for start in range(0, parents.shape[0], cfg.expansion_chunk):
                keys, weights = self._expand_chunk(
                    parents[start:start + cfg.expansion_chunk])
                pending.append(_unique_rows(keys[weights > 0.0]))
                pending_rows += len(pending[-1])
                if pending_rows > 4_000_000:
                    pending = [np.unique(np.concatenate(pending))]
                    pending_rows = len(pending[0])
                    self._check_budget(self.node_count + pending_rows)
            levels.append(np.unique(np.concatenate(pending)))
            self.node_count += len(levels[-1])
            self._check_budget(self.node_count)
        self._levels = levels
        self.level_sizes = [len(v) for v in levels]
        # backward pass
        self._values = [None] * self.horizon
        for t in range(self.horizon - 1, -1, -1):
            self._values[t] = self._node_values(t, self._beliefs(levels[t]), lazy=False)

    def _node_values(self, t: int, beliefs: np.ndarray, lazy: bool) -> np.ndarray:
        """Values of a batch of beliefs at 0-based period t, backed up one
        chunk at a time; the terminal period expands nothing and is one batch."""
        step = len(beliefs) if t == self.horizon - 1 else self.config.expansion_chunk
        return np.concatenate([self._backup(t, beliefs[start:start + step], lazy)
                               .max(axis=1) for start in range(0, len(beliefs), step)])

    def _backup(self, t: int, beliefs: np.ndarray, lazy: bool) -> np.ndarray:
        """Action values (c, A) of a batch of beliefs at 0-based period t.

        With ``lazy`` the children missing from the tree are built on demand,
        and the immediate reward is taken one row at a time: BLAS rounds a
        one-row product (gemv) differently from a batch (gemm), and a lazily
        built node's value must not depend on which nodes share its batch.
        """
        if lazy:
            now = np.array([b @ self.reward for b in beliefs])
        else:
            now = beliefs @ self.reward
        if t == self.horizon - 1:
            return now
        keys, weights = self._expand_chunk(beliefs)
        c, A, M, O, S = keys.shape
        child_vals = self._values_at(t + 1, keys.reshape(-1, S), lazy)
        h = (weights * child_vals.reshape(c, A, M, O)).sum(axis=3)  # (c, A, M)
        robust = self.alpha * h.min(axis=2) + (1.0 - self.alpha) * h.max(axis=2)
        return now + self.discount * robust

    def _values_at(self, t: int, keys: np.ndarray, lazy: bool) -> np.ndarray:
        """Values of quantized ``keys`` (n, S) at 0-based period t.

        Pruned all-zero keys read row 0 and only ever meet weight 0.  Keys
        missing from the tree raise during the solve (every child was found
        in the forward pass); with ``lazy`` they are read from the off-tree
        cache, and the rest are deduplicated and built together, so that the
        missing subtree is expanded one level (not one node) at a time.
        """
        table = self._levels[t]
        view = _row_order_view(keys)
        pos = np.searchsorted(table, view).clip(0, len(table) - 1)
        vals = self._values[t][pos]
        missing = (table[pos] != view) & keys.any(axis=1)
        if not missing.any():
            return vals
        if not lazy:
            raise AssertionError("belief-tree child missing from forward pass")
        cache = self._extra[t]
        uniq, inverse = np.unique(view[missing], return_inverse=True)
        names = uniq.tolist()
        found = [cache.get(name) for name in names]
        new = [i for i, v in enumerate(found) if v is None]
        if new:
            self.node_count += len(new)
            built = self._node_values(t, self._beliefs(uniq[new]), lazy=True)
            for i, v in zip(new, built.tolist()):
                cache[names[i]] = found[i] = v
        vals[missing] = np.array(found)[inverse]
        return vals

    # -- queries -------------------------------------------------------------

    def _start_query(self, t: int):
        if not (1 <= t <= self.horizon):
            raise ValueError(f"t must lie in 1..{self.horizon}")
        if sum(map(len, self._extra)) > self.config.node_budget:
            for cache in self._extra:
                cache.clear()

    @property
    def root_value(self) -> float:
        return float(self._values[0][0])  # period 1 holds only the root

    def value(self, t: int, belief: Belief) -> float:
        """Value of the quantized representative of ``belief`` at period t."""
        self._start_query(t)
        key = quantize_batch(belief.probs[None, :], self.ticks)
        return float(self._values_at(t - 1, key, lazy=True)[0])

    def action(self, t: int, belief: Belief) -> int:
        """Greedy action at the exact belief via one-step lookahead.

        Ties break toward the lowest action index, so truly redundant actions
        resolve identically on every platform.
        """
        self._start_query(t)
        b = np.asarray(belief.probs, dtype=np.float64)[None, :]
        return int(self._backup(t - 1, b, lazy=True)[0].argmax())

    def to_summary(self) -> dict:
        return {
            "root_value": self.root_value,
            "node_count": self.node_count,
            "level_sizes": self.level_sizes,
            "num_models": len(self.models),
            "alpha": self.alpha,
            "quantization": self.config.quantization,
            "node_budget": self.config.node_budget,
            "obs_prune": self.config.obs_prune,
        }


def solve_pomdp(task: TabularTask,
                config: BeliefSolverConfig | None = None) -> RobustSolution:
    """Belief-tree backward induction under the nominal model alone."""
    config = config or BeliefSolverConfig()
    return RobustSolution(task.models[:1], task.reward, task.initial_dist,
                          task.horizon, task.discount, alpha=1.0, config=config)


def solve_apomdp(task: TabularTask,
                 config: BeliefSolverConfig | None = None) -> RobustSolution:
    """Robust belief-tree backward induction over the candidate-model set."""
    config = config or BeliefSolverConfig()
    return RobustSolution(task.models, task.reward, task.initial_dist,
                          task.horizon, task.discount, alpha=task.alpha,
                          config=config)


# ---------------------------------------------------------------------------
# QMDP fallback


class QmdpPolicy:
    """Belief-weighted fully-observed Q-values: act by argmax_a b . Q_t(., a).

    A standard approximation for horizons where the belief tree is too large;
    it assumes full observability after the next step, so it never plans
    information-gathering actions.
    """

    def __init__(self, task: TabularTask):
        self.mdp_solution = solve_mdp(task)

    def action(self, t: int, belief: Belief) -> int:
        scores = belief.probs @ self.mdp_solution.q_values(t)
        return int(scores.argmax())


def qmdp_policy(task: TabularTask) -> QmdpPolicy:
    """QMDP on a belief task's nominal model."""
    return QmdpPolicy(task)
