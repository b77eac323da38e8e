"""Exact and robust oracles for ``TabularTask``.

``solve_mdp`` is plain finite-horizon backward induction under a task's
nominal transition kernel; its solution also acts on beliefs as QMDP
(``MdpSolution.qmdp_action``), the fallback reference.  ``solve_pomdp`` (the
nominal model alone) and ``solve_apomdp`` (every candidate model, a belief
task's oracle; see ``planning_models``) share one
belief-tree engine: beliefs reachable from the initial distribution are
enumerated level by level (one level per period), quantized onto a simplex
grid so that recurring beliefs are merged, and values are computed by
backward induction over the levels.  The robust recursion
evaluates, for every action, the candidate-model values

    H(b, a, m) = sum_o P(o | b, a, m) * V_{t+1}(update(b, a, o, m))

and combines them as ``alpha * min_m H + (1 - alpha) * max_m H`` before adding
the expected immediate reward; with a single candidate model this reduces to
the ordinary POMDP recursion, and the weighting interpolates between
worst-case (alpha = 1) and best-case (alpha = 0) planning.

Values are stored at quantized representatives: ``value(t, b)`` returns the
value of the grid point nearest ``b`` under largest-remainder rounding.  Each
level is stored once, as the sorted byte view of its keys, and expanded
once.  Deduplication ranks the keys as packed integers (``_unique_keys``)
instead of sorting their bytes, and lookups still search the shared byte
view; a level built from one chunk of parents is that chunk's distinct
children as ranked, not sorted again.  Actions with equal kernels in
every model are expanded once, and the node budget is checked while a level
is built (see ``RobustSolution``).  Queries off the solved tree lazily expand
the missing subtree and are not held to the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Belief, KernelPair, TabularTask, _row_products


class BudgetExceeded(RuntimeError):
    """The belief tree needs more distinct quantized nodes than ``budget``:
    ``nodes`` is the lower bound on its size that exceeded it while the level
    of (1-based) period ``period`` was built."""

    def __init__(self, budget: int, period: int, nodes: int):
        super().__init__(budget, period, nodes)
        self.budget, self.period, self.nodes = budget, period, nodes

    def __str__(self):
        return (f"belief tree exceeds node budget {self.budget}: "
                f"at least {self.nodes} nodes by period {self.period}")


def _check_period(t: int, horizon: int):
    if not 1 <= t <= horizon:
        raise ValueError(f"t must lie in 1..{horizon}")


# ---------------------------------------------------------------------------
# fully observed


@dataclass
class MdpSolution:
    """Backward-induction tables; row i holds period t = i + 1 (1-based time).
    Queries at a period outside 1..T raise ``ValueError``."""

    task: TabularTask
    values: np.ndarray   # (T + 1, S); final row is the zero terminal value
    policy: np.ndarray   # (T, S) greedy actions, ties broken toward index 0

    def value(self, t: int, state: int) -> float:
        _check_period(t, self.task.horizon)
        return float(self.values[t - 1, state])

    def action(self, t: int, state: int) -> int:
        _check_period(t, self.task.horizon)
        return int(self.policy[t - 1, state])

    def q_values(self, t: int) -> np.ndarray:
        """State-action values at period t, shape (S, A)."""
        _check_period(t, self.task.horizon)
        m = self.task
        future = m.models[0].transition @ self.values[t]  # (S, A) of E[V_{t+1}]
        return m.reward + m.discount * future

    def expected_return(self) -> float:
        """Optimal expected discounted return from the initial distribution."""
        return float(self.task.initial_dist @ self.values[0])

    def qmdp_action(self, t: int, belief: Belief) -> int:
        """QMDP (Littman et al. 1995): argmax_a belief . Q_t(., a).  It assumes
        the state is observed after the next step, so it never plans to gather
        information; the fallback reference on belief tasks."""
        return int(self.qmdp_actions(t, belief.probs[None, :])[0])

    def qmdp_actions(self, t: int, beliefs: np.ndarray) -> np.ndarray:
        """``qmdp_action`` at each row of ``beliefs`` (n, S), an empty array
        for zero rows: Q_t is computed once, and each row is scored by its
        own one-row product (``core._row_products``)."""
        return _row_products(beliefs, self.q_values(t)).argmax(axis=1)


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


def solve_stacked(transition: np.ndarray, rewards: np.ndarray,
                  horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """``solve_mdp`` of G undiscounted tasks that share ``transition`` (S, A, S)
    and differ only in their rewards (S, A, G), in one backward induction with
    one (S·A, S) @ (S, G) product per period.  Returns period 1's values
    (S, G) and the policy (T, S, G), row i for period i + 1; only two value
    rows are alive at a time.  Where every sum is an exact integer (0/1
    rewards, as on a Darkroom grid), column g is task g's ``solve_mdp`` tables
    bit for bit."""
    S, A, G = rewards.shape
    transition = transition.reshape(S * A, S)
    values = np.zeros((S, G))
    policy = np.zeros((horizon, S, G), dtype=np.min_scalar_type(A - 1))
    for t in range(horizon - 1, -1, -1):
        q = (transition @ values).reshape(S, A, G)
        q += rewards  # in place: one (S, A, G) array per period
        policy[t] = q.argmax(axis=1)
        values = q.max(axis=1)
    return values, policy


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


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a float64 array (n, S), byte for byte, and the
    index of each row among them."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    view = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    return rows[first], inverse


def _row_order_view(keys: np.ndarray) -> np.ndarray:
    """View int32 rows as fixed-width byte scalars whose memcmp order is
    numeric lexicographic order (big-endian, non-negative entries only)."""
    be = np.ascontiguousarray(keys.astype(">i4"))
    return be.view(f"V{4 * keys.shape[1]}").ravel()


def _view_rows(view: np.ndarray) -> np.ndarray:
    """The (k, S) big-endian int32 rows behind a ``_row_order_view``."""
    return view.view(">i4").reshape(len(view), view.dtype.itemsize // 4)


def _unique_keys(view: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(view, return_inverse=True)`` of a ``_row_order_view``, with
    an int32 inverse, by integer ranks instead of a byte sort.

    With ``radix`` one above the largest entry, each pass packs the rank of
    the columns so far and as many next columns as keep the pack below 2**62
    (always one at least) into one int64, whose rank ``np.unique`` takes as a
    number; two passes cover ten columns of entries up to 1000.  Columns are
    packed one at a time, in place, so no (n, k) int64 copy is made."""
    rows = _view_rows(view)
    rank = np.zeros(len(view), dtype=np.int64)
    radix, distinct = int(rows.max(initial=0)) + 1, 1
    for col in range(rows.shape[1]):
        if distinct * radix > 2 ** 62:  # the pack is full: rank it
            uniq, rank = np.unique(rank, return_inverse=True)
            distinct = len(uniq)
        rank *= radix
        rank += rows[:, col]
        distinct *= radix
    uniq, rank = np.unique(rank, return_inverse=True)
    first = np.empty(len(uniq), dtype=np.int64)
    first[rank] = np.arange(len(view))  # equal ranks are equal rows
    return view[first], rank.astype(np.int32)


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

    ``task`` gives the reward, initial distribution, horizon, discount and
    sizes; ``models`` are the candidate models planned over and ``alpha`` is
    the pessimism weight that mixes their values.

    The forward pass keeps each child's observation weight and position in
    the next level, and the backward pass gathers the stored values.  Actions
    whose transition and observation slices are equal in every model form a
    class whose first action alone is expanded (in lazy queries too); the
    immediate reward stays per action, so ties still go to the lowest index.
    The solve raises ``BudgetExceeded`` exactly when the whole tree exceeds
    ``node_budget``, as soon as a level's distinct children show it.

    ``value(t, belief)`` evaluates the quantized representative of ``belief``
    at period ``t``; ``action(t, belief)`` is a one-step lookahead at the exact
    belief against the stored next-level values.  Beliefs outside the solved
    tree are handled by lazily solving the missing subtree.  ``actions(t,
    beliefs)`` answers a batch of beliefs as one query, each as ``action``
    would; ``action`` and ``value`` are queries of one belief, and a query at
    a period outside 1..T raises ``ValueError``.  Only the solve
    is held to ``node_budget``; lazily built nodes still count in
    ``node_count``, and their cache is emptied at the start of a query (one
    belief, or one ``expansion_chunk`` of a batch's distinct beliefs) once it
    holds more than ``node_budget`` entries (a node's value depends only on
    its period and key, so answers do not change).  ``to_arrays`` and
    ``from_arrays`` store a solved tree and restore it without solving.
    """

    def __init__(self, task: TabularTask, models: list[KernelPair], alpha: float,
                 config: BeliefSolverConfig, tree: tuple[list, list] | None = None):
        self.task = task
        self.models = models
        self.alpha = alpha
        self.config = config
        self.ticks = int(round(1.0 / config.quantization))
        # one representative action per class of equal kernels; class per action
        kernels = [b"".join(k[:, a].tobytes() for m in models
                            for k in (m.transition, m.observation))
                   for a in range(task.num_actions)]
        firsts = [kernels.index(k) for k in kernels]
        reps = sorted(set(firsts))
        self._action_class = np.array([reps.index(a) for a in firsts])
        self._kernels = [(m.transition[:, reps], m.observation.transpose(1, 2, 0)[reps])
                         for m in models]
        # per period t (index t-1): sorted _row_order_view of its keys, values
        self._levels: list[np.ndarray] = []
        self._values: list[np.ndarray] = []
        # lazily added off-tree nodes: per period dict key-bytes -> value
        self._extra: list[dict[bytes, float]] = [dict() for _ in range(task.horizon)]
        if tree is None:
            self._solve()
        else:  # (levels, values) of an earlier solve, as from_arrays splits them
            self._levels, self._values = tree
            self.level_sizes = [len(v) for v in self._levels]
            self.node_count = sum(self.level_sizes)

    @classmethod
    def from_arrays(cls, task: TabularTask, config: BeliefSolverConfig, keys: np.ndarray,
                    values: np.ndarray, level_sizes: list[int]) -> "RobustSolution":
        """The solution that ``solve_apomdp`` returns for ``task`` and
        ``config`` (planning over ``planning_models(task)``), rebuilt from its
        ``to_arrays()`` and ``level_sizes`` without solving.  Its lazy cache
        starts empty, so every answer is bit-identical to the fresh solve's.
        Arrays of another shape or dtype raise ``ValueError``."""
        n, S = sum(level_sizes), task.num_states
        if not (len(level_sizes) == task.horizon and keys.shape == (n, S)
                and keys.dtype == ">i4" and values.shape == (n,)
                and values.dtype == np.float64):
            raise ValueError("stored arrays do not fit the task and level sizes")
        models, alpha = planning_models(task)
        ends = np.cumsum(level_sizes)[:-1]
        levels = [rows.view(f"V{4 * S}").ravel() for rows in np.split(keys, ends)]
        return cls(task, models, alpha, config, (levels, np.split(values, ends)))

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every level's sorted keys, (N, S) big-endian int32 in period order,
        and their values (N,) float64; ``level_sizes`` splits both."""
        return _view_rows(np.concatenate(self._levels)), np.concatenate(self._values)

    # -- construction -------------------------------------------------------

    def _check_budget(self, period: int, nodes: int):
        if nodes > self.config.node_budget:
            raise BudgetExceeded(self.config.node_budget, period, nodes)

    def _merge(self, period: int, table: np.ndarray, done: list, fresh: list):
        """Fold ``fresh`` chunks (weights, sorted distinct rows, inverse) into
        the sorted view ``table``, checking the budget; returns the merged table
        and every chunk's (weights, positions of its unpruned children in that
        table).  One chunk into an empty table is the table as it stands, its
        inverse the positions; two or more runs are sorted together in place
        and located by ``searchsorted``."""
        if not len(table) and len(fresh) == 1:
            weights, rows, inverse = fresh[0]
            self._check_budget(period, self.node_count + len(rows))
            return rows, [(weights, inverse)]
        merged = np.concatenate([table] + [rows for _, rows, _ in fresh])
        merged.sort()  # np.unique would sort a copy
        first = np.concatenate(([True], merged[1:] != merged[:-1]))
        self._check_budget(period, self.node_count + int(first.sum()))
        merged = merged[first]
        moved = np.searchsorted(merged, table).astype(np.int32)
        return merged, ([(w, moved[pos]) for w, pos in done]
                        + [(w, np.searchsorted(merged, rows).astype(np.int32)[inverse])
                           for w, rows, inverse in fresh])

    def _beliefs(self, view: np.ndarray) -> np.ndarray:
        return _view_rows(view).astype(np.float64) / self.ticks

    def _expand_chunk(self, beliefs: np.ndarray):
        """Children of a batch of beliefs for every (action class, model, obs).

        Returns quantized child keys (c, C, M, O, S) int32 and observation
        weights (c, C, M, O) renormalized over unpruned observations; pruned
        children carry weight exactly 0 and an all-zero key.
        """
        c, M = beliefs.shape[0], len(self._kernels)
        C, O, S = self._kernels[0][1].shape
        keys = np.zeros((c, C, M, O, S), dtype=np.int32)
        weights = np.zeros((c, C, M, O))
        for mi, (transition, observation) in enumerate(self._kernels):
            pred_s = np.einsum("cs,sap->cap", beliefs, transition)
            post = pred_s[:, :, None, :] * observation[None]
            mass = post.sum(axis=3)                      # (c, C, O) predictive probs
            keep = mass > self.config.obs_prune
            safe = np.where(keep, mass, 1.0)
            post = post / safe[..., None]
            k = quantize_batch(post.reshape(-1, S), self.ticks).reshape(c, C, O, S)
            k[~keep] = 0
            w = np.where(keep, mass, 0.0)
            w = w / w.sum(axis=2, keepdims=True)
            keys[:, :, mi] = k
            weights[:, :, mi] = w
        return keys, weights

    def _solve(self):
        cfg, step, T = self.config, self.config.expansion_chunk, self.task.horizon
        self.node_count = 1
        self._check_budget(1, self.node_count)
        levels = [_row_order_view(quantize_batch(self.task.initial_dist[None, :], self.ticks))]
        links = []  # per parent level, per chunk: (weights, child positions)
        # forward pass: discover the distinct beliefs of each period; pending
        # children are merged (and the budget checked) once they could overflow
        # the budget or reach 4M rows, then once grown by half (linear cost)
        for period in range(2, T + 1):
            parents, fresh, done = levels[-1], [], []
            table, pending = parents[:0], 0
            limit = min(4_000_000, cfg.node_budget - self.node_count)
            for start in range(0, len(parents), step):
                keys, weights = self._expand_chunk(self._beliefs(parents[start:start + step]))
                rows, inverse = _unique_keys(_row_order_view(keys[weights > 0.0]))
                fresh.append((weights, rows, inverse))
                pending += len(rows)
                if pending > max(limit, 1.5 * len(table)) or start + step >= len(parents):
                    table, done = self._merge(period, table, done, fresh)
                    pending, fresh = len(table), []
            self.node_count += len(table)
            levels.append(table)
            links.append(done)
        self._levels = levels
        self.level_sizes = [len(v) for v in levels]
        # backward pass; pruned children read row 0 and only ever meet weight 0
        self._values = [None] * T
        # the last level's rewards, ``step`` rows (two at least) at a time; a
        # one-row remainder joins the block before it, since a one-row product
        # (gemv) rounds differently from a batch
        block = max(2, step)
        self._values[-1] = np.concatenate([
            (self._beliefs(rows) @ self.task.reward).max(axis=1)
            for rows in np.split(levels[-1], range(block, len(levels[-1]) - 1, block))])
        for t in range(T - 2, -1, -1):
            nxt, parts = self._values[t + 1], []
            for i, (weights, pos) in enumerate(links.pop()):
                child = np.full(weights.shape, nxt[0])
                child[weights > 0.0] = nxt[pos]
                now = self._beliefs(levels[t][i * step:(i + 1) * step]) @ self.task.reward
                parts.append(self._q(now, weights, child).max(axis=1))
            self._values[t] = np.concatenate(parts)

    def _q(self, now: np.ndarray, weights: np.ndarray, child: np.ndarray) -> np.ndarray:
        """Action values (c, A) from the immediate rewards (c, A) and the
        weights and values (c, C, M, O) of the children of each action class."""
        h = (weights * child).sum(axis=3)  # (c, C, M)
        robust = self.alpha * h.min(axis=2) + (1.0 - self.alpha) * h.max(axis=2)
        return now + self.task.discount * robust[:, self._action_class]

    def _backup(self, t: int, beliefs: np.ndarray) -> np.ndarray:
        """Action values (c, A) of a batch of beliefs at 0-based period t,
        building the children missing from the tree on demand; at the last
        period, the immediate rewards alone.

        Each immediate reward is its row's one-row product
        (``core._row_products``), so a lazily built node's value does not
        depend on which nodes share its batch.
        """
        now = _row_products(beliefs, self.task.reward)
        if t == self.task.horizon - 1:
            return now
        keys, weights = self._expand_chunk(beliefs)
        child = self._values_at(t + 1, keys.reshape(-1, keys.shape[-1]))
        return self._q(now, weights, child.reshape(weights.shape))

    def _values_at(self, t: int, keys: np.ndarray) -> np.ndarray:
        """Values of quantized ``keys`` (n, S) at 0-based period t.

        Pruned all-zero keys read row 0 and only ever meet weight 0.  Keys
        missing from the tree are read from the off-tree cache, and the rest
        are deduplicated and built together, ``expansion_chunk`` at a time, so
        that the missing subtree is expanded one level (not one node) at a time.
        """
        table = self._levels[t]
        view = _row_order_view(keys)
        pos = np.searchsorted(table, view).clip(0, len(table) - 1)
        vals = self._values[t][pos]
        missing = (table[pos] != view) & keys.any(axis=1)
        if not missing.any():
            return vals
        cache = self._extra[t]
        uniq, inverse = _unique_keys(view[missing])
        names = uniq.tolist()
        found = [cache.get(name) for name in names]
        new = [i for i, v in enumerate(found) if v is None]
        if new:
            self.node_count += len(new)
            beliefs, step = self._beliefs(uniq[new]), self.config.expansion_chunk
            built = np.concatenate([self._backup(t, beliefs[i:i + step]).max(axis=1)
                                    for i in range(0, len(beliefs), step)])
            for i, v in zip(new, built.tolist()):
                cache[names[i]] = found[i] = v
        vals[missing] = np.array(found)[inverse]
        return vals

    # -- queries -------------------------------------------------------------

    def _start_query(self, t: int):
        _check_period(t, self.task.horizon)
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
        return float(self._values_at(t - 1, key)[0])

    def action(self, t: int, belief: Belief) -> int:
        """Greedy action at the exact belief via one-step lookahead.

        Ties break toward the lowest action index, so truly redundant actions
        resolve identically on every platform.
        """
        return int(self.actions(t, belief.probs[None, :])[0])

    def actions(self, t: int, beliefs: np.ndarray) -> np.ndarray:
        """``action`` at each row of ``beliefs`` (n, S), an empty array for
        zero rows: the distinct rows are backed up together,
        ``expansion_chunk`` at a time, each chunk as one query.  A row's
        action values do not depend on the rows that share its chunk (see
        ``_backup``), so each answer is the one-row query's."""
        _check_period(t, self.task.horizon)
        rows, inverse = _distinct_rows(beliefs)
        step, actions = self.config.expansion_chunk, np.empty(len(rows), dtype=np.intp)
        for i in range(0, len(rows), step):
            self._start_query(t)
            actions[i:i + step] = self._backup(t - 1, rows[i:i + step]).argmax(axis=1)
        return actions[inverse]

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


def planning_models(task: TabularTask) -> tuple[list[KernelPair], float]:
    """The models and pessimism weight that a belief task's oracle plans over:
    the nominal model at alpha 1 for a pomdp, every model at the task's alpha
    for an apomdp."""
    return (task.models[:1], 1.0) if task.kind == "pomdp" else (task.models, task.alpha)


def solve_pomdp(task: TabularTask,
                config: BeliefSolverConfig | None = None) -> RobustSolution:
    """Belief-tree backward induction under the nominal model alone."""
    return RobustSolution(task, task.models[:1], 1.0, config or BeliefSolverConfig())


def solve_apomdp(task: TabularTask,
                 config: BeliefSolverConfig | None = None) -> RobustSolution:
    """Robust belief-tree backward induction over the task's planning models:
    the candidate-model set of an apomdp, the one model of a pomdp (an apomdp
    with a single model).  This is a belief task's oracle."""
    return RobustSolution(task, *planning_models(task), config or BeliefSolverConfig())
