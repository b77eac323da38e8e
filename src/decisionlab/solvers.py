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
value of the grid point nearest ``b`` under largest-remainder rounding.  A
key's entries are tick counts, held in the narrowest big-endian unsigned
dtype that holds ``ticks`` (``_key_dtype``: two bytes at the default 1e-3),
so that byte order is numeric order.  Each level is stored once, as the
sorted byte view of its keys, and expanded once; each child key is written
once, straight into that dtype.
Rounding ranks fractions by counting pairs (i, i + k), one offset k at a
time, not by sorting.  A chunk's children are deduplicated, and a level's
sorted runs merged, by ranking the keys as packed integers (``_rank_rows``),
not by sorting their bytes; lookups search the shared byte view, and a level
built from one chunk of parents is that chunk's distinct children as ranked.
Actions with equal kernels in every model are expanded once, and the node
budget is checked while a level is built (see ``RobustSolution``).  Queries
off the solved tree lazily expand the missing subtree, outside the budget,
and keep its nodes in sorted runs searched as the levels are.
"""

from __future__ import annotations

import hashlib
import io
import itertools
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
    n, S = probs.shape
    keys = np.empty((n, S), dtype=np.int32)
    for lo in range(0, n, 4096):  # coordinate-major blocks that stay in cache
        scaled = np.multiply(probs[lo:lo + 4096].T, ticks, order="C")
        base = np.floor(scaled).astype(np.int32)
        frac = scaled - base
        # i's place in a stable descending sort: #{j < i: f_j >= f_i} + #{j > i: f_j > f_i}
        rank = np.repeat(np.arange(S, dtype=np.min_scalar_type(-S))[:, None], frac.shape[1], 1)
        for k in range(1, S):
            beats = (frac[k:] > frac[:-k]).view(np.int8)  # rank's own dtype up to S = 128
            rank[:-k] += beats
            rank[k:] -= beats
        base += rank < ticks - base.sum(axis=0)
        keys[lo:lo + 4096] = base.T
    return keys


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


def _key_dtype(ticks: int) -> np.dtype:
    """The narrowest big-endian unsigned dtype that holds 0..``ticks``: the
    entries of every belief-tree key (``u1`` up to 255 ticks, ``>u2`` at the
    default 1000, ``>u4`` for finer grids)."""
    return np.dtype(np.min_scalar_type(ticks)).newbyteorder(">")


def _row_order_view(keys: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """View rows of non-negative integers as fixed-width byte scalars whose
    memcmp order is numeric lexicographic order: their entries in ``dtype``,
    big-endian and unsigned (a ``_key_dtype`` that holds every entry).  No
    copy is made of C-ordered rows already in ``dtype``."""
    be = np.ascontiguousarray(keys, dtype=dtype)
    return be.view(f"V{be.itemsize * keys.shape[1]}").ravel()


def _view_rows(view: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The (k, S) rows of ``dtype`` entries behind a ``_row_order_view``."""
    return view.view(dtype).reshape(len(view), view.itemsize // np.dtype(dtype).itemsize)


def _rank_rows(views: list[np.ndarray], dtype: np.dtype) -> tuple[np.ndarray, int]:
    """Each row's place among the distinct rows of ``views`` (``_row_order_view``s
    of ``dtype`` entries) in sorted order, int32 in the order of the views,
    and the number of distinct rows.  With ``radix`` one above the largest
    entry, each pass packs the rank of the columns so far and as many next
    columns as keep the pack below 2**62 (one at least) into one int64 (two
    passes cover ten columns of entries up to 1000), and ranks the pack by an
    ``argsort`` and a comparison of neighbours, a block at a time."""
    runs = [_view_rows(view, dtype) for view in views]
    n, S = sum(map(len, runs)), views[0].itemsize // np.dtype(dtype).itemsize
    radix = max(int(rows.max(initial=0)) for rows in runs) + 1
    pack, distinct = np.zeros(n, dtype=np.int64), 1
    for col in range(S + 1):
        if col == S or distinct * radix > 2 ** 62:  # the pack is full, or done: rank it
            order, new = pack.argsort(), np.zeros(n, dtype=bool)
            for lo in range(0, n, 1 << 16):
                run = pack[order[lo:lo + (1 << 16) + 1]]
                new[lo + 1:lo + len(run)] = run[1:] != run[:-1]
            del pack  # the peak: the pack, order and new, 17 bytes a row
            ranks = new.astype(np.int32)  # a cumsum that casts would copy new
            pack = np.empty(n, dtype=np.int32)  # the places
            pack[order] = np.cumsum(ranks, out=ranks)
            distinct = int(ranks[-1]) + 1 if n else 0
            del order, new, ranks
            if col == S:
                return pack, distinct
            pack = pack.astype(np.int64)
        pack *= radix
        pack += np.concatenate([rows[:, col] for rows in runs])
        distinct *= radix


def _unique_keys(view: np.ndarray, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(view, return_inverse=True)`` of a ``_row_order_view`` of
    ``dtype`` entries, with an int32 inverse, by integer ranks
    (``_rank_rows``) instead of a byte sort."""
    places, distinct = _rank_rows([view], dtype)
    first = np.empty(distinct, dtype=np.int64)
    first[places] = np.arange(len(view))  # equal places are equal rows
    return view[first], places


def _insert_sorted(run: tuple[np.ndarray, np.ndarray], keys: np.ndarray,
                   values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A sorted run (``_row_order_view``, values) with sorted ``keys`` that it
    does not hold, and their ``values``, put in place: each at the position
    ``searchsorted`` gives it, shifted by the keys before it, so that no row
    is compared or ranked again."""
    at = np.searchsorted(run[0], keys) + np.arange(len(keys))
    kept = np.ones(len(run[0]) + len(keys), dtype=bool)
    kept[at] = False
    merged = []
    for old, new in zip(run, (keys, values)):
        out = np.empty(len(kept), dtype=old.dtype)
        out[at], out[kept] = new, old
        merged.append(out)
    return merged[0], merged[1]


# rows a period's recent run of lazily built nodes may hold before it is
# folded into the period's main table
_FOLD_ROWS = 1 << 16


# ---------------------------------------------------------------------------
# belief-tree engine


@dataclass
class BeliefSolverConfig:
    """Grid resolution, pruning, and resource limits for the belief-tree solver.
    ``quantization`` lies in (0, 0.5], and ``node_budget`` and
    ``expansion_chunk`` are integers >= 1; any other value raises
    ``ValueError`` naming its field."""

    quantization: float = 1e-3
    node_budget: int = 5_000_000
    obs_prune: float = 1e-12
    expansion_chunk: int = 4096

    def __post_init__(self):
        def integer(value):  # >= 1; bools are ints to Python, not here
            return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                    and value >= 1)

        q = self.quantization
        for name, ok, why in (
                ("quantization", isinstance(q, (int, float)) and not isinstance(q, bool)
                 and 0.0 < q <= 0.5, "must be a number in (0, 0.5]"),
                ("node_budget", integer(self.node_budget), "must be an integer >= 1"),
                ("expansion_chunk", integer(self.expansion_chunk), "must be an integer >= 1")):
            if not ok:
                raise ValueError(f"field {name!r}: {why}")

    @property
    def ticks(self) -> int:
        """Grid points per unit probability: a key's entries sum to it."""
        return int(round(1.0 / self.quantization))


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
    a period outside 1..T raises ``ValueError``.  Each period keeps its
    lazily built nodes as its level is kept, a sorted ``_row_order_view``
    and a values array, in two disjoint runs: a main table and a recent run
    that takes each batch of built nodes by a sorted insert and is folded
    into the main table past ``_FOLD_ROWS`` rows.  Only the solve is held to
    ``node_budget``; lazily built nodes still count in ``node_count``, and
    both runs of every period are emptied at the start of a query (one
    belief, or one ``expansion_chunk`` of a batch's distinct beliefs) once
    they hold more than ``node_budget`` rows (a node's value depends only on
    its period and key, so answers do not change).  ``to_arrays`` (or
    ``save_arrays``, a level at a time) and ``from_arrays`` store a solved
    tree and restore it without solving; they widen the keys to big-endian
    int32 and check and narrow them back.
    """

    def __init__(self, task: TabularTask, models: list[KernelPair], alpha: float,
                 config: BeliefSolverConfig, tree: tuple[list, list] | None = None):
        self.task = task
        self.models = models
        self.alpha = alpha
        self.config = config
        self.ticks = config.ticks
        self._key = _key_dtype(self.ticks)
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
        # lazily built off-tree nodes, per period: a main table and a recent
        # run, disjoint, each a sorted _row_order_view and its values
        self._no_rows = (_row_order_view(np.empty((0, task.num_states), self._key), self._key),
                         np.empty(0))
        self._extra = [[self._no_rows] * 2 for _ in range(task.horizon)]
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
        Arrays of another shape or dtype, and keys with an entry outside
        0..ticks or a row that does not sum to ticks, raise ``ValueError``;
        the keys are checked before they are narrowed to the key dtype."""
        n, S, ticks = sum(level_sizes), task.num_states, config.ticks
        if not (len(level_sizes) == task.horizon and keys.shape == (n, S)
                and keys.dtype == ">i4" and values.shape == (n,)
                and values.dtype == np.float64):
            raise ValueError("stored arrays do not fit the task and level sizes")
        if not (keys.min(initial=0) >= 0 and keys.max(initial=0) <= ticks
                and (keys.sum(axis=1, dtype=np.int64) == ticks).all()):
            raise ValueError(f"stored keys are not tick counts summing to {ticks}")
        models, alpha = planning_models(task)
        ends = np.cumsum(level_sizes)[:-1]
        levels = np.split(_row_order_view(keys, _key_dtype(ticks)), ends)
        return cls(task, models, alpha, config, (levels, np.split(values, ends)))

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every level's sorted keys, (N, S) big-endian int32 in period order
        (widened from the key dtype), and their values (N,) float64;
        ``level_sizes`` splits both."""
        keys = _view_rows(np.concatenate(self._levels), self._key)
        return keys.astype(">i4"), np.concatenate(self._values)

    def save_arrays(self, keys_path, values_path) -> str:
        """``np.save`` of each of ``to_arrays()``, byte for byte, written a
        level and at most 2**16 rows at a time, never widened whole.  Returns
        the SHA-256 of the two files' bytes, one after the other, fed each
        block as it is written."""
        digest = hashlib.sha256()
        for path, parts, dtype in ((keys_path, [_view_rows(v, self._key) for v in self._levels],
                                    ">i4"), (values_path, self._values, "<f8")):
            head = io.BytesIO()
            np.lib.format.write_array_header_1_0(head, {
                "descr": dtype, "fortran_order": False,
                "shape": (sum(map(len, parts)),) + parts[0].shape[1:]})
            blocks = (part[lo:lo + (1 << 16)].astype(dtype)
                      for part in parts for lo in range(0, len(part), 1 << 16))
            with open(path, "wb") as fh:
                for block in itertools.chain([head.getvalue()], blocks):
                    digest.update(block)
                    fh.write(block)
        return digest.hexdigest()

    # -- construction -------------------------------------------------------

    def _check_budget(self, period: int, nodes: int):
        if nodes > self.config.node_budget:
            raise BudgetExceeded(self.config.node_budget, period, nodes)

    def _merge(self, period: int, table: np.ndarray, done: list, fresh: list):
        """Fold ``fresh`` chunks (weights, sorted distinct rows, inverse) into
        the sorted view ``table``, checking the budget; returns the merged table
        and every chunk's (weights, positions of its unpruned children in that
        table).  One chunk into an empty table is the table as it stands, its
        inverse the positions; two or more runs are ranked together
        (``_rank_rows``), the budget checked on their distinct count before
        the table is built, and each run scattered to its places."""
        if not len(table) and len(fresh) == 1:
            weights, rows, inverse = fresh[0]
            self._check_budget(period, self.node_count + len(rows))
            return rows, [(weights, inverse)]
        runs = [table] + [rows for _, rows, _ in fresh]
        places, distinct = _rank_rows(runs, self._key)
        self._check_budget(period, self.node_count + distinct)
        merged = np.empty(distinct, dtype=table.dtype)
        at = np.split(places, np.cumsum([len(rows) for rows in runs])[:-1])
        for rows, pos in zip(runs, at):
            merged[pos] = rows
        return merged, ([(w, at[0][pos]) for w, pos in done]
                        + [(w, pos[inverse]) for (w, _, inverse), pos in zip(fresh, at[1:])])

    def _beliefs(self, view: np.ndarray) -> np.ndarray:
        return _view_rows(view, self._key).astype(np.float64) / self.ticks

    def _expand_chunk(self, beliefs: np.ndarray):
        """Children of a batch of beliefs for every (model, action class, obs).

        Returns observation weights (M, c, C, O), renormalized over unpruned
        observations, and the quantized keys (k, S) of the unpruned children,
        in the key dtype and in the order of ``weights > 0.0``; pruned
        children carry weight exactly 0 and no key.  Each model's posteriors
        are built, weighed and quantized a block of parents (about 4,096
        children) at a time, and each key is written once, straight into the
        returned array, so no child array of the whole batch is made.
        """
        c, M = beliefs.shape[0], len(self._kernels)
        C, O, S = self._kernels[0][1].shape
        keys = np.empty((M * c * C * O, S), dtype=self._key)
        weights = np.empty((M, c, C, O))
        block, n = max(1, 4096 // (C * O)), 0
        for w_all, (transition, observation) in zip(weights, self._kernels):
            for lo in range(0, c, block):
                w = w_all[lo:lo + block]
                pred_s = np.einsum("cs,sap->cap", beliefs[lo:lo + block], transition)
                # strided like ``observation``: a C-ordered copy would sum
                # ``mass`` in another order
                post = pred_s[:, :, None, :] * observation[None]
                mass = post.sum(axis=3)                  # (b, C, O) predictive probs
                keep = mass > self.config.obs_prune
                post /= np.where(keep, mass, 1.0)[..., None]
                w[...] = np.where(keep, mass, 0.0)
                w /= w.sum(axis=2, keepdims=True)
                k = quantize_batch(post.reshape(-1, S), self.ticks)[(w > 0.0).ravel()]
                keys[n:n + len(k)] = k
                n += len(k)
        return keys[:n], weights

    def _solve(self):
        cfg, step, T = self.config, self.config.expansion_chunk, self.task.horizon
        self.node_count = 1  # the root, within any budget
        root = quantize_batch(self.task.initial_dist[None, :], self.ticks)
        levels = [_row_order_view(root, self._key)]
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
                rows, inverse = _unique_keys(_row_order_view(keys, self._key), self._key)
                del keys  # else the last chunk's keys outlive the backward pass
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
        # backward pass
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
                now = self._beliefs(levels[t][i * step:(i + 1) * step]) @ self.task.reward
                parts.append(self._q(t, now, weights, nxt[pos]).max(axis=1))
            self._values[t] = np.concatenate(parts)

    def _q(self, t: int, now: np.ndarray, weights: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """Action values (c, A) at 0-based period t from the immediate rewards
        (c, A), the weights (M, c, C, O) of the children of each action class
        and the values of the unpruned children, in the order of ``weights >
        0.0``.  Pruned children read row 0 of period t + 1 and only ever meet
        weight 0."""
        child = np.full(weights.shape, self._values[t + 1][0])
        child[weights > 0.0] = kept
        h = (weights * child).sum(axis=3)  # (M, c, C)
        robust = self.alpha * h.min(axis=0) + (1.0 - self.alpha) * h.max(axis=0)
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
        return self._q(t, now, weights, self._values_at(t + 1, keys))

    def _values_at(self, t: int, keys: np.ndarray) -> np.ndarray:
        """Values of quantized ``keys`` (n, S) at 0-based period t.

        Keys missing from the tree are deduplicated and searched in the
        period's recent run, then in its main table; the rest are built
        together, ``expansion_chunk`` at a time, so that the missing subtree
        is expanded one level (not one node) at a time, and inserted into the
        recent run, which is folded into the main table once it holds more
        than ``_FOLD_ROWS`` rows.
        """
        table = self._levels[t]
        view = _row_order_view(keys, self._key)
        pos = np.searchsorted(table, view).clip(0, len(table) - 1)
        vals = self._values[t][pos]
        missing = table[pos] != view
        if not missing.any():
            return vals
        uniq, inverse = _unique_keys(view[missing], self._key)
        found, new = np.empty(len(uniq)), np.arange(len(uniq))
        runs = self._extra[t]
        for run, run_values in reversed(runs):  # the recent run, then the main table
            if len(run) and len(new):
                want = uniq[new]
                at = np.searchsorted(run, want).clip(0, len(run) - 1)
                hit = run[at] == want
                found[new[hit]] = run_values[at[hit]]
                new = new[~hit]
        if len(new):
            self.node_count += len(new)
            todo, step = uniq[new], self.config.expansion_chunk
            beliefs = self._beliefs(todo)
            found[new] = np.concatenate([self._backup(t, beliefs[i:i + step]).max(axis=1)
                                         for i in range(0, len(beliefs), step)])
            runs[1] = _insert_sorted(runs[1], todo, found[new])
            if len(runs[1][0]) > _FOLD_ROWS:
                runs[:] = [_insert_sorted(runs[0], *runs[1]), self._no_rows]
        vals[missing] = found[inverse]
        return vals

    # -- queries -------------------------------------------------------------

    def _start_query(self, t: int):
        _check_period(t, self.task.horizon)
        if sum(len(run) for runs in self._extra for run, _ in runs) > self.config.node_budget:
            self._extra = [[self._no_rows] * 2 for _ in self._extra]

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
