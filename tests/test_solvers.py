"""Oracles: backward induction, simplex quantization, belief-tree values."""

import dataclasses
import hashlib
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from decisionlab.core import (
    Belief,
    KernelPair,
    TabularTask,
    belief_predictive,
    belief_update,
    belief_updates,
)
from decisionlab.core import Rng, _validated_probs
from decisionlab.envs import (
    AmbiguityConfig,
    DarkroomTask,
    EnergyParams,
    all_darkroom_goals,
    darkroom_kernel,
    darkroom_rewards,
    energy_kernels,
    gen_energy_apomdp,
    gen_energy_mdp,
    noisy_level_observation,
)
from decisionlab import solvers
from decisionlab.cli import STREAM_TASKS
from decisionlab.evaluation import generate_tasks
from decisionlab.solvers import (
    BeliefSolverConfig,
    BudgetExceeded,
    quantize_batch,
    quantize_belief,
    solve_apomdp,
    solve_mdp,
    solve_pomdp,
    solve_stacked,
    _key_dtype,
    _row_order_view,
    _unique_keys,
    _view_rows,
)

from conftest import (
    darkroom_bfs_distance,
    enumerate_mdp_value,
    expectimax_pomdp_value,
    robust_q_values,
    robust_value,
    tiny_energy_mdp,
    tiny_energy_pomdp,
)

FINE = BeliefSolverConfig(quantization=1e-8)


def vertex(i, n):
    b = np.zeros(n)
    b[i] = 1.0
    return Belief(b)


# ---------------------------------------------------------------------------
# fully observed backward induction


def test_solve_mdp_matches_policy_enumeration():
    mdp = tiny_energy_mdp(p=0.8, horizon=3)
    sol = solve_mdp(mdp)
    assert sol.expected_return() == pytest.approx(enumerate_mdp_value(mdp), abs=1e-12)


def test_solve_mdp_horizon_one_is_myopic():
    mdp = tiny_energy_mdp(horizon=1)
    sol = solve_mdp(mdp)
    for s in range(mdp.num_states):
        assert sol.value(1, s) == mdp.reward[s].max()
        assert sol.action(1, s) == mdp.reward[s].argmax()


def test_solve_mdp_value_is_q_max_and_policy_greedy():
    mdp = tiny_energy_mdp(p=0.65, horizon=4)
    sol = solve_mdp(mdp)
    for t in range(1, mdp.horizon + 1):
        q = sol.q_values(t)
        np.testing.assert_allclose(sol.values[t - 1], q.max(axis=1), atol=0)
        np.testing.assert_array_equal(sol.policy[t - 1], q.argmax(axis=1))


def test_solve_mdp_darkroom_equals_closed_form():
    # goal (1, 3) is 4 moves from the start: reachable at horizon 6, not at 3
    for horizon, want in ((6, 2.0), (3, 0.0)):
        task = DarkroomTask(goal=(1, 3), size=4, horizon=horizon)
        assert want == max(0, horizon - darkroom_bfs_distance((1, 3), 4))
        assert solve_mdp(task.to_mdp()).expected_return() == want


@pytest.mark.parametrize("size, horizon", [(10, 100), (10, 6), (1, 4)])
def test_solve_stacked_is_each_goals_solve_mdp_bit_for_bit(size, horizon):
    goals = all_darkroom_goals(size)
    values, policy = solve_stacked(darkroom_kernel(size), darkroom_rewards(goals, size),
                                   horizon)
    assert values.shape == (size * size, len(goals))
    assert policy.shape == (horizon, size * size, len(goals))
    for g, goal in enumerate(goals):
        own = solve_mdp(DarkroomTask(goal, size, horizon).to_mdp())
        assert values[:, g].tobytes() == own.values[0].tobytes()
        assert np.array_equal(policy[:, :, g], own.policy)
    if horizon == 6:
        # goals 6 or more moves from the start are out of reach from it: every
        # action ties at value 0 there, and the tie goes to action 0
        far = [g for g, (r, c) in enumerate(goals) if r + c >= 6]
        assert far and not values[0, far].any() and not policy[0, 0, far].any()


def _solve_mdp_3d_reference(task):
    """Backward induction with the (S, A, S) product and a separate max."""
    T, S = task.horizon, task.num_states
    transition = task.models[0].transition
    values = np.zeros((T + 1, S))
    policy = np.zeros((T, S), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        q = task.reward + task.discount * (transition @ values[t + 1])
        values[t] = q.max(axis=1)
        policy[t] = q.argmax(axis=1)
    return values, policy


def test_solve_mdp_matches_the_3d_product_bitwise():
    # the energy tasks draw their success probability; the last Darkroom goal
    # is out of reach, so all its actions tie
    grid = itertools.product((1, 4, 9, 20), (1, 7, 15), (0.9, 0.95, 1.0))
    tasks = [gen_energy_mdp(EnergyParams(energy_cap=cap, horizon=horizon, discount=discount),
                            Rng(77).split(i))
             for i, (cap, horizon, discount) in enumerate(grid)]
    tasks += [DarkroomTask(goal, size, horizon).to_mdp()
              for goal, size, horizon in (((0, 0), 10, 100), ((9, 9), 10, 100),
                                          ((6, 2), 10, 12), ((3, 7), 8, 24), ((2, 1), 3, 2))]
    for task in tasks:
        sol = solve_mdp(task)
        values, policy = _solve_mdp_3d_reference(task)
        assert np.array_equal(sol.values, values)
        assert np.array_equal(sol.policy, policy)


def test_solve_mdp_terminal_row_is_zero():
    sol = solve_mdp(tiny_energy_mdp(horizon=2))
    assert np.all(sol.values[-1] == 0.0)


# ---------------------------------------------------------------------------
# quantization


def test_quantize_exact_on_grid_points():
    keys = np.array([[250, 250, 500], [0, 0, 1000], [1, 999, 0]], dtype=np.int32)
    probs = keys.astype(np.float64) / 1000
    np.testing.assert_array_equal(quantize_batch(probs, 1000), keys)


def test_quantize_vertices_exact():
    np.testing.assert_array_equal(
        quantize_batch(np.eye(4), 1000), (1000 * np.eye(4)).astype(np.int32))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8))
def test_quantize_sums_and_error_bound(seed, n):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n) * 0.5, size=4)
    ticks = 1000
    keys = quantize_batch(probs, ticks)
    assert keys.dtype == np.int32
    np.testing.assert_array_equal(keys.sum(axis=1), ticks)
    assert np.all(keys >= 0)
    err = np.abs(keys / ticks - probs).sum(axis=1)
    assert np.all(err <= n / ticks + 1e-12)
    # idempotent: grid points map to themselves
    np.testing.assert_array_equal(quantize_batch(keys / ticks, ticks), keys)


def _quantize_by_argsort(probs, ticks):
    """Largest-remainder rounding by a per-row stable argsort: the reference
    that ``quantize_batch``'s pairwise rank counts must match bit for bit."""
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


QUANTIZE_BLOCK = 4096  # the rows that quantize_batch ranks together
TICKS = [1, 2, 3, 1000, 10 ** 4]


def _tie_heavy_rows(rng, n, S, ticks):
    """Rows whose fractions tie often: each entry is an exact grid point k /
    ticks, a grid point one ulp up or down, zero, one of three values
    repeated within its row, or a Dirichlet draw; half the rows are then
    normalized (which keeps zeros and repeats), the rest keep sums off 1, so
    the ticks short range below 0 and above S too."""
    grid = rng.integers(0, ticks + 1, size=(n, S)) / ticks
    pool = rng.dirichlet(np.ones(S), size=n)[:, :3] if S >= 3 else rng.random((n, 3))
    choices = np.stack([
        grid,
        np.nextafter(grid, np.inf),
        np.nextafter(grid, -np.inf),
        np.zeros((n, S)),
        np.take_along_axis(pool, rng.integers(0, 3, size=(n, S)), axis=1),
        rng.dirichlet(np.full(S, 0.5), size=n),
    ])
    rows = np.take_along_axis(choices, rng.integers(0, len(choices), size=(1, n, S)), axis=0)[0]
    half = rng.random(n) < 0.5
    sums = rows[half].sum(axis=1, keepdims=True)
    rows[half] = np.divide(rows[half], sums, out=rows[half], where=sums > 0)
    return rows


def _assert_quantize_matches_argsort(rows, ticks):
    keys = quantize_batch(rows, ticks)
    want = _quantize_by_argsort(rows, ticks)
    assert keys.dtype == np.int32 and keys.shape == want.shape
    np.testing.assert_array_equal(keys, want)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.one_of(st.integers(1, 12), st.just(300)),
       st.sampled_from(TICKS), st.integers(0, 40))
def test_quantize_matches_the_argsort_reference_on_tie_heavy_rows(seed, S, ticks, n):
    _assert_quantize_matches_argsort(
        _tie_heavy_rows(np.random.default_rng(seed), n, S, ticks), ticks)


@pytest.mark.parametrize("n", [0, 1, QUANTIZE_BLOCK - 1, QUANTIZE_BLOCK, QUANTIZE_BLOCK + 1])
def test_quantize_matches_the_argsort_reference_across_blocks(n):
    rng = np.random.default_rng(n)
    for S, ticks in itertools.product([*range(1, 13)], TICKS):
        _assert_quantize_matches_argsort(_tie_heavy_rows(rng, n, S, ticks), ticks)
    # the rank counter must hold S - 1 however large the state space
    _assert_quantize_matches_argsort(_tie_heavy_rows(rng, n, 300, 1000), 1000)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24),
                  elements=st.one_of(st.integers(0, 3), st.integers(0, 2 ** 31 - 1))),
       st.integers(0, 24), st.integers(1, 4))
def test_byte_view_dedupe_matches_row_unique(rows, cut, pending):
    # chunks deduplicated and merged as the forward pass does, the first alone
    # and then ``pending`` more at once into the non-empty table: the table is
    # the row-wise unique, and every child's position, moved by the later
    # merge, points at its own row; entries up to 2**31 - 1 take four bytes
    view = _row_order_view(rows, ">u4")
    parts = [part for part in [view[:cut], *np.array_split(view[cut:], pending)] if len(part)]
    table, done = view[:0], []
    sol = solve_pomdp(tiny_energy_pomdp(horizon=1), FINE)  # keys of four bytes
    for batch in (parts[:1], parts[1:]):
        if batch:
            fresh = [(None, *_unique_keys(part, ">u4")) for part in batch]
            table, done = sol._merge(2, table, done, fresh)
    np.testing.assert_array_equal(_view_rows(table, ">u4"), np.unique(rows, axis=0))
    assert len(done) == len(parts)
    for (_, pos), part in zip(done, parts):
        assert np.array_equal(table[pos], part)


def _merge_by_byte_sort(self, period, table, done, fresh):
    """``RobustSolution._merge`` by a byte sort of the runs and
    ``searchsorted``: the reference that the ranked merge must match."""
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


def _sorted_run(rng, pool, dtype, n):
    """The distinct rows (a sorted view) of n rows drawn from ``pool``, and
    each drawn row's index among them."""
    rows, inverse = np.unique(_row_order_view(pool[rng.integers(0, len(pool), n)], dtype),
                              return_inverse=True)
    return rows, inverse.astype(np.int32)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.one_of(st.integers(1, 12), st.just(300)),
       st.sampled_from([255, 1000, 10 ** 8]), st.integers(1, 40), st.booleans())
def test_merge_matches_the_byte_sort_reference(seed, S, ticks, runs, with_table):
    # runs drawn from one pool of rows overlap, some have zero rows, and their
    # entries reach ticks or stay below 4: at 1e8 ticks (four bytes) a pass
    # packs one or two columns, below 4 many
    rng = np.random.default_rng(seed)
    sol = solve_pomdp(tiny_energy_pomdp(horizon=1), BeliefSolverConfig(quantization=1 / ticks))
    dtype = sol._key
    pool = rng.integers(0, rng.choice([2, 4, ticks + 1]), size=(rng.integers(1, 50), S))
    pool[rng.random(pool.shape) < 0.05] = ticks
    table, done = _row_order_view(pool[:0], dtype), []
    if with_table:
        table, inverse = _sorted_run(rng, pool, dtype, rng.integers(1, 60))
        done = [(f"done {i}", inverse[rng.permutation(len(inverse))]) for i in range(3)]
    # zero-row runs after the first: the reference cannot merge only empty runs
    fresh = [(f"fresh {i}", *_sorted_run(rng, pool, dtype, rng.choice([0, rng.integers(1, 40)])
                                         if i else rng.integers(1, 40)))
             for i in range(runs)]
    want, want_links = _merge_by_byte_sort(sol, 2, table, done, fresh)
    merged, links = sol._merge(2, table, done, fresh)
    assert merged.dtype == table.dtype and merged.tobytes() == want.tobytes()
    assert [w for w, _ in links] == [w for w, _ in want_links]
    for (_, pos), (_, want_pos) in zip(links, want_links):
        assert pos.dtype == np.int32 and np.array_equal(pos, want_pos)
    # one node short of the merged level, both raise at its distinct count
    sol.config = dataclasses.replace(sol.config, node_budget=sol.node_count + len(want) - 1)
    for merge in (_merge_by_byte_sort, solvers.RobustSolution._merge):
        with pytest.raises(BudgetExceeded) as info:
            merge(sol, 2, table, done, fresh)
        assert info.value.nodes == sol.node_count + len(want)


def _assert_unique_keys(rows):
    dtype = _key_dtype(int(rows.max(initial=0)))  # the width the rows need
    view = _row_order_view(rows, dtype)
    uniq, inverse = _unique_keys(view, dtype)
    want_uniq, want_inverse = np.unique(view, return_inverse=True)
    assert uniq.dtype == view.dtype and uniq.tobytes() == want_uniq.tobytes()
    assert inverse.dtype == np.int32 and np.array_equal(inverse, want_inverse)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.int32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24),
                  elements=st.one_of(st.integers(0, 3), st.integers(0, 2 ** 31 - 1))),
       st.integers(0, 3))
def test_unique_keys_is_the_byte_views_unique(rows, repeat):
    _assert_unique_keys(np.concatenate([rows, rows[::-1][:repeat]]))


def test_unique_keys_of_zero_rows_one_row_and_one_column():
    for rows in (np.zeros((0, 3)), np.zeros((0, 1)), [[7, 0, 2]], [[5]], [[2], [0], [2], [9]],
                 [[2 ** 31 - 1] * 3] * 2):
        _assert_unique_keys(np.array(rows, dtype=np.int32))


def test_a_one_chunk_level_is_the_chunk_as_the_general_merge_builds_it():
    sol = solve_pomdp(tiny_energy_pomdp(horizon=1))
    rows = np.random.default_rng(5).integers(0, 4, size=(300, 3)).astype(np.int32)
    uniq, inverse = _unique_keys(_row_order_view(rows, sol._key), sol._key)
    table, done = sol._merge(2, uniq[:0], [], [("w", uniq, inverse)])
    assert table is uniq and done[0][0] == "w" and done[0][1] is inverse
    # a second, empty chunk sends the same rows through the ranked merge
    empty = (None, uniq[:0], inverse[:0])
    general, moved = sol._merge(2, uniq[:0], [], [("w", uniq, inverse), empty])
    assert general.tobytes() == table.tobytes()
    assert moved[0][1].dtype == np.int32 and np.array_equal(moved[0][1], inverse)


def test_quantize_belief_roundtrip():
    b = Belief([0.12345678, 0.5, 0.37654322])
    qb = quantize_belief(b, 1e-3)
    assert abs(qb.probs.sum() - 1.0) < 1e-15
    assert np.abs(qb.probs - b.probs).max() < 1e-3


# ---------------------------------------------------------------------------
# belief-tree solver vs naive recursions


def test_solve_pomdp_matches_unmemoized_expectimax():
    pomdp = tiny_energy_pomdp(p=0.8, obs_prob=0.8, horizon=3)
    sol = solve_pomdp(pomdp, FINE)
    want = expectimax_pomdp_value(pomdp)
    assert sol.root_value == pytest.approx(want, abs=1e-6)


def test_solve_pomdp_matches_expectimax_second_task():
    pomdp = tiny_energy_pomdp(p=0.6, obs_prob=0.7, horizon=4)
    sol = solve_pomdp(pomdp, FINE)
    want = expectimax_pomdp_value(pomdp)
    assert sol.root_value == pytest.approx(want, abs=1e-6)


def test_solve_pomdp_uninformative_sensor_equals_open_loop():
    # a uniform observation kernel carries no information, so the optimal
    # closed-loop value collapses to the best open-loop action sequence
    mdp = tiny_energy_mdp(p=0.75, horizon=3)
    S = mdp.num_states
    obs = noisy_level_observation(S, mdp.num_actions, 1.0 / S)
    pomdp = TabularTask("pomdp", [KernelPair(mdp.models[0].transition, obs)], mdp.reward,
                        mdp.initial_dist, mdp.horizon, mdp.discount)

    def open_loop(t, b):
        if t > mdp.horizon:
            return 0.0
        return max(float(b @ mdp.reward[:, a])
                   + mdp.discount * open_loop(t + 1, b @ mdp.models[0].transition[:, a, :])
                   for a in range(mdp.num_actions))

    sol = solve_pomdp(pomdp, FINE)
    assert sol.root_value == pytest.approx(open_loop(1, mdp.initial_dist), abs=1e-6)


def test_solve_pomdp_perfect_sensor_recovers_mdp_values():
    mdp = tiny_energy_mdp(p=0.7, horizon=4)
    obs = noisy_level_observation(mdp.num_states, mdp.num_actions, 1.0)
    pomdp = TabularTask("pomdp", [KernelPair(mdp.models[0].transition, obs)], mdp.reward,
                        mdp.initial_dist, mdp.horizon, mdp.discount)
    sol = solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3))
    mdp_sol = solve_mdp(mdp)
    # with an exact sensor every reachable belief is a vertex, where the
    # belief values must coincide with the fully observed ones
    for t in range(1, mdp.horizon + 1):
        for s in range(mdp.num_states):
            assert sol.value(t, vertex(s, mdp.num_states)) == pytest.approx(
                mdp_sol.value(t, s), abs=1e-12)


def _two_model_task(alpha):
    P1, R = energy_kernels(2, -0.02, 0.7)
    P2, _ = energy_kernels(2, -0.02, 0.55)
    Q = noisy_level_observation(3, 3, 1.0)
    rho = np.array([1.0, 0.0, 0.0])
    return TabularTask(
        "apomdp", models=[KernelPair(P1, Q), KernelPair(P2, Q)],
        reward=R, initial_dist=rho, horizon=2, discount=0.95, alpha=alpha)


def test_solve_apomdp_matches_hand_recursion_exactly():
    # vertex beliefs stay on the quantization grid, so the solver and the
    # naive recursion see identical numbers
    for alpha in (0.0, 0.4, 1.0):
        task = _two_model_task(alpha)
        sol = solve_apomdp(task, BeliefSolverConfig(quantization=1e-3))
        want = robust_value(
            [(m.transition, m.observation) for m in task.models],
            task.reward, task.initial_dist, task.horizon, task.discount, alpha)
        assert sol.root_value == pytest.approx(want, abs=1e-9)


def test_solve_apomdp_matches_recursion_at_shared_grid():
    task = gen_energy_apomdp(
        EnergyParams(energy_cap=2, horizon=3, obs_prob=0.8, success_prob=0.7),
        AmbiguityConfig(num_models=2), Rng(17))
    step = 1e-3
    sol = solve_apomdp(task, BeliefSolverConfig(quantization=step))

    def quantizer(b):
        return quantize_belief(Belief(b), step).probs

    want = robust_value(
        [(m.transition, m.observation) for m in task.models],
        task.reward, task.initial_dist, task.horizon, task.discount,
        task.alpha, quantizer=quantizer)
    assert sol.root_value == pytest.approx(want, abs=1e-9)


def test_apomdp_singleton_model_equals_pomdp():
    pomdp = tiny_energy_pomdp(p=0.7, obs_prob=0.8, horizon=3)
    task = TabularTask(
        "apomdp", models=pomdp.models,
        reward=pomdp.reward, initial_dist=pomdp.initial_dist,
        horizon=pomdp.horizon, discount=pomdp.discount, alpha=0.5)
    a = solve_apomdp(task, BeliefSolverConfig(quantization=1e-3))
    b = solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3))
    assert a.root_value == b.root_value
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.dirichlet(np.ones(pomdp.num_states))
        t = int(rng.integers(1, pomdp.horizon + 1))
        assert a.value(t, Belief(x)) == b.value(t, Belief(x))


def test_apomdp_value_nonincreasing_in_alpha():
    task = gen_energy_apomdp(
        EnergyParams(energy_cap=2, horizon=3, success_prob=0.7),
        AmbiguityConfig(num_models=3), Rng(23))
    values = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        sol = solve_apomdp(dataclasses.replace(task, alpha=alpha),
                           BeliefSolverConfig(quantization=1e-3))
        values.append(sol.root_value)
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12


# ---------------------------------------------------------------------------
# solver internals exposed through the public query surface


def test_value_satisfies_one_step_backup():
    pomdp = tiny_energy_pomdp(p=0.8, obs_prob=0.8, horizon=3)
    step = 1e-3
    sol = solve_pomdp(pomdp, BeliefSolverConfig(quantization=step))
    P, Q, R = pomdp.models[0].transition, pomdp.models[0].observation, pomdp.reward
    rng = np.random.default_rng(9)
    for t in (1, 2):
        for _ in range(6):
            qb = quantize_belief(Belief(rng.dirichlet(np.ones(3))), step)
            best = -np.inf
            for a in range(pomdp.num_actions):
                u = float(qb.probs @ R[:, a])
                pred = belief_predictive(qb, a, P, Q)
                acc = 0.0
                for o in range(pomdp.num_obs):
                    if pred[o] <= 0.0:
                        continue
                    child = quantize_belief(belief_update(qb, a, o, P, Q), step)
                    acc += pred[o] * sol.value(t + 1, child)
                best = max(best, u + pomdp.discount * acc)
            assert sol.value(t, qb) == pytest.approx(best, abs=1e-9)


def test_off_tree_query_expands_lazily_within_budget():
    pomdp = tiny_energy_pomdp(horizon=3)
    sol = solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3))
    before = sol.node_count
    v = sol.value(2, Belief([0.9, 0.05, 0.05]))
    assert np.isfinite(v)
    assert sol.node_count > before
    # asking again hits the cache
    count = sol.node_count
    sol.value(2, Belief([0.9, 0.05, 0.05]))
    assert sol.node_count == count


@pytest.mark.parametrize("setting", ["pomdp", "apomdp"])
def test_off_tree_answers_do_not_depend_on_query_order(setting):
    task = generate_tasks(setting, 1, EnergyParams(energy_cap=5, horizon=4),
                          AmbiguityConfig(num_models=2), Rng(8))[0]
    solve = solve_pomdp if setting == "pomdp" else solve_apomdp
    T, P, Q = task.horizon, task.models[0].transition, task.models[0].observation
    rng = np.random.default_rng(12)
    queries = [(int(rng.integers(1, T + 1)), Belief(rng.dirichlet(np.full(6, 0.4))))
               for _ in range(12)]
    # an off-tree parent after its children: forward order builds each child
    # alone, reverse order builds them all in the parent's batch
    parent = quantize_belief(Belief(rng.dirichlet(np.full(6, 0.4))), 1e-3)
    for a in range(task.num_actions):
        pred = belief_predictive(parent, a, P, Q)
        queries += [(T, belief_update(parent, a, o, P, Q))
                    for o in range(task.num_obs) if pred[o] > 1e-12]
    queries.append((T - 1, parent))

    def ask(order, config=BeliefSolverConfig()):
        sol = solve(task, config)
        before = sol.node_count
        answers = {}
        for i in order:
            t, b = queries[i]
            answers[i] = (sol.value(t, b), sol.action(t, b))
        return sol, sol.node_count - before, answers

    fwd, grown, answers = ask(range(len(queries)))
    rev, grown_rev, answers_rev = ask(reversed(range(len(queries))))
    assert answers_rev == answers
    # every distinct off-tree key was built, and counted, exactly once
    distinct = sum(map(len, fwd._extra))
    assert grown == grown_rev == distinct > 0
    for t in range(task.horizon):
        assert rev._extra[t].keys() == fwd._extra[t].keys()
        assert set(fwd._levels[t].tolist()).isdisjoint(fwd._extra[t])
    # a lazy cache emptied whenever it outgrows the budget gives the same answers
    tight = BeliefSolverConfig(node_budget=fwd.node_count - grown)
    small, grown_small, answers_small = ask(range(len(queries)), tight)
    assert answers_small == answers
    assert grown_small > grown


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 64), st.integers(1, 4),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_one_row_products_are_the_per_row_loops_bit_for_bit(S, A, n, O, fortran, seed):
    # the immediate reward of a lazily built node, a QMDP score and a belief
    # prediction are each one row's own product, whatever rows share its
    # batch and however the batch lies in memory
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(S), size=(S, A))
    Q = rng.dirichlet(np.ones(O), size=(S, A))
    # reward columns a few ulps apart, so that a QMDP argmax reads rounding
    reward = rng.standard_normal(S)[:, None] * (1.0 + rng.integers(-4, 5, A) * 2.0 ** -52)
    task = TabularTask("pomdp", [KernelPair(P, Q)], reward, np.full(S, 1.0 / S), 2, 0.9)
    P, Q = task.models[0].transition, task.models[0].observation
    beliefs = _validated_probs(rng.dirichlet(np.full(S, 0.5), size=n), "belief")
    if fortran:
        beliefs = np.asfortranarray(beliefs)
    action, obs = rng.integers(0, A, size=n), rng.integers(0, O, size=n)

    now = solve_pomdp(task)._backup(task.horizon - 1, beliefs)
    assert now.tobytes() == np.array([row @ task.reward for row in beliefs]).tobytes()

    mdp = solve_mdp(task)
    for t in (1, task.horizon):  # Q_T is the reward itself
        q = mdp.q_values(t)
        want = [int((row @ q).argmax()) for row in beliefs]
        assert mdp.qmdp_actions(t, beliefs).tolist() == want

    pred = np.array([row @ P[:, a, :] for row, a in zip(beliefs, action.tolist())])
    post = pred * Q[:, action, obs].T
    want = _validated_probs(post / post.sum(axis=1)[:, None], "belief")
    assert belief_updates(beliefs, action, obs, P, Q).tobytes() == want.tobytes()


@pytest.mark.parametrize("query", ["actions", "qmdp_actions"])
def test_zero_beliefs_get_zero_actions(query):
    task = tiny_energy_pomdp(horizon=3)
    sol = (solve_pomdp if query == "actions" else solve_mdp)(task)
    answers = getattr(sol, query)(2, np.empty((0, task.num_states)))
    one = getattr(sol, query)(2, task.initial_dist[None, :])
    assert answers.shape == (0,) and answers.dtype == one.dtype == np.intp


@pytest.mark.parametrize("setting", ["pomdp", "apomdp"])
def test_a_batch_query_answers_as_one_query_per_belief(setting):
    task = generate_tasks(setting, 1, EnergyParams(energy_cap=5, horizon=4),
                          AmbiguityConfig(num_models=2), Rng(9))[0]
    solve = solve_pomdp if setting == "pomdp" else solve_apomdp
    solved = solve(task)
    rng = np.random.default_rng(5)
    batches = []  # per period: on-tree and off-tree beliefs, some twice, shuffled
    for t, level in enumerate(solved._levels, start=1):
        on_tree = _view_rows(level[:4], solved._key).astype(float) / solved.ticks
        off_tree = rng.dirichlet(np.full(task.num_states, 0.4), size=5)
        rows = np.concatenate([on_tree, off_tree, off_tree[:2], on_tree[:1]])
        batches.append((t, np.array([Belief(r).probs for r in rng.permutation(rows)])))

    def ask(config, batched):
        sol = solve(task, config)
        answers = [sol.actions(t, rows).tolist() if batched else
                   [sol.action(t, Belief(row)) for row in rows] for t, rows in batches]
        return sol.node_count, answers, sol._extra

    count, answers, built = ask(BeliefSolverConfig(), batched=False)
    # the same lazily built nodes, with the same values bit for bit
    assert ask(BeliefSolverConfig(), batched=True) == (count, answers, built)
    # a budget the lazy cache outgrows, so that it is emptied between batches
    tight = BeliefSolverConfig(node_budget=solved.node_count)
    for batched in (True, False):
        grown, tight_answers, _ = ask(tight, batched)
        assert tight_answers == answers
        assert grown > count


@pytest.mark.parametrize("setting", ["pomdp", "apomdp"])
def test_a_batch_query_checks_the_cache_budget_before_each_chunk(setting):
    # with one belief per chunk, a batch holds the lazy cache to the budget as
    # tightly as one query per distinct belief does: the same nodes are built
    # and the same cache is left, which the budget has emptied on the way
    task = generate_tasks(setting, 1, EnergyParams(energy_cap=5, horizon=4),
                          AmbiguityConfig(num_models=2), Rng(9))[0]
    solve = solve_pomdp if setting == "pomdp" else solve_apomdp
    budget = solve(task).node_count
    config = BeliefSolverConfig(node_budget=budget, expansion_chunk=1)
    rng = np.random.default_rng(11)
    beliefs = np.array([Belief(r).probs for r in
                        rng.dirichlet(np.full(task.num_states, 0.4), size=40)])
    batched, one_by_one = solve(task, config), solve(task, config)
    answers = batched.actions(2, np.concatenate([beliefs, beliefs[:3]]))
    distinct, inverse = solvers._distinct_rows(beliefs)
    singles = np.array([one_by_one.action(2, Belief(row)) for row in distinct])
    assert answers.tolist() == singles[np.concatenate([inverse, inverse[:3]])].tolist()
    assert batched.node_count == one_by_one.node_count > budget + len(beliefs)
    assert batched._extra == one_by_one._extra
    assert sum(map(len, batched._extra)) < batched.node_count - budget


@pytest.mark.parametrize("setting", ["pomdp", "apomdp"])
def test_stored_tree_answers_as_the_solved_one(setting):
    task = generate_tasks(setting, 1, EnergyParams(energy_cap=4, horizon=4),
                          AmbiguityConfig(num_models=2), Rng(3))[0]
    solve = solve_pomdp if setting == "pomdp" else solve_apomdp
    config = BeliefSolverConfig()
    solved = solve(task, config)
    keys, values = solved.to_arrays()
    assert keys.dtype == ">i4" and keys.shape == (solved.node_count, task.num_states)
    assert values.shape == (solved.node_count,)
    loaded = solvers.RobustSolution.from_arrays(task, config, keys, values,
                                                solved.level_sizes)
    assert _solve_digest(loaded) == _solve_digest(solved)

    def last_row(*row):
        edited = keys.copy()
        edited[-1] = row
        return edited, values

    ticks = solved.ticks
    for bad in ((keys[1:], values), (keys.astype(np.int32), values),
                (keys, values.astype(np.float32)),
                # entries outside 0..ticks, checked before the keys are narrowed
                # to two bytes: the last row would wrap to (0, 1000, 0, 0, 0)
                last_row(-1, 1, ticks, 0, 0), last_row(ticks + 1, 0, 0, 0, 0),
                last_row(65_536, ticks - 65_536, 0, 0, 0),
                last_row(ticks, 1, 0, 0, 0)):  # a row that sums to ticks + 1
        with pytest.raises(ValueError):
            solvers.RobustSolution.from_arrays(task, config, *bad, solved.level_sizes)
    assert (loaded.models, loaded.alpha) == (solved.models, solved.alpha)
    rng = np.random.default_rng(4)
    queries = [(t + 1, Belief(row / solved.ticks)) for t, level in enumerate(solved._levels)
               for row in _view_rows(level[:3], solved._key).astype(float)]
    queries += [(int(rng.integers(1, 5)), Belief(rng.dirichlet(np.ones(5))))
                for _ in range(10)]
    for t, belief in queries:
        before = solved.node_count, loaded.node_count
        assert loaded.value(t, belief) == solved.value(t, belief)
        assert loaded.action(t, belief) == solved.action(t, belief)
        assert (loaded.node_count - before[1]) == (solved.node_count - before[0])
    assert loaded.node_count == solved.node_count > sum(solved.level_sizes)


@pytest.mark.parametrize("quantization, width", [(0.01, 1), (1e-3, 2), (1e-8, 4)])
def test_keys_take_the_grids_width_and_are_stored_as_int32(quantization, width):
    task = tiny_energy_pomdp(p=0.8, obs_prob=0.8, horizon=3)
    config = BeliefSolverConfig(quantization=quantization)
    solved = solve_pomdp(task, config)
    assert solved._key.itemsize == width
    assert [level.itemsize for level in solved._levels] == [width * task.num_states] * 3
    keys, values = solved.to_arrays()
    assert keys.dtype == ">i4" and (keys.sum(axis=1) == solved.ticks).all()
    loaded = solvers.RobustSolution.from_arrays(task, config, keys, values,
                                                solved.level_sizes)
    beliefs = np.random.default_rng(2).dirichlet(np.ones(task.num_states), size=8)
    for t in range(1, task.horizon + 1):
        assert loaded.actions(t, beliefs).tolist() == solved.actions(t, beliefs).tolist()
        assert (np.array([loaded.value(t, Belief(b)) for b in beliefs]).tobytes()
                == np.array([solved.value(t, Belief(b)) for b in beliefs]).tobytes())


def test_saved_arrays_are_the_np_saves_of_to_arrays(tmp_path):
    # a solved tree, then levels of 0, 5 and 2**20 + 1 rows (a block and a row)
    sol = solve_pomdp(tiny_energy_pomdp(p=0.8, obs_prob=0.8, horizon=4))
    rng = np.random.default_rng(0)
    for sizes in (None, [1, 0, 5, 2 ** 20 + 1]):
        if sizes:
            sol._levels = [_row_order_view(rng.integers(0, sol.ticks + 1, (n, 3)), sol._key)
                           for n in sizes]
            sol._values = [rng.random(n) for n in sizes]
        paths = [tmp_path / "keys.npy", tmp_path / "values.npy"]
        digest = sol.save_arrays(*paths)
        for path, array in zip(paths, sol.to_arrays()):
            want = io.BytesIO()
            np.save(want, array)
            assert path.read_bytes() == want.getvalue()
        # the digest fed while writing is the hash of the files written
        both = paths[0].read_bytes() + paths[1].read_bytes()
        assert digest == hashlib.sha256(both).hexdigest()


def test_a_belief_solve_stays_within_its_memory():
    # belief-large's apomdp solve, E=9, T=4, 3 models (209,020 nodes in the
    # last level): its traced peak is 13.4 MiB with each model's posteriors
    # built a block of parents at a time, 18.6 MiB with them built for a
    # whole chunk, and 32 MB with int32 keys copied whole in each expansion.
    # Its pomdp solve (a), E=9, T=5, in chunks of 512 parents, merges many
    # runs into a growing table: 8.9 MB by ranks, 10.6 MB by a byte sort of
    # the runs and searchsorted.  At the default chunk, (a) peaks at 9.5 MiB
    # by blocks, 15.0 MiB with whole-chunk posteriors
    import tracemalloc

    cases = [
        (solve_apomdp, ("apomdp", EnergyParams(energy_cap=9, horizon=4),
                        AmbiguityConfig(num_models=3, alpha=0.5), Rng(0)),
         BeliefSolverConfig(), [1, 60, 3595, 209_020], 15.5),
        (solve_pomdp, ("pomdp", EnergyParams(energy_cap=9, horizon=5), AmbiguityConfig(),
                       Rng(0).split(STREAM_TASKS)),
         BeliefSolverConfig(expansion_chunk=512), [1, 20, 400, 7820, 143_707], 9.75),
        (solve_pomdp, ("pomdp", EnergyParams(energy_cap=9, horizon=5), AmbiguityConfig(),
                       Rng(0).split(STREAM_TASKS)),
         BeliefSolverConfig(), [1, 20, 400, 7820, 143_707], 12),
    ]
    for solve, (setting, env, ambiguity, rng), config, sizes, mib in cases:
        task = generate_tasks(setting, 1, env, ambiguity, rng)[0]
        tracemalloc.start()
        try:
            sol = solve(task, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.level_sizes == sizes
        assert peak < mib * 2 ** 20, (setting, peak)


def test_budget_exceeded_raises():
    # level sizes 1/6/36/210; with 4-belief chunks the third level stops after
    # its first chunk, whose 24 distinct children already overflow the budget
    pomdp = tiny_energy_pomdp(horizon=4)
    for budget, chunk, period, nodes in ((3, 4096, 2, 7), (10, 4, 3, 31), (60, 4096, 4, 253)):
        with pytest.raises(BudgetExceeded) as info:
            solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3, node_budget=budget,
                                                  expansion_chunk=chunk))
        assert (info.value.period, info.value.nodes) == (period, nodes)
        assert str(info.value) == (f"belief tree exceeds node budget {budget}: "
                                   f"at least {nodes} nodes by period {period}")


def test_budget_trips_exactly_when_the_tree_exceeds_it():
    tasks = [(solve_pomdp, tiny_energy_pomdp(horizon=4)),
             (solve_pomdp, generate_tasks("pomdp", 1, EnergyParams(energy_cap=3, horizon=4),
                                          AmbiguityConfig(), Rng(4))[0]),
             (solve_apomdp, generate_tasks("apomdp", 1, EnergyParams(energy_cap=2, horizon=4),
                                           AmbiguityConfig(num_models=2), Rng(6))[0])]
    for solve, task in tasks:
        sizes = solve(task).level_sizes
        ends = np.cumsum(sizes)
        budgets = {b for end in ends for b in (end - 1, end, end + 1)}
        budgets |= {int(end - size // 2) for end, size in zip(ends, sizes)}
        for budget in sorted(budgets):
            config = BeliefSolverConfig(node_budget=int(budget), expansion_chunk=3)
            if ends[-1] <= budget:
                assert solve(task, config).level_sizes == sizes
                continue
            with pytest.raises(BudgetExceeded) as info:
                solve(task, config)
            # the first level whose end overflows, and a lower bound on that end
            period = int(np.argmax(ends > budget)) + 1
            assert info.value.period == period
            assert budget < info.value.nodes <= ends[period - 1]


def test_action_picks_lowest_index_on_redundant_actions():
    # charge actions 0 and 2 are identical, so ties must break to 0
    pomdp = tiny_energy_pomdp(p=0.9, horizon=3)
    sol = solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3))
    for t in (1, 2, 3):
        a = sol.action(t, Belief([0.6, 0.3, 0.1]))
        assert a in (0, 1)


def test_action_horizon_period_is_myopic():
    pomdp = tiny_energy_pomdp(horizon=3)
    sol = solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3))
    b = Belief([0.1, 0.2, 0.7])
    assert sol.action(3, b) == int((b.probs @ pomdp.reward).argmax())


def test_value_rejects_out_of_range_period():
    pomdp = tiny_energy_pomdp(horizon=3)
    sol = solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3))
    with pytest.raises(ValueError):
        sol.value(0, Belief([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        sol.action(4, Belief([1.0, 0.0, 0.0]))


_MDP3, _POMDP3 = tiny_energy_mdp(horizon=3), tiny_energy_pomdp(horizon=3)


@pytest.mark.parametrize("query", [
    lambda: solve_mdp(_MDP3).action(0, 1),
    lambda: solve_mdp(_MDP3).value(0, 1),
    lambda: solve_mdp(_POMDP3).qmdp_actions(0, _POMDP3.initial_dist[None, :]),
    lambda: solve_mdp(_MDP3).action(4, 1),
    lambda: solve_pomdp(_POMDP3).actions(99, np.empty((0, _POMDP3.num_states))),
], ids=["mdp-action-0", "mdp-value-0", "qmdp-actions-0", "mdp-action-T+1",
        "robust-actions-zero-rows-99"])
def test_queries_outside_the_horizon_raise(query):
    # on a horizon-3 task; these used to read the tables' last row, the
    # terminal value or Q at period 0, raise IndexError, or answer zero rows
    with pytest.raises(ValueError, match=r"t must lie in 1\.\.3"):
        query()


def test_to_summary_reports_tree_shape():
    pomdp = tiny_energy_pomdp(horizon=3)
    sol = solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3))
    info = sol.to_summary()
    assert info["level_sizes"][0] == 1
    assert len(info["level_sizes"]) == 3
    assert info["num_models"] == 1
    assert info["root_value"] == sol.root_value


def _charge_copy_task(reward_step, change_obs):
    """Two-model task whose action 2 copies action 0's kernels, with
    ``reward_step`` added to its reward; ``change_obs`` moves mass in one of
    action 2's observation rows."""
    task = _two_model_task(0.5)
    reward = task.reward.copy()
    reward[:, 2] += reward_step
    models = task.models
    if change_obs:
        obs = models[0].observation.copy()
        obs[1, 2] = [0.1, 0.8, 0.1]
        models = [KernelPair(m.transition, obs) for m in models]
    return dataclasses.replace(task, models=models, reward=reward, horizon=3)


@pytest.mark.parametrize("reward_step, change_obs, classes", [
    (0.0, False, [0, 1, 0]),
    (0.01, False, [0, 1, 0]),
    (0.01, True, [0, 1, 2]),
])
def test_equal_kernels_share_an_expansion_but_not_a_value(reward_step, change_obs, classes):
    task = _charge_copy_task(reward_step, change_obs)
    sol = solve_apomdp(task, BeliefSolverConfig(quantization=1e-3))
    assert sol._action_class.tolist() == classes
    # per-action values at the root, from the lazy backup and the solved tree
    want = robust_q_values([(m.transition, m.observation) for m in task.models],
                           task.reward, task.initial_dist, task.horizon, task.discount,
                           task.alpha, quantizer=lambda b: quantize_belief(Belief(b), 1e-3).probs)
    got = sol._backup(0, task.initial_dist[None, :])[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert sol.root_value == pytest.approx(want.max(), abs=1e-9)
    assert sol.action(1, Belief(task.initial_dist)) == int(want.argmax())


def test_each_level_is_expanded_once_for_each_action_class(monkeypatch):
    rows = []
    quantize = solvers.quantize_batch
    monkeypatch.setattr(solvers, "quantize_batch",
                        lambda probs, ticks: rows.append(len(probs)) or quantize(probs, ticks))
    task = generate_tasks("apomdp", 1, EnergyParams(energy_cap=3, horizon=4),
                          AmbiguityConfig(num_models=2), Rng(3))[0]
    sol = solve_apomdp(task)
    # the root, then every non-terminal node's children under two of the three
    # actions (the charge actions 0 and 2 are equal in every model), per model
    # and observation: two thirds of one full-width expansion of every level
    assert sol._action_class.tolist() == [0, 1, 0]
    assert sum(rows) == 1 + 2 * 2 * task.num_obs * sum(sol.level_sizes[:-1])


# (setting, env, models, alpha, solver config) per task; digests of level
# sizes, node count, root value and every level's value bytes, recorded before
# the forward pass kept its child links and equal actions shared an expansion
GOLDEN_SOLVES = [
    ("pomdp", dict(energy_cap=5, horizon=5), 1, 1.0, {},
     "168fa1f60770d6b502fa8d491a23e18a359ce09cbf0dde2802ce0824023518aa"),
    ("pomdp", dict(energy_cap=3, horizon=6), 1, 1.0, {},
     "6a22673fc6a0feabe86f280fbad6b6303b9c30df876a50db0885a28f4d1babdc"),
    ("pomdp", dict(energy_cap=4, horizon=5, obs_prob=1.0), 1, 1.0, {"expansion_chunk": 2},
     "b424a971844881de10ff2cade6caa2e63339a46a21a5e10aa876c4ea9fbcb4e1"),
    ("apomdp", dict(energy_cap=4, horizon=4), 3, 0.5, {"expansion_chunk": 64},
     "02f9ad9cab30cf90afee38c8f28defcc19966158d895f8c300ceb0bb95b36959"),
    ("apomdp", dict(energy_cap=5, horizon=4), 2, 1.0, {},
     "fe136466afd6aa7b68d3d45c6eeabdcc8269af024fccbc2114ca0b1b67f0793b"),
    ("apomdp", dict(energy_cap=4, horizon=4), 2, 0.0, {},
     "5b2e25a8d7bbb0b177e1d3cc73217c609cb1b9f5266b77edcfad2aa5ac25dd2a"),
]


def _solve_digest(sol):
    h = hashlib.sha256(repr((sol.level_sizes, sol.node_count, sol.root_value)).encode())
    for values in sol._values:
        h.update(values.tobytes())
    return h.hexdigest()


def test_belief_values_golden_digests():
    for i, (setting, env, models, alpha, solver, want) in enumerate(GOLDEN_SOLVES):
        task = generate_tasks(setting, 1, EnergyParams(**env),
                              AmbiguityConfig(num_models=models, alpha=alpha),
                              Rng(31).split(i))[0]
        solve = solve_pomdp if setting == "pomdp" else solve_apomdp
        sol = solve(task, BeliefSolverConfig(**solver))
        assert _solve_digest(sol) == want
        # a budget the tree just fits merges each level's children early
        tight = solve(task, BeliefSolverConfig(**solver, node_budget=sol.node_count))
        assert _solve_digest(tight) == want


# SHA-256 of to_arrays() (key bytes, then value bytes) per GOLDEN_SOLVES task,
# as configured and at expansion_chunk=3 under a budget the tree just fits,
# which folds many chunks into a non-empty table
GOLDEN_TREES = [
    "a278e0c25f8bcb6bc82828cedadef0331120f04356151fd8e7e62e40c054e949",
    "7bda26bbe9155d6cef1fdc735b91e38cb2b698828e0962220329942ca42038f2",
    "313d64fbfc6d2c29f544ad0733837f22e4649db64e487a27553ec39a0c281037",
    "8d02840335039940c107dcf7755cb9d9bab3064c3537688ad3b69107646b6975",
    "bc9c17fc53459f1de4a8776766be47f7cfabd4ffb2db543522c2e7511a75ac65",
    "8ab246d98096be9ed5a2220a3014d7fe485898c0aca71792a6ce3edaeb04be88",
]


def _merged_runs(monkeypatch):
    """A list that records, per ``_merge`` call, how many sorted runs it folds
    (the table, if not empty, and each fresh chunk)."""
    runs = []
    merge = solvers.RobustSolution._merge
    monkeypatch.setattr(solvers.RobustSolution, "_merge", lambda self, period, table, done, fresh:
                        runs.append(bool(len(table)) + len(fresh))
                        or merge(self, period, table, done, fresh))
    return runs


def test_belief_tree_keys_golden_digests(monkeypatch):
    runs = _merged_runs(monkeypatch)
    for i, ((setting, env, models, alpha, solver, _), want) in enumerate(
            zip(GOLDEN_SOLVES, GOLDEN_TREES)):
        task = generate_tasks(setting, 1, EnergyParams(**env),
                              AmbiguityConfig(num_models=models, alpha=alpha),
                              Rng(31).split(i))[0]
        solve = solve_pomdp if setting == "pomdp" else solve_apomdp
        sol = solve(task, BeliefSolverConfig(**solver))
        runs.clear()
        tight = solve(task, BeliefSolverConfig(**{**solver, "expansion_chunk": 3},
                                               node_budget=sol.node_count))
        assert max(runs) > 1
        for s in (sol, tight):
            keys, values = s.to_arrays()
            assert hashlib.sha256(keys.tobytes() + values.tobytes()).hexdigest() == want


def test_budget_exceeded_in_a_multi_run_merge(monkeypatch):
    # the merge that raises folds two or more sorted runs: fresh chunks, or
    # fresh chunks and a non-empty table
    runs = _merged_runs(monkeypatch)
    pomdp = tiny_energy_pomdp(horizon=4)
    for budget, chunk, period, nodes in ((30, 3, 3, 43), (80, 3, 4, 95), (120, 3, 4, 130),
                                         (150, 4, 4, 160)):
        runs.clear()
        with pytest.raises(BudgetExceeded) as info:
            solve_pomdp(pomdp, BeliefSolverConfig(node_budget=budget, expansion_chunk=chunk))
        assert (info.value.period, info.value.nodes) == (period, nodes)
        assert runs[-1] > 1


def test_solve_decodes_at_most_a_chunk_and_a_row_at_a_time(monkeypatch):
    decoded = []
    beliefs = solvers.RobustSolution._beliefs
    monkeypatch.setattr(solvers.RobustSolution, "_beliefs",
                        lambda self, view: decoded.append(len(view)) or beliefs(self, view))
    sol = solve_pomdp(tiny_energy_pomdp(horizon=4), BeliefSolverConfig(expansion_chunk=16))
    assert sol.level_sizes[-1] == 210  # 13 blocks of 16, and 2 rows
    assert max(decoded) <= 16 + 1


def test_a_batch_expands_as_its_beliefs_one_at_a_time():
    # posteriors are built a block of 4096 // (C * O) = 204 parents at a time
    # here: 450 beliefs make blocks of 204, 204 and 42 in each of 3 models,
    # and the keys come model by model
    task = generate_tasks("apomdp", 1, EnergyParams(energy_cap=9, horizon=3),
                          AmbiguityConfig(num_models=3), Rng(0))[0]
    sol = solve_apomdp(task)
    beliefs = np.random.default_rng(5).dirichlet(np.full(task.num_states, 0.3), size=450)
    keys, weights = sol._expand_chunk(beliefs)
    ones = [sol._expand_chunk(b[None]) for b in beliefs]
    assert weights.tobytes() == np.concatenate([w for _, w in ones], axis=1).tobytes()
    parts = [np.split(k, np.cumsum((w > 0.0).sum(axis=(1, 2, 3)))[:-1]) for k, w in ones]
    want = np.concatenate([part[m] for m in range(len(sol.models)) for part in parts])
    assert keys.dtype == sol._key
    np.testing.assert_array_equal(keys, want)


def test_last_level_values_do_not_depend_on_the_chunk():
    task = tiny_energy_pomdp(horizon=4)
    whole = solve_pomdp(task)  # 210 rows at the last level, one 4096-row chunk
    want = (whole._beliefs(whole._levels[-1]) @ task.reward).max(axis=1)
    assert whole._values[-1].tobytes() == want.tobytes()
    # remainders 0, 1 and 2 rows; a chunk of 1 decodes two rows at a time
    for chunk in (105, 70, 209, 19, 104, 13, 1):
        sol = solve_pomdp(task, BeliefSolverConfig(expansion_chunk=chunk))
        assert sol._values[-1].tobytes() == want.tobytes(), chunk


# ---------------------------------------------------------------------------
# QMDP


def test_qmdp_matches_mdp_greedy_at_vertices():
    mdp = tiny_energy_mdp(p=0.7, horizon=4)
    obs = noisy_level_observation(mdp.num_states, mdp.num_actions, 1.0)
    pomdp = TabularTask("pomdp", [KernelPair(mdp.models[0].transition, obs)], mdp.reward,
                        mdp.initial_dist, mdp.horizon, mdp.discount)
    qp = solve_mdp(pomdp)
    mdp_sol = solve_mdp(mdp)
    for t in range(1, mdp.horizon + 1):
        for s in range(mdp.num_states):
            assert qp.qmdp_action(t, vertex(s, mdp.num_states)) == mdp_sol.action(t, s)


def test_qmdp_scores_are_belief_weighted_q():
    pomdp = tiny_energy_pomdp(p=0.8, horizon=3)
    qp = solve_mdp(pomdp)
    b = Belief([0.2, 0.5, 0.3])
    scores = b.probs @ qp.q_values(2)
    assert qp.qmdp_action(2, b) == int(scores.argmax())
