"""Oracles: backward induction, simplex quantization, belief-tree values."""

import dataclasses
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
)
from decisionlab.core import Rng
from decisionlab.envs import (
    AmbiguityConfig,
    DarkroomTask,
    EnergyParams,
    energy_kernels,
    gen_energy_apomdp,
    gen_energy_mdp,
    noisy_level_observation,
)
from decisionlab.evaluation import generate_tasks
from decisionlab.solvers import (
    BeliefSolverConfig,
    BudgetExceeded,
    quantize_batch,
    quantize_belief,
    solve_apomdp,
    solve_mdp,
    solve_pomdp,
    _unique_rows,
    _view_rows,
)

from conftest import (
    darkroom_bfs_distance,
    enumerate_mdp_value,
    expectimax_pomdp_value,
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


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24),
                  elements=st.one_of(st.integers(0, 3), st.integers(0, 2 ** 31 - 1))),
       st.integers(0, 24))
def test_byte_view_dedupe_matches_row_unique(rows, cut):
    want = np.unique(rows, axis=0)
    np.testing.assert_array_equal(_view_rows(_unique_rows(rows)), want)
    # merging deduplicated parts, as the forward pass does, gives the same table
    merged = np.unique(np.concatenate([_unique_rows(rows[:cut]),
                                       _unique_rows(rows[cut:])]))
    np.testing.assert_array_equal(_view_rows(merged), want)


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


def test_budget_exceeded_raises():
    pomdp = tiny_energy_pomdp(horizon=4)
    with pytest.raises(BudgetExceeded):
        solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3, node_budget=3))


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


def test_to_summary_reports_tree_shape():
    pomdp = tiny_energy_pomdp(horizon=3)
    sol = solve_pomdp(pomdp, BeliefSolverConfig(quantization=1e-3))
    info = sol.to_summary()
    assert info["level_sizes"][0] == 1
    assert len(info["level_sizes"]) == 3
    assert info["num_models"] == 1
    assert info["root_value"] == sol.root_value


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
