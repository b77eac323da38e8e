"""Optimality-gap evaluation: paired streams, intervals, grids."""

import concurrent.futures
import gc
import json
import math
import pickle
import weakref

import numpy as np
import pytest
from scipy import stats

from decisionlab import cli, evaluation
from decisionlab.core import KernelPair, Rng, TabularTask
from decisionlab.dataset import write_csv
from decisionlab.envs import (AmbiguityConfig, DarkroomTask, EnergyParams, all_darkroom_goals,
                              darkroom_kernel, darkroom_rewards)
from decisionlab.evaluation import (
    DARKROOM_CSV_COLUMNS,
    DegenerateOptimum,
    GRID_CSV_COLUMNS,
    GridSpec,
    darkroom_eval,
    evaluation_policy,
    generate_tasks,
    optimality_gap,
    reference_policy,
    run_experiment_grid,
    _t_interval,
)
from decisionlab.rollout import PolicyHandle, rollout
from decisionlab.solvers import (BeliefSolverConfig, RobustSolution, solve_mdp, solve_pomdp,
                                 solve_stacked)

from conftest import reference_rollout, tiny_energy_mdp, uniform_policy_value


def battery(n=4, horizon=4):
    tasks = generate_tasks("mdp", n, EnergyParams(energy_cap=3, horizon=horizon),
                           AmbiguityConfig(), Rng(2))
    oracles = [PolicyHandle.oracle(solve_mdp(t)) for t in tasks]
    return tasks, oracles


# ---------------------------------------------------------------------------
# gap mechanics


def test_oracle_evaluated_against_itself_has_exactly_zero_gap():
    tasks, oracles = battery()
    report = optimality_gap(tasks, oracles, oracles, Rng(7), rollouts_per_task=5)
    assert report.mean_gap == 0.0
    assert report.ci_low == 0.0 and report.ci_high == 0.0
    assert report.task_gaps == [0.0] * len(tasks)
    assert report.reference == "exact"


def test_paired_episode_builds_only_the_generators_it_draws_from(monkeypatch):
    tasks, oracles = battery(n=1)
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox",
                        lambda *a, **k: built.append(1) or philox(*a, **k))
    optimality_gap(tasks, oracles, PolicyHandle.random(), Rng(7), rollouts_per_task=1)
    # the episode's environment stream, read by both sides, and the random
    # policy's stream; the oracle's policy stream and the split parents are
    # never drawn from
    assert len(built) == 2
    # a belief episode too: its observations come from the same block
    pomdps = generate_tasks("pomdp", 1, EnergyParams(energy_cap=3, horizon=4),
                            AmbiguityConfig(), Rng(2))
    exact = [reference_policy(pomdps[0])[0]]
    built.clear()
    optimality_gap(pomdps, exact, PolicyHandle.random(), Rng(7), rollouts_per_task=1)
    assert len(built) == 2


def test_random_policy_has_positive_gap():
    tasks, oracles = battery(n=6, horizon=5)
    report = optimality_gap(tasks, oracles, PolicyHandle.random(), Rng(8),
                            rollouts_per_task=40)
    assert 0.0 < report.mean_gap < 1.0
    assert report.ci_low < report.mean_gap < report.ci_high
    # sanity against the exact uniform-policy value on the same tasks
    exact = np.mean([(solve_mdp(t).expected_return() - uniform_policy_value(t))
                     / solve_mdp(t).expected_return() for t in tasks])
    assert report.mean_gap == pytest.approx(exact, abs=0.08)


def test_gap_report_is_reproducible_and_jobs_invariant():
    tasks, oracles = battery()
    a = optimality_gap(tasks, oracles, PolicyHandle.random(), Rng(9),
                       rollouts_per_task=6)
    b = optimality_gap(tasks, oracles, PolicyHandle.random(), Rng(9),
                       rollouts_per_task=6)
    assert a == b
    c = optimality_gap(tasks, oracles, PolicyHandle.random(), Rng(9),
                       rollouts_per_task=6, jobs=2)
    assert a == c


def test_degenerate_tasks_are_excluded_and_counted():
    # a zero-reward task has OPT = 0 and must be excluded from the mean
    P = np.zeros((2, 2, 2))
    P[:, :, 0] = 1.0
    dead = TabularTask("mdp", [KernelPair(P)], np.zeros((2, 2)), [1.0, 0.0], horizon=3)
    live = tiny_energy_mdp(horizon=3)
    tasks = [dead, live]
    oracles = [PolicyHandle.oracle(solve_mdp(t)) for t in tasks]
    report = optimality_gap(tasks, oracles, PolicyHandle.random(), Rng(3),
                            rollouts_per_task=4)
    assert report.degenerate_count == 1
    assert report.num_tasks == 1
    with pytest.raises(DegenerateOptimum):
        optimality_gap([dead], [PolicyHandle.oracle(solve_mdp(dead))],
                       PolicyHandle.random(), Rng(3), rollouts_per_task=2)


def test_optimality_gap_validates_alignment():
    tasks, oracles = battery(n=2)
    with pytest.raises(ValueError):
        optimality_gap(tasks, oracles[:1], PolicyHandle.random(), Rng(0))
    with pytest.raises(ValueError):
        optimality_gap(tasks, oracles, [PolicyHandle.random()], Rng(0))


@pytest.mark.parametrize("setting", ["mdp", "pomdp"])
def test_optimality_gap_rejects_fewer_than_one_rollout(setting):
    tasks = generate_tasks(setting, 2, EnergyParams(energy_cap=3, horizon=3),
                           AmbiguityConfig(), Rng(2))
    oracles = [reference_policy(task)[0] for task in tasks]
    for rollouts in (0, -1):
        with pytest.raises(ValueError, match="rollouts_per_task"):
            optimality_gap(tasks, oracles, PolicyHandle.random(), Rng(0),
                           rollouts_per_task=rollouts)


def count_episodes(monkeypatch) -> list[str]:
    """The policy kind of every episode evaluation steps or rolls out."""
    kinds = []

    def stepped(task, policy, rngs, *a, _step=evaluation.run_episodes):
        kinds.extend([policy.kind] * len(rngs))
        return _step(task, policy, rngs, *a)

    def rolled(task, policy, *a, _rollout=evaluation.rollout, **k):
        kinds.append(f"rollout:{policy.kind}")
        return _rollout(task, policy, *a, **k)

    def stacked(policy_kind, task, rewards, policy, rngs, _step=evaluation._goal_returns):
        kinds.extend([policy_kind] * len(rngs))  # Darkroom episodes of many goals
        return _step(policy_kind, task, rewards, policy, rngs)

    monkeypatch.setattr(evaluation, "run_episodes", stepped)
    monkeypatch.setattr(evaluation, "rollout", rolled)
    monkeypatch.setattr(evaluation, "_goal_returns", stacked)
    return kinds


def test_oracle_against_itself_rolls_out_each_episode_once(monkeypatch):
    tasks, oracles = battery(n=20)
    kinds = count_episodes(monkeypatch)
    report = optimality_gap(tasks, oracles, oracles, Rng(7), rollouts_per_task=30)
    assert kinds == ["oracle"] * 600
    # handles equal to the oracles but not the same objects step both sides
    copies = [PolicyHandle.oracle(o.solution) for o in oracles]
    assert optimality_gap(tasks, oracles, copies, Rng(7), rollouts_per_task=30) == report
    assert kinds == ["oracle"] * (600 + 1200)


def test_external_policies_require_serial_evaluation():
    tasks, oracles = battery(n=2)
    fake_external = PolicyHandle(kind="external", client=None)
    with pytest.raises(ValueError, match="jobs=1"):
        optimality_gap(tasks, oracles, fake_external, Rng(0), jobs=2)


class RecordingClient:
    """Stands in for an external policy: records each request, acts 0."""

    def __init__(self):
        self.requests = []

    def query(self, request, num_actions):
        self.requests.append(request)
        return 0


def test_each_external_handle_sends_its_own_context():
    tasks, oracles = battery(n=3)
    client = RecordingClient()
    contexts = [f"TRAJ 1: <O_1> {i}, <A_1> 0, <R_1> 0.00" for i in range(3)]
    handles = [PolicyHandle.external(client, context=c) for c in contexts]
    report = optimality_gap(tasks, oracles, handles, Rng(4), rollouts_per_task=2)
    assert report.invalid_actions == 0
    assert len(client.requests) == 3 * 2 * 4  # tasks x episodes x periods
    for request in client.requests:
        assert request["context"] == contexts[int(request["task_id"].removeprefix("task_"))]


def _belief_battery():
    """A pomdp and an apomdp task, each with its exact oracle and a
    QMDP-fallback oracle from a tight budget."""
    tasks = [generate_tasks(setting, 1, EnergyParams(energy_cap=3, horizon=5),
                            AmbiguityConfig(num_models=3, alpha=0.5), Rng(21))[0]
             for setting in ("pomdp", "apomdp")]
    return [(task, reference_policy(task, config)[0]) for task in tasks
            for config in (None, BeliefSolverConfig(node_budget=40))]


def test_task_gap_sums_equal_the_per_episode_rollout_loop():
    # stepped oracle, random and qmdp episodes, an external policy next to a
    # stepped oracle, and Darkroom without an oracle, against one rollout per
    # episode
    tasks, oracles = battery(n=3, horizon=6)
    dark = DarkroomTask((2, 3), 5, 15).to_mdp()
    cases = [(task, oracle, handle) for task, oracle in zip(tasks, oracles)
             for handle in (oracle, PolicyHandle.oracle(oracle.solution),
                            PolicyHandle.random(), PolicyHandle.external(RecordingClient()))]
    cases += [(dark, None, PolicyHandle.random()),
              (dark, None, PolicyHandle.oracle(solve_mdp(dark)))]
    cases += [(task, oracle, handle) for task, oracle in _belief_battery()
              for handle in (oracle, PolicyHandle.random(),
                             evaluation_policy("qmdp", task, oracle),
                             PolicyHandle.external(RecordingClient()))]
    assert {o.kind for _, o, _ in cases if o is not None} == {"oracle", "qmdp"}
    for i, (task, oracle, handle) in enumerate(cases):
        task_rng = Rng(11).split(i)
        opt_sum, eval_sum, invalid = 0.0, 0.0, 0
        for j in range(7):
            if oracle is not None:
                opt_sum += reference_rollout(task, oracle, task_rng.split(j)).online_return
            result = reference_rollout(task, handle, task_rng.split(j))
            eval_sum += result.online_return
            invalid += result.invalid_actions
        assert evaluation._task_gap_sums((task, oracle, handle, "t", task_rng, 7)) == (
            opt_sum / 7, eval_sum / 7, invalid)


def test_each_stepped_belief_return_is_the_rollout_return(monkeypatch):
    stepped = []

    def record(task, policy, *a, _step=evaluation.run_episodes):
        episodes = _step(task, policy, *a)
        stepped.append((task, policy, episodes.returns.tolist()))
        return episodes

    monkeypatch.setattr(evaluation, "run_episodes", record)
    for i, (task, oracle) in enumerate(_belief_battery()):
        task_rng = Rng(12).split(i)
        for handle in (PolicyHandle.random(), evaluation_policy("qmdp", task, oracle)):
            stepped.clear()
            evaluation._task_gap_sums((task, oracle, handle, "t", task_rng, 9))
            assert [policy for _, policy, _ in stepped] == [oracle, handle]
            for _, policy, returns in stepped:
                assert returns == [reference_rollout(task, policy, task_rng.split(j)).online_return
                                   for j in range(9)]


def test_eval_steps_the_oracle_that_solve_stored(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"setting": "pomdp", "num_tasks": 1,
                                  "env": {"energy_cap": 3, "horizon": 4},
                                  "eval": {"policy": "oracle", "rollouts_per_task": 2}}))
    out = str(tmp_path / "run")
    for command in ("gen", "solve"):
        assert cli.main([command, "--config", str(config), "--out", out]) == 0
    kinds, queries = count_episodes(monkeypatch), []

    def actions(self, t, beliefs, _actions=RobustSolution.actions):
        queries.append(len(beliefs))
        return _actions(self, t, beliefs)

    monkeypatch.setattr(RobustSolution, "actions", actions)
    assert cli.main(["eval", "--config", str(config), "--out", out]) == 0
    # the oracle as the policy reuses the oracle's episodes, stepped together:
    # one query per period, each for both episodes' beliefs
    assert kinds == ["oracle"] * 2
    assert queries == [2] * 4


def test_t_interval_matches_direct_formula():
    # bit for bit against stats.t.ppf, for every n from 2 to 500
    values = np.random.default_rng(0).normal(0.2, 0.1, 500)
    for n in range(2, 501):
        head = values[:n]
        mean = float(head.mean())
        half = float(stats.t.ppf(0.975, n - 1) * head.std(ddof=1) / math.sqrt(n))
        assert _t_interval(head) == (mean - half, mean + half), n
    # a single value gives a collapsed interval
    assert _t_interval(np.array([0.3])) == (pytest.approx(0.3), pytest.approx(0.3))


# ---------------------------------------------------------------------------
# task batteries and references


def test_generate_tasks_settings_and_determinism():
    params = EnergyParams(energy_cap=2, horizon=3)
    for setting in ("mdp", "pomdp", "apomdp"):
        tasks = generate_tasks(setting, 3, params, AmbiguityConfig(num_models=2),
                               Rng(4))
        assert len(tasks) == 3
        assert all(t.kind == setting for t in tasks)
    again = generate_tasks("mdp", 3, params, AmbiguityConfig(), Rng(4))
    first = generate_tasks("mdp", 3, params, AmbiguityConfig(), Rng(4))
    np.testing.assert_array_equal(again[1].models[0].transition, first[1].models[0].transition)
    with pytest.raises(ValueError):
        generate_tasks("bandit", 1, params, AmbiguityConfig(), Rng(0))


def test_reference_policy_exact_for_small_tasks():
    params = EnergyParams(energy_cap=2, horizon=3)
    for setting in ("mdp", "pomdp", "apomdp"):
        task = generate_tasks(setting, 1, params, AmbiguityConfig(num_models=2),
                              Rng(5))[0]
        handle, ref = reference_policy(task, BeliefSolverConfig(quantization=1e-3))
        assert ref == "exact"
        assert handle.kind == "oracle"


def test_reference_policy_falls_back_to_qmdp_on_budget():
    task = generate_tasks("pomdp", 1, EnergyParams(horizon=8),
                          AmbiguityConfig(), Rng(6))[0]
    tight = BeliefSolverConfig(quantization=1e-3, node_budget=50)
    handle, ref = reference_policy(task, tight)
    assert ref == "qmdp-fallback"
    assert handle.kind == "qmdp"
    from decisionlab.solvers import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        solve_pomdp(task, tight)


def test_fallback_handle_lets_the_failed_solve_go(monkeypatch):
    task = generate_tasks("pomdp", 1, EnergyParams(horizon=8),
                          AmbiguityConfig(), Rng(6))[0]
    started = []
    solve = RobustSolution._solve

    def traced_solve(self):
        started.append(weakref.ref(self))
        solve(self)

    monkeypatch.setattr(RobustSolution, "_solve", traced_solve)
    handle, ref = reference_policy(task, BeliefSolverConfig(node_budget=50))
    assert ref == "qmdp-fallback" and len(started) == 1
    gc.collect()
    assert started[0]() is None  # no traceback keeps its frames or tables alive
    assert handle.fallback.__traceback__ is None
    assert (handle.fallback.budget, handle.fallback.period) == (50, 3)
    assert handle.fallback.nodes > 50


def test_report_reference_is_derived_from_the_oracle_handles():
    tasks = generate_tasks("pomdp", 2, EnergyParams(horizon=8), AmbiguityConfig(),
                           Rng(4))
    oracles = [reference_policy(t, BeliefSolverConfig(node_budget=50))[0]
               for t in tasks]
    assert [o.kind for o in oracles] == ["qmdp", "qmdp"]
    report = optimality_gap(tasks, oracles, PolicyHandle.random(), Rng(5),
                            rollouts_per_task=3)
    assert report.reference == "qmdp-fallback"
    mdps, exact = battery(n=2)
    mixed = optimality_gap([mdps[0], tasks[1]], [exact[0], oracles[1]],
                           PolicyHandle.random(), Rng(5), rollouts_per_task=3)
    assert mixed.reference == "qmdp-fallback"
    assert optimality_gap(mdps, exact, PolicyHandle.random(), Rng(5),
                          rollouts_per_task=3).reference == "exact"


def test_oracle_queries_do_not_spend_the_solve_budget():
    tasks = generate_tasks("pomdp", 2, EnergyParams(energy_cap=3, horizon=4),
                           AmbiguityConfig(), Rng(3))
    tight = BeliefSolverConfig(node_budget=max(solve_pomdp(t).node_count
                                               for t in tasks))

    def gap(config, jobs):
        oracles = [PolicyHandle.oracle(solve_pomdp(t, config)) for t in tasks]
        report = optimality_gap(tasks, oracles, PolicyHandle.random(), Rng(1),
                                rollouts_per_task=60, jobs=jobs)
        return report, [o.solution.node_count for o in oracles]

    serial, counts = gap(tight, 1)
    # lazily built nodes took every solution past the budget its solve fit in
    assert min(counts) > tight.node_budget
    assert gap(tight, 2)[0] == serial
    assert gap(BeliefSolverConfig(), 1)[0] == serial


def test_evaluation_policy_kinds():
    task = generate_tasks("pomdp", 1, EnergyParams(energy_cap=2, horizon=3),
                          AmbiguityConfig(), Rng(7))[0]
    ref, _ = reference_policy(task, BeliefSolverConfig(quantization=1e-3))
    assert evaluation_policy("oracle", task, ref) is ref
    assert evaluation_policy("random", task, ref).kind == "random"
    assert evaluation_policy("qmdp", task, ref).kind == "qmdp"
    with pytest.raises(ValueError):
        evaluation_policy("external", task, ref, client=None)
    with pytest.raises(ValueError):
        evaluation_policy("qmdp", tiny_energy_mdp(), ref)
    with pytest.raises(ValueError):
        evaluation_policy("greedy", task, ref)


# ---------------------------------------------------------------------------
# experiment grid


def test_run_experiment_grid_minimal(tmp_path):
    spec = GridSpec(settings=("mdp",), horizons=(3,), num_tasks=3,
                    rollouts_mdp=5, params=EnergyParams(energy_cap=2))
    rows = run_experiment_grid(spec, Rng(11))
    assert len(rows) == 1
    row = rows[0]
    assert row["setting"] == "mdp" and row["horizon"] == 3
    assert row["obs_prob"] is None and row["num_models"] is None
    assert 0.0 < row["mean_gap"] < 1.0
    assert row["reference"] == "exact"
    path = tmp_path / "grid.csv"
    write_csv(rows, GRID_CSV_COLUMNS, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(GRID_CSV_COLUMNS)
    # inapplicable axes serialize as empty cells
    assert lines[1].split(",")[3] == ""


def test_run_experiment_grid_covers_setting_axes():
    spec = GridSpec(settings=("pomdp", "apomdp"), horizons=(3,),
                    obs_probs=(0.8, 1.0), model_counts=(2,), num_tasks=2,
                    rollouts_mdp=3, rollouts_apomdp=4,
                    params=EnergyParams(energy_cap=2),
                    ambiguity=AmbiguityConfig(num_models=2),
                    solver=BeliefSolverConfig(quantization=1e-3))
    rows = run_experiment_grid(spec, Rng(12))
    assert len(rows) == 4  # 2 obs_probs x (pomdp + apomdp)
    pomdp_rows = [r for r in rows if r["setting"] == "pomdp"]
    apomdp_rows = [r for r in rows if r["setting"] == "apomdp"]
    assert {r["obs_prob"] for r in pomdp_rows} == {0.8, 1.0}
    assert all(r["num_models"] is None for r in pomdp_rows)
    assert all(r["num_models"] == 2 and r["alpha"] == 0.5 for r in apomdp_rows)
    assert all(r["rollouts_per_task"] == 4 for r in apomdp_rows)


# ---------------------------------------------------------------------------
# darkroom


def test_darkroom_eval_oracle_identity():
    goals = [(0, 0), (3, 4), (9, 9)]
    out = darkroom_eval(goals, "oracle", Rng(13), rollouts_per_goal=2)
    for row, goal in zip(out["rows"], goals):
        assert row["mean_return"] == 100 - (goal[0] + goal[1])
        assert row["oracle_return"] == row["mean_return"]
    assert out["num_goals"] == 3


def test_darkroom_eval_random_is_poor_and_reproducible(tmp_path):
    goals = [(5, 5), (2, 7)]
    a = darkroom_eval(goals, "random", Rng(14), rollouts_per_goal=3)
    b = darkroom_eval(goals, "random", Rng(14), rollouts_per_goal=3)
    assert a == b
    assert a["mean_return"] < 10.0
    path = tmp_path / "dark.csv"
    write_csv(a["rows"], DARKROOM_CSV_COLUMNS, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("goal_row,goal_col")


def test_darkroom_eval_jobs_equal_serial_and_roll_out_the_policy_only(monkeypatch):
    goals = [(0, 1), (2, 3), (4, 4)]
    kwargs = dict(rollouts_per_goal=3, size=5, horizon=12)
    parallel = darkroom_eval(goals, "random", Rng(15), jobs=2, **kwargs)
    kinds = count_episodes(monkeypatch)
    assert darkroom_eval(goals, "random", Rng(15), **kwargs) == parallel
    assert kinds == ["random"] * 9  # the oracle's return is exact, not stepped


@pytest.mark.parametrize("size, horizon", [(5, 12), (2, 8)])
def test_stacked_darkroom_episodes_equal_rollout_bit_for_bit(size, horizon):
    goals, per_goal = [(0, 0), (1, 1), (size - 1, 0)], 4
    rewards = darkroom_rewards(goals, size)
    _, policy = solve_stacked(darkroom_kernel(size), rewards, horizon)
    rngs = [Rng(21).split(i).split(j) for i in range(len(goals)) for j in range(per_goal)]
    tasks = [DarkroomTask(goal, size, horizon).to_mdp() for goal in goals]
    for kind in ("random", "oracle"):
        returns = evaluation._goal_returns(kind, tasks[0], rewards, policy, rngs)
        expected = [reference_rollout(tasks[k // per_goal],
                                      PolicyHandle.random() if kind == "random"
                                      else PolicyHandle.oracle(solve_mdp(tasks[k // per_goal])),
                                      rng).online_return
                    for k, rng in enumerate(rngs)]
        assert returns.tolist() == expected
        assert any(expected)


def test_darkroom_jobs_hand_out_goal_slices_not_tasks(monkeypatch):
    items = []

    class SerialPool:  # records the work items a process pool would be handed
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def map(self, fn, work):
            items.extend(work)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    goals = all_darkroom_goals(10)
    for kind in ("random", "oracle"):
        items.clear()
        assert darkroom_eval(goals, kind, Rng(16), jobs=2) == darkroom_eval(goals, kind, Rng(16))
        assert len(items) == 2
        assert all(len(pickle.dumps(item)) < 1024 for item in items)


def test_darkroom_eval_rejects_unknown_policy():
    with pytest.raises(ValueError):
        darkroom_eval([(1, 1)], "greedy", Rng(0))
    with pytest.raises(ValueError):
        darkroom_eval([(1, 1)], "external", Rng(0))
    client = RecordingClient()  # a live connection is not sent to worker processes
    with pytest.raises(ValueError, match="jobs=1"):
        darkroom_eval([(1, 1)], "external", Rng(0), client=client, jobs=2)
    assert client.requests == []
