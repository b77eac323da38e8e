"""Acceptance gate: the package's ten headline guarantees.

Each test checks one user-facing guarantee end to end at a pinned tolerance
and records a single pass/fail line that pytest prints after the run (see
``pytest_terminal_summary`` in conftest).  A crash partway through a
computation is recorded as a failure of that guarantee, never silently
dropped.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager

import numpy as np

from conftest import (ACCEPTANCE_LINES, enumerate_mdp_value,
                      expectimax_pomdp_value, robust_value, tiny_energy_mdp,
                      tiny_energy_pomdp, uniform_policy_value)
from decisionlab.core import (Belief, KernelPair, Rng, TabularTask,
                              Trajectory, kl_divergence)
from decisionlab.dataset import decode, encode
from decisionlab.envs import (AmbiguityConfig, DarkroomTask, EnergyParams,
                              all_darkroom_goals, energy_kernels,
                              noisy_level_observation, sample_ambiguity_set,
                              split_goals)
from decisionlab.evaluation import (darkroom_eval, evaluation_policy,
                                    generate_tasks, optimality_gap,
                                    reference_policy)
from decisionlab.solvers import (BeliefSolverConfig, solve_apomdp, solve_mdp,
                                 solve_pomdp)
from decisionlab.theory import (E2Config, LinearTaskFamily, LsaLayer,
                                LsaPredictor, lsa_predict, q_error_bound,
                                run_e2_simulation, sample_prompt, train_lsa)


def _conclude(tag: str, ok: bool, detail: str):
    ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


@contextmanager
def _criterion(tag: str):
    """Record a FAIL line if the check crashes before reaching its verdict."""
    try:
        yield
    except AssertionError:
        raise
    except BaseException as exc:
        ACCEPTANCE_LINES.append(
            f"[FAIL] {tag}: crashed with {type(exc).__name__}: {exc}")
        raise


_CACHE: dict = {}


def _default_grid_rows() -> list[dict]:
    if "rows" not in _CACHE:
        _CACHE["rows"] = run_e2_simulation(E2Config())
    return _CACHE["rows"]


# ---------------------------------------------------------------------------
# 1. the suboptimality bound holds on the full default simulation grid


def test_suboptimality_bound_holds_on_default_grid():
    tag = "( 1/10) suboptimality bound on default grid"
    with _criterion(tag):
        rows = _default_grid_rows()
        violations = sum(1 for r in rows if r["violated"])
        worst = max(r["mean_gap"] / r["bound"] for r in rows)
        _conclude(tag, len(rows) == 63 and violations == 0,
                  f"{len(rows)} cells, {violations} violation(s), "
                  f"max gap/bound ratio {worst:.3f}")


# ---------------------------------------------------------------------------
# 2. the closed-form prediction-error bound dominates the measured error


def test_prediction_error_bound_dominates_identity_cov_cells():
    tag = "( 2/10) prediction-error bound (identity covariance)"
    with _criterion(tag):
        rows = [r for r in _default_grid_rows() if r["kappa"] == 1]
        eye = np.eye(10)
        checked, fails, worst_z = 0, 0, -math.inf
        for r in rows:
            bound = q_error_bound(10, eye, r["M"], r["N"])
            z = (r["mean_eps_q"] - bound) / r["eps_stderr"]
            worst_z = max(worst_z, z)
            checked += 1
            if r["mean_eps_q"] > bound + 2.0 * r["eps_stderr"]:
                fails += 1
        _conclude(tag, checked == 21 and fails == 0,
                  f"{checked} cells, {fails} above bound+2se, "
                  f"worst z {worst_z:+.2f}")


# ---------------------------------------------------------------------------
# 3. the uniform-random baseline reproduces the published gap levels


def test_random_baseline_gap_levels():
    tag = "( 3/10) random-baseline gap levels"
    with _criterion(tag):
        targets = {5: 57.6, 10: 49.6, 15: 46.4}
        measured, ok = {}, True
        for horizon, target in targets.items():
            params = EnergyParams(horizon=horizon)
            tasks = generate_tasks("mdp", 100, params, AmbiguityConfig(),
                                   Rng(0).split(horizon))
            gaps = [100.0 * (1.0 - uniform_policy_value(t)
                             / solve_mdp(t).expected_return()) for t in tasks]
            measured[horizon] = float(np.mean(gaps))
            ok = ok and abs(measured[horizon] - target) <= 3.0
        detail = ", ".join(f"T={h}: {measured[h]:.1f}% (target {t}%)"
                           for h, t in targets.items())
        _conclude(tag, ok, detail + " within 3pp")


# ---------------------------------------------------------------------------
# 4. the oracle policy measures an exactly zero gap under paired seeds


def test_oracle_gap_is_exactly_zero_on_all_settings():
    tag = "( 4/10) oracle gap exactly zero"
    with _criterion(tag):
        setups = (
            ("mdp", EnergyParams(energy_cap=4, horizon=5)),
            ("pomdp", EnergyParams(energy_cap=4, horizon=4)),
            ("apomdp", EnergyParams(energy_cap=4, horizon=3)),
        )
        gaps, ok = {}, True
        for setting, params in setups:
            tasks = generate_tasks(setting, 4, params, AmbiguityConfig(),
                                   Rng(9).split(len(gaps)))
            oracles = [reference_policy(t)[0] for t in tasks]
            handles = [evaluation_policy("oracle", t, o)
                       for t, o in zip(tasks, oracles)]
            report = optimality_gap(tasks, oracles, handles, Rng(10),
                                    rollouts_per_task=6)
            gaps[setting] = report.mean_gap
            ok = ok and report.mean_gap == 0.0 \
                and all(g == 0.0 for g in report.task_gaps)
        detail = ", ".join(f"{s}: {g}" for s, g in gaps.items())
        _conclude(tag, ok, detail)


# ---------------------------------------------------------------------------
# 5. each solver agrees with an independent brute-force computation


def test_solvers_match_brute_force_references():
    tag = "( 5/10) solver vs. brute force"
    with _criterion(tag):
        mdp_err = max(
            abs(solve_mdp(m).expected_return() - enumerate_mdp_value(m))
            for m in (tiny_energy_mdp(p=0.6), tiny_energy_mdp(p=0.8),
                      tiny_energy_mdp(p=0.95)))

        fine = BeliefSolverConfig(quantization=1e-8)
        pomdp_err = max(
            abs(solve_pomdp(p, fine).root_value - expectimax_pomdp_value(p))
            for p in (tiny_energy_pomdp(obs_prob=0.8),
                      tiny_energy_pomdp(p=0.65, obs_prob=0.6)))

        P1, R = energy_kernels(2, -0.02, 0.7)
        P2, _ = energy_kernels(2, -0.02, 0.55)
        Q = noisy_level_observation(3, 3, 1.0)
        task = TabularTask(
            "apomdp", models=[KernelPair(P1, Q), KernelPair(P2, Q)],
            reward=R, initial_dist=np.array([1.0, 0.0, 0.0]),
            horizon=2, discount=0.95, alpha=0.4)
        want = robust_value([(m.transition, m.observation) for m in task.models],
                            task.reward, task.initial_dist, task.horizon,
                            task.discount, task.alpha)
        robust_err = abs(solve_apomdp(task, BeliefSolverConfig()).root_value
                         - want)

        ok = mdp_err <= 1e-12 and pomdp_err <= 1e-6 and robust_err <= 1e-9
        _conclude(tag, ok,
                  f"enumeration diff {mdp_err:.1e} (<=1e-12), "
                  f"expectimax diff {pomdp_err:.1e} (<=1e-6), "
                  f"two-model diff {robust_err:.1e} (<=1e-9)")


# ---------------------------------------------------------------------------
# 6. the three consistency collapses between settings


def test_setting_collapses_are_consistent():
    tag = "( 6/10) consistency collapses"
    with _criterion(tag):
        # perfect sensor: belief planning equals state planning at the vertices
        mdp = tiny_energy_mdp(p=0.8, horizon=4, energy_cap=3)
        pomdp = tiny_energy_pomdp(p=0.8, obs_prob=1.0, horizon=4, energy_cap=3)
        msol = solve_mdp(mdp)
        psol = solve_pomdp(pomdp)
        vertex_err = max(
            abs(psol.value(t, Belief(np.eye(4)[s])) - msol.values[t - 1, s])
            for t in range(1, 5) for s in range(4))

        # a one-model candidate set plans identically to the plain belief task
        single = generate_tasks("apomdp", 1,
                                EnergyParams(energy_cap=3, horizon=3),
                                AmbiguityConfig(num_models=1), Rng(21))[0]
        ssol = solve_apomdp(single)
        bsol = solve_pomdp(single)
        root = Belief(single.initial_dist)
        singleton_exact = (ssol.root_value == bsol.root_value
                           and ssol.action(1, root) == bsol.action(1, root))

        # more pessimism never raises the planned value
        base = generate_tasks("apomdp", 1, EnergyParams(energy_cap=2, horizon=3),
                              AmbiguityConfig(num_models=3), Rng(22))[0]
        values = [solve_apomdp(dataclasses.replace(base, alpha=alpha)).root_value
                  for alpha in (0.0, 0.25, 0.5, 0.75, 1.0)]
        monotone = all(values[i + 1] <= values[i] + 1e-12
                       for i in range(len(values) - 1))

        ok = vertex_err <= 1e-12 and singleton_exact and monotone
        _conclude(tag, ok,
                  f"perfect-sensor vertex diff {vertex_err:.1e} (<=1e-12), "
                  f"one-model set exact: {singleton_exact}, "
                  f"pessimism monotone over 5 alphas: {monotone}")


# ---------------------------------------------------------------------------
# 7. darkroom oracle identity and baseline separation


def test_darkroom_oracle_identity_and_random_floor():
    tag = "( 7/10) darkroom oracle identity"
    with _criterion(tag):
        goals = all_darkroom_goals(10)
        oracle_values = [solve_mdp(DarkroomTask(g, 10, 100).to_mdp()).expected_return()
                         for g in goals]
        per_goal_exact = all(value == 100 - (g[0] + g[1])
                             for g, value in zip(goals, oracle_values))
        mean_oracle = float(np.mean(oracle_values))

        _, test_goals = split_goals(Rng(42), 10, 0.8)
        oracle_run = darkroom_eval(test_goals, "oracle", Rng(7),
                                   rollouts_per_goal=3)
        rollout_exact = all(r["mean_return"] == r["oracle_return"]
                            for r in oracle_run["rows"])
        random_run = darkroom_eval(test_goals, "random", Rng(7),
                                   rollouts_per_goal=3)

        ok = (per_goal_exact and mean_oracle == 91.0 and rollout_exact
              and random_run["mean_return"] < 2.0)
        _conclude(tag, ok,
                  f"per-goal exact over {len(goals)} goals: {per_goal_exact}, "
                  f"mean {mean_oracle}, rolled-out identity: {rollout_exact}, "
                  f"random mean {random_run['mean_return']:.2f} (<2)")


# ---------------------------------------------------------------------------
# 8. the attention trainer converges to the closed-form predictor


def test_trained_attention_matches_closed_form():
    tag = "( 8/10) trained attention vs. closed form"
    with _criterion(tag):
        M = 50
        family = LinearTaskFamily(dim=2, feature_cov=np.eye(2))
        layer = LsaLayer.initialized(2, Rng(3), scheme="structured")
        result = train_lsa(layer, family, Rng(4), prompt_length=M, steps=8000)
        closed = LsaPredictor.from_covariance(np.eye(2), M)
        rng = Rng(5)
        diffs, refs = [], []
        for i in range(2000):
            task = family.sample_task(rng.split(i))
            prompt = sample_prompt(task, M, rng.split(10_000 + i))
            trained = result.layer.predict(prompt)
            reference = lsa_predict(closed, prompt)
            diffs.append(trained - reference)
            refs.append(reference)
        rel = math.sqrt(np.mean(np.square(diffs)) / np.mean(np.square(refs)))
        _conclude(tag, rel < 0.05,
                  f"relative RMS difference {rel:.4f} (<0.05) on 2000 "
                  f"held-out prompts")


# ---------------------------------------------------------------------------
# 9. trajectory serialization round-trips and matches the schema example


def test_serialization_roundtrip_and_schema_example():
    tag = "( 9/10) serialization round-trip"
    with _criterion(tag):
        golden = Trajectory("golden")
        golden.append(3, 1, 1.0 / 3.0)
        golden_ok = encode(golden) == "<O_1> 3, <A_1> 1, <R_1> 0.33"

        rng = np.random.default_rng(202)
        good = 0
        total = 1000
        for i in range(total):
            traj = Trajectory(f"t{i}")
            for _ in range(int(rng.integers(0, 7))):
                traj.append(int(rng.integers(0, 1000)),
                            int(rng.integers(0, 1000)),
                            float(rng.uniform(-5.0, 5.0)))
            text = encode(traj)
            back = decode(text, traj.task_id)
            fields_ok = all(
                b.obs == s.obs and b.action == s.action
                and b.reward == float(f"{s.reward:.2f}")
                for b, s in zip(back.steps, traj.steps))
            if len(back) == len(traj) and fields_ok and encode(back) == text:
                good += 1
        _conclude(tag, golden_ok and good == total,
                  f"schema example byte-exact: {golden_ok}, "
                  f"round-trip {good}/{total}")


# ---------------------------------------------------------------------------
# 10. every sampled candidate model respects the divergence radius


def test_ambiguity_sampler_respects_radius():
    tag = "(10/10) ambiguity sampler radius"
    with _criterion(tag):
        config = AmbiguityConfig(num_models=3, kl_radius=0.2)
        rows_checked, rows_ok = 0, 0
        rng = Rng(31)
        for i in range(25):
            task = generate_tasks("apomdp", 1,
                                  EnergyParams(energy_cap=4, horizon=3),
                                  config, rng.split(i))[0]
            base = task.models[0]
            for model in task.models:
                for kernel, ref in ((model.transition, base.transition),
                                    (model.observation, base.observation)):
                    for s in range(task.num_states):
                        for a in range(task.num_actions):
                            rows_checked += 1
                            if kl_divergence(ref[s, a], kernel[s, a]) <= 0.2:
                                rows_ok += 1

        base_p, base_r = energy_kernels(3, -0.02, 0.8)
        base_q = noisy_level_observation(4, 3, 0.8)
        singleton = sample_ambiguity_set(base_p, base_q,
                                         AmbiguityConfig(num_models=1), Rng(33))
        singleton_ok = (len(singleton) == 1
                        and np.array_equal(singleton[0].transition, base_p)
                        and np.array_equal(singleton[0].observation, base_q))

        ok = rows_checked == rows_ok and singleton_ok
        _conclude(tag, ok,
                  f"{rows_ok}/{rows_checked} kernel rows within radius 0.2, "
                  f"one-model set is exactly the base: {singleton_ok}")
