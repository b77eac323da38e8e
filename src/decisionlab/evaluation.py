"""Policy evaluation by oracle-relative optimality gap.

For every task the oracle and the evaluated policy are rolled out on the same
environment streams (one paired generator per episode), so the oracle's own
gap is exactly zero rather than Monte-Carlo noise.  The per-task gap is

    (OPT - EVAL) / OPT,   OPT = mean oracle return, EVAL = mean policy return,

with discounted returns; tasks whose OPT is not meaningfully positive are
excluded and counted.  Reported intervals are two-sided 95% Student-t over
per-task gaps.  Their quantiles up to 128 degrees of freedom (129 tasks) are
read from the stored table ``T975``, so an evaluation of that size loads no
scipy module; larger ones compute them with ``scipy.special.stdtrit``, which
gives the same bits.

Belief tasks whose exact solve exceeds the node budget fall back to QMDP as
the reference decision-maker; reports record which reference was used, since
a fallback reference makes "gap" relative to an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Rng, map_jobs
from .envs import (AmbiguityConfig, DarkroomTask, EnergyParams, darkroom_rewards,
                   gen_energy_apomdp, gen_energy_mdp, gen_energy_pomdp)
# rollout is not called here, but perfbench's tracer wraps it on this module
from .rollout import (ExternalPolicyClient, PolicyHandle, _action_blocks, _env_blocks,
                      policy_actor, rollout, run_episodes, step_episodes)
# solve_pomdp is not called here, but perfbench's tracer wraps both belief
# solvers on this module
from .solvers import (BeliefSolverConfig, BudgetExceeded, solve_apomdp, solve_mdp, solve_pomdp,
                      solve_stacked)

DEGENERATE_OPT = 1e-9


class DegenerateOptimum(RuntimeError):
    """Every task was excluded: no positive oracle value to normalize by."""


# ---------------------------------------------------------------------------
# gap evaluation


@dataclass
class EvalReport:
    num_tasks: int
    rollouts_per_task: int
    mean_gap: float
    ci_low: float
    ci_high: float
    task_gaps: list[float]
    opt_returns: list[float]
    eval_returns: list[float]
    degenerate_count: int
    invalid_actions: int
    reference: str = "exact"


# T975[df - 1] is scipy.special.stdtrit(df, 0.975), the two-sided 95%
# Student-t quantile, for df 1..128, as float reprs that round-trip bit for bit
T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
    1.983731002955606, 1.9834952585628793, 1.9832641447734565, 1.9830375264837259,
    1.9828152737950475, 1.9825972617655006, 1.9823833701756908, 1.982173483307727,
    1.9819674897364825, 1.981765282132372, 1.9815667570749007, 1.9813718148763053,
    1.981180359414661, 1.9809922979758567, 1.9808075411039094, 1.9806260024590894,
    1.9804475986834025, 1.980272249272974, 1.9800998764569397, 1.9799304050824402,
    1.9797637625053868, 1.9795998784866382, 1.9794386850933035, 1.9792801166048548,
    1.9791241094237977, 1.9789706019906281, 1.9788195347028539, 1.978670849837835,
)


def _t_interval(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    mean = float(values.mean())
    if n < 2:
        return mean, mean
    if n - 1 <= len(T975):
        t = T975[n - 2]
    else:
        # stdtrit(df, p) is stats.t.ppf(p, df) bit for bit, without scipy.stats
        from scipy.special import stdtrit
        t = stdtrit(n - 1, 0.975)
    half = float(t * values.std(ddof=1) / math.sqrt(n))
    return mean - half, mean + half


def _task_gap_sums(args) -> tuple[float, float, int]:
    """Mean oracle and policy returns over one task's episodes, and the
    policy's invalid actions.  Episode j of both sides runs on
    ``task_rng.split(j)`` and reads one shared environment block, so they
    meet the same environment draws; the oracle evaluated as the policy is
    stepped once, and without an oracle (None) its mean is 0.  Returns are
    summed in episode order."""
    task, oracle, handle, task_id, task_rng, rollouts = args
    rngs = [task_rng.split(j) for j in range(rollouts)]
    env_blocks = _env_blocks(task, rngs)
    own = None if oracle is None else run_episodes(task, oracle, rngs, task_id, env_blocks)
    episodes = own if handle is oracle else run_episodes(task, handle, rngs, task_id, env_blocks)
    opt_sum, eval_sum = 0.0, 0.0
    for ret in [] if own is None else own.returns.tolist():
        opt_sum += ret
    for ret in episodes.returns.tolist():
        eval_sum += ret
    return opt_sum / rollouts, eval_sum / rollouts, int(episodes.invalid.sum())


def optimality_gap(tasks: list, oracles: list[PolicyHandle],
                   policy: list[PolicyHandle] | PolicyHandle, rng: Rng,
                   rollouts_per_task: int = 30, jobs: int = 1) -> EvalReport:
    """Mean oracle-relative gap of ``policy`` across tasks, with a t-interval.

    ``policy`` may be a single handle (shared across tasks) or one per task;
    an external handle carries its own few-shot context.  Episode j of task i
    uses one generator for both the oracle and the evaluated policy, so
    environment draws are identical.  The report's ``reference`` is
    ``_reference_label(oracles)``.  ``jobs > 1`` spreads the tasks over
    processes (``map_jobs``) with the serial run's results; external handles
    hold live connections and need ``jobs=1``.
    """
    if rollouts_per_task < 1:
        raise ValueError("rollouts_per_task must be an integer >= 1")
    if len(tasks) != len(oracles):
        raise ValueError("tasks and oracles must align")
    handles = policy if isinstance(policy, list) else [policy] * len(tasks)
    if len(handles) != len(tasks):
        raise ValueError("one policy handle per task (or a single shared one)")
    if jobs > 1 and any(h.kind == "external" for h in handles):
        raise ValueError("external policies require jobs=1")
    results = map_jobs(_task_gap_sums, [(task, oracles[i], handles[i], f"task_{i:04d}",
                                         rng.split(i), rollouts_per_task)
                                        for i, task in enumerate(tasks)], jobs)
    kept = [(opt, ev) for opt, ev, _ in results if opt > DEGENERATE_OPT]
    if not kept:
        raise DegenerateOptimum("all tasks have non-positive oracle value")
    opts, evals = map(list, zip(*kept))
    gaps = [(opt - ev) / opt for opt, ev in kept]
    arr = np.array(gaps)
    lo, hi = _t_interval(arr)
    return EvalReport(len(gaps), rollouts_per_task, float(arr.mean()), lo, hi,
                      gaps, opts, evals, len(results) - len(kept),
                      sum(bad for _, _, bad in results), _reference_label(oracles))


# ---------------------------------------------------------------------------
# task batteries and reference policies


def generate_tasks(setting: str, num_tasks: int, params: EnergyParams,
                   ambiguity: AmbiguityConfig, rng: Rng) -> list:
    """One energy task per split stream; reproducible independent of order."""
    gens = {
        "mdp": lambda r: gen_energy_mdp(params, r),
        "pomdp": lambda r: gen_energy_pomdp(params, r),
        "apomdp": lambda r: gen_energy_apomdp(params, ambiguity, r),
    }
    if setting not in gens:
        raise ValueError(f"unknown setting {setting!r}")
    return [gens[setting](rng.split(i)) for i in range(num_tasks)]


def _reference_label(oracles: list[PolicyHandle]) -> str:
    """Report label: exact if every handle has kind "oracle", else qmdp-fallback."""
    return "exact" if all(h.kind == "oracle" for h in oracles) else "qmdp-fallback"


def reference_policy(task, solver_config: BeliefSolverConfig | None = None
                     ) -> tuple[PolicyHandle, str]:
    """Best available reference decision-maker for a task, and its label:
    exact backward induction where feasible, else (a belief tree over the node
    budget) a QMDP handle on the task's MDP solution that carries the
    ``BudgetExceeded`` as its ``fallback``."""
    if task.kind == "mdp":
        handle = PolicyHandle.oracle(solve_mdp(task))
    else:
        try:
            handle = PolicyHandle.oracle(solve_apomdp(task, solver_config))
        except BudgetExceeded as exc:
            # without its traceback, whose frames hold the failed solve's tables
            handle = PolicyHandle.qmdp(solve_mdp(task), fallback=exc.with_traceback(None))
    return handle, _reference_label([handle])


def evaluation_policy(kind: str, task, reference: PolicyHandle,
                      client: ExternalPolicyClient | None = None) -> PolicyHandle:
    """The handle of policy ``kind`` on ``task``; ``reference`` is its oracle."""
    if kind == "oracle":
        return reference
    if kind == "random":
        return PolicyHandle.random()
    if kind == "qmdp":
        if task.kind == "mdp":
            raise ValueError("qmdp evaluation requires a belief task")
        return PolicyHandle.qmdp(solve_mdp(task))
    if kind == "external":
        if client is None:
            raise ValueError("external evaluation requires a client")
        return PolicyHandle.external(client)
    raise ValueError(f"unknown policy kind {kind!r}")


# ---------------------------------------------------------------------------
# experiment grid


@dataclass
class GridSpec:
    """Axes of an evaluation sweep over energy-task settings.

    Axis values that do not apply to a setting (observation noise for the MDP,
    model-set size for non-ambiguous tasks) are skipped in the product and
    reported as empty columns; the MDP gets no qmdp cells.  Default episode
    counts follow the convention of 30 evaluation rollouts per task, tripled
    for ambiguous tasks.
    """

    settings: tuple = ("mdp",)
    horizons: tuple = (5, 10, 15)
    obs_probs: tuple = (0.5, 0.8, 1.0)
    model_counts: tuple = (1, 3, 5)
    alphas: tuple = (0.5,)
    policies: tuple = ("random",)
    num_tasks: int = 20
    rollouts_mdp: int = 30
    rollouts_apomdp: int = 90
    params: EnergyParams = field(default_factory=EnergyParams)
    ambiguity: AmbiguityConfig = field(default_factory=AmbiguityConfig)
    solver: BeliefSolverConfig = field(default_factory=BeliefSolverConfig)


GRID_CSV_COLUMNS = ("setting", "policy", "horizon", "obs_prob", "num_models",
                    "alpha", "num_tasks", "rollouts_per_task", "reference",
                    "mean_gap", "ci_low", "ci_high", "degenerate_count",
                    "invalid_actions")


def _grid_cells(spec: GridSpec):
    for setting in spec.settings:
        obs = spec.obs_probs if setting in ("pomdp", "apomdp") else (None,)
        counts = spec.model_counts if setting == "apomdp" else (None,)
        alphas = spec.alphas if setting == "apomdp" else (None,)
        for policy in spec.policies:
            if policy == "qmdp" and setting == "mdp":
                continue  # QMDP acts on beliefs
            for T in spec.horizons:
                for q in obs:
                    for nm in counts:
                        for alpha in alphas:
                            yield setting, policy, T, q, nm, alpha


def run_experiment_grid(spec: GridSpec, rng: Rng,
                        client: ExternalPolicyClient | None = None,
                        jobs: int = 1) -> list[dict]:
    """Evaluate every grid cell; one row per (setting, policy, axes) cell."""
    rows = []
    for cell_index, cell in enumerate(_grid_cells(spec)):
        setting, policy_kind, T, q, nm, alpha = cell
        params = replace(spec.params, horizon=T,
                         obs_prob=(q if q is not None else spec.params.obs_prob))
        ambiguity = replace(
            spec.ambiguity,
            num_models=(nm if nm is not None else spec.ambiguity.num_models),
            alpha=(alpha if alpha is not None else spec.ambiguity.alpha))
        cell_rng = rng.split(cell_index)
        tasks = generate_tasks(setting, spec.num_tasks, params, ambiguity,
                               cell_rng.split(0))
        oracles = [reference_policy(task, spec.solver)[0] for task in tasks]
        handles = [evaluation_policy(policy_kind, task, oracle, client)
                   for task, oracle in zip(tasks, oracles)]
        rollouts_per_task = (spec.rollouts_apomdp if setting == "apomdp"
                             else spec.rollouts_mdp)
        report = optimality_gap(tasks, oracles, handles, cell_rng.split(1),
                                rollouts_per_task, jobs=jobs)
        rows.append(dict(zip(GRID_CSV_COLUMNS, cell), **{
            name: getattr(report, name) for name in GRID_CSV_COLUMNS[6:]}))
    return rows


# ---------------------------------------------------------------------------
# darkroom


DARKROOM_CSV_COLUMNS = ("goal_row", "goal_col", "policy", "mean_return",
                        "oracle_return", "rollouts")


def darkroom_eval(goals: list[tuple[int, int]], policy_kind: str, rng: Rng,
                  rollouts_per_goal: int = 5, size: int = 10, horizon: int = 100,
                  client: ExternalPolicyClient | None = None, jobs: int = 1) -> dict:
    """Mean cumulative reward per goal (and overall) for one policy kind.

    Each goal's task is ``DarkroomTask(goal, size, horizon).to_mdp()``: the
    grid's shared kernel and the goal's reward column.  Its oracle's exact
    return, ``max(0, horizon - distance)``, is reported alongside; it comes
    from one ``solve_stacked`` pass over the goals, each goal's ``solve_mdp``
    return bit for bit.  Goal i's episode j runs on ``rng.split(i).split(j)``.
    Random and oracle episodes of every goal are stepped together, and an
    external policy's goal by goal through ``run_episodes``, which asks it
    once per period for all of the goal's episodes, so its requests go out
    in period order within a goal.  ``jobs > 1`` spreads contiguous slices
    of the goals over processes (``map_jobs``), each item naming its goals
    but carrying no task, with the serial run's results; an external policy
    needs ``jobs=1``.  The interval is Student-t over per-goal means.
    """
    if policy_kind not in ("oracle", "random", "external"):
        raise ValueError(f"darkroom evaluates oracle, random and external policies, "
                         f"not {policy_kind!r}")
    if policy_kind == "external" and client is None:
        raise ValueError("external evaluation requires a client")
    if policy_kind == "external" and jobs > 1:
        raise ValueError("external policies require jobs=1")
    goals = [DarkroomTask(goal, size, horizon).goal for goal in goals]  # each on the grid
    parts = max(jobs, 1)
    cuts = [len(goals) * k // parts for k in range(parts + 1)]
    work = [(a, goals[a:b], size, horizon, policy_kind, rng, rollouts_per_goal, client)
            for a, b in zip(cuts, cuts[1:]) if b > a]
    per_goal = [pair for part in map_jobs(_goal_means, work, jobs) for pair in part]
    rows = [{"goal_row": goal[0], "goal_col": goal[1], "policy": policy_kind,
             "mean_return": mean, "oracle_return": oracle_return,
             "rollouts": rollouts_per_goal}
            for goal, (oracle_return, mean) in zip(goals, per_goal)]
    arr = np.array([mean for _, mean in per_goal])
    lo, hi = _t_interval(arr)
    return {"rows": rows, "mean_return": float(arr.mean()),
            "ci_low": lo, "ci_high": hi, "policy": policy_kind,
            "num_goals": len(goals)}


def _goal_means(args) -> list[tuple[float, float]]:
    """Oracle return and mean policy return of each goal in one contiguous
    slice of a ``darkroom_eval``, from ``(first, goals, size, horizon,
    policy_kind, rng, rollouts, client)``: the slice starts at goal ``first``
    of the evaluation, and each goal's returns are summed in episode order."""
    first, goals, size, horizon, policy_kind, rng, rollouts, client = args
    dynamics = DarkroomTask(goals[0], size, horizon).to_mdp()  # holds the shared kernel
    rewards = darkroom_rewards(goals, size)
    values, policy = solve_stacked(dynamics.models[0].transition, rewards, horizon)
    if policy_kind != "oracle":
        policy = None  # only oracle episodes act by it; the oracle return is in values
    if policy_kind == "external":
        handle = PolicyHandle.external(client)
        means = [_task_gap_sums((DarkroomTask(goal, size, horizon).to_mdp(), None, handle,
                                 f"darkroom_{goal[0]}_{goal[1]}", rng.split(first + i),
                                 rollouts))[1]
                 for i, goal in enumerate(goals)]
    else:
        rngs = [rng.split(first + i).split(j)
                for i in range(len(goals)) for j in range(rollouts)]
        returns = _goal_returns(policy_kind, dynamics, rewards, policy, rngs)
        means = [sum(row) / rollouts for row in returns.reshape(len(goals), -1).tolist()]
    return list(zip(values[0].tolist(), means))  # the start is cell 0


def _goal_returns(policy_kind: str, task, rewards: np.ndarray, policy: np.ndarray | None,
                  rngs: list[Rng]) -> np.ndarray:
    """Returns of random or oracle episodes on goals that share ``task``'s
    kernel, stepped together (``step_episodes``), one per generator of
    ``rngs``: goal g's rows are a contiguous block, in order, and earn its
    ``rewards`` (S, A, G) column; oracle rows act by its ``policy`` (T, S, G)
    column.  Each row draws its blocks from its generator as
    ``run_episodes`` draws them."""
    goal = np.repeat(np.arange(rewards.shape[2]), len(rngs) // rewards.shape[2])
    if policy_kind == "random":
        act = policy_actor(task, PolicyHandle.random(), _action_blocks(task, rngs))
    else:
        def act(t, state, beliefs, episodes):
            return policy[t - 1, state, goal]
    return step_episodes(task, _env_blocks(task, rngs), act,
                         lambda state, action: rewards[state, action, goal]).returns
