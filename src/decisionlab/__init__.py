"""decisionlab: a laboratory for in-context sequential decision-making.

Task families with exact and robust oracles, trajectory corpora in a canonical
text schema, oracle-relative policy evaluation, and numerical validation of
the in-context learning theory for linear self-attention.

Importing the package loads numpy and the standard library only; scipy is
imported inside the functions that use it.
"""

__version__ = "0.1.0"

from .core import (Belief, KernelPair, Rng, Step, TabularTask, Trajectory, Unsupported,
                   ZeroLikelihood, belief_predictive, belief_update, kl_divergence)
from .envs import (AmbiguityConfig, DarkroomTask, EnergyParams, SamplingExhausted,
                   all_darkroom_goals, gen_energy_apomdp, gen_energy_mdp,
                   gen_energy_pomdp, load_task, sample_ambiguity_set, save_task,
                   split_goals)
from .solvers import (BeliefSolverConfig, BudgetExceeded, MdpSolution, RobustSolution,
                      quantize_belief, solve_apomdp, solve_mdp, solve_pomdp)
from .rollout import (ExternalPolicyClient, PolicyHandle, ProtocolError, RolloutResult,
                      rollout)
from .dataset import (ParseError, build_context, build_dpt_dataset,
                      build_sft_corpus, decode, encode, read_jsonl, write_csv,
                      write_jsonl)
from .theory import (Diverged, E2Config, IllConditioned, LinearTask,
                     LinearTaskFamily, LsaLayer, LsaPredictor, Prompt, TrainResult,
                     evaluate_lsa, gamma_matrix, gap_bound, lsa_predict,
                     q_error_bound, run_e2_simulation, sample_complexity,
                     sample_prompt, train_lsa)
from .evaluation import (DegenerateOptimum, EvalReport, GridSpec, darkroom_eval,
                         generate_tasks, optimality_gap, reference_policy,
                         run_experiment_grid)
