"""Episode simulation and the policies that drive it.

``rollout`` runs one episode of a task under a ``PolicyHandle``.  Randomness
is split so that the environment's draws depend only on the rollout generator,
never on the policy: evaluating two policies with the same generator yields
draw-for-draw paired episodes, which is what makes oracle-relative gaps exact
rather than noisy.  ``episode_returns`` steps many episodes of a task together
from block draws of those streams, with ``rollout``'s returns bit for bit; on
a belief task it keeps all episodes' beliefs in one array, and an oracle or
QMDP handle answers each period's distinct beliefs in one query.  Its
stepper, ``step_returns``, also steps the episodes of many Darkroom goals
together, each row with its goal's actions and rewards.  Only external
policies are left to ``rollout`` alone.

Partially observed episodes maintain the exact Bayes belief as a side channel
(one belief per period, starting from the task prior); planners receive it
alongside the raw observation.  Ambiguous tasks are simulated under their
nominal model, and the maintained belief uses the nominal kernels as well.

External policies speak newline-delimited JSON over TCP or a child process's
stdio: one request object per line, one ``{"action": k}`` reply per line.
Replies that are valid JSON but name an out-of-range action are recorded and
mapped to action 0; malformed replies and timeouts abort the episode.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import selectors
import socket
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

from .core import Belief, Rng, TabularTask, Trajectory, belief_update, belief_updates
from .solvers import BudgetExceeded, MdpSolution, RobustSolution, planning_models

DEFAULT_TIMEOUT = 60.0
CLOSE_GRACE_S = 5.0  # how long ``close`` waits after SIGTERM before it kills the child
MAX_REPLY_BYTES = 1 << 20  # a reply is one small JSON object; a longer line is malformed


class ProtocolError(RuntimeError):
    """Malformed traffic from an external policy (bad JSON, missing fields, EOF)."""


class InvalidAction(ValueError):
    """Structurally valid reply naming an action outside the task's range."""


# ---------------------------------------------------------------------------
# external-policy client


def _recv_line(fileobj, read, buf: bytearray, timeout: float) -> bytes:
    """The next newline-terminated reply from ``fileobj`` (socket or pipe fd).

    ``read(n)`` returns up to n bytes, b"" at end of stream.  The whole reply
    must arrive within ``timeout`` seconds, however it is split, and its line
    may hold at most ``MAX_REPLY_BYTES`` bytes.
    """
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(fileobj, selectors.EVENT_READ)
        while (nl := buf.find(b"\n", 0, MAX_REPLY_BYTES + 1)) < 0:
            if len(buf) > MAX_REPLY_BYTES:
                raise ProtocolError(f"reply line exceeds {MAX_REPLY_BYTES} bytes")
            remaining = deadline - time.monotonic()
            if remaining <= 0.0 or not sel.select(remaining):
                raise TimeoutError("external policy did not reply within the timeout")
            chunk = read(65536)
            if not chunk:
                raise ProtocolError("external policy closed its output")
            buf.extend(chunk)
    line = bytes(buf[:nl])
    del buf[:nl + 1]
    return line


class ExternalPolicyClient:
    """One connection to an external decision-maker, one request in flight.

    Each instance owns a private transport (TCP socket or child process) and
    serializes its own requests with a lock, so per-request state is never
    shared; run several instances for concurrent episodes.
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout
        self._lock = threading.Lock()
        self._buf = bytearray()
        self._sock: socket.socket | None = None
        self._proc: subprocess.Popen | None = None

    @classmethod
    def tcp(cls, host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> "ExternalPolicyClient":
        client = cls(timeout)
        client._sock = socket.create_connection((host, port), timeout=timeout)
        return client

    @classmethod
    def child_process(cls, argv: list[str],
                      timeout: float = DEFAULT_TIMEOUT) -> "ExternalPolicyClient":
        client = cls(timeout)
        client._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return client

    def query(self, request: dict, num_actions: int) -> int:
        """Send one request, read one reply, validate the chosen action."""
        line = (json.dumps(request, separators=(",", ":")) + "\n").encode()
        with self._lock:
            if self._sock is not None:
                self._sock.sendall(line)
                raw = _recv_line(self._sock, self._sock.recv, self._buf, self.timeout)
            elif self._proc is not None:
                if self._proc.poll() is not None:
                    raise ProtocolError("external policy process has exited")
                self._proc.stdin.write(line)
                self._proc.stdin.flush()
                fd = self._proc.stdout.fileno()
                raw = _recv_line(fd, functools.partial(os.read, fd), self._buf, self.timeout)
            else:
                raise ProtocolError("client has no transport (already closed?)")
        try:
            reply = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"reply is not valid JSON: {raw[:200]!r}") from exc
        if not isinstance(reply, dict) or "action" not in reply:
            raise ProtocolError(f"reply missing 'action' field: {reply!r}")
        action = reply["action"]
        if isinstance(action, bool) or not isinstance(action, int):
            raise ProtocolError(f"'action' must be an integer, got {action!r}")
        if not (0 <= action < num_actions):
            raise InvalidAction(f"action {action} outside range 0..{num_actions - 1}")
        return action

    def close(self):
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        proc, self._proc = self._proc, None
        if proc is not None:
            with contextlib.suppress(BrokenPipeError):  # bytes left for a dead child
                proc.stdin.close()
            proc.terminate()
            try:
                proc.wait(timeout=CLOSE_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# policy handles


@dataclass
class PolicyHandle:
    """A policy kind and what it acts through; ``rollout`` makes it an action function.

    kind "oracle" wraps the solution of the rolled-out task (an MdpSolution
    for an mdp, a RobustSolution for a belief task), and "qmdp" the MdpSolution
    of a belief task, acting by its ``qmdp_action``; ``rollout`` checks both
    against the task.  "random" draws uniform actions from the policy stream;
    "external" sends one wire request per period through its client, with its
    few-shot ``context`` (``build_context``'s text, "" for none).  The
    "qmdp" handle that ``reference_policy`` returns in place of an exact
    oracle carries the ``BudgetExceeded`` that stopped the solve as
    ``fallback``.
    """

    kind: str
    solution: MdpSolution | RobustSolution | None = None
    client: ExternalPolicyClient | None = None
    fallback: BudgetExceeded | None = None
    context: str = ""

    @classmethod
    def oracle(cls, solution) -> "PolicyHandle":
        return cls("oracle", solution=solution)

    @classmethod
    def random(cls) -> "PolicyHandle":
        return cls("random")

    @classmethod
    def qmdp(cls, solution: MdpSolution,
             fallback: BudgetExceeded | None = None) -> "PolicyHandle":
        return cls("qmdp", solution=solution, fallback=fallback)

    @classmethod
    def external(cls, client: ExternalPolicyClient, context: str = "") -> "PolicyHandle":
        return cls("external", client=client, context=context)


def _check_oracle_matches(task: TabularTask, handle: PolicyHandle):
    """Reject a solution of the wrong type for the handle and task, or one whose
    horizon, discount, reward or nominal kernels differ from the task's.  A
    RobustSolution must also plan over every model at the alpha that
    ``planning_models`` gives for the task."""
    if handle.kind == "qmdp" and task.kind == "mdp":
        raise TypeError("a qmdp handle needs a belief task")
    expected = MdpSolution if handle.kind == "qmdp" or task.kind == "mdp" else RobustSolution
    solution = handle.solution
    if not isinstance(solution, expected):
        raise TypeError(f"this {handle.kind} handle must wrap a {expected.__name__}")
    solved = solution.task
    if expected is RobustSolution:
        (mine, alpha), theirs = planning_models(task), solution.models
    else:  # an MdpSolution has no alpha and acts through the nominal model alone
        mine, alpha, theirs = task.models[:1], None, solved.models[:1]
    if not (solved.horizon == task.horizon and solved.discount == task.discount
            and np.array_equal(solved.reward, task.reward)
            and getattr(solution, "alpha", None) == alpha and len(theirs) == len(mine)
            and all(np.array_equal(a.transition, b.transition)
                    and np.array_equal(a.observation, b.observation)
                    for a, b in zip(theirs, mine))):
        raise ValueError(f"{handle.kind} solution was solved for a different task")


# ---------------------------------------------------------------------------
# rollout


@dataclass
class RolloutResult:
    trajectory: Trajectory
    online_return: float
    beliefs: list[Belief] | None = None
    invalid_actions: int = 0


def _policy_fn(task, policy: PolicyHandle, policy_rng: Rng, task_id: str):
    """The action function ``act(t, obs, belief, history)`` of a policy handle.

    ``obs`` is the state for fully observed tasks; ``belief`` is the nominal
    Bayes belief for belief tasks and None otherwise.
    """
    num_actions = task.num_actions
    solution = policy.solution
    if policy.kind == "random":
        return lambda t, obs, belief, history: int(policy_rng.integers(0, num_actions))
    if policy.kind in ("oracle", "qmdp"):
        _check_oracle_matches(task, policy)
        if policy.kind == "qmdp":
            return lambda t, obs, belief, history: solution.qmdp_action(t, belief)
        if task.kind == "mdp":
            return lambda t, obs, belief, history: solution.action(t, obs)
        return lambda t, obs, belief, history: solution.action(t, belief)
    if policy.kind == "external":
        if policy.client is None:
            raise ValueError("external handle must carry a client")

        def act(t, obs, belief, history):
            request = {
                "task_id": task_id,
                "step": t,
                "context": policy.context,
                "history": [{"obs": s.obs, "action": s.action, "reward": s.reward}
                            for s in history],
                "current_obs": int(obs),
                "num_actions": num_actions,
            }
            return policy.client.query(request, num_actions)

        return act
    raise ValueError(f"unknown policy kind {policy.kind!r}")


def rollout(task: TabularTask, policy: PolicyHandle, rng: Rng,
            task_id: str = "") -> RolloutResult:
    """Simulate one episode; the environment stream is independent of the policy.

    The trajectory records one (obs, action, reward) step per period; an MDP's
    observation is its state.  Belief tasks draw each observation after the
    state and carry the per-period Bayes beliefs (under the nominal model) as
    a side channel.  One-hot rows (Darkroom) draw from the environment stream
    too.  Invalid external actions are mapped to action 0 and counted.
    """
    if not isinstance(task, TabularTask):
        raise TypeError(f"unsupported task type {type(task).__name__}")
    env_rng = rng.split(0)
    act = _policy_fn(task, policy, rng.split(1), task_id)
    traj = Trajectory(task_id)
    invalid = 0
    nominal = task.models[0]  # an ambiguous task is simulated under its first model
    transition, observation, reward = nominal.transition, nominal.observation, task.reward
    state = env_rng.draw_index(task.initial_dist)
    obs, belief, beliefs = state, None, None
    if observation is not None:
        # the first observation is emitted before any action (kernel slot 0)
        obs = env_rng.draw_index(observation[state, 0])
        belief = Belief(task.initial_dist)
        beliefs = [belief]
    for t in range(1, task.horizon + 1):
        try:
            action = act(t, obs, belief, traj.steps)
        except InvalidAction:
            action, invalid = 0, invalid + 1
        r = float(reward[state, action])
        traj.append(obs, action, r)
        if t < task.horizon:
            state = env_rng.draw_index(transition[state, action])
            obs = state
            if observation is not None:
                obs = env_rng.draw_index(observation[state, action])
                belief = belief_update(belief, action, obs, transition, observation)
                beliefs.append(belief)
    return RolloutResult(traj, traj.discounted_return(task.discount), beliefs, invalid)


def env_draws(task: TabularTask) -> int:
    """How many uniforms one episode of ``task`` draws from its environment
    stream: T on an mdp, 2T on a belief task."""
    return task.horizon if task.kind == "mdp" else 2 * task.horizon


def episode_returns(task: TabularTask, policy: PolicyHandle, env_blocks: np.ndarray,
                    action_blocks: np.ndarray | None = None) -> np.ndarray:
    """Discounted returns of a task's episodes, stepped together, one per row.

    Row j of ``env_blocks`` holds the ``env_draws(task)`` uniforms that
    ``rollout`` draws one at a time from ``rng.split(0)``: on an mdp the
    initial state, then T - 1 transitions; on a belief task the initial state
    and the first observation (which no belief reads), then a transition and
    an observation per later period.  For a random handle, row j of
    ``action_blocks`` holds its T draws ``integers(0, A)`` from
    ``rng.split(1)``.  Oracle and qmdp handles are checked against the task
    once; on a belief task they answer each period's beliefs in one query
    (``RobustSolution.actions``, ``MdpSolution.qmdp_actions``).  The episodes
    are ``step_returns``', so entry j equals ``rollout(task, policy,
    rng).online_return`` bit for bit; a handle that ``rollout`` rejects
    raises the same error.
    """
    if policy.kind not in ("oracle", "random", "qmdp"):
        raise ValueError(f"episode_returns steps oracle, random and qmdp handles, "
                         f"not {policy.kind!r}")
    if policy.kind != "random":
        _check_oracle_matches(task, policy)
    solution = policy.solution
    if policy.kind == "random":
        def act(t, state, beliefs):
            return action_blocks[:, t - 1]
    elif policy.kind == "qmdp":
        def act(t, state, beliefs):
            return solution.qmdp_actions(t, beliefs)
    elif task.kind == "mdp":
        def act(t, state, beliefs):
            return solution.policy[t - 1, state]
    else:
        def act(t, state, beliefs):
            return solution.actions(t, beliefs)
    return step_returns(task, env_blocks, act)


def step_returns(task: TabularTask, env_blocks: np.ndarray, act, reward=None) -> np.ndarray:
    """Discounted returns of episodes of ``task``'s dynamics, stepped together
    from the uniforms of ``env_blocks`` (laid out as in ``episode_returns``),
    one per row.  ``act(t, state, beliefs)`` gives every row's action in
    period t (``beliefs`` is None on an mdp), and ``reward(state, action)``
    every row's reward, ``task.reward[state, action]`` unless given.  Each
    uniform is inverted against the row cumsums as ``Rng.draw_index`` inverts
    it, beliefs are updated as ``belief_update`` updates them, and each return
    is accumulated in period order, as ``rollout`` accumulates it.
    """
    if env_blocks.ndim != 2 or env_blocks.shape[1] != env_draws(task):
        raise ValueError(f"each row of env_blocks must hold {env_draws(task)} uniforms")
    if reward is None:
        def reward(state, action):
            return task.reward[state, action]
    nominal = task.models[0]  # an ambiguous task is simulated under its first model
    transition, observation = nominal.transition, nominal.observation
    cum = transition.cumsum(axis=-1)

    def draw(rows, u):  # the count of cumsum entries <= u is searchsorted(u, side="right")
        return np.minimum((rows <= u[:, None]).sum(1), rows.shape[-1] - 1)

    state = draw(task.initial_dist.cumsum(), env_blocks[:, 0])
    beliefs = None
    if observation is not None:
        obs_cum = observation.cumsum(axis=-1)
        beliefs = np.tile(Belief(task.initial_dist).probs, (len(env_blocks), 1))
    total, weight = np.zeros(len(env_blocks)), 1.0
    for t in range(1, task.horizon + 1):
        action = act(t, state, beliefs)
        total += weight * reward(state, action)
        weight *= task.discount
        if t < task.horizon and observation is None:
            state = draw(cum[state, action], env_blocks[:, t])
        elif t < task.horizon:
            state = draw(cum[state, action], env_blocks[:, 2 * t])
            obs = draw(obs_cum[state, action], env_blocks[:, 2 * t + 1])
            beliefs = belief_updates(beliefs, action, obs, transition, observation)
    return total
