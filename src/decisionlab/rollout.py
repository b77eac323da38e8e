"""Episode simulation and the policies that drive it.

One stepper, ``step_episodes``, simulates every episode: it steps many
episodes of a task together, one row each, and records each period's
observation, action and reward (and, on a belief task, its belief).
``policy_actor`` turns a ``PolicyHandle`` into the stepper's action function.
Randomness is split so that the environment's draws depend only on the
episode's generator, never on the policy: evaluating two policies with the
same generator yields draw-for-draw paired episodes, which is what makes
oracle-relative gaps exact rather than noisy.  ``run_episodes`` steps one
episode per generator from block draws of those streams and is the one
runner of evaluation and the corpus builders; ``rollout`` is its one-row
call.  It steps every policy's episodes together, an external policy's too,
whose requests therefore go out in period order: period t's requests of
every episode, in episode order, then period t + 1's.  The stepper also
steps the episodes of many Darkroom goals together, each row with its goal's
actions and rewards.

Partially observed episodes maintain the exact Bayes belief as a side channel
(one belief per period, starting from the task prior); planners receive it
alongside the raw observation.  Ambiguous tasks are simulated under their
nominal model, and the maintained belief uses the nominal kernels as well.

External policies speak newline-delimited JSON over TCP or a child process's
stdio: one request object per line, one ``{"action": k}`` reply per line.  A
period's requests are written together, and the replies must come back in
request order, since a request carries no id.  Replies that are valid JSON
but name an out-of-range action are recorded and mapped to action 0;
malformed replies and timeouts abort the episodes.
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

# belief_update is not called here, but perfbench's tracer wraps it on this module
from .core import (Belief, Rng, Step, TabularTask, Trajectory, belief_update,
                   belief_updates)
from .solvers import BudgetExceeded, MdpSolution, RobustSolution, planning_models

DEFAULT_TIMEOUT = 60.0
CLOSE_GRACE_S = 5.0  # how long ``close`` waits after SIGTERM before it kills the child
MAX_REPLY_BYTES = 1 << 20  # a reply is one small JSON object; a longer line is malformed
_dumps = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps(obj, separators=(",", ":"))


class ProtocolError(RuntimeError):
    """Malformed traffic from an external policy (bad JSON, missing fields, EOF)."""


# ---------------------------------------------------------------------------
# external-policy client


def _action(raw: bytes, num_actions: int) -> int:
    """The action of one reply line; -1 for an action outside ``0..num_actions - 1``."""
    try:
        reply = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"reply is not valid JSON: {raw[:200]!r}") from exc
    if not isinstance(reply, dict) or "action" not in reply:
        raise ProtocolError(f"reply missing 'action' field: {reply!r}")
    action = reply["action"]
    if isinstance(action, bool) or not isinstance(action, int):
        raise ProtocolError(f"'action' must be an integer, got {action!r}")
    return action if 0 <= action < num_actions else -1


class ExternalPolicyClient:
    """One connection to an external decision-maker.

    A line transport: ``query`` writes a batch of requests, each already
    encoded as a line of JSON text, and reads and validates one reply per
    line, in request order.  Each instance owns a private transport (TCP
    socket or child process), switched to non-blocking I/O, and one selector
    on it, registered here and closed by ``close``; it serializes its own
    batches with a lock, so per-request state is never shared.
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT, sock: socket.socket | None = None,
                 proc: subprocess.Popen | None = None):
        self.timeout = timeout
        self._lock = threading.Lock()
        self._buf = bytearray()
        self._sock, self._proc = sock, proc
        self._selector = selectors.DefaultSelector()
        if sock is not None:
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ)
            self._read, self._write = sock.recv, sock.send
        elif proc is not None:
            os.set_blocking(proc.stdin.fileno(), False)
            self._selector.register(proc.stdout, selectors.EVENT_READ)
            self._read = functools.partial(os.read, proc.stdout.fileno())
            self._write = functools.partial(os.write, proc.stdin.fileno())

    @classmethod
    def tcp(cls, host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> "ExternalPolicyClient":
        return cls(timeout, sock=socket.create_connection((host, port), timeout=timeout))

    @classmethod
    def child_process(cls, argv: list[str],
                      timeout: float = DEFAULT_TIMEOUT) -> "ExternalPolicyClient":
        return cls(timeout, proc=subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE))

    def query(self, lines: list[str], num_actions: int) -> list[int]:
        """Send request lines (JSON text without newlines), without waiting
        for a reply between them, and return the action of each line's
        reply, in request order; an action outside ``0..num_actions - 1``
        reads -1.  A timeout or a protocol error closes the client."""
        if not lines:
            return []
        text = "\n".join(lines) + "\n"
        if text.count("\n") != len(lines):
            raise ValueError("a request line must not contain a newline")
        with self._lock:
            if self._proc is not None and self._proc.poll() is not None:
                raise ProtocolError("external policy process has exited")
            if self._sock is None and self._proc is None:
                raise ProtocolError("client has no transport (already closed?)")
            try:
                raws = self._exchange(text.encode(), len(lines))
            except (TimeoutError, ProtocolError):
                self.close()  # replies of the failed batch may still arrive
                raise
        return [_action(raw, num_actions) for raw in raws]

    def _exchange(self, data: bytes, count: int) -> list[bytes]:
        """Write ``data`` and read ``count`` newline-terminated replies, in
        one loop on the selector: replies are read while the rest of
        ``data`` waits for room, so neither side's buffers can fill up and
        block the other.  Each reply must be complete within ``timeout``
        seconds of the one before it (the first, of the call), however its
        bytes are split, and its line may hold at most ``MAX_REPLY_BYTES``
        bytes."""
        pending, buf, replies, start = memoryview(data), self._buf, [], 0
        pending = pending[self._send(pending):]
        if pending:
            self._watch_writes(True)
        try:
            deadline = time.monotonic() + self.timeout
            while len(replies) < count:
                nl = buf.find(b"\n", start, start + MAX_REPLY_BYTES + 1)
                if nl >= 0:
                    replies.append(bytes(buf[start:nl]))
                    start = nl + 1
                    deadline = time.monotonic() + self.timeout
                    continue
                if len(buf) - start > MAX_REPLY_BYTES:
                    raise ProtocolError(f"reply line exceeds {MAX_REPLY_BYTES} bytes")
                remaining = deadline - time.monotonic()
                events = self._selector.select(remaining) if remaining > 0.0 else ()
                if not events:
                    raise TimeoutError("external policy did not reply within the timeout")
                for _, mask in events:
                    if mask & selectors.EVENT_WRITE and pending:
                        pending = pending[self._send(pending):]
                        if not pending:
                            self._watch_writes(False)
                    if mask & selectors.EVENT_READ:
                        try:
                            chunk = self._read(65536)
                        except ConnectionError:  # reset by the peer: as good as closed
                            chunk = b""
                        if not chunk:
                            raise ProtocolError("external policy closed its output")
                        buf.extend(chunk)
        finally:
            del buf[:start]
            if pending:
                self._watch_writes(False)
        if pending:
            raise ProtocolError("external policy replied to requests it had not been sent")
        return replies

    def _send(self, data: memoryview) -> int:
        """Write what the transport takes of ``data`` now; how many bytes it took."""
        try:
            return self._write(data)
        except BlockingIOError:
            return 0
        except ConnectionError as exc:  # the peer stopped reading: closed, exited or reset
            raise ProtocolError(f"external policy closed its input: {exc}") from exc

    def _watch_writes(self, on: bool):
        """Whether the selector also waits for room to write."""
        if self._sock is not None:
            self._selector.modify(self._sock, selectors.EVENT_READ
                                  | (selectors.EVENT_WRITE if on else 0))
        elif on:
            self._selector.register(self._proc.stdin, selectors.EVENT_WRITE)
        else:
            self._selector.unregister(self._proc.stdin)

    def close(self):
        self._selector.close()
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
    """A policy kind and what it acts through; ``policy_actor`` makes it an action function.

    kind "oracle" wraps the solution of the rolled-out task (an MdpSolution
    for an mdp, a RobustSolution for a belief task), and "qmdp" the MdpSolution
    of a belief task, acting by its ``qmdp_actions``; ``policy_actor`` checks
    both against the task.  "random" draws uniform actions from the policy
    stream; "external" sends one wire request per episode and period through
    its client, a period's requests of all episodes in one batch, with its
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
# episodes


@dataclass
class RolloutResult:
    trajectory: Trajectory
    online_return: float
    beliefs: list[Belief] | None = None
    invalid_actions: int = 0


@dataclass
class Episodes:
    """What ``step_episodes`` records of n episodes, one row each: every
    period's observation, action and reward (n, T), the discounted returns
    (n,), the invalid external actions of each row (n,) and, on a belief
    task, every period's nominal Bayes belief (n, T, S)."""

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    returns: np.ndarray
    invalid: np.ndarray
    beliefs: np.ndarray | None = None

    def trajectories(self, task_id: str = "") -> list[Trajectory]:
        rows = zip(self.obs.tolist(), self.actions.tolist(), self.rewards.tolist())
        return [Trajectory(task_id, list(map(Step._make, zip(*row)))) for row in rows]


def env_draws(task: TabularTask) -> int:
    """How many uniforms one episode of ``task`` draws from its environment
    stream: T on an mdp, 2T on a belief task.  Every block draw and every
    stepped batch asks it first, so another task type fails here."""
    if not isinstance(task, TabularTask):
        raise TypeError(f"unsupported task type {type(task).__name__}")
    return task.horizon if task.kind == "mdp" else 2 * task.horizon


def _env_blocks(task: TabularTask, rngs: list[Rng]) -> np.ndarray:
    """Row j: the ``env_draws(task)`` uniforms of episode j's environment
    stream ``rngs[j].split(0)``.  On an mdp they are the initial state's, then
    one per transition; on a belief task the initial state's and the first
    observation's, then a transition's and an observation's per later period."""
    blocks = np.empty((len(rngs), env_draws(task)))
    for row, rng in zip(blocks, rngs):
        rng.split(0).gen.random(out=row)
    return blocks


def _action_blocks(task: TabularTask, rngs: list[Rng]) -> np.ndarray:
    """Row j: the T actions ``integers(0, A)`` that a random policy draws in
    episode j from its policy stream ``rngs[j].split(1)``."""
    actions = np.empty((len(rngs), task.horizon), dtype=np.min_scalar_type(task.num_actions - 1))
    for row, rng in zip(actions, rngs):
        row[:] = rng.split(1).integers(0, task.num_actions, size=task.horizon)
    return actions


def policy_actor(task: TabularTask, policy: PolicyHandle, action_blocks: np.ndarray | None = None,
                 task_id: str = ""):
    """``step_episodes``' action function for ``policy`` on ``task``.

    A random handle reads column t of ``action_blocks``.  Oracle and qmdp
    handles are checked against the task once; on a belief task they answer
    a period's beliefs in one query (``RobustSolution.actions``,
    ``MdpSolution.qmdp_actions``).  An external handle asks its client once
    per period, with one request line per row, in row order, each with the
    history that ``episodes`` recorded; an out-of-range reply acts 0 and is
    counted in ``episodes.invalid``.  A request line is the bytes of
    ``json.dumps(request, separators=(",", ":"))``, built as the episode
    grows: each row keeps its completed steps already encoded (one
    ``json.dumps`` of a step's dict when it completes), the task id, context
    and action count are encoded once per actor, and a request joins those
    pieces.  The history restarts at period 1.
    """
    if policy.kind == "random":
        return lambda t, state, beliefs, episodes: action_blocks[:, t - 1]
    if policy.kind in ("oracle", "qmdp"):
        _check_oracle_matches(task, policy)
        if policy.kind == "qmdp":
            return lambda t, state, beliefs, episodes: policy.solution.qmdp_actions(t, beliefs)
        if task.kind == "mdp":
            return lambda t, state, beliefs, episodes: policy.solution.policy[t - 1, state]
        return lambda t, state, beliefs, episodes: policy.solution.actions(t, beliefs)
    if policy.kind != "external":
        raise ValueError(f"unknown policy kind {policy.kind!r}")
    if policy.client is None:
        raise ValueError("external handle must carry a client")
    num_actions, client = task.num_actions, policy.client
    # the pieces in the request's key order: task_id, step, context, history,
    # current_obs, num_actions
    head = '{"task_id":%s,"step":' % _dumps(task_id)
    middle = ',"context":%s,"history":[' % _dumps(policy.context)
    tail = ',"num_actions":%s}' % _dumps(num_actions)
    histories: list[list[str]] = []

    def act(t, state, beliefs, episodes):
        nonlocal histories
        if t == 1:
            histories = [[] for _ in range(len(state))]
        else:
            done = zip(episodes.obs[:, t - 2].tolist(), episodes.actions[:, t - 2].tolist(),
                       episodes.rewards[:, t - 2].tolist())
            for history, (o, a, r) in zip(histories, done):
                history.append(_dumps({"obs": o, "action": a, "reward": r}))
        prefix = f"{head}{t}{middle}"
        lines = [f'{prefix}{",".join(history)}],"current_obs":{obs}{tail}'
                 for history, obs in zip(histories, episodes.obs[:, t - 1].tolist())]
        actions = np.array(client.query(lines, num_actions), dtype=np.int64)
        invalid = actions < 0  # out of range: act 0 and count it
        episodes.invalid += invalid
        actions[invalid] = 0
        return actions

    return act


def step_episodes(task: TabularTask, env_blocks: np.ndarray, act, reward=None) -> Episodes:
    """The episodes of ``task``, one per row of ``env_blocks`` (laid out as
    ``_env_blocks`` draws them), stepped together and recorded.

    ``act(t, state, beliefs, episodes)`` gives every row's action in period
    t (``beliefs`` is None on an mdp; ``episodes`` is recorded up to the
    period's observations), and ``reward(state, action)`` every row's
    reward, ``task.reward[state, action]`` unless given.  Each uniform is
    inverted against the row cumsums as ``Rng.draw_index`` inverts it,
    beliefs are updated as ``belief_update`` updates them, and each return is
    accumulated in period order, as ``Trajectory.discounted_return`` does.
    """
    if env_blocks.ndim != 2 or env_blocks.shape[1] != env_draws(task):
        raise ValueError(f"each row of env_blocks must hold {env_draws(task)} uniforms")
    reward = reward or (lambda state, action: task.reward[state, action])
    n, T = len(env_blocks), task.horizon
    nominal = task.models[0]  # an ambiguous task is simulated under its first model
    transition, observation = nominal.transition, nominal.observation

    def cumsum(probs):  # ends in inf: a uniform past the last sum draws the last index
        cum = probs.cumsum(axis=-1)
        cum[..., -1] = np.inf
        return cum

    def draw(rows, u):  # the first sum above u: searchsorted(u, side="right")
        return (rows > u[:, None]).argmax(1)

    episodes = Episodes(np.empty((n, T), dtype=np.min_scalar_type(task.num_obs - 1)),
                        np.empty((n, T), dtype=np.min_scalar_type(task.num_actions - 1)),
                        np.empty((n, T)), np.zeros(n), np.zeros(n, dtype=np.int64))
    cum = cumsum(transition)
    state = obs = draw(cumsum(task.initial_dist), env_blocks[:, 0])
    beliefs = None
    if observation is not None:  # the first observation comes before any action (slot 0)
        obs_cum = cumsum(observation)
        obs = draw(obs_cum[state, 0], env_blocks[:, 1])
        beliefs = np.tile(Belief(task.initial_dist).probs, (n, 1))
        episodes.beliefs = np.empty((n, T, task.num_states))
    weight = 1.0
    for t in range(1, T + 1):
        episodes.obs[:, t - 1] = obs
        if beliefs is not None:
            episodes.beliefs[:, t - 1] = beliefs
        action = episodes.actions[:, t - 1] = act(t, state, beliefs, episodes)
        r = episodes.rewards[:, t - 1] = reward(state, action)
        episodes.returns += weight * r
        weight *= task.discount
        if t < T and observation is None:
            state = obs = draw(cum[state, action], env_blocks[:, t])
        elif t < T:
            state = draw(cum[state, action], env_blocks[:, 2 * t])
            obs = draw(obs_cum[state, action], env_blocks[:, 2 * t + 1])
            beliefs = belief_updates(beliefs, action, obs, transition, observation)
    return episodes


def run_episodes(task: TabularTask, policy: PolicyHandle, rngs: list[Rng], task_id: str = "",
                 env_blocks: np.ndarray | None = None) -> Episodes:
    """The episodes of ``policy`` on ``task``, one per generator of ``rngs``:
    episode j's environment draws come from ``rngs[j].split(0)``
    (``env_blocks``, when given, must hold them) and a random policy's
    actions from ``rngs[j].split(1)``, so two policies run on the same
    generators meet the same environment draws.  Every policy's episodes are
    stepped together, so an external policy's requests go out in period
    order, one batch per period."""
    if env_blocks is None:  # first, so that a task of another type fails before any draw
        env_blocks = _env_blocks(task, rngs)
    act = policy_actor(task, policy, _action_blocks(task, rngs) if policy.kind == "random"
                       else None, task_id)
    return step_episodes(task, env_blocks, act)


def rollout(task: TabularTask, policy: PolicyHandle, rng: Rng,
            task_id: str = "") -> RolloutResult:
    """One episode of ``policy`` on ``task`` from generator ``rng``: the
    one-row ``run_episodes``, with its trajectory, return, per-period
    beliefs (belief tasks only) and invalid external actions."""
    episodes = run_episodes(task, policy, [rng], task_id)
    beliefs = None if episodes.beliefs is None else [Belief(b) for b in episodes.beliefs[0]]
    return RolloutResult(episodes.trajectories(task_id)[0], float(episodes.returns[0]), beliefs,
                         int(episodes.invalid[0]))
