"""Episode simulation and the policies that drive it.

``rollout`` runs one episode of a task under a ``PolicyHandle``.  Randomness
is split so that the environment's draws depend only on the rollout generator,
never on the policy: evaluating two policies with the same generator yields
draw-for-draw paired episodes, which is what makes oracle-relative gaps exact
rather than noisy.  ``episode_returns`` steps many episodes of an mdp together
from block draws of those streams, with ``rollout``'s returns bit for bit.

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

from .core import Belief, Rng, TabularTask, Trajectory, belief_update
from .solvers import BudgetExceeded, MdpSolution, RobustSolution

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
    horizon, discount, reward or nominal kernels differ from the task's."""
    if handle.kind == "qmdp" and task.kind == "mdp":
        raise TypeError("a qmdp handle needs a belief task")
    expected = MdpSolution if handle.kind == "qmdp" or task.kind == "mdp" else RobustSolution
    if not isinstance(handle.solution, expected):
        raise TypeError(f"this {handle.kind} handle must wrap a {expected.__name__}")
    solved = handle.solution.task
    mine, theirs = task.models[0], solved.models[0]
    if not (solved.horizon == task.horizon and solved.discount == task.discount
            and np.array_equal(solved.reward, task.reward)
            and np.array_equal(theirs.transition, mine.transition)
            and np.array_equal(theirs.observation, mine.observation)):
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


def episode_returns(task: TabularTask, policy: PolicyHandle, env_blocks: np.ndarray,
                    action_blocks: np.ndarray | None = None) -> np.ndarray:
    """Discounted returns of an mdp's episodes, stepped together, one per row.

    Row j of ``env_blocks`` holds the T uniforms that ``rollout`` draws one at
    a time from ``rng.split(0)`` (the initial state, then T - 1 transitions);
    for a random handle, row j of ``action_blocks`` holds its T draws
    ``integers(0, A)`` from ``rng.split(1)``.  An oracle handle acts by its
    policy table and is checked against the task once.  Each uniform is
    inverted against the row cumsums as ``Rng.draw_index`` inverts it, and
    each return is accumulated in period order, so entry j equals
    ``rollout(task, policy, rng).online_return`` bit for bit.
    """
    if task.kind != "mdp" or policy.kind not in ("oracle", "random"):
        raise ValueError("episode_returns steps oracle and random handles on an mdp")
    if policy.kind == "oracle":
        _check_oracle_matches(task, policy)
        table = policy.solution.policy
    last = task.num_states - 1
    # the count of cumsum entries <= u is searchsorted(u, side="right")
    state = np.minimum((task.initial_dist.cumsum() <= env_blocks[:, :1]).sum(1), last)
    cum = task.models[0].transition.cumsum(axis=-1)
    total, weight = np.zeros(len(env_blocks)), 1.0
    for t in range(1, task.horizon + 1):
        action = table[t - 1, state] if policy.kind == "oracle" else action_blocks[:, t - 1]
        total += weight * task.reward[state, action]
        weight *= task.discount
        if t < task.horizon:
            u = env_blocks[:, t:t + 1]
            state = np.minimum((cum[state, action] <= u).sum(1), last)
    return total
