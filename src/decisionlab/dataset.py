"""Trajectory text codec and corpus exporters.

The canonical encoding of a trajectory is a single line of tagged fields,

    <O_1> 3, <A_1> 1, <R_1> 0.33, <O_2> 0, <A_2> 2, <R_2> -0.02

with 1-based step tags, ", " between fields, integers in canonical decimal
(no sign, no leading zeros) and rewards fixed to two decimals.  ``decode`` is
strict: it accepts exactly the strings ``encode`` can produce (so any accepted
string re-encodes byte-identically) and reports the byte offset of the first
violation otherwise.  Note the codec rounds rewards to two decimals; decoding
recovers the rounded values.

Corpus records are plain JSON-ready dicts.  Every rollout performed by a
builder records its generator's (seed, stream) pair, so a corpus can be
re-simulated exactly from its records for audit.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .core import Rng, Trajectory
from .rollout import PolicyHandle, rollout

SCHEMA_VERSION = 1

_INT_RE = re.compile(r"0|[1-9]\d*")
_REWARD_RE = re.compile(r"-?(?:0|[1-9]\d*)\.\d\d")


class ParseError(ValueError):
    """Rejected trajectory text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def encode(trajectory: Trajectory) -> str:
    """Canonical single-line text form of a trajectory."""
    parts = []
    for i, step in enumerate(trajectory.steps, start=1):
        parts.append(f"<O_{i}> {step.obs}")
        parts.append(f"<A_{i}> {step.action}")
        parts.append(f"<R_{i}> {step.reward:.2f}")
    return ", ".join(parts)


def decode(text: str, task_id: str = "") -> Trajectory:
    """Parse canonical trajectory text; strict inverse of ``encode``.

    Raises ParseError on any deviation: wrong spacing, non-consecutive or
    0-based step tags, leading zeros, rewards without exactly two decimals or
    with more digits than a float keeps, or trailing separators.
    """
    traj = Trajectory(task_id)
    pos = 0

    def expect(literal: str):
        nonlocal pos
        if not text.startswith(literal, pos):
            raise ParseError(f"expected {literal!r}", pos)
        pos += len(literal)

    def take(regex: re.Pattern, what: str) -> str:
        nonlocal pos
        m = regex.match(text, pos)
        if m is None:
            raise ParseError(f"expected {what}", pos)
        pos = m.end()
        return m.group(0)

    step = 1
    while pos < len(text):
        if step > 1:
            expect(", ")
        expect(f"<O_{step}> ")
        obs = int(take(_INT_RE, "observation integer"))
        expect(", ")
        expect(f"<A_{step}> ")
        action = int(take(_INT_RE, "action integer"))
        expect(", ")
        expect(f"<R_{step}> ")
        token = take(_REWARD_RE, "reward with two decimals")
        if f"{float(token):.2f}" != token:  # more digits than a float keeps
            raise ParseError("reward does not survive a float round trip", pos - len(token))
        traj.append(obs, action, float(token))
        step += 1
    return traj


def build_context(trajectories: list[Trajectory]) -> str:
    """Demonstrations as numbered blocks: ``TRAJ k: <encoding>`` per line; an
    external handle sends it as each request's ``context``."""
    return _join_context([encode(t) for t in trajectories])


def _join_context(encoded: list[str]) -> str:
    """``build_context`` of the trajectories whose encodings are ``encoded``."""
    return "\n".join(f"TRAJ {i}: {text}" for i, text in enumerate(encoded, start=1))


# ---------------------------------------------------------------------------
# corpus builders


def _stream_pair(rng: Rng) -> list[int]:
    return [rng.seed, rng.stream]


def build_sft_corpus(tasks: list, policies: list[PolicyHandle], rng: Rng,
                     trajectories_per_task: int = 15,
                     metas: list[dict] | None = None) -> list[dict]:
    """Demonstration corpus: K policy rollouts per task, encoded and bundled.

    Each record carries the (seed, stream) pair of every rollout generator, so
    the exact trajectories can be re-simulated for audit given the task and
    policy.
    """
    if len(tasks) != len(policies):
        raise ValueError("tasks and policies must align")
    records = []
    for i, (task, policy) in enumerate(zip(tasks, policies)):
        task_id = f"task_{i:04d}"
        task_rng = rng.split(i)
        encoded, streams = [], []
        for j in range(trajectories_per_task):
            roll_rng = task_rng.split(j)
            streams.append(_stream_pair(roll_rng))
            encoded.append(encode(rollout(task, policy, roll_rng, task_id=task_id).trajectory))
        records.append({
            "schema_version": SCHEMA_VERSION,
            "task_id": task_id,
            "context": _join_context(encoded),
            "trajectories": encoded,
            "rollout_streams": streams,
            "meta": (metas[i] if metas else {}),
        })
    return records


def build_dpt_dataset(tasks: list, oracles: list[PolicyHandle], rng: Rng,
                      records_per_task: int = 15,
                      context_trajectories: int = 2,
                      metas: list[dict] | None = None) -> list[dict]:
    """Query/label dataset: random-policy context, oracle action as the label.

    Each record pairs ``context_trajectories`` uniform-random rollouts (as
    (obs, action, next_obs, reward) tuples; next_obs is null on final steps)
    with one query drawn from an oracle rollout: a uniformly chosen period's
    observation, labeled with the oracle's action at that point.
    """
    if len(tasks) != len(oracles):
        raise ValueError("tasks and oracles must align")
    records = []
    for i, (task, oracle) in enumerate(zip(tasks, oracles)):
        task_id = f"task_{i:04d}"
        task_rng = rng.split(i)
        for j in range(records_per_task):
            rec_rng = task_rng.split(j)
            ctx_tuples, ctx_streams = [], []
            for k in range(context_trajectories):
                ctx_rng = rec_rng.split(k)
                ctx_streams.append(_stream_pair(ctx_rng))
                result = rollout(task, PolicyHandle.random(), ctx_rng, task_id=task_id)
                steps = result.trajectory.steps
                for s_idx, step in enumerate(steps):
                    nxt = steps[s_idx + 1].obs if s_idx + 1 < len(steps) else None
                    ctx_tuples.append([step.obs, step.action, nxt, step.reward])
            query_rng = rec_rng.split(context_trajectories)
            query_streams = _stream_pair(query_rng)
            result = rollout(task, oracle, query_rng, task_id=task_id)
            pick_rng = rec_rng.split(context_trajectories + 1)
            t_star = int(pick_rng.integers(1, len(result.trajectory) + 1))
            query_step = result.trajectory.steps[t_star - 1]
            records.append({
                "schema_version": SCHEMA_VERSION,
                "task_id": task_id,
                "record_index": j,
                "context": ctx_tuples,
                "context_streams": ctx_streams,
                "query_stream": query_streams,
                "query_step": t_star,
                "query_obs": query_step.obs,
                "label": query_step.action,
                "meta": (metas[i] if metas else {}),
            })
    return records


# ---------------------------------------------------------------------------
# files


def write_jsonl(path, records: list[dict]):
    """One sorted-key JSON object per line; stable bytes for fixed inputs."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def write_csv(rows: list[dict], columns, path):
    """Fixed-column CSV: None empty, bools 1/0, floats via repr for stable bytes."""
    def cell(val):
        if val is None:
            return ""
        if isinstance(val, bool):
            return "1" if val else "0"
        return repr(val) if isinstance(val, float) else str(val)

    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell(row[col]) for col in columns) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def corpus_manifest(records: list[dict], kind: str, seed: int,
                    extra: dict | None = None) -> dict:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "num_records": len(records),
        "seed": seed,
        "task_ids": sorted({r["task_id"] for r in records}),
    }
    if extra:
        manifest.update(extra)
    return manifest


def save_corpus(path, records: list[dict], manifest: dict):
    """JSONL records plus a sibling ``<name>.manifest.json``."""
    path = Path(path)
    write_jsonl(path, records)
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest_path
