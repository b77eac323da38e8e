"""Trajectory codec strictness and corpus builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisionlab import dataset
from decisionlab.core import Rng, Trajectory
from decisionlab.dataset import (
    ParseError,
    build_context,
    build_dpt_dataset,
    build_sft_corpus,
    corpus_manifest,
    decode,
    encode,
    read_jsonl,
    save_corpus,
    write_csv,
    write_jsonl,
)
from decisionlab.rollout import InvalidAction, PolicyHandle
from decisionlab.solvers import solve_mdp

from conftest import reference_rollout, tiny_energy_mdp, tiny_energy_pomdp


def make_traj(steps):
    t = Trajectory("t")
    for obs, action, reward in steps:
        t.append(obs, action, reward)
    return t


# ---------------------------------------------------------------------------
# encoding


def test_encode_golden_line():
    traj = make_traj([(3, 1, 1 / 3), (0, 2, -0.02)])
    assert encode(traj) == "<O_1> 3, <A_1> 1, <R_1> 0.33, <O_2> 0, <A_2> 2, <R_2> -0.02"


def test_encode_empty_trajectory():
    assert encode(Trajectory("t")) == ""
    assert len(decode("")) == 0


def test_encode_rounds_rewards_to_two_decimals():
    traj = make_traj([(0, 0, 0.005), (1, 1, 1.0)])
    assert encode(traj) == "<O_1> 0, <A_1> 0, <R_1> 0.01, <O_2> 1, <A_2> 1, <R_2> 1.00"


def test_decode_inverts_encode():
    traj = make_traj([(7, 0, 0.25), (3, 2, -1.5), (0, 1, 0.0)])
    got = decode(encode(traj))
    assert [s.obs for s in got.steps] == [7, 3, 0]
    assert [s.action for s in got.steps] == [0, 2, 1]
    assert [s.reward for s in got.steps] == [0.25, -1.5, 0.0]


@pytest.mark.parametrize("text,offset", [
    ("<O_0> 1, <A_0> 1, <R_0> 0.00", 0),          # 0-based tags
    ("<O_1> 1 <A_1> 1, <R_1> 0.00", 7),            # missing comma
    ("<O_1> 01, <A_1> 1, <R_1> 0.00", 7),          # leading zero
    ("<O_1> 1, <A_1> 1, <R_1> 0.0", 24),           # one decimal
    ("<O_1> 1, <A_1> 1, <R_1> 0.000", 28),         # three decimals leave residue
    ("<O_1> 1, <A_1> 1, <R_1> 0.00, ", 30),        # trailing separator
    ("<O_1> 1, <A_1> 1, <R_1> 0.00, <O_3> 1, <A_3> 1, <R_3> 0.00", 30),  # skipped tag
    ("<O_1> 1, <A_1> 1, <R_1> +0.00", 24),         # explicit plus sign
    ("<O_1> -1, <A_1> 1, <R_1> 0.00", 6),          # negative observation
    ("<O_1>  1, <A_1> 1, <R_1> 0.00", 6),          # double space
    ("junk", 0),
])
def test_decode_rejects_with_byte_offset(text, offset):
    with pytest.raises(ParseError) as err:
        decode(text)
    assert err.value.offset == offset


def test_decode_accepts_multi_digit_fields():
    text = "<O_1> 42, <A_1> 10, <R_1> 12.50"
    traj = decode(text)
    assert traj.steps[0] == (42, 10, 12.5)
    assert encode(traj) == text


@settings(max_examples=120, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 999), st.integers(0, 99),
              st.floats(-100, 100, allow_nan=False)),
    min_size=0, max_size=12))
def test_codec_roundtrip_and_reencode_identity(steps):
    traj = make_traj(steps)
    text = encode(traj)
    back = decode(text, task_id="t")
    # rewards come back rounded to the codec's two decimals
    for orig, rec in zip(traj.steps, back.steps):
        assert rec.obs == orig.obs and rec.action == orig.action
        assert rec.reward == float(f"{orig.reward:.2f}")
    # accepted strings re-encode byte-identically
    assert encode(back) == text


@st.composite
def _near_encodings(draw):
    """A text built from the codec's grammar, then possibly edited at one place."""
    steps = draw(st.lists(st.tuples(
        st.integers(0, 10**6), st.integers(0, 99),
        st.from_regex(r"-?(0|[1-9][0-9]{0,20})\.[0-9][0-9]", fullmatch=True)), max_size=4))
    text = ", ".join(f"<O_{i}> {o}, <A_{i}> {a}, <R_{i}> {r}"
                     for i, (o, a, r) in enumerate(steps, start=1))
    edit = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if edit == "none" or (edit != "insert" and not text):
        return text
    at = draw(st.integers(0, len(text) - (edit != "insert")))
    char = draw(st.sampled_from("0123456789-., <>_OAR\n"))
    tail = text[at + (edit != "insert"):]
    return text[:at] + ("" if edit == "delete" else char) + tail


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), _near_encodings()))
def test_decode_fuzz_rejects_with_offset_or_reencodes(text):
    try:
        traj = decode(text)
    except ParseError as err:
        assert 0 <= err.offset <= len(text)
    else:
        assert encode(traj) == text


def test_build_context_blocks():
    t1 = make_traj([(1, 0, 0.5)])
    t2 = make_traj([(2, 1, 0.0)])
    ctx = build_context([t1, t2])
    # step tags restart inside each block; only the TRAJ counter advances
    assert ctx == ("TRAJ 1: <O_1> 1, <A_1> 0, <R_1> 0.50\n"
                   "TRAJ 2: <O_1> 2, <A_1> 1, <R_1> 0.00")


# ---------------------------------------------------------------------------
# SFT corpus


def test_sft_corpus_replayable_from_recorded_streams():
    tasks = [tiny_energy_mdp(p=0.7, horizon=4), tiny_energy_mdp(p=0.9, horizon=4)]
    policies = [PolicyHandle.oracle(solve_mdp(t)) for t in tasks]
    records = build_sft_corpus(tasks, policies, Rng(31), trajectories_per_task=3)
    assert len(records) == 2
    for task, policy, rec in zip(tasks, policies, records):
        assert len(rec["trajectories"]) == 3
        assert rec["context"].startswith("TRAJ 1: ")
        # audit: re-simulate every rollout from its recorded (seed, stream)
        for (seed, stream), text in zip(rec["rollout_streams"], rec["trajectories"]):
            replay = reference_rollout(task, policy, Rng(seed, stream), task_id=rec["task_id"])
            assert encode(replay.trajectory) == text
        # context blocks are exactly the recorded trajectories
        lines = rec["context"].split("\n")
        assert [ln.split(": ", 1)[1] for ln in lines] == rec["trajectories"]


def test_sft_corpus_deterministic_and_distinct_across_tasks():
    tasks = [tiny_energy_mdp(horizon=3)] * 2
    policies = [PolicyHandle.random()] * 2
    a = build_sft_corpus(tasks, policies, Rng(5), trajectories_per_task=2)
    b = build_sft_corpus(tasks, policies, Rng(5), trajectories_per_task=2)
    assert a == b
    # same task, different per-task streams: different data
    assert a[0]["trajectories"] != a[1]["trajectories"]


def test_sft_corpus_encodes_each_trajectory_once(monkeypatch):
    tasks = [tiny_energy_mdp(p=0.6 + 0.03 * i, horizon=4) for i in range(10)]
    policies = [PolicyHandle.random()] * 10
    expected = build_sft_corpus(tasks, policies, Rng(8), trajectories_per_task=3)
    calls = []
    monkeypatch.setattr(dataset, "encode",
                        lambda traj, _encode=dataset.encode:
                        calls.append(traj.task_id) or _encode(traj))
    records = build_sft_corpus(tasks, policies, Rng(8), trajectories_per_task=3)
    assert records == expected
    assert calls == [f"task_{i:04d}" for i in range(10) for _ in range(3)]
    # the context is build_context's text of the same trajectories
    replays = [reference_rollout(tasks[0], policies[0], Rng(seed, stream), task_id="task_0000")
               for seed, stream in records[0]["rollout_streams"]]
    assert records[0]["context"] == build_context([r.trajectory for r in replays])


def test_sft_corpus_of_zero_trajectories_has_empty_contexts():
    tasks = [tiny_energy_mdp(horizon=3), tiny_energy_mdp(p=0.6, horizon=3)]
    records = build_sft_corpus(tasks, [PolicyHandle.random()] * 2, Rng(2),
                               trajectories_per_task=0)
    assert [rec["task_id"] for rec in records] == ["task_0000", "task_0001"]
    for rec in records:
        assert rec["context"] == "" and rec["trajectories"] == []
        assert rec["rollout_streams"] == []


class ScriptedClient:
    """Stands in for an external policy: records each request and answers
    from its period and observation, now and then with an invalid action."""

    def __init__(self):
        self.requests = []

    def query(self, request, num_actions):
        self.requests.append(request)
        action = (request["step"] + request["current_obs"]) % (num_actions + 1)
        if action == num_actions:
            raise InvalidAction(f"action {action} outside range 0..{num_actions - 1}")
        return action


def test_sft_corpus_of_an_external_policy_asks_in_episode_order():
    tasks = [tiny_energy_mdp(p=0.6, horizon=4), tiny_energy_pomdp(horizon=4)]
    contexts = ["TRAJ 1: <O_1> 0, <A_1> 0, <R_1> 0.00", ""]
    client = ScriptedClient()
    records = build_sft_corpus(tasks, [PolicyHandle.external(client, c) for c in contexts],
                               Rng(9), trajectories_per_task=3)
    assert [(r["task_id"], r["step"]) for r in client.requests] == [
        (f"task_{i:04d}", t) for i in range(2) for _ in range(3) for t in range(1, 5)]
    # one episode at a time, in record order: the requests and trajectories
    # of a replay of every recorded stream, one period at a time
    replay_client, invalid = ScriptedClient(), 0
    for task, context, rec in zip(tasks, contexts, records):
        handle = PolicyHandle.external(replay_client, context)
        for (seed, stream), text in zip(rec["rollout_streams"], rec["trajectories"]):
            replay = reference_rollout(task, handle, Rng(seed, stream), task_id=rec["task_id"])
            assert encode(replay.trajectory) == text
            invalid += replay.invalid_actions
    assert client.requests == replay_client.requests
    assert invalid > 0


def test_sft_corpus_validates_alignment():
    with pytest.raises(ValueError):
        build_sft_corpus([tiny_energy_mdp()], [], Rng(0))


# ---------------------------------------------------------------------------
# DPT records


def test_dpt_records_label_is_oracle_action_at_query():
    task = tiny_energy_mdp(p=0.8, horizon=5)
    sol = solve_mdp(task)
    records = build_dpt_dataset([task], [PolicyHandle.oracle(sol)], Rng(41),
                                records_per_task=6, context_trajectories=2)
    assert len(records) == 6
    for rec in records:
        # replay the oracle rollout and check the stored query/label pair
        seed, stream = rec["query_stream"]
        replay = reference_rollout(task, PolicyHandle.oracle(sol), Rng(seed, stream))
        step = replay.trajectory.steps[rec["query_step"] - 1]
        assert rec["query_obs"] == step.obs
        assert rec["label"] == step.action
        # the label is the optimal action for the queried state and period
        assert rec["label"] == sol.action(rec["query_step"], rec["query_obs"])


def test_dpt_context_tuples_chain_within_trajectories():
    task = tiny_energy_mdp(horizon=4)
    sol = solve_mdp(task)
    records = build_dpt_dataset([task], [PolicyHandle.oracle(sol)], Rng(43),
                                records_per_task=2, context_trajectories=2)
    for rec in records:
        tuples = rec["context"]
        assert len(tuples) == 2 * task.horizon
        for k in range(2):
            block = tuples[k * task.horizon:(k + 1) * task.horizon]
            assert block[-1][2] is None  # final step has no successor
            for row, nxt in zip(block, block[1:]):
                assert row[2] == nxt[0]
        # context is replayable from its recorded streams
        for k, (seed, stream) in enumerate(rec["context_streams"]):
            replay = reference_rollout(task, PolicyHandle.random(), Rng(seed, stream))
            block = tuples[k * task.horizon:(k + 1) * task.horizon]
            assert [r[0] for r in block] == [s.obs for s in replay.trajectory.steps]
            assert [r[1] for r in block] == [s.action for s in replay.trajectory.steps]


def test_dpt_records_without_context_trajectories_have_empty_contexts():
    task = tiny_energy_mdp(horizon=4)
    sol = solve_mdp(task)
    records = build_dpt_dataset([task], [PolicyHandle.oracle(sol)], Rng(44),
                                records_per_task=3, context_trajectories=0)
    assert len(records) == 3
    for rec in records:
        assert rec["context"] == [] and rec["context_streams"] == []
        # the query episode runs on the first split, the pick on the second
        rec_rng = Rng(44).split(0).split(rec["record_index"])
        assert rec["query_stream"] == [rec_rng.seed, rec_rng.split(0).stream]
        replay = reference_rollout(task, PolicyHandle.oracle(sol), rec_rng.split(0))
        t_star = int(rec_rng.split(1).integers(1, task.horizon + 1))
        assert rec["query_step"] == t_star
        assert rec["query_obs"] == replay.trajectory.steps[t_star - 1].obs
        assert rec["label"] == replay.trajectory.steps[t_star - 1].action


def test_dpt_query_period_spans_horizon():
    task = tiny_energy_mdp(horizon=5)
    sol = solve_mdp(task)
    records = build_dpt_dataset([task], [PolicyHandle.oracle(sol)], Rng(47),
                                records_per_task=60, context_trajectories=1)
    picked = {rec["query_step"] for rec in records}
    assert picked == {1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# files


def test_jsonl_roundtrip_and_byte_stability(tmp_path):
    records = [{"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": None}},
               {"b": 2, "a": [], "c": {}}]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(p1, records)
    write_jsonl(p2, records)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_jsonl(p1) == records
    # keys are sorted, separators compact
    assert p1.read_text().splitlines()[0].startswith('{"a":[1,2],"b":1,')


def test_write_csv_cell_rules(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [{"a": None, "b": True, "c": 0.1, "d": 3, "e": "x", "unused": 1},
            {"a": 1.0, "b": False, "c": 1e-20, "d": -2, "e": ""}]
    write_csv(rows, ("e", "a", "b", "c", "d"), path)
    assert path.read_text() == "e,a,b,c,d\nx,,1,0.1,3\n,1.0,0,1e-20,-2\n"


def test_save_corpus_writes_manifest(tmp_path):
    task = tiny_energy_mdp(horizon=3)
    records = build_sft_corpus([task], [PolicyHandle.random()], Rng(3),
                               trajectories_per_task=2)
    manifest = corpus_manifest(records, kind="sft", seed=3)
    out = tmp_path / "corpus.jsonl"
    mpath = save_corpus(out, records, manifest)
    assert mpath.name == "corpus.jsonl.manifest.json"
    assert read_jsonl(out) == records
    loaded = __import__("json").loads(mpath.read_text())
    assert loaded["kind"] == "sft"
    assert loaded["num_records"] == 1
    assert loaded["task_ids"] == ["task_0000"]
