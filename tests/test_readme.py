"""README drift guard: the quick start prints what its comments show, every
command line parses, the config reference equals ``DEFAULT_CONFIG``, and the
corpus and wire examples have the keys of real records and requests."""

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

from decisionlab.cli import DEFAULT_CONFIG, build_parser
from decisionlab.core import Rng
from decisionlab.dataset import build_dpt_dataset, build_sft_corpus
from decisionlab.evaluation import reference_policy
from decisionlab.rollout import ExternalPolicyClient, PolicyHandle, rollout

from conftest import tiny_energy_mdp

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block that follows the text ``after``."""
    start = README.index(after)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def test_quick_start_prints_what_its_comments_show():
    code = _block("## Quick start", "python")
    shown = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(shown) == 2
    assert printed[0] == shown[0]
    assert shown[1].endswith(", ...")
    assert printed[1].startswith(shown[1].removesuffix("..."))


def test_quick_start_gap_builds_its_pinned_lazy_nodes():
    # the quick start's optimality_gap queries its oracles mostly off their
    # solved trees; the nodes it builds there depend only on the beliefs
    # queried, not on how the lazy cache holds them
    code = _block("## Quick start", "python")
    setup, _, rest = code.partition("report = ")
    scope = {}
    exec(compile(setup, "README quick start", "exec"), scope)
    solutions = [oracle.solution for oracle in scope["oracles"]]
    before = sum(sol.node_count for sol in solutions)
    exec(compile("report = " + rest.partition("\nprint(")[0], "README quick start", "exec"),
         scope)
    assert sum(sol.node_count for sol in solutions) - before == 31_018


def test_every_command_line_parses():
    lines = [line for line in _block("## Command line", "bash").splitlines()
             if line.startswith("decisionlab ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:  # the parser's usage error, already printed
            raise AssertionError(f"README command does not parse: {line}") from None


def test_config_reference_equals_default_config():
    documented = json.loads(_block("The config is a JSON object", "json"))
    assert documented.pop("setting") == "mdp | pomdp | apomdp | darkroom"
    assert documented == {k: v for k, v in DEFAULT_CONFIG.items() if k != "setting"}


def test_corpus_examples_have_the_keys_of_real_records():
    tasks = [tiny_energy_mdp()]
    oracles = [reference_policy(tasks[0])[0]]
    sft = build_sft_corpus(tasks, oracles, Rng(0), trajectories_per_task=2)[0]
    dpt = build_dpt_dataset(tasks, oracles, Rng(0), records_per_task=1,
                            context_trajectories=2)[0]
    assert set(json.loads(_block("`build_sft_corpus(", "json"))) == set(sft)
    assert set(json.loads(_block("`build_dpt_dataset(", "json"))) == set(dpt)


# Writes every request line to the file named by its argument; always acts 0.
RECORDING_POLICY = """\
import json, sys
with open(sys.argv[1], "w") as log:
    for line in sys.stdin:
        log.write(line)
        log.flush()
        print(json.dumps({"action": 0}), flush=True)
"""


def test_wire_example_has_the_keys_of_a_real_request(tmp_path):
    script, log = tmp_path / "policy.py", tmp_path / "requests.jsonl"
    script.write_text(RECORDING_POLICY)
    argv = [sys.executable, str(script), str(log)]
    with ExternalPolicyClient.child_process(argv, timeout=30.0) as client:
        rollout(tiny_energy_mdp(horizon=2), PolicyHandle.external(client), Rng(0))
    request = json.loads(log.read_text().splitlines()[-1])  # one step of history
    # the block is not JSON ("→", "...", "←"); read its keys by pattern
    shown = _block("**External policies.**", "json").split("←")[0]
    history = re.search(r"\[(\{.*?\})", shown, re.S).group(1)
    top = re.sub(r"\[.*?\]", "[]", shown, flags=re.S)
    assert re.findall(r'"(\w+)":', top) == list(request)
    assert re.findall(r'"(\w+)":', history) == list(request["history"][0])
