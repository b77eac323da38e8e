"""README drift guard: the quick start prints what its comments show, and
the config reference equals ``DEFAULT_CONFIG``."""

import contextlib
import io
import json
import re
from pathlib import Path

from decisionlab.cli import DEFAULT_CONFIG

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


def test_config_reference_equals_default_config():
    documented = json.loads(_block("The config is a JSON object", "json"))
    assert documented.pop("setting") == "mdp | pomdp | apomdp | darkroom"
    assert documented == {k: v for k, v in DEFAULT_CONFIG.items() if k != "setting"}
