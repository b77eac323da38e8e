"""One pass over a workload: timed operations, output checks, artifact digests.

An operation is one CLI command (``decisionlab.cli.main(argv)`` in process) or
one library call.  Only the call itself is timed; its output check runs
afterwards, outside the timed region.  An operation fails if it exits
non-zero, raises, or fails its check, and every failure is counted against
the number attempted.

Each operation's time is charged to a phase: ``setup`` (task generation),
``solve``, ``eval`` or a workload-specific one (``export``, ``queries``,
``wire_eval``, ``grid``, ``darkroom``, ``theory``, ``train``).
"""

from __future__ import annotations

import hashlib
import io
import statistics
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

FLOAT_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An operation's output is not what the program promises."""


@dataclass
class Command:
    """What one CLI command left behind."""

    rc: int
    stdout: str
    stderr: str
    out: Path


class Pass:
    """Runs one pass of a workload's operations and records what they did.

    ``expected`` maps ``"<step>.<key>"`` to the value recorded for this seed
    (or is None on a seed with no record); every value a check returns under
    a recorded key must match it, floats within ``FLOAT_TOLERANCE``.
    """

    def __init__(self, out: Path, expected: dict | None, tracer=None):
        self.out = out
        self.expected = expected
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.phase_of: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.values: dict[str, object] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._seen: dict[str, str] = {}
        self._own: dict[str, dict[str, str]] = {}

    def run(self, phase: str, step: str, fn, check=None):
        """Time ``fn()`` as one operation, then check what it returned.

        A step may run several times in a pass (the rounds of a workload);
        each run is a sample of the step's time.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.call(f"cli.{step}", fn, (), {})
            else:
                result = fn()
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
            self.failures.append(f"{step}: raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.samples[step].append(time.perf_counter() - start)
            self.phase_of[step] = phase
            if self.tracer is not None:
                self.tracer.settle()
        try:
            values = check(result) if check is not None else None
            self._compare(step, values or {})
        except CheckFailed as exc:
            self.failures.append(f"{step}: {exc}")
        return result

    def cli(self, phase: str, step: str, argv: list[str], check=None):
        """Run one ``decisionlab`` command in process and digest its outputs."""
        from decisionlab.cli import main

        out = Path(argv[argv.index("--out") + 1])

        def command() -> Command:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = main(argv)
            return Command(rc, stdout.getvalue(), stderr.getvalue(), out)

        def checked(cmd: Command):
            if cmd.rc != 0:
                raise CheckFailed(f"exit code {cmd.rc}: {cmd.stderr.strip()[-300:]}")
            self._digest_tree(step, out)
            return check(cmd) if check is not None else None

        return self.run(phase, step, command, checked)

    def artifact(self, name: str, data: bytes):
        """Digest an artifact that a library call returned instead of writing.

        A later run of the step in the same pass must return the same bytes.
        """
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            raise CheckFailed(f"rerun changed the bytes of {name}")

    def _digest_tree(self, step: str, out: Path):
        """Digest the files a step writes under ``out``, manifests excepted.

        Manifests carry a wall-clock timestamp, so they are the one artifact a
        rerun does not reproduce byte for byte.  The first run of a step owns
        every file it creates or changes; a later run of the step in the same
        pass must leave those files with the same bytes.
        """
        current = {}
        for path in sorted(out.rglob("*")):
            if path.is_file() and not path.name.endswith(".manifest.json"):
                rel = str(path.relative_to(self.out))
                current[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        if step in self._own:
            moved = sorted(rel for rel, digest in self._own[step].items()
                           if current.get(rel) != digest)
            if moved:
                raise CheckFailed(f"rerun changed the bytes of {', '.join(moved)}")
        else:
            self._own[step] = {rel: digest for rel, digest in current.items()
                               if self._seen.get(rel) != digest}
            for rel, digest in self._own[step].items():
                self.digests[f"{step}:{rel}"] = digest
        self._seen.update(current)

    def _compare(self, step: str, values: dict):
        wrong = []
        for key, value in values.items():
            name = f"{step}.{key}"
            self.values[name] = value
            if self.expected is None or name not in self.expected:
                continue
            if not same_value(value, self.expected[name]):
                wrong.append(f"{name} = {value!r}, recorded {self.expected[name]!r}")
        if wrong:
            raise CheckFailed("; ".join(wrong))



def same_value(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and abs(a - b) <= FLOAT_TOLERANCE)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    return a == b
