"""The cases behind ``tests/data/golden_traces.json``.

Each case is one ``telegate trace --file`` call on one computational-basis
input.  The program is a Haar-random controlled gate at k = 1, 2, 3 (three
gates per k, every one intact and under each mutation), written out by
``format_program`` with its gates as exact matrix literals, and traced
``--against`` the literal of its specification, in both formats.  The
outputs were recorded when ``trace`` still normalized each branch into a
``StateVector`` and scored it with a fidelity formula of its own;
``test_trace_golden.py`` requires today's to match them (human text byte
for byte, JSON floats within rounding).

Rewrite the fixture only when a trace is meant to change::

    PYTHONPATH=src python tests/trace_cases.py tests/data/golden_traces.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from telegate import gatelang, qsim
from telegate.builder import (
    MUTATIONS,
    NonlocalCUSpec,
    apply_mutation,
    build_program,
    build_specification,
)
from telegate.cli import main
from telegate.protocol import format_program

# Stands for the program file's path in the recorded human text.
PATH_MARK = "PROGRAM"


def programs():
    """Yield ``(name, program text, --against text, n_external)``."""
    for k in (1, 2, 3):
        rng = np.random.default_rng(10 + k)
        for j in range(3):
            spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, rng), k)
            against = gatelang.format_matrix(build_specification(spec))
            for m in (None,) + MUTATIONS:
                program = build_program(spec)
                if m:
                    program = apply_mutation(program, m)
                yield f"k{k}/{j}/{m or 'intact'}", format_program(program), against, k + 1


def trace(text: str, against: str, label: str, fmt: str) -> str:
    """stdout of ``telegate trace`` on the program ``text``, with the
    program's path replaced by :data:`PATH_MARK`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.tg"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["trace", "--file", str(path), "--against", against,
                       "--input", label, "--format", fmt])
        if rc != 0:
            raise RuntimeError(f"trace exited {rc}")
        return out.getvalue().replace(str(path), PATH_MARK)


def labels(n: int) -> list[str]:
    """Every basis label on ``n`` wires, in index order."""
    return [format(i, f"0{n}b") for i in range(1 << n)]


def record(text: str, against: str, n: int) -> dict:
    """``{label: {"human": text, "json": document}}`` for every basis input."""
    return {
        label: {"human": trace(text, against, label, "human"),
                "json": json.loads(trace(text, against, label, "json"))}
        for label in labels(n)
    }


def write_fixture(docs: dict, path: str) -> None:
    """One program per line, so a changed trace shows as one changed line."""
    lines = [f"{json.dumps(name)}: {json.dumps(doc, sort_keys=True)}" for name, doc in docs.items()]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_fixture({name: record(*case) for name, *case in programs()}, sys.argv[1])
