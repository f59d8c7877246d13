"""Seeded inputs, one operation (op) per workload, and the known answers.

An op's answer is fixed when its input is generated, never read back from
the program: every fifth library item is mutated (cycling through the four
scripted mutations) and must fail; every other item must pass.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The scripted mutations, in the order items cycle through them.  drop-bell
# swaps the pair for two fresh qubits, so its census has no ebit.
MUTATIONS = ("drop-bell", "drop-x-correction", "drop-z-correction", "drop-cgate")
FULL_CENSUS = {"ebits": 1, "a_to_b": 1, "b_to_a": 1}
NO_EBIT_CENSUS = {"ebits": 0, "a_to_b": 1, "b_to_a": 1}

TOL_PROBABILITY = 1e-12
TOL_INFIDELITY = 1e-10
TOL_CHOI = 1e-9

_S2 = 1 / math.sqrt(2)
# Named gates first in every k=1 pool, so the identity (which a dropped
# controlled gate would not change) sits at index 0 and is never mutated.
NAMED_GATES = {
    "I": [[1, 0], [0, 1]],
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "H": [[_S2, _S2], [_S2, -_S2]],
    "S": [[1, 0], [0, 1j]],
    "T": [[1, 0], [0, complex(_S2, _S2)]],
}


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian, phases fixed).

    The benchmark draws its own inputs so that they do not change when the
    program's random helpers do.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------- library


@dataclass(frozen=True)
class LibraryItem:
    spec: object  # telegate.NonlocalCUSpec
    mutation: str | None
    verdict: str
    census: dict


def library_items(tg, k: int, count: int, named: bool, rng) -> list[LibraryItem]:
    matrices = [np.array(m, dtype=complex) for m in NAMED_GATES.values()] if named else []
    while len(matrices) < count:
        matrices.append(haar_unitary(1 << k, rng))
    items = []
    for j, m in enumerate(matrices):
        mutation = MUTATIONS[(j // 5) % len(MUTATIONS)] if j % 5 == 4 else None
        spec = tg.NonlocalCUSpec(tg.qsim.UnitaryMatrix(m), k)
        items.append(
            LibraryItem(
                spec,
                mutation,
                "fail" if mutation else "pass",
                NO_EBIT_CENSUS if mutation == "drop-bell" else FULL_CENSUS,
            )
        )
    return items


def library_op(tg, item: LibraryItem, i: int) -> str:
    """One op: build, optionally mutate, specify, verify, serialize.

    Every call goes through a module attribute, so a traced run sees it.
    """
    program = tg.builder.build_program(item.spec)
    if item.mutation:
        program = tg.builder.apply_mutation(program, item.mutation)
    u_spec = tg.builder.build_specification(item.spec)
    return tg.verifier.verify_program(program, u_spec, seed=i).to_json()


def check_report(text: str, verdict: str, census: dict) -> str | None:
    """The problem with one JSON report, or None if it is right."""
    doc = json.loads(text)
    if doc["verdict"] != verdict:
        return f"verdict {doc['verdict']!r}, expected {verdict!r}"
    if doc["census"] != census:
        return f"census {doc['census']}, expected {census}"
    if verdict == "fail":
        return None
    branches = doc["branches"]
    if len(branches) != 4:
        return f"{len(branches)} branches, expected 4"
    for b in branches:
        if abs(b["probability"] - 0.25) > TOL_PROBABILITY:
            return f"branch {b['transcript']} has probability {b['probability']!r}"
        if b["max_infidelity"] > TOL_INFIDELITY:
            return f"branch {b['transcript']} has infidelity {b['max_infidelity']!r}"
    if doc["choi_distance"] > TOL_CHOI:
        return f"choi distance {doc['choi_distance']!r}"
    return None


# -------------------------------------------------------------------- cli


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[CliResult], str | None]
    is_report: bool = False  # stdout is a JSON verify report


def cli_env() -> dict:
    """``PYTHONPATH=src``, with the bytecode cache on whatever the caller's
    environment says, so that every run after the first reads it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return {**env, "PYTHONPATH": "src"}


def run_cli(root: Path, argv: tuple[str, ...]) -> CliResult:
    """One ``python -m telegate.cli`` run from ``root``."""
    proc = subprocess.run(
        [sys.executable, "-m", "telegate.cli", *argv],
        cwd=root,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _human_verdict(verdict: str):
    def check(r: CliResult) -> str | None:
        lines = r.stdout.strip().splitlines()
        want = f"verdict: {verdict.upper()}"
        return None if lines and lines[-1] == want else f"last line is not {want!r}"

    return check


def _json_report(verdict: str, census: dict = FULL_CENSUS):
    return lambda r: check_report(r.stdout, verdict, census)


def _trace_json(r: CliResult) -> str | None:
    branches = json.loads(r.stdout)["branches"]
    if len(branches) != 4:
        return f"trace lists {len(branches)} branches, expected 4"
    for b in branches:
        if b["fidelity"] < 1 - TOL_INFIDELITY or abs(b["probability"] - 0.25) > TOL_PROBABILITY:
            return f"trace branch {b['transcript']} is not at fidelity 1 and p=0.25"
    return None


def _trace_human(r: CliResult) -> str | None:
    lines = r.stdout.splitlines()
    if len(lines) != 7 or not lines[1].endswith("4 branch(es):"):
        return "trace table does not list 4 branches"
    if any(row.split()[2] != "1.000000" for row in lines[3:]):
        return "trace table has a branch below fidelity 1"
    return None


def _resources_json(r: CliResult) -> str | None:
    doc = json.loads(r.stdout)
    return None if doc == FULL_CENSUS else f"census {doc}, expected {FULL_CENSUS}"


def _stdout_is(text: str):
    return lambda r: None if r.stdout == text else f"stdout {r.stdout[:80]!r}, expected {text!r}"


def _usage_error(r: CliResult) -> str | None:
    if r.stdout or not r.stderr.startswith("error:") or "Traceback" in r.stderr:
        return "expected one 'error:' line on stderr and nothing on stdout"
    return None


def _choi_csv(dim: int):
    def check(r: CliResult) -> str | None:
        rows = r.stdout.splitlines()
        if len(rows) != dim:
            return f"choi printed {len(rows)} rows, expected {dim}"
        if any(row.count(",") != 2 * dim - 1 for row in rows):
            return f"choi row does not hold {dim} re,im pairs"
        trace = sum(float(row.split(",")[2 * i]) for i, row in enumerate(rows))
        return None if abs(trace - 1) < 1e-9 else f"choi trace {trace!r}"

    return check


def _choi_json(dim: int):
    def check(r: CliResult) -> str | None:
        doc = json.loads(r.stdout)
        if doc["dim"] != dim or len(doc["entries"]) != dim:
            return f"choi json has dim {doc['dim']}, expected {dim}"
        trace = sum(doc["entries"][i][i][0] for i in range(dim))
        return None if abs(trace - 1) < 1e-9 else f"choi trace {trace!r}"

    return check


CNOT = "[[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]]"


def cli_commands(root: Path, rng) -> list[Command]:
    """The round-robin command list.  Angles and probe seeds come from
    ``rng``; the commands, their order and their answers are fixed."""
    a, b, c, d = (f"{x:.6f}" for x in rng.uniform(-math.pi, math.pi, size=4))
    seed = str(int(rng.integers(0, 2**31)))
    cnot_file = str(root / "demos" / "nonlocal_cnot.tg")
    bad_file = str(root / "demos" / "bad_crossparty.tg")
    return [
        Command(("verify", "--gate", f"RZ({a})"), 0, _human_verdict("pass")),
        Command(("verify", "--gate", f"(H*S')x RX({b})", "--format", "json", "--seed", seed),
                0, _json_report("pass"), True),
        Command(("trace", "--gate", "H", "--input", "10", "--format", "json"), 0, _trace_json),
        Command(("verify", "--gate", "[[0,1],[1,0]]*T'", "--format", "json"), 0,
                _json_report("pass"), True),
        Command(("resources", "--gate", "H", "--format", "json"), 0, _resources_json),
        Command(("verify", "--gate", "X", "--mutate", "drop-z-correction"), 1,
                _human_verdict("fail")),
        Command(("choi", "--gate", "X"), 0, _choi_csv(16)),
        Command(("verify", "--gate", f"PHASE({c}) x (Y*RY({d}))'"), 0, _human_verdict("pass")),
        Command(("lint", cnot_file), 0, _stdout_is("ok\n")),
        Command(("verify", "--gate", f"RX({a})", "--mutate", "drop-bell", "--format", "json"), 1,
                _json_report("fail", NO_EBIT_CENSUS), True),
        Command(("verify", "--file", cnot_file, "--against", CNOT, "--format", "json"), 0,
                _json_report("pass"), True),
        Command(("choi", "--gate", "H x S", "--format", "json"), 0, _choi_json(64)),
        Command(("verify", "--gate", f"RX({b}"), 2, _usage_error),
        Command(("trace", "--gate", f"RY({c})", "--input", "01"), 0, _trace_human),
        Command(("lint", bad_file), 1, lambda r: None if r.stdout.endswith("1 violation(s)\n")
                else "lint did not report exactly one violation"),
        Command(("choi", "--gate", f"RZ({d}) x X x H"), 0, _choi_csv(256)),
        Command(("verify", "--gate", "H *"), 2, _usage_error),
    ]


def check_cli(command: Command, result: CliResult) -> str | None:
    if result.code != command.exit_code:
        return f"exit {result.code}, expected {command.exit_code}: {result.stderr[-200:]!r}"
    return command.check(result)
