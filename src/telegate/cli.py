"""Command-line front end.

Five subcommands: ``verify`` certifies the two-party program against the
monolithic controlled gate; ``trace`` prints the branch table for one
basis input; ``choi`` dumps a program's channel as a Choi matrix;
``resources`` prints the entanglement/communication census; ``lint``
validates a program file.

Exit codes: 0 success (verify: verdict pass), 1 verification failed or
lint violations found, 2 usage, parse or input errors, 141 the reader
closed the output pipe (128 + SIGPIPE, what a shell shows for a tool
that SIGPIPE killed; nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import gatelang, qsim
from .builder import MUTATIONS, NonlocalCUSpec, apply_mutation, build_program, build_specification
from .executor import ExecutionError, channel_choi, check_register, dense, kraus_form, transcript_key
from .executor import _check_locality
from .protocol import Program, parse_program, resource_census, validate_locality
from .qsim import UnitaryMatrix
from .verifier import (
    DEFAULT_PROBES,
    DEFAULT_SEED,
    DEFAULT_TOL_BRANCH,
    DEFAULT_TOL_CHOI,
    _census_fields,
    basis_evidence,
    check_specification,
    verify_program,
)

_PHASE_HEADERS = {
    1: "① entanglement distribution",
    2: "② interaction and forward message",
    3: "③ measurement and return message",
    None: "unphased",
}


def _add_source_args(sub: argparse.ArgumentParser, with_against: bool = True) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--gate", metavar="EXPR", help="gate expression for the unitary to control")
    src.add_argument("--file", metavar="PATH", help="program file to load instead of building one")
    if with_against:
        sub.add_argument(
            "--against",
            metavar="EXPR",
            help="specification unitary for --file input (gate expression on all external wires)",
        )


def _tolerance(text: str) -> float:
    """A tolerance: a finite, non-negative number.  NaN would fail every
    comparison and infinity would pass every program."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _count(text: str) -> int:
    """An integer >= 0: a probe count (the basis is always probed) or a
    seed (numpy refuses negative seeds)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telegate",
        description="Build, execute and certify two-party gate-teleportation programs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser(
        "verify", help="certify program = specification and print the report"
    )
    _add_source_args(p_verify)
    p_verify.add_argument("--tol-branch", type=_tolerance, default=DEFAULT_TOL_BRANCH,
                          help="per-branch infidelity tolerance (default %(default)g)")
    p_verify.add_argument("--tol-choi", type=_tolerance, default=DEFAULT_TOL_CHOI,
                          help="Choi Frobenius distance tolerance (default %(default)g)")
    p_verify.add_argument("--probes", type=_count, default=DEFAULT_PROBES,
                          help="number of probe inputs incl. the basis (default %(default)s)")
    p_verify.add_argument("--seed", type=_count, default=DEFAULT_SEED,
                          help="seed for the random probes (default %(default)s)")
    p_verify.add_argument("--mutate", choices=MUTATIONS,
                          help="damage the program first (soundness test harness); "
                               "drop-bell swaps the pair for two fresh |0> qubits")
    p_verify.add_argument("--format", choices=("human", "json"), default="human")
    p_verify.set_defaults(func=_cmd_verify)

    p_trace = subs.add_parser("trace", help="print the branch table for one basis input")
    _add_source_args(p_trace)
    p_trace.add_argument("--input", required=True, metavar="BITS",
                         help="basis label over the external wires, e.g. 10")
    p_trace.add_argument("--format", choices=("human", "json"), default="human")
    p_trace.set_defaults(func=_cmd_trace)

    p_choi = subs.add_parser("choi", help="dump the program channel's Choi matrix")
    _add_source_args(p_choi, with_against=False)
    p_choi.add_argument("--format", choices=("human", "json"), default="human",
                        help="human = CSV, row-major re,im pairs")
    p_choi.set_defaults(func=_cmd_choi)

    p_res = subs.add_parser("resources", help="print the ebit/bit census")
    _add_source_args(p_res, with_against=False)
    p_res.add_argument("--format", choices=("human", "json"), default="human")
    p_res.set_defaults(func=_cmd_resources)

    p_lint = subs.add_parser("lint", help="validate a program file")
    p_lint.add_argument("file", metavar="FILE", help="program file to check")
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def _evaluate_gate(text: str) -> UnitaryMatrix:
    return gatelang.evaluate(gatelang.parse(text))


def _load(args, need_spec: bool) -> tuple[Program, UnitaryMatrix | None, str]:
    """Resolve the (program, specification unitary, description) triple."""
    if args.gate is not None:
        c = _evaluate_gate(args.gate)
        spec = NonlocalCUSpec.for_gate(c)
        return build_program(spec, gate_label=args.gate.strip()), build_specification(spec), args.gate
    text = Path(args.file).read_text()
    program = parse_program(text)
    u_spec = None
    if getattr(args, "against", None):
        u_spec = _evaluate_gate(args.against)
        check_specification(program, u_spec)
    if need_spec and u_spec is None:
        raise ValueError("--against is required when verifying or tracing a --file program")
    return program, u_spec, args.file


def _cmd_verify(args) -> int:
    program, u_spec, desc = _load(args, need_spec=True)
    if args.mutate:
        program = apply_mutation(program, args.mutate)
    report = verify_program(
        program, u_spec, args.tol_branch, args.tol_choi, args.probes, args.seed
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"source: {desc}" + (f"  [mutated: {args.mutate}]" if args.mutate else ""))
        _print_program(program)
        c = report.census
        print(f"census: ebits={c.ebits}  A->B bits={c.bits_alice_to_bob}  "
              f"B->A bits={c.bits_bob_to_alice}")
        print("branches (probability, worst infidelity over probes):")
        for b in report.branches:
            print(f"  {b.transcript:<16} p={b.probability:<8.4f} max_infid={b.max_infidelity:.3e}")
        print(f"choi distance: {report.choi_dist:.3e}  (tolerance {args.tol_choi:g})")
        print(f"branch tolerance: {args.tol_branch:g}")
        print(f"verdict: {report.verdict.upper()}")
    return 0 if report.passed else 1


def _print_program(program: Program) -> None:
    from .protocol import format_instruction

    print(f"program ({len(program.instructions)} instructions):")
    current = object()
    for i, (ins, tag) in enumerate(zip(program.instructions, program.phases), start=1):
        if tag != current:
            print(f"  {_PHASE_HEADERS[tag]}")
            current = tag
        print(f"    {i:>2}  {format_instruction(ins)}")


def _fmt_state(amplitudes: np.ndarray) -> str:
    n = amplitudes.size.bit_length() - 1
    terms = []
    for idx, amp in enumerate(amplitudes):
        if abs(amp) < 1e-12:
            continue
        bits = format(idx, f"0{n}b") if n else ""
        terms.append(f"({amp.real:+.6f}{amp.imag:+.6f}i)|{bits}>")
    return " + ".join(terms) if terms else "0"


def _cmd_trace(args) -> int:
    program, u_spec, desc = _load(args, need_spec=True)
    label = args.input
    if len(label) != program.n_external or any(b not in "01" for b in label):
        raise ValueError(
            f"input label must be {program.n_external} bits for this program, got {label!r}"
        )
    # Basis input j's branch outputs are column j of the Kraus operators.
    # Its evidence is read from the evidence over the whole basis, as
    # verify computes it: numpy sums a one-column block in another order,
    # which can move the last bits.
    j = int(label or "0", 2)
    form = kraus_form(program)
    prob, seen, fid = basis_evidence(form, u_spec)
    ops = dense(form)
    rows = [
        (transcript_key(transcript), float(prob[t, j]), float(fid[t, j]),
         ops[t, :, j] / math.sqrt(prob[t, j]))
        for t, transcript in enumerate(form.transcripts)
        if seen[t, j]
    ]
    if args.format == "json":
        doc = {
            "input": label,
            "branches": [
                {
                    "transcript": key,
                    "probability": p,
                    "fidelity": f,
                    "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
                }
                for key, p, f, amps in rows
            ],
        }
        print(json.dumps(doc, sort_keys=True, separators=(", ", ": ")))
    else:
        print(f"source: {desc}")
        print(f"input |{label}>, {len(rows)} branch(es):")
        print(f"  {'transcript':<16} {'probability':<12} {'fidelity':<10} final state")
        for key, p, f, amps in rows:
            print(f"  {key:<16} {p:<12.6f} {f:<10.6f} {_fmt_state(amps)}")
    return 0


def _cmd_choi(args) -> int:
    program, _, _ = _load(args, need_spec=False)
    choi = channel_choi(program)
    # (re, im) pairs as Python floats, whose repr is what JSON writes too
    pairs = choi.view(np.float64).reshape(len(choi), len(choi), 2)
    if args.format == "json":
        doc = {"dim": len(choi), "entries": pairs.tolist()}
        print(json.dumps(doc, sort_keys=True, separators=(", ", ": ")))
    else:
        rows = pairs.reshape(len(choi), -1).tolist()
        print("\n".join(",".join(map(repr, row)) for row in rows))
    return 0


def _cmd_resources(args) -> int:
    program, _, _ = _load(args, need_spec=False)
    _check_locality(program)  # a census of a program that breaks locality means nothing
    fields = _census_fields(resource_census(program))
    if args.format == "json":
        print(json.dumps(fields, sort_keys=True, separators=(", ", ": ")))
    else:
        print("{" + ", ".join(f"{name}: {n}" for name, n in fields.items()) + "}")
    return 0


def _cmd_lint(args) -> int:
    text = Path(args.file).read_text()
    program = parse_program(text)
    lines = []
    for v in validate_locality(program):
        if v.index >= 0 and program.source_lines:
            lines.append(f"{args.file}:{program.source_lines[v.index]}: {v.reason}")
        else:
            lines.append(f"{args.file}: {v.reason}")
    try:
        check_register(program)
    except ValueError as exc:
        lines.append(f"{args.file}: {exc}")
    if lines:
        print("\n".join(lines))
        print(f"{len(lines)} violation(s)")
        return 1
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has already written its message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        qsim.max_qubits()  # an invalid TELEGATE_MAX_QUBITS is an input error of every command
        status = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # here, not at exit, where a closed pipe cannot be caught
        return status
    except BrokenPipeError:
        # Unwritten output stays buffered; let the flush at exit drop it.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, ExecutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
