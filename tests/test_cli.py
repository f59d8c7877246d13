import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from telegate.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
CNOT_LITERAL = "[[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]]"


def test_verify_gate_passes(capsys):
    assert main(["verify", "--gate", "X"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "ebits=1" in out and "A->B bits=1" in out and "B->A bits=1" in out
    for header in ("①", "②", "③"):
        assert header in out


def test_verify_parse_error_exits_2(capsys):
    assert main(["verify", "--gate", "RZ("]) == 2
    err = capsys.readouterr().err
    assert err.strip()
    assert "offset 3" in err


def test_non_ascii_digit_is_a_parse_error(capsys):
    assert main(["verify", "--gate", "RZ(٣)"]) == 2
    assert capsys.readouterr().err == "error: unexpected character '٣' at offset 3\n"


@pytest.mark.parametrize(
    "mutation", ["drop-bell", "drop-x-correction", "drop-z-correction", "drop-cgate"]
)
def test_verify_mutations_exit_1(mutation, capsys):
    assert main(["verify", "--gate", "X", "--mutate", mutation]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_verify_json_is_byte_stable(capsys):
    assert main(["verify", "--gate", "T", "--format", "json", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--gate", "T", "--format", "json", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["verdict"] == "pass"


def test_trace_cnot_rows(capsys):
    assert main(["trace", "--gate", "X", "--input", "10"]) == 0
    out = capsys.readouterr().out
    assert out.count("0.250000") == 4
    assert out.count("1.000000   (+1.000000+0.000000i)|11>") == 4


def test_trace_identity_keeps_input(capsys):
    assert main(["trace", "--gate", "I", "--input", "00"]) == 0
    out = capsys.readouterr().out
    assert out.count("|00>") >= 4


# Unitary within the gate language's 1e-10 check, not exactly: U†U - I
# has an entry 8e-11.
NEARLY_UNITARY = "[[1.00000000004,0],[0,1]]"


@pytest.mark.parametrize(
    "command",
    [["verify"], ["trace", "--input", "10"], ["choi", "--format", "json"]],
    ids=lambda command: command[0],
)
def test_nearly_unitary_gate_runs_in_the_built_program(command, capsys):
    """The Kraus pass's trace check allows what the gates' own check
    admits, so a gate the front end accepts is not refused deep inside."""
    assert main([*command, "--gate", NEARLY_UNITARY]) == 0
    out = capsys.readouterr().out
    assert command[0] != "verify" or "verdict: PASS" in out


def test_nearly_unitary_gate_in_a_file_certifies_against_itself(tmp_path, capsys):
    literal = "[[1,0],[0,1.00000000004]]"
    path = tmp_path / "near.tg"
    path.write_text(f"ext A q0\ngate A q0 : {literal}\n")
    assert main(["verify", "--file", str(path), "--against", literal]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_trace_bad_input_label(capsys):
    assert main(["trace", "--gate", "X", "--input", "012"]) == 2
    assert "input label" in capsys.readouterr().err


def test_trace_zero_external_program(tmp_path, capsys):
    """A program on no external wires has one basis input, the empty
    label: trace accepts the program, as lint, verify and choi do."""
    program = tmp_path / "no_externals.tg"
    program.write_text("alloc A q1 = 0\nmeasz A q1 -> c1\n")
    assert main(["lint", str(program)]) == 0
    assert main(["verify", "--file", str(program), "--against", "[[1]]"]) == 0
    assert main(["choi", "--file", str(program)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1.0,0.0"
    argv = ["trace", "--file", str(program), "--against", "[[1]]", "--input", ""]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "input |>, 1 branch(es):",
        "  transcript       probability  fidelity   final state",
        "  c1=0             1.000000     1.000000   (+1.000000+0.000000i)|>",
    ]
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "input": "",
        "branches": [
            {"transcript": "c1=0", "probability": 1.0, "fidelity": 1.0, "amplitudes": [[1.0, 0.0]]}
        ],
    }
    assert main([*argv[:-1], "0"]) == 2
    assert "must be 0 bits" in capsys.readouterr().err


def test_trace_file_requires_against(capsys):
    assert main(["trace", "--file", str(DEMOS / "nonlocal_cnot.tg"), "--input", "10"]) == 2
    assert "--against" in capsys.readouterr().err


def test_trace_lint_failing_file_exits_2(capsys):
    rc = main([
        "trace", "--file", str(DEMOS / "bad_crossparty.tg"),
        "--against", CNOT_LITERAL, "--input", "10",
    ])
    assert rc == 2
    assert "locality" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"], ["trace", "--input", "10"]])
def test_against_of_wrong_dimension_exits_2(command, capsys):
    argv = [*command, "--file", str(DEMOS / "nonlocal_cnot.tg"), "--against", "X"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out and _one_error_line(captured.err)
    assert "specification of dim 2 does not match 2 external wires" in captured.err


def test_verify_file_against_cnot(capsys):
    rc = main(["verify", "--file", str(DEMOS / "nonlocal_cnot.tg"), "--against", CNOT_LITERAL])
    assert rc == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_resources_output(capsys):
    assert main(["resources", "--gate", "H"]) == 0
    assert capsys.readouterr().out.strip() == "{ebits: 1, a_to_b: 1, b_to_a: 1}"
    assert main(["resources", "--gate", "H", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"ebits": 1, "a_to_b": 1, "b_to_a": 1}


def test_resources_refuses_an_invalid_program(qubit_cap, capsys):
    """The census of a program that fails locality validation is not
    printed: a cross-party CNOT is refused, as verify refuses it.  The
    census runs nothing, so a valid program over the qubit cap gets it."""
    assert main(["resources", "--file", str(DEMOS / "bad_crossparty.tg")]) == 2
    captured = capsys.readouterr()
    assert not captured.out and _one_error_line(captured.err)
    assert "program fails locality validation: " in captured.err
    qubit_cap(3)
    assert main(["resources", "--file", str(DEMOS / "nonlocal_cnot.tg")]) == 0
    assert capsys.readouterr().out.strip() == "{ebits: 1, a_to_b: 1, b_to_a: 1}"


def test_resources_runs_no_kraus_pass(monkeypatch, capsys):
    """The census is counted off the instructions: ``resources`` lays out
    no program and runs no pass, and still refuses an invalid one."""
    from telegate import executor, verifier

    def refuse(*args):
        raise AssertionError("resources ran the Kraus pass")

    for module, name in ((executor, "kraus_form"), (executor, "_layout"),
                         (executor, "_coefficients"), (verifier, "kraus_form")):
        monkeypatch.setattr(module, name, refuse)
    assert main(["resources", "--file", str(DEMOS / "nonlocal_cnot.tg")]) == 0
    assert capsys.readouterr().out.strip() == "{ebits: 1, a_to_b: 1, b_to_a: 1}"
    assert main(["resources", "--gate", "X x H"]) == 0
    assert capsys.readouterr().out.strip() == "{ebits: 1, a_to_b: 1, b_to_a: 1}"
    assert main(["resources", "--file", str(DEMOS / "bad_crossparty.tg")]) == 2
    assert "program fails locality validation: " in capsys.readouterr().err


def test_lint_good_and_bad_files(capsys):
    assert main(["lint", str(DEMOS / "nonlocal_cnot.tg")]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["lint", str(DEMOS / "bad_crossparty.tg")]) == 1
    out = capsys.readouterr().out
    assert "bad_crossparty.tg:6:" in out and "cross-party" in out


def test_lint_unparseable_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "nonsense.tg"
    for text, line in (
        ("ext A q0\nwobble q0\n", 2),
        ("ext A q0\n: X\n", 2),
        ("ext A q0\next B q1\next A q0\n", 3),
        ("ext A q0\nmeasz A q1 -> c1 : ((((\n", 2),
        ("ext A q0\x0cwobble q0", 1),
        ("ext A q0\x85ext B q1", 1),
        ("ext A q0\r\nwobble q0\r\n", 2),
    ):
        bad.write_text(text)
        assert main(["lint", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: line {line}:"), (text, err)


def test_missing_file_exits_2(capsys):
    assert main(["verify", "--file", "no/such/file.tg", "--against", "I"]) == 2
    assert capsys.readouterr().err.strip()


def test_unreadable_file_exits_2(tmp_path, capsys):
    assert main(["verify", "--file", str(tmp_path), "--against", "I"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "command",
    [["choi", "--gate", "RZ(0.1) x X x H"], ["verify", "--gate", "X"]],
    ids=["choi-541kB", "verify-small"],
)
def test_closed_output_pipe_exits_141_quietly(command, unbuffered):
    """A reader that stops early (``| head -1``) is no input error: the
    command ends with the status a shell shows for a tool killed by
    SIGPIPE, and says nothing, also when the output fits in the buffer
    that the interpreter flushes at exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "telegate.cli", *command],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr.decode()) == (141, "")


def test_closed_stdout_descriptor_is_no_error():
    """Started without a descriptor 1, the interpreter has no sys.stdout;
    print() then writes nothing, and main must not fail either."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "telegate.cli",
         "verify", "--gate", "X"],
        stderr=subprocess.PIPE, env=env, timeout=60,
    )
    assert (result.returncode, result.stderr.decode()) == (0, "")


def test_choi_csv_shape(capsys):
    assert main(["choi", "--gate", "I"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 16  # (2 external qubits)^2 -> 16x16 Choi
    assert all(len(r.split(",")) == 32 for r in rows)


def test_choi_json_identity_program(capsys):
    assert main(["choi", "--gate", "I", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 16
    # trace = 1: sum of diagonal real parts
    trace = sum(doc["entries"][i][i][0] for i in range(16))
    assert abs(trace - 1.0) < 1e-12


@pytest.mark.parametrize("gate", ["H", "H x S", "RZ(0.1) x X x H"])
def test_choi_output_formats_each_entry_as_its_float(gate, capsys):
    """Both formats write each entry's real and imaginary part as the repr
    of a Python float, byte for byte as formatting entry by entry does."""
    from telegate import build_program, channel_choi, gatelang
    from telegate.builder import NonlocalCUSpec

    spec = NonlocalCUSpec.for_gate(gatelang.evaluate(gatelang.parse(gate)))
    choi = channel_choi(build_program(spec))
    csv = "".join(
        ",".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) + "\n" for row in choi
    )
    doc = {"dim": len(choi), "entries": [[[float(z.real), float(z.imag)] for z in row] for row in choi]}
    assert main(["choi", "--gate", gate]) == 0
    assert capsys.readouterr().out == csv
    assert main(["choi", "--gate", gate, "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def test_usage_error_exits_2(capsys):
    assert main(["verify"]) == 2  # no --gate/--file
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_max_qubits_env_cap(qubit_cap, capsys):
    qubit_cap(3)
    assert main(["verify", "--gate", "X"]) == 2  # execution needs 4 live qubits
    assert "cap" in capsys.readouterr().err


# One command of each subcommand, each valid at the default cap.
SUBCOMMANDS = {
    "verify": ["verify", "--gate", "X"],
    "trace": ["trace", "--gate", "X", "--input", "10"],
    "choi": ["choi", "--gate", "X"],
    "resources": ["resources", "--gate", "X"],
    "lint": ["lint", str(DEMOS / "nonlocal_cnot.tg")],
}


@pytest.mark.parametrize("value, message", [
    ("junk", "must be an integer, got 'junk'"),
    ("0", "must be >= 1, got 0"),
    ("-1", "must be >= 1, got -1"),
])
@pytest.mark.parametrize("command", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_invalid_cap_is_an_input_error(command, value, message, qubit_cap, capsys):
    """Every subcommand, lint included, refuses an invalid cap with exit 2
    and one error line, before it reads its input."""
    qubit_cap(value)
    assert main(command) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: TELEGATE_MAX_QUBITS {message}\n")


@pytest.mark.parametrize("command", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_invalid_cap_does_not_break_the_import(command):
    """A fresh interpreter imports the package without reading the cap,
    so an invalid one gets the same one-line refusal as in process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TELEGATE_MAX_QUBITS": "junk"}
    result = subprocess.run(
        [sys.executable, "-m", "telegate.cli", *command], capture_output=True, env=env, timeout=60
    )
    assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == (
        2, "", "error: TELEGATE_MAX_QUBITS must be an integer, got 'junk'\n"
    )


def _one_error_line(err: str) -> bool:
    return err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_deep_parentheses_are_a_syntax_error(capsys):
    deep = "(" * 3000 + "X" + ")" * 3000
    assert main(["verify", "--gate", deep]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "offset 100" in err
    shallow = "(" * 100 + "X" + ")" * 100
    assert main(["resources", "--gate", shallow]) == 0
    capsys.readouterr()


def test_long_product_chain_evaluates(capsys):
    assert main(["verify", "--gate", "H*" * 3000 + "H"]) == 0  # H^3001 = H
    assert "verdict: PASS" in capsys.readouterr().out


def test_overflowing_parameter_is_an_eval_error_with_offset(capsys):
    assert main(["verify", "--gate", "H * RX(1e400)"]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "offset 7" in err


@pytest.mark.parametrize("option", ["--tol-choi=nan", "--tol-branch=inf", "--tol-branch=-1e-10"])
def test_bad_tolerance_is_a_usage_error(option, capsys):
    assert main(["verify", "--gate", "X", option]) == 2
    captured = capsys.readouterr()
    assert not captured.out and f"argument {option.split('=')[0]}" in captured.err


@pytest.mark.parametrize(
    "option", ["--probes=-5", "--probes=-1", "--probes=two", "--seed=-1", "--seed=two"]
)
def test_bad_probe_count_is_a_usage_error(option, capsys):
    assert main(["verify", "--gate", "X", option]) == 2
    captured = capsys.readouterr()
    assert not captured.out and f"argument {option.split('=')[0]}" in captured.err
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


def test_zero_probes_is_basis_only(capsys):
    assert main(["verify", "--gate", "X", "--probes", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_choi_refuses_what_it_cannot_hold(capsys):
    """k=5 verifies, but its dense Choi matrix would need 14 qubits."""
    assert main(["choi", "--gate", "X x X x X x X x X"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and _one_error_line(captured.err) and "cap" in captured.err
    assert main(["verify", "--gate", "X x X x X x X x X"]) == 0
    capsys.readouterr()


def test_huge_probe_count_is_refused_before_allocating(capsys):
    assert main(["verify", "--gate", "X", "--probes", "1000000000000"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and _one_error_line(captured.err)
    assert "probe matrix needs 40 qubits" in captured.err and "cap" in captured.err


def test_cap_counts_every_allocated_qubit(tmp_path, qubit_cap, capsys):
    """Measured qubits stay in the register as transcript axes, so one
    external plus 12 allocations needs 13 qubits, although at most two
    are ever unmeasured at once.  ``lint`` reports the same refusal, with
    the same text, as a violation."""
    lines = ["ext A q0"]
    for q in range(1, 13):
        lines += [f"alloc A q{q} = 0", f"measz A q{q} -> c{q}"]
    program = tmp_path / "many_allocs.tg"
    program.write_text("\n".join(lines) + "\n")
    argv = ["verify", "--file", str(program), "--against", "I"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out and _one_error_line(captured.err)
    assert "program needs 13 qubits" in captured.err and "12-qubit cap" in captured.err
    refusal = captured.err.removeprefix("error: ").strip()
    assert main(["lint", str(program)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"{program}: {refusal}", "1 violation(s)"]
    assert not captured.err
    qubit_cap(13)
    assert main(argv) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    assert main(["lint", str(program)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
