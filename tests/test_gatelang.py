import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import random_gate_expr, random_unitary_expr
from telegate import gatelang, qsim
from telegate.gatelang import (
    MAX_NESTING,
    Adjoint,
    GateEvalError,
    GateSyntaxError,
    MatrixLiteral,
    NamedGate,
    ParamGate,
    Product,
    Tensor,
    evaluate,
    format_expr,
    format_matrix,
    parse,
)


def test_parse_single_gate():
    assert parse("H") == NamedGate("H")


def test_parse_adjoint_product():
    assert parse("RZ(0.3)' * H") == Product(Adjoint(ParamGate("RZ", 0.3)), NamedGate("H"))


def test_unterminated_call_reports_end_of_input():
    with pytest.raises(GateSyntaxError, match="unexpected end of input at offset 3") as exc:
        parse("RZ(")
    assert exc.value.offset == 3


def test_precedence_tensor_binds_loosest():
    assert parse("I x X * Z") == Tensor(NamedGate("I"), Product(NamedGate("X"), NamedGate("Z")))
    assert parse("(I x X) * (Z x I)") == Product(
        Tensor(NamedGate("I"), NamedGate("X")), Tensor(NamedGate("Z"), NamedGate("I"))
    )


def test_left_associativity():
    assert parse("X*Y*Z") == Product(Product(NamedGate("X"), NamedGate("Y")), NamedGate("Z"))
    assert parse("X x Y x Z") == Tensor(Tensor(NamedGate("X"), NamedGate("Y")), NamedGate("Z"))


def test_matrix_literal_forms():
    m = parse("[[0,1],[1,0]]")
    assert m == MatrixLiteral(((0j, 1 + 0j), (1 + 0j, 0j)))
    m = parse("[[1.0-0.5i,0.5i],[1e-3,2]]")  # parse only; not unitary
    assert m.rows[0][0] == complex(1.0, -0.5)
    assert m.rows[0][1] == complex(0.0, 0.5)
    assert m.rows[1][0] == complex(1e-3, 0.0)


def test_evaluate_involutions():
    assert np.abs(evaluate(parse("H*H")).matrix - np.eye(2)).max() < 1e-12
    assert np.abs(evaluate(parse("S*S")).matrix - qsim.Z.matrix).max() < 1e-12


def test_evaluate_matrix_literal_exactly_x():
    assert np.array_equal(evaluate(parse("[[0,1],[1,0]]")).matrix, qsim.X.matrix)


def test_evaluate_param_gates():
    assert evaluate(parse("RZ(0.3)")) == qsim.rz(0.3)
    assert evaluate(parse("RX(1.1)")) == qsim.rx(1.1)
    assert evaluate(parse("PHASE(2e-1)")) == qsim.phase(0.2)


def test_every_gate_name_parses_and_evaluates():
    """The parser's names are the evaluator's, in the order the seeded
    expression corpus of ``tests/oracles.py`` draws them."""
    assert gatelang.NAMED_GATES == ("I", "X", "Y", "Z", "H", "S", "T")
    assert gatelang.PARAM_GATES == ("RX", "RY", "RZ", "PHASE")
    for text in (*gatelang.NAMED_GATES, *(f"{name}(0.3)" for name in gatelang.PARAM_GATES)):
        assert evaluate(parse(text)).dim == 2


def test_evaluate_written_order():
    # A*B applies B first: (X*H)|0> = X(H|0>)
    got = evaluate(parse("X*H")).matrix @ np.array([1, 0])
    want = qsim.X.matrix @ (qsim.H.matrix @ np.array([1, 0]))
    assert np.allclose(got, want)


def test_tensor_matches_kron():
    assert evaluate(parse("H x X")) == qsim.kron(qsim.H, qsim.X)


@pytest.mark.parametrize(
    "text, fragment, offset",
    [
        ("FOO", "unknown gate name", 0),
        ("H(0.3)", "takes no parameter", 0),
        ("RZ", "requires a parameter", 0),
        ("RZ(1+2i)", "must be real", 3),
        ("H @ X", "unexpected character '@'", 2),
        ("H * * X", "expected a gate", 4),
        ("H'?", "unexpected character", 2),
        ("(H", "unexpected end of input", 2),
        ("H X", "unexpected token 'X'", 2),
        ("[[1,0],[0,1],[0]]", "equal length", 0),
    ],
)
def test_positioned_parse_errors(text, fragment, offset):
    with pytest.raises(GateSyntaxError) as exc:
        parse(text)
    assert fragment in str(exc.value)
    assert exc.value.offset == offset


def test_non_unitary_literal_rejected_with_position():
    with pytest.raises(GateEvalError, match="offset 4") as exc:
        evaluate(parse("H * [[1,1],[1,1]]"))
    assert exc.value.offset == 4


def test_product_dimension_mismatch_rejected():
    with pytest.raises(GateEvalError, match="dimension mismatch"):
        evaluate(parse("(H x H) * X"))


@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_expressions(seed):
    rng = np.random.default_rng(seed)
    expr = random_gate_expr(rng, depth=int(rng.integers(0, 5)))
    assert parse(format_expr(expr)) == expr


@given(st.integers(0, 2**32 - 1))
def test_adjoint_evaluates_to_conjugate_transpose(seed):
    rng = np.random.default_rng(seed)
    expr = random_unitary_expr(rng, depth=3, n_qubits=int(rng.integers(1, 3)))
    u = evaluate(expr)
    udag = evaluate(Adjoint(expr))
    assert np.abs(udag.matrix - u.matrix.conj().T).max() < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_evaluation_never_yields_silently_non_unitary(seed):
    rng = np.random.default_rng(seed)
    u = evaluate(random_unitary_expr(rng, depth=4, n_qubits=2))
    defect = np.abs(u.matrix.conj().T @ u.matrix - np.eye(u.dim)).max()
    assert defect <= 1e-10  # the UnitaryMatrix invariant, re-checked explicitly


def test_format_matrix_round_trips_exactly():
    u = qsim.haar_random_unitary(2, 2718)
    again = evaluate(parse(format_matrix(u)))
    assert np.array_equal(again.matrix, u.matrix)


def test_long_product_chain_round_trips():
    """A 3000-deep tree prints without recursion.  Compared as text: the
    dataclass ``__eq__`` on such a tree would recurse itself."""
    text = "H * " * 3000 + "H"
    assert format_expr(parse("H*" * 3000 + "H")) == text
    assert format_expr(parse(text)) == text
    nested = "X x (" * 98 + "X x X" + ")" * 98
    assert format_expr(parse(nested)) == nested
    # the most parser frames per level: both operators before each '('
    mixed = "X x X * (" * MAX_NESTING + "X x X" + ")" * MAX_NESTING
    assert format_expr(parse(mixed)) == mixed


def test_pretty_print_examples():
    assert format_expr(parse("RZ(0.3)' * H")) == "RZ(0.3)' * H"
    assert format_expr(Tensor(NamedGate("H"), Tensor(NamedGate("X"), NamedGate("Y")))) == "H x (X x Y)"
    assert format_expr(Adjoint(Product(NamedGate("X"), NamedGate("Y")))) == "(X * Y)'"


# Every refusal of the gate language: input, error class, message and
# offset, and the register cap when the case needs one.  Each message
# names its offset in bytes, and the exception carries the same number.
REFUSALS = [
    ("H @ X", GateSyntaxError, "unexpected character '@' at offset 2", 2, None),
    ("H'?", GateSyntaxError, "unexpected character '?' at offset 2", 2, None),
    ("H\r\n\t@", GateSyntaxError, "unexpected character '@' at offset 4", 4, None),
    ("H \x0c", GateSyntaxError, "unexpected character '\\x0c' at offset 2", 2, None),
    # digits of other scripts are not numbers, as they are not in wire ids
    ("RZ(٣)", GateSyntaxError, "unexpected character '٣' at offset 3", 3, None),
    ("[[١,٠],[٠,١]]", GateSyntaxError, "unexpected character '١' at offset 2", 2, None),
    ("RZ(0.٣) * Q", GateSyntaxError, "unexpected character '٣' at offset 5", 5, None),
    ("RZ(", GateSyntaxError, "unexpected end of input at offset 3", 3, None),
    ("", GateSyntaxError, "unexpected end of input at offset 0", 0, None),
    ("(H", GateSyntaxError, "unexpected end of input at offset 2", 2, None),
    ("[[1,0],[0,1]", GateSyntaxError, "unexpected end of input at offset 12", 12, None),
    ("RZ(X)", GateSyntaxError, "expected 'NUMBER' but got 'X' at offset 3", 3, None),
    ("RZ(0.1 X", GateSyntaxError, "expected ')' but got 'X' at offset 7", 7, None),
    ("(H X", GateSyntaxError, "expected ')' but got 'X' at offset 3", 3, None),
    ("[H]", GateSyntaxError, "expected '[' but got 'H' at offset 1", 1, None),
    ("[[1,X]]", GateSyntaxError, "expected 'NUMBER' but got 'X' at offset 4", 4, None),
    ("[[1 0]]", GateSyntaxError, "expected ']' but got '0' at offset 4", 4, None),
    ("[[1],[0] [1]]", GateSyntaxError, "expected ']' but got '[' at offset 9", 9, None),
    (
        "(" * 101 + "X" + ")" * 101,
        GateSyntaxError, "parentheses nested deeper than 100 at offset 100", 100, None,
    ),
    ("H * * X", GateSyntaxError, "expected a gate, matrix or '(' but got '*' at offset 4", 4, None),
    ("x H", GateSyntaxError, "expected a gate, matrix or '(' but got 'x' at offset 0", 0, None),
    ("0.5", GateSyntaxError, "expected a gate, matrix or '(' but got '0.5' at offset 0", 0, None),
    ("RZ", GateSyntaxError, "gate RZ requires a parameter at offset 0", 0, None),
    ("H x PHASE", GateSyntaxError, "gate PHASE requires a parameter at offset 4", 4, None),
    ("RZ(1+2i)", GateSyntaxError, "gate parameter must be real at offset 3", 3, None),
    ("RX(0.5i)", GateSyntaxError, "gate parameter must be real at offset 3", 3, None),
    ("H(0.3)", GateSyntaxError, "gate H takes no parameter at offset 0", 0, None),
    ("FOO", GateSyntaxError, "unknown gate name 'FOO' at offset 0", 0, None),
    ("X * HX", GateSyntaxError, "unknown gate name 'HX' at offset 4", 4, None),
    ("[[1,0],[0,1],[0]]", GateSyntaxError, "matrix rows must have equal length at offset 0", 0, None),
    ("H X", GateSyntaxError, "unexpected token 'X' at offset 2", 2, None),
    ("H)", GateSyntaxError, "unexpected token ')' at offset 1", 1, None),
    ("H * RX(1e400)", GateEvalError, "gate parameter inf is not finite at offset 7", 7, None),
    ("RZ(-1e400)", GateEvalError, "gate parameter -inf is not finite at offset 3", 3, None),
    (
        "H * [[1,1],[1,1]]",
        GateEvalError, "matrix is not unitary: max |U†U - I| = 2.000e+00 at offset 4", 4, None,
    ),
    ("[[1,0]]", GateEvalError, "unitary must be square, got shape (1, 2) at offset 0", 0, None),
    (
        "[[1,0,0],[0,1,0],[0,0,1]]",
        GateEvalError, "unitary dimension must be a power of two, got 3 at offset 0", 0, None,
    ),
    ("[[1e400,0],[0,1]]", GateEvalError, "unitary entries must be finite at offset 0", 0, None),
    (
        "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
        GateEvalError, "unitary needs 2 qubits, exceeding the 1-qubit cap at offset 0", 0, 1,
    ),
    (
        "X * (H x H)",
        GateEvalError, "dimension mismatch in product: 2 vs 4 at offset 0", 0, None,
    ),
    (
        "X x (H * (H x H))",
        GateEvalError, "dimension mismatch in product: 2 vs 4 at offset 5", 5, None,
    ),
    (
        "H x H x H",
        GateEvalError, "kron result needs 3 qubits, exceeding the 2-qubit cap at offset 0", 0, 2,
    ),
]


@pytest.mark.parametrize(
    "text, cls, message, offset, cap", REFUSALS, ids=[case[0][:30] for case in REFUSALS]
)
def test_every_refusal_is_pinned(text, cls, message, offset, cap, qubit_cap):
    if cap is not None:
        qubit_cap(cap)
    with pytest.raises((GateSyntaxError, GateEvalError)) as exc:
        evaluate(parse(text))
    assert type(exc.value) is cls
    assert str(exc.value) == message
    assert exc.value.offset == offset == len(text[:offset].encode())


def test_imaginary_entries_print_without_a_real_part():
    text = format_matrix(qsim.Y)
    assert text == "[[0.0,-1.0i],[1.0i,0.0]]"
    assert np.array_equal(evaluate(parse(text)).matrix, qsim.Y.matrix)
