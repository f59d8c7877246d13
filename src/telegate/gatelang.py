"""The gate-expression language: concrete syntax for small unitaries.

Grammar (also in ``docs/gatelang-grammar.txt``)::

    expr     := term ('x' term)*          -- tensor product, loosest
    term     := factor ('*' factor)*      -- matrix product
    factor   := atom ["'"]                -- adjoint postfix
    atom     := NAME | NAME '(' NUMBER ')' | MATRIX | '(' expr ')'
    MATRIX   := '[' row (',' row)* ']'
    row      := '[' NUMBER (',' NUMBER)* ']'

Named gates are I, X, Y, Z, H, S, T; parameterized gates are RX, RY, RZ
and PHASE with a radian argument (scientific notation accepted).  Matrix
literals take complex entries written without internal spaces: ``1.0``,
``0.5i``, ``1.0-0.5i``.  Gate names are uppercase; the lowercase ``x``
is the tensor operator.

``A*B`` is the matrix product in written order -- A times B, so B is
applied to a state first.  ``x`` binds looser than ``*``.

Numbers are written in ASCII digits, and whitespace is space, tab, CR
and LF.  Any other character is refused where it stands, so the text
before it is ASCII and every error carries the byte offset of the
offending input.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import qsim
from ._record import Record
from .qsim import UnitaryMatrix


class GateSyntaxError(ValueError):
    """Lexical or grammatical error, with the byte offset where it occurred."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class GateEvalError(ValueError):
    """Evaluation-time rejection (non-unitary literal, dimension mismatch,
    non-finite parameter), with the byte offset of the subexpression that
    failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


# --- abstract syntax --------------------------------------------------------
# Byte offsets (``pos``, ``arg_pos``) locate errors and are not compared.


class NamedGate(Record):
    __slots__ = _fields = ("name", "pos")
    _compared = 1

    def __init__(self, name: str, pos: int = 0):
        Record.__init__(self, name, pos)


class ParamGate(Record):
    __slots__ = _fields = ("name", "arg", "pos", "arg_pos")
    _compared = 2

    def __init__(self, name: str, arg: float, pos: int = 0, arg_pos: int = 0):
        Record.__init__(self, name, arg, pos, arg_pos)


class MatrixLiteral(Record):
    __slots__ = _fields = ("rows", "pos")
    _compared = 1

    def __init__(self, rows: tuple[tuple[complex, ...], ...], pos: int = 0):
        Record.__init__(self, rows, pos)


class _BinaryOp(Record):
    __slots__ = _fields = ("left", "right", "pos")
    _compared = 2

    def __init__(self, left: GateExpr, right: GateExpr, pos: int = 0):
        Record.__init__(self, left, right, pos)


class Product(_BinaryOp):
    __slots__ = ()


class Tensor(_BinaryOp):
    __slots__ = ()


class Adjoint(Record):
    __slots__ = _fields = ("inner", "pos")
    _compared = 1

    def __init__(self, inner: GateExpr, pos: int = 0):
        Record.__init__(self, inner, pos)


GateExpr = NamedGate | ParamGate | MatrixLiteral | Product | Tensor | Adjoint

_NAMED_MATRICES = {
    "I": qsim.I2,
    "X": qsim.X,
    "Y": qsim.Y,
    "Z": qsim.Z,
    "H": qsim.H,
    "S": qsim.S,
    "T": qsim.T,
}
_PARAM_BUILDERS = {"RX": qsim.rx, "RY": qsim.ry, "RZ": qsim.rz, "PHASE": qsim.phase}
# The parser's gate names are the keys of the tables that evaluate them.
NAMED_GATES = tuple(_NAMED_MATRICES)
PARAM_GATES = tuple(_PARAM_BUILDERS)
# Parsing and evaluation recurse once per parenthesis level, so deeper
# nesting is a syntax error rather than a blown interpreter stack.
MAX_NESTING = 100


# --- lexer -------------------------------------------------------------------

# Digits are ASCII: ``\d`` matches the decimal digits of every script,
# and ``float`` reads them too.
_FLOAT = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# Whitespace, then one named group per token kind; ``lastgroup`` is the kind.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]+|(?P<SYMBOL>[*'()\[\],])|(?P<TENSOR>x)|(?P<NAME>[A-Z]+)"
    rf"|(?P<NUMBER>(?P<re>[+-]?{_FLOAT})(?:(?P<im>[+-]{_FLOAT})i|(?P<unit>i))?)"
)


def _lex(text: str) -> list[tuple]:
    """Tokens ``(kind, text, pos, value, is_real)``, ending with an END
    token at ``len(text)``.  A symbol's kind is the symbol itself; only
    NUMBER tokens carry a value."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise GateSyntaxError(f"unexpected character {text[pos]!r} at offset {pos}", pos)
        kind = m.lastgroup
        if kind == "NUMBER":
            real, imag, unit = m.group("re", "im", "unit")
            value = complex(0.0, float(real)) if unit else complex(float(real), float(imag or 0))
            toks.append((kind, m[0], pos, value, not (imag or unit)))
        elif kind is not None:  # None: whitespace
            toks.append((m[0] if kind == "SYMBOL" else kind, m[0], pos, None, False))
        pos = m.end()
    toks.append(("END", "", pos, None, False))
    return toks


# --- parser ------------------------------------------------------------------

# The binary operators: token kind -> (node class, printed form,
# precedence).  Both group to the left; the higher precedence binds
# tighter.  The postfix adjoint binds tighter than either.
_BINARY = {"TENSOR": (Tensor, " x ", 1), "*": (Product, " * ", 2)}
_ADJOINT_PREC = 3


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0
        self.depth = 0

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.toks[self.i][0] == kind:
            self.i += 1
            return True
        return False

    def next(self, expected: str | None = None) -> tuple:
        tok = self.toks[self.i]
        kind, text, pos = tok[:3]
        if kind == "END":
            raise GateSyntaxError(f"unexpected end of input at offset {pos}", pos)
        if expected is not None and kind != expected:
            raise GateSyntaxError(f"expected {expected!r} but got {text!r} at offset {pos}", pos)
        self.i += 1
        return tok

    def expr(self, min_prec: int = 1) -> GateExpr:
        """Factors joined by the binary operators that bind at least as
        tightly as ``min_prec``."""
        node = self.factor()
        while (op := _BINARY.get(self.toks[self.i][0])) is not None and op[2] >= min_prec:
            cls, _, prec = op
            self.i += 1
            node = cls(node, self.expr(prec + 1), node.pos)
        return node

    def factor(self) -> GateExpr:
        node = self.atom()
        return Adjoint(node, node.pos) if self.accept("'") else node

    def atom(self) -> GateExpr:
        kind, text, pos, _, _ = self.next()
        if kind == "NAME":
            return self.gate(text, pos)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise GateSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} at offset {pos}", pos
                )
            self.depth += 1
            node = self.expr()
            self.next(")")
            self.depth -= 1
            return node
        if kind == "[":
            rows = self.items(self.row)
            if any(len(r) != len(rows[0]) for r in rows):
                raise GateSyntaxError(f"matrix rows must have equal length at offset {pos}", pos)
            return MatrixLiteral(tuple(rows), pos)
        raise GateSyntaxError(
            f"expected a gate, matrix or '(' but got {text!r} at offset {pos}", pos
        )

    def gate(self, name: str, pos: int) -> GateExpr:
        has_arg = self.accept("(")
        if name in PARAM_GATES:
            if not has_arg:
                raise GateSyntaxError(f"gate {name} requires a parameter at offset {pos}", pos)
            _, _, arg_pos, value, is_real = self.next("NUMBER")
            if not is_real:
                raise GateSyntaxError(f"gate parameter must be real at offset {arg_pos}", arg_pos)
            self.next(")")
            return ParamGate(name, value.real, pos, arg_pos)
        if name in NAMED_GATES:
            if has_arg:
                raise GateSyntaxError(f"gate {name} takes no parameter at offset {pos}", pos)
            return NamedGate(name, pos)
        raise GateSyntaxError(f"unknown gate name {name!r} at offset {pos}", pos)

    def items(self, item) -> list:
        """``item (',' item)* ']'``: the rest of a list whose '[' is read."""
        found = [item()]
        while self.accept(","):
            found.append(item())
        self.next("]")
        return found

    def row(self) -> tuple[complex, ...]:
        self.next("[")
        return tuple(self.items(lambda: self.next("NUMBER")[3]))


def parse(text: str) -> GateExpr:
    """Parse a gate expression; raises :class:`GateSyntaxError` with a
    byte offset on any lexical or grammatical problem."""
    p = _Parser(text)
    node = p.expr()
    kind, found, pos = p.toks[p.i][:3]
    if kind != "END":
        raise GateSyntaxError(f"unexpected token {found!r} at offset {pos}", pos)
    return node


# --- evaluation ---------------------------------------------------------------


def evaluate(e: GateExpr) -> UnitaryMatrix:
    """Evaluate to a unitary, per the package gate conventions.

    Non-unitary matrix literals, operand dimension mismatches and
    non-finite parameters raise :class:`GateEvalError` carrying the
    subexpression's offset.
    """
    if isinstance(e, (Product, Tensor)):
        # ``H*H*...*H`` parses left-deep and may be longer than the
        # recursion limit, so the left spine is walked in a loop.
        spine = []
        while isinstance(e, (Product, Tensor)):
            spine.append(e)
            e = e.left
        acc = evaluate(e)
        for node in reversed(spine):
            acc = _combine(node, acc, evaluate(node.right))
        return acc
    if isinstance(e, NamedGate):
        return _NAMED_MATRICES[e.name]
    if isinstance(e, ParamGate):
        if not math.isfinite(e.arg):
            raise GateEvalError(
                f"gate parameter {e.arg!r} is not finite at offset {e.arg_pos}", e.arg_pos
            )
        return _PARAM_BUILDERS[e.name](e.arg)
    if isinstance(e, MatrixLiteral):
        try:
            return UnitaryMatrix(np.array(e.rows, dtype=np.complex128))
        except ValueError as exc:
            raise GateEvalError(f"{exc} at offset {e.pos}", e.pos) from exc
    if isinstance(e, Adjoint):
        return evaluate(e.inner).adjoint()
    raise TypeError(f"unknown expression node {e!r}")


def _combine(node: Product | Tensor, a: UnitaryMatrix, b: UnitaryMatrix) -> UnitaryMatrix:
    if isinstance(node, Product):
        if a.dim != b.dim:
            raise GateEvalError(
                f"dimension mismatch in product: {a.dim} vs {b.dim} at offset {node.pos}", node.pos
            )
        return UnitaryMatrix(a.matrix @ b.matrix)
    try:
        return qsim.kron(a, b)
    except ValueError as exc:
        raise GateEvalError(f"{exc} at offset {node.pos}", node.pos) from exc


# --- pretty printing -----------------------------------------------------------


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return _fmt_float(z.real)
    if z.real == 0:
        return _fmt_float(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i"


def _fmt_rows(rows) -> str:
    """``[[a,b],[c,d]]`` text for rows of complex numbers."""
    body = ",".join("[" + ",".join(_fmt_complex(complex(z)) for z in row) + "]" for row in rows)
    return f"[{body}]"


def format_matrix(u: UnitaryMatrix) -> str:
    """Render a unitary as a matrix literal (floats round-trip exactly)."""
    return _fmt_rows(u.matrix)


def format_expr(e: GateExpr) -> str:
    """Pretty-print with minimal parentheses; ``parse(format_expr(e))``
    returns a tree equal to ``e``.

    Works from an explicit stack, so trees deeper than the recursion limit
    (``H*H*...*H`` parses left-deep) print too.
    """
    out: list[str] = []
    # stack entries: text to emit, or (node, least precedence printed bare)
    todo: list = [(e, 1)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, min_prec = item
        if isinstance(node, NamedGate):
            out.append(node.name)
            continue
        if isinstance(node, ParamGate):
            out.append(f"{node.name}({_fmt_float(node.arg)})")
            continue
        if isinstance(node, MatrixLiteral):
            out.append(_fmt_rows(node.rows))
            continue
        for cls, form, prec in _BINARY.values():
            if isinstance(node, cls):
                parts = [(node.left, prec), form, (node.right, prec + 1)]
                break
        else:
            if not isinstance(node, Adjoint):
                raise TypeError(f"unknown expression node {node!r}")
            prec, parts = _ADJOINT_PREC, [(node.inner, _ADJOINT_PREC + 1), "'"]
        if prec < min_prec:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)
