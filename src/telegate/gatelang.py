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

All errors carry the byte offset of the offending input.
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

_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER_RE = re.compile(rf"([+-]?{_FLOAT})(?:([+-]{_FLOAT})i|(i))?")
_NAME_RE = re.compile(r"[A-Z]+")
_WS_RE = re.compile(r"[ \t\r\n]+")
_SYMBOLS = "*'()[],"


class _Token(Record):
    __slots__ = _fields = ("kind", "text", "pos", "value", "is_real")

    def __init__(
        self,
        kind: str,  # NAME, NUMBER, TENSOR, or one of the symbol characters
        text: str,
        pos: int,
        value: complex = 0j,
        is_real: bool = False,
    ):
        Record.__init__(self, kind, text, pos, value, is_real)


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    while i < len(text):
        ws = _WS_RE.match(text, i)
        if ws:
            i = ws.end()
            continue
        c = text[i]
        if c in _SYMBOLS:
            toks.append(_Token(c, c, i))
            i += 1
            continue
        if c == "x":
            toks.append(_Token("TENSOR", c, i))
            i += 1
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(_Token("NAME", m.group(), i))
            i = m.end()
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            if m.group(2) is not None:
                value = complex(float(m.group(1)), float(m.group(2)))
                real = False
            elif m.group(3) is not None:
                value = complex(0.0, float(m.group(1)))
                real = False
            else:
                value = complex(float(m.group(1)), 0.0)
                real = True
            toks.append(_Token("NUMBER", m.group(), i, value, real))
            i = m.end()
            continue
        raise GateSyntaxError(f"unexpected character {c!r} at offset {i}", i)
    return toks


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise GateSyntaxError(
                f"unexpected end of input at offset {len(self.text)}", len(self.text)
            )
        if expected is not None and tok.kind != expected:
            raise GateSyntaxError(
                f"expected {expected!r} but got {tok.text!r} at offset {tok.pos}", tok.pos
            )
        self.i += 1
        return tok

    def expr(self) -> GateExpr:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind == "TENSOR":
            self.next()
            node = Tensor(node, self.term(), node.pos)
        return node

    def term(self) -> GateExpr:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind == "*":
            self.next()
            node = Product(node, self.factor(), node.pos)
        return node

    def factor(self) -> GateExpr:
        node = self.atom()
        if (tok := self.peek()) is not None and tok.kind == "'":
            self.next()
            node = Adjoint(node, node.pos)
        return node

    def atom(self) -> GateExpr:
        tok = self.next()
        if tok.kind == "NAME":
            return self.gate(tok)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise GateSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} at offset {tok.pos}", tok.pos
                )
            self.depth += 1
            node = self.expr()
            self.next(")")
            self.depth -= 1
            return node
        if tok.kind == "[":
            return self.matrix(tok)
        raise GateSyntaxError(
            f"expected a gate, matrix or '(' but got {tok.text!r} at offset {tok.pos}", tok.pos
        )

    def gate(self, tok: _Token) -> GateExpr:
        followed_by_paren = (nxt := self.peek()) is not None and nxt.kind == "("
        if tok.text in PARAM_GATES:
            if not followed_by_paren:
                raise GateSyntaxError(
                    f"gate {tok.text} requires a parameter at offset {tok.pos}", tok.pos
                )
            self.next("(")
            num = self.next("NUMBER")
            if not num.is_real:
                raise GateSyntaxError(
                    f"gate parameter must be real at offset {num.pos}", num.pos
                )
            self.next(")")
            return ParamGate(tok.text, num.value.real, tok.pos, num.pos)
        if tok.text in NAMED_GATES:
            if followed_by_paren:
                raise GateSyntaxError(
                    f"gate {tok.text} takes no parameter at offset {tok.pos}", tok.pos
                )
            return NamedGate(tok.text, tok.pos)
        raise GateSyntaxError(f"unknown gate name {tok.text!r} at offset {tok.pos}", tok.pos)

    def matrix(self, opening: _Token) -> MatrixLiteral:
        rows = [self.row()]
        while (tok := self.peek()) is not None and tok.kind == ",":
            self.next()
            rows.append(self.row())
        self.next("]")
        if any(len(r) != len(rows[0]) for r in rows):
            raise GateSyntaxError(
                f"matrix rows must have equal length at offset {opening.pos}", opening.pos
            )
        return MatrixLiteral(tuple(rows), opening.pos)

    def row(self) -> tuple[complex, ...]:
        self.next("[")
        entries = [self.next("NUMBER").value]
        while (tok := self.peek()) is not None and tok.kind == ",":
            self.next()
            entries.append(self.next("NUMBER").value)
        self.next("]")
        return tuple(entries)


def parse(text: str) -> GateExpr:
    """Parse a gate expression; raises :class:`GateSyntaxError` with a
    byte offset on any lexical or grammatical problem."""
    p = _Parser(text)
    node = p.expr()
    if (tok := p.peek()) is not None:
        raise GateSyntaxError(
            f"unexpected token {tok.text!r} at offset {tok.pos}", tok.pos
        )
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


_PREC = {Tensor: 1, Product: 2, Adjoint: 3}


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
        if isinstance(node, Tensor):
            parts = [(node.left, 1), " x ", (node.right, 2)]
        elif isinstance(node, Product):
            parts = [(node.left, 2), " * ", (node.right, 3)]
        elif isinstance(node, Adjoint):
            parts = [(node.inner, 4), "'"]
        else:
            raise TypeError(f"unknown expression node {node!r}")
        if _PREC[type(node)] < min_prec:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)
