"""Expression language over the deformed algebra.

A small, deterministic surface syntax so results can travel through a
terminal: parse a string, evaluate it against a deformation context, and
render the canonical answer back as a string that re-parses to the same
object.

Grammar (left associative; '*' and '.' share one precedence level):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '.') unary)*
    unary   := '-'* '~'* power
    power   := atom ('^' INT)*
    atom    := INT ('/' INT)?            exact rational
             | 'i'                        imaginary unit
             | 't' | 'x1' | 'x2' | 'x3'  coordinates
             | 'eps'                      formal expansion marker
             | 'dt' | 'dx1' | 'dx2' | 'dx3'
             | ('D0'|'D1'|'D2'|'D3') '(' expr ')'
             | 'd' '(' expr ')'
             | '(' expr ')'

'*' is the deformed (star) product; '.' is the plain commutative product
and only accepts scalar functions.  '~' conjugates, 'd' is the exterior
derivative, 'Dmu' the coordinate derivative (0 = time).  '^' is the
pointwise power of a scalar.  Basis one-forms multiply with '*', so
"x2*dx1*dx2" is a two-form with its coefficient already moved to the
left.  Misusing grades (a pointwise product or a power of a form, Dmu of
a form) raises GradingError; malformed input raises ParseError with the
line and column, as does parenthesis nesting deeper than MAX_NESTING; a
product or power whose operands could give a result beyond MAX_DEGREE or
MAX_TERMS raises SizeLimitError before it runs.  Every flat chain (sums,
products, powers, runs of prefix signs) is walked in one loop, whatever
its length; only parentheses nest.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Union

from .forms import DifferentialForm, d as exterior_d, form_conj, form_mul
from .poly import BasePoly, Poly
from .rationals import I, _text
from .star import StarContext, star

Value = Union[Poly, DifferentialForm]


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class GradingError(Exception):
    """An operation was applied across incompatible form degrees."""


# Size limits for one product or power, checked before it runs against what
# its operands predict.  Degree: the sum of the operands' total degrees; for
# p^n, n times the degree of p, or n when p is constant.  Terms: p*q for
# operands of p and q terms; for p^n, the number of multisets of n of the
# terms of p.
MAX_DEGREE = 16
MAX_TERMS = 1000

# Deepest parenthesis nesting, counted on the tokens before parsing (each
# call's parentheses included): the parser spends about five interpreter
# frames per level, so this keeps it well inside the recursion limit.
MAX_NESTING = 100


class SizeLimitError(ValueError):
    """A product or power would exceed MAX_DEGREE or MAX_TERMS."""


# -- lexer ----------------------------------------------------------------

# One alternative per token kind, ASCII only: a character matched by none
# of the others, a non-ASCII digit or letter included, is BAD.
_TOKEN = re.compile(r"""
    (?P<NL>\n) | (?P<WS>[ \t\r]+)
  | (?P<DEC>[0-9]+\.[0-9]) | (?P<NUM>[0-9]+)
  | (?P<NAME>[A-Za-z][A-Za-z0-9_]*) | (?P<PUNCT>[-+*./()^~])
  | (?P<BAD>.)""", re.VERBOSE | re.DOTALL)


def _tokenize(src: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) tuples, kind NUM, NAME, the punctuation
    character itself or, last, EOF.  Lexer errors come first, then the
    first parenthesis nested deeper than MAX_NESTING."""
    toks, too_deep = [], None
    line, line_start, depth = 1, 0, 0
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "WS":
            continue
        col = m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "DEC":
            raise ParseError(
                "decimal literals are not supported; write p/q", line, col)
        elif kind == "BAD":
            raise ParseError(f"unexpected character {text!r}", line, col)
        else:
            depth += (text == "(") - (text == ")")
            if depth > MAX_NESTING and too_deep is None:
                too_deep = (line, col)
            toks.append((text if kind == "PUNCT" else kind, text, line, col))
    if too_deep:
        raise ParseError("parentheses nested deeper than the limit of "
                         f"{MAX_NESTING}", *too_deep)
    toks.append(("EOF", "", line, len(src) - line_start + 1))
    return toks


# -- syntax tree ------------------------------------------------------------

class Num(NamedTuple):
    value: Fraction
    line: int
    col: int


class Sym(NamedTuple):
    name: str  # i, t, x1..x3, eps, dt, dx1..dx3
    line: int
    col: int


class Un(NamedTuple):
    op: str  # '-', '~'
    arg: "Node"
    line: int
    col: int


class Bin(NamedTuple):
    op: str  # '+', '-', '*', '.'
    left: "Node"
    right: "Node"
    line: int
    col: int


class Pow(NamedTuple):
    base: "Node"
    exponent: int
    line: int
    col: int


class Call(NamedTuple):
    fn: str  # 'd', 'D0'..'D3'
    arg: "Node"
    line: int
    col: int


Node = Union[Num, Sym, Un, Bin, Pow, Call]

_ATOMS = {"i", "t", "x1", "x2", "x3", "eps", "dt", "dx1", "dx2", "dx3"}
_CALLS = {"d", "D0", "D1", "D2", "D3"}


class _Parser:
    def __init__(self, toks: list[tuple[str, str, int, int]]):
        self.toks = toks
        self.pos = 0
        self.kind = toks[0][0]  # the kind of toks[self.pos]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.toks[self.pos]
        self.pos += 1  # never past EOF, which no rule consumes
        self.kind = self.toks[self.pos][0]
        return tok

    def expect(self, kind: str) -> tuple[str, str, int, int]:
        if self.kind != kind:
            _, text, line, col = self.toks[self.pos]
            raise ParseError(f"expected {kind!r}, found "
                             f"{text or 'end of input'!r}", line, col)
        return self.next()

    def parse(self) -> Node:
        node = self.expr()
        if self.kind != "EOF":
            _, text, line, col = self.toks[self.pos]
            raise ParseError(f"unexpected trailing input {text!r}", line, col)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.kind in ("+", "-"):
            op, _, line, col = self.next()
            node = Bin(op, node, self.term(), line, col)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.kind in ("*", "."):
            op, _, line, col = self.next()
            node = Bin(op, node, self.unary(), line, col)
        return node

    def unary(self) -> Node:
        # prefix signs are collected in a loop: a run of them costs no depth
        signs = []
        while self.kind == "-":
            signs.append(self.next())
        while self.kind == "~":
            signs.append(self.next())
        node = self.power()
        for op, _, line, col in reversed(signs):
            node = Un(op, node, line, col)
        return node

    def power(self) -> Node:
        node = self.atom()
        while self.kind == "^":
            _, _, line, col = self.next()
            node = Pow(node, int(self.expect("NUM")[1]), line, col)
        return node

    def atom(self) -> Node:
        kind, text, line, col = self.toks[self.pos]
        if kind == "NUM":
            self.next()
            if self.kind != "/":
                return Num(Fraction(int(text)), line, col)
            self.next()
            _, den, *where = self.expect("NUM")
            if not int(den):
                raise ParseError("zero denominator", *where)
            return Num(Fraction(int(text), int(den)), line, col)
        if kind == "NAME":
            self.next()
            if text in _CALLS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg, line, col)
            if text in _ATOMS:
                return Sym(text, line, col)
            raise ParseError(f"unknown symbol {text!r}", line, col)
        if kind == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"expected a value, found {text or 'end of input'!r}",
                         line, col)


def parse_expression(src: str) -> Node:
    return _Parser(_tokenize(src)).parse()


# -- evaluation --------------------------------------------------------------

def _promote(v: Value) -> DifferentialForm:
    if isinstance(v, Poly):
        return DifferentialForm.from_function(v)
    return v


def _size(v: Value) -> tuple[int, int]:
    """(total degree, term count) of a function or form."""
    if isinstance(v, Poly):
        return v.total_degree(), len(v)
    parts = [f for _, f in v.items()]
    return (max((f.total_degree() for f in parts), default=0),
            sum(len(f) for f in parts))


def _check_size(node: Node, degree: int, terms: int) -> None:
    if degree > MAX_DEGREE:
        what = f"degree {degree}, above the limit of {MAX_DEGREE}"
    elif terms > MAX_TERMS:
        what = f"{terms} terms, above the limit of {MAX_TERMS}"
    else:
        return
    raise SizeLimitError(
        f"line {node.line}, column {node.col}: result could reach {what}")


def evaluate(node: Node, ctx: StarContext) -> Value:
    # Follow first operands in a loop, then apply the collected operators
    # in reverse: only a Bin's right operand recurses, and it nests only
    # inside parentheses, which MAX_NESTING bounds.
    chain = []
    while isinstance(node, (Bin, Un, Pow, Call)):
        chain.append(node)
        node = (node.left if isinstance(node, Bin) else
                node.base if isinstance(node, Pow) else node.arg)
    if isinstance(node, Num):
        v = Poly.const(node.value)
    elif not isinstance(node, Sym):
        raise TypeError(f"not a syntax node: {node!r}")
    elif node.name == "i":
        v = Poly.const(I)
    elif node.name in ("t", "x1", "x2", "x3", "eps"):
        v = Poly.variable(node.name)
    else:
        v = DifferentialForm.basis(_BASIS_NAMES.index(node.name))
    for op in reversed(chain):
        v = _apply(op, v, ctx)
    return v


def _apply(node: Node, v: Value, ctx: StarContext) -> Value:
    """The value of node, given the value v of its first operand."""
    if isinstance(node, Bin):
        return _binary(node, v, evaluate(node.right, ctx), ctx)
    if isinstance(node, Un):
        if node.op == "-":
            return -v
        return v.conj() if isinstance(v, Poly) else form_conj(v, ctx)
    if isinstance(node, Pow):
        if isinstance(v, DifferentialForm):
            raise GradingError(
                f"line {node.line}, column {node.col}: "
                "power of a differential form")
        n, k = node.exponent, len(v)
        _check_size(node, n * max(1, v.total_degree()), 0)
        # n is now at most MAX_DEGREE; p^n has at most as many terms as
        # there are multisets of n of the k terms of p
        _check_size(node, 0, math.comb(n + k - 1, n) if k else 1)
        return v ** n
    if node.fn == "d":
        return exterior_d(_promote(v), ctx)
    if isinstance(v, DifferentialForm):
        raise GradingError(
            f"line {node.line}, column {node.col}: "
            f"{node.fn} needs a scalar function; use d for forms")
    return v.partial(int(node.fn[1]))


def _binary(node: Bin, a: Value, b: Value, ctx: StarContext) -> Value:
    if node.op in ("+", "-"):
        if isinstance(a, Poly) and isinstance(b, Poly):
            return a + b if node.op == "+" else a - b
        fa, fb = _promote(a), _promote(b)
        return fa + fb if node.op == "+" else fa - fb
    if node.op == "." and not (isinstance(a, Poly) and isinstance(b, Poly)):
        raise GradingError(
            f"line {node.line}, column {node.col}: "
            "pointwise product is only defined for scalar functions")
    (da, na), (db, nb) = _size(a), _size(b)
    _check_size(node, da + db, na * nb)
    if node.op == ".":
        return a * b
    if isinstance(a, Poly) and isinstance(b, Poly):
        return star(a, b, ctx)
    return form_mul(_promote(a), _promote(b), ctx)


# -- rendering ---------------------------------------------------------------

def _term_texts(p: BasePoly, wedge: str = ""):
    """(negative, text) for each term of p times wedge, by total degree,
    then exponents with the first variable most significant, highest first;
    the sign is split off the coefficient, whose magnitude is printed in
    re-parseable form."""
    names, den, n = type(p).VARS, p._den, len(type(p).VARS)
    for _, exps, re, im in sorted(
            ((sum(b := k.to_bytes(n, "little")), b, r, i)
             for k, (r, i) in p._nums.items()), reverse=True):
        neg = re < 0 or (not re and im < 0)
        if neg:
            re, im = -re, -im
        mono = ".".join(f"{v}^{e}" if e > 1 else v
                        for v, e in zip(names, exps) if e)
        factors = ((mono, wedge) if re == den and not im
                   else (_text(re, im, den), mono, wedge))
        yield neg, "*".join(f for f in factors if f) or "1"


def _join_terms(terms) -> str:
    """Join (negative, text) terms with signs; "0" when there are none."""
    out = ""
    for neg, text in terms:
        if out:
            out += f" - {text}" if neg else f" + {text}"
        else:
            out = f"-{text}" if neg else text
    return out or "0"


def poly_to_expr(p: BasePoly) -> str:
    return _join_terms(_term_texts(p))


_BASIS_NAMES = ("dt", "dx1", "dx2", "dx3")


def _form_terms(w: DifferentialForm):
    for mask, f in sorted(w.items(),
                          key=lambda kv: (bin(kv[0]).count("1"), kv[0])):
        wedge = "*".join(_BASIS_NAMES[mu] for mu in range(4) if mask >> mu & 1)
        if not mask or len(f) == 1:
            yield from _term_texts(f, wedge)
        else:
            yield False, f"({poly_to_expr(f)})*{wedge}"


def form_to_expr(w: DifferentialForm) -> str:
    return _join_terms(_form_terms(w))


def value_to_expr(v: Value) -> str:
    if isinstance(v, Poly):
        return poly_to_expr(v)
    return form_to_expr(v)


def reduce_expression(src: str, ctx: StarContext) -> str:
    """Parse, evaluate against ctx, and render the canonical form.

    The context's eps cutoff is applied to the result, so a truncation
    order behaves the same whether the dropped terms were produced by a
    product or typed directly.
    """
    v = evaluate(parse_expression(src), ctx)
    if isinstance(v, Poly):
        return poly_to_expr(ctx.reduce(v))
    return form_to_expr(DifferentialForm(
        {m: ctx.reduce(f) for m, f in v.items()}))
