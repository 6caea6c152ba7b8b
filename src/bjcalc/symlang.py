"""Textual language for polynomial symbols.

Grammar (EBNF):
    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' uint]
    atom   := rational | 'i' | 'hbar' | var | '(' expr ')' | '-' factor
    var    := ('x'|'p') [uint]
    rational := uint ['/' uint]

Implicit multiplication is rejected.  In one dimension bare "x"/"p" alias
"x1"/"p1".  format() emits the canonical form that parse() reads back
exactly.
"""

from __future__ import annotations

from math import comb, gcd, prod

from .exact import _N_SCALAR, HBAR, SymbolPoly
from .operators import OpPoly

MAX_DEPTH = 256
MAX_EXPONENT = 1000
# Term-pair products one parse may spend, summed over its products and
# powers.  (x1+p1+x2+p2+x3+p3)^16 needs 325,584 and (x+p)^200 40,200; the
# most expensive text within the budget parses in about a second (2-vCPU
# host, Python 3.11).
MAX_TERM_PRODUCTS = 500_000


class SymLangError(ValueError):
    """Lexical, syntax or dimension error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = set("+-*^/()")
_DIGITS = set("0123456789")
_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # "int" | "ident" | punctuation | "eof"
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        # ASCII only: str.isdigit/isalnum accept characters like superscript
        # digits that int() rejects.
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch in _LETTERS or ch == "_":
            j = i
            while j < n and (text[j] in _LETTERS or text[j] in _DIGITS
                             or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise SymLangError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int, max_degree: int | None):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.depth = 0
        self.max_degree = max_degree
        self.products = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise SymLangError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    def _enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise SymLangError("expression too deeply nested", self.peek().pos)

    def _leave(self):
        self.depth -= 1

    def parse_expr(self) -> SymbolPoly:
        self._enter()
        try:
            acc = self.parse_term()
            while self.peek().kind in ("+", "-"):
                op = self.advance()
                rhs = self.parse_term()
                acc = acc + rhs if op.kind == "+" else acc - rhs
            return acc
        finally:
            self._leave()

    def _check_degree(self, degree: int, what: str, tok: _Token) -> None:
        # exact: leading forms multiply in an integral domain, so a product
        # of nonzero polynomials has the sum of their degrees
        if degree > self.max_degree:
            raise SymLangError(
                f"{what} degree {degree} exceeds max degree {self.max_degree}", tok.pos
            )

    def _charge(self, pairs: int, tok: _Token) -> None:
        """Count term-pair products before they are formed."""
        self.products += pairs
        if self.products > MAX_TERM_PRODUCTS:
            raise SymLangError(
                f"expansion exceeds {MAX_TERM_PRODUCTS} term products", tok.pos
            )

    def parse_term(self) -> SymbolPoly:
        acc = self.parse_factor()
        while self.peek().kind == "*":
            star = self.advance()
            factor = self.parse_factor()
            if self.max_degree is not None:
                self._check_degree(
                    acc.total_degree() + factor.total_degree(), "product", star
                )
            self._charge(len(acc._num) * len(factor._num), star)
            acc = acc * factor
        return acc

    def parse_factor(self) -> SymbolPoly:
        base = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise SymLangError(
                    "exponent must be a non-negative integer literal",
                    tok.pos if tok.kind != "eof" else caret.pos,
                )
            self.advance()
            exponent = int(tok.text)
            if exponent > MAX_EXPONENT:
                raise SymLangError(f"exponent exceeds limit {MAX_EXPONENT}", tok.pos)
            if self.max_degree is not None:
                self._check_degree(base.total_degree() * exponent, "power", caret)
            self._charge(_power_products(base, exponent), caret)
            return base ** exponent
        return base

    def parse_atom(self) -> SymbolPoly:
        self._enter()
        try:
            tok = self.peek()
            if tok.kind == "int":
                self.advance()
                num = int(tok.text)
                if self.peek().kind == "/":
                    self.advance()
                    den_tok = self.expect("int")
                    den = int(den_tok.text)
                    if den == 0:
                        raise SymLangError("zero denominator", den_tok.pos)
                    return self._constant(num, 0, den)
                return self._constant(num)
            if tok.kind == "ident":
                self.advance()
                return self._resolve_ident(tok)
            if tok.kind == "(":
                self.advance()
                inner = self.parse_expr()
                self.expect(")")
                return inner
            if tok.kind == "-":
                # negation applies after exponentiation so that the canonical
                # form "-x^2" round-trips as -(x^2)
                self.advance()
                return -self.parse_factor()
            raise SymLangError(
                f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
            )
        finally:
            self._leave()

    def _constant(self, re: int, im: int = 0, den: int = 1) -> SymbolPoly:
        """(re + i im)/den."""
        key = (0,) * (2 * self.dim + _N_SCALAR)
        return SymbolPoly._from_flat(self.dim, {key: (re, im)}, den)

    def _resolve_ident(self, tok: _Token) -> SymbolPoly:
        name = tok.text
        if name == "i":
            return self._constant(0, 1)
        if name == "hbar":
            return SymbolPoly.constant(self.dim, HBAR)
        if name[0] not in "xp":
            raise SymLangError(f"unknown identifier {name!r}", tok.pos)
        try:
            return SymbolPoly.variable(self.dim, name)
        except ValueError as exc:
            raise SymLangError(str(exc), tok.pos) from None


def _power_products(base: SymbolPoly, exponent: int) -> int:
    """An upper bound on the term-pair products of base^exponent, formed as
    exponent successive products by base.

    base^k has at most as many terms as there are multisets of k of base's n
    terms, and at most as many as there are keys in the box each of whose
    exponents ranges over k times that exponent's range in base.  The sum
    stops once it exceeds the budget.
    """
    n = len(base._num)
    spans = [max(column) - min(column) for column in zip(*base._num)]
    total = 0
    for k in range(exponent if n else 0):
        total += n * min(comb(n + k - 1, k), prod(k * span + 1 for span in spans))
        if total > MAX_TERM_PRODUCTS:
            break
    return total


def parse(text: str, dim: int = 1, max_degree: int | None = None) -> SymbolPoly:
    """Parse a symbol expression into canonical form.

    Raises SymLangError with a character position on any invalid input.
    With max_degree, a product or power whose degree would exceed it is
    rejected before it is expanded, and so is a result above it (a lone
    variable under max_degree 0).  Whatever the degree, a product or power
    that would take the parse past MAX_TERM_PRODUCTS term-pair products is
    rejected the same way, so the work stays bounded.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if not isinstance(text, str):
        raise TypeError("input must be a string")
    parser = _Parser(_tokenize(text), dim, max_degree)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise SymLangError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    if max_degree is not None:
        parser._check_degree(result.total_degree(), "symbol", parser.tokens[0])
    return result


# ---------------------------------------------------------------------------
# Formatter
# ---------------------------------------------------------------------------


def _format_rational(num: int, den: int) -> str:
    """num/den in lowest terms: "3" or "1/6"."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _coeff_factors(re: int, im: int, den: int) -> list[str]:
    """Factor strings for (re + i im)/den, sign already removed."""
    if im == 0:
        if re == den:
            return []
        s = _format_rational(re, den)
        return [f"({s})" if "/" in s else s]
    if re == 0:
        factors = []
        if im != den:
            s = _format_rational(im, den)
            factors.append(f"({s})" if "/" in s else s)
        factors.append("i")
        return factors
    im_part = f"{_format_rational(abs(im), den)}*i" if abs(im) != den else "i"
    sign = "+" if im > 0 else "-"
    return [f"({_format_rational(re, den)}{sign}{im_part})"]


def _var_factors(names, exps: tuple[int, ...]) -> list[str]:
    out = []
    for name, e in zip(names, exps):
        if e == 1:
            out.append(name)
        elif e > 1:
            out.append(f"{name}^{e}")
    return out


_SCALAR_NAMES = ("hbar", "tau")


def _sorted_entries(poly) -> list:
    """Flat-map entries in the order of the text and JSON output: graded-lex
    descending on the variables, (hbar, tau) ascending within a monomial."""
    m = poly._width
    items = sorted(poly._num.items(), key=lambda item: item[0][m:])
    items.sort(key=lambda item: (sum(item[0][:m]), item[0][:m]), reverse=True)
    return items


def _names(poly) -> list[str]:
    """Printed variable names of a flat map, block by block: bare x, p (and
    y) in one dimension, x1, x2, ... beyond; an OpPoly's carry "hat" after
    the block letter, as in xhat1."""
    hat = "hat" if isinstance(poly, OpPoly) else ""
    if poly.dim == 1:
        return [block + hat for block in poly.blocks]
    return [f"{block}{hat}{j + 1}" for block in poly.blocks for j in range(poly.dim)]


def _format_poly(poly) -> str:
    """Canonical text of a flat map, in the order of _sorted_entries; each
    term is its coefficient, then hbar, tau, then the variables."""
    names, den = _names(poly), poly._den
    m = len(names)
    items = _sorted_entries(poly)
    if not items:
        return "0"
    out = []
    for key, (re, im) in items:
        negative = re < 0 or (re == 0 and im < 0)
        if negative:
            re, im = -re, -im
        factors = (_coeff_factors(re, im, den) + _var_factors(_SCALAR_NAMES, key[m:])
                   + _var_factors(names, key[:m]))
        out.append(" - " if negative else " + ")
        out.append("*".join(factors) if factors else "1")
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def format_symbol(a: SymbolPoly) -> str:
    """Canonical string form; parse(format_symbol(a), a.dim) == a."""
    return _format_poly(a)


def format_operator(op: OpPoly) -> str:
    """Canonical text form of a normal-ordered operator polynomial."""
    return _format_poly(op)
