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

The parser works monomial-first.  A term folds its run of atoms (numbers,
i, hbar, variables and their powers) into one monomial, and forms a map
product only for parenthesised factors; a sum adds its terms into one map
over the lcm of their denominators.  Zero entries are dropped and the gcd
divided out once per sum or product, so the term-product budget counts the
same terms as a product of canonical symbols would, and each value carries
its degree, so the degree budget recomputes nothing.  Inside the parse a
key is one int of fixed-width slots, so the key of a term product is one
addition; the width comes from the text, as the bits of a bound on the
degree of every intermediate (see _field_width), and exact.py's codec
decodes the keys into flat tuples once, at the end.  The formatter makes the
text of each (variable, exponent) factor once per call and each term with
one join.  A numeral is read without its leading zeros, and one with more
digits than Python converts (sys.get_int_max_str_digits()) is an error at
its position.  A coefficient too long to print is an error too; the command
line finds it before the work where it is certain.
"""

from __future__ import annotations

import sys
from math import comb, gcd, lcm, prod

from .exact import SymbolPoly, _canonical, _slot_width, _unpack, parse_var
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
_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD = _LETTERS | _DIGITS

_Tokens = tuple[list[str], list[str], list[int]]


def _tokenize(text: str) -> _Tokens:
    """The kind, text and start position of each token, in three lists that
    end with an "eof" token at len(text).  A kind is "int", "ident" or the
    punctuation character."""
    kinds, texts, starts = [], [], []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if ch in _PUNCT:
            kind = ch
        # ASCII only: str.isdigit/isalnum accept characters like superscript
        # digits that int() rejects.
        elif ch in _DIGITS:
            while j < n and text[j] in _DIGITS:
                j += 1
            kind = "int"
        elif ch in _LETTERS:
            while j < n and text[j] in _WORD:
                j += 1
            kind = "ident"
        else:
            raise SymLangError(f"unexpected character {ch!r}", i)
        kinds.append(kind)
        texts.append(text[i:j])
        starts.append(i)
        i = j
    kinds.append("eof")
    texts.append("")
    starts.append(n)
    return kinds, texts, starts


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
#
# A value is a monomial (key, re, im, den) or a polynomial (num, deg, den):
# num maps keys to Gaussian-integer numerators (re, im) over den, with no
# zero entry, and deg is the total degree in x and p (0 for zero).  A key
# is one int of slots `width` bits wide: x_1..x_n, p_1..p_n, hbar, tau (the
# slots of the flat key, in its order), then the degree in x and p.  So the
# key of a product is one addition, and a polynomial's degree is its
# largest key shifted down.

_SIGNS = {"+": 1, "-": -1}


def _exponent_bound(text: str) -> int:
    """An exponent literal's value, counted as MAX_EXPONENT + 1 when it is
    larger: the parser rejects such a literal where it reaches it."""
    digits = text.lstrip("0")
    if len(digits) > len(str(MAX_EXPONENT)):
        return MAX_EXPONENT + 1
    return min(int(digits or "0"), MAX_EXPONENT + 1)


def _numeral(text: str, start: int) -> int:
    """An integer literal's value.  Python converts at most
    sys.get_int_max_str_digits() digits, leading zeros included, so past
    that the zeros are dropped, and only a numeral still too long is an
    error, at its position."""
    try:
        return int(text)
    except ValueError:  # past Python's limit on the digits of converted ints
        digits = text.lstrip("0")
        limit = sys.get_int_max_str_digits()
        if len(digits) > limit:
            raise SymLangError(f"numeral has more than {limit} digits", start) from None
        return int(digits or "0")


# the tokens after which a '-' is unary
_BEFORE_UNARY = frozenset(("(", "*", "^", "/", "+", "-"))


def _field_width(kinds: list[str], texts: list[str]) -> int:
    """Bits per key slot: those of a bound on the total degree (hbar
    included) of every intermediate, and one spare bit.  Without a power
    the identifier count is such a bound.  Otherwise one pass over the
    tokens computes it: an identifier counts 1, a number 0, a product adds,
    a sum takes the larger and a power multiplies by its exponent literal.
    Adjacent atoms add, as a product would, so a text the parser rejects
    still bounds what it forms before the error."""
    if "^" not in kinds:
        return _slot_width(kinds.count("ident"))
    outer = []  # (largest term, current term) of each enclosing group
    largest = term = factor = 0
    prev = "("
    for kind, text in zip(kinds, texts):
        if kind == "int" and prev == "^":
            factor *= max(1, _exponent_bound(text))
        elif kind == "ident" or kind == "int":
            term += factor
            factor = 1 if kind == "ident" else 0
        elif kind == "(":
            outer.append((largest, term + factor))
            largest = term = factor = 0
        elif kind == "+" or (kind == "-" and prev not in _BEFORE_UNARY):
            largest = max(largest, term + factor)
            term = factor = 0
        elif kind == ")" or kind == "eof":
            # an unmatched ")" ends the parse; at the end, close every group
            while outer:
                factor = max(largest, term + factor)
                largest, term = outer.pop()
                if kind == ")":
                    break
        prev = kind
    return _slot_width(max(largest, term + factor))


def _size(value) -> int:
    """Term count."""
    if len(value) == 4:
        return 1 if value[1] or value[2] else 0
    return len(value[0])


def _negate(value):
    if len(value) == 4:
        key, re, im, den = value
        return key, -re, -im, den
    num, deg, den = value
    return {key: (-re, -im) for key, (re, im) in num.items()}, deg, den


def _gaussian_power(re: int, im: int, n: int) -> tuple[int, int]:
    """(re + i im)^n."""
    if not im:
        return re ** n, 0
    out_re, out_im = 1, 0
    for _ in range(n):
        out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
    return out_re, out_im


def _product(a, b):
    """Product of two polynomials, zero entries dropped and reduced."""
    (n1, g1, d1), (n2, g2, d2) = a, b
    out = {}
    get = out.get
    for k1, (re1, im1) in n1.items():
        for k2, (re2, im2) in n2.items():
            key = k1 + k2
            re, im = re1 * re2 - im1 * im2, re1 * im2 + im1 * re2
            prev = get(key)
            out[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    num, den = _canonical(out, d1 * d2)
    # exact: leading forms multiply in an integral domain
    return num, g1 + g2 if num else 0, den


class _Parser:
    def __init__(self, tokens: _Tokens, dim: int, max_degree: int | None):
        self.kinds, self.texts, self.starts = tokens
        self.pos = 0  # the index of the next token
        self.dim = dim
        self.depth = 0
        self.max_degree = max_degree
        self.products = 0
        width = self.width = _field_width(self.kinds, self.texts)
        self.deg_shift = (2 * dim + 2) * width
        # the monomial of each identifier read so far
        self.atoms = {"i": (0, 0, 1, 1), "hbar": (1 << 2 * dim * width, 1, 0, 1)}

    def advance(self) -> int:
        """The next token's index, which the parser then passes."""
        self.pos += 1
        return self.pos - 1

    def expect(self, kind: str) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            raise SymLangError(
                f"expected {kind!r}, found {self.texts[i] or 'end of input'!r}", self.starts[i]
            )
        return self.advance()

    def _enter(self):
        # no matching decrement on an error: it ends the parse
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise SymLangError("expression too deeply nested", self.starts[self.pos])

    def _degree(self, value) -> int:
        if len(value) == 4:
            key, re, im, _ = value
            return key >> self.deg_shift if re or im else 0
        return value[1]

    def _check_degree(self, degree: int, what: str, start: int) -> None:
        if degree > self.max_degree:
            raise SymLangError(
                f"{what} degree {degree} exceeds max degree {self.max_degree}", start
            )

    def _charge(self, pairs: int, start: int) -> None:
        """Count term-pair products before they are formed."""
        self.products += pairs
        if self.products > MAX_TERM_PRODUCTS:
            raise SymLangError(
                f"expansion exceeds {MAX_TERM_PRODUCTS} term products", start
            )

    def parse_expr(self):
        """The terms summed into one map over the lcm of their denominators."""
        self._enter()
        kinds = self.kinds
        terms = [(self.parse_term(), 1)]
        sign = _SIGNS.get(kinds[self.pos])
        while sign:
            self.pos += 1
            terms.append((self.parse_term(), sign))
            sign = _SIGNS.get(kinds[self.pos])
        self.depth -= 1
        if len(terms) == 1:
            return terms[0][0]
        den = lcm(*[value[-1] for value, _ in terms])
        out = {}
        get = out.get
        for value, sign in terms:
            f = den // value[-1] * sign
            entries = value[0].items() if len(value) == 3 else ((value[0], value[1:3]),)
            for key, (re, im) in entries:
                if f != 1:
                    re, im = re * f, im * f
                prev = get(key)
                out[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        num, den = _canonical(out, den)
        return num, max(num) >> self.deg_shift if num else 0, den

    def parse_term(self):
        """The factors' monomials multiplied into one, times the product of
        the polynomial factors, so a run of atoms costs no map product.  The
        budgets are checked at each '*' on the product so far, as if it were
        formed there."""
        key, re, im, den = 0, 1, 0, 1
        poly = None
        star = None
        kinds = self.kinds
        while True:
            factor = self.parse_atom()
            if kinds[self.pos] == "^":
                factor = self._power(factor)
            if star is not None:
                # the product so far is the monomial times poly
                size = (1 if re or im else 0) * (1 if poly is None else len(poly[0]))
                if self.max_degree is not None:
                    degree = (key >> self.deg_shift) + (0 if poly is None else poly[1])
                    self._check_degree((degree if size else 0) + self._degree(factor),
                                       "product", star)
                self._charge(size * _size(factor), star)
            if len(factor) == 4:
                k, r, i, d = factor
                key += k
                den *= d
                re, im = re * r - im * i, re * i + im * r
            elif poly is None:
                poly = factor
            elif re or im:  # a zero monomial makes the term zero
                poly = _product(poly, factor)
            if kinds[self.pos] != "*":
                break
            star = self.starts[self.advance()]
        if poly is None:
            return key, re, im, den
        if not (re or im) or not poly[0]:
            return {}, 0, 1
        if key == 0 and re == 1 and im == 0 and den == 1:
            return poly
        num, deg, d = poly
        num = {k + key: (a * re - b * im, a * im + b * re) for k, (a, b) in num.items()}
        return num, deg + (key >> self.deg_shift), d * den

    def parse_factor(self):
        base = self.parse_atom()
        return self._power(base) if self.kinds[self.pos] == "^" else base

    def _power(self, base):
        """base ^ the exponent literal at the next tokens."""
        caret = self.starts[self.advance()]
        i = self.pos
        if self.kinds[i] != "int":
            raise SymLangError(
                "exponent must be a non-negative integer literal",
                self.starts[i] if self.kinds[i] != "eof" else caret,
            )
        self.advance()
        exponent = _exponent_bound(self.texts[i])
        if exponent > MAX_EXPONENT:
            raise SymLangError(f"exponent exceeds limit {MAX_EXPONENT}", self.starts[i])
        if self.max_degree is not None:
            self._check_degree(self._degree(base) * exponent, "power", caret)
        if len(base) == 4:
            key, re, im, den = base
            self._charge(exponent if re or im else 0, caret)
            return (key * exponent, *_gaussian_power(re, im, exponent), den ** exponent)
        self._charge(_power_products(self.finish(base), exponent), caret)
        if exponent == 0:
            return 0, 1, 0, 1
        power = base
        for _ in range(exponent - 1):
            power = _product(power, base)
        return power

    def parse_atom(self):
        i = self.pos
        kind, text, start = self.kinds[i], self.texts[i], self.starts[i]
        if kind == "int" or kind == "ident":
            if self.depth >= MAX_DEPTH:
                raise SymLangError("expression too deeply nested", start)
            self.pos += 1
            if kind == "ident":
                atom = self.atoms.get(text)
                if atom is None:
                    atom = self.atoms[text] = self._variable(text, start)
                return atom
            num = _numeral(text, start)
            if self.kinds[self.pos] != "/":
                return 0, num, 0, 1
            self.pos += 1
            d = self.expect("int")
            den = _numeral(self.texts[d], self.starts[d])
            if den == 0:
                raise SymLangError("zero denominator", self.starts[d])
            return 0, num, 0, den
        self._enter()
        if kind == "(":
            self.pos += 1
            value = self.parse_expr()
            self.expect(")")
        elif kind == "-":
            # negation applies after exponentiation so that the canonical
            # form "-x^2" round-trips as -(x^2)
            self.pos += 1
            value = _negate(self.parse_factor())
        else:
            raise SymLangError(f"expected a value, found {text or 'end of input'!r}", start)
        self.depth -= 1
        return value

    def _variable(self, name: str, start: int):
        if name[0] not in "xp":
            raise SymLangError(f"unknown identifier {name!r}", start)
        try:
            block, j = parse_var(name, self.dim)
        except ValueError as exc:
            raise SymLangError(str(exc), start) from None
        slot = j if block == "x" else self.dim + j
        return (1 << slot * self.width) + (1 << self.deg_shift), 1, 0, 1

    def finish(self, value) -> SymbolPoly:
        """The symbol of a value, its keys decoded into flat tuples."""
        if len(value) == 4:
            key, re, im, den = value
            value = {key: (re, im)}, 0, den
        num, _, den = value
        flat = _unpack(num, 2 * self.dim + 2, self.width)
        return SymbolPoly._from_flat(self.dim, flat, den)


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
    value = parser.parse_expr()
    i = parser.pos
    if parser.kinds[i] != "eof":
        raise SymLangError(f"unexpected trailing input {parser.texts[i]!r}", parser.starts[i])
    if max_degree is not None:
        parser._check_degree(parser._degree(value), "symbol", parser.starts[0])
    return parser.finish(value)


# ---------------------------------------------------------------------------
# Formatter
# ---------------------------------------------------------------------------


def _format_rational(num: int, den: int) -> str:
    """num/den in lowest terms: "3" or "1/6", as str(Fraction(num, den))."""
    g = gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past Python's limit on the digits of printed ints
        raise ValueError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits, "
            "too many to print"
        ) from None


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
    term is its coefficient, then hbar, tau, then the variables.  The text
    of each (slot, exponent) factor is made once per call."""
    m, den = poly._width, poly._den
    names = _names(poly) + list(_SCALAR_NAMES)  # by slot of the flat key
    order = (m, m + 1, *range(m))
    items = _sorted_entries(poly)
    if not items:
        return "0"
    factor_text = [{1: name} for name in names]  # [slot][exponent]
    out = []
    for key, (re, im) in items:
        negative = re < 0 or (re == 0 and im < 0)
        if negative:
            re, im = -re, -im
        factors = _coeff_factors(re, im, den)
        for slot in order:
            e = key[slot]
            if e:
                texts = factor_text[slot]
                text = texts.get(e)
                if text is None:
                    text = texts[e] = f"{names[slot]}^{e}"
                factors.append(text)
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
