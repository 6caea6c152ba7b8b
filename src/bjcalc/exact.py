"""Exact arithmetic substrate: Gaussian-rational scalars with formal hbar
and the ordering parameter tau, and sparse multivariate polynomials.

Scalars and polynomials (SymbolPoly, AmplitudePoly, and the OpPoly of
operators.py) share one storage form: all terms in one flat map.  The three
polynomial kinds share one class, `_BlockPoly`, with one set of constructors;
they differ in their blocks and, for OpPoly, in the product.  Each key
concatenates the exponents of the variable blocks and of the scalar
variables,

    x_1..x_n, [y_1..y_n,] p_1..p_n, hbar, tau,

and each value is a Gaussian-integer numerator (re, im) of Python ints; the
whole map shares one positive denominator.  The form is canonical: no entry
is (0, 0), gcd(denominator, every numerator) = 1, and the zero map has
denominator 1.  Every operation builds its result over a common denominator
and reduces it with one gcd pass, so `==` and `hash` compare the
denominator and the map.  A term product is then a tuple sum and two or
four int products, with no Fraction arithmetic.

`_collect` is the one kernel for weighted sums over a common denominator:
the quantizer, the amplitude route, the D series of transforms.py, the tau
integral and tau substitution all hand it their parts.

ExactScalar, an element of Q(i)[hbar, tau], is the flat map with no
variable blocks: its keys are (hbar, tau).  It is the value type at the
public boundary: what `terms` returns and what the polynomial constructors
accept.  Its own `terms` gives each
coefficient as a pair of Fractions (re, im).

Everything here is immutable and exact; no floating point enters this layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Mapping, Union

RationalLike = Union[int, Fraction]

# A scalar key: the exponents of hbar and of tau, the ordering parameter
# that tau-averaging integrates over.
ScalarKey = tuple[int, int]


def _as_fraction(v: RationalLike) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


# ---------------------------------------------------------------------------
# Sparse polynomials: one flat map of integer numerators over one denominator
# ---------------------------------------------------------------------------

VarId = tuple[str, int]  # e.g. ("x", 0) is x_1
MultiIndex = tuple[int, ...]  # one block's exponents, e.g. (2, 0) is x_1^2

# Flat key: the block exponents, then these scalar slots (hbar, tau).
_N_SCALAR = 2

FlatMap = dict[tuple[int, ...], tuple[int, int]]


def _require_int(value, name: str) -> None:
    """Reject anything but an int, bools included, for an integer parameter."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def parse_var(var: Union[str, VarId], dim: int) -> VarId:
    """Accept ("x", j), "x2", or bare "x"/"p"/"y" in one dimension.  A
    written index is ASCII digits only."""
    if isinstance(var, tuple):
        block, j = var
        _require_int(j, "variable index")
    else:
        block, suffix = var[:1], var[1:]
        if suffix.isascii() and suffix.isdigit():
            j = int(suffix) - 1
        elif suffix:
            raise ValueError(f"malformed variable name {var!r}")
        elif dim == 1:
            j = 0
        else:
            raise ValueError(f"variable {var!r} needs an index in dimension {dim}")
    if not 0 <= j < dim:
        raise ValueError(f"variable index out of range for dimension {dim}: {var!r}")
    return (block, j)


def _canonical(num: FlatMap, den: int) -> tuple[FlatMap, int]:
    """Drop zero entries and divide out gcd(den, every numerator)."""
    g = den
    zeros = []
    for key, (re, im) in num.items():
        if re or im:
            if g != 1:
                g = gcd(g, re, im)
        else:
            zeros.append(key)
    for key in zeros:
        del num[key]
    if not num:
        return num, 1
    if g != 1:
        num = {key: (re // g, im // g) for key, (re, im) in num.items()}
    return num, den // g


def _scalar_map(coeff: ExactScalar, width: int) -> tuple[FlatMap, int]:
    """An ExactScalar as a flat map with `width` zero block exponents."""
    zero = (0,) * width
    return {zero + key: value for key, value in coeff._num.items()}, coeff._den


def _add_maps(n1: FlatMap, d1: int, n2: FlatMap, d2: int) -> tuple[FlatMap, int]:
    """n1/d1 + n2/d2 over lcm(d1, d2), not yet canonical."""
    g = gcd(d1, d2)
    m1, m2 = d2 // g, d1 // g
    out = dict(n1) if m1 == 1 else {k: (a * m1, b * m1) for k, (a, b) in n1.items()}
    get = out.get
    for key, (c, d) in n2.items():
        if m2 != 1:
            c, d = c * m2, d * m2
        prev = get(key)
        out[key] = (c, d) if prev is None else (prev[0] + c, prev[1] + d)
    return out, d1 * m1


def _mul_maps(n1: FlatMap, n2: FlatMap) -> FlatMap:
    """Commutative product of two numerator maps: keys add, values multiply."""
    out: FlatMap = {}
    get = out.get
    for k1, (a, b) in n1.items():
        for k2, (c, d) in n2.items():
            key = tuple(map(add, k1, k2))
            if b or d:
                re, im = a * c - b * d, a * d + b * c
            else:
                re, im = a * c, 0
            prev = get(key)
            out[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return out


def _rotate(re: int, im: int, j: int) -> tuple[int, int]:
    """(re + i im) (-i)^j."""
    j %= 4
    if j == 0:
        return re, im
    if j == 1:
        return im, -re
    if j == 2:
        return -re, -im
    return -im, re


def _slot_width(bound: int) -> int:
    """Bits per packed slot when no slot exceeds `bound`, and one spare bit."""
    return bound.bit_length() + 1


def _pack(key: tuple[int, ...], width: int) -> int:
    """sum key[i] 2^(i width).  The packing is linear: a sum of packed keys and
    shifts decodes right when each slot of the sum lies in [0, 2^width)."""
    return sum(e << i * width for i, e in enumerate(key))


def _unpack(num: dict, slots: int, width: int) -> FlatMap:
    """num with its packed keys cut into flat keys of their low `slots` slots."""
    mask, keys = (1 << width) - 1, list(num)
    columns = [[key >> shift & mask for key in keys] for shift in range(0, slots * width, width)]
    return dict(zip(zip(*columns), num.values()))


# A polynomial in tau: ({power: integer numerator}, positive denominator).
Weight = tuple[dict[int, int], int]


def _collect(parts: list, den: int) -> tuple[dict, int]:
    """Sum parts (head, hbar, tau, re, im, *weight) into one flat map over
    den times the lcm of the weight denominators; weight numerator m shifts
    the tau exponent by m."""
    common = lcm(*{part[-1] for part in parts})
    out: dict[tuple, tuple[int, int]] = {}
    for head, hbar, tau, re, im, w, w_den in parts:
        f = common // w_den
        for m, wm in w.items():
            if wm:
                key = head + (hbar, tau + m)
                g = wm * f
                prev = out.get(key, (0, 0))
                out[key] = (prev[0] + re * g, prev[1] + im * g)
    return out, den * common


class _FlatPoly:
    """Storage and ring operations shared by scalars, symbols, amplitudes and
    normal-ordered operators.

    `_num` maps flat keys (block exponents, then hbar, tau) to Gaussian
    integers (re, im); the coefficient of a key is (re + i im) / `_den`.  The
    pair is kept canonical (see the module docstring), so equality compares
    the denominator and the map.
    """

    blocks: tuple[str, ...] = ()

    __slots__ = ("dim", "_num", "_den")

    @classmethod
    def _from_flat(cls, dim: int, num: FlatMap, den: int):
        """Wrap a numerator map over a positive denominator, canonicalizing it."""
        out = object.__new__(cls)
        out.dim = dim
        out._num, out._den = _canonical(num, den)
        return out

    @property
    def _width(self) -> int:
        return self.dim * len(self.blocks)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def has_aux(self) -> bool:
        return any(key[-1] for key in self._num)

    # -- linear operations -------------------------------------------------

    def _check_compatible(self, other: "_FlatPoly") -> None:
        if type(self) is not type(other) or self.dim != other.dim:
            raise ValueError("incompatible polynomial operands")

    def __add__(self, other):
        self._check_compatible(other)
        return self._from_flat(
            self.dim, *_add_maps(self._num, self._den, other._num, other._den)
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = object.__new__(type(self))
        out.dim, out._den = self.dim, self._den
        out._num = {key: (-re, -im) for key, (re, im) in self._num.items()}
        return out

    def __mul__(self, other):
        """Commutative product; OpPoly overrides it with the operator product."""
        self._check_compatible(other)
        return self._from_flat(
            self.dim, _mul_maps(self._num, other._num), self._den * other._den
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self._from_flat(self.dim, {(0,) * (self._width + _N_SCALAR): (1, 0)}, 1)
        for _ in range(n):
            result = result * self
        return result

    # -- tau operations ----------------------------------------------------

    def integrate_unit_interval(self):
        """Coefficientwise exact integral of tau over [0,1]: tau^t becomes 1/(t+1)."""
        m = self._width
        parts = [(key[:m], key[m], 0, re, im, {0: 1}, key[m + 1] + 1)
                 for key, (re, im) in self._num.items()]
        return self._from_flat(self.dim, *_collect(parts, self._den))

    def substitute_aux(self, value: RationalLike):
        """tau^t becomes value^t."""
        value = _as_fraction(value)
        vn, vd = value.numerator, value.denominator
        m = self._width
        parts = [(key[:m], key[m], 0, re, im, {0: vn ** key[m + 1]}, vd ** key[m + 1])
                 for key, (re, im) in self._num.items()]
        return self._from_flat(self.dim, *_collect(parts, self._den))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _FlatPoly):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.dim == other.dim
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.dim, self._den,
                     frozenset(self._num.items())))

    def __repr__(self) -> str:
        """Kind(canonical text), e.g. SymbolPoly(x*p - (1/2)*i*hbar)."""
        from .symlang import _format_poly

        return f"{type(self).__name__}({_format_poly(self)})"


class ExactScalar(_FlatPoly):
    """An element of Q(i)[hbar, tau]: the flat map with no variable blocks.

    Keys are (hbar, tau) exponent pairs, and `dim` is 0.  `terms` gives
    each nonzero coefficient as a pair of Fractions (re, im).
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[ScalarKey, tuple[RationalLike, RationalLike]] = ()):
        items = []
        for key, (re, im) in dict(terms).items():
            if not (isinstance(key, tuple) and len(key) == _N_SCALAR
                    and all(isinstance(e, int) and e >= 0 for e in key)):
                raise ValueError(
                    f"malformed scalar key {key!r}: expected two non-negative ints"
                )
            items.append((key, _as_fraction(re), _as_fraction(im)))
        den = lcm(*(q.denominator for _, re, im in items for q in (re, im)))
        self.dim = 0
        self._num, self._den = _canonical({
            key: (re.numerator * (den // re.denominator),
                  im.numerator * (den // im.denominator))
            for key, re, im in items
        }, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactScalar":
        return cls()

    @classmethod
    def one(cls) -> "ExactScalar":
        return cls.rational(1)

    @classmethod
    def rational(cls, re: RationalLike, im: RationalLike = 0) -> "ExactScalar":
        return cls({(0, 0): (re, im)})

    @classmethod
    def i(cls) -> "ExactScalar":
        return cls.rational(0, 1)

    @classmethod
    def hbar(cls, power: int = 1) -> "ExactScalar":
        return cls({(power, 0): (1, 0)})

    @classmethod
    def tau(cls) -> "ExactScalar":
        return cls({(0, 1): (1, 0)})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[ScalarKey, tuple[Fraction, Fraction]]:
        den = self._den
        return {key: (Fraction(re, den), Fraction(im, den))
                for key, (re, im) in self._num.items()}

    # -- arithmetic --------------------------------------------------------

    def scale(self, q: RationalLike) -> "ExactScalar":
        return self * ExactScalar.rational(q)

    def conjugate(self) -> "ExactScalar":
        """Complex conjugation; hbar and tau are treated as real."""
        return ExactScalar._from_flat(
            0, {k: (re, -im) for k, (re, im) in self._num.items()}, self._den
        )

    # -- conversions -------------------------------------------------------

    def to_complex(self, hbar: float) -> complex:
        """Numeric value at a concrete hbar; requires no tau.

        Each coefficient is rounded once, from its exact Fraction.
        """
        if self.has_aux():
            raise ValueError("scalar still carries an auxiliary variable")
        total = 0j
        for (h, _), (re, im) in self.terms.items():
            total += complex(re, im) * hbar ** h
        return total


ONE = ExactScalar.one()
I = ExactScalar.i()
HBAR = ExactScalar.hbar()


class _BlockPoly(_FlatPoly):
    """A flat map with named variable blocks (x and p for symbols and
    operators, x, y and p for amplitudes): the constructors and queries that
    address terms by one multi-index per block.

    `terms` maps a tuple of per-block multi-indices to a scalar.
    """

    __slots__ = ()

    def __init__(self, dim: int, terms: Mapping[tuple, ExactScalar] = ()):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        nblocks = len(self.blocks)
        terms = dict(terms)
        den = lcm(*(coeff._den for coeff in terms.values()))
        num: FlatMap = {}
        for key, coeff in terms.items():
            if len(key) != nblocks or any(
                    len(e) != dim or not all(isinstance(v, int) and v >= 0 for v in e)
                    for e in key):
                raise ValueError(f"malformed term key {key!r} for {type(self).__name__}")
            prefix, f = tuple(v for e in key for v in e), den // coeff._den
            for skey, (re, im) in coeff._num.items():
                num[prefix + skey] = (re * f, im * f)
        self._num, self._den = _canonical(num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int):
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, coeff: ExactScalar):
        return cls._from_flat(dim, *_scalar_map(coeff, dim * len(cls.blocks)))

    @classmethod
    def monomial(cls, dim: int, coeff: ExactScalar = ONE, **exponents: MultiIndex):
        """e.g. SymbolPoly.monomial(1, x=(2,), p=(2,))."""
        key = []
        for block in cls.blocks:
            e = exponents.pop(block, None)
            key.append(tuple(e) if e is not None else (0,) * dim)
        if exponents:
            raise ValueError(f"unknown blocks {sorted(exponents)} for {cls.__name__}")
        return cls(dim, {tuple(key): coeff})

    @classmethod
    def variable(cls, dim: int, var: Union[str, VarId]):
        block, j = parse_var(var, dim)
        if block not in cls.blocks:
            raise ValueError(f"{cls.__name__} has no block {block!r}")
        key = [0] * (dim * len(cls.blocks) + _N_SCALAR)
        key[cls.blocks.index(block) * dim + j] = 1
        return cls._from_flat(dim, {tuple(key): (1, 0)}, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple, ExactScalar]:
        n, m, den = self.dim, self._width, self._den
        grouped: dict[tuple, FlatMap] = {}
        for key, value in self._num.items():
            mono = tuple(key[i:i + n] for i in range(0, m, n))
            grouped.setdefault(mono, {})[key[m:]] = value
        return {mono: ExactScalar._from_flat(0, num, den) for mono, num in grouped.items()}

    def total_degree(self) -> int:
        m = self._width
        return max((sum(key[:m]) for key in self._num), default=0)

    # -- linear operations -------------------------------------------------

    def scale(self, coeff: ExactScalar):
        snum, sden = _scalar_map(coeff, self._width)
        return self._from_flat(self.dim, _mul_maps(self._num, snum), self._den * sden)


class SymbolPoly(_BlockPoly):
    """Classical observable: polynomial in (x, p)."""

    blocks = ("x", "p")

    __slots__ = ()


class AmplitudePoly(_BlockPoly):
    """Amplitude b(x, y, p): polynomial with two spatial argument blocks."""

    blocks = ("x", "y", "p")

    __slots__ = ()
