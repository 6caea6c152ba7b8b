"""Exact arithmetic substrate: Gaussian-rational scalars with formal hbar
(plus auxiliary integration variables) and sparse multivariate polynomials.

Everything here is immutable and exact; no floating point enters this layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]

# Scalar exponent slots: (hbar, tau, t).  tau and t are the auxiliary
# variables used for tau-averaging and for nested unit-interval integrals.
_HBAR, _TAU, _T = 0, 1, 2
_AUX_SLOTS = {"tau": _TAU, "t": _T}

ScalarKey = tuple[int, int, int]

_ZERO = Fraction(0)


def _as_fraction(v: RationalLike) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class ExactScalar:
    """An element of Q(i)[hbar, tau, t].

    Stored as a sparse map from (hbar, tau, t) exponent triples to Gaussian
    rationals (re, im).  Zero coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ScalarKey, tuple[Fraction, Fraction]] = ()):
        cleaned = {}
        for key, (re, im) in dict(terms).items():
            if re or im:
                cleaned[key] = (re, im)
        self._terms = cleaned

    @classmethod
    def _from_clean(
        cls, terms: dict[ScalarKey, tuple[Fraction, Fraction]]
    ) -> "ExactScalar":
        """Wrap a dict that already holds no zero coefficient, without copying."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactScalar":
        return cls()

    @classmethod
    def one(cls) -> "ExactScalar":
        return cls.rational(1)

    @classmethod
    def rational(cls, re: RationalLike, im: RationalLike = 0) -> "ExactScalar":
        return cls({(0, 0, 0): (_as_fraction(re), _as_fraction(im))})

    @classmethod
    def i(cls) -> "ExactScalar":
        return cls.rational(0, 1)

    @classmethod
    def hbar(cls, power: int = 1) -> "ExactScalar":
        return cls({(power, 0, 0): (Fraction(1), Fraction(0))})

    @classmethod
    def aux(cls, name: str, power: int = 1) -> "ExactScalar":
        slot = _AUX_SLOTS[name]
        key = [0, 0, 0]
        key[slot] = power
        return cls({tuple(key): (Fraction(1), Fraction(0))})

    @classmethod
    def tau(cls) -> "ExactScalar":
        return cls.aux("tau")

    @classmethod
    def t_var(cls) -> "ExactScalar":
        return cls.aux("t")

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[ScalarKey, tuple[Fraction, Fraction]]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def has_aux(self) -> bool:
        return any(k[_TAU] or k[_T] for k in self._terms)

    def aux_degree(self, name: str) -> int:
        slot = _AUX_SLOTS[name]
        return max((k[slot] for k in self._terms), default=0)

    def is_real(self) -> bool:
        return all(im == 0 for (_, im) in self._terms.values())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        out = dict(self._terms)
        for key, value in other._terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = value
                continue
            re, im = prev[0] + value[0], prev[1] + value[1]
            if re or im:
                out[key] = (re, im)
            else:
                del out[key]
        return ExactScalar._from_clean(out)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar._from_clean(
            {k: (-re, -im) for k, (re, im) in self._terms.items()}
        )

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        out: dict[ScalarKey, tuple[Fraction, Fraction]] = {}
        for k1, (a, b) in self._terms.items():
            for k2, (c, d) in other._terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                # (a + bi)(c + di), skipping the products with a zero factor
                re = a * c if a and c else _ZERO
                im = a * d if a and d else _ZERO
                if b:
                    if d:
                        re -= b * d
                    if c:
                        im += b * c
                prev = out.get(key)
                if prev is not None:
                    re, im = prev[0] + re, prev[1] + im
                    if not (re or im):
                        del out[key]
                        continue
                out[key] = (re, im)
        return ExactScalar._from_clean(out)

    def __pow__(self, n: int) -> "ExactScalar":
        if n < 0:
            raise ValueError("negative scalar powers are not defined")
        result = ExactScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, q: RationalLike) -> "ExactScalar":
        q = _as_fraction(q)
        if not q:
            return ExactScalar()
        return ExactScalar._from_clean(
            {k: (re * q, im * q) for k, (re, im) in self._terms.items()}
        )

    def conjugate(self) -> "ExactScalar":
        """Complex conjugation; hbar, tau and t are treated as real."""
        return ExactScalar._from_clean(
            {k: (re, -im) for k, (re, im) in self._terms.items()}
        )

    # -- auxiliary-variable operations ------------------------------------

    def integrate_unit(self, name: str) -> "ExactScalar":
        """Exact integral over the named auxiliary variable from 0 to 1."""
        slot = _AUX_SLOTS[name]
        out: dict[ScalarKey, tuple[Fraction, Fraction]] = {}
        for key, (re, im) in self._terms.items():
            k = key[slot]
            nk = list(key)
            nk[slot] = 0
            nkey = tuple(nk)
            q = Fraction(1, k + 1)
            cre, cim = out.get(nkey, (Fraction(0), Fraction(0)))
            out[nkey] = (cre + re * q, cim + im * q)
        return ExactScalar(out)

    def substitute_aux(self, name: str, value: RationalLike) -> "ExactScalar":
        slot = _AUX_SLOTS[name]
        value = _as_fraction(value)
        out: dict[ScalarKey, tuple[Fraction, Fraction]] = {}
        for key, (re, im) in self._terms.items():
            q = value ** key[slot]
            nk = list(key)
            nk[slot] = 0
            nkey = tuple(nk)
            cre, cim = out.get(nkey, (Fraction(0), Fraction(0)))
            out[nkey] = (cre + re * q, cim + im * q)
        return ExactScalar(out)

    # -- conversions -------------------------------------------------------

    def to_complex(self, hbar: float) -> complex:
        """Numeric value at a concrete hbar; requires no auxiliary variables."""
        if self.has_aux():
            raise ValueError("scalar still carries an auxiliary variable")
        total = 0j
        for key, (re, im) in self._terms.items():
            total += complex(re, im) * hbar ** key[_HBAR]
        return total

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "ExactScalar(0)"
        parts = []
        for key in sorted(self._terms):
            re, im = self._terms[key]
            mono = "".join(
                f"*{name}^{key[slot]}"
                for name, slot in (("hbar", _HBAR), ("tau", _TAU), ("t", _T))
                if key[slot]
            )
            parts.append(f"({re}{'+' if im >= 0 else '-'}{abs(im)}i){mono}")
        return "ExactScalar(" + " + ".join(parts) + ")"


ONE = ExactScalar.one()
I = ExactScalar.i()
HBAR = ExactScalar.hbar()


# ---------------------------------------------------------------------------
# Multi-index helpers (plain tuples of non-negative ints)
# ---------------------------------------------------------------------------

MultiIndex = tuple[int, ...]


def mi_abs(alpha: MultiIndex) -> int:
    return sum(alpha)


def mi_factorial(alpha: MultiIndex) -> int:
    return prod(factorial(a) for a in alpha)


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    out = tuple(x - y for x, y in zip(a, b))
    if any(v < 0 for v in out):
        raise ValueError(f"multi-index subtraction {a} - {b} went negative")
    return out


def mi_le(a: MultiIndex, b: MultiIndex) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mi_iter_box(bounds: MultiIndex) -> Iterable[MultiIndex]:
    """All multi-indices alpha with alpha_j <= bounds_j."""
    if not bounds:
        yield ()
        return
    for head in range(bounds[0] + 1):
        for rest in mi_iter_box(bounds[1:]):
            yield (head,) + rest


def falling_factorial(n: int, k: int) -> int:
    return prod(n - j for j in range(k))


# ---------------------------------------------------------------------------
# Sparse commutative polynomials with named variable blocks
# ---------------------------------------------------------------------------

VarId = tuple[str, int]  # e.g. ("x", 0) is x_1


def parse_var(var: Union[str, VarId], dim: int) -> VarId:
    """Accept ("x", j), "x2", or bare "x"/"p"/"y" in one dimension."""
    if isinstance(var, tuple):
        block, j = var
    else:
        block = var[0]
        suffix = var[1:]
        if suffix:
            j = int(suffix) - 1
        elif dim == 1:
            j = 0
        else:
            raise ValueError(f"variable {var!r} needs an index in dimension {dim}")
    if not 0 <= j < dim:
        raise ValueError(f"variable index out of range for dimension {dim}: {var!r}")
    return (block, j)


class Poly:
    """Commutative sparse polynomial over ExactScalar with named exponent
    blocks (e.g. x and p for symbols, x, y and p for amplitudes).

    Terms map a tuple of per-block multi-indices to a scalar.  Canonical form:
    no zero coefficients; block layout fixed by the subclass.
    """

    blocks: tuple[str, ...] = ()

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[tuple, ExactScalar] = ()):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        cleaned = {}
        for key, coeff in dict(terms).items():
            if len(key) != len(self.blocks) or any(len(e) != dim for e in key):
                raise ValueError(f"malformed term key {key!r} for {type(self).__name__}")
            if not coeff.is_zero():
                cleaned[key] = coeff
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, coeff: ExactScalar) -> "Poly":
        key = tuple((0,) * dim for _ in cls.blocks)
        return cls(dim, {key: coeff})

    @classmethod
    def monomial(cls, dim: int, coeff: ExactScalar = ONE, **exponents: MultiIndex) -> "Poly":
        """e.g. SymbolPoly.monomial(1, x=(2,), p=(2,))."""
        key = []
        for block in cls.blocks:
            e = exponents.pop(block, None)
            key.append(tuple(e) if e is not None else (0,) * dim)
        if exponents:
            raise ValueError(f"unknown blocks {sorted(exponents)} for {cls.__name__}")
        return cls(dim, {tuple(key): coeff})

    @classmethod
    def variable(cls, dim: int, var: Union[str, VarId]) -> "Poly":
        block, j = parse_var(var, dim)
        if block not in cls.blocks:
            raise ValueError(f"{cls.__name__} has no block {block!r}")
        e = [0] * dim
        e[j] = 1
        return cls.monomial(dim, ONE, **{block: tuple(e)})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple, ExactScalar]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        return max((sum(mi_abs(e) for e in key) for key in self._terms), default=0)

    def block_degree(self, block: str, j: int | None = None) -> int:
        bi = self.blocks.index(block)
        if j is None:
            return max((mi_abs(key[bi]) for key in self._terms), default=0)
        return max((key[bi][j] for key in self._terms), default=0)

    def coefficient(self, key: tuple) -> ExactScalar:
        return self._terms.get(key, ExactScalar.zero())

    def has_aux(self) -> bool:
        return any(c.has_aux() for c in self._terms.values())

    # -- arithmetic --------------------------------------------------------

    def _like(self, terms: Mapping[tuple, ExactScalar]) -> "Poly":
        return type(self)(self.dim, terms)

    def _check_compatible(self, other: "Poly") -> None:
        if type(self) is not type(other) or self.dim != other.dim:
            raise ValueError("incompatible polynomial operands")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            out[key] = out.get(key, ExactScalar.zero()) + coeff
        return self._like(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return self._like({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out: dict[tuple, ExactScalar] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = tuple(mi_add(a, b) for a, b in zip(k1, k2))
                acc = out.get(key)
                prodc = c1 * c2
                out[key] = prodc if acc is None else acc + prodc
        return self._like(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = type(self).constant(self.dim, ONE)
        for _ in range(n):
            result = result * self
        return result

    def scale(self, coeff: ExactScalar) -> "Poly":
        return self._like({k: c * coeff for k, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.dim == other.dim
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.dim, frozenset(self._terms.items())))

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: Union[str, VarId], order: int = 1) -> "Poly":
        """Exact partial derivative of the given order."""
        block, j = parse_var(var, self.dim)
        if block not in self.blocks:
            raise ValueError(f"{type(self).__name__} has no variable block {block!r}")
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        bi = self.blocks.index(block)
        out: dict[tuple, ExactScalar] = {}
        for key, coeff in self._terms.items():
            e = key[bi][j]
            if e < order:
                continue
            factor = falling_factorial(e, order)
            newblock = list(key[bi])
            newblock[j] = e - order
            nkey = key[:bi] + (tuple(newblock),) + key[bi + 1:]
            acc = out.get(nkey, ExactScalar.zero())
            out[nkey] = acc + coeff.scale(factor)
        return self._like(out)

    def integrate_unit_interval(self, name: str = "tau") -> "Poly":
        """Coefficientwise exact integral of the auxiliary variable over [0,1]."""
        return self._like({k: c.integrate_unit(name) for k, c in self._terms.items()})

    def substitute_aux(self, name: str, value: RationalLike) -> "Poly":
        return self._like({k: c.substitute_aux(name, value) for k, c in self._terms.items()})

    def substitute_affine(
        self,
        var: Union[str, VarId],
        constant: ExactScalar = ExactScalar.zero(),
        linear: Mapping[Union[str, VarId], ExactScalar] = (),
    ) -> "Poly":
        """Replace one variable by an affine combination of variables.

        The replacement variables must belong to this polynomial's blocks;
        use promote()/AmplitudePoly first when introducing y.
        """
        block, j = parse_var(var, self.dim)
        if block not in self.blocks:
            raise ValueError(f"unknown variable block {block!r}")
        bi = self.blocks.index(block)

        replacement = type(self).constant(self.dim, constant)
        for v, c in dict(linear).items():
            replacement = replacement + type(self).variable(self.dim, v).scale(c)

        out = type(self).zero(self.dim)
        for key, coeff in self._terms.items():
            e = key[bi][j]
            newblock = list(key[bi])
            newblock[j] = 0
            base_key = key[:bi] + (tuple(newblock),) + key[bi + 1:]
            term = type(self)(self.dim, {base_key: coeff})
            for _ in range(e):
                term = term * replacement
            out = out + term
        return out

    def sorted_terms(self) -> list[tuple[tuple, ExactScalar]]:
        """Graded-lex descending on the concatenated exponent tuple."""
        def sort_key(item):
            key, _ = item
            flat = tuple(v for e in key for v in e)
            return (sum(flat), flat)

        return sorted(self._terms.items(), key=sort_key, reverse=True)


class SymbolPoly(Poly):
    """Classical observable: polynomial in (x, p)."""

    blocks = ("x", "p")

    def promote(self) -> "AmplitudePoly":
        """View a(x, p) as an amplitude b(x, y, p) with no y dependence."""
        zero = (0,) * self.dim
        return AmplitudePoly(
            self.dim, {(kx, zero, kp): c for (kx, kp), c in self._terms.items()}
        )


class AmplitudePoly(Poly):
    """Amplitude b(x, y, p): polynomial with two spatial argument blocks."""

    blocks = ("x", "y", "p")

    def collapse_y(self) -> SymbolPoly:
        """Set y = x, producing a symbol."""
        out: dict[tuple, ExactScalar] = {}
        for (kx, ky, kp), coeff in self._terms.items():
            key = (mi_add(kx, ky), kp)
            acc = out.get(key, ExactScalar.zero())
            out[key] = acc + coeff
        return SymbolPoly(self.dim, out)
