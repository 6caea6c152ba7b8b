"""Grid-based one-dimensional realization of the operator calculi.

Two application routes are provided and cross-checked:

* an exact pseudospectral route for polynomial symbols (binomial expansion of
  the shifted spatial argument; only exact grid multiplications and FFTs), and
* a phase-space superposition route for sampled symbols, which decomposes the
  operator over grid translations and modulations; no interpolation is ever
  performed.

The grid layer applies the exact layer's rules (quantize.Weyl, Tau and
BornJordan; WeylScheme, TauScheme and BJSinc are other names for them) and
one of its own, BJQuadrature.  Each is an average over the ordering parameter
tau of the tau rule, so each is one linear map with its own measure on tau: a
point mass (Tau, and Weyl at tau = 1/2), the uniform measure on [0, 1]
(BornJordan) or Gauss-Legendre nodes on [0, 1] (BJQuadrature).  On the
superposition route tau enters the mode (x_m, p_k) only as the phase
exp(-i tau theta), theta = x_m p_k / hbar, so a scheme is one per-mode
multiplier, the measure's average of that phase: exp(-i tau theta),
exp(-i theta/2) sinc(theta/2), or a weighted sum over the nodes.  All three
are tabulated from the integer m k without N^2 transcendental calls, and
every scheme costs one symplectic transform and one pass.  That transform,
the multiplier and the inverse DFT over momentum depend on the symbol and
the scheme alone; only the last gather meets the state.  So a SampledSymbol,
whose samples are read-only, keeps that state-free stage for the last two
schemes it was applied with, at one N x N complex array each: applying one
symbol object to many states under one scheme, or comparing it under two
schemes, computes it once per scheme.  On the polynomial route the measure
averages the binomial ordering weights instead; the uniform measure averages
each of them exactly, to 1/(r + 1) on x^r p^s, and any other measure runs the
Bernstein recurrence once at all of its nodes up to the largest power of x;
each outer power's sum is transformed back as soon as no later term adds to
it.

The grid's DFTs are centred: for N divisible by 4 the centred DFT is
S F S, with F the plain FFT and S = diag((-1)^j).  Every transform is a plain
FFT, and each S goes where it costs no pass of its own: on an input copy, a
state, a real factor or the one output checkerboard, or it cancels against
the next transform's.  The input signs of the symplectic transform, and its
1/N, go into its one copy of the samples.  Its output signs over momentum
cancel the input signs of the inverse DFT over momentum that follows it on
the sampled route, and those of bj_weyl_symbol_numeric's first transform
cancel the input signs of its second.  The sampled route's remaining signs,
(-1)^m and (-1)^i on mode (m, i), combine to (-1)^t on the state sample
psi[t] that the gather meets there; symplectic_ft and bj_weyl_symbol_numeric
keep one output checkerboard pass.  A length-N forward and inverse pair
cancels its middle signs around the pointwise factor between them, so the
polynomial route and heisenberg_shift put S on psi and on the real x^o or
the output phase, and antiwick_apply on psi and on the output vector.  The
reflection route puts S on its copy of each block of rows and reads only
even columns, whose output sign is +1.  Signs are multiplied onto a factor,
not negated onto a result, which would turn an exact +0 into -0; the one
sign multiplied onto a result, antiwick_apply's, is followed by + 0.0, which
takes -0 back to +0 and leaves every other value as it is.

States and symbols share one immutable sample form with read-only samples,
checked once when it is made, and every route that applies a sampled symbol
to a state checks in one place that the two share their grid and hbar.

All transforms are periodic; symbols and states are expected to decay at the
box boundary (a state that does not emits a warning, not an error).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from math import frexp, inf, isfinite, ldexp, log, pi, sqrt
from typing import Callable, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exact import SymbolPoly, _require_int
from .quantize import BornJordan, QuantizationScheme, Tau, Weyl

__all__ = [
    "UniformGrid",
    "SampledWavefunction",
    "SampledSymbol",
    "NumericParams",
    "ShubinOrderEstimate",
    "WeylScheme",
    "TauScheme",
    "BJQuadrature",
    "BJSinc",
    "symplectic_ft",
    "bj_weyl_symbol_numeric",
    "apply_operator",
    "heisenberg_shift",
    "grossmann_royer_apply",
    "weyl_via_grossmann_royer",
    "antiwick_apply",
    "q_norm_estimate",
    "estimate_shubin_order",
    "sample_symbol",
    "gaussian_state",
    "hermite_state",
    "null_symbol",
    "wavefunction_to_csv",
    "wavefunction_from_csv",
    "wavefunction_to_json",
    "wavefunction_from_json",
    "BoundaryDecayWarning",
]


class BoundaryDecayWarning(UserWarning):
    """Sampled data does not decay at the periodic box boundary."""


@dataclass(frozen=True)
class UniformGrid:
    """Centered uniform grid with N points on [-L/2, L/2)."""

    n_points: int
    length: float

    def __post_init__(self):
        n = self.n_points
        _require_int(n, "n_points")
        if n < 16 or n & (n - 1):
            raise ValueError("n_points must be a power of two, at least 16")
        if not 0 < self.length < inf:
            raise ValueError("length must be positive and finite")

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    def x_values(self) -> np.ndarray:
        n = self.n_points
        return (np.arange(n) - n // 2) * self.spacing

    def p_spacing(self, hbar: float) -> float:
        return 2 * pi * hbar / self.length

    def p_values(self, hbar: float) -> np.ndarray:
        n = self.n_points
        return (np.arange(n) - n // 2) * self.p_spacing(hbar)


@dataclass(frozen=True)
class _Samples:
    """Validated complex samples on a UniformGrid at a given hbar: `_ndim`
    axes of grid.n_points samples each.  An immutable value, checked once by
    its constructor; with_values and dataclasses.replace make a new one
    through the same check.  The samples are read-only: an array that owns
    its data is frozen in place, and any other input is copied first."""

    grid: UniformGrid
    values: np.ndarray
    hbar: float = 1.0

    _ndim = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        shape = (self.grid.n_points,) * self._ndim
        if values.shape != shape:
            raise ValueError(f"{type(self).__name__} values must have shape {shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{type(self).__name__} contains non-finite values")
        if not 0 < self.hbar < inf:
            raise ValueError("hbar must be positive and finite")
        if not values.flags.owndata:
            values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray):
        """The same grid and hbar with new samples."""
        return type(self)(self.grid, values, self.hbar)


class SampledWavefunction(_Samples):
    """Complex samples of a configuration-space state on a UniformGrid."""

    def norm(self) -> float:
        """sqrt(dx sum |v|^2), with v scaled by the power of two at or above
        max |v|: exact, so an ordinary state keeps the unscaled bits, and a
        finite state whose squares overflow still has a finite norm."""
        with np.errstate(over="ignore"):
            magnitudes = np.abs(self.values)
        peak = float(np.max(magnitudes))
        if not 0.0 < peak < inf:
            return peak
        scale = ldexp(1.0, frexp(peak)[1])
        magnitudes /= scale
        return scale * sqrt(self.grid.spacing * float(np.sum(magnitudes**2)))


# Schemes whose modes a SampledSymbol keeps: two, so that one symbol compared
# under two rules computes each rule's modes once.
_KEPT_MODES = 2


class SampledSymbol(_Samples):
    """Complex samples a(x_j, p_k) on the square phase-space grid.

    The symbol keeps the state-free stage of the sampled route (_modes) for
    the last two schemes it was applied with, so applying it to many states
    under one scheme, or comparing it under two, computes that stage once per
    scheme.  The cost is one N x N complex array per kept scheme.
    """

    _ndim = 2
    _modes_entries = ()  # (scheme, modes) pairs, most recently used first

    def _modes_for(self, scheme: Scheme) -> np.ndarray:
        """_modes(self, scheme), from a kept entry when one was computed
        under an equal scheme and the samples are still read-only."""
        entries = self._modes_entries
        if self.values.flags.writeable:
            # samples made writeable by hand may differ from every entry's
            object.__setattr__(self, "_modes_entries", ())
            return _modes(self, scheme)
        for entry in entries:
            if entry[0] == scheme:
                rest = tuple(e for e in entries if e is not entry)
                object.__setattr__(self, "_modes_entries", (entry, *rest))
                return entry[1]
        # the older entry goes first, so that a miss holds at most one old
        # entry beside its new buffer
        kept = entries[: _KEPT_MODES - 1]
        object.__setattr__(self, "_modes_entries", kept)
        entry = (scheme, _modes(self, scheme))
        object.__setattr__(self, "_modes_entries", (entry, *kept))
        return entry[1]


def _check_pair(a: SampledSymbol, psi: SampledWavefunction) -> None:
    """A sampled symbol acts on a state only on the same grid and hbar."""
    if a.grid != psi.grid:
        raise ValueError("symbol and state grids differ")
    if a.hbar != psi.hbar:
        raise ValueError("symbol and state hbar differ")


@dataclass(frozen=True)
class NumericParams:
    """apply_operator's boundary-decay tolerance."""

    tolerance: float = 1e-8

    def __post_init__(self):
        if not (isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(
                f"tolerance must be positive and finite, got {self.tolerance!r}"
            )


@dataclass(frozen=True)
class ShubinOrderEstimate:
    m_est: float
    rho_est: float | None
    residual: float


# -- application schemes ----------------------------------------------------


# Other names for the exact layer's rules, which the grid layer applies.
WeylScheme, TauScheme, BJSinc = Weyl, Tau, BornJordan


@dataclass(frozen=True)
class BJQuadrature:
    """Born-Jordan with the tau average taken by Gauss-Legendre quadrature."""

    order: int = 16

    def __post_init__(self):
        _require_int(self.order, "quadrature order")
        if self.order < 2:
            raise ValueError("quadrature order must be at least 2")


Scheme = Union[QuantizationScheme, BJQuadrature]


def _check_boundary_decay(psi: SampledWavefunction, tolerance: float) -> None:
    scale = float(np.max(np.abs(psi.values)))
    if scale == 0.0:
        return
    edge = abs(psi.values[0])
    if edge > tolerance * scale:
        warnings.warn(
            "wavefunction does not decay below tolerance at the box boundary "
            f"(relative edge magnitude {edge / scale:.2e})",
            BoundaryDecayWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Symplectic Fourier transform and the sinc filter
# ---------------------------------------------------------------------------


def _signed_copy(values: np.ndarray, scale: float) -> np.ndarray:
    """(-1)^(j+k) values[j, k] scale at [k, j], in a new C-ordered array:
    the symplectic transform's input signs and its 1/n (scale, a power of
    two), taken in its one copy of the samples (see the module docstring).
    The momentum index comes first, so that the transform over x runs along
    contiguous rows.
    """
    n = len(values)
    out = np.empty((n, n), dtype=complex)
    signs = np.resize([scale, -scale], (n, 1))  # (-1)^k scale
    # even and odd rows j of values; written in the order of out's rows,
    # which took half the time of the order of values' rows
    np.multiply(values[::2].T, signs, out=out[:, ::2])
    np.multiply(values[1::2].T, -signs, out=out[:, 1::2])
    return out


def _plain_symplectic(w: np.ndarray) -> np.ndarray:
    """The plain DFT over the x index j of w[k, j], then the plain inverse
    DFT over the momentum index k, in place; the result is indexed [m, k].
    Without the centring signs, it is (-1)^(m+k) times the symplectic
    transform of the samples that _signed_copy took."""
    np.fft.fft(w, axis=1, out=w)
    return np.fft.ifft(w, axis=0, norm="forward", out=w)


def _checkerboard(w: np.ndarray) -> np.ndarray:
    """w[m, k] times (-1)^(m+k), in place: the output signs of both
    centred DFTs."""
    np.negative(w[::2, 1::2], out=w[::2, 1::2])
    np.negative(w[1::2, ::2], out=w[1::2, ::2])
    return w


def symplectic_ft(a: SampledSymbol) -> SampledSymbol:
    """Discrete symplectic Fourier transform; an involution on the grid.

    a_sigma(x_m, p_k) = (1/2pi hbar) sum_{j,l}
        exp(-i (p_k x_j - x_m p_l)/hbar) a(x_j, p_l) dx dp.
    """
    w = _signed_copy(a.values, 1.0 / a.grid.n_points)
    return a.with_values(_checkerboard(_plain_symplectic(w)))


def _over_q(n: int, head: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """head[q mod len(head)] / q at the centred modes (m, k) of the given
    rows, q = m k, and 1 where q = 0; len(head) is a power of two."""
    c = np.arange(n) - n // 2
    recip = np.divide(1.0, c, out=np.zeros(n), where=c != 0)
    out = head[np.multiply.outer(c[rows], c) & (len(head) - 1)]
    out *= np.outer(recip[rows], recip)
    out[c[rows] == 0, :] = out[:, n // 2] = 1.0
    return out


def bj_weyl_symbol_numeric(a: SampledSymbol) -> SampledSymbol:
    """Symmetric-rule symbol of the Born-Jordan operator of a, on the grid.

    Realized as F_sigma -> pointwise sinc(px/2hbar) multiply -> F_sigma.  At
    the mode (x_m, p_k), px/2hbar = pi q/n with q = m k, so the filter is
    tabulated from the integer q: sin(pi q/n) = -sin(pi (q - n)/n).
    """
    n = a.grid.n_points
    half = np.sin(pi * np.arange(n) / n) * (n / pi)
    head = np.concatenate([half, -half])
    # the output signs of the first transform cancel the input signs of the
    # second, and both 1/n's go into the first copy; the filter is symmetric
    # in (m, k), so the second copy reads it in C order, a block of rows at
    # a time
    transformed = _plain_symplectic(_signed_copy(a.values, 1.0 / n**2)).T
    filtered = np.empty((n, n), dtype=complex)
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        np.multiply(transformed[rows], _over_q(n, head, rows), out=filtered[rows])
    return a.with_values(_checkerboard(_plain_symplectic(filtered)))


# ---------------------------------------------------------------------------
# Operator application
# ---------------------------------------------------------------------------


def _ordering_measure(scheme: Scheme) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the average over tau that defines a scheme."""
    if isinstance(scheme, (Weyl, Tau)):
        if scheme.tau is None:
            raise ValueError("the grid layer needs a numeric ordering parameter, not Tau()")
        return np.array([float(scheme.tau)]), np.array([1.0])
    if isinstance(scheme, BJQuadrature):
        nodes, weights = np.polynomial.legendre.leggauss(scheme.order)
        return (nodes + 1.0) / 2.0, weights / 2.0
    raise TypeError(f"unknown application scheme {scheme!r}")


def _mode_multiplier(n: int, scheme: Scheme) -> Callable[[slice], np.ndarray]:
    """rows -> the scheme's average of exp(-i t theta) at the modes (m, k)
    of those rows, so that a caller never needs all n^2 values at once.

    theta = 2pi q/n with q = m k (centred indices), so the multiplier is a
    function of the integer q alone.  Writing q = a n + b with 0 <= b < n and
    |a| <= n/4 splits exp(-2pi i t q/n) into exp(-2pi i t a) exp(-2pi i t b/n):
    for a point mass or a quadrature the table over (a, b) is one matrix
    product over the nodes for a >= 0, and its conjugate, mirrored, for
    q < 0; it is gathered at the flat index q + n^2/4.  The exact
    uniform average over t in [0, 1] is exp(-i theta/2) sinc(theta/2)
    = exp(-i pi b/n) sin(pi b/n) n/(pi q), with the value 1 at q = 0.
    """
    if isinstance(scheme, BornJordan):
        b = np.arange(n)
        head = np.exp(-1j * pi * b / n) * np.sin(pi * b / n) * (n / pi)
        return lambda rows: _over_q(n, head, rows)
    c = np.arange(n) - n // 2
    nodes, weights = _ordering_measure(scheme)
    a = np.arange(n // 4 + 1)
    b = np.arange(n)
    left = np.exp(-2j * pi * np.outer(a, nodes)) * weights
    right = np.exp(-2j * pi * np.outer(nodes, b) / n)
    # left @ right as one real product: [Re L | Im L] against the rows of
    # right and of i right, each viewed as interleaved (Re, Im) pairs, so the
    # result viewed as complex is the table.  A complex einsum took 2.4x as
    # long at n = 512.  einsum sums in NumPy's own loops; a BLAS matmul of
    # this shape wakes a thread pool, which on a loaded 2-CPU host cost about
    # 16 ms a call.
    half = (
        np.einsum(
            "at,tb->ab",
            np.hstack([left.real, left.imag]),
            np.vstack([right, 1j * right]).view(float),
        )
        .view(complex)
        .ravel()
    )
    # the nodes and weights are real, so the value at -q is the conjugate of
    # the value at q: the table is made for a >= 0 and mirrored
    table = np.concatenate([np.conj(half[n * n // 4 : 0 : -1]), half])

    def rows_of(rows: slice) -> np.ndarray:
        q = np.multiply.outer(c[rows], c)
        q += n * n // 4
        return table[q]

    return rows_of


# Rows made at a time where a whole n x n intermediate would add to the peak
# (the mode multiplier, the sinc filter, the reflection route's transform):
# small beside an n x n buffer, and few enough blocks to cost nothing per
# block.
_BLOCK_ROWS = 32


def _modes(a: SampledSymbol, scheme: Scheme) -> np.ndarray:
    """The state-free stage of the sampled route: (-1)^(m+i) times
    [C+_k (a_sigma mu)](m, i), where a_sigma is the symplectic transform, mu
    the scheme's multiplier and C+_k the centred inverse DFT over the
    momentum index.

    Every step after the symplectic transform's copy of the samples works in
    place in that one buffer, which becomes the result, and the multiplier is
    made and applied a block of rows at a time.  No step flips a sign: the
    copy takes the transform's input signs and its 1/n (see _signed_copy),
    its output signs over k cancel the input signs of C+_k, and the rest,
    (-1)^m and the output signs (-1)^i of C+_k, are the factor (-1)^(m+i),
    which _apply_sampled takes on the state.
    """
    n = a.grid.n_points
    multiplier_rows = _mode_multiplier(n, scheme)
    modes = _plain_symplectic(_signed_copy(a.values, 1.0 / n))
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        modes[rows] *= multiplier_rows(rows)
    return np.fft.ifft(modes, axis=1, norm="forward", out=modes)


def _apply_sampled(modes: np.ndarray, psi: SampledWavefunction) -> np.ndarray:
    """Phase-space superposition route: the gather of a symbol's modes
    (see _modes) against the state, out(x_i) = (1/n) sum_m modes(m, i)
    phi(x_i - x_m), with phi[t] = (-1)^t psi[t].

    The modes carry (-1)^(m+i), and t = (i - m + n/2) mod n has the parity
    of m + i because n/2 is even, so phi takes that sign off again.  A block
    of rows at a time is multiplied and added on in the order of m, so no
    n x n array is made and the sum is that of a loop over the rows.
    """
    n = psi.grid.n_points
    tiled = np.tile(psi.values, 3)  # n is even, so (-1)^t repeats with it
    np.negative(tiled[1::2], out=tiled[1::2])
    # windows[s, i] = phi[(s + i) mod n]; row n + n/2 - m is phi(x_i - x_m)
    windows = sliding_window_view(tiled, n)
    shifted = windows[n + n // 2 : n // 2 : -1]
    block = min(_BLOCK_ROWS, n)
    # row 0 is the running sum, rows 1.. the block's terms
    terms = np.zeros((block + 1, n), dtype=complex)
    for start in range(0, n, block):
        rows = slice(start, start + block)
        np.multiply(modes[rows], shifted[rows], out=terms[1:])
        np.add.reduce(terms, axis=0, out=terms[0])
    return terms[0] / n


def _ordering_weights(scheme: Scheme, powers: set[int]) -> dict[int, list[float]]:
    """r -> the scheme's average over tau of C(r, j) (1-tau)^(r-j) tau^j,
    for j = 0..r, at each power r in powers.

    The uniform average C(r, j) B(r-j+1, j+1) is 1/(r+1) for every j.  Any
    other measure runs the Bernstein recurrence
    b(k, j) = (1-t) b(k-1, j) + t b(k-1, j-1), from b(0, 0) = 1, once at all
    of its nodes t up to the largest power, and sums the row of each power
    over the nodes with the measure's weights.  For every real t both terms
    have the sign of b(k, j), so nothing cancels and no C(r, j) is formed.  A
    weight past double range is infinite; for tau outside [0, 1] so may be
    others in its row, which changes no result, as one infinite weight makes
    the route's output non-finite.  The work is the number of nodes times
    the largest power squared, over two.
    """
    if isinstance(scheme, BornJordan):
        return {r: [1.0 / (r + 1)] * (r + 1) for r in powers}
    nodes, weights = _ordering_measure(scheme)
    complements = 1.0 - nodes
    top = max(powers, default=0)
    b = np.zeros((top + 1, nodes.size))  # b[j] = b(k, j) at every node
    b[0] = 1.0
    t_part = np.empty_like(b)
    rows = {}
    with np.errstate(over="ignore"):
        for k in range(top + 1):
            if k:
                np.multiply(b[:k], nodes, out=t_part[:k])
                b[:k] *= complements
                b[1 : k + 1] += t_part[:k]
            if k in powers:
                rows[k] = (b[: k + 1] @ weights).tolist()
    return rows


def _float_terms(a: SymbolPoly, hbar: float) -> list[tuple[int, int, complex]]:
    """(r, s, c) for each term c x^r p^s of a one-dimensional polynomial
    symbol, with c rounded once to a complex at hbar."""
    if a.dim != 1:
        raise ValueError("the numeric layer is one-dimensional")
    return [(r, s, coeff.to_complex(hbar)) for ((r,), (s,)), coeff in a.terms.items()]


def _apply_poly(a: SymbolPoly, psi: SampledWavefunction, scheme: Scheme) -> np.ndarray:
    """Exact pseudospectral route for one-dimensional polynomial symbols.

    x^r p^s at ordering tau is sum_j C(r, j) (1-tau)^(r-j) tau^j
    x^(r-j) p^s x^j, so an average over tau averages these weights; all rows
    the symbol needs come from one _ordering_weights call.  Each x^j psi is
    transformed once, and every term with the same outer power x^o is summed
    in momentum space, so each o needs one inverse transform.  j is the outer
    loop, so one transform is alive at a time; and after step j no later
    step adds to the outer power top - j, so that sum is transformed back
    and added to the result there, and a monomial holds a few state-sized
    arrays whatever its degree.  The centring signs go on psi once and on
    the real factor x^o (see the module docstring).
    """
    n = psi.grid.n_points
    signs = np.tile([1.0, -1.0], n // 2)
    x = psi.grid.x_values()
    p = psi.grid.p_values(psi.hbar)
    phi = signs * psi.values
    terms = _float_terms(a, psi.hbar)
    weights = _ordering_weights(scheme, {r for r, _, _ in terms})
    top = max(weights, default=-1)
    inner: dict[int, np.ndarray] = {}
    out = np.zeros_like(psi.values)
    for j in range(top + 1):
        g_hat = None
        for r, s, c in terms:
            weight = weights[r][j] if j <= r else 0.0
            if weight == 0.0:
                continue
            if g_hat is None:
                g_hat = (x**j) * phi
                np.fft.fft(g_hat, out=g_hat)
            term = (c * weight) * (p**s) * g_hat
            if r - j in inner:
                inner[r - j] += term
            else:
                inner[r - j] = term
        done = inner.pop(top - j, None)
        if done is not None:
            np.fft.ifft(done, norm="forward", out=done)
            out += (signs * x ** (top - j)) * (done / n)
    return out


def apply_operator(
    symbol: Union[SampledSymbol, SymbolPoly],
    psi: SampledWavefunction,
    scheme: Scheme,
    params: NumericParams | None = None,
) -> SampledWavefunction:
    """Apply the quantized operator of a symbol to a sampled state.

    The scheme is Weyl, Tau(tau) with a numeric tau, BornJordan or
    BJQuadrature, each an average of the tau rule over its own measure (see
    the module docstring); a formal Tau() raises ValueError.  Sampled symbols
    use the phase-space superposition route, in which the scheme's average of
    the ordering phase is one per-mode multiplier, so every scheme costs one
    pass.  Polynomial symbols use the exact pseudospectral route with the
    scheme's average of the binomial ordering weights.
    """
    params = params or NumericParams()
    if isinstance(symbol, SampledSymbol):
        _check_pair(symbol, psi)
    _check_boundary_decay(psi, params.tolerance)

    # a symbol that overflows double precision on the grid gives non-finite
    # samples, which the result's own check rejects with one ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(symbol, SampledSymbol):
            values = _apply_sampled(symbol._modes_for(scheme), psi)
        else:
            values = _apply_poly(symbol, psi, scheme)
    return psi.with_values(values)


# ---------------------------------------------------------------------------
# Phase-space shifts and reflections
# ---------------------------------------------------------------------------


def heisenberg_shift(
    psi: SampledWavefunction, z0: tuple[float, float]
) -> SampledWavefunction:
    """Phase-space shift exp(i (p0 x - p0 x0 / 2)/hbar) psi(x - x0).

    The spatial shift is periodic; off-grid x0 is handled by band-limited
    (spectral) translation.
    """
    x0, p0 = z0
    grid, hbar = psi.grid, psi.hbar
    if abs(x0) >= grid.length / 2:
        raise ValueError("shift exceeds half the box length")
    p = grid.p_values(hbar)
    x = grid.x_values()
    # the centring signs go on the state and on the output phase
    signs = np.tile([1.0, -1.0], grid.n_points // 2)
    spectrum = np.fft.fft(signs * psi.values)
    spectrum *= np.exp(-1j * p * x0 / hbar)
    translated = np.fft.ifft(spectrum, norm="forward", out=spectrum) / grid.n_points
    phase = signs * np.exp(1j * (p0 * x - 0.5 * p0 * x0) / hbar)
    return psi.with_values(phase * translated)


def _reflect(values: np.ndarray) -> np.ndarray:
    # psi(-x) on the centered grid: index j -> (-j) mod N
    return np.roll(values[::-1], 1)


def grossmann_royer_apply(
    psi: SampledWavefunction, z0: tuple[float, float]
) -> SampledWavefunction:
    """Reflection about the phase-space point z0: T(z0) P T(z0)^{-1} psi."""
    x0, p0 = z0
    inner = heisenberg_shift(psi, (-x0, -p0))
    reflected = inner.with_values(_reflect(inner.values))
    return heisenberg_shift(reflected, (x0, p0))


def weyl_via_grossmann_royer(
    a: SampledSymbol, psi: SampledWavefunction
) -> SampledWavefunction:
    """Symmetric-rule application as a superposition of reflections.

    out = (1/pi hbar) sum_z a(z) (reflection about z) psi dz; verification
    route only (the production path is apply_operator), so it keeps its own
    gather instead of sharing _modes.

    With modes[m, j] = sum_k a(m, k) exp(i 2pi (k - N/2)(j - N/2)/N), the
    centred inverse DFT over the momentum index,
    out_i = (2/N) sum_m modes[m, (N/2 + 2(i - m)) mod N] psi[(2m - i) mod N].
    That column is even and depends only on (i - m) mod N/2, so both factors
    are strided views: of the block's even columns, rolled by N/4 and
    repeated three times, and of psi repeated three times.  A block of rows
    at a time is transformed, multiplied and added on in the order of m,
    with the ufuncs a loop over the rows uses, so the result is the same to
    the last bit and no N x N array is made.
    """
    _check_pair(a, psi)
    n = a.grid.n_points
    half = n // 2
    # the centring signs over k go on each block's copy (module docstring)
    signs = np.tile([1.0, -1.0], half)
    block = min(_BLOCK_ROWS, half)  # divides N/2, so no block wraps past it
    # tile[r, c] = modes[start + r, 2((c + N/4) mod N/2)]
    columns = 2 * ((np.arange(3 * half) + n // 4) % half)
    # mirrored[m, i] = psi[(2m - i) mod N], read forwards in i
    mirrored = sliding_window_view(np.tile(psi.values[::-1], 3), n)[2 * n - 1 :: -2]
    # row 0 is the running sum, rows 1.. the block's terms
    terms = np.zeros((block + 1, n), dtype=complex)
    for start in range(0, n, block):
        rows = slice(start, start + block)
        modes = a.values[rows] * signs
        np.fft.ifft(modes, axis=1, norm="forward", out=modes)
        tile = np.take(modes, columns, axis=1)
        # row m = start + r reads the tile from column N/2 - (m mod N/2) on
        skew = half - start % half
        doubled = sliding_window_view(tile.ravel(), n)[skew :: 3 * half - 1][:block]
        np.multiply(doubled, mirrored[rows], out=terms[1:])
        np.add.reduce(terms, axis=0, out=terms[0])
    return psi.with_values(terms[0] * (2.0 / n))


# ---------------------------------------------------------------------------
# Anti-Wick operators and Sobolev-type norms (hbar = 1 only)
# ---------------------------------------------------------------------------


def _coherent_envelope(grid: UniformGrid) -> np.ndarray:
    # W[m, j] = exp(-(t_j - x_m)^2 / 2)
    x = grid.x_values()
    return np.exp(-0.5 * np.subtract.outer(x, x) ** 2)


def antiwick_apply(
    a: SampledSymbol, psi: SampledWavefunction
) -> SampledWavefunction:
    """Coherent-state averaged operator: integral of a(z) <psi, Phi_z> Phi_z dz.

    The coherent states Phi_z(t) = pi^{-1/4} e^{itp} e^{-(t-x)^2/2} carry no
    hbar, so this operation is restricted to hbar = 1.
    """
    _check_pair(a, psi)
    if a.hbar != 1.0:
        raise ValueError("anti-Wick operators are only defined for hbar = 1")
    grid = a.grid
    n = grid.n_points
    dx = grid.spacing
    dp = grid.p_spacing(1.0)
    envelope = _coherent_envelope(grid)  # [x index m, t index j]
    # the centring signs of both DFTs over t: (-1)^j on psi and on the
    # output; those over p cancel between the two
    signs = np.resize([1.0, -1.0], n)
    # one n x n buffer, transformed and scaled in place
    work = envelope * (signs * psi.values)
    # V[m, k] = (-1)^k <psi, Phi_{(x_m, p_k)}> / pi^{-1/4}
    np.fft.fft(work, axis=1, out=work)
    work *= dx
    np.multiply(a.values, work, out=work)
    # G[m, j] = (-1)^j sum_k a(x_m, p_k) V[m, k] exp(i t_j p_k) dp
    np.fft.ifft(work, axis=1, norm="forward", out=work)
    work *= dp
    out = np.einsum("mj,mj->j", envelope, work) * dx / sqrt(pi)
    # + 0.0 turns the -0 of a sign on an exact zero into +0
    return psi.with_values(signs * out + 0.0)


def q_norm_estimate(psi: SampledWavefunction, s: float) -> float:
    """L2 norm of the anti-Wick operator with symbol <z>^s applied to psi."""
    grid = psi.grid
    x = grid.x_values()
    p = grid.p_values(psi.hbar)
    weight = (1.0 + np.add.outer(x**2, p**2)) ** (s / 2.0)
    symbol = SampledSymbol(grid, weight.astype(complex), psi.hbar)
    return antiwick_apply(symbol, psi).norm()


# ---------------------------------------------------------------------------
# Growth-order diagnostics
# ---------------------------------------------------------------------------


def estimate_shubin_order(
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray],
    radii: Sequence[float],
    estimate_rho: bool = False,
    n_angles: int = 720,
) -> ShubinOrderEstimate:
    """Least-squares growth order of a phase-space function.

    Fits log max_{|z|=r} |a(z)| against log sqrt(1 + r^2); optionally probes
    the first-derivative decay by central finite differences to estimate the
    smoothing exponent.
    """
    radii = list(radii)
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be at least 3 increasing values")
    _require_int(n_angles, "n_angles")
    if n_angles < 1:
        raise ValueError(f"n_angles must be positive, got {n_angles}")
    theta = np.linspace(0.0, 2 * pi, n_angles, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    def ring_max(fn, r):
        vals = np.abs(fn(r * cos_t, r * sin_t))
        if not np.all(np.isfinite(vals)):
            raise ValueError("evaluator returned non-finite values")
        return float(np.max(vals))

    logs = np.log([ring_max(evaluator, r) for r in radii])
    bracket = np.log(np.sqrt(1.0 + np.asarray(radii, dtype=float) ** 2))
    design = np.vstack([bracket, np.ones_like(bracket)]).T
    (slope, _), res, _, _ = np.linalg.lstsq(design, logs, rcond=None)
    residual = float(np.sqrt(res[0] / len(radii))) if res.size else 0.0

    rho_est = None
    if estimate_rho:
        def grad_mag(xv, pv):
            h = 1e-3 * (1.0 + np.sqrt(xv**2 + pv**2))
            dx = (evaluator(xv + h, pv) - evaluator(xv - h, pv)) / (2 * h)
            dp = (evaluator(xv, pv + h) - evaluator(xv, pv - h)) / (2 * h)
            return np.sqrt(np.abs(dx) ** 2 + np.abs(dp) ** 2)

        glogs = np.log([max(ring_max(grad_mag, r), 1e-300) for r in radii])
        (gslope, _), _, _, _ = np.linalg.lstsq(design, glogs, rcond=None)
        rho_est = float(slope - gslope)

    return ShubinOrderEstimate(m_est=float(slope), rho_est=rho_est, residual=residual)


# ---------------------------------------------------------------------------
# Named states and symbols
# ---------------------------------------------------------------------------


def gaussian_state(grid: UniformGrid, hbar: float = 1.0) -> SampledWavefunction:
    """Normalized ground Gaussian (pi hbar)^{-1/4} exp(-x^2 / 2 hbar)."""
    x = grid.x_values()
    values = (pi * hbar) ** -0.25 * np.exp(-(x**2) / (2 * hbar))
    return SampledWavefunction(grid, values.astype(complex), hbar)


_RESCALE = 1e150


def hermite_state(grid: UniformGrid, k: int, hbar: float = 1.0) -> SampledWavefunction:
    """k-th normalized Hermite function (harmonic-oscillator eigenstate)."""
    _require_int(k, "Hermite index")
    if k < 0:
        raise ValueError("Hermite index must be non-negative")
    xi = grid.x_values() / sqrt(hbar)
    # Recurrence on the normalized functions, so neither H_k(xi) nor 2^k k!
    # is formed; both leave double range for k in the low hundreds:
    # psi_(j+1) = sqrt(2/(j+1)) xi psi_j - sqrt(j/(j+1)) psi_(j-1).
    # The Gaussian start underflows for |xi| > 38.6, which lies inside the
    # classically allowed region once k > 745, so each sample carries its own
    # log scale: the start keeps at most exp(-600) of its Gaussian factor,
    # and a sample is rescaled whenever it grows past 1e150.
    log_scale = np.minimum(0.0, 600.0 - xi**2 / 2)
    prev = np.zeros_like(xi)
    curr = (pi * hbar) ** -0.25 * np.exp(-(xi**2) / 2 - log_scale)
    for j in range(k):
        prev, curr = curr, sqrt(2 / (j + 1)) * xi * curr - sqrt(j / (j + 1)) * prev
        big = np.abs(curr) > _RESCALE
        if big.any():
            curr[big] /= _RESCALE
            prev[big] /= _RESCALE
            log_scale[big] += log(_RESCALE)
    values = curr * np.exp(log_scale)
    return SampledWavefunction(grid, values.astype(complex), hbar)


def sample_symbol(
    a: SymbolPoly, grid: UniformGrid, hbar: float = 1.0
) -> SampledSymbol:
    """Evaluate a one-dimensional polynomial symbol on the phase-space grid.

    The terms are grouped by their power of x: each distinct power r gets one
    complex row sum_s c p^s over the momentum grid, and the samples are one
    product of the real x-powers against those rows, viewed as interleaved
    (Re, Im) pairs, so it runs in real arithmetic and writes the N x N
    result once.  A symbol that overflows double precision on the grid gives
    non-finite samples, which SampledSymbol rejects with one ValueError.
    """
    n = grid.n_points
    p = grid.p_values(hbar)
    p_rows: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for r, s, c in _float_terms(a, hbar):
            p_rows[r] = p_rows.get(r, 0) + c * p**s
        x_powers = np.power.outer(grid.x_values(), np.array(list(p_rows), dtype=float))
        p_polys = np.array(list(p_rows.values()), dtype=complex).reshape(-1, n)
        values = np.empty((n, n), dtype=complex)
        # einsum, not @: see _mode_multiplier
        np.einsum("ir,rk->ik", x_powers, p_polys.view(float), out=values.view(float))
    return SampledSymbol(grid, values, hbar)


def _periodized_gaussian(u: np.ndarray, period: float, width: float) -> np.ndarray:
    """sum_j exp(-(u - j period)^2 / 2 width^2).  By Poisson summation it is
    width sqrt(2pi)/period times 1 + 2 sum_k exp(-2 (pi k width/period)^2)
    cos(2pi k u/period); from width = 2 period on, the first of those terms
    is at most 2 exp(-8 pi^2), about 1e-34, so the sum is that constant, at
    a cost that does not grow with the width."""
    if width >= 2 * period:
        return np.full_like(u, width * sqrt(2 * pi) / period)
    total = np.zeros_like(u)
    images = int(np.ceil(8 * width / period)) + 2
    for j in range(-images, images + 1):
        total += np.exp(-((u - j * period) ** 2) / (2 * width**2))
    return total


def null_symbol(
    grid: UniformGrid,
    hbar: float = 1.0,
    x0: float | None = None,
    p0: float | None = None,
    width_factor: float = 1.0,
) -> tuple[SampledSymbol, tuple[float, float]]:
    """Windowed phase-space exponential annihilated by the Born-Jordan rule.

    Builds c(z) = exp(-i sigma(z, z0)/hbar) w(x) w(p) with z0 = (x0, p0) on
    the grid, where w is a smooth periodized Gaussian of width width_factor
    times the box size; the symplectic transform of c is then concentrated at
    z0.  Requested coordinates are snapped to grid points; with x0 and p0
    omitted a balanced point with x0 p0 = 2 pi hbar is chosen, where the
    Born-Jordan filter vanishes.  Returns the symbol and the z0 used.
    """
    if not 0 < width_factor < inf:
        raise ValueError(f"width_factor must be positive and finite, got {width_factor!r}")
    n = grid.n_points
    if x0 is None and p0 is None:
        # factor n = m_idx * k_idx with both offsets inside the grid
        best = None
        for m in range(1, n // 2):
            if n % m == 0 and n // m < n // 2:
                cand = (m, n // m)
                balance = abs(m * grid.spacing - (n // m) * grid.p_spacing(hbar))
                if best is None or balance < best[0]:
                    best = (balance, cand)
        if best is None:
            raise ValueError("no on-grid null point exists for this grid")
        m_idx, k_idx = best[1]
    elif x0 is not None and p0 is not None:
        m, k = x0 / grid.spacing, p0 / grid.p_spacing(hbar)
        # n/2 is even, so round() takes +-(n/2 - 1/2) off the grid to +-n/2;
        # testing before rounding also rejects an infinite or NaN offset
        if not (abs(m) < n / 2 - 0.5 and abs(k) < n / 2 - 0.5):
            raise ValueError("null point lies outside the grid")
        m_idx, k_idx = round(m), round(k)
    else:
        raise ValueError("give both coordinates or neither")
    x0 = m_idx * grid.spacing
    p0 = k_idx * grid.p_spacing(hbar)

    x = grid.x_values()
    p = grid.p_values(hbar)
    p_extent = n * grid.p_spacing(hbar)
    window = np.outer(
        _periodized_gaussian(x, grid.length, width_factor * grid.length),
        _periodized_gaussian(p, p_extent, width_factor * p_extent),
    )
    phase = np.exp(-1j * (np.outer(np.ones(n), p) * x0 - np.outer(x, np.ones(n)) * p0) / hbar)
    return SampledSymbol(grid, phase * window, hbar), (x0, p0)


# ---------------------------------------------------------------------------
# Grid data exchange
# ---------------------------------------------------------------------------


def wavefunction_to_csv(psi: SampledWavefunction) -> str:
    """One row per sample: x, Re psi, Im psi."""
    lines = ["x,re,im"]
    for xv, value in zip(psi.grid.x_values(), psi.values):
        lines.append(f"{xv:.17g},{value.real:.17g},{value.imag:.17g}")
    return "\n".join(lines) + "\n"


def wavefunction_from_csv(text: str, length: float, hbar: float = 1.0) -> SampledWavefunction:
    """Rows x, Re psi, Im psi (header optional) on UniformGrid(rows, length).

    The x column must match that grid's x_values within 1e-9 L.
    """
    rows = [line for line in text.strip().splitlines() if line]
    if rows:
        try:
            float(rows[0].split(",")[0])
        except ValueError:
            rows = rows[1:]  # header
    xs, values = [], []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed CSV row: {row!r}")
        xs.append(float(parts[0]))
        values.append(complex(float(parts[1]), float(parts[2])))
    grid = UniformGrid(len(values), length)
    deviation = float(np.max(np.abs(np.asarray(xs) - grid.x_values())))
    if not deviation <= 1e-9 * length:
        raise ValueError(
            f"CSV x column does not match the {grid.n_points}-point grid on "
            f"L = {length:g} (largest deviation {deviation:.3g})"
        )
    return SampledWavefunction(grid, np.asarray(values), hbar)


def wavefunction_to_json(psi: SampledWavefunction) -> dict:
    return {
        "N": psi.grid.n_points,
        "L": psi.grid.length,
        "hbar": psi.hbar,
        "values": [[v.real, v.imag] for v in psi.values],
    }


def wavefunction_from_json(payload: Union[str, dict]) -> SampledWavefunction:
    if isinstance(payload, str):
        payload = json.loads(payload)
    _require_int(payload["N"], "N")
    grid = UniformGrid(payload["N"], float(payload["L"]))
    values = np.asarray([complex(re, im) for re, im in payload["values"]])
    return SampledWavefunction(grid, values, float(payload["hbar"]))
