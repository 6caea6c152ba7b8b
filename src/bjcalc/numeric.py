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

Each N x N pass that is independent across rows or across columns runs in
two halves (_halves): the symplectic transform's signed copy and its DFT over
x (rows) and its inverse DFT over momentum (columns), in symplectic_ft,
bj_weyl_symbol_numeric and the sampled route; the sampled route's multiplier
and inverse DFT over momentum (rows); the sinc filter (rows); and
antiwick_apply's transforms and products (rows).  One helper daemon thread,
started on first use, runs the upper half while the caller runs the lower
one and then waits.  Each half applies the same 1-D transforms and
element-wise products to the same data, so no bit depends on the split; the
gathers and every running sum stay whole, in their order.  The split is made
only when the process may run on two or more CPUs (os.sched_getaffinity) and
N is at least _SPLIT_MIN_N = 256, below which the hand-off costs more than
half a pass saves; otherwise the same phase functions run once over the
whole range.  The helper runs its half in a copy of the caller's contextvars
context, so NumPy's error state (np.errstate) holds there as it does in the
caller, and a child made by os.fork starts a helper of its own.

States and symbols share one immutable sample form with read-only samples,
checked once when it is made, and every route that applies a sampled symbol
to a state checks in one place that the two share their grid and hbar.

All transforms are periodic; symbols and states are expected to decay at the
box boundary (a state that does not emits a warning, not an error).
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import warnings
from dataclasses import dataclass
from math import frexp, inf, ldexp, log, pi, sqrt
from typing import Callable, Iterator, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exact import SymbolPoly, _require_int
from .quantize import BornJordan, QuantizationScheme, Tau, Weyl

__all__ = [
    "UniformGrid",
    "SampledWavefunction",
    "SampledSymbol",
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
    "shubin_slopes",
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


def _check_hbar(hbar: float) -> None:
    if not 0 < hbar < inf:
        raise ValueError("hbar must be positive and finite")


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
        _check_hbar(self.hbar)
        values = np.asarray(self.values, dtype=complex)
        shape = (self.grid.n_points,) * self._ndim
        if values.shape != shape:
            raise ValueError(f"{type(self).__name__} values must have shape {shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{type(self).__name__} contains non-finite values")
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
        """sqrt(dx sum |v|^2), with v scaled by the power of two at or below
        max |v|: exact, so an ordinary state keeps the unscaled bits, and a
        finite state whose squares overflow still has a finite norm (or inf,
        where the norm itself is past double range)."""
        with np.errstate(over="ignore"):
            magnitudes = np.abs(self.values)
        peak = float(np.max(magnitudes))
        if not 0.0 < peak < inf:
            return peak
        scale = ldexp(0.5, frexp(peak)[1])
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


# apply_operator warns when a state's first sample exceeds this fraction of
# its largest one.
_BOUNDARY_TOLERANCE = 1e-8


def _check_boundary_decay(psi: SampledWavefunction) -> None:
    scale = float(np.max(np.abs(psi.values)))
    if scale == 0.0:
        return
    edge = abs(psi.values[0])
    if edge > _BOUNDARY_TOLERANCE * scale:
        warnings.warn(
            "wavefunction does not decay below tolerance at the box boundary "
            f"(relative edge magnitude {edge / scale:.2e})",
            BoundaryDecayWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# N x N passes in two halves
# ---------------------------------------------------------------------------


# Rows made at a time where a whole n x n intermediate would add to the peak
# (the mode multiplier, the sinc filter, the reflection route's transform):
# small beside an n x n buffer, and few enough blocks to cost nothing per
# block.
_BLOCK_ROWS = 32

# The smallest n whose passes _halves splits: below it, handing a half to
# the helper thread costs more than it saves (see CHANGES.md).
_SPLIT_MIN_N = 256


def _blocks(rows: slice) -> Iterator[slice]:
    """rows (a slice with a start and a stop), _BLOCK_ROWS at a time."""
    for start in range(rows.start, rows.stop, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, rows.stop))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


_helper_jobs: queue.SimpleQueue | None = None
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    """In a child made by os.fork, which has no helper thread."""
    global _helper_jobs, _helper_lock
    _helper_jobs, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _serve(jobs: queue.SimpleQueue) -> None:
    """The helper thread: run each (context, phase, part, reply) job and put
    None, or the exception it raised, on its reply queue."""
    while True:
        context, phase, part, reply = jobs.get()
        try:
            context.run(phase, part)
        except BaseException as error:  # raised again by the caller
            outcome = error
        else:
            outcome = None
        # the phase may hold N x N buffers: drop it before the caller goes on
        del context, phase, part
        reply.put(outcome)
        del outcome, reply


def _helper() -> queue.SimpleQueue:
    """The helper thread's job queue; the thread starts on first use."""
    global _helper_jobs
    import queue  # here, not at the top: see _halves

    with _helper_lock:
        if _helper_jobs is None:
            _helper_jobs = queue.SimpleQueue()
            threading.Thread(
                target=_serve, args=(_helper_jobs,), name="bjcalc-halves", daemon=True
            ).start()
        return _helper_jobs


def _halves(n: int, phase: Callable[[slice], None]) -> None:
    """phase(part) over the parts of range(n): phase(slice(0, n)) on one
    CPU or below _SPLIT_MIN_N; otherwise the helper thread runs the upper
    half, in a copy of the caller's context (NumPy's error state included),
    while the caller runs the lower half and then waits for it.  An
    exception of either half is raised here, after both have ended."""
    if n < _SPLIT_MIN_N or _cpus() < 2:
        phase(slice(0, n))
        return
    import queue  # here, not at the top: it adds about 0.8 ms to a cold import

    reply: queue.SimpleQueue = queue.SimpleQueue()
    _helper().put((contextvars.copy_context(), phase, slice(n // 2, n), reply))
    try:
        phase(slice(0, n // 2))
    finally:
        error = reply.get()
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# Symplectic Fourier transform and the sinc filter
# ---------------------------------------------------------------------------


def _signed_copy(values: np.ndarray, scale: float, out: np.ndarray, rows: slice) -> None:
    """out[k, j] = (-1)^(j+k) values[j, k] scale for the rows k of out in
    rows, an even start: the symplectic transform's input signs and its 1/n
    (scale, a power of two), taken in its one copy of the samples (see the
    module docstring).  The momentum index comes first, so that the
    transform over x runs along contiguous rows.
    """
    signs = np.resize([scale, -scale], (len(values), 1))[rows]  # (-1)^k scale
    # even and odd rows j of values; written in the order of out's rows,
    # which took half the time of the order of values' rows
    np.multiply(values[::2, rows].T, signs, out=out[rows, ::2])
    np.multiply(values[1::2, rows].T, -signs, out=out[rows, 1::2])


def _checkerboard(w: np.ndarray) -> None:
    """w[m, k] times (-1)^(m+k), in place, for a w whose first row and
    column are even: the output signs of both centred DFTs."""
    np.negative(w[::2, 1::2], out=w[::2, 1::2])
    np.negative(w[1::2, ::2], out=w[1::2, ::2])


def _plain_symplectic(
    w: np.ndarray, fill: Callable[[slice], None], checkerboard: bool = False
) -> np.ndarray:
    """w after fill(rows), which writes w[rows], and the plain DFT over the
    x index j of w[k, j], then the plain inverse DFT over the momentum index
    k, in place; the result is indexed [m, k].  Without the centring signs,
    it is (-1)^(m+k) times the symplectic transform of what fill wrote, and
    with checkerboard those output signs are taken too.  The first phase
    runs over halves of the rows and the second over halves of the columns
    (see _halves)."""

    def forward(rows: slice) -> None:
        fill(rows)
        np.fft.fft(w[rows], axis=1, out=w[rows])

    def inverse(columns: slice) -> None:
        np.fft.ifft(w[:, columns], axis=0, norm="forward", out=w[:, columns])
        if checkerboard:
            _checkerboard(w[:, columns])

    _halves(len(w), forward)
    _halves(len(w), inverse)
    return w


def symplectic_ft(a: SampledSymbol) -> SampledSymbol:
    """Discrete symplectic Fourier transform; an involution on the grid.

    a_sigma(x_m, p_k) = (1/2pi hbar) sum_{j,l}
        exp(-i (p_k x_j - x_m p_l)/hbar) a(x_j, p_l) dx dp.
    """
    n = a.grid.n_points
    w = np.empty((n, n), dtype=complex)
    _plain_symplectic(
        w, lambda rows: _signed_copy(a.values, 1.0 / n, w, rows), checkerboard=True
    )
    return a.with_values(w)


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
    w = np.empty((n, n), dtype=complex)
    transformed = _plain_symplectic(
        w, lambda rows: _signed_copy(a.values, 1.0 / n**2, w, rows)
    ).T
    filtered = np.empty((n, n), dtype=complex)

    def filter_rows(rows: slice) -> None:
        for block in _blocks(rows):
            np.multiply(transformed[block], _over_q(n, head, block), out=filtered[block])

    return a.with_values(_plain_symplectic(filtered, filter_rows, checkerboard=True))


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
    modes = np.empty((n, n), dtype=complex)
    _plain_symplectic(modes, lambda rows: _signed_copy(a.values, 1.0 / n, modes, rows))

    def finish_rows(rows: slice) -> None:
        for block in _blocks(rows):
            modes[block] *= multiplier_rows(block)
        np.fft.ifft(modes[rows], axis=1, norm="forward", out=modes[rows])

    _halves(n, finish_rows)
    return modes


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised complex array starting on a 64-byte boundary."""
    size = shape[0] * shape[1] * np.dtype(complex).itemsize
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(complex).reshape(shape)


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
    # row 0 is the running sum, rows 1.. the block's terms.  The products
    # took up to 5% longer at N = 512 into a block off a 32-byte boundary,
    # and where np.empty puts one depends on the heap's history.
    terms = _aligned_empty((block + 1, n))
    terms[0] = 0.0
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
    if not isinstance(a, SymbolPoly):
        raise TypeError(f"expected a SymbolPoly, got {type(a).__name__}")
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

    Each transform's round-off is about eps max|g_hat| at every mode, and p^s
    multiplies it by up to p_max^s, so on a fine grid it swamps the modes of
    a smooth state.  Every mode below 4 eps max|g_hat| (eps the double
    machine epsilon) is therefore set to zero before the p^s products.
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
                magnitudes = np.abs(g_hat)
                g_hat[magnitudes < 4 * np.finfo(float).eps * magnitudes.max()] = 0
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
) -> SampledWavefunction:
    """Apply the quantized operator of a symbol to a sampled state.

    The scheme is Weyl, Tau(tau) with a numeric tau, BornJordan or
    BJQuadrature, each an average of the tau rule over its own measure (see
    the module docstring); a formal Tau() raises ValueError.  Sampled symbols
    use the phase-space superposition route, in which the scheme's average of
    the ordering phase is one per-mode multiplier, so every scheme costs one
    pass.  Polynomial symbols use the exact pseudospectral route with the
    scheme's average of the binomial ordering weights.

    A state whose first sample is above 1e-8 of its largest one
    (_BOUNDARY_TOLERANCE) does not decay at the periodic box boundary; it is
    applied all the same, with one BoundaryDecayWarning.
    """
    if isinstance(symbol, SampledSymbol):
        _check_pair(symbol, psi)
    _check_boundary_decay(psi)

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
    # W[m, j] = exp(-(t_j - x_m)^2 / 2) depends on j - m alone: a view of its
    # 2n - 1 values, d = j - m from -(n - 1) on
    gaussian = np.exp(-0.5 * (np.arange(1 - n, n) * dx) ** 2)
    envelope = sliding_window_view(gaussian, n)[::-1]
    # the centring signs of both DFTs over t: (-1)^j on psi and on the
    # output; those over p cancel between the two
    signs = np.tile([1.0, -1.0], n // 2)
    phi = signs * psi.values
    # one n x n buffer, transformed and scaled in place, a half of the rows
    # at a time
    work = np.empty((n, n), dtype=complex)

    def rows_of(rows: slice) -> None:
        w = work[rows]
        np.multiply(envelope[rows], phi, out=w)
        # V[m, k] = (-1)^k <psi, Phi_{(x_m, p_k)}> / pi^{-1/4}
        np.fft.fft(w, axis=1, out=w)
        w *= dx
        np.multiply(a.values[rows], w, out=w)
        # G[m, j] = (-1)^j sum_k a(x_m, p_k) V[m, k] exp(i t_j p_k) dp
        np.fft.ifft(w, axis=1, norm="forward", out=w)
        w *= dp

    _halves(n, rows_of)
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
# Shubin-order diagnostics, read from the samples
# ---------------------------------------------------------------------------


def shubin_slopes(a: SampledSymbol, radii: Sequence[float]) -> np.ndarray:
    """Local Shubin order of sampled a between consecutive rings:
    d log max_ring |a| / d log <r>, with <r> = sqrt(1 + r^2).  Ring r holds
    the grid points with ||z| - r| < w, w half the larger of dx and dp, and
    must lie inside the box.  A symbol of Gamma^m reads m far out; applied
    to samples of |grad a|, the reader gives m - rho.
    """
    radii = np.asarray(radii, dtype=float)
    grid, n = a.grid, a.grid.n_points
    dx, dp = grid.spacing, grid.p_spacing(a.hbar)
    half_width = max(dx, dp) / 2
    if radii.ndim != 1 or len(radii) < 2:
        raise ValueError("give at least 2 radii")
    if not np.all(np.isfinite(radii) & (radii >= 0)):
        raise ValueError("radii must be finite and non-negative")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must strictly increase")
    if radii[-1] + half_width >= min(grid.length, n * dp) / 2:
        raise ValueError(f"the ring at r = {radii[-1]:g} leaves the box")
    distance = np.hypot.outer(grid.x_values(), grid.p_values(a.hbar))
    magnitude = np.abs(a.values)
    peaks = []
    for r in radii:
        ring = np.abs(distance - r) < half_width
        peaks.append(np.max(magnitude, where=ring, initial=0.0))
        if peaks[-1] == 0.0:
            raise ValueError(f"the symbol vanishes on the ring at r = {r:g}")
    return np.diff(np.log(peaks)) / np.diff(np.log(np.hypot(1.0, radii)))


# ---------------------------------------------------------------------------
# Named states and symbols
# ---------------------------------------------------------------------------


def gaussian_state(grid: UniformGrid, hbar: float = 1.0) -> SampledWavefunction:
    """Normalized ground Gaussian (pi hbar)^{-1/4} exp(-x^2 / 2 hbar)."""
    _check_hbar(hbar)
    x = grid.x_values()
    values = (pi * hbar) ** -0.25 * np.exp(-(x**2) / (2 * hbar))
    return SampledWavefunction(grid, values.astype(complex), hbar)


_RESCALE = 1e150


def hermite_state(grid: UniformGrid, k: int, hbar: float = 1.0) -> SampledWavefunction:
    """k-th normalized Hermite function (harmonic-oscillator eigenstate)."""
    _require_int(k, "Hermite index")
    if k < 0:
        raise ValueError("Hermite index must be non-negative")
    _check_hbar(hbar)
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
    _check_hbar(hbar)
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


def _periodized_gaussian(u: np.ndarray, period: float) -> np.ndarray:
    """sum_j exp(-(u - j period)^2 / 2 period^2), a Gaussian of width one
    period summed over its images, for u in [-period/2, period/2).  The
    images |j| <= 10 are summed; the first one left out is below exp(-55),
    about 1e-24, of the sum."""
    total = np.zeros_like(u)
    for j in range(-10, 11):
        total += np.exp(-((u - j * period) ** 2) / (2 * period**2))
    return total


def null_symbol(
    grid: UniformGrid, hbar: float = 1.0
) -> tuple[SampledSymbol, tuple[float, float]]:
    """Windowed phase-space exponential annihilated by the Born-Jordan rule.

    Builds c(z) = exp(-i sigma(z, z0)/hbar) w(x) w(p) with z0 = (x0, p0) on
    the grid, where w is a smooth periodized Gaussian one box wide, in x and
    in p; the symplectic transform of c is then concentrated at z0.  z0 is
    the grid point (m dx, k dp) with m k = N, the most balanced such
    factorisation, so x0 p0 = 2 pi hbar and the Born-Jordan filter vanishes
    there.  Returns the symbol and z0.
    """
    _check_hbar(hbar)
    n = grid.n_points
    # both offsets inside the grid, the most balanced first; m = 4 qualifies
    # on every grid (n >= 16)
    m_idx = min(
        (m for m in range(1, n // 2) if n % m == 0 and n // m < n // 2),
        key=lambda m: abs(m * grid.spacing - (n // m) * grid.p_spacing(hbar)),
    )
    x0 = m_idx * grid.spacing
    p0 = (n // m_idx) * grid.p_spacing(hbar)

    x = grid.x_values()
    p = grid.p_values(hbar)
    p_extent = n * grid.p_spacing(hbar)
    window = np.outer(
        _periodized_gaussian(x, grid.length),
        _periodized_gaussian(p, p_extent),
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


def _reads_as_float(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def wavefunction_from_csv(text: str, length: float, hbar: float = 1.0) -> SampledWavefunction:
    """Rows x, Re psi, Im psi (header optional) on UniformGrid(rows, length).

    The first row is a header when none of its fields is a number, so a
    sample row with one bad field is reported, not taken for a header.  The
    x column must match that grid's x_values within 1e-9 L.  A field that is
    not a number raises a ValueError naming its row and column.
    """
    rows = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if rows and not any(map(_reads_as_float, rows[0][1].split(","))):
        rows = rows[1:]  # header
    xs, values = [], []
    for n, row in rows:
        parts = row.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed CSV row: {row!r}")
        numbers = []
        for column, field in zip(("x", "re", "im"), parts):
            try:
                numbers.append(float(field))
            except ValueError:
                raise ValueError(
                    f"CSV row {n}: {column} must be a number, got {field!r}") from None
        xs.append(numbers[0])
        values.append(complex(numbers[1], numbers[2]))
    if not values:
        raise ValueError("CSV has no sample rows")
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def wavefunction_from_json(payload: Union[str, dict]) -> SampledWavefunction:
    """The inverse of wavefunction_to_json: an object with the integer N,
    the numbers L and hbar, and values, one [re, im] pair of numbers per
    sample.  A malformed payload raises a ValueError that names the field."""
    if isinstance(payload, str):
        payload = json.loads(payload)
    if not isinstance(payload, dict):
        raise ValueError(f"state JSON must be an object, got {type(payload).__name__}")
    for field in ("N", "L", "hbar", "values"):
        if field not in payload:
            raise ValueError(f"state JSON has no field {field!r}")
    _require_int(payload["N"], "N")
    for field in ("L", "hbar"):
        if not _is_number(payload[field]):
            raise ValueError(f"{field} must be a number, got {payload[field]!r}")
    samples = payload["values"]
    if not isinstance(samples, list):
        raise ValueError(f"values must be a list of [re, im] pairs, got {type(samples).__name__}")
    for i, sample in enumerate(samples):
        if not (isinstance(sample, list) and len(sample) == 2 and all(map(_is_number, sample))):
            raise ValueError(f"values[{i}] must be a pair [re, im] of numbers, got {sample!r}")
    grid = UniformGrid(payload["N"], float(payload["L"]))
    values = np.asarray([complex(re, im) for re, im in samples])
    return SampledWavefunction(grid, values, float(payload["hbar"]))
