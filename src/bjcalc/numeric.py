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
every scheme costs one symplectic transform and one pass.  On the polynomial
route the measure averages the binomial ordering weights instead; the uniform
measure averages each of them exactly, to 1/(r + 1) on x^r p^s.

States and symbols share one validated sample form, and every route that
applies a sampled symbol to a state checks in one place that the two share
their grid and hbar.

All transforms are periodic; symbols and states are expected to decay at the
box boundary (a state that does not emits a warning, not an error).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from math import comb, inf, isfinite, log, pi, sqrt
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


@dataclass
class _Samples:
    """Validated complex samples on a UniformGrid at a given hbar: `_ndim`
    axes of grid.n_points samples each."""

    grid: UniformGrid
    values: np.ndarray
    hbar: float = 1.0

    _ndim = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        shape = (self.grid.n_points,) * self._ndim
        if self.values.shape != shape:
            raise ValueError(f"{type(self).__name__} values must have shape {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{type(self).__name__} contains non-finite values")
        if not 0 < self.hbar < inf:
            raise ValueError("hbar must be positive and finite")

    def with_values(self, values: np.ndarray):
        """The same grid and hbar with new samples."""
        return type(self)(self.grid, values, self.hbar)


class SampledWavefunction(_Samples):
    """Complex samples of a configuration-space state on a UniformGrid."""

    def norm(self) -> float:
        return float(np.sqrt(self.grid.spacing * np.sum(np.abs(self.values) ** 2)))


class SampledSymbol(_Samples):
    """Complex samples a(x_j, p_k) on the square phase-space grid."""

    _ndim = 2


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


# ---------------------------------------------------------------------------
# Centered discrete Fourier transforms
# ---------------------------------------------------------------------------


def _cdft(values: np.ndarray, sign: int, axis: int = 0) -> np.ndarray:
    """sum_j exp(sign * i * 2pi (k - N/2)(j - N/2) / N) v_j along an axis.

    For N divisible by 4 (every UniformGrid size) the centred kernel is
    (-1)^(j+k) times the plain DFT kernel, so odd samples change sign before
    and after the FFT instead of being rolled by N/2.
    """
    v = np.array(values, dtype=complex)
    odd = [slice(None)] * v.ndim
    odd[axis] = slice(1, None, 2)
    odd = tuple(odd)
    np.negative(v[odd], out=v[odd])
    if sign < 0:
        out = np.fft.fft(v, axis=axis)
    else:
        out = np.fft.ifft(v, axis=axis, norm="forward")
    np.negative(out[odd], out=out[odd])
    return out


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


def symplectic_ft(a: SampledSymbol) -> SampledSymbol:
    """Discrete symplectic Fourier transform; an involution on the grid.

    a_sigma(x_m, p_k) = (1/2pi hbar) sum_{j,l}
        exp(-i (p_k x_j - x_m p_l)/hbar) a(x_j, p_l) dx dp.
    """
    transformed = _cdft(a.values, -1, axis=0)  # over x index -> new p index
    transformed = _cdft(transformed, +1, axis=1)  # over p index -> new x index
    return a.with_values(transformed.T / a.grid.n_points)


def _over_q(n: int, head: np.ndarray) -> np.ndarray:
    """head[q mod len(head)] / q at every centred mode (m, k), q = m k, and 1
    where q = 0; len(head) is a power of two."""
    c = np.arange(n) - n // 2
    recip = np.divide(1.0, c, out=np.zeros(n), where=c != 0)
    out = head[np.multiply.outer(c, c) & (len(head) - 1)]
    out *= np.outer(recip, recip)
    out[n // 2, :] = out[:, n // 2] = 1.0
    return out


def bj_weyl_symbol_numeric(a: SampledSymbol) -> SampledSymbol:
    """Symmetric-rule symbol of the Born-Jordan operator of a, on the grid.

    Realized as F_sigma -> pointwise sinc(px/2hbar) multiply -> F_sigma.  At
    the mode (x_m, p_k), px/2hbar = pi q/n with q = m k, so the filter is
    tabulated from the integer q: sin(pi q/n) = -sin(pi (q - n)/n).
    """
    n = a.grid.n_points
    half = np.sin(pi * np.arange(n) / n) * (n / pi)
    a_sig = symplectic_ft(a)
    filtered = a_sig.with_values(a_sig.values * _over_q(n, np.concatenate([half, -half])))
    return symplectic_ft(filtered)


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


def _mode_multiplier(n: int, scheme: Scheme) -> np.ndarray:
    """The scheme's average of exp(-i t theta) at every mode (m, k).

    theta = 2pi q/n with q = m k (centred indices), so the multiplier is a
    function of the integer q alone.  Writing q = a n + b with 0 <= b < n and
    |a| <= n/4 splits exp(-2pi i t q/n) into exp(-2pi i t a) exp(-2pi i t b/n):
    for a point mass or a quadrature the table over (a, b) is one matrix
    product over the nodes, gathered at the flat index q + n^2/4.  The exact
    uniform average over t in [0, 1] is exp(-i theta/2) sinc(theta/2)
    = exp(-i pi b/n) sin(pi b/n) n/(pi q), with the value 1 at q = 0.
    """
    if isinstance(scheme, BornJordan):
        b = np.arange(n)
        return _over_q(n, np.exp(-1j * pi * b / n) * np.sin(pi * b / n) * (n / pi))
    c = np.arange(n) - n // 2
    q = np.multiply.outer(c, c)
    nodes, weights = _ordering_measure(scheme)
    a = np.arange(-(n // 4), n // 4 + 1)
    b = np.arange(n)
    # einsum sums in NumPy's own loops; a BLAS matmul of this shape wakes a
    # thread pool, which on a loaded 2-CPU host cost about 16 ms a call
    table = np.einsum(
        "at,tb->ab",
        np.exp(-2j * pi * np.outer(a, nodes)) * weights,
        np.exp(-2j * pi * np.outer(nodes, b) / n),
    )
    return table.ravel()[q + n * n // 4]


def _apply_sampled(
    a: SampledSymbol, psi: SampledWavefunction, multiplier: np.ndarray
) -> np.ndarray:
    """Phase-space superposition route with a per-mode ordering multiplier.

    out(x_i) = (1/n) sum_m [C+_k (a_sigma mu)](m, i) psi(x_i - x_m), where
    a_sigma is the symplectic transform and C+_k the centred inverse DFT over
    the momentum index; mu = exp(-i tau theta) gives the tau rule.
    """
    n = a.grid.n_points
    weighted = symplectic_ft(a).values
    # symplectic_ft returns a transposed (Fortran-ordered) array; the
    # multiplier depends only on q = m k, so it equals its transpose, and
    # multiplying by multiplier.T walks both arrays in the same memory order
    weighted *= multiplier.T
    modes = _cdft(weighted, +1, axis=1)  # modes[m, i]: function of x_i
    # windows[s, i] = psi[(s + i) mod n]; row n + n/2 - m is psi(x_i - x_m)
    windows = sliding_window_view(np.tile(psi.values, 3), n)
    shifted = windows[n + n // 2 : n // 2 : -1]
    return np.einsum("mi,mi->i", modes, shifted) / n


def _ordering_weight(scheme: Scheme) -> Callable[[int, int], float]:
    """The scheme's average over tau of C(r, j) (1-tau)^(r-j) tau^j."""
    if isinstance(scheme, BornJordan):
        # the uniform average C(r, j) B(r-j+1, j+1) is 1/(r+1) for every j
        return lambda r, j: 1.0 / (r + 1)
    nodes, weights = _ordering_measure(scheme)
    return lambda r, j: comb(r, j) * float(
        np.sum(weights * (1.0 - nodes) ** (r - j) * nodes**j)
    )


def _float_terms(a: SymbolPoly, hbar: float) -> list[tuple[int, int, complex]]:
    """(r, s, c) for each term c x^r p^s of a one-dimensional polynomial
    symbol, with c rounded once to a complex at hbar."""
    if a.dim != 1:
        raise ValueError("the numeric layer is one-dimensional")
    return [(r, s, coeff.to_complex(hbar)) for ((r,), (s,)), coeff in a.terms.items()]


def _apply_poly(
    a: SymbolPoly,
    psi: SampledWavefunction,
    ordering_weight: Callable[[int, int], float],
) -> np.ndarray:
    """Exact pseudospectral route for one-dimensional polynomial symbols.

    x^r p^s at ordering tau is sum_j C(r, j) (1-tau)^(r-j) tau^j
    x^(r-j) p^s x^j, so an average over tau averages these weights.
    """
    x = psi.grid.x_values()
    p = psi.grid.p_values(psi.hbar)
    # transform each x^j psi once, and sum every term with the same outer
    # power x^o in momentum space so that each o needs one inverse transform
    g_hat: dict[int, np.ndarray] = {}
    inner: dict[int, np.ndarray] = {}
    for r, s, c in _float_terms(a, psi.hbar):
        for j in range(r + 1):
            weight = ordering_weight(r, j)
            if weight == 0.0:
                continue
            if j not in g_hat:
                g_hat[j] = _cdft((x**j) * psi.values, -1)
            term = (c * weight) * (p**s) * g_hat[j]
            if r - j in inner:
                inner[r - j] += term
            else:
                inner[r - j] = term
    out = np.zeros_like(psi.values)
    for o, acc in inner.items():
        out += (x**o) * (_cdft(acc, +1) / psi.grid.n_points)
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
            multiplier = _mode_multiplier(psi.grid.n_points, scheme)
            values = _apply_sampled(symbol, psi, multiplier)
        else:
            values = _apply_poly(symbol, psi, _ordering_weight(scheme))
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
    spectrum = _cdft(psi.values, -1)
    spectrum *= np.exp(-1j * p * x0 / hbar)
    translated = _cdft(spectrum, +1) / grid.n_points
    phase = np.exp(1j * (p0 * x - 0.5 * p0 * x0) / hbar)
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
    route only (the production path is apply_operator).
    """
    _check_pair(a, psi)
    n = a.grid.n_points
    modes = _cdft(a.values, +1, axis=1)  # over p index k -> spatial index
    # modes[m, j] = sum_k a(m, k) exp(i 2pi (k - N/2)(j - N/2)/N)
    i_idx = np.arange(n)
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        doubled = (n // 2 + 2 * (i_idx - m)) % n
        mirror = (2 * m - i_idx) % n
        out += modes[m, doubled] * psi.values[mirror]
    return psi.with_values(out * (2.0 / n))


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
    windowed = envelope * psi.values[None, :]
    # V[m, k] = <psi, Phi_{(x_m, p_k)}> / pi^{-1/4}
    overlaps = _cdft(windowed, -1, axis=1) * dx
    weighted = a.values * overlaps
    # G[m, j] = sum_k a(x_m, p_k) V[m, k] exp(i t_j p_k) dp
    modes = _cdft(weighted, +1, axis=1) * dp
    out = np.einsum("mj,mj->j", envelope, modes) * dx / sqrt(pi)
    return psi.with_values(out)


def q_norm_estimate(psi: SampledWavefunction, s: float) -> float:
    """L2 norm of the anti-Wick operator with symbol <z>^s applied to psi."""
    grid = psi.grid
    x = grid.x_values()
    p = grid.p_values(1.0)
    weight = (1.0 + np.add.outer(x**2, p**2)) ** (s / 2.0)
    symbol = SampledSymbol(grid, weight.astype(complex), 1.0)
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
    """Evaluate a one-dimensional polynomial symbol on the phase-space grid."""
    x = grid.x_values()
    p = grid.p_values(hbar)
    values = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    for r, s, c in _float_terms(a, hbar):
        values += c * np.outer(x**r, p**s)
    return SampledSymbol(grid, values, hbar)


def _periodized_gaussian(u: np.ndarray, period: float, width: float) -> np.ndarray:
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
    grid = UniformGrid(int(payload["N"]), float(payload["L"]))
    values = np.asarray([complex(re, im) for re, im in payload["values"]])
    return SampledWavefunction(grid, values, float(payload["hbar"]))
