"""Grid-layer invariants: transforms, application routes, phase-space
operators, coherent-state machinery, and growth-order estimation."""

import json
import os
import select
import signal
import sys
import threading
import time
import warnings
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from bjcalc import numeric
from bjcalc.exact import AmplitudePoly, ExactScalar, SymbolPoly
from bjcalc.numeric import (
    BJQuadrature,
    BJSinc,
    BoundaryDecayWarning,
    SampledSymbol,
    SampledWavefunction,
    TauScheme,
    UniformGrid,
    WeylScheme,
    antiwick_apply,
    apply_operator,
    bj_weyl_symbol_numeric,
    gaussian_state,
    grossmann_royer_apply,
    heisenberg_shift,
    hermite_state,
    null_symbol,
    q_norm_estimate,
    sample_symbol,
    shubin_slopes,
    symplectic_ft,
    wavefunction_from_csv,
    wavefunction_from_json,
    wavefunction_to_csv,
    wavefunction_to_json,
    weyl_via_grossmann_royer,
)
from bjcalc.operators import OpPoly
from bjcalc.quantize import BornJordan, Tau, Weyl, quantize_symbol
from bjcalc.symlang import parse
from bjcalc.transforms import bj_to_weyl, weyl_to_bj


def _grid(n=256, box=20.0):
    return UniformGrid(n, box)


def _smooth_symbol(grid, seed=0, hbar=1.0, env_div=8.0):
    rng = np.random.default_rng(seed)
    x = grid.x_values()
    p = grid.p_values(hbar)
    envelope = np.exp(-np.add.outer(x**2, p**2) / env_div)
    field = (
        rng.standard_normal((grid.n_points, grid.n_points))
        + 1j * rng.standard_normal((grid.n_points, grid.n_points))
    )
    # low-pass the random field so samples represent a smooth function
    spectrum = np.fft.fft2(field)
    keep = 8
    mask = np.zeros_like(spectrum, dtype=bool)
    mask[:keep, :keep] = mask[:keep, -keep:] = True
    mask[-keep:, :keep] = mask[-keep:, -keep:] = True
    smooth = np.fft.ifft2(spectrum * mask)
    return SampledSymbol(grid, envelope * smooth, hbar)


def _random_state(grid, seed=1, hbar=1.0):
    """Smooth random state decaying in both position and momentum."""
    rng = np.random.default_rng(seed)
    x = grid.x_values()
    p = grid.p_values(hbar)
    v = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    spectrum = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(v)))
    spectrum *= np.exp(-(p**2) / 4)
    v = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(spectrum)))
    v *= np.exp(-(x**2) / 4)
    psi = SampledWavefunction(grid, v, hbar)
    return psi.with_values(psi.values / psi.norm())


def _traced_peak(call):
    """Peak bytes that tracemalloc sees allocated during call()."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridBasics:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            UniformGrid(100, 10.0)  # not a power of two
        with pytest.raises(ValueError):
            UniformGrid(8, 10.0)  # too small
        with pytest.raises(ValueError):
            UniformGrid(64, -1.0)

    @pytest.mark.parametrize("call, name", [
        (lambda: SymbolPoly.variable(2, ("x", True)), "variable index"),
        (lambda: SymbolPoly.variable(2, ("x", 0.5)), "variable index"),
        (lambda: OpPoly.variable(2, ("x", 1.0)), "variable index"),
        (lambda: UniformGrid(64.0, 20.0), "n_points"),
        (lambda: hermite_state(_grid(64), 2.0), "Hermite index"),
        (lambda: hermite_state(_grid(64), True), "Hermite index"),
        (lambda: BJQuadrature(2.5), "quadrature order"),
    ], ids=["variable-bool", "variable-float", "x_op-float", "grid-float",
            "hermite-float", "hermite-bool", "quadrature-float"])
    def test_integer_parameters_reject_non_integers(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("make", [
        lambda grid, hbar: gaussian_state(grid, hbar),
        lambda grid, hbar: hermite_state(grid, 2, hbar),
        lambda grid, hbar: null_symbol(grid, hbar),
        lambda grid, hbar: sample_symbol(parse("x*p"), grid, hbar),
        lambda grid, hbar: SampledWavefunction(grid, np.full(64, np.nan), hbar),
    ], ids=["gaussian", "hermite", "null", "sample", "nan-samples"])
    def test_hbar_is_checked_before_any_sample(self, make, hbar):
        # the check precedes every division by hbar and every sample check
        with pytest.raises(ValueError, match="^hbar must be positive and finite$"):
            make(UniformGrid(64, 12.0), hbar)

    def test_grid_geometry(self):
        grid = UniformGrid(64, 16.0)
        x = grid.x_values()
        assert x[32] == 0.0
        assert x[0] == -8.0
        assert np.isclose(grid.p_spacing(1.0) * grid.spacing * 64, 2 * np.pi)

    def test_state_validation(self):
        grid = _grid(64)
        with pytest.raises(ValueError):
            SampledWavefunction(grid, np.zeros(32))
        with pytest.raises(ValueError):
            SampledWavefunction(grid, np.full(64, np.nan))

    def test_assigned_values_are_validated(self):
        # samples are immutable: an assignment raises and changes nothing, and
        # new samples go through the constructor's check
        grid = UniformGrid(64, 16.0)
        a = SampledSymbol(grid, np.zeros((64, 64), complex))
        psi = gaussian_state(grid)
        for samples in (a, psi):
            before = samples.values
            with pytest.raises(FrozenInstanceError):
                samples.values = np.ones_like(before)
            assert samples.values is before
        with pytest.raises(ValueError, match=r"SampledSymbol values must have shape \(64, 64\)"):
            a.with_values(np.zeros((32, 32)))
        with pytest.raises(ValueError, match="SampledWavefunction values must have shape"):
            replace(psi, values=np.zeros((64, 64)))
        for samples, bad in ((a, np.full((64, 64), np.inf)), (psi, np.full(64, np.nan))):
            with pytest.raises(ValueError, match="contains non-finite values"):
                samples.with_values(bad)
            with pytest.raises(ValueError, match="contains non-finite values"):
                replace(samples, values=bad)

    def test_assigned_hbar_is_validated(self):
        grid = UniformGrid(64, 16.0)
        for samples in (gaussian_state(grid), SampledSymbol(grid, np.zeros((64, 64), complex))):
            for bad in (-1.0, 0.0, float("nan"), float("inf")):
                with pytest.raises(FrozenInstanceError):
                    samples.hbar = bad
                with pytest.raises(ValueError, match="hbar must be positive and finite"):
                    replace(samples, hbar=bad)
            other = replace(samples, hbar=2.0)
            # the read-only samples are shared, not copied
            assert other.hbar == 2.0 and other.values is samples.values
            assert samples.hbar == 1.0

    def test_assigned_grid_must_fit_the_samples(self):
        psi = gaussian_state(UniformGrid(64, 16.0))
        with pytest.raises(FrozenInstanceError):
            psi.grid = UniformGrid(32, 16.0)
        with pytest.raises(ValueError, match=r"SampledWavefunction values must have shape \(32,\)"):
            replace(psi, grid=UniformGrid(32, 16.0))
        assert psi.grid == UniformGrid(64, 16.0)
        assert np.isclose(psi.norm(), 1.0)
        a = SampledSymbol(UniformGrid(64, 16.0), np.zeros((64, 64), complex))
        with pytest.raises(ValueError, match=r"SampledSymbol values must have shape \(32, 32\)"):
            replace(a, grid=UniformGrid(32, 16.0))
        # the same number of points on another box is a valid grid for the samples
        wider = replace(psi, grid=UniformGrid(64, 20.0))
        assert wider.grid.length == 20.0 and psi.grid.length == 16.0

    def test_state_samples_are_read_only(self):
        grid = UniformGrid(64, 16.0)
        owned = gaussian_state(grid).values.copy()
        psi = SampledWavefunction(grid, owned)
        assert psi.values is owned
        with pytest.raises(ValueError, match="read-only"):
            owned[0] = 1
        caller = np.zeros(128, dtype=complex)[::2]
        view = SampledWavefunction(grid, caller)
        caller += 1  # a view is copied, so the caller's array stays writeable
        assert not view.values.any()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BJQuadrature(1)

    def test_tolerance_and_tau_validation(self):
        # the boundary tolerance is 1e-8 of the state's largest sample
        grid = UniformGrid(64, 16.0)
        a = SymbolPoly.monomial(1, x=(0,), p=(0,))
        for edge, warns in ((2e-8, True), (5e-9, False)):
            values = np.ones(64, dtype=complex)
            values[0] = edge
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                apply_operator(a, SampledWavefunction(grid, values), WeylScheme())
            assert [w.category for w in caught] == [BoundaryDecayWarning] * warns
        # a NaN ordering parameter poisons every sample
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TauScheme(bad)
        TauScheme(0.3)

    def test_named_states_are_normalized_eigenstates(self):
        grid = _grid()
        for k in range(4):
            psi = hermite_state(grid, k)
            assert abs(psi.norm() - 1.0) < 1e-12
            out = apply_operator(parse("1/2*x^2 + 1/2*p^2"), psi, WeylScheme())
            err = np.max(np.abs(out.values - (k + 0.5) * psi.values))
            assert err < 1e-8
        assert np.allclose(
            gaussian_state(grid).values, hermite_state(grid, 0).values
        )

    def test_hermite_matches_unnormalised_recurrence(self):
        # reference: H_k by its own recurrence, normalised by 2^k k! at the end
        from math import factorial, pi, sqrt

        for n, box, hbar in ((256, 20.0, 1.0), (128, 12.0, 0.5)):
            grid = UniformGrid(n, box)
            xi = grid.x_values() / sqrt(hbar)
            h = [np.ones_like(xi), 2 * xi]
            for k in range(1, 12):
                h.append(2 * xi * h[k] - 2 * k * h[k - 1])
            for k in range(13):
                ref = (pi * hbar) ** -0.25 / sqrt(2.0**k * factorial(k))
                ref = ref * h[k] * np.exp(-(xi**2) / 2)
                psi = hermite_state(grid, k, hbar)
                assert np.max(np.abs(psi.values - ref)) < 1e-12

    def test_hermite_high_index(self):
        # k = 160 used to come back as all zeros and k = 200 overflowed
        grid = UniformGrid(512, 40.0)
        assert abs(hermite_state(grid, 160).norm() - 1.0) < 1e-8
        # the turning point sqrt(2k + 1) of k = 200 sits at the edge of that
        # box, so check it on a box twice as wide with the same spacing and
        # check that the narrow box holds exactly its middle samples
        wide = UniformGrid(1024, 80.0)
        psi = hermite_state(wide, 200)
        assert abs(psi.norm() - 1.0) < 1e-8
        narrow = hermite_state(grid, 200).values
        assert np.max(np.abs(narrow - psi.values[256:768])) < 1e-12

    def test_hermite_beyond_gaussian_underflow(self):
        # exp(-xi^2/2) underflows for |xi| > 38.6, inside the classically
        # allowed region |xi| < sqrt(2k + 1) of k = 1000 (norm was 0.814)
        psi = hermite_state(UniformGrid(2048, 120.0), 1000)
        assert abs(psi.norm() - 1.0) < 1e-8

    def test_hermite_matches_plain_recurrence(self):
        # reference: the same recurrence started from the Gaussian itself,
        # exact wherever that start does not underflow
        from math import pi, sqrt

        for n, box, hbar, k in ((512, 40.0, 1.0, 160), (512, 40.0, 1.0, 20),
                                (256, 20.0, 0.5, 37)):
            grid = UniformGrid(n, box)
            xi = grid.x_values() / sqrt(hbar)
            prev = np.zeros_like(xi)
            curr = (pi * hbar) ** -0.25 * np.exp(-(xi**2) / 2)
            for j in range(k):
                nxt = sqrt(2 / (j + 1)) * xi * curr - sqrt(j / (j + 1)) * prev
                prev, curr = curr, nxt
            psi = hermite_state(grid, k, hbar)
            assert np.max(np.abs(psi.values - curr)) < 1e-12


class TestSymplecticTransform:
    def test_involution(self):
        grid = _grid()
        for seed in range(3):
            a = _smooth_symbol(grid, seed)
            twice = symplectic_ft(symplectic_ft(a))
            assert np.max(np.abs(twice.values - a.values)) < 1e-10

    def test_linearity(self):
        grid = _grid(128)
        a, b = _smooth_symbol(grid, 5), _smooth_symbol(grid, 6)
        combo = a.with_values(2.0 * a.values - 0.5j * b.values)
        lhs = symplectic_ft(combo).values
        rhs = 2.0 * symplectic_ft(a).values - 0.5j * symplectic_ft(b).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_gaussian_fixed_point(self):
        # e^{-(x^2+p^2)/2 hbar} is symplectically self-reciprocal at hbar=1
        grid = _grid()
        x = grid.x_values()
        p = grid.p_values(1.0)
        a = SampledSymbol(grid, np.exp(-np.add.outer(x**2, p**2) / 2) + 0j)
        out = symplectic_ft(a)
        assert np.max(np.abs(out.values - a.values)) < 1e-12

    def test_against_dense_quadrature_oracle(self):
        # direct O(N^4) double Riemann sum of the transform integral
        grid = UniformGrid(64, 16.0)
        n = grid.n_points
        x = grid.x_values()
        p = grid.p_values(1.0)
        a = _smooth_symbol(grid, 7, env_div=4.0)
        fast = symplectic_ft(a).values
        weight = grid.spacing * grid.p_spacing(1.0) / (2 * np.pi)
        dense = np.zeros((n, n), dtype=complex)
        for m in range(n):
            for k in range(n):
                phase = np.exp(-1j * (np.subtract.outer(p[k] * x, x[m] * p)))
                dense[m, k] = np.sum(phase * a.values) * weight
        assert np.max(np.abs(fast - dense)) < 1e-10 * np.max(np.abs(dense))


class TestApplicationRoutes:
    def test_scheme_coherence_weyl_vs_midpoint(self):
        grid = _grid()
        psi = _random_state(grid)
        a = _smooth_symbol(grid)
        o1 = apply_operator(a, psi, WeylScheme())
        o2 = apply_operator(a, psi, TauScheme(0.5))
        assert np.max(np.abs(o1.values - o2.values)) < 1e-10

    def test_identity_symbol_fixes_states(self):
        grid = _grid()
        psi = _random_state(grid)
        one_poly = parse("1")
        one_grid = SampledSymbol(
            grid, np.ones((grid.n_points, grid.n_points), dtype=complex)
        )
        for scheme in (WeylScheme(), TauScheme(0.3), BJQuadrature(8), BJSinc()):
            for sym in (one_poly, one_grid):
                out = apply_operator(sym, psi, scheme)
                assert np.max(np.abs(out.values - psi.values)) < 1e-10

    def test_scheme_coherence_on_sampled_polynomials(self):
        # degree <= 4 polynomial symbols sampled on the grid
        grid = UniformGrid(512, 20.0)
        psi = gaussian_state(grid)
        for expr in ("x^2*p^2", "x^3*p", "x + p^4"):
            a = sample_symbol(parse(expr), grid)
            o1 = apply_operator(a, psi, WeylScheme())
            o2 = apply_operator(a, psi, TauScheme(0.5))
            assert np.max(np.abs(o1.values - o2.values)) < 1e-10

    def test_sampled_route_matches_exact_route_for_harmonic(self):
        grid = UniformGrid(512, 20.0)
        psi = gaussian_state(grid)
        poly = parse("1/2*x^2 + 1/2*p^2")
        sampled = sample_symbol(poly, grid)
        for scheme in (WeylScheme(), TauScheme(0.3), BJQuadrature(16), BJSinc()):
            o1 = apply_operator(poly, psi, scheme)
            o2 = apply_operator(sampled, psi, scheme)
            assert np.max(np.abs(o1.values - o2.values)) < 1e-10

    def test_position_and_momentum_monomials(self):
        grid = UniformGrid(512, 20.0)
        psi = hermite_state(grid, 2)
        x = grid.x_values()
        out = apply_operator(parse("x^2"), psi, WeylScheme())
        assert np.max(np.abs(out.values - x**2 * psi.values)) < 1e-10
        # p hermite_k relation: p h_k = i(sqrt((k+1)/2) h_{k+1} - sqrt(k/2) h_{k-1})
        out_p = apply_operator(parse("p"), psi, WeylScheme())
        expected = 1j * (
            np.sqrt(1.5) * hermite_state(grid, 3).values
            - hermite_state(grid, 1).values
        )
        assert np.max(np.abs(out_p.values - expected)) < 1e-8

    def test_linearity_in_the_state(self):
        grid = _grid()
        a = _smooth_symbol(grid)
        psi1, psi2 = _random_state(grid, 2), _random_state(grid, 3)
        combo = psi1.with_values(2.0 * psi1.values - 1j * psi2.values)
        lhs = apply_operator(a, combo, BJQuadrature(8)).values
        rhs = (
            2.0 * apply_operator(a, psi1, BJQuadrature(8)).values
            - 1j * apply_operator(a, psi2, BJQuadrature(8)).values
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_grid_mismatch_rejected(self):
        a = _smooth_symbol(_grid(128))
        psi = _random_state(_grid(256))
        with pytest.raises(ValueError):
            apply_operator(a, psi, WeylScheme())

    def test_boundary_warning(self):
        grid = _grid(64)
        values = np.ones(64, dtype=complex)  # no decay at the edges
        psi = SampledWavefunction(grid, values)
        a = sample_symbol(parse("x"), grid)
        with pytest.warns(BoundaryDecayWarning):
            apply_operator(a, psi, WeylScheme())


def _cdft(v, sign, axis=0):
    """sum_j exp(sign * i * 2pi (k - N/2)(j - N/2) / N) v_j along an axis, in
    place: v, a writeable complex array, is overwritten and returned, so a
    caller that must keep its input passes a copy.

    For N divisible by 4 (every UniformGrid size) the centred kernel is
    (-1)^(j+k) times the plain DFT kernel, so odd samples change sign before
    and after the FFT instead of being rolled by N/2.  The grid layer's plain
    FFTs put these signs elsewhere; the tests build its routes' steps from
    this centred DFT, which negates exactly, and compare them bit for bit.
    """
    odd = [slice(None)] * v.ndim
    odd[axis] = slice(1, None, 2)
    odd = tuple(odd)
    np.negative(v[odd], out=v[odd])
    if sign < 0:
        np.fft.fft(v, axis=axis, out=v)
    else:
        np.fft.ifft(v, axis=axis, norm="forward", out=v)
    np.negative(v[odd], out=v[odd])
    return v


def _centred_dft(v, sign, axis):
    # the centred DFT by rolling the zero index to the front and back
    shifted = np.fft.ifftshift(v, axes=axis)
    if sign < 0:
        out = np.fft.fft(shifted, axis=axis)
    else:
        out = np.fft.ifft(shifted, axis=axis) * v.shape[axis]
    return np.fft.fftshift(out, axes=axis)


def _oracle_apply(a, psi, scheme):
    """Sampled route, one full pass per ordering parameter.

    A direct exp(-i tau theta) phase per tau, the Gauss-Legendre loop for
    BJQuadrature, and for BJSinc the sinc-filtered symbol under the Weyl rule.
    """
    n = a.grid.n_points
    m = np.arange(n) - n // 2

    def transform(values):
        out = _centred_dft(_centred_dft(values, -1, 0), +1, 1)
        return out.T / n

    if isinstance(scheme, BJSinc):
        theta = 2 * np.pi * np.outer(m, m) / n
        values = transform(transform(a.values) * np.sinc(theta / (2 * np.pi)))
        measure = [(0.5, 1.0)]
    else:
        values = a.values
        if isinstance(scheme, WeylScheme):
            measure = [(0.5, 1.0)]
        elif isinstance(scheme, TauScheme):
            measure = [(scheme.tau, 1.0)]
        else:
            nodes, weights = np.polynomial.legendre.leggauss(scheme.order)
            measure = list(zip((nodes + 1) / 2, weights / 2))
    a_sig = transform(values)
    shifted = psi.values[(np.arange(n)[None, :] - m[:, None]) % n]
    out = np.zeros(n, dtype=complex)
    for tau, weight in measure:
        phase = np.exp(-1j * tau * 2 * np.pi * np.outer(m, m) / n)
        modes = _centred_dft(a_sig * phase, +1, 1)
        out += weight * np.sum(modes * shifted, axis=0) / n
    return out


ORACLE_SCHEMES = (
    WeylScheme(),
    TauScheme(0.0),
    TauScheme(1 / 3),
    TauScheme(1.0),
    TauScheme(-0.7),
    TauScheme(2.5),
    BJQuadrature(8),
    BJQuadrature(16),
    BJSinc(),
)


class TestSampledRouteOracle:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_matches_one_pass_per_tau(self, n, hbar):
        grid = UniformGrid(n, 20.0)
        a = _smooth_symbol(grid, seed=n, hbar=hbar)
        psi = _random_state(grid, seed=n + 1, hbar=hbar)
        for scheme in ORACLE_SCHEMES:
            fast = apply_operator(a, psi, scheme).values
            ref = _oracle_apply(a, psi, scheme)
            assert np.max(np.abs(fast - ref)) < 1e-12 * np.max(np.abs(ref)), scheme

    def test_mode_multiplier_matches_direct_phase(self):
        from bjcalc.numeric import _mode_multiplier

        for n in (16, 1024):
            m = np.arange(n) - n // 2
            theta = 2 * np.pi * np.outer(m, m) / n
            for tau in (0.5, 1 / 3, -0.7, 2.5):
                direct = np.exp(-1j * tau * theta)
                table = _mode_multiplier(n, TauScheme(tau))(slice(None))
                assert np.max(np.abs(table - direct)) < 1e-12
            sinc = np.exp(-0.5j * theta) * np.sinc(theta / (2 * np.pi))
            assert np.max(np.abs(_mode_multiplier(n, BJSinc())(slice(None)) - sinc)) < 1e-12
        for n, order in ((256, 8), (512, 16), (512, 5)):
            m = np.arange(n) - n // 2
            theta = 2 * np.pi * np.outer(m, m) / n
            nodes, weights = np.polynomial.legendre.leggauss(order)
            direct = sum(
                w / 2 * np.exp(-1j * (t + 1) / 2 * theta) for t, w in zip(nodes, weights)
            )
            table = _mode_multiplier(n, BJQuadrature(order))(slice(None))
            assert np.max(np.abs(table - direct)) < 1e-12, (n, order)

    def test_poly_quadrature_averages_weights(self):
        # one pass with averaged ordering weights equals the average of the
        # tau routes at the nodes
        grid = UniformGrid(256, 20.0)
        psi = _random_state(grid, 4)
        a = parse("x^3*p - 1/2*x*p^2 + p^3")
        nodes, weights = np.polynomial.legendre.leggauss(16)
        ref = sum(
            w / 2 * apply_operator(a, psi, TauScheme((t + 1) / 2)).values
            for t, w in zip(nodes, weights)
        )
        out = apply_operator(a, psi, BJQuadrature(16)).values
        assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


class TestFoldedSigns:
    """Every grid transform is a plain FFT, with the centring signs of its
    centred DFT put on an input copy, the state, a real factor or the one
    output checkerboard, or cancelled between two transforms.  Each route is
    compared with the same steps built from the test-local centred _cdft:
    the polynomial route bit for bit, signed zeros included, and the rest
    with np.array_equal, since a sign multiplied onto an exact zero may
    differ from a sign negated onto it."""

    @staticmethod
    def _symplectic(values):
        w = values.T.copy()
        _cdft(w, -1, axis=1)
        _cdft(w, +1, axis=0)
        w /= len(values)
        return w

    @staticmethod
    def _sinc_filter(n):
        from bjcalc.numeric import _over_q

        half = np.sin(np.pi * np.arange(n) / n) * (n / np.pi)
        return _over_q(n, np.concatenate([half, -half]))

    def _apply(self, a, psi, scheme):
        """Centred modes, then a sequential gather one row m at a time."""
        from bjcalc.numeric import _mode_multiplier

        n = a.grid.n_points
        modes = self._symplectic(a.values) * _mode_multiplier(n, scheme)(slice(None))
        _cdft(modes, +1, axis=1)
        i = np.arange(n)
        out = np.zeros(n, dtype=complex)
        for m in range(n):
            out += modes[m] * psi.values[(i - m + n // 2) % n]
        return out / n

    @staticmethod
    def _poly(a, psi, scheme):
        """The polynomial route with a centred transform per power x^j and
        per outer power x^o, each sum added in the route's order."""
        from bjcalc.numeric import _float_terms, _ordering_weights

        n = psi.grid.n_points
        x, p = psi.grid.x_values(), psi.grid.p_values(psi.hbar)
        terms = _float_terms(a, psi.hbar)
        weights = _ordering_weights(scheme, {r for r, _, _ in terms})
        top = max(weights, default=-1)
        inner = {}
        for j in range(top + 1):
            g_hat = _cdft((x**j) * psi.values, -1)
            for r, s, c in terms:
                weight = weights[r][j] if j <= r else 0.0
                if weight != 0.0:
                    term = (c * weight) * (p**s) * g_hat
                    inner[r - j] = inner[r - j] + term if r - j in inner else term
        out = np.zeros_like(psi.values)
        for o in range(top, -1, -1):
            if o in inner:
                out += (x**o) * (_cdft(inner[o], +1) / n)
        return out

    @staticmethod
    def _shift(psi, z0):
        x0, p0 = z0
        grid, hbar = psi.grid, psi.hbar
        spectrum = _cdft(psi.values.copy(), -1)
        spectrum *= np.exp(-1j * grid.p_values(hbar) * x0 / hbar)
        translated = _cdft(spectrum, +1) / grid.n_points
        return np.exp(1j * (p0 * grid.x_values() - 0.5 * p0 * x0) / hbar) * translated

    def _antiwick(self, a, psi):
        grid = a.grid
        x = grid.x_values()
        envelope = np.exp(-0.5 * np.subtract.outer(x, x) ** 2)
        overlaps = _cdft(envelope * psi.values[None, :], -1, axis=1) * grid.spacing
        modes = _cdft(a.values * overlaps, +1, axis=1) * grid.p_spacing(1.0)
        return np.einsum("mj,mj->j", envelope, modes) * grid.spacing / np.sqrt(np.pi)

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_sampled_route(self, n):
        grid = UniformGrid(n, 20.0)
        a = _smooth_symbol(grid, seed=n, hbar=0.5)
        psi = _random_state(grid, seed=n + 1, hbar=0.5)
        for scheme in (WeylScheme(), TauScheme(0.3), BJSinc(), BJQuadrature(5)):
            want = self._apply(a, psi, scheme)
            assert np.array_equal(apply_operator(a, psi, scheme).values, want), scheme

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_symplectic_transforms_and_antiwick(self, n):
        grid = UniformGrid(n, 20.0)
        a = _smooth_symbol(grid, seed=n)
        psi = _random_state(grid, seed=n + 1)
        assert np.array_equal(symplectic_ft(a).values, self._symplectic(a.values))
        filtered = self._symplectic(a.values) * self._sinc_filter(n)
        assert np.array_equal(bj_weyl_symbol_numeric(a).values, self._symplectic(filtered))
        assert np.array_equal(antiwick_apply(a, psi).values, self._antiwick(a, psi))

    @staticmethod
    def _states(grid):
        """A smooth state, the same with every third sample exactly zero,
        and the zero state."""
        psi = _random_state(grid, seed=grid.n_points + 2, hbar=0.5)
        holes = psi.values.copy()
        holes[::3] = 0.0
        return psi, psi.with_values(holes), psi.with_values(np.zeros(grid.n_points))

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_poly_route(self, n):
        symbols = [parse(t) for t in ("0", "1", "x*p", "(x+p)^12", "x^3*p - 1/2*x*p^2 + p^3")]
        for psi in self._states(UniformGrid(n, 20.0)):
            for scheme in (WeylScheme(), TauScheme(0.3), BJSinc(), BJQuadrature(5)):
                for a in symbols:
                    got = apply_operator(a, psi, scheme).values
                    want = self._poly(a, psi, scheme)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (a, scheme)

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_shift_and_reflection(self, n):
        for psi in self._states(UniformGrid(n, 20.0)):
            for z0 in ((0.0, 0.0), (1.25, 2.0), (0.3117, -1.77), (-2.5, 0.0)):
                assert np.array_equal(heisenberg_shift(psi, z0).values, self._shift(psi, z0))
                inner = self._shift(psi, (-z0[0], -z0[1]))
                mirrored = psi.with_values(np.roll(inner[::-1], 1))
                got = grossmann_royer_apply(psi, z0).values
                assert np.array_equal(got, self._shift(mirrored, z0))


class TestReusedModes:
    """A SampledSymbol keeps the state-free stage of the sampled route (its
    modes) for the last two schemes it was applied with, most recently used
    first, over read-only samples."""

    def test_samples_are_read_only(self):
        a = _smooth_symbol(_grid(64))
        with pytest.raises(ValueError, match="read-only"):
            a.values[0, 0] = 1

    def test_owned_input_is_frozen_in_place(self):
        grid = _grid(64)
        values = _smooth_symbol(grid).values.copy()
        a = SampledSymbol(grid, values)
        assert a.values is values
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 1

    @pytest.mark.parametrize("kind", ["view", "real"])
    def test_other_input_is_copied(self, kind):
        grid = _grid(64)
        psi = _random_state(grid)
        smooth = _smooth_symbol(grid).values
        if kind == "view":
            caller = np.zeros((64, 128), dtype=complex)
            caller[:, ::2] = smooth
            caller = caller[:, ::2]
        else:
            caller = smooth.real.copy()
        a = SampledSymbol(grid, caller)
        before = apply_operator(a, psi, WeylScheme()).values
        caller *= 2  # the caller's array stays writeable
        assert np.array_equal(apply_operator(a, psi, WeylScheme()).values, before)

    def test_new_samples_replace_the_entry(self):
        grid = _grid(64)
        psi = _random_state(grid)
        a, other = _smooth_symbol(grid, seed=1), _smooth_symbol(grid, seed=2)
        want = apply_operator(other, psi, WeylScheme()).values
        own = apply_operator(a, psi, WeylScheme()).values
        with pytest.raises(FrozenInstanceError):
            a.values = other.values
        # new samples make a new symbol, which starts without an entry
        b = a.with_values(other.values)
        assert np.array_equal(apply_operator(b, psi, WeylScheme()).values, want)
        # a writeable array given to replace is frozen like the constructor's
        doubled = 2 * other.values
        c = replace(a, values=doubled)
        assert c.values is doubled and not doubled.flags.writeable
        assert np.array_equal(apply_operator(c, psi, WeylScheme()).values, 2 * want)
        assert np.array_equal(apply_operator(a, psi, WeylScheme()).values, own)
        # samples made writeable again by hand are never served from the entry
        doubled.flags.writeable = True
        doubled *= 2
        assert np.array_equal(apply_operator(c, psi, WeylScheme()).values, 4 * want)

    def test_each_scheme_gets_its_own_result(self):
        grid = _grid(512)
        psi = hermite_state(grid, 3)
        a = _smooth_symbol(grid)
        for scheme in (WeylScheme(), BJQuadrature(16), WeylScheme(), TauScheme(0.3),
                       WeylScheme(), BJSinc(), WeylScheme()):
            fresh = SampledSymbol(grid, a.values.copy())
            want = apply_operator(fresh, psi, scheme).values
            assert np.array_equal(apply_operator(a, psi, scheme).values, want), scheme

    def test_one_modes_computation_per_scheme_change(self, monkeypatch):
        from bjcalc import numeric

        calls = []
        real = numeric._modes
        monkeypatch.setattr(numeric, "_modes", lambda a, s: calls.append(s) or real(a, s))
        grid = _grid(64)
        a = _smooth_symbol(grid)
        for seed in range(3):
            apply_operator(a, _random_state(grid, seed), WeylScheme())
        for seed in range(3):
            apply_operator(a, _random_state(grid, seed), TauScheme(Fraction(1, 2)))
        apply_operator(a, _random_state(grid), BJQuadrature(16))
        apply_operator(a, _random_state(grid), WeylScheme())
        # Tau(1/2) is a different class from Weyl, so it is a miss, then hits
        assert calls == [WeylScheme(), TauScheme(Fraction(1, 2)), BJQuadrature(16), WeylScheme()]

    @staticmethod
    def _counted_modes(monkeypatch):
        """The schemes _modes is called with, in order."""
        from bjcalc import numeric

        calls = []
        real = numeric._modes
        monkeypatch.setattr(numeric, "_modes", lambda a, s: calls.append(s) or real(a, s))
        return calls

    @staticmethod
    def _fresh_apply(a, psi, scheme):
        return apply_operator(SampledSymbol(a.grid, a.values.copy()), psi, scheme).values

    def test_two_schemes_alternated_compute_each_once(self, monkeypatch):
        grid = _grid(64)
        psi = _random_state(grid)
        a = _smooth_symbol(grid)
        want = {s: self._fresh_apply(a, psi, s) for s in (BJQuadrature(16), BJSinc())}
        calls = self._counted_modes(monkeypatch)
        for _ in range(4):
            for scheme in (BJQuadrature(16), BJSinc()):
                got = apply_operator(a, psi, scheme).values
                assert np.array_equal(got.view(np.uint64), want[scheme].view(np.uint64))
        assert calls == [BJQuadrature(16), BJSinc()]

    def test_a_miss_evicts_the_least_recently_used(self, monkeypatch):
        grid = _grid(64)
        psi = _random_state(grid)
        a = _smooth_symbol(grid)
        first, second, third = WeylScheme(), BJSinc(), TauScheme(0.3)
        want = {s: self._fresh_apply(a, psi, s) for s in (first, second, third)}
        calls = self._counted_modes(monkeypatch)
        # the hit on `first` puts it in front, so `third` evicts `second`
        for scheme in (first, second, first, third, first, third, second):
            got = apply_operator(a, psi, scheme).values
            assert np.array_equal(got.view(np.uint64), want[scheme].view(np.uint64)), scheme
        assert calls == [first, second, third, second]

    def test_writeable_samples_miss_both_entries(self, monkeypatch):
        grid = _grid(64)
        psi = _random_state(grid)
        values = _smooth_symbol(grid).values.copy()
        a = SampledSymbol(grid, values)
        want = {s: apply_operator(a, psi, s).values for s in (WeylScheme(), BJSinc())}
        calls = self._counted_modes(monkeypatch)
        values.flags.writeable = True
        values *= 2
        for scheme in (WeylScheme(), BJSinc()):
            assert np.array_equal(apply_operator(a, psi, scheme).values, 2 * want[scheme])
        # nothing computed from writeable samples is kept, so samples
        # changed again and frozen by hand are not served stale modes
        values *= 2
        values.flags.writeable = False
        assert np.array_equal(apply_operator(a, psi, BJSinc()).values, 4 * want[BJSinc()])
        assert calls == [WeylScheme(), BJSinc(), BJSinc()]

    def test_miss_with_two_entries_held_peak_memory(self):
        # the older entry is dropped before the new modes are computed, so a
        # miss stays under test_miss_peak_memory's bound with both held
        grid = _grid(512)
        psi = hermite_state(grid, 3)
        a = _smooth_symbol(grid)
        apply_operator(a, psi, WeylScheme())
        apply_operator(a, psi, BJSinc())
        for scheme in (BJQuadrature(16), TauScheme(0.3), WeylScheme()):
            peak = _traced_peak(lambda: apply_operator(a, psi, scheme))
            assert peak < 3 * 4 * 2**20, (scheme, peak)

    def test_miss_peak_memory(self):
        # one N x N complex array at N = 512 is 4 MiB; a miss may hold at
        # most three of them at once (the working buffer, which becomes the
        # kept modes, and the multiplier's table are about 6.4 MiB)
        grid = _grid(512)
        psi = hermite_state(grid, 3)
        a = _smooth_symbol(grid)
        for scheme in (WeylScheme(), TauScheme(0.3), BJSinc(), BJQuadrature(16)):
            fresh = SampledSymbol(grid, a.values.copy())
            peak = _traced_peak(lambda: apply_operator(fresh, psi, scheme))
            assert peak < 3 * 4 * 2**20, (scheme, peak)

    def test_hit_peak_memory(self):
        # a hit is the gather alone, a block of rows at a time: well under
        # the 4 MiB of one N x N complex array at N = 512
        grid = _grid(512)
        psi = hermite_state(grid, 3)
        a = _smooth_symbol(grid)
        for scheme in (WeylScheme(), BJSinc(), BJQuadrature(16)):
            apply_operator(a, psi, scheme)
            peak = _traced_peak(lambda: apply_operator(a, psi, scheme))
            assert peak < 2**20, (scheme, peak)


def _oracle_apply_poly(a, psi, scheme):
    """Polynomial route with two transforms per (term, j), a rolled centred
    DFT, and the ordering weights averaged over the scheme's nodes; BJSinc's
    uniform measure is 32 Gauss-Legendre nodes, exact for tau-degree <= 63.
    Like the route, it zeroes each forward transform's modes below 4 eps of
    its largest, the round-off that p^s would amplify."""
    from math import comb

    if isinstance(scheme, (BJQuadrature, BJSinc)):
        order = 32 if isinstance(scheme, BJSinc) else scheme.order
        nodes, weights = np.polynomial.legendre.leggauss(order)
        nodes, weights = (nodes + 1) / 2, weights / 2
    else:
        tau = 0.5 if isinstance(scheme, WeylScheme) else scheme.tau
        nodes, weights = np.array([tau]), np.array([1.0])
    grid, hbar = psi.grid, psi.hbar
    x, p = grid.x_values(), grid.p_values(hbar)
    out = np.zeros(grid.n_points, dtype=complex)
    for ((r,), (s,)), coeff in a.terms.items():
        c = coeff.to_complex(hbar)
        for j in range(r + 1):
            weight = comb(r, j) * np.sum(weights * (1 - nodes) ** (r - j) * nodes**j)
            g_hat = _centred_dft(x**j * psi.values, -1, 0)
            g_hat[np.abs(g_hat) < 4 * np.finfo(float).eps * np.max(np.abs(g_hat))] = 0
            g_hat *= p**s
            back = _centred_dft(g_hat, +1, 0) / grid.n_points
            out += c * weight * x ** (r - j) * back
    return out


def _random_degree6_symbols(seed, count):
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(count):
        forms = []
        for _ in range(6):
            a, b, c = rng.integers(-3, 4, 3)
            da, db = rng.integers(1, 5, 2)
            forms.append(f"({a}/{da}*x + {b}/{db}*p + {c})")
        texts.append("*".join(forms))
    return [parse(t) for t in texts]


POLY_SCHEMES = (
    WeylScheme(),
    TauScheme(0.0),
    TauScheme(1 / 3),
    TauScheme(1.0),
    BJQuadrature(8),
    BJQuadrature(16),
    BJSinc(),
)


def _ladder_matrices(size, hbar):
    """x-hat = sqrt(hbar/2)(A + A^+) and p-hat = i sqrt(hbar/2)(A^+ - A) on
    the first `size` Hermite functions, with A h_j = sqrt(j) h_(j-1)."""
    lower = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    half = np.sqrt(hbar / 2)
    return half * (lower + lower.T), 1j * half * (lower.T - lower)


def _hermite_oracle(op, grid, k, hbar=1.0):
    """The one-dimensional operator op, a quantize_symbol result in
    x-hat^a p-hat^b order, applied to h_k: banded ladder matrices on the
    K = k + degree + 2 Hermite coefficients, sampled with hermite_state.
    No FFT, ordering weight or grid operator enters."""
    size = k + op.total_degree() + 2
    x_hat, p_hat = _ladder_matrices(size, hbar)
    h_k = np.eye(size)[k]
    coeffs = sum(
        c.to_complex(hbar) * (np.linalg.matrix_power(x_hat, a)
                              @ np.linalg.matrix_power(p_hat, b) @ h_k)
        for ((a,), (b,)), c in op.terms.items()
    )
    return sum(c * hermite_state(grid, j, hbar).values for j, c in enumerate(coeffs) if c)


class TestHermiteOracle:
    """The routes against an oracle that shares no step with them: the
    exact quantizer's operator in the Hermite basis.  Errors are the
    largest deviation over the largest true value."""

    @staticmethod
    def _error(a, scheme, grid, k, hbar=1.0):
        ref = _hermite_oracle(quantize_symbol(scheme, a), grid, k, hbar)
        got = apply_operator(a, hermite_state(grid, k, hbar), scheme).values
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    def test_oracle_matches_the_direct_ladder_product(self):
        # the Weyl operator of (x+p)^12 is (x-hat + p-hat)^12; measured 4.2e-15
        grid = UniformGrid(128, 20.0)
        x_hat, p_hat = _ladder_matrices(16, 1.0)
        direct = np.linalg.matrix_power(x_hat + p_hat, 12)[:, 2]
        ref = sum(c * hermite_state(grid, j).values for j, c in enumerate(direct))
        oracle = _hermite_oracle(quantize_symbol(Weyl(), parse("(x+p)^12")), grid, 2)
        assert np.max(np.abs(oracle - ref)) < 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scheme, bound", [
        (Weyl(), 5e-7),  # measured 5.3e-10
        (BornJordan(), 2e-6),  # 1.95e-9
        (Tau(Fraction(1, 3)), 1e-6),  # 1.01e-9
    ], ids=["weyl", "bj", "tau-1/3"])
    def test_route_on_a_coarse_grid(self, scheme, bound):
        assert self._error(parse("(x+p)^12"), scheme, UniformGrid(128, 20.0), 2) < bound

    @pytest.mark.parametrize("hbar", [0.1, 0.01])
    @pytest.mark.parametrize("scheme", [Weyl(), BornJordan(), Tau(Fraction(1, 3))],
                             ids=["weyl", "bj", "tau-1/3"])
    def test_route_at_small_hbar(self, scheme, hbar):
        # measured at hbar = 0.1 / 0.01: Weyl 1.70e-12 / 8.03e-12, BornJordan
        # 5.47e-12 / 2.35e-11, Tau(1/3) 5.07e-12 / 2.58e-11
        error = self._error(parse("x^4*p^2 + p^4"), scheme, UniformGrid(512, 20.0), 1, hbar)
        assert error < 1e-10

    def test_route_at_the_cli_default_grid(self):
        # measured 5.6e-10 at N = 512, the CLI's default grid; round-off
        # amplified by p^s, left in the transforms, reads 0.509
        assert self._error(parse("(x+p)^12"), Weyl(), UniformGrid(512, 20.0), 2) < 5e-7

    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("degree, bound", [
        (8, 6e-11),  # measured 5.2e-12 / 5.3e-12 at N = 512 / 1024
        (12, 6e-9),  # 5.6e-10 / 5.5e-10
        (16, 4e-7),  # 3.2e-8 / 3.2e-8
    ])
    def test_route_does_not_degrade_on_fine_grids(self, degree, bound, n):
        # round-off amplified by p^s, left in the transforms, reads up to
        # 2.9e-3, 2.8e3 and 1.6e9 here
        error = self._error(parse(f"(x+p)^{degree}"), Weyl(), UniformGrid(n, 20.0), 2)
        assert error < bound


class TestPolyRouteOracle:
    @pytest.mark.parametrize("n, box", [(64, 16.0), (128, 20.0)])
    def test_matches_per_term_transforms(self, n, box):
        # compared on the inner half of the box: near the edge, where the
        # exact result is tiny, both routes return rounding noise of the
        # transforms times x^(r-j) (up to (box/2)^12), and two summation
        # orders give different noise there
        grid = UniformGrid(n, box)
        inner = np.abs(grid.x_values()) <= box / 4
        symbols = [parse("(x+p)^12")] + _random_degree6_symbols(n, 3)
        for k in (0, 2):
            psi = hermite_state(grid, k)
            for a in symbols:
                for scheme in POLY_SCHEMES:
                    fast = apply_operator(a, psi, scheme).values[inner]
                    ref = _oracle_apply_poly(a, psi, scheme)[inner]
                    assert np.max(np.abs(fast - ref)) < 1e-12 * np.max(np.abs(ref)), scheme

    def test_sinc_matches_quadrature(self):
        # both average the ordering weights over the uniform measure, which
        # 16 nodes do exactly for tau-degree <= 31
        grid = UniformGrid(512, 20.0)
        psi = hermite_state(grid, 3)
        a = parse("(x+p)^12")
        sinc = apply_operator(a, psi, BJSinc()).values
        quad = apply_operator(a, psi, BJQuadrature(16)).values
        assert np.max(np.abs(sinc - quad)) < 1e-10 * np.max(np.abs(quad))

    def test_transform_count(self, monkeypatch):
        # one forward transform per power x^j and one inverse per outer
        # power x^(r-j): at most 2 (degree + 1) for a symbol of that degree
        calls = []
        for name in ("fft", "ifft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name, lambda *args, _real=real, **kw: calls.append(1) or _real(*args, **kw)
            )
        grid = UniformGrid(512, 40.0)
        apply_operator(parse("(x+p)^12"), hermite_state(grid, 2), BJQuadrature(16))
        assert len(calls) <= 26

    def test_monomial_peak_memory(self):
        # each outer power's sum is transformed back as soon as it is
        # complete, so a monomial holds a few N-sample arrays (64 KiB each at
        # N = 4096; measured 7.5-8 with the result's checks) whatever its
        # degree; keeping every sum held R + 1 of them
        grid = UniformGrid(4096, 2.0)
        psi = gaussian_state(grid, 0.01)
        for scheme in (WeylScheme(), TauScheme(0.3), BornJordan()):
            for r in (10, 400):
                a = SymbolPoly.monomial(1, x=(r,), p=(0,))
                peak = _traced_peak(lambda: apply_operator(a, psi, scheme))
                assert peak < 12 * 2**16, (scheme, r, peak)


class TestOrderingWeights:
    """The polynomial route's ordering weights: the Bernstein recurrence at a
    scheme's nodes, summed over them with its weights."""

    SCHEMES = (WeylScheme(), TauScheme(0.3), TauScheme(Fraction(1, 3)), TauScheme(0),
               TauScheme(1), TauScheme(-0.7), TauScheme(2.5), BJQuadrature(2),
               BJQuadrature(5), BJQuadrature(16), BJQuadrature(64))

    @staticmethod
    def _float_weight(scheme, r, j):
        """The weight in double arithmetic, a product of float powers."""
        from math import comb

        from bjcalc.numeric import _ordering_measure

        nodes, weights = _ordering_measure(scheme)
        return comb(r, j) * float(np.sum(weights * (1.0 - nodes) ** (r - j) * nodes**j))

    @pytest.mark.parametrize("scheme", SCHEMES, ids=repr)
    def test_low_degrees_match_double_arithmetic(self, scheme):
        # the degrees of the benchmark's polynomial applies; largest
        # relative difference measured: 3.3e-16
        from bjcalc.numeric import _ordering_weights

        weights = _ordering_weights(scheme, set(range(13)))
        for r in range(13):
            for j, got in enumerate(weights[r]):
                want = self._float_weight(scheme, r, j)
                assert abs(got - want) <= 1e-15 * abs(want), (r, j)

    @pytest.mark.parametrize("scheme", [WeylScheme(), TauScheme(0.3), BJQuadrature(16)],
                             ids=repr)
    def test_high_degrees_stay_finite(self, scheme):
        # C(1100, 550) is past double range: the weights are probabilities
        # of a binomial law averaged over the nodes, so they sum to 1
        from bjcalc.numeric import _ordering_weights

        row = _ordering_weights(scheme, {1100})[1100]
        assert all(np.isfinite(row)) and abs(sum(row) - 1.0) < 1e-12

    def test_weight_past_double_range_is_infinite(self):
        from bjcalc.numeric import _ordering_weights

        assert _ordering_weights(TauScheme(-3.0), {600})[600][0] == np.inf

    @staticmethod
    def _exact_row(scheme, r):
        """Row r as the exact sum over the scheme's nodes t and weights w of
        w C(r, j) (1-t)^(r-j) t^j, each weight rounded once.  1 - t is the
        float complement that the route uses, as part of the measure: below
        t = 1/2 it is rounded, and its power r - j moves by up to (r - j)/2
        ulps from that of the exact 1 - t, far more than the arithmetic."""
        from math import comb

        from bjcalc.numeric import _ordering_measure

        def dyadic(v):
            """(n, e) with v = n / 2^e exactly."""
            exact = Fraction(v)
            return exact.numerator, exact.denominator.bit_length() - 1

        nodes, weights = _ordering_measure(scheme)
        measure = [(dyadic(t), dyadic(1.0 - t), dyadic(w))
                   for t, w in zip(nodes.tolist(), weights.tolist())]
        # every term over the one denominator 2^scale
        scale = max(ew + r * max(et, eu) for (_, et), (_, eu), (_, ew) in measure)
        sums = [0] * (r + 1)
        for (t, et), (u, eu), (w, ew) in measure:
            weighted_t_powers = [w]
            for _ in range(r):
                weighted_t_powers.append(weighted_t_powers[-1] * t)
            u_power = 1
            for j in range(r, -1, -1):
                shift = scale - ew - et * j - eu * (r - j)
                sums[j] += (weighted_t_powers[j] * u_power) << shift
                u_power *= u
        return [float(Fraction(comb(r, j) * total, 1 << scale)) for j, total in enumerate(sums)]

    @pytest.mark.parametrize("scheme, top", [
        (WeylScheme(), 300), (TauScheme(0.3), 300), (TauScheme(-0.7), 300),
        (TauScheme(2.5), 300), (BJQuadrature(2), 300), (BJQuadrature(16), 300),
        (BJQuadrature(64), 300),
        # exact sums over 256 nodes take 0.5 s up to r = 120, 4 s up to 300
        (BJQuadrature(256), 120),
    ], ids=repr)
    def test_rows_match_exact_sums(self, scheme, top):
        # largest relative difference measured over these rows: 2.3e-15
        # (BJQuadrature(2) at r = 300)
        from bjcalc.numeric import _ordering_weights

        rows = {0, 1, 2, 3, 12, 40, top // 2, top}
        got = _ordering_weights(scheme, rows)
        assert set(got) == rows
        for r in rows:
            for j, (g, want) in enumerate(zip(got[r], self._exact_row(scheme, r), strict=True)):
                assert abs(g - want) <= 4e-15 * abs(want), (r, j, g, want)
            # a row does not depend on the other powers asked for with it
            assert _ordering_weights(scheme, {r})[r] == got[r], r


class TestSampleSymbol:
    @staticmethod
    def _outer_sum(a, grid, hbar):
        """One N x N outer product per term, summed term by term."""
        x, p = grid.x_values(), grid.p_values(hbar)
        values = np.zeros((grid.n_points, grid.n_points), dtype=complex)
        for ((r,), (s,)), coeff in a.terms.items():
            values += coeff.to_complex(hbar) * np.outer(x**r, p**s)
        return values

    @pytest.mark.parametrize("text", [
        "1/2*x^2 - 1/3*x*p + 2/5*p^2 + 3/4*x - p + 1",
        "x^12*p - 3*x^7 + x^2*p^5 - 2/7*p^3",  # gaps in the x-powers
        "(i*x + hbar*p)^3 - 5*i*hbar^2*x^12 + hbar*x^4*p^2",
        "0",
    ])
    @pytest.mark.parametrize("n", [16, 256])
    def test_matches_per_term_outer_sum(self, text, n):
        grid, hbar = UniformGrid(n, 12.0), 0.7
        a = parse(text)
        got = sample_symbol(a, grid, hbar).values
        want = self._outer_sum(a, grid, hbar)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), text

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            sample_symbol(parse("x1*p2", 2), _grid(16))

    @pytest.mark.parametrize("text", ["x^400", "p^400", "x^200*p^200"])
    def test_overflow_raises_one_error(self, text):
        a = parse(text, max_degree=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^SampledSymbol contains non-finite values$"):
                sample_symbol(a, UniformGrid(64, 20.0))

    def test_peak_memory(self):
        # one N x N complex array at N = 512 is 4 MiB; the samples are
        # written once, so the peak is that array and a few grid rows
        a = parse("1/2*x^2 - 1/3*x*p + 2/5*p^2 + 3/4*x - p + 1")
        peak = _traced_peak(lambda: sample_symbol(a, _grid(512)))
        assert peak <= 9 * 2**20, peak


class TestReflectionRouteOracle:
    @staticmethod
    def _row_loop(a, psi):
        """The reflection superposition gathered one row m at a time."""
        n = a.grid.n_points
        modes = _cdft(a.values.copy(), +1, axis=1)
        i_idx = np.arange(n)
        out = np.zeros(n, dtype=complex)
        for m in range(n):
            doubled = (n // 2 + 2 * (i_idx - m)) % n
            mirror = (2 * m - i_idx) % n
            out += modes[m, doubled] * psi.values[mirror]
        return out * (2.0 / n)

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_matches_row_loop_exactly(self, n):
        grid = UniformGrid(n, 20.0)
        for seed in range(2):
            a = _smooth_symbol(grid, seed=seed)
            psi = _random_state(grid, seed=seed + 1)
            got = weyl_via_grossmann_royer(a, psi).values
            assert np.array_equal(got, self._row_loop(a, psi))

    def test_peak_memory(self):
        # at most one N x N complex array (4 MiB at N = 512) beyond the
        # transform's: the tile of even columns is 3/4 of the whole transform
        grid = _grid(512)
        a, psi = _smooth_symbol(grid), hermite_state(grid, 2)
        peak = _traced_peak(lambda: weyl_via_grossmann_royer(a, psi))
        assert peak <= 8.5 * 2**20, peak


class TestSymbolConversionOnGrid:
    def test_sinc_filter_interior_matches_exact_conversion(self):
        grid = UniformGrid(1024, 28.0)
        n = grid.n_points
        lo, hi = n // 10, n - n // 10
        for expr in ("x*p", "x^2*p^2", "x^2 + p^2"):
            a = parse(expr)
            converted = bj_weyl_symbol_numeric(sample_symbol(a, grid))
            exact = sample_symbol(bj_to_weyl(a), grid)
            err = np.max(
                np.abs(converted.values[lo:hi, lo:hi] - exact.values[lo:hi, lo:hi])
            )
            scale = np.max(np.abs(exact.values[lo:hi, lo:hi]))
            assert err / scale < 1e-4, expr

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_filter_matches_numpy_sinc(self, n, hbar):
        grid = UniformGrid(n, 20.0)
        a = _smooth_symbol(grid, seed=n, hbar=hbar)
        a_sig = symplectic_ft(a)
        sinc = np.sinc(np.outer(grid.x_values(), grid.p_values(hbar)) / (2 * np.pi * hbar))
        ref = symplectic_ft(a_sig.with_values(a_sig.values * sinc)).values
        out = bj_weyl_symbol_numeric(a).values
        assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_filter_is_identity_on_x_only_symbols(self):
        grid = _grid()
        a = sample_symbol(parse("x^2"), grid)
        out = bj_weyl_symbol_numeric(a)
        assert np.max(np.abs(out.values - a.values)) < 1e-9 * np.max(
            np.abs(a.values)
        )

    def test_peak_memory(self):
        # two N x N complex arrays of 4 MiB at N = 512, the transformed
        # samples and the filtered copy; the filter is made a block of rows
        # at a time
        a = _smooth_symbol(_grid(512))
        peak = _traced_peak(lambda: bj_weyl_symbol_numeric(a))
        assert peak < 10 * 2**20, peak


class TestGaussianExpansions:
    """The Born-Jordan <-> Weyl expansions on a symbol where the series do
    not end.  For g = exp(-(x^2 + p^2)/2) and D = d_x d_p,
    D^k g = He_k(x) He_k(p) g with He_k the probabilists' Hermite
    polynomials, so every term of either series is known at each grid point
    and no derivative is taken on the grid.  The weights come from the exact
    layer: the constant term of a conversion of x^k p^k is (k!)^2 times the
    series' coefficient of D^k."""

    @staticmethod
    def _partial_sums(convert, grid, hbar, top):
        """g and the partial sums K = 0..top of convert's series on g."""
        x, p = grid.x_values(), grid.p_values(hbar)
        g = np.outer(np.exp(-(x**2) / 2), np.exp(-(p**2) / 2))
        he_x, he_p = [np.ones_like(x), x], [np.ones_like(p), p]
        for k in range(1, top):
            he_x.append(x * he_x[k] - k * he_x[k - 1])
            he_p.append(p * he_p[k] - k * he_p[k - 1])
        total, sums = np.zeros_like(g, dtype=complex), []
        for k in range(top + 1):
            x_k_p_k = SymbolPoly.monomial(1, x=(k,), p=(k,))
            constant = convert(x_k_p_k).terms.get(((0,), (0,)))
            if constant is not None:
                weight = constant.to_complex(hbar) / factorial(k) ** 2
                total = total + weight * np.outer(he_x[k], he_p[k]) * g
            sums.append(total)
        return g, sums

    def _forward_errors(self, grid, hbar, top):
        """Max-abs distance of each partial sum of the Born-Jordan-to-Weyl
        series on g from the grid's sinc filter applied to g."""
        g, sums = self._partial_sums(bj_to_weyl, grid, hbar, top)
        weyl = bj_weyl_symbol_numeric(SampledSymbol(grid, g, hbar)).values
        return [np.max(np.abs(s - weyl)) for s in sums]

    def test_forward_series_converges_to_the_filter(self):
        # measured at K = 0, 2, ..., 16: 6.5e-3, 1.2e-4, 2.8e-6, ..., 2.7e-15,
        # each step 27x or more, and 7.8e-16 from K = 18 on
        errors = self._forward_errors(UniformGrid(256, 24.0), 0.4, 20)
        even = errors[::2]
        assert all(later < earlier / 10 for earlier, later in zip(even[:8], even[1:9]))
        assert errors[20] < 1e-14

    def test_forward_series_orders_in_hbar(self):
        # the remainders after K = 0 and K = 2 are of order hbar^2 and hbar^4:
        # each halving of hbar divided them by 3.8-4.1 and by 15-16
        grid = UniformGrid(512, 24.0)
        errors = [self._forward_errors(grid, hbar, 2) for hbar in (0.8, 0.4, 0.2, 0.1)]
        for (k0, _, k2), (half_k0, _, half_k2) in zip(errors, errors[1:]):
            assert 3.5 < k0 / half_k0 < 4.5
            assert 13 < k2 / half_k2 < 19

    def test_inverse_series_is_asymptotic(self):
        # the sinc filter undoes the partial sums of the Weyl-to-Born-Jordan
        # series of g only down to an interior minimum (measured 2.7e-7 at
        # K = 16 for hbar = 0.4), after which the error rises (2e-2 at
        # K = 40): s/sinh(s) has poles at s = +-i pi
        grid, hbar = UniformGrid(256, 24.0), 0.4
        g, sums = self._partial_sums(weyl_to_bj, grid, hbar, 40)
        errors = [
            np.max(np.abs(bj_weyl_symbol_numeric(SampledSymbol(grid, s, hbar)).values - g))
            for s in sums[::2]
        ]
        best = int(np.argmin(errors))
        assert 6 <= best <= 10  # K = 12..20
        assert 1e-7 < errors[best] < 1e-6
        assert all(later < earlier for earlier, later in zip(errors[:best], errors[1:best + 1]))
        assert all(later > earlier for earlier, later in zip(errors[best:], errors[best + 1:]))
        assert errors[-1] > 1e-3


class TestShubinSobolevMapping:
    """The paper's regularity and global hypoellipticity on the Shubin-Sobolev
    scale: for a in Gamma^m, Op(a) maps Q^s to Q^(s - m), and for an elliptic
    a the reverse bound holds up to a lower norm.  On Hermite states both say
    that R_k = |Op(a) h_k|_(Q^(s-m)) / |h_k|_(Q^s) stays between two positive
    constants as k grows, under Weyl and Born-Jordan alike, the two rules
    differing by lower order.  The norms are q_norm_estimate's; the sampled
    route, hbar = 1 and L = sqrt(2 pi N), as in TestShubinRemainder.

    Both symbols are elliptic of order m = -2 and decay only polynomially;
    the readings below agree to five digits at N = 256, 512 and 1024."""

    N, KS = 256, (2, 8, 32, 64)

    def _ratios(self, symbol, s, scheme):
        grid = UniformGrid(self.N, np.sqrt(2 * np.pi * self.N))
        x, p = np.meshgrid(grid.x_values(), grid.p_values(1.0), indexing="ij")
        a = SampledSymbol(grid, symbol(x, p) + 0j)
        states = [hermite_state(grid, k) for k in self.KS]
        return np.array([q_norm_estimate(apply_operator(a, h, scheme), s + 2)
                         / q_norm_estimate(h, s) for h in states])

    @pytest.mark.parametrize("symbol, s, low, high", [
        # measured 3.106 / 3.614 / 3.883 / 3.940 (Weyl) at k = 2 / 8 / 32 / 64,
        # tending to sigma^2 = 4; Born-Jordan within 6e-3
        (lambda x, p: 1 / (1 + (x**2 + p**2) / 4), 0.0, 2.9, 4.2),
        # 1.234 / 0.916 / 0.830 / 0.818 (Weyl), 1.040 / 0.897 / 0.830 / 0.818
        # (Born-Jordan)
        (lambda x, p: 1 / (1 + x**2 + 2 * p**2 + x * p), 1.0, 0.7, 1.4),
    ], ids=["isotropic-s0", "anisotropic-s1"])
    def test_ratio_stays_between_constants_and_the_rules_meet(self, symbol, s, low, high):
        weyl = self._ratios(symbol, s, Weyl())
        born_jordan = self._ratios(symbol, s, BornJordan())
        for ratios in (weyl, born_jordan):
            assert np.all((low < ratios) & (ratios < high)), ratios
        # the gap is lower order: measured 5.6e-3 / 2.5e-4 / 1.8e-4 / 6.1e-5
        # and 0.19 / 1.9e-2 / 2.4e-4 / 1.7e-5
        gaps = np.abs(weyl - born_jordan)
        assert np.all(np.diff(gaps) < 0), gaps
        assert gaps[-1] < 1e-3 * weyl[-1], gaps


class TestShubinRemainder:
    """The paper's remainder estimate for the Born-Jordan-to-Weyl series, on
    a symbol of negative Shubin order: a = (1 + (x^2 + p^2)/sigma^2)^(m/2)
    lies in Gamma^m, term k of the series in Gamma^(m - 2k), and the odd
    terms vanish, so the remainder after the terms k <= 2K is of order
    hbar^(2K + 2) and decays like <z>^(m - 4K - 4).

    With s = x^2 + p^2 and g_j the j-th derivative of
    g(s) = (1 + s/sigma^2)^(m/2), D^k a = sum_j P_kj(x, p) g_j(s) for D =
    d_x d_p, with integer polynomials from D(P g_j) = P_xp g_j
    + 2 (x P_p + p P_x) g_(j+1) + 4 x p P g_(j+2), so every term is exact at
    each grid point.  The weights come from the exact layer, as in
    TestGaussianExpansions.  L = sqrt(2 pi N hbar) gives x and p the same
    range.

    The slope is read against the scaled bracket <z/sigma>, not through
    shubin_slopes, whose <z> bracket reads -11.35 between the same radii:
    at r = 18 = 4.5 sigma, log <z/sigma> still grows 5% slower than log r."""

    M, SIGMA, N = -8, 4.0, 512

    @staticmethod
    def _d_polys(top):
        """P[k][j] as arrays c[a, b] of the Python-int coefficients of x^a p^b,
        k = 0..top: exact, where int64 wraps by k = 16."""
        polys = [{0: np.ones((1, 1), dtype=object)}]
        for _ in range(top):
            terms = {}
            for j, c in polys[-1].items():
                ra, rb = c.shape
                a_pow = np.arange(ra, dtype=object)[:, None]
                b_pow = np.arange(rb, dtype=object)[None, :]
                mixed, cross, product = np.zeros((3, ra + 1, rb + 1), dtype=object)
                mixed[: ra - 1, : rb - 1] = (c * a_pow * b_pow)[1:, 1:]  # P_xp
                cross[1:, : rb - 1] += 2 * (c * b_pow)[:, 1:]  # 2 x P_p
                cross[: ra - 1, 1:] += 2 * (c * a_pow)[1:, :]  # 2 p P_x
                product[1:, 1:] = 4 * c  # 4 x p P
                for shift, part in ((0, mixed), (1, cross), (2, product)):
                    if part.any():
                        terms[j + shift] = terms.get(j + shift, 0) + part
            polys.append(terms)
        return polys

    def _g(self, j, s):
        """The j-th derivative of (1 + s/sigma^2)^(m/2)."""
        half = self.M / 2
        coeff = np.prod([half - i for i in range(j)]) / self.SIGMA ** (2 * j)
        return coeff * (1 + s / self.SIGMA**2) ** (half - j)

    def _remainders(self, hbar):
        """The grid, and the sinc filter of a minus the partial sums of its
        series after the terms k <= 0 and k <= 2."""
        grid = UniformGrid(self.N, np.sqrt(2 * np.pi * self.N * hbar))
        x, p = grid.x_values(), grid.p_values(hbar)
        s = np.add.outer(x**2, p**2)
        weyl = bj_weyl_symbol_numeric(SampledSymbol(grid, self._g(0, s) + 0j, hbar)).values
        total, remainders = 0.0, []
        for k, polys in enumerate(self._d_polys(2)):
            x_k_p_k = SymbolPoly.monomial(1, x=(k,), p=(k,))
            constant = bj_to_weyl(x_k_p_k).terms.get(((0,), (0,)))
            if constant is not None:
                d_k = sum(
                    np.polynomial.polynomial.polygrid2d(x, p, c.astype(float)) * self._g(j, s)
                    for j, c in polys.items()
                )
                total = total + constant.to_complex(hbar) / factorial(k) ** 2 * d_k
                remainders.append(weyl - total)
        return grid, remainders

    def test_derivative_polynomials_stay_exact(self):
        # every term of the recurrence is non-negative, so an int64 wrap
        # would show as a negative coefficient; by k = 16 the largest one
        # is past 2^63
        coefficients = [v for c in self._d_polys(16)[16].values() for v in c.flat]
        assert all(type(v) is int and v >= 0 for v in coefficients)
        assert max(coefficients) > 2**63

    def test_derivative_polynomials_match_differences(self):
        # the recurrence against central differences of D^(k-1) a
        x0, p0, h = 1.3, -0.7, 1e-4
        polys = self._d_polys(2)

        def d_k(k, x, p):
            return sum(
                np.polynomial.polynomial.polyval2d(x, p, c.astype(float))
                * self._g(j, x * x + p * p)
                for j, c in polys[k].items()
            )

        for k in (1, 2):
            diff = (d_k(k - 1, x0 + h, p0 + h) - d_k(k - 1, x0 + h, p0 - h)
                    - d_k(k - 1, x0 - h, p0 + h) + d_k(k - 1, x0 - h, p0 - h)) / (4 * h * h)
            assert abs(diff - d_k(k, x0, p0)) < 1e-6 * abs(d_k(k, x0, p0))

    def test_remainder_orders_in_hbar_and_decay(self):
        # measured: halving hbar from 0.5 to 0.25 divided the largest
        # remainder by 3.95 after k = 0 (hbar^2) and by 15.5 after k <= 2
        # (hbar^4); at hbar = 0.5 the local slope after k = 0 between the
        # rings at r = 18 and 19 (the last ring inside the L = 40.1 box) read
        # -12.03, against m - 4 = -12 for Gamma^(m - 4)
        grid, (k0, k2) = self._remainders(0.5)
        _, (half_k0, half_k2) = self._remainders(0.25)
        ratio_k0 = np.max(np.abs(k0)) / np.max(np.abs(half_k0))
        ratio_k2 = np.max(np.abs(k2)) / np.max(np.abs(half_k2))
        assert 3.7 < ratio_k0 < 4.2, ratio_k0
        assert 14.5 < ratio_k2 < 17.0, ratio_k2
        radius = np.sqrt(np.add.outer(grid.x_values() ** 2, grid.p_values(0.5) ** 2))
        assert 19.5 < grid.length / 2
        ring_max = [np.max(np.abs(k0)[np.abs(radius - r) < 0.5]) for r in (18.0, 19.0)]
        bracket = [np.log(np.hypot(1.0, r / self.SIGMA)) for r in (18.0, 19.0)]
        slope = np.diff(np.log(ring_max))[0] / np.diff(bracket)[0]
        assert -12.4 < slope < -11.7, slope


class TestShubinRemainderWeylToBJ:
    """The remainder estimate in the Weyl-to-Born-Jordan direction, on
    TestShubinRemainder's symbol a and with its P_kj oracle: b_K, the
    partial sum of weyl_to_bj's series on a through the terms k <= K, is a
    Born-Jordan symbol whose sinc filter should give a back.  The weights
    are the constant terms of weyl_to_bj(x^k p^k) over (k!)^2.  The series'
    generating function, s/sinh(s), has poles at s = +-i pi, so the filter
    is only asymptotically invertible: the remainder falls to a minimum and
    then rises, and the test pins that minimum, not convergence."""

    M, SIGMA, N = TestShubinRemainder.M, TestShubinRemainder.SIGMA, TestShubinRemainder.N
    _d_polys = staticmethod(TestShubinRemainder._d_polys)
    _g = TestShubinRemainder._g

    def _remainders(self, hbar, top):
        """The grid, and the sinc filter of b_K minus a for the even K <= top
        (the odd terms vanish)."""
        grid = UniformGrid(self.N, np.sqrt(2 * np.pi * self.N * hbar))
        x, p = grid.x_values(), grid.p_values(hbar)
        s = np.add.outer(x**2, p**2)
        a = self._g(0, s)
        total, remainders = 0.0, []
        for k, polys in enumerate(self._d_polys(top)):
            x_k_p_k = SymbolPoly.monomial(1, x=(k,), p=(k,))
            constant = weyl_to_bj(x_k_p_k).terms.get(((0,), (0,)))
            if constant is not None:
                d_k = sum(
                    np.polynomial.polynomial.polygrid2d(x, p, c.astype(float)) * self._g(j, s)
                    for j, c in polys.items()
                )
                total = total + constant.to_complex(hbar) / factorial(k) ** 2 * d_k
                filtered = bj_weyl_symbol_numeric(SampledSymbol(grid, total, hbar))
                remainders.append(filtered.values - a)
        return grid, remainders

    def test_remainder_orders_in_hbar_and_decay(self):
        # measured: halving hbar from 0.5 to 0.25 divided the largest
        # remainder by 3.95 after k = 0 (hbar^2) and by 14.9 after k <= 2
        # (hbar^4); at hbar = 0.5 shubin_slopes on the rings 12 and 14 read
        # -10.64 after k = 0 and -13.74 after k <= 2, which lies in
        # Gamma^(m - 8) and reads -16 far out
        grid, (k0, k2) = self._remainders(0.5, 2)
        _, (half_k0, half_k2) = self._remainders(0.25, 2)
        ratio_k0 = np.max(np.abs(k0)) / np.max(np.abs(half_k0))
        ratio_k2 = np.max(np.abs(k2)) / np.max(np.abs(half_k2))
        assert 3.7 < ratio_k0 < 4.2, ratio_k0
        assert 14.0 < ratio_k2 < 16.5, ratio_k2
        (slope_k0,) = shubin_slopes(SampledSymbol(grid, k0, 0.5), [12.0, 14.0])
        (slope_k2,) = shubin_slopes(SampledSymbol(grid, k2, 0.5), [12.0, 14.0])
        assert -11.0 < slope_k0 < -10.3, slope_k0
        assert -14.2 < slope_k2 < -13.3, slope_k2

    def test_remainder_stops_falling_at_k_8(self):
        # measured at hbar = 0.5, K = 0, 2, ..., 12: 3.2e-3, 1.3e-4, 1.9e-5,
        # 7.2e-6, 5.03e-6, 5.31e-6, 7.0e-6, each largest at the origin
        _, remainders = self._remainders(0.5, 12)
        errors = [np.max(np.abs(r)) for r in remainders]
        best = int(np.argmin(errors))
        assert best == 4, errors  # K = 8
        assert 4.5e-6 < errors[best] < 5.6e-6, errors
        assert all(later < earlier for earlier, later in zip(errors[:best], errors[1:best + 1]))
        assert all(later > earlier for earlier, later in zip(errors[best:], errors[best + 1:]))


class TestPhaseSpaceShifts:
    def test_zero_shift_is_identity(self):
        grid = _grid()
        psi = _random_state(grid)
        out = heisenberg_shift(psi, (0.0, 0.0))
        assert np.max(np.abs(out.values - psi.values)) < 1e-14

    def test_zero_point_reflection_is_parity(self):
        grid = _grid()
        psi = _random_state(grid, 6)
        out = grossmann_royer_apply(psi, (0.0, 0.0))
        mirrored = np.roll(psi.values[::-1], 1)
        assert np.max(np.abs(out.values - mirrored)) < 1e-12

    def test_shift_unitary_and_invertible(self):
        grid = _grid()
        psi = _random_state(grid)
        for z0 in ((1.25, 2.0), (0.3117, -1.77), (-2.5, 0.0)):
            shifted = heisenberg_shift(psi, z0)
            assert abs(shifted.norm() - psi.norm()) < 1e-12
            back = heisenberg_shift(shifted, (-z0[0], -z0[1]))
            # off-grid p0 leaves a small periodization residual at the edges
            assert np.max(np.abs(back.values - psi.values)) < 1e-6

    def test_shift_moves_a_gaussian(self):
        grid = _grid()
        psi = gaussian_state(grid)
        shifted = heisenberg_shift(psi, (2.5, 0.0))
        x = grid.x_values()
        expected = (np.pi) ** -0.25 * np.exp(-((x - 2.5) ** 2) / 2)
        assert np.max(np.abs(np.abs(shifted.values) - expected)) < 1e-12

    def test_shift_bound(self):
        grid = _grid()
        with pytest.raises(ValueError):
            heisenberg_shift(gaussian_state(grid), (10.0, 0.0))

    def test_reflection_involution_and_unitarity(self):
        grid = _grid()
        psi = _random_state(grid)
        for z0 in ((0.5, 1.0), (-1.2, 0.7)):
            once = grossmann_royer_apply(psi, z0)
            assert abs(once.norm() - psi.norm()) < 1e-12
            twice = grossmann_royer_apply(once, z0)
            assert np.max(np.abs(twice.values - psi.values)) < 1e-6

    def test_reflection_about_origin_is_parity(self):
        grid = _grid()
        psi = hermite_state(grid, 3)  # odd parity
        out = grossmann_royer_apply(psi, (0.0, 0.0))
        assert np.max(np.abs(out.values + psi.values)) < 1e-12

    def test_weyl_route_matches_reflection_superposition(self):
        grid = _grid()
        psi = gaussian_state(grid)
        a = _smooth_symbol(grid, 4, env_div=4.0)
        o1 = apply_operator(a, psi, WeylScheme())
        o2 = weyl_via_grossmann_royer(a, psi)
        assert np.max(np.abs(o1.values - o2.values)) < 1e-6

    def test_weyl_route_via_reflections_for_windowed_harmonic(self):
        # the reflection superposition doubles frequencies, halving the
        # effective box, so it needs symbols that decay well inside it
        grid = _grid()
        psi = gaussian_state(grid)
        x = grid.x_values()
        p = grid.p_values(1.0)
        r2 = np.add.outer(x**2, p**2)
        a = SampledSymbol(grid, (r2 / 2) * np.exp(-r2 / 4) + 0j)
        o1 = apply_operator(a, psi, WeylScheme())
        o2 = weyl_via_grossmann_royer(a, psi)
        rel = np.max(np.abs(o1.values - o2.values)) / np.max(np.abs(o1.values))
        assert rel < 1e-5


class TestNullSymbol:
    def test_auto_point_lies_on_grid_with_unit_cycle(self):
        # z0 = (m dx, k dp) with m k = N, both offsets inside the grid, so
        # x0 p0 = 2 pi hbar: the Born-Jordan filter's first zero
        for n, length, hbar in [(16, 20.0, 1.0), (64, 16.0, 1.0), (512, 20.0, 1.0),
                                (512, 20.0, 0.01), (1024, 2.0, 0.1), (4096, 40.0, 3.0)]:
            grid = UniformGrid(n, length)
            symbol, (x0, p0) = null_symbol(grid, hbar)
            m, k = x0 / grid.spacing, p0 / grid.p_spacing(hbar)
            assert abs(m - round(m)) < 1e-9 and abs(k - round(k)) < 1e-9
            assert round(m) * round(k) == n and 0 < m < n / 2 and 0 < k < n / 2
            assert abs(x0 * p0 - 2 * np.pi * hbar) < 1e-12 * 2 * np.pi * hbar
            assert symbol.grid == grid and symbol.hbar == hbar

    def test_default_window_keeps_the_direct_sum(self):
        from bjcalc.numeric import _periodized_gaussian

        u = UniformGrid(64, 20.0).x_values()
        direct = np.zeros_like(u)
        for j in range(-10, 11):
            direct += np.exp(-((u - j * 20.0) ** 2) / (2 * 20.0**2))
        assert np.array_equal(_periodized_gaussian(u, 20.0), direct)


class TestAntiWick:
    def test_hbar_restriction(self):
        grid = _grid(64)
        a = SampledSymbol(grid, np.ones((64, 64), dtype=complex), hbar=2.0)
        psi = gaussian_state(grid, hbar=2.0)
        with pytest.raises(ValueError):
            antiwick_apply(a, psi)

    def test_positivity_structure(self):
        grid = _grid(128)
        rng = np.random.default_rng(9)
        for seed in range(5):
            base = _smooth_symbol(grid, seed)
            nonneg = SampledSymbol(grid, np.abs(base.values) ** 2 + 0j)
            psi = _random_state(grid, seed + 20)
            out = antiwick_apply(nonneg, psi)
            quad = np.vdot(psi.values, out.values) * grid.spacing
            assert quad.real > -1e-10
            assert abs(quad.imag) < 1e-10

    def test_zero_symbol_annihilates(self):
        grid = _grid(64)
        zero = SampledSymbol(grid, np.zeros((64, 64), dtype=complex))
        out = antiwick_apply(zero, gaussian_state(grid))
        assert np.max(np.abs(out.values)) == 0.0
        # +0 everywhere, not -0 on the samples whose centring sign is -1
        assert not np.any(np.signbit(out.values.view(float)))

    def test_peak_memory(self):
        # one buffer of 4 MiB at N = 512 (4.6 MiB measured); the envelope is
        # a view of 2N - 1 values, where it was a real 2 MiB array
        grid = _grid(512)
        a = _smooth_symbol(grid)
        psi = hermite_state(grid, 3)
        peak = _traced_peak(lambda: antiwick_apply(a, psi))
        assert peak < 8 * 2**20, peak

    def test_q_norm_monotone_and_finite(self):
        grid = _grid(128)
        for k in range(3):
            psi = hermite_state(grid, k)
            norms = [q_norm_estimate(psi, s) for s in (-2.0, 0.0, 2.0, 4.0)]
            assert all(np.isfinite(norms))
            assert norms == sorted(norms)

    def test_q_norm_at_zero_weight_is_resolution_constant(self):
        grid = _grid(128)
        psi = gaussian_state(grid)
        assert abs(q_norm_estimate(psi, 0.0) - 2 * np.pi * psi.norm()) < 1e-10

    def test_q_norm_rejects_hbar(self):
        grid = _grid(64)
        with pytest.raises(ValueError, match="only defined for hbar = 1"):
            q_norm_estimate(gaussian_state(grid, hbar=0.5), 1.0)


class TestShubinOrder:
    """shubin_slopes on sampled symbols: at N = 1024, L = sqrt(2 pi N), the
    local slopes between the rings 3, 5, 8, 13, 21, 34 read 1.988-1.998 for
    1 + |z|^2, -3.028 to -3.004 for (1 + |z|^2)^-1.5, at most 0.057 in size
    for 2 + sin x cos p, and rho = 0.93-0.997 for the quadratic."""

    RADII = [3, 5, 8, 13, 21, 34]

    @staticmethod
    def _sampled(f, n=1024, hbar=1.0):
        grid = UniformGrid(n, np.sqrt(2 * np.pi * n * hbar))
        x, p = grid.x_values()[:, None], grid.p_values(hbar)[None, :]
        return SampledSymbol(grid, f(x, p) + 0j * p, hbar)

    def test_polynomial_orders(self):
        slopes = shubin_slopes(self._sampled(lambda x, p: 1 + x**2 + p**2), self.RADII)
        assert slopes.shape == (len(self.RADII) - 1,)
        assert np.all(np.abs(slopes - 2.0) < 0.05), slopes
        decaying = self._sampled(lambda x, p: (1 + x**2 + p**2) ** -1.5)
        slopes = shubin_slopes(decaying, self.RADII)
        assert np.all(np.abs(slopes + 3.0) < 0.05), slopes

    def test_bounded_symbol_has_order_zero(self):
        bounded = self._sampled(lambda x, p: 2 + np.sin(x) * np.cos(p))
        slopes = shubin_slopes(bounded, self.RADII)
        assert np.all(np.abs(slopes) < 0.1), slopes

    def test_rho_probe(self):
        # the gradient of a quadratic grows one order slower: the reader on
        # |grad a| gives m - rho
        a = self._sampled(lambda x, p: 1 + x**2 + p**2)
        d_x, d_p = np.gradient(a.values.real, a.grid.spacing, a.grid.p_spacing(a.hbar))
        gradient = a.with_values(np.hypot(d_x, d_p))
        rho = shubin_slopes(a, self.RADII) - shubin_slopes(gradient, self.RADII)
        assert np.all(np.abs(rho - 1.0) < 0.1), rho

    def test_readings_follow_hbar(self):
        # the rings are in phase-space units; hbar only sets dp
        slopes = shubin_slopes(self._sampled(lambda x, p: 1 + x**2 + p**2, 256, 0.25), [2, 4, 6])
        assert np.all(np.abs(slopes - 2.0) < 0.05), slopes

    def test_input_validation(self):
        # radii that do not strictly increase
        a = self._sampled(lambda x, p: 1 + x**2, 64)
        assert shubin_slopes(a, [2, 5]).shape == (1,)
        for radii in ([3, 2, 5], [2, 2, 5]):
            with pytest.raises(ValueError, match="strictly increase"):
                shubin_slopes(a, radii)

    @pytest.mark.parametrize("radii", [[], [3], 3.0])
    def test_rejects_fewer_than_two_radii(self, radii):
        with pytest.raises(ValueError, match="at least 2 radii"):
            shubin_slopes(self._sampled(lambda x, p: 1 + x**2, 64), radii)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_a_non_finite_or_negative_radius(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            shubin_slopes(self._sampled(lambda x, p: 1 + x**2, 64), [bad, 5.0, 6.0])

    def test_rejects_a_ring_outside_the_box(self):
        # N = 64, L = sqrt(128 pi) = 20.05: half a box of 10.03, w = 0.157
        a = self._sampled(lambda x, p: 1 + x**2, 64)
        assert len(shubin_slopes(a, [1.0, 9.8])) == 1
        for last in (9.9, 10.1, 40.0):
            with pytest.raises(ValueError, match="leaves the box"):
                shubin_slopes(a, [1.0, last])
        # the p side is the shorter one at hbar = 0.25 on the same box
        grid = UniformGrid(64, np.sqrt(128 * np.pi))
        narrow = SampledSymbol(grid, np.ones((64, 64), dtype=complex), 0.25)
        with pytest.raises(ValueError, match="leaves the box"):
            shubin_slopes(narrow, [1.0, 5.0])

    def test_rejects_a_ring_where_the_symbol_vanishes(self):
        # a log(0) here would be a RuntimeWarning, which tier-1 makes an error
        ring = self._sampled(lambda x, p: np.exp(-(x**2 + p**2)) * (x**2 + p**2 < 16), 64)
        assert len(shubin_slopes(ring, [1.0, 2.0])) == 1
        with pytest.raises(ValueError, match="vanishes on the ring at r = 6"):
            shubin_slopes(ring, [1.0, 6.0, 8.0])
        zero = ring.with_values(np.zeros((64, 64)))
        with pytest.raises(ValueError, match="vanishes on the ring at r = 0"):
            shubin_slopes(zero, [0.0, 1.0])


class TestDataExchange:
    def test_csv_roundtrip(self):
        grid = _grid(64)
        psi = _random_state(grid)
        text = wavefunction_to_csv(psi)
        back = wavefunction_from_csv(text, length=grid.length)
        assert back.grid == grid
        assert np.max(np.abs(back.values - psi.values)) == 0.0

    def test_csv_roundtrip_headerless(self):
        # the first x on the centred grid is negative; that row is data, not a header
        grid = _grid(64)
        psi = _random_state(grid)
        text = wavefunction_to_csv(psi).split("\n", 1)[1]
        back = wavefunction_from_csv(text, length=grid.length)
        assert back.grid == grid
        assert np.max(np.abs(back.values - psi.values)) == 0.0

    def test_csv_x_column_checked(self):
        # a file written on another box used to load on any box of its size
        psi = _random_state(UniformGrid(64, 40.0))
        text = wavefunction_to_csv(psi)
        with pytest.raises(ValueError, match="x column"):
            wavefunction_from_csv(text, length=20.0)
        rows = text.splitlines()
        x, re, im = rows[10].split(",")
        rows[10] = f"{float(x) + 1e-6},{re},{im}"
        with pytest.raises(ValueError, match="x column"):
            wavefunction_from_csv("\n".join(rows), length=40.0)
        back = wavefunction_from_csv(text, length=40.0)
        assert np.max(np.abs(back.values - psi.values)) == 0.0

    def test_json_roundtrip(self):
        grid = _grid(64)
        psi = _random_state(grid, 5)
        payload = json.dumps(wavefunction_to_json(psi))
        back = wavefunction_from_json(payload)
        assert back.grid == grid and back.hbar == psi.hbar
        assert np.max(np.abs(back.values - psi.values)) == 0.0

    @pytest.mark.parametrize("n", [64.9, 64.0, "64", True])
    def test_json_rejects_non_int_size(self, n):
        payload = wavefunction_to_json(gaussian_state(_grid(64)))
        payload["N"] = n
        with pytest.raises(ValueError, match="N must be an integer"):
            wavefunction_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d.pop("L"), "no field 'L'"),
            (lambda d: d.update(L=None), "L must be a number, got None"),
            (lambda d: d.update(hbar="1"), "hbar must be a number, got '1'"),
            (lambda d: d["values"].__setitem__(3, [0.0]), r"values\[3\] must be a pair"),
            (lambda d: d["values"].__setitem__(3, ["a", 0.0]), r"values\[3\] must be a pair"),
            (lambda d: d["values"].__setitem__(3, [None, 0.0]), r"values\[3\] must be a pair"),
            (lambda d: d.update(values=5), "values must be a list of .* got int"),
        ],
        ids=["missing", "null-L", "string-hbar", "short-sample", "string-part",
             "null-part", "values-not-a-list"],
    )
    def test_json_errors_name_the_field(self, change, message):
        payload = wavefunction_to_json(gaussian_state(_grid(64)))
        change(payload)
        with pytest.raises(ValueError, match=message):
            wavefunction_from_json(json.dumps(payload))

    def test_json_rejects_a_top_level_list(self):
        with pytest.raises(ValueError, match="must be an object, got list"):
            wavefunction_from_json("[64, 20.0, 1.0, []]")

    @pytest.mark.parametrize("text", ["", "x,re,im\n", "\n \n"], ids=["empty", "header", "blank"])
    def test_csv_without_sample_rows(self, text):
        with pytest.raises(ValueError, match="^CSV has no sample rows$"):
            wavefunction_from_csv(text, length=10.0)
        with pytest.raises(ValueError, match="n_points must be a power of two"):
            wavefunction_from_csv(text + "0,1,0\n", length=10.0)

    def test_csv_malformed(self):
        with pytest.raises(ValueError, match="malformed CSV row"):
            wavefunction_from_csv("x,re\n0,1\n", length=10.0)

    @pytest.mark.parametrize("column", [0, 1, 2], ids=["x", "re", "im"])
    def test_csv_errors_name_the_row_and_column(self, column):
        # line 1 is the header, so the fourth sample is on row 5
        rows = wavefunction_to_csv(gaussian_state(_grid(64))).splitlines()
        fields = rows[4].split(",")
        fields[column] = "a"
        rows[4] = ",".join(fields)
        name = ("x", "re", "im")[column]
        with pytest.raises(ValueError, match=f"^CSV row 5: {name} must be a number, got 'a'$"):
            wavefunction_from_csv("\n".join(rows), length=_grid(64).length)

    def test_csv_header_has_no_number(self):
        # a first row with any number in it is a sample, so a bad x there is
        # reported on row 1; a header has no number
        psi = gaussian_state(_grid(64))
        rows = wavefunction_to_csv(psi).splitlines()
        for header in ("x,re,im", "position,real part,imaginary part"):
            back = wavefunction_from_csv("\n".join([header] + rows[1:]), length=20.0)
            assert np.array_equal(back.values, psi.values)
        rows[1] = "a," + rows[1].split(",", 1)[1]
        with pytest.raises(ValueError, match="^CSV row 1: x must be a number, got 'a'$"):
            wavefunction_from_csv("\n".join(rows[1:]), length=20.0)


class TestNorm:
    def test_scaled_norm_keeps_ordinary_bits(self):
        psi = _random_state(_grid(256))
        direct = float(np.sqrt(psi.grid.spacing * np.sum(np.abs(psi.values) ** 2)))
        assert psi.norm() == direct

    @pytest.mark.parametrize("factor", [1e300, 1e-300])
    def test_norm_of_huge_and_tiny_states(self, factor):
        psi = _random_state(_grid(256))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = psi.with_values(psi.values * factor).norm()
        assert abs(scaled - factor * psi.norm()) <= 1e-14 * factor * psi.norm()

    def test_norm_of_zero_and_of_unrepresentable_states(self):
        grid = _grid(64)
        assert SampledWavefunction(grid, np.zeros(64, dtype=complex)).norm() == 0.0
        # each part is finite, but |v| is past double range
        edge = SampledWavefunction(grid, np.full(64, 1.5e308 + 1.5e308j))
        assert edge.norm() == np.inf

    def test_norm_of_one_sample_at_the_top_of_the_range(self):
        # the scale is the power of two at or below the peak, 2^1023 here, so
        # it stays finite; dx = 1.25
        grid = UniformGrid(16, 20.0)
        for peak, expected in ((1e308, 1e308 * np.sqrt(1.25)), (np.finfo(float).max, np.inf)):
            values = np.zeros(16, dtype=complex)
            values[8] = peak
            norm = SampledWavefunction(grid, values).norm()
            assert norm == expected or abs(norm - expected) <= 1e-15 * expected, peak


class TestBoundedness:
    @staticmethod
    def _norm_probe(n, seeds=range(20)):
        # bounded box-periodic symbol sin(kx x) + cos(kp p); operator norm
        # estimated over random normalized smooth states
        grid = UniformGrid(n, 20.0)
        x = grid.x_values()
        p = grid.p_values(1.0)
        kx = 3 * 2 * np.pi / grid.length
        kp = 2 * 2 * np.pi / (grid.n_points * grid.p_spacing(1.0))
        values = np.add.outer(np.sin(kx * x), np.cos(kp * p)) + 0j
        a = SampledSymbol(grid, values)
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryDecayWarning)
            for seed in seeds:
                psi = _random_state(grid, seed)
                out = apply_operator(a, psi, WeylScheme())
                worst = max(worst, out.norm() / psi.norm())
        return worst

    def test_bounded_symbol_norm_stable_under_refinement(self):
        coarse = self._norm_probe(256)
        fine = self._norm_probe(512)
        assert coarse <= 2.5 and fine <= 2.5
        assert fine <= coarse * 1.25 + 0.1

    def test_gaussian_bounded_symbol(self):
        grid = _grid()
        x = grid.x_values()
        p = grid.p_values(1.0)
        a = SampledSymbol(grid, np.exp(-np.add.outer(x**2, p**2) / 4) + 0j)
        for seed in range(5):
            psi = _random_state(grid, seed)
            for scheme in (WeylScheme(), BJQuadrature(8), BJSinc()):
                out = apply_operator(a, psi, scheme)
                assert out.norm() <= 10.0 * psi.norm()


class TestSharedRules:
    """The grid layer applies the exact layer's rule objects."""

    RULES = (Weyl(), Tau(Fraction(1, 3)), Tau(0), BornJordan())
    SYMBOLS = ("x^3*p^2 - 2*x*p + p^4", "x^2*p^2", "(x+p)^5", "hbar*x*p^3 + i*x^4")

    def test_grid_names_are_the_exact_classes(self):
        assert WeylScheme is Weyl and TauScheme is Tau and BJSinc is BornJordan

    @staticmethod
    def _apply_words(op, psi):
        """The exact operator applied word by word: each normal-ordered word
        xhat^a phat^b is x^a F^-1[p^b F psi], with the rolled centred DFT."""
        x, p = psi.grid.x_values(), psi.grid.p_values(psi.hbar)
        spectrum = _centred_dft(psi.values, -1, 0)
        out = np.zeros_like(psi.values)
        for ((a,), (b,)), coeff in op.terms.items():
            word = _centred_dft(p**b * spectrum, +1, 0) / psi.grid.n_points
            out += coeff.to_complex(psi.hbar) * x**a * word
        return out

    @pytest.mark.parametrize("rule", RULES, ids=repr)
    def test_grid_matches_exact_quantizer(self, rule):
        # largest relative difference measured: 9.6e-12
        for hbar in (1.0, 0.5):
            psi = hermite_state(_grid(256), 3, hbar)
            for text in self.SYMBOLS:
                a = parse(text)
                got = apply_operator(a, psi, rule).values
                want = self._apply_words(quantize_symbol(rule, a), psi)
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), text

    def test_formal_tau_is_rejected_on_the_grid(self):
        grid = _grid(64)
        psi = gaussian_state(grid)
        a = parse("x*p")
        for symbol in (a, sample_symbol(a, grid)):
            with pytest.raises(ValueError, match="numeric ordering parameter"):
                apply_operator(symbol, psi, Tau())

    def test_grid_only_and_unknown_schemes_are_rejected(self):
        a = parse("x*p")
        with pytest.raises(TypeError, match="unknown quantization scheme"):
            quantize_symbol(BJQuadrature(4), a)
        with pytest.raises(TypeError, match="unknown application scheme 'weyl'"):
            apply_operator(a, gaussian_state(_grid(64)), "weyl")

    @pytest.mark.parametrize("make", [
        lambda: quantize_symbol(Weyl(), parse("x*p")),
        lambda: AmplitudePoly.variable(1, "y") * AmplitudePoly.variable(1, "p"),
        lambda: ExactScalar.rational(2),
    ], ids=["OpPoly", "AmplitudePoly", "ExactScalar"])
    def test_only_a_symbol_poly_is_a_polynomial_symbol(self, make):
        # an operator read as a symbol would be quantized a second time
        grid = UniformGrid(128, 20.0)
        a = make()
        message = f"^expected a SymbolPoly, got {type(a).__name__}$"
        with pytest.raises(TypeError, match=message):
            apply_operator(a, hermite_state(grid, 2), Weyl())
        with pytest.raises(TypeError, match=message):
            sample_symbol(a, grid)

    def test_overflowing_symbol_raises_without_warnings(self):
        psi = gaussian_state(_grid(64))
        a = SymbolPoly.monomial(1, x=(400,), p=(0,))
        for rule in (Weyl(), BornJordan(), BJQuadrature(8)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    apply_operator(a, psi, rule)


def test_the_gather_block_starts_on_a_64_byte_boundary():
    # the gather's products ran slower into a block off a 32-byte boundary
    for shape in ((33, 512), (17, 16), (33, 1024)):
        blocks = [numeric._aligned_empty(shape) for _ in range(8)]
        for block in blocks:
            assert block.shape == shape and block.dtype == complex
            assert block.ctypes.data % 64 == 0 and block.flags.c_contiguous


class TestHalves:
    """From N = numeric._SPLIT_MIN_N on, and when the process may run on two
    CPUs (numeric._cpus), each N x N pass that is independent across rows or
    across columns runs in two halves, the upper one on a helper thread.
    Each half runs the same 1-D transforms and element-wise products on the
    same data, so the bits are those of one pass over the whole range."""

    SCHEMES = (WeylScheme(), TauScheme(0.3), BJSinc(), BJQuadrature(5), BJQuadrature(16))

    @staticmethod
    def _split_everywhere(monkeypatch, cpus=2):
        monkeypatch.setattr(numeric, "_cpus", lambda: cpus)
        monkeypatch.setattr(numeric, "_SPLIT_MIN_N", 16)

    def _outputs(self, n):
        grid = UniformGrid(n, 20.0)
        a = _smooth_symbol(grid, seed=n, hbar=0.5)
        psi = _random_state(grid, seed=n + 1, hbar=0.5)
        unit = _smooth_symbol(grid, seed=n + 2)
        unit_psi = _random_state(grid, seed=n + 3)
        # a new symbol object per scheme, so that no kept modes are reused
        outputs = [apply_operator(a.with_values(a.values), psi, s).values for s in self.SCHEMES]
        outputs += [symplectic_ft(a).values, bj_weyl_symbol_numeric(a).values,
                    antiwick_apply(unit, unit_psi).values]
        return outputs

    @pytest.mark.parametrize("n", [16, 64, 256, 512])
    def test_same_bits_on_one_cpu_and_two(self, n, monkeypatch):
        self._split_everywhere(monkeypatch, cpus=1)
        one = self._outputs(n)
        self._split_everywhere(monkeypatch, cpus=2)
        two = self._outputs(n)
        for i, (want, got) in enumerate(zip(one, two)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), i

    def test_overflow_in_a_half_is_one_value_error(self, monkeypatch):
        # the helper's half runs in the caller's context, so apply_operator's
        # np.errstate holds there too and no RuntimeWarning escapes
        self._split_everywhere(monkeypatch)
        grid = UniformGrid(512, 20.0)
        a = SampledSymbol(grid, np.full((512, 512), 1e307, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                apply_operator(a, gaussian_state(grid), WeylScheme())

    def test_the_helper_keeps_no_buffer(self, monkeypatch):
        # antiwick_apply's last split pass holds its 4 MiB buffer and the
        # 2 MiB envelope at N = 512; after the call the helper holds neither
        import tracemalloc

        self._split_everywhere(monkeypatch)
        grid = _grid(512)
        a, psi = _smooth_symbol(grid), hermite_state(grid, 3)
        tracemalloc.start()
        try:
            out = antiwick_apply(a, psi)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20, (held, out)

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert numeric._cpus() == (os.cpu_count() or 1)

    def test_an_error_in_either_half_reaches_the_caller(self, monkeypatch):
        self._split_everywhere(monkeypatch)
        ended = []

        def fail_in(start):
            def phase(part):
                if part.start == start:
                    raise KeyError(f"half at {start}")
                time.sleep(0.05)
                ended.append(part.start)
            return phase

        # the helper's half, then the caller's, which waits for the helper's
        with pytest.raises(KeyError, match="half at 8"):
            numeric._halves(16, fail_in(8))
        with pytest.raises(KeyError, match="half at 0"):
            numeric._halves(16, fail_in(0))
        assert ended == [0, 8]
        grid = _grid(256)
        a, psi = _smooth_symbol(grid), _random_state(grid)
        want = apply_operator(a, psi, BJSinc()).values
        monkeypatch.setattr(numeric, "_cpus", lambda: 1)
        assert np.array_equal(apply_operator(a.with_values(a.values), psi, BJSinc()).values, want)

    def test_concurrent_callers_get_the_serial_bits(self, monkeypatch):
        # more callers than CPUs share the one helper, switching often; each
        # call waits on its own reply, so none takes another's half
        self._split_everywhere(monkeypatch)
        grid = _grid(256)
        psi = _random_state(grid)
        symbols = [_smooth_symbol(grid, seed=seed) for seed in range(4)]

        def run(a):
            return [apply_operator(a.with_values(a.values), psi, s).values for s in self.SCHEMES]

        want = [run(a) for a in symbols]
        got = [None] * len(symbols)
        start = threading.Barrier(len(symbols))

        def caller(i):
            start.wait()
            got[i] = [run(symbols[i]) for _ in range(3)]

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(symbols))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        helpers = [t for t in threading.enumerate() if t.name == "bjcalc-halves"]
        assert len(helpers) == 1 and helpers[0].daemon
        for i, results in enumerate(got):
            assert results is not None, i
            for repeat in results:
                for w, g in zip(want[i], repeat):
                    assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), i

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helper(self, monkeypatch):
        self._split_everywhere(monkeypatch)
        grid = _grid(256)
        a, psi = _smooth_symbol(grid), _random_state(grid)
        want = apply_operator(a, psi, BJQuadrature(5)).values  # starts this process's helper
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 on warns that forking a threaded process may deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child has no helper thread until it needs one
            try:
                got = apply_operator(a.with_values(a.values), psi, BJQuadrature(5)).values
                os.write(write, got.tobytes())
            finally:
                os._exit(0)
        os.close(write)
        data, deadline = b"", time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                if select.select([read], [], [], 1.0)[0]:
                    chunk = os.read(read, 1 << 16)
                    if not chunk:
                        break
                    data += chunk
        finally:
            os.close(read)
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert np.array_equal(np.frombuffer(data, dtype=np.uint64), want.view(np.uint64))
