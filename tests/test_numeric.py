"""Grid-layer invariants: transforms, application routes, phase-space
operators, coherent-state machinery, and growth-order estimation."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bjcalc.exact import SymbolPoly
from bjcalc.numeric import (
    BJQuadrature,
    BJSinc,
    BoundaryDecayWarning,
    NumericParams,
    SampledSymbol,
    SampledWavefunction,
    TauScheme,
    UniformGrid,
    WeylScheme,
    antiwick_apply,
    apply_operator,
    bj_weyl_symbol_numeric,
    estimate_shubin_order,
    gaussian_state,
    grossmann_royer_apply,
    heisenberg_shift,
    hermite_state,
    null_symbol,
    q_norm_estimate,
    sample_symbol,
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
from bjcalc.transforms import bj_to_weyl


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
        (lambda: OpPoly.x_op(2, 1.0), "variable index"),
        (lambda: UniformGrid(64.0, 20.0), "n_points"),
        (lambda: hermite_state(_grid(64), 2.0), "Hermite index"),
        (lambda: hermite_state(_grid(64), True), "Hermite index"),
        (lambda: BJQuadrature(2.5), "quadrature order"),
    ], ids=["variable-bool", "variable-float", "x_op-float", "grid-float",
            "hermite-float", "hermite-bool", "quadrature-float"])
    def test_integer_parameters_reject_non_integers(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()

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

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BJQuadrature(1)

    def test_tolerance_and_tau_validation(self):
        # a NaN or non-positive tolerance would silently switch off the
        # boundary-decay check; a NaN ordering parameter poisons every sample
        for bad in (float("nan"), 0.0, -1e-8, float("inf")):
            with pytest.raises(ValueError):
                NumericParams(tolerance=bad)
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
                table = _mode_multiplier(n, TauScheme(tau))
                assert np.max(np.abs(table - direct)) < 1e-12
            sinc = np.exp(-0.5j * theta) * np.sinc(theta / (2 * np.pi))
            assert np.max(np.abs(_mode_multiplier(n, BJSinc()) - sinc)) < 1e-12
        n = 256
        m = np.arange(n) - n // 2
        theta = 2 * np.pi * np.outer(m, m) / n
        nodes, weights = np.polynomial.legendre.leggauss(8)
        direct = sum(
            w / 2 * np.exp(-1j * (t + 1) / 2 * theta) for t, w in zip(nodes, weights)
        )
        assert np.max(np.abs(_mode_multiplier(n, BJQuadrature(8)) - direct)) < 1e-12

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


def _oracle_apply_poly(a, psi, scheme):
    """Polynomial route with two transforms per (term, j), a rolled centred
    DFT, and the ordering weights averaged over the scheme's nodes; BJSinc's
    uniform measure is 32 Gauss-Legendre nodes, exact for tau-degree <= 63."""
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
            g_hat = _centred_dft(x**j * psi.values, -1, 0) * p**s
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
        grid = UniformGrid(512, 20.0)
        symbol, (x0, p0) = null_symbol(grid)
        assert abs(x0 * p0 - 2 * np.pi) < 1e-12
        assert abs(x0 / grid.spacing - round(x0 / grid.spacing)) < 1e-12

    def test_explicit_point_snaps(self):
        grid = UniformGrid(512, 20.0)
        _, (x0, p0) = null_symbol(grid, x0=0.63, p0=10.0)
        assert abs(x0 / grid.spacing - round(x0 / grid.spacing)) < 1e-12
        assert abs(p0 / grid.p_spacing(1.0) - round(p0 / grid.p_spacing(1.0))) < 1e-12

    def test_rejects_out_of_box(self):
        grid = UniformGrid(512, 20.0)
        with pytest.raises(ValueError):
            null_symbol(grid, x0=11.0, p0=1.0)
        with pytest.raises(ValueError):
            null_symbol(grid, x0=1.0, p0=None)


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
        with pytest.raises(ValueError):
            q_norm_estimate(gaussian_state(grid, hbar=0.5), 1.0)


class TestShubinOrder:
    def test_polynomial_orders(self):
        radii = [3, 5, 8, 13, 21, 34]
        est = estimate_shubin_order(lambda x, p: 1 + x**2 + p**2, radii)
        assert abs(est.m_est - 2.0) < 0.05
        est = estimate_shubin_order(
            lambda x, p: (1 + x**2 + p**2) ** -1.5, radii
        )
        assert abs(est.m_est + 3.0) < 0.05

    def test_bounded_symbol_has_order_zero(self):
        est = estimate_shubin_order(
            lambda x, p: 2 + np.sin(x) * np.cos(p), [3, 5, 8, 13, 21, 34]
        )
        assert abs(est.m_est) < 0.1

    def test_rho_probe(self):
        est = estimate_shubin_order(
            lambda x, p: 1 + x**2 + p**2, [3, 5, 8, 13, 21, 34], estimate_rho=True
        )
        # gradient of a quadratic grows one order slower
        assert abs(est.rho_est - 1.0) < 0.1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_shubin_order(lambda x, p: x, [1, 2])
        with pytest.raises(ValueError):
            estimate_shubin_order(lambda x, p: x, [3, 2, 5])
        with pytest.raises(ValueError):
            estimate_shubin_order(lambda x, p: x * np.inf, [3, 5, 8])


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

    def test_csv_malformed(self):
        with pytest.raises(ValueError):
            wavefunction_from_csv("x,re\n0,1\n", length=10.0)


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

    def test_overflowing_symbol_raises_without_warnings(self):
        psi = gaussian_state(_grid(64))
        a = SymbolPoly.monomial(1, x=(400,), p=(0,))
        for rule in (Weyl(), BornJordan(), BJQuadrature(8)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    apply_operator(a, psi, rule)
