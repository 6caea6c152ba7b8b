"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion; tolerances are
stated inline.  Exact-layer checks require exact equality; grid-layer checks
pin explicit numeric tolerances.
"""

import random
import string
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bjcalc.exact import ExactScalar, SymbolPoly
from bjcalc.operators import OpPoly
from bjcalc.quantize import (
    BornJordan,
    Tau,
    Weyl,
    amplitude_average,
    amplitude_to_tau_symbol,
    quantize_monomial,
    quantize_symbol,
    tau_average,
)
from bjcalc.transforms import (
    bernoulli,
    bj_to_tau,
    bj_to_weyl,
    c_coeff_1d,
    monomial_closed_form,
    tau_shift,
    weyl_to_bj,
)
from bjcalc.symlang import SymLangError, format_symbol, parse
from bjcalc.numeric import (
    BJQuadrature,
    BJSinc,
    SampledSymbol,
    SampledWavefunction,
    TauScheme,
    UniformGrid,
    WeylScheme,
    antiwick_apply,
    apply_operator,
    gaussian_state,
    hermite_state,
    null_symbol,
    symplectic_ft,
)

F = Fraction


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _random_symbol(rng, dim, max_deg, n_terms=4):
    a = SymbolPoly.zero(dim)
    for _ in range(n_terms):
        while True:
            kx = tuple(rng.randrange(max_deg + 1) for _ in range(dim))
            kp = tuple(rng.randrange(max_deg + 1) for _ in range(dim))
            if sum(kx) + sum(kp) <= max_deg:
                break
        coeff = ExactScalar.rational(F(rng.randrange(-5, 6), rng.randrange(1, 4)))
        a = a + SymbolPoly.monomial(dim, coeff=coeff, x=kx, p=kp)
    return a


def test_criterion_1_monomial_rule_suite():
    """All three rules agree with their defining sums for r, s <= 6, exactly."""
    ok = True
    for r in range(7):
        for s in range(7):
            equal_weight = OpPoly.zero(1)
            for ell in range(s + 1):
                word = (
                    OpPoly.monomial(1, x=(0,), p=(s - ell,))
                    * OpPoly.monomial(1, x=(r,), p=(0,))
                    * OpPoly.monomial(1, x=(0,), p=(ell,))
                )
                equal_weight = equal_weight + word
            equal_weight = equal_weight.scale(F(1, s + 1))
            bj = quantize_monomial(BornJordan(), r, s)
            ok &= bj == equal_weight
            ok &= bj == tau_average(quantize_monomial(Tau(None), r, s))
            ok &= quantize_monomial(Tau(F(1, 2)), r, s) == quantize_monomial(
                Weyl(), r, s
            )
    _report("criterion-1 monomial rule suite (exact, r,s <= 6)", ok)


def test_criterion_2_conversion_matches_quantization():
    """Symmetric-rule quantization of the converted symbol reproduces the
    Born-Jordan operator: monomials r,s <= 6, 100 random 1-d symbols of
    degree <= 6, 20 random 2-d symbols.  Exact equality."""
    ok = True
    for r in range(7):
        for s in range(7):
            a = SymbolPoly.monomial(1, x=(r,), p=(s,))
            ok &= quantize_symbol(Weyl(), bj_to_weyl(a)) == quantize_symbol(
                BornJordan(), a
            )
    rng = random.Random(101)
    for _ in range(100):
        a = _random_symbol(rng, 1, 6)
        ok &= quantize_symbol(Weyl(), bj_to_weyl(a)) == quantize_symbol(
            BornJordan(), a
        )
    for _ in range(20):
        a = _random_symbol(rng, 2, 6, n_terms=3)
        ok &= quantize_symbol(Weyl(), bj_to_weyl(a)) == quantize_symbol(
            BornJordan(), a
        )
    _report("criterion-2 conversion matches quantization (exact)", ok)


def test_criterion_3_reciprocity_and_coefficient_table():
    """The two conversions invert each other on 100 random polynomials of
    degree <= 8, and the 1-d coefficients equal (2 - 2^k) B_k for even
    k <= 12.  Exact."""
    ok = True
    rng = random.Random(103)
    for _ in range(100):
        a = _random_symbol(rng, 1, 8)
        ok &= weyl_to_bj(bj_to_weyl(a)) == a
        ok &= bj_to_weyl(weyl_to_bj(a)) == a
    for k in range(0, 13, 2):
        ok &= c_coeff_1d(k) == (2 - 2**k) * bernoulli(k)
    for k in range(1, 13, 2):
        ok &= c_coeff_1d(k) == 0
    _report("criterion-3 reciprocity and coefficient table (exact)", ok)


def test_criterion_4_monomial_closed_forms():
    """Closed-form monomial conversions match the series for r, s <= 6,
    including x^2 p^2 -> x^2 p^2 -/+ hbar^2/6.  Exact."""
    ok = True
    for r in range(7):
        for s in range(7):
            a = SymbolPoly.monomial(1, x=(r,), p=(s,))
            ok &= monomial_closed_form("weyl_of_bj", r, s) == bj_to_weyl(a)
            ok &= monomial_closed_form("bj_of_weyl", r, s) == weyl_to_bj(a)
    hbar2 = SymbolPoly.constant(1, ExactScalar.hbar(2).scale(F(1, 6)))
    a22 = SymbolPoly.monomial(1, x=(2,), p=(2,))
    ok &= monomial_closed_form("weyl_of_bj", 2, 2) == a22 - hbar2
    ok &= monomial_closed_form("bj_of_weyl", 2, 2) == a22 + hbar2
    _report("criterion-4 monomial closed forms (exact, r,s <= 6)", ok)


def test_criterion_5_tau_family_conversions():
    """Ordering-family conversions quantize consistently for
    tau in {0, 1/4, 1/3, 1/2, 1}; the shift map links any two parameters;
    the amplitude route reproduces the direct conversion.  Exact."""
    ok = True
    rng = random.Random(107)
    taus = [F(0), F(1, 4), F(1, 3), F(1, 2), F(1)]
    for tau in taus:
        for _ in range(5):
            a = _random_symbol(rng, 1, 6, n_terms=3)
            bj_op = quantize_symbol(BornJordan(), a)
            ok &= quantize_symbol(Tau(tau), bj_to_tau(a, tau)) == bj_op
            ok &= amplitude_to_tau_symbol(amplitude_average(a), tau) == bj_to_tau(
                a, tau
            )
    for t_from, t_to in [(F(0), F(1)), (F(1, 4), F(1, 3)), (F(1, 2), F(0))]:
        a = _random_symbol(rng, 1, 6, n_terms=3)
        ok &= quantize_symbol(Tau(t_to), tau_shift(a, t_from, t_to)) == (
            quantize_symbol(Tau(t_from), a)
        )
    _report("criterion-5 ordering-family conversions (exact)", ok)


def test_criterion_6_numeric_harmonic_oscillator():
    """hbar=1, N=512, L=20: the harmonic symbol applied to the ground Gaussian
    returns psi/2 with relative error <= 1e-8 under all four schemes, which
    also agree pairwise within 1e-8."""
    grid = UniformGrid(512, 20.0)
    psi = gaussian_state(grid)
    a = parse("1/2*x^2 + 1/2*p^2")
    target = 0.5 * psi.values
    scale = np.max(np.abs(target))
    schemes = [
        ("weyl", WeylScheme()),
        ("tau(0.3)", TauScheme(0.3)),
        ("bj-quadrature(16)", BJQuadrature(16)),
        ("bj-sinc", BJSinc()),
    ]
    results = {}
    ok = True
    worst = 0.0
    for name, scheme in schemes:
        out = apply_operator(a, psi, scheme)
        results[name] = out.values
        err = np.max(np.abs(out.values - target)) / scale
        worst = max(worst, err)
        ok &= err <= 1e-8
    names = [n for n, _ in schemes]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            diff = np.max(np.abs(results[names[i]] - results[names[j]])) / scale
            worst = max(worst, diff)
            ok &= diff <= 1e-8
    _report(
        "criterion-6 harmonic oscillator on the grid (tol 1e-8)",
        ok,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_7_averaged_vs_filtered_route():
    """The quadrature-averaged route and the filtered symmetric route agree
    within 1e-6 on x^2 p^2 and x^3 p against the Gaussian and the first
    excited state."""
    grid = UniformGrid(512, 20.0)
    states = [gaussian_state(grid), hermite_state(grid, 1)]
    ok = True
    worst = 0.0
    for expr in ("x^2*p^2", "x^3*p"):
        a = parse(expr)
        for psi in states:
            o1 = apply_operator(a, psi, BJQuadrature(16))
            o2 = apply_operator(a, psi, BJSinc())
            err = np.max(np.abs(o1.values - o2.values))
            worst = max(worst, err)
            ok &= err <= 1e-6
    _report(
        "criterion-7 quadrature vs filtered route (tol 1e-6)",
        ok,
        f"worst abs diff {worst:.2e}",
    )


def test_criterion_8_null_symbol_separates_the_rules():
    """A windowed exponential at x0 p0 = 2 pi hbar is annihilated by the
    Born-Jordan route (ratio <= 1e-4) but not by the symmetric route
    (ratio >= 0.1)."""
    grid = UniformGrid(512, 20.0)
    psi = gaussian_state(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        symbol, (x0, p0) = null_symbol(grid)
        bj_out = apply_operator(symbol, psi, BJSinc())
        weyl_out = apply_operator(symbol, psi, WeylScheme())
    bj_ratio = bj_out.norm() / psi.norm()
    weyl_ratio = weyl_out.norm() / psi.norm()
    ok = abs(x0 * p0 - 2 * np.pi) < 1e-12 and bj_ratio <= 1e-4 and weyl_ratio >= 0.1
    _report(
        "criterion-8 null symbol separates the rules",
        ok,
        f"bj ratio {bj_ratio:.2e}, weyl ratio {weyl_ratio:.2f}",
    )


def test_criterion_9_symplectic_transform_involution():
    """Applying the symplectic transform twice returns the input within 1e-10
    for 10 band-limited symbols at N = 256."""
    grid = UniformGrid(256, 20.0)
    x = grid.x_values()
    p = grid.p_values(1.0)
    envelope = np.exp(-np.add.outer(x**2, p**2) / 8)
    rng = np.random.default_rng(109)
    ok = True
    worst = 0.0
    for _ in range(10):
        field = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        spectrum = np.fft.fft2(field)
        mask = np.zeros_like(spectrum, dtype=bool)
        k = 10
        mask[:k, :k] = mask[:k, -k:] = mask[-k:, :k] = mask[-k:, -k:] = True
        a = SampledSymbol(grid, envelope * np.fft.ifft2(spectrum * mask))
        twice = symplectic_ft(symplectic_ft(a))
        err = np.max(np.abs(twice.values - a.values)) / np.max(np.abs(a.values))
        worst = max(worst, err)
        ok &= err <= 1e-10
    _report(
        "criterion-9 symplectic transform involution (tol 1e-10)",
        ok,
        f"worst rel err {worst:.2e}",
    )


def _dense_coherent_average(a_values, psi, grid):
    """Direct quadrature oracle for the coherent-state average, no FFT."""
    x = grid.x_values()
    p = grid.p_values(1.0)
    dx = grid.spacing
    dp = grid.p_spacing(1.0)
    out = np.zeros(grid.n_points, dtype=complex)
    norm = np.pi**-0.25
    for m, xm in enumerate(x):
        gauss = norm * np.exp(-0.5 * (x - xm) ** 2)
        for k, pk in enumerate(p):
            phi = gauss * np.exp(1j * pk * x)
            overlap = np.sum(np.conj(phi) * psi.values) * dx
            out += a_values[m, k] * overlap * phi
    return out * dx * dp


def test_criterion_10_coherent_state_average():
    """The constant symbol acts as c times the identity on the first five
    Hermite states (spread <= 1e-4), c matches a dense no-FFT oracle, and
    non-negative symbols give quadratic forms >= -1e-10."""
    grid = UniformGrid(256, 20.0)
    one = SampledSymbol(grid, np.ones((256, 256), dtype=complex))
    constants = []
    for k in range(5):
        psi = hermite_state(grid, k)
        out = antiwick_apply(one, psi)
        constants.append(
            (np.vdot(psi.values, out.values) * grid.spacing).real
        )
    spread = max(constants) - min(constants)
    ok = spread <= 1e-4

    # dense oracle at small size
    small = UniformGrid(64, 16.0)
    psi0 = gaussian_state(small)
    dense = _dense_coherent_average(
        np.ones((64, 64), dtype=complex), psi0, small
    )
    fft_route = antiwick_apply(
        SampledSymbol(small, np.ones((64, 64), dtype=complex)), psi0
    )
    oracle_err = np.max(np.abs(dense - fft_route.values))
    c_dense = (np.vdot(psi0.values, dense) * small.spacing).real
    ok &= oracle_err <= 1e-10
    ok &= abs(constants[0] - c_dense) <= 1e-8

    rng = np.random.default_rng(113)
    x = grid.x_values()
    p = grid.p_values(1.0)
    envelope = np.exp(-np.add.outer(x**2, p**2) / 8)
    min_quad = np.inf
    for seed in range(20):
        field = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        spectrum = np.fft.fft2(field)
        mask = np.zeros_like(spectrum, dtype=bool)
        mask[:6, :6] = mask[:6, -6:] = mask[-6:, :6] = mask[-6:, -6:] = True
        nonneg = np.abs(envelope * np.fft.ifft2(spectrum * mask)) ** 2
        psi = hermite_state(grid, seed % 4)
        out = antiwick_apply(SampledSymbol(grid, nonneg + 0j), psi)
        quad = (np.vdot(psi.values, out.values) * grid.spacing).real
        min_quad = min(min_quad, quad)
        ok &= quad >= -1e-10
    _report(
        "criterion-10 coherent-state average",
        ok,
        f"c spread {spread:.2e}, oracle err {oracle_err:.2e}, "
        f"min quad form {min_quad:.2e}",
    )


def test_criterion_11_parser_roundtrip_and_fuzz():
    """1000 random symbols round-trip exactly through format/parse; 100000
    fuzz inputs never crash the parser."""
    rng = random.Random(127)
    ok = True
    for _ in range(1000):
        dim = rng.choice([1, 1, 1, 2, 3])
        a = _random_symbol(rng, dim, 6, n_terms=rng.randrange(1, 5))
        ok &= parse(format_symbol(a), dim=dim) == a

    alphabet = "xp123456789/^*+-() ihbar" + string.ascii_lowercase + "$.\\"
    crashes = 0
    for _ in range(100_000):
        text = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 24))
        )
        try:
            parse(text, dim=rng.choice([1, 2]))
        except SymLangError:
            pass
        except Exception:
            crashes += 1
    ok &= crashes == 0
    _report(
        "criterion-11 parser round-trip and fuzz",
        ok,
        f"{crashes} unexpected exceptions",
    )
