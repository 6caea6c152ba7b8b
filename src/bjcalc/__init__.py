"""Exact and grid-based toolkit for ordering-sensitive quantization rules.

The exact layer works over rational scalars with a formal hbar: polynomial
symbols, normal-ordered operator polynomials, the symmetric / ordering-family
/ Born-Jordan quantization maps, and closed-form conversions between their
symbols.  The numeric layer realizes the same calculi on a periodic grid via
FFT-based application routes, plus phase-space diagnostics (symplectic
transform, reflection operators, coherent-state averages, Shubin ring slopes).

Only the exact layer is imported with the package.  The numeric names (and
NumPy with them) load on first access, so exact work never pays for NumPy.
"""

from importlib import import_module

from .exact import (
    AmplitudePoly,
    ExactScalar,
    HBAR,
    I,
    ONE,
    SymbolPoly,
)
from .operators import DegreeLimitError, MAX_TOTAL_DEGREE, OpPoly
from .quantize import (
    BornJordan,
    QuantizationScheme,
    Tau,
    Weyl,
    amplitude_average,
    amplitude_to_tau_symbol,
    quantize_monomial,
    quantize_symbol,
    tau_average,
)
from .transforms import (
    CoeffTable,
    CoefficientCapError,
    bernoulli,
    bj_to_tau,
    bj_to_weyl,
    c_coeff_1d,
    c_coeff_multi,
    monomial_closed_form,
    tau_shift,
    weyl_to_bj,
)
from .symlang import SymLangError, format_operator, format_symbol, parse

__version__ = "0.1.0"

__all__ = [
    "AmplitudePoly",
    "ExactScalar",
    "HBAR",
    "I",
    "ONE",
    "SymbolPoly",
    "DegreeLimitError",
    "MAX_TOTAL_DEGREE",
    "OpPoly",
    "BornJordan",
    "QuantizationScheme",
    "Tau",
    "Weyl",
    "amplitude_average",
    "amplitude_to_tau_symbol",
    "quantize_monomial",
    "quantize_symbol",
    "tau_average",
    "CoeffTable",
    "CoefficientCapError",
    "bernoulli",
    "bj_to_tau",
    "bj_to_weyl",
    "c_coeff_1d",
    "c_coeff_multi",
    "monomial_closed_form",
    "tau_shift",
    "weyl_to_bj",
    "SymLangError",
    "format_operator",
    "format_symbol",
    "parse",
    "BJQuadrature",
    "BJSinc",
    "BoundaryDecayWarning",
    "NumericParams",
    "SampledSymbol",
    "SampledWavefunction",
    "TauScheme",
    "UniformGrid",
    "WeylScheme",
    "antiwick_apply",
    "apply_operator",
    "bj_weyl_symbol_numeric",
    "gaussian_state",
    "grossmann_royer_apply",
    "heisenberg_shift",
    "hermite_state",
    "null_symbol",
    "q_norm_estimate",
    "sample_symbol",
    "shubin_slopes",
    "symplectic_ft",
    "wavefunction_from_csv",
    "wavefunction_from_json",
    "wavefunction_to_csv",
    "wavefunction_to_json",
    "weyl_via_grossmann_royer",
    "__version__",
]

# The numeric layer needs NumPy, which costs more to import than the whole
# exact layer.  The names of __all__ not bound above are its names, resolved
# on first access (PEP 562), so `import bjcalc` and exact work start without
# it.
_NUMERIC_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name: str):
    # `bjcalc.numeric` stays reachable without an explicit submodule import
    if name in _NUMERIC_NAMES or name == "numeric":
        numeric = import_module(".numeric", __name__)
        value = numeric if name == "numeric" else getattr(numeric, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
