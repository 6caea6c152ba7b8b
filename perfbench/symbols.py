"""Random symbol text shared by the exact and CLI workloads (no bjcalc import)."""

from __future__ import annotations

import random
from fractions import Fraction


def _names(dim: int) -> list[str]:
    if dim == 1:
        return ["x", "p"]
    return [f"x{j + 1}" for j in range(dim)] + [f"p{j + 1}" for j in range(dim)]


def _linear_form(rng: random.Random, dim: int) -> str:
    """A rational linear form in every variable, e.g. 3/2*x - 1/4*p."""
    out = ""
    for name in _names(dim):
        q = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        sign = "-" if rng.random() < 0.4 else "+"
        if not out:
            out = ("-" if sign == "-" else "") + f"{q}*{name}"
        else:
            out += f" {sign} {q}*{name}"
    return out


def symbol_text(rng: random.Random, dim: int, degree: int) -> str:
    """Product of `degree` random linear forms: as dense as (x+p)^degree."""
    return "*".join(f"({_linear_form(rng, dim)})" for _ in range(degree))
