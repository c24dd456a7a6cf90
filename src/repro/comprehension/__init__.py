"""Monoid comprehension calculus (Section 3.3 of the paper).

Submodules:

* :mod:`repro.comprehension.ir` -- comprehension terms and qualifiers.
* :mod:`repro.comprehension.monoids` -- commutative monoid registry.
* :mod:`repro.comprehension.normalize` -- normalization rules (Rule 2).
* :mod:`repro.comprehension.optimize` -- group-by elimination (Rules 16/17)
  and loop-iteration elimination (Section 3.6).
"""

from repro.comprehension.monoids import (
    ArgMin,
    Avg,
    DEFAULT_MONOIDS,
    Monoid,
    MonoidRegistry,
    argmin_monoid,
    avg_monoid,
)

__all__ = [
    "ArgMin",
    "Avg",
    "DEFAULT_MONOIDS",
    "Monoid",
    "MonoidRegistry",
    "argmin_monoid",
    "avg_monoid",
]
