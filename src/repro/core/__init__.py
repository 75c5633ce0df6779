"""Core API: the hole abstraction and its builders.

The paper's central artifact — convex hulls of radio holes, bay areas and
dominating sets — plus the centralized builder.  The distributed builder
lives in :mod:`repro.protocols.setup`; both produce the same
:class:`Abstraction`.
"""

from .abstraction import (
    Abstraction,
    Bay,
    HoleAbstraction,
    build_abstraction,
    reference_dominating_set,
)

__all__ = [
    "Abstraction",
    "Bay",
    "HoleAbstraction",
    "build_abstraction",
    "reference_dominating_set",
]
