"""Exact-arithmetic toolkit for noncommutative quadrics: quintuple
validation, geometric squares, line geometry in Gr(1,3), quiver algebras
and mutations, blow-up line-bundle calculus, and per-input embedding
certificates."""

__version__ = "0.1.0"

from .fields import GF, QQ, PrimeField  # noqa: F401
from .quintuples import (  # noqa: F401
    Quintuple,
    build_linear_quadric,
    build_type_a,
    hilbert_dims,
    is_geometric,
    relations,
    truncated_dims,
)
