"""Shared low-level utilities (GF(2) linear algebra, small helpers)."""

from repro.utils.gf2 import (
    gf2_gaussian_elimination,
    gf2_rank,
    gf2_nullspace,
    gf2_solve,
    gf2_in_rowspace,
    gf2_span_contains,
    gf2_row_reduce,
    gf2_independent_rows,
    gf2_pack,
    gf2_unpack,
)

__all__ = [
    "gf2_gaussian_elimination",
    "gf2_rank",
    "gf2_nullspace",
    "gf2_solve",
    "gf2_in_rowspace",
    "gf2_span_contains",
    "gf2_row_reduce",
    "gf2_independent_rows",
    "gf2_pack",
    "gf2_unpack",
]
