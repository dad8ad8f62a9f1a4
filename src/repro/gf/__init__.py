"""Finite-field arithmetic substrate for random linear network coding.

The public entry point is :func:`GF`, a cached factory returning a
:class:`~repro.gf.field.GaloisField` for any supported prime-power order::

    >>> from repro.gf import GF
    >>> gf16 = GF(16)
    >>> int(gf16.mul(7, 9))
    10

Prime orders yield :class:`~repro.gf.field.PrimeField` (modular arithmetic),
prime powers yield :class:`~repro.gf.field.ExtensionField` (lookup tables).
"""

from __future__ import annotations

from functools import lru_cache

from .field import ExtensionField, GaloisField, PrimeField
from .linalg import (
    identity,
    invert_matrix,
    is_in_row_space,
    matmul,
    rank,
    row_reduce,
    solve,
)
from .polynomial import factor_prime_power, find_binary_irreducible, is_prime

__all__ = [
    "GF",
    "GaloisField",
    "PrimeField",
    "ExtensionField",
    "identity",
    "invert_matrix",
    "is_in_row_space",
    "matmul",
    "rank",
    "row_reduce",
    "solve",
    "factor_prime_power",
    "find_binary_irreducible",
    "is_prime",
]


@lru_cache(maxsize=None)
def GF(order: int) -> GaloisField:
    """Return the finite field of the given prime-power ``order``.

    Instances are cached, so ``GF(16) is GF(16)`` — field objects can be
    compared by identity and their lookup tables are built only once per
    process.
    """
    _, degree = factor_prime_power(order)
    if degree == 1:
        return PrimeField(order)
    return ExtensionField(order)
