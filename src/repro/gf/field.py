"""Finite (Galois) field arithmetic vectorised over numpy arrays.

Random linear network coding (Section 2 of the paper) works over a field
``F_q``.  The paper's analysis needs nothing more than ``q >= 2`` — the
probability that a random combination from a *helpful* node is itself helpful
is at least ``1 - 1/q`` — but an executable reproduction needs real field
arithmetic so that encoded packets can actually be decoded.

Two element representations are used, both mapping elements to the integers
``0 .. q-1``:

* :class:`PrimeField` — ``GF(p)`` with ordinary modular arithmetic.
* :class:`ExtensionField` — ``GF(p^m)``; an element's base-``p`` digits are
  the coefficients of its polynomial representation.  Multiplication and
  addition are implemented with precomputed ``q x q`` lookup tables, which for
  the small fields used by gossip simulations (``q <= 256``) is both simple
  and fast when combined with numpy fancy indexing.

All operations accept scalars or numpy arrays and broadcast like numpy ufuncs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import FieldError
from .polynomial import factor_prime_power, find_binary_irreducible, find_irreducible

__all__ = ["GaloisField", "PrimeField", "ExtensionField"]

#: Module-level cache of extension-field lookup tables, keyed by field order:
#: ``order -> (add, mul, neg, inverse)``.  Building the ``q x q`` tables costs
#: ``O(q^2)`` polynomial multiplications — noticeable for ``GF(256)`` — and the
#: tables are immutable, so every :class:`ExtensionField` instance of the same
#: order (however constructed: the cached :func:`repro.gf.GF` factory, direct
#: instantiation in tests, or unpickling in worker processes, which re-enters
#: ``__init__`` via ``GaloisField.__reduce__``) shares one set instead of
#: rebuilding them from scratch.
_EXTENSION_TABLE_CACHE: dict[
    int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
] = {}


def _as_array(values: object, order: int) -> np.ndarray:
    """Convert ``values`` to an integer numpy array and range-check it."""
    array = np.asarray(values)
    if array.dtype.kind == "b":
        # Booleans are deliberately rejected rather than silently promoted to
        # 0/1: a mask passed where field elements were expected is almost
        # always a bug (e.g. ``matrix != 0`` instead of ``matrix``).
        raise FieldError(
            "field elements must be integers, got a boolean array; "
            "cast explicitly (e.g. values.astype(np.uint8)) if 0/1 was intended"
        )
    if array.dtype.kind not in "iu":
        if array.dtype.kind == "f" and np.all(array == np.floor(array)):
            array = array.astype(np.int64)
        else:
            raise FieldError(f"field elements must be integers, got dtype {array.dtype}")
    if array.size and (array.min() < 0 or array.max() >= order):
        raise FieldError(
            f"element out of range for GF({order}): "
            f"min={array.min()}, max={array.max()}"
        )
    return array


class GaloisField(ABC):
    """Abstract interface shared by all field implementations.

    Subclasses provide :meth:`add`, :meth:`mul` and :meth:`inv`; the remaining
    operations (subtraction, division, powers, dot products) are derived here.
    Elements are plain integers / integer numpy arrays in ``[0, order)``.
    """

    def __init__(self, order: int, characteristic: int, degree: int) -> None:
        self.order = order
        self.characteristic = characteristic
        self.degree = degree
        self.dtype = np.uint8 if order <= 256 else np.int64

    # -- primitive operations -----------------------------------------
    @abstractmethod
    def add(self, a, b) -> np.ndarray:
        """Element-wise field addition."""

    @abstractmethod
    def neg(self, a) -> np.ndarray:
        """Element-wise additive inverse."""

    @abstractmethod
    def mul(self, a, b) -> np.ndarray:
        """Element-wise field multiplication."""

    @abstractmethod
    def inv(self, a) -> np.ndarray:
        """Element-wise multiplicative inverse; raises on zero."""

    # -- derived operations -------------------------------------------
    def sub(self, a, b) -> np.ndarray:
        """Element-wise field subtraction ``a - b``."""
        return self.add(a, self.neg(b))

    def div(self, a, b) -> np.ndarray:
        """Element-wise field division ``a / b``; raises when ``b`` has zeros."""
        return self.mul(a, self.inv(b))

    def power(self, a, exponent: int) -> np.ndarray:
        """Raise every element of ``a`` to the integer ``exponent``.

        Negative exponents are supported via inversion.  ``0 ** 0`` is defined
        as ``1`` to match the usual polynomial-evaluation convention.
        """
        a = self.validate(a)
        if exponent < 0:
            a = self.inv(a)
            exponent = -exponent
        result = np.ones_like(np.atleast_1d(a))
        base = np.atleast_1d(a).copy()
        e = exponent
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        if np.shape(a):
            return np.asarray(result).reshape(np.shape(a))
        return np.asarray(result).reshape(-1)[0]

    def dot(self, coefficients, vectors) -> np.ndarray:
        """Linear combination ``sum_i coefficients[i] * vectors[i]`` over the field.

        ``coefficients`` has shape ``(m,)`` and ``vectors`` shape ``(m, r)``;
        the result has shape ``(r,)``.  The engines encode on
        :class:`~repro.backends.rows.RowEliminator`; this checked form serves
        :func:`~repro.gf.linalg.matmul`.
        """
        coefficients = self.validate(coefficients)
        vectors = self.validate(vectors)
        if vectors.ndim != 2 or coefficients.ndim != 1:
            raise FieldError("dot expects a coefficient vector and a matrix of row vectors")
        if coefficients.shape[0] != vectors.shape[0]:
            raise FieldError(
                f"shape mismatch: {coefficients.shape[0]} coefficients for "
                f"{vectors.shape[0]} vectors"
            )
        result = np.zeros(vectors.shape[1], dtype=self.dtype)
        for coeff, row in zip(coefficients, vectors):
            if coeff == 0:
                continue
            result = self.add(result, self.scalar_mul(int(coeff), row))
        return result

    def scalar_mul(self, scalar: int, vector) -> np.ndarray:
        """Multiply every entry of ``vector`` by the field element ``scalar``."""
        vector = self.validate(vector)
        scalars = np.full(vector.shape, scalar, dtype=self.dtype)
        return self.mul(scalars, vector)

    # -- utilities ------------------------------------------------------
    def validate(self, values) -> np.ndarray:
        """Return ``values`` as a range-checked array of this field's dtype."""
        return _as_array(values, self.order).astype(self.dtype)

    def zeros(self, shape) -> np.ndarray:
        """An all-zero array of field elements."""
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape) -> np.ndarray:
        """An all-one array of field elements."""
        return np.ones(shape, dtype=self.dtype)

    def random_elements(
        self, rng: np.random.Generator, size, *, nonzero: bool = False
    ) -> np.ndarray:
        """Draw uniform random field elements.

        With ``nonzero=True`` the elements are uniform over the multiplicative
        group ``F_q^*`` instead of the whole field.
        """
        low = 1 if nonzero else 0
        return rng.integers(low, self.order, size=size, dtype=np.int64).astype(self.dtype)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GaloisField) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("GaloisField", self.order))

    def __reduce__(self):
        # A field is fully determined by its order, so pickle just that:
        # unpickling re-runs __init__, which routes extension fields through
        # the module-level table cache instead of shipping (and then holding)
        # four private q x q table copies per instance, and keeps pickled
        # payloads that embed a field small.
        return (type(self), (self.order,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class PrimeField(GaloisField):
    """``GF(p)`` for a prime ``p``, implemented with modular arithmetic."""

    def __init__(self, p: int) -> None:
        characteristic, degree = factor_prime_power(p)
        if degree != 1:
            raise FieldError(f"PrimeField requires a prime order, got {p}")
        super().__init__(order=p, characteristic=characteristic, degree=1)
        # Precompute the inverse table once; p <= 256 in practice.
        inverses = np.zeros(p, dtype=self.dtype)
        for value in range(1, p):
            inverses[value] = pow(value, p - 2, p)
        self._inverse_table = inverses

    def add(self, a, b) -> np.ndarray:
        a = self.validate(a).astype(np.int64)
        b = self.validate(b).astype(np.int64)
        return ((a + b) % self.order).astype(self.dtype)

    def neg(self, a) -> np.ndarray:
        a = self.validate(a).astype(np.int64)
        return ((-a) % self.order).astype(self.dtype)

    def mul(self, a, b) -> np.ndarray:
        a = self.validate(a).astype(np.int64)
        b = self.validate(b).astype(np.int64)
        return ((a * b) % self.order).astype(self.dtype)

    def inv(self, a) -> np.ndarray:
        a = self.validate(a)
        if np.any(np.asarray(a) == 0):
            raise FieldError("cannot invert the zero element")
        return self._inverse_table[np.asarray(a, dtype=np.int64)]


class ExtensionField(GaloisField):
    """``GF(p^m)`` with ``m >= 2``, implemented with lookup tables.

    Elements are integers whose base-``p`` digits are polynomial coefficients
    (least-significant digit = constant term).  For ``p = 2`` this is the
    familiar bit-vector representation, and the reduction polynomial is the
    standard one from :data:`~repro.gf.polynomial.CONWAY_BINARY_POLYNOMIALS`.
    """

    def __init__(self, order: int) -> None:
        characteristic, degree = factor_prime_power(order)
        if degree < 2:
            raise FieldError(
                f"ExtensionField requires a proper prime power, got {order}; use PrimeField"
            )
        super().__init__(order=order, characteristic=characteristic, degree=degree)
        if characteristic == 2:
            self.modulus_bits = find_binary_irreducible(degree)
            self.modulus_coeffs: tuple[int, ...] | None = None
        else:
            self.modulus_bits = None
            self.modulus_coeffs = find_irreducible(characteristic, degree)
        cached = _EXTENSION_TABLE_CACHE.get(order)
        if cached is None:
            self._add_table, self._mul_table = self._build_tables()
            self._neg_table = self._build_neg_table()
            self._inverse_table = self._build_inverse_table()
            tables = (
                self._add_table,
                self._mul_table,
                self._neg_table,
                self._inverse_table,
            )
            for table in tables:
                table.setflags(write=False)  # shared between instances
            _EXTENSION_TABLE_CACHE[order] = tables
        else:
            (
                self._add_table,
                self._mul_table,
                self._neg_table,
                self._inverse_table,
            ) = cached

    # -- table construction --------------------------------------------
    def _digits(self, value: int) -> list[int]:
        p = self.characteristic
        digits = []
        for _ in range(self.degree):
            digits.append(value % p)
            value //= p
        return digits

    def _from_digits(self, digits: list[int]) -> int:
        p = self.characteristic
        value = 0
        for digit in reversed(digits):
            value = value * p + (digit % p)
        return value

    def _poly_add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._from_digits([(x + y) % self.characteristic for x, y in zip(da, db)])

    def _poly_neg(self, a: int) -> int:
        return self._from_digits([(-x) % self.characteristic for x in self._digits(a)])

    def _poly_mul(self, a: int, b: int) -> int:
        p = self.characteristic
        if p == 2:
            from .polynomial import gf2_poly_mulmod

            return gf2_poly_mulmod(a, b, self.modulus_bits)
        # General characteristic: schoolbook multiply then reduce by the monic
        # modulus polynomial of degree m.
        da, db = self._digits(a), self._digits(b)
        product = [0] * (2 * self.degree - 1)
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                product[i + j] = (product[i + j] + x * y) % p
        # Reduce: x^m = -(c_{m-1} x^{m-1} + ... + c_0) where modulus is
        # x^m + c_{m-1} x^{m-1} + ... + c_0.
        assert self.modulus_coeffs is not None
        mod = list(self.modulus_coeffs)
        for deg in range(len(product) - 1, self.degree - 1, -1):
            coeff = product[deg]
            if coeff == 0:
                continue
            product[deg] = 0
            for j in range(self.degree):
                product[deg - self.degree + j] = (
                    product[deg - self.degree + j] - coeff * mod[j]
                ) % p
        return self._from_digits(product[: self.degree])

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.order
        add_table = np.zeros((q, q), dtype=self.dtype)
        mul_table = np.zeros((q, q), dtype=self.dtype)
        for a in range(q):
            for b in range(a, q):
                s = self._poly_add(a, b)
                m = self._poly_mul(a, b)
                add_table[a, b] = add_table[b, a] = s
                mul_table[a, b] = mul_table[b, a] = m
        return add_table, mul_table

    def _build_neg_table(self) -> np.ndarray:
        return np.array([self._poly_neg(a) for a in range(self.order)], dtype=self.dtype)

    def _build_inverse_table(self) -> np.ndarray:
        q = self.order
        inverses = np.zeros(q, dtype=self.dtype)
        for a in range(1, q):
            row = self._mul_table[a]
            ones = np.nonzero(row == 1)[0]
            if ones.size != 1:
                raise FieldError(
                    f"internal error building GF({q}): element {a} has "
                    f"{ones.size} inverses"
                )  # pragma: no cover - table construction sanity check
            inverses[a] = ones[0]
        return inverses

    # -- field operations ------------------------------------------------
    def add(self, a, b) -> np.ndarray:
        a = np.asarray(self.validate(a), dtype=np.int64)
        b = np.asarray(self.validate(b), dtype=np.int64)
        return self._add_table[a, b]

    def neg(self, a) -> np.ndarray:
        a = np.asarray(self.validate(a), dtype=np.int64)
        return self._neg_table[a]

    def mul(self, a, b) -> np.ndarray:
        a = np.asarray(self.validate(a), dtype=np.int64)
        b = np.asarray(self.validate(b), dtype=np.int64)
        return self._mul_table[a, b]

    def inv(self, a) -> np.ndarray:
        a = np.asarray(self.validate(a), dtype=np.int64)
        if np.any(a == 0):
            raise FieldError("cannot invert the zero element")
        return self._inverse_table[a]
