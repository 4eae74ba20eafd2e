"""Exact arithmetic in finite fields F_q for prime powers q up to 2**16.

An element is stored as an integer in [0, q): the coefficient vector of
the residue class, read in base p with the constant term least
significant.  Multiplication, inversion and powering go through
exponent / discrete-log tables keyed to a canonical primitive element g,
so they are table lookups after construction.  A prime field adds and
subtracts its integers mod p.  An extension field adds and subtracts
through a Zech-logarithm table, zech[i] = log(1 + g**i), which has
q - 1 entries: g**i + g**j = g**(i + zech[j - i]).

Canonical choices (all deterministic):
  * modulus: the lexicographically smallest monic irreducible of degree
    e over F_p, coefficients compared constant-term first;
  * primitive element: the smallest element in the same constant-term
    first coefficient order whose multiplicative order is q - 1.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

MAX_FIELD_ORDER = 1 << 16


def check_field_order(q: int):
    """Refuse a field order above MAX_FIELD_ORDER; callers run this before
    prime_power, whose trial division takes time that grows as sqrt(q)."""
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"field order {q} exceeds the supported maximum {MAX_FIELD_ORDER}")


def is_prime(n: int) -> bool:
    return n >= 2 and next(_prime_factors(n)) == n


def prime_power(n: int):
    """Return (p, e) with n == p**e, or None if n is not a prime power."""
    if n < 2:
        return None
    p = next(_prime_factors(n))
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


def _prime_factors(n: int):
    """The distinct prime factors of n >= 1 in increasing order, by trial
    division that goes no further than the caller reads."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        yield n


# ---------------------------------------------------------------------------
# construction-time polynomial arithmetic (little-endian digit tuples)

def _poly_rem(a, b, p):
    """Remainder of a modulo monic b, coefficients mod p."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    while da >= db:
        c = a[da] % p
        if c:
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - c * b[j]) % p
        da -= 1
    return [x % p for x in a[:db]]


def _is_irreducible(modulus, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= e/2."""
    e = len(modulus) - 1
    if e == 1:
        return True
    for d in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not any(_poly_rem(modulus, divisor, p)):
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    for tail in itertools.product(range(p), repeat=e):
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _poly_mulmod(a, b, modulus, p):
    e = len(a)
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * e - 2, e - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(e):
                prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
    return tuple(prod[:e])


def _poly_powmod(a, n, modulus, p):
    e = len(a)
    result = tuple([1] + [0] * (e - 1))
    base = a
    while n:
        if n & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        n >>= 1
    return result


class Field:
    """A fixed F_q: prime p, extension degree e, modulus, primitive element.

    Arithmetic methods (add, sub, mul, inv, pow, ...) operate on integer
    encodings.  Use element() / FieldElement for an operator-overloaded
    wrapper.  Instances are immutable after construction and safe to share.
    """

    __slots__ = ("p", "e", "q", "modulus", "primitive",
                 "_exp", "_log", "_zech", "_neg")

    def __init__(self, p: int, e: int, modulus, primitive=None):
        q = p ** e
        self.p, self.e, self.q = p, e, q
        self.modulus = tuple(int(c) % p for c in modulus[:-1]) + (1,)
        self.primitive = self._find_primitive() if primitive is None else primitive
        self._check_order_full(self.primitive)
        self._build_tables()
        self._neg = [self.mul(v, p - 1) for v in range(q)]  # p - 1 encodes -1

    # -- construction helpers ------------------------------------------------

    def encode(self, coeffs) -> int:
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.p + (c % self.p)
        return v

    def coeffs_of(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.q:
            raise ValueError(f"encoding {v} out of range for q={self.q}")
        digits = []
        for _ in range(self.e):
            v, d = divmod(v, self.p)
            digits.append(d)
        return tuple(digits)

    def lex_elements(self):
        """Encodings of all elements in constant-term-first lex order."""
        for tup in itertools.product(range(self.p), repeat=self.e):
            yield self.encode(tup)

    def _find_primitive(self) -> int:
        for v in self.lex_elements():
            if v and self._has_full_order(v):
                return v
        raise AssertionError("no primitive element found")  # unreachable

    def _check_order_full(self, v: int):
        if not 0 < v < self.q:
            raise ValueError(f"primitive element {v} out of range for q={self.q}")
        if not self._has_full_order(v):
            raise ValueError(f"element {v} does not have order {self.q - 1}")

    def _has_full_order(self, v: int) -> bool:
        """Whether the nonzero v has order q - 1: no v**((q - 1) / r) is 1
        for a prime r dividing q - 1."""
        cand = self.coeffs_of(v)
        return all(self.encode(_poly_powmod(cand, (self.q - 1) // r,
                                            self.modulus, self.p)) != 1
                   for r in _prime_factors(self.q - 1))

    def _build_tables(self):
        """exp[i] = g**i, stored twice over so that a sum of two logs needs
        no reduction; log is its inverse on the units.  For e > 1 also
        zech[i] = log(1 + g**i), with -1 where 1 + g**i == 0."""
        p, e = self.p, self.e
        g = self.coeffs_of(self.primitive)
        # Multiplying by g is F_p-linear on the digits: v * g sums d * x^j g
        # over the digits d of v.  The images are added as integers with one
        # w-bit slot per digit, wide enough that no slot carries, and each
        # slot is reduced mod p once.
        w = (e * (p - 1) ** 2).bit_length()
        mask = (1 << w) - 1
        images = []
        for j in range(e):
            img = _poly_mulmod(tuple(int(i == j) for i in range(e)), g,
                               self.modulus, p)
            images.append([sum(d * c << w * i for i, c in enumerate(img))
                           for d in range(p)])
        shifts = range(w * (e - 1), -1, -w)
        exp = [1]
        cur = 1
        for _ in range(self.q - 2):
            acc = 0
            for image in images:
                cur, d = divmod(cur, p)
                acc += image[d]
            for s in shifts:  # cur is 0 here: rebuild it, top digit first
                cur = cur * p + (acc >> s & mask) % p
            exp.append(cur)
        if len(set(exp)) != self.q - 1:
            raise AssertionError("exponent table does not cover the unit group")
        log = [0] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        self._zech = None
        if self.e > 1:
            # adding 1 raises only the constant (least significant) digit
            self._zech = [log[w] if w else -1
                          for w in (v - v % p + (v + 1) % p for v in exp)]
        self._exp, self._log = exp + exp, log

    # -- arithmetic on integer encodings --------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if a == 0:
            return b
        if b == 0:
            return a
        # g^i + g^j = g^i (1 + g^(j-i)); a negative j - i wraps like the exponent
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, n: int) -> int:
        """a**n; 0**0 == 1 by the empty-product convention."""
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def order_of(self, a: int) -> int:
        if a == 0:
            raise ValueError("the zero element has no multiplicative order")
        return (self.q - 1) // math.gcd(self.q - 1, self._log[a])

    # -- public wrappers -------------------------------------------------------

    def element(self, v) -> "FieldElement":
        if isinstance(v, FieldElement):
            if v.field != self:
                raise ValueError("element belongs to a different field")
            return v
        v = int(v)
        if not 0 <= v < self.q:
            raise ValueError(f"encoding {v} out of range for q={self.q}")
        return FieldElement(self, v)

    def elements(self):
        return (FieldElement(self, v) for v in range(self.q))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def describe(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"q={self.q} p={self.p} e={self.e} modulus=[{mod}] primitive={self.primitive}"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus, self.primitive)
                == (other.p, other.e, other.modulus, other.primitive))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus, self.primitive))

    def __repr__(self):
        return f"Field(q={self.q})"


class FieldElement:
    """Operator-overloaded element wrapper; mixing fields raises ValueError."""

    __slots__ = ("field", "val")

    def __init__(self, field: Field, val: int):
        self.field = field
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs_of(self.val)

    def _other(self, x) -> int:
        if not isinstance(x, FieldElement):
            raise TypeError("field elements only combine with field elements")
        if x.field != self.field:
            raise ValueError("elements of different fields cannot be combined")
        return x.val

    def __add__(self, x):
        return FieldElement(self.field, self.field.add(self.val, self._other(x)))

    def __sub__(self, x):
        return FieldElement(self.field, self.field.sub(self.val, self._other(x)))

    def __mul__(self, x):
        return FieldElement(self.field, self.field.mul(self.val, self._other(x)))

    def __truediv__(self, x):
        return FieldElement(self.field, self.field.mul(self.val, self.field.inv(self._other(x))))

    def __pow__(self, n: int):
        return FieldElement(self.field, self.field.pow(self.val, n))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.val))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.val))

    def __eq__(self, x):
        return (isinstance(x, FieldElement) and x.field == self.field
                and x.val == self.val)

    def __hash__(self):
        return hash((self.field, self.val))

    def __int__(self):
        return self.val

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"F{self.field.q}({self.val})"


@lru_cache(maxsize=None)
def _canonical_field(p: int, e: int) -> Field:
    return Field(p, e, _smallest_irreducible(p, e))


def make_field(p: int, e: int = 1, modulus=None, primitive=None) -> Field:
    """Construct F_(p**e).

    The modulus defaults to the canonical (lex-smallest monic irreducible)
    polynomial; a supplied modulus is a constant-term-first coefficient
    list of length e + 1 and must be monic and irreducible.  The primitive
    element defaults to the canonical one; a supplied override is an
    integer encoding and must have order q - 1.
    """
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    check_field_order(p ** e)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if modulus is None and primitive is None:
        return _canonical_field(p, e)
    if modulus is None:
        modulus = _smallest_irreducible(p, e)
    else:
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != e + 1:
            raise ValueError(f"modulus must have degree {e}")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
    return Field(p, e, tuple(modulus), primitive)


def field_of_order(q: int) -> Field:
    """Canonical field with exactly q elements; q must be a prime power."""
    check_field_order(q)
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    return make_field(*pp)


def element_order(x: FieldElement) -> int:
    """Least t >= 1 with x**t == 1; rejects the zero element."""
    return x.field.order_of(x.val)


def in_cyclic_subgroup(u: FieldElement, c: FieldElement) -> bool:
    """Whether c lies in the cyclic group generated by u (i.e. c**ord(u) == 1)."""
    if u.field != c.field:
        raise ValueError("elements of different fields cannot be compared")
    if u.val == 0 or c.val == 0:
        raise ValueError("subgroup membership is defined for nonzero elements")
    d = u.field.order_of(u.val)
    return u.field.pow(c.val, d) == 1
