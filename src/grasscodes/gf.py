"""Exact arithmetic in finite fields GF(q), q = p^e.

Elements are plain ints in [0, q).  The int encodes the polynomial
``sum c_i x^i`` over GF(p) as ``sum c_i p^i``, so for prime fields the
encoding is the residue itself and for GF(2^e) it is the usual bit
pattern.  The encoding is bijective and stable across runs: extension
fields always use the same built-in irreducible polynomial (the one
whose non-leading coefficient vector, read as a base-p integer, is
smallest).

For q <= 4096 multiplication and inversion run off discrete log/exp
tables built at construction; above that they fall back to on-the-fly
polynomial arithmetic.  Addition is digit-wise mod p: the int sum when
e = 1, XOR when p = 2, and otherwise, for q <= 4096, one lookup of the
sum of the elements' base-p digits spread into base 2p - 1 (no digit sum
carries), with negation a q-entry table; above that a digit loop.

A FieldCtx is immutable after construction and safe to share between
workers; all operations are pure.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FieldTooLargeError, NotPrimeError, ReducibleModulusError

MAX_ORDER = 1 << 20
TABLE_ORDER = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """Multiply coefficient vectors mod (modulus, p). modulus is monic."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^e = -(modulus[:-1])
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(e):
                prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
    prod = prod[:e]
    return prod + [0] * (e - len(prod))


def _poly_divmod(a: list[int], b: list[int], p: int):
    """Polynomial division over GF(p); b need not be monic."""
    a = list(a)
    db = len(b) - 1
    while db > 0 and b[db] == 0:
        db -= 1
    inv_lead = pow(b[db], p - 2, p) if p > 2 else b[db]
    q = [0] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f = (c * inv_lead) % p
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return q, a[:db] if db else [0]


def _is_irreducible(modulus: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= e/2."""
    e = len(modulus) - 1
    if e == 0 or modulus[e] != 1:
        return False
    for deg in range(1, e // 2 + 1):
        for enc in range(p**deg):
            div = _decode_poly(enc, p) + [0] * deg
            div = div[:deg] + [1]
            _, rem = _poly_divmod(list(modulus), div, p)
            if all(c == 0 for c in rem):
                return False
    return True


def _decode_poly(value: int, p: int) -> list[int]:
    digits = []
    while value:
        digits.append(value % p)
        value //= p
    return digits or [0]


def _encode_poly(coeffs: list[int], p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


@lru_cache(maxsize=None)
def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over GF(p), by base-p encoding
    of the non-leading coefficients."""
    for enc in range(p**e):
        coeffs = _decode_poly(enc, p)
        coeffs += [0] * (e - len(coeffs))
        cand = coeffs[:e] + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise ReducibleModulusError(f"no irreducible polynomial of degree {e} over GF({p})")


class FieldCtx:
    """Arithmetic context for GF(p^e).

    Parameters
    ----------
    p : prime characteristic.
    e : extension degree, >= 1.
    """

    __slots__ = (
        "p", "e", "q", "modulus", "_exp", "_log", "_inv", "_spread", "_dec", "_neg", "_np_tables"
    )

    def __init__(self, p: int, e: int = 1):
        # the cap comes first: no primality test or power of an oversized order
        if p >= 2 and (e >= MAX_ORDER.bit_length() or p**e > MAX_ORDER):
            raise FieldTooLargeError(f"GF({p}^{e}) exceeds cap 2^20")
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        q = p**e
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _default_modulus(p, e) if e > 1 else (0, 1)
        self._exp = None
        self._log = None
        self._inv = None
        self._spread = self._dec = self._neg = None
        self._np_tables = None
        if q <= TABLE_ORDER:
            self._build_tables()
            if p > 2 and e > 1:
                self._build_digit_sums()

    # -- construction helpers -------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        pa = _decode_poly(a, self.p)
        pb = _decode_poly(b, self.p)
        return _encode_poly(_poly_mul_mod(pa, pb, list(self.modulus), self.p), self.p)

    def _build_tables(self):
        q = self.q
        g = self._find_generator()
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        v = 1
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, g)
        for i in range(q - 1, 2 * (q - 1)):
            exp[i] = exp[i - (q - 1)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = exp[(q - 1) - log[a]] if log[a] else 1
        self._exp, self._log, self._inv = exp, log, inv

    def _build_digit_sums(self):
        """_spread[a]: a's base-p digits read in base b = 2p - 1, so two
        spreads add digit-wise with no carry; _dec[s]: the element whose
        digits are s's mod p (b^e entries); _neg[a]: -a.  Grown digit by digit."""
        p, b = self.p, 2 * self.p - 1
        elements = list(range(self.q))
        spread, dec, neg = [0], [0], [0]
        for i in range(self.e):
            pi, bi = p**i, b**i
            spread = [d * bi + s for d in range(p) for s in spread]
            dec = [elements[d % p * pi + x] for d in range(b) for x in dec]
            neg = [-d % p * pi + x for d in range(p) for x in neg]
        self._spread, self._dec, self._neg = spread, dec, neg

    def _find_generator(self) -> int:
        q = self.q
        n = q - 1
        factors = []
        m = n
        f = 2
        while f * f <= m:
            if m % f == 0:
                factors.append(f)
                while m % f == 0:
                    m //= f
            f += 1
        if m > 1:
            factors.append(m)
        for g in range(1, q):
            if all(self._pow_raw(g, n // f) != 1 for f in factors):
                return g
        raise AssertionError("no generator found")  # pragma: no cover

    def _pow_raw(self, a: int, m: int) -> int:
        r = 1
        while m:
            if m & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            m >>= 1
        return r

    # -- element arithmetic ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._dec is not None:
            return self._dec[self._spread[a] + self._spread[b]]
        r, mult = 0, 1
        while a or b:
            r += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return r

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        if self._neg is not None:
            return self._neg[a]
        r, mult = 0, 1
        while a:
            r += ((self.p - a % self.p) % self.p) * mult
            a //= self.p
            mult *= self.p
        return r

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inv is not None:
            return self._inv[a]
        return self._pow_raw(a, self.q - 2)

    def pow(self, a: int, m: int) -> int:
        if m < 0:
            return self.pow(self.inv(a), -m)
        if m == 0:
            return 1
        if a == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] * m) % (self.q - 1)]
        return self._pow_raw(a, m)

    # -- iteration --------------------------------------------------------

    def primitive(self) -> int:
        """A generator of the multiplicative group: its powers are all the
        nonzero elements."""
        return self._exp[1] if self._exp is not None else self._find_generator()

    def elements(self) -> range:
        return range(self.q)

    def all_nonzero(self) -> range:
        """Nonzero elements, ascending by encoding."""
        return range(1, self.q)

    # -- numpy tables for the bulk engine ---------------------------------

    def np_tables(self):
        """(add, sub, mul, inv, neg) uint8 lookup tables; requires q <= 256."""
        if self._np_tables is None:
            import numpy as np

            if self.q > 256:
                raise FieldTooLargeError("numpy tables limited to q <= 256")
            q = self.q
            add = np.zeros((q, q), dtype=np.uint8)
            mul = np.zeros((q, q), dtype=np.uint8)
            for a in range(q):
                for b in range(q):
                    add[a, b] = self.add(a, b)
                    mul[a, b] = self.mul(a, b)
            neg = np.array([self.neg(a) for a in range(q)], dtype=np.uint8)
            sub = add[:, neg]
            inv = np.array([0] + [self.inv(a) for a in range(1, q)], dtype=np.uint8)
            self._np_tables = (add, sub, mul, inv, neg)
        return self._np_tables

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.q}=={self.p}^{self.e})"


@lru_cache(maxsize=None)
def field_new(p: int, e: int = 1) -> FieldCtx:
    """Build (and cache) a field context; same (p, e) yields the same object."""
    return FieldCtx(p, e)


@lru_cache(maxsize=None)
def field_of_order(q: int) -> FieldCtx:
    """Canonical field of order q (prime power), deterministic modulus."""
    if q < 2:
        raise NotPrimeError(f"{q} is not a prime power")
    if q > MAX_ORDER:
        raise FieldTooLargeError(f"GF({q}) exceeds cap 2^20")
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise NotPrimeError(f"{q} is not a prime power")
            return field_new(p, e)
        p += 1
    return field_new(q, 1)
