"""Exact homogeneous symmetric functions in the elementary and power-sum bases.

Expansions are sparse maps from packed partition keys (``partitions.pack``)
to arbitrary-precision signed integers; zero coefficients are never stored
and every key partitions the declared degree.  A product of two basis
elements is the sum of their keys, so every product accumulates in place
into one dict through ``add_product``.  ``Partition`` objects appear only at
the API: the public constructor, ``items``, ``coefficient``,
``first_negative`` and the text and JSON forms.

The power-sum to elementary conversion stays integral, so any rational
would be a bug and is never representable here.  Each power-sum monomial's
e-row is built once per process, as a product of the Newton recurrence's
``p_in_e`` rows, and kept under its packed p-key; ``PExpansion.to_e`` adds
``coeff * row`` over the input's terms into one dict.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from functools import lru_cache
from math import comb

from espider.partitions import (FIELD_BITS, MAX_PACKED_WEIGHT, Partition, pack,
                                unpack)

# The packed terms of the empty product, 1 = e_() = p_().
UNIT = {0: 1}


def add_product(acc: dict[int, int], a: dict[int, int], b: dict[int, int],
                scale: int = 1) -> None:
    """acc += scale * a * b on packed terms, in place; cancelled keys stay
    behind with coefficient zero."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ka, ca in a.items():
        ca *= scale
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


class _Expansion:
    """Shared sparse-map core for the two bases."""

    __slots__ = ("degree", "terms")
    _basis = "?"

    def __init__(self, degree: int, terms: dict):
        """Terms keyed by Partition (or anything Partition accepts); each
        key's weight is checked against the degree."""
        packed = {}
        for key, coeff in terms.items():
            if not isinstance(key, Partition):
                key = Partition(key)
            if coeff == 0:
                continue
            if key.n != degree:
                raise ValueError(
                    f"key {key} has weight {key.n}, expansion degree is {degree}")
            packed[pack(key.parts)] = coeff
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", packed)

    @classmethod
    def from_packed(cls, degree: int, terms: dict[int, int]):
        """Wrap packed terms of weight ``degree``, deleting zero
        coefficients in place: the expansion takes ownership of the dict,
        which the caller must not use again.  The caller vouches for the
        weights, which are not re-checked."""
        for key in [k for k, c in terms.items() if not c]:
            del terms[key]
        obj = object.__new__(cls)
        object.__setattr__(obj, "degree", degree)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls.from_packed(0, {})

    @classmethod
    def single(cls, key, coeff: int = 1):
        key = Partition(key)
        return cls(key.n, {key: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterator[tuple[Partition, int]]:
        """Terms in reverse-lexicographic key order, (n) first."""
        for key in sorted(self.terms, reverse=True):
            yield Partition._raw(unpack(key)), self.terms[key]

    def coefficient(self, key) -> int:
        """Stored coefficient; zero when absent or of the wrong weight."""
        key = Partition(key)
        if key.n != self.degree:
            return 0
        return self.terms.get(pack(key.parts), 0)

    def __eq__(self, other):
        if not isinstance(other, _Expansion):
            return NotImplemented
        if self._basis != other._basis:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self._basis, self.degree, frozenset(self.terms.items())))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        # Across bases there is no sum: NotImplemented makes it a TypeError.
        if type(other) is not type(self):
            return NotImplemented
        if other.is_zero():
            return self
        if self.degree != other.degree and not self.is_zero():
            raise ValueError(
                f"degree mismatch: {self.degree} + {other.degree}")
        terms = dict(self.terms)
        get = terms.get
        for key, coeff in other.terms.items():
            terms[key] = get(key, 0) + sign * coeff
        return self.from_packed(other.degree, terms)

    def __mul__(self, other):
        # e_lam * e_mu = e_{lam union mu}, and likewise for p: keys add.
        if type(other) is not type(self):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.zero()
        degree = self.degree + other.degree
        if degree > MAX_PACKED_WEIGHT:
            raise ValueError(f"product degree {degree} exceeds the packed-key "
                             f"cap {MAX_PACKED_WEIGHT}")
        terms: dict[int, int] = {}
        add_product(terms, self.terms, other.terms)
        return self.from_packed(degree, terms)

    def __repr__(self):
        if self.is_zero():
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"{c}*{self._basis}{k}" for k, c in self.items())
        return f"{type(self).__name__}({body})"


class EExpansion(_Expansion):
    """A symmetric function written in the elementary basis."""

    __slots__ = ()
    _basis = "e"

    def first_negative(self) -> tuple[Partition, int] | None:
        """Reverse-lexicographically first negative term, or None."""
        key = max((k for k, c in self.terms.items() if c < 0), default=None)
        if key is None:
            return None
        return Partition._raw(unpack(key)), self.terms[key]

    def is_e_positive(self) -> bool:
        """True when every stored coefficient is nonnegative."""
        return all(c >= 0 for c in self.terms.values())

    def evaluate_chromatic(self, k: int) -> int:
        """Specialize x_1=...=x_k=1, rest 0: e_j -> C(k, j).

        For the expansion of a chromatic symmetric function this counts the
        proper colorings with k colors.
        """
        total = 0
        for key, coeff in self.terms.items():
            prod = coeff
            for part in unpack(key):
                prod *= comb(k, part)
            total += prod
        return total

    def to_text(self) -> str:
        """One `<coeff> * e[<parts>]` line per term, reverse-lex by key."""
        return "\n".join(f"{c} * e{k}" for k, c in self.items())

    def to_json_obj(self) -> list[dict]:
        """Array of {"partition": [...], "coeff": "<decimal string>"}."""
        return [{"partition": list(k.parts), "coeff": str(c)}
                for k, c in self.items()]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


class PExpansion(_Expansion):
    """A symmetric function written in the power-sum basis."""

    __slots__ = ()
    _basis = "p"

    def to_e(self) -> EExpansion:
        """Exact elementary-basis expansion of the same function."""
        # The rows still missing.  One that is a row kept from an earlier
        # conversion times one or two power sums costs that many products.
        # The others are built by one depth-first walk over their parts in
        # sorted order: a prefix product lives only while the walk is below
        # it, so the rows' shared prefixes are not kept, and a prefix that
        # is a kept row is read, not multiplied.
        path = [((), EExpansion.single(()), 0)]
        for parts, key in sorted((unpack(key), key) for key in self.terms
                                 if key not in _E_ROWS):
            product, extra = _kept_base(parts, key)
            if product is not None:
                for part in extra:
                    product = product * p_in_e(part)
            else:
                while parts[:len(path[-1][0])] != path[-1][0]:
                    path.pop()
                prefix, product, at = path[-1]
                for i in range(len(prefix), len(parts)):
                    at += 1 << FIELD_BITS * (parts[i] - 1)  # pack(parts[:i+1])
                    row = _E_ROWS.get(at)
                    product = (product * p_in_e(parts[i]) if row is None
                               else row)
                    path.append((parts[:i + 1], product, at))
            _E_ROWS[key] = product
        acc: dict[int, int] = {}
        get = acc.get
        for key, coeff in self.terms.items():
            for k, c in _E_ROWS[key].terms.items():
                acc[k] = get(k, 0) + coeff * c
        return EExpansion.from_packed(self.degree, acc)


# The e-row of each power-sum monomial met so far, keyed by its packed
# p-key.  Only the rows are kept, not the prefix products that built them:
# on the 25-vertex M_11 those took more memory than the rows themselves.
_E_ROWS: dict[int, EExpansion] = {}


def _kept_base(parts: tuple[int, ...], key: int):
    """A kept row that the monomial ``parts`` (packed ``key``) extends by
    one power sum, or else by two, with those parts; or (None, ())."""
    distinct = sorted(set(parts))
    pairs = [(p, q) for i, p in enumerate(distinct) for q in distinct[i:]
             if p != q or parts.count(p) > 1]
    for extra in [(p,) for p in distinct] + pairs:
        row = _E_ROWS.get(key - sum(1 << FIELD_BITS * (p - 1) for p in extra))
        if row is not None:
            return row, extra
    return None, ()


@lru_cache(maxsize=None)
def p_in_e(k: int) -> EExpansion:
    """The power sum p_k in the elementary basis (Newton recurrence).

    p_k = (-1)^(k-1) k e_k + sum_{i=1}^{k-1} (-1)^(i-1) e_i p_{k-i},
    all coefficients integral.  Cached per k: every monomial row that
    ``to_e`` reads is a product of these.
    """
    if k < 1:
        raise ValueError(f"p_k needs k >= 1, got {k}")
    acc = {pack((k,)): (-1) ** (k - 1) * k}
    for i in range(1, k):
        add_product(acc, {pack((i,)): 1}, p_in_e(k - i).terms, (-1) ** (i - 1))
    return EExpansion.from_packed(k, acc)


@lru_cache(maxsize=None)
def p_monomial_in_e(parts: tuple[int, ...]) -> EExpansion:
    """The product p_{parts[0]} p_{parts[1]} ... in the elementary basis,
    built by ``PExpansion.to_e`` like every other row."""
    return PExpansion.single(parts).to_e()
