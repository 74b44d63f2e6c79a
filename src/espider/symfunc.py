"""Exact homogeneous symmetric functions in the elementary and power-sum bases.

Expansions are sparse maps Partition -> arbitrary-precision signed integer;
zero coefficients are never stored and every key partitions the declared
degree.  The power-sum to elementary conversion runs through the Newton
recurrence and stays integral, so any rational would be a bug and is never
representable here.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb
from typing import Iterator

from espider.partitions import Partition


class _Expansion:
    """Shared sparse-map core for the two bases."""

    __slots__ = ("degree", "terms")
    _basis = "?"

    def __init__(self, degree: int, terms: dict[Partition, int]):
        clean = {}
        for key, coeff in terms.items():
            if not isinstance(key, Partition):
                key = Partition(key)
            if coeff == 0:
                continue
            if key.n != degree:
                raise ValueError(
                    f"key {key} has weight {key.n}, expansion degree is {degree}")
            clean[key] = coeff
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls(0, {})

    @classmethod
    def single(cls, key, coeff: int = 1):
        if not isinstance(key, Partition):
            key = Partition(key)
        return cls(key.n, {key: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterator[tuple[Partition, int]]:
        """Terms in reverse-lexicographic key order, (n) first."""
        for key in sorted(self.terms, reverse=True):
            yield key, self.terms[key]

    def coefficient(self, key) -> int:
        """Stored coefficient; zero when absent or of the wrong weight."""
        if not isinstance(key, Partition):
            key = Partition(key)
        return self.terms.get(key, 0)

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
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} + {other.degree}")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            c = terms.get(key, 0) + coeff
            if c:
                terms[key] = c
            else:
                terms.pop(key, None)
        return type(self)(self.degree, terms)

    def __neg__(self):
        return type(self)(self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        if c == 0:
            return type(self).zero()
        return type(self)(self.degree, {k: c * v for k, v in self.terms.items()})

    def __repr__(self):
        if self.is_zero():
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"{c}*{self._basis}{k}" for k, c in self.items())
        return f"{type(self).__name__}({body})"


class EExpansion(_Expansion):
    """A symmetric function written in the elementary basis."""

    __slots__ = ()
    _basis = "e"

    def __mul__(self, other: "EExpansion") -> "EExpansion":
        # e_lam * e_mu = e_{lam union mu}: keys merge as multisets.
        if self.is_zero() or other.is_zero():
            return EExpansion.zero()
        terms: dict[Partition, int] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = Partition(ka.parts + kb.parts)
                c = terms.get(key, 0) + ca * cb
                if c:
                    terms[key] = c
                else:
                    terms.pop(key, None)
        return EExpansion(self.degree + other.degree, terms)

    def first_negative(self) -> tuple[Partition, int] | None:
        """Reverse-lexicographically first negative term, or None."""
        for key, coeff in self.items():
            if coeff < 0:
                return key, coeff
        return None

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
            for part in key:
                prod *= comb(k, part)
            total += prod
        return total

    def to_text(self) -> str:
        """One `<coeff> * e[<parts>]` line per term, reverse-lex by key."""
        return "\n".join(f"{c} * e{k}" for k, c in self.items())

    @classmethod
    def from_text(cls, text: str) -> "EExpansion":
        terms: dict[Partition, int] = {}
        degree = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            coeff_s, _, key_s = line.partition("*")
            key = Partition.parse(key_s.strip()[1:])  # strip leading 'e'
            coeff = int(coeff_s.strip())
            if key in terms:
                raise ValueError(f"duplicate key {key} in expansion text")
            terms[key] = coeff
            degree = key.n
        return cls(degree, terms)

    def to_json_obj(self) -> list[dict]:
        """Array of {"partition": [...], "coeff": "<decimal string>"}."""
        return [{"partition": list(k.parts), "coeff": str(c)}
                for k, c in self.items()]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: list[dict], degree: int | None = None) -> "EExpansion":
        terms = {Partition(rec["partition"]): int(rec["coeff"]) for rec in obj}
        if degree is None:
            degree = next(iter(terms)).n if terms else 0
        return cls(degree, terms)


class PExpansion(_Expansion):
    """A symmetric function written in the power-sum basis."""

    __slots__ = ()
    _basis = "p"

    def __mul__(self, other: "PExpansion") -> "PExpansion":
        if self.is_zero() or other.is_zero():
            return PExpansion.zero()
        terms: dict[Partition, int] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = Partition(ka.parts + kb.parts)
                c = terms.get(key, 0) + ca * cb
                if c:
                    terms[key] = c
                else:
                    terms.pop(key, None)
        return PExpansion(self.degree + other.degree, terms)

    def to_e(self) -> EExpansion:
        """Exact elementary-basis expansion of the same function."""
        total = EExpansion.zero()
        for key, coeff in self.terms.items():
            total = total + p_monomial_in_e(key.parts).scale(coeff)
        return total


@lru_cache(maxsize=None)
def p_in_e(k: int) -> EExpansion:
    """The power sum p_k in the elementary basis (Newton recurrence).

    p_k = (-1)^(k-1) k e_k + sum_{i=1}^{k-1} (-1)^(i-1) e_i p_{k-i},
    all coefficients integral.  Cached per k: this is the hot path of the
    edge-subset oracle.
    """
    if k < 1:
        raise ValueError(f"p_k needs k >= 1, got {k}")
    if k == 1:
        return EExpansion.single((1,))
    total = EExpansion.single((k,), (-1) ** (k - 1) * k)
    for i in range(1, k):
        term = EExpansion.single((i,)) * p_in_e(k - i)
        total = total + term.scale((-1) ** (i - 1))
    return total


@lru_cache(maxsize=None)
def p_monomial_in_e(parts: tuple[int, ...]) -> EExpansion:
    """The product p_{parts[0]} p_{parts[1]} ... in the elementary basis."""
    if not parts:
        return EExpansion.single(())
    if len(parts) == 1:
        return p_in_e(parts[0])
    return p_monomial_in_e(parts[:-1]) * p_in_e(parts[-1])

