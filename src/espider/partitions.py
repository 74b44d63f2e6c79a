"""Integer partitions: canonical value objects, streams, the packed-key
codec, and small helpers.

A partition is stored weakly decreasing with every part >= 1; construction is
the single normalization point, so everything downstream (leg lists,
connected-partition types) may assume sortedness.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from math import factorial


class Partition:
    """A partition of a nonnegative integer, parts stored weakly decreasing."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(sorted(parts, reverse=True))
        for p in ps:
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        object.__setattr__(self, "parts", ps)

    @classmethod
    def _raw(cls, parts: tuple[int, ...]) -> "Partition":
        # Internal fast path: parts already sorted and validated.
        obj = object.__new__(cls)
        object.__setattr__(obj, "parts", parts)
        return obj

    @property
    def n(self) -> int:
        """Weight: the integer this object partitions."""
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not __setattr__
        return Partition, (self.parts,)

    def exponential_form(self) -> list[tuple[int, int]]:
        """Regroup as (part value, multiplicity) pairs, values decreasing."""
        out: list[tuple[int, int]] = []
        for p in self.parts:
            if out and out[-1][0] == p:
                out[-1] = (p, out[-1][1] + 1)
            else:
                out.append((p, 1))
        return out

    def exponential_str(self) -> str:
        """Render like ``3^2 2 1^4`` (empty partition renders as '')."""
        bits = []
        for value, mult in self.exponential_form():
            bits.append(f"{value}^{mult}" if mult > 1 else f"{value}")
        return " ".join(bits)

    def residue_vector(self, m: int) -> tuple[int, ...]:
        """Entrywise residues of the parts modulo m (m > 1 required)."""
        if m <= 1:
            raise ValueError(f"modulus must exceed 1, got {m}")
        return tuple(p % m for p in self.parts)

    def combine_parts(self, i: int, j: int) -> "Partition":
        """Replace parts i and j by their sum; result re-sorted."""
        if i == j:
            raise IndexError("combine_parts needs two distinct indices")
        a, b = self.parts[i], self.parts[j]  # IndexError propagates
        rest = [p for k, p in enumerate(self.parts) if k not in (i, j)]
        return Partition(rest + [a + b])

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse either bracket form ``[4,3,3]`` or exponential ``3^2 2 1^4``."""
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            inner = text[1:-1].strip()
            if not inner:
                return cls()
            try:
                parts = [int(tok) for tok in inner.split(",")]
            except ValueError:
                raise ValueError(f"cannot parse partition {text!r}: parts are "
                                 "comma-separated integers") from None
            return cls(parts)
        if text == "":
            return cls()
        parts: list[int] = []
        for tok in text.split():
            m = re.fullmatch(r"(\d+)(?:\^(0*[1-9]\d*))?", tok)
            if not m:
                raise ValueError(f"cannot parse partition token {tok!r}")
            value = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) else 1
            parts.extend([value] * mult)
        return cls(parts)


def partitions_of(n: int, length: int | None = None) -> Iterator[Partition]:
    """Yield every partition of n exactly once, reverse-lexicographically.

    The stream starts at (n) and ends at (1^n); n = 0 yields the empty
    partition once.  ``length`` restricts to exactly that many parts and
    preserves the order.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for parts in _gen_parts(n, n, length):
        yield Partition._raw(parts)


def _gen_parts(n, cap, length):
    if n == 0:
        if length in (None, 0):
            yield ()
        return
    if n < 0 or length == 0 or cap <= 0:
        return
    if length is None:
        lo = 1
        hi = min(cap, n)
    else:
        # Each of the remaining `length` parts is >= 1 and <= first.
        lo = -(-n // length)
        hi = min(cap, n - (length - 1))
    for first in range(hi, lo - 1, -1):
        sub = None if length is None else length - 1
        for rest in _gen_parts(n - first, first, sub):
            yield (first,) + rest


# Expansions and the subset census key their terms by a packed partition:
# the count of part s sits in the FIELD_BITS-bit field at bit
# FIELD_BITS * (s - 1).  Merging two partitions as multisets is then adding
# their keys, and integer order on keys is the tuple order of the weakly
# decreasing parts, so descending keys run reverse-lexicographically, (n)
# first.  A weight of at most MAX_PACKED_WEIGHT keeps every count inside its
# field; heavier partitions are refused, never let a field carry.
FIELD_BITS = 8
MAX_PACKED_WEIGHT = (1 << FIELD_BITS) - 1


def pack(parts: Iterable[int]) -> int:
    """The packed key of a partition given by its (positive) parts."""
    key = weight = 0
    for p in parts:
        key += 1 << FIELD_BITS * (p - 1)
        weight += p
    if weight > MAX_PACKED_WEIGHT:
        raise ValueError(f"partition weight {weight} exceeds the packed-key "
                         f"cap {MAX_PACKED_WEIGHT}")
    return key


def unpack(key: int) -> tuple[int, ...]:
    """The weakly decreasing parts of a packed key."""
    parts: list[int] = []
    s = 1
    while key:
        parts.extend([s] * (key & MAX_PACKED_WEIGHT))  # the field's count
        key >>= FIELD_BITS
        s += 1
    parts.reverse()
    return tuple(parts)


def multinomial(counts: Iterable[int]) -> int:
    """(sum counts)! / prod(counts_i!), exactly."""
    cs = list(counts)
    total = sum(cs)
    out = factorial(total)
    for c in cs:
        out //= factorial(c)
    return out
