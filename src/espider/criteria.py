"""Non-e-positivity tests for spiders and trees.

Every criterion is one-sided: a trigger proves the chromatic symmetric
function is not e-positive and carries a witness: a connected-partition
type that is missing, or a negative coefficient with its value, either of
which a check can re-test on the graph.  The one exception is the six-leg
rule's fallback, which states its theorem as text.  Criteria never decide
e-positivity; silence means "unknown" until an exact expansion is
computed.  The battery runs only criteria that can decide a verdict: the
paper's analytic growth bounds and six leg-shape conditions fire only where
the block-size or residue-sum test already does (see ``espider.acceptance``).
"""

from __future__ import annotations

from functools import lru_cache

from espider.csf import (DEFAULT_TREE_ORACLE_BOUND, coeff_four_leg,
                         coeff_three_two, three_two_key, tree_csf)
from espider.graphs import Spider, Tree, spider_mod_type_info
from espider.partitions import Partition
from espider.symfunc import EExpansion


class CriterionSoundnessError(RuntimeError):
    """A criterion produced a witness its own re-check contradicts."""


class _Record:
    """Equality and repr over the fields a subclass lists in ``_fields``,
    as ``@dataclass`` would generate them, without importing it."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


# The line a witness built without text renders when its text is first
# read: a csv row reads one witness's text, json and journals read them all.
_WITNESS_TEXT = {
    "missing_type": "missing connected partition of type {}",
    "negative_coefficient": "coefficient at {} is {}",
}


class Witness(_Record):
    """What a triggered criterion found: ``kind`` is "missing_type",
    "negative_coefficient" or, for the six-leg rule's "statement" fallback
    only, "inequality".  Immutable.  ``text`` defaults to the kind's
    standard line, rendered from the partition (and value) on first read;
    only the inequality witness passes its own."""

    __slots__ = ("kind", "partition", "value", "_text")
    _fields = ("kind", "partition", "value", "text")

    def __init__(self, kind: str, partition: Partition | None = None,
                 value: int | None = None, text: str | None = None):
        setattr_ = object.__setattr__
        setattr_(self, "kind", kind)
        setattr_(self, "partition", partition)
        setattr_(self, "value", value)
        setattr_(self, "_text", text)

    @property
    def text(self) -> str:
        if self._text is None:
            object.__setattr__(self, "_text", _WITNESS_TEXT[self.kind].format(
                self.partition.exponential_str(), self.value))
        return self._text

    def __setattr__(self, name, value):
        raise AttributeError("Witness is immutable")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not __setattr__
        return Witness, self._values()

    def to_json_obj(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.partition is not None:
            out["partition"] = list(self.partition.parts)
        if self.value is not None:
            out["value"] = str(self.value)
        if self.text:
            out["text"] = self.text
        return out


class CriterionReport(_Record):
    __slots__ = _fields = ("name", "triggered", "witness", "params")

    def __init__(self, name: str, triggered: bool,
                 witness: Witness | None = None, params: dict | None = None):
        if triggered and witness is None:
            raise CriterionSoundnessError(f"{name} triggered without a witness")
        self.name = name
        self.triggered = triggered
        self.witness = witness
        self.params = {} if params is None else params

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "triggered": self.triggered,
            "witness": self.witness.to_json_obj() if self.witness else None,
            "params": dict(self.params),
        }


def mod_test(s: Spider, m: int) -> CriterionReport:
    """Residue-sum test at one modulus.

    With n = mq + r and sigma = 1 + (sum of leg residues mod m), the type
    (m^q, r) is present iff sigma == r, or sigma == m + r with some leg
    residue >= r; any other outcome proves the type missing.
    """
    info = spider_mod_type_info(s, m)
    params = {"m": m, "q": info.q, "r": info.r, "sigma": info.sigma}
    if info.has_type:
        return CriterionReport("mod", False, params=params)
    witness = Witness("missing_type", info.type_partition)
    return CriterionReport("mod", True, witness, params)


def mod_test_scan(s: Spider) -> CriterionReport:
    """Residue-sum test over every modulus 2..n; first firing m reported."""
    for m in range(2, s.n + 1):
        rep = mod_test(s, m)
        if rep.triggered:
            return rep
    return CriterionReport("mod", False, params={"scanned_m": f"2..{s.n}"})


def qm_test(s: Spider, i: int | None = None, m: int | None = None) -> CriterionReport:
    """Block-size test: long inner legs force nearly equal block sizes the
    tail legs cannot absorb.

    For an inner leg index i (1-indexed, 2 <= i < d) and a block multiplier
    m >= 1: with a = ceil((leg_i + 1)/m), n = qa + r, r = q d' + r' and
    t = tail sum after leg i, the type (a+d'+1)^{r'} (a+d')^{q-r'} is missing
    whenever q (t - 2m + 1) > m (a - 1), t > 2m - 1 and a > leg_{i+1}.

    With no arguments every (i, m) is scanned (m up to ceil(t/2)); passing
    i and m evaluates exactly that instantiation.  An i outside 2..d-1 or
    an m below 1 raises ValueError.
    """
    d, n = s.d, s.n
    legs = s.legs.parts
    tails = [0] * (d + 1)  # the tail after leg i (1-indexed) is tails[i]
    for k in range(d - 1, -1, -1):
        tails[k] = tails[k + 1] + legs[k]

    def m_top(i):
        return max(1, -(-tails[i] // 2))

    if m is not None and m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if i is not None:
        if not 2 <= i <= d - 1:
            raise ValueError(f"i must be in 2..{d - 1}, got {i}")
        pairs = [(i, m2) for m2 in ([m] if m else range(1, m_top(i) + 1))]
    elif m is not None:
        pairs = [(i2, m) for i2 in range(2, d)]
    else:
        pairs = ((i2, m2) for i2 in range(2, d)
                 for m2 in range(1, m_top(i2) + 1))

    for ii, mm in pairs:
        li = legs[ii - 1]
        lnext = legs[ii]
        t = tails[ii]
        span = t - 2 * mm + 1
        if span <= 0:
            continue
        a = -(-(li + 1) // mm)
        if a <= lnext:
            continue
        q, r = divmod(n, a)
        if q * span > mm * (a - 1):
            dp, rp = divmod(r, q)
            # already descending, every part >= a >= 1
            typ = Partition._raw((a + dp + 1,) * rp + (a + dp,) * (q - rp))
            return CriterionReport(
                "qm", True, Witness("missing_type", typ),
                {"i": ii, "m": mm, "a": a, "t": t, "q": q, "r": r,
                 "dprime": dp, "rprime": rp})
    return CriterionReport("qm", False,
                           params=({} if i is None and m is None
                                   else {"i": i, "m": m}))


def six_leg(s: Spider) -> CriterionReport:
    """Spiders with six or more legs always lack some connected-partition
    type.  The witness is located constructively: the block-size test at
    the instantiation the theory singles out, then the full block-size
    scan.  Should both stay silent, the theorem itself is the witness, as
    inequality text.  The residue test is not rerun here: the battery has
    already reported it."""
    if s.d < 6:
        return CriterionReport("six_leg", False)
    legs = s.legs.parts

    m0 = (legs[1] + 1) // (legs[2] + 1)
    if m0 >= 1:
        rep = qm_test(s, i=2, m=m0)
        if rep.triggered:
            return CriterionReport("six_leg", True, rep.witness,
                                   {**rep.params, "witness_path": "qm_fixed"})
    rep = qm_test(s)
    if rep.triggered:
        return CriterionReport("six_leg", True, rep.witness,
                               {**rep.params, "witness_path": "qm_scan"})
    # No block-size witness; state the bare fact.
    return CriterionReport(
        "six_leg", True,
        Witness("inequality", text=f"d = {s.d} >= 6"),
        {"witness_path": "statement"})


def four_leg_q(s: Spider) -> CriterionReport:
    """Four-leg test at m = sum of the two short legs, n = mq + m + r:
    q >= m forces either a missing block type or a negative coefficient at
    (m+r, m^q)."""
    if s.d != 4:
        return CriterionReport("four_leg_q", False)
    legs = s.legs.parts
    m = legs[2] + legs[3]
    q, r = divmod(s.n - m, m)
    params = {"m": m, "q": q, "r": r}
    if q < m:
        return CriterionReport("four_leg_q", False, params=params)
    rep = mod_test(s, m)
    if rep.triggered:
        return CriterionReport("four_leg_q", True, rep.witness, params)
    # the type (m^(q+1), r) is present, so r > 0, and q >= m >= 2
    key, value = coeff_four_leg(s)
    if value >= 0:
        raise CriterionSoundnessError(
            f"four_leg_q on {s}: q={q} >= m={m} but coefficient at {key} "
            f"evaluates to {value} >= 0")
    return CriterionReport(
        "four_leg_q", True,
        Witness("negative_coefficient", key, value),
        params)


def two_odd_legs(s: Spider) -> CriterionReport:
    """Spiders with at least four legs, exactly two of odd length, and an
    even longest leg: the coefficient at (3, 2^((n-3)/2)) is evaluated in
    closed form and triggers when negative.  The sign is re-checked rather
    than assumed, so leg patterns where the value is nonnegative simply do
    not trigger here."""
    legs = s.legs.parts
    odd = sum(1 for l in legs if l % 2)
    if s.d < 4 or odd != 2 or legs[0] % 2:
        return CriterionReport("two_odd_legs", False)
    value = coeff_three_two(s)
    key = three_two_key(s.n)
    params = {"value": value}
    if value >= 0:
        return CriterionReport("two_odd_legs", False, params=params)
    return CriterionReport(
        "two_odd_legs", True,
        Witness("negative_coefficient", key, value),
        params)


class BatteryResult(_Record):
    __slots__ = _fields = ("graph", "reports", "e_positive", "expansion",
                           "negative_term")

    def __init__(self, graph: str, reports: list[CriterionReport],
                 e_positive: bool | None,
                 expansion: EExpansion | None = None,
                 negative_term: tuple[Partition, int] | None = None):
        self.graph = graph
        self.reports = reports
        # None = unknown (criteria silent, no expansion)
        self.e_positive = e_positive
        self.expansion = expansion
        self.negative_term = negative_term

    @property
    def any_triggered(self) -> bool:
        return any(r.triggered for r in self.reports)

    def first_trigger(self) -> CriterionReport | None:
        for r in self.reports:
            if r.triggered:
                return r
        return None

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph,
            "criteria": [r.to_json_obj() for r in self.reports],
            "e_positive": ("unknown" if self.e_positive is None
                           else self.e_positive),
        }


MODES = ("criteria_only", "with_expansion", "criteria_then_expansion")


def run_battery(g: Spider | Tree, mode: str = "criteria_only",
                max_n: int | None = None) -> BatteryResult:
    """Run the criterion battery on one spider or tree.

    A spider gets every criterion; a tree gets ``tree_battery``, whose
    missing types carry over from the spiders it reduces to.  Modes:
    ``criteria_only`` never expands (verdict None unless a criterion
    fires); ``with_expansion`` always expands (within the size bound) and
    re-verifies every witness against the graph and the exact expansion;
    ``criteria_then_expansion`` expands only when no criterion fired.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(g, Tree):
        reports = tree_battery(g)
    else:
        reports = [mod_test_scan(g), qm_test(g), six_leg(g), four_leg_q(g),
                   two_odd_legs(g)]
    result = BatteryResult(str(g), reports,
                           False if any(r.triggered for r in reports) else None)
    if mode == "criteria_only":
        return result
    if mode == "criteria_then_expansion" and result.any_triggered:
        return result

    bound = max_n if max_n is not None else DEFAULT_TREE_ORACLE_BOUND
    expansion = tree_csf(g, max_n=bound)
    negative = expansion.first_negative()
    result.expansion = expansion
    result.negative_term = negative
    result.e_positive = negative is None
    _verify_witnesses(g, reports, expansion)
    if result.any_triggered and negative is None:
        raise CriterionSoundnessError(
            f"criteria fired on {g} but the expansion is e-positive")
    return result


def _verify_witnesses(g: Spider | Tree, reports, expansion: EExpansion):
    absent = set()  # missing types already re-checked on g
    for rep in reports:
        if not (rep.triggered and rep.witness):
            continue
        w = rep.witness
        if w.kind == "missing_type":
            if w.partition in absent:
                continue
            if g.has_connected_partition(w.partition):
                raise CriterionSoundnessError(
                    f"{rep.name} on {g}: witness type {w.partition} is present")
            absent.add(w.partition)
        elif w.kind == "negative_coefficient":
            got = expansion.coefficient(w.partition)
            if got != w.value:
                raise CriterionSoundnessError(
                    f"{rep.name} on {g}: coefficient at {w.partition} is "
                    f"{got}, witness claims {w.value}")


def tree_battery(t: Tree) -> list[CriterionReport]:
    """Reduce at every vertex of degree >= 3 and run the missing-partition
    criteria on the reduced spider.  A missing type there is missing in the
    tree as well, so any trigger proves the tree not e-positive.
    Coefficient-based criteria do not transfer and are not run.  Each
    report is a fresh copy stamped with its vertex and spider."""
    reports: list[CriterionReport] = []
    for v, legs in t.reductions():
        spider, shared = _spider_reports(legs)
        stamp = {"vertex": v, "spider": spider}
        reports += [CriterionReport(rep.name, rep.triggered, rep.witness,
                                    {**rep.params, **stamp})
                    for rep in shared]
    return reports


@lru_cache(maxsize=4096)  # trees up to MAX_TREE_N reduce to 1,122 spiders
def _spider_reports(legs: tuple[int, ...]) -> tuple[
        str, tuple[CriterionReport, ...]]:
    """The spider with these legs (longest first), as text, and the
    missing-partition criteria on it, shared by every tree that reduces to
    it: copy a report, never mutate one."""
    sp = Spider(legs)
    return str(sp), (mod_test_scan(sp), qm_test(sp), six_leg(sp))
