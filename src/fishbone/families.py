"""Five infinite posets with decidable comparison, windowed to finite posets.

Each family is a poset on a countable ground set of coordinate tuples:

* ``P1``: {bot, top, a} plus pairs (n, i) with n a natural and i in {0,1}.
  bot/top are global extremes; each row i climbs (n,i) <= (n+1,i); row 1
  feeds row 0 one step later ((n,1) <= (n+1,0)) and every (n,1) sits below
  the extra element a.
* ``P2``: triples (z, i, n) with z an integer, i in {0,1}, n a natural.
  Generators: (z,i,n) <= (z,i,n+1); (z,i,n) <= (z+1,i,0); and
  (z,0,n) <= (z,1,n) <= (z+1,0,n).
* ``P3``: pairs (x, y) of naturals with (x,y) <= (x,y+1) and
  (x,y) <= (x+y+1,y).
* ``P4``: triples (x, y, z) of naturals with (x,y,z) <= (x,y,z+1);
  (x,y,z) <= (x,y+1,z); (x,y,z) <= (x',y+2,z') for all x',z';
  (x+1,y,z) <= (x,y,z); and (x+y+1,y,z') <= (x,y,z) for all z,z'.
* ``P5``: triples (x, y, n) of naturals, levels indexed by n with LOWER
  levels having HIGHER n: (x,y,n) <= (u,v,m) iff n >= m+2, or n == m with
  x <= u and y <= v, or n == m+1 with min(x,y)+1 <= min(u,v) or
  x+y <= 2(u+v).

P1 and P5 use the closed-form clauses above directly.  P2, P3 and P4 are
given by generators only; each is compared by an O(1) closed form for
reachability over its generator moves, whose docstring argues why the moves
reach exactly those points.  No comparison depends on a window.

A family is one frozen :class:`Family` record in :data:`RECORDS`, keyed by
its name, and the record is the only owner of the family's rules: window
axes, product factors and signed axes, the factor-to-column permutation,
named points (P1's bot, a and top) in kind order, name format, payload
check, scalar and broadcast forms, named sets, and greatest element.  The
functions and claims read the record and never test the name or call a
form by name, so a new family is one new record.

A :class:`WindowSpec` is plain per-axis ranges; :meth:`Family.spans` alone
reads it.  Windows and named sets are enumerated as integer coordinate
columns by :func:`_window_columns`, in the narrowest exact integer type
(Python ints past int64); payloads and names are made only where a
window's names or a witness need them.  Each check evaluates the closed
form once per direction it needs, broadcast over those columns, and never
transposes a block.  Payload lists, as in ``verify`` and the acceptance
battery, go through :func:`relation_block` and :func:`relation_pairs`.
``elem_le`` decides one pair at a time and stays the independent oracle.

Windows name their elements by compact strings ("bot", "(0,1)",
"(-1,0,2)", ...) so window posets serialize cleanly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .partition import SpineCertificate, check_spine, width_and_dilworth
from .poset import FinitePoset, PosetError
from .report import CLAIMS, FAIL, PASS, UP_TO_BOUND, VerificationReport, claim


class FamilyMismatch(PosetError):
    def __init__(self, family: str, payload):
        super().__init__(f"element {payload!r} does not belong to family {family}")
        self.family = family
        self.payload = payload


class UnknownName(PosetError):
    def __init__(self, family: str, name: str):
        super().__init__(f"family {family} has no named subset {name!r}")
        self.name = name


class UnknownClaim(PosetError):
    def __init__(self, family: str, claim: str):
        super().__init__(f"family {family} has no registered claim {claim!r}")
        self.claim = claim


@dataclass(frozen=True)
class WindowSpec:
    """Inclusive per-axis ranges, e.g. ``WindowSpec((("n", 0, 3),))``.

    A spec is plain data and treats every axis alike; the family that reads
    it (:meth:`Family.spans`) reads a natural axis from 0."""

    bounds: tuple

    @classmethod
    def make(cls, **axes) -> "WindowSpec":
        """A bare v is -v..v on every axis: ``make(z=4)`` is -4..4, and
        ``make(n=3)`` is -3..3, which a family reads as 0..3 on a natural
        axis.  ``make(x=(1, 5))`` is 1..5."""
        out = []
        for axis, value in axes.items():
            lo, hi = value if isinstance(value, tuple) else (-value, value)
            if lo > hi:
                raise ValueError(f"empty range for axis {axis!r}")
            out.append((axis, int(lo), int(hi)))
        return cls(tuple(out))

    def widened(self, slack: int) -> "WindowSpec":
        """Grow every axis by ``slack`` in both directions."""
        return WindowSpec(tuple((name, lo - slack, hi + slack) for name, lo, hi in self.bounds))


# ------------------------------------------------------------ comparability


def _le_p1(p, q) -> bool:
    if p == q:
        return True
    if p == "bot" or q == "top":
        return True
    if q == "bot" or p == "top":
        return False
    if p == "a":
        return False
    if q == "a":
        return p[1] == 1
    (n, i), (m, j) = p, q
    if i == j:
        return n <= m
    if i == 1 and j == 0:
        return n < m
    return False


def _le_p1_cols(p, q):
    """:func:`_le_p1` on coordinate columns (kind, n, i); see P1's record.

    bot (kind 0) is below and top (kind 3) above everything; below a (kind
    2) are a and the pairs (n, 1), the points with kind + i == 2 since bot,
    a and top have i = 0.  Pairs compare iff i >= j and n + i <= m + j: for
    i == j that is n <= m, for (1, 0) it is n < m, and (0, 1) fails i >= j.
    Each point is below itself by one of these clauses."""
    (s, n, i), (t, m, j) = p, q
    pairs = (s == 1) & (t == 1) & (i >= j) & (n + i <= m + j)
    return (s == 0) | (t == 3) | ((t == 2) & (s + i == 2)) | pairs


def _le_p5(p, q) -> bool:
    (x, y, n), (u, v, m) = p, q
    if n >= m + 2:
        return True
    if n == m:
        return x <= u and y <= v
    if n == m + 1:
        return min(x, y) + 1 <= min(u, v) or x + y <= 2 * (u + v)
    return False


def _le_p5_cols(p, q):
    """:func:`_le_p5` on coordinate columns."""
    (x, y, n), (u, v, m) = p, q
    near = (np.minimum(x, y) + 1 <= np.minimum(u, v)) | (x + y <= 2 * (u + v))
    return (n >= m + 2) | ((n == m) & (x <= u) & (y <= v)) | ((n == m + 1) & near)


def _le_p2(p, q) -> bool:
    """Closed form of reachability under the P2 generators.

    z never decreases, and within a column the only moves are n+1 and the
    switch i: 0 -> 1, so (z,i,n) reaches (z,j,m) exactly when i <= j and
    n <= m.  One column up, the column move (z,i,n) <= (z+1,i,0) and
    climbing in n reach (z+1,i,m) for every m, and the switch adds
    (z+1,1,m) when i = 0.  From row 1 the only way into row 0 of the next
    column is (z,1,k) <= (z+1,0,k) with k >= n, after which row 0 only
    climbs in n, so (z,1,n) reaches (z+1,0,m) iff m >= n.  Two columns up
    everything is reached: (z,i,n) <= (z+1,i,0) <= (z+1,1,0) <= (z+2,0,0),
    the bottom of column z+2.
    """
    (z, i, n), (w, j, m) = p, q
    if w >= z + 2:
        return True
    if w == z + 1:
        return (i, j) != (1, 0) or m >= n
    return w == z and i <= j and n <= m


def _le_p2_cols(p, q):
    """:func:`_le_p2` on coordinate columns."""
    (z, i, n), (w, j, m) = p, q
    next_column = (w == z + 1) & ((i != 1) | (j != 0) | (m >= n))
    return (w >= z + 2) | next_column | ((w == z) & (i <= j) & (n <= m))


def _le_p3(p, q) -> bool:
    """Closed form of reachability under the P3 generators.

    Both moves keep y non-decreasing and never lower x, and a step right
    taken at row y' adds exactly y'+1 to x.  So (x,y) reaches (u,v) iff
    y <= v and d = u - x >= 0 is a sum of some number k of step sizes from
    {y+1, ..., v+1}: any such multiset is walkable by taking each step
    while passing its row.  Sums of k terms from that range fill exactly
    [k(y+1), k(v+1)] (raise one term by 1 at a time), so the test is
    whether some k has d/(v+1) <= k <= d/(y+1).
    """
    (x, y), (u, v) = p, q
    d = u - x
    return y <= v and d >= 0 and -(-d // (v + 1)) <= d // (y + 1)


def _le_p3_cols(p, q):
    """:func:`_le_p3` on coordinate columns."""
    (x, y), (u, v) = p, q
    d = u - x
    return (y <= v) & (d >= 0) & (-(-d // (v + 1)) <= d // (y + 1))


def _le_p4(p, q) -> bool:
    """Closed form of reachability under the P4 generators.

    y never decreases, and only the two-level jump raises x or lifts y by
    two.  If v >= y+2, jump to (u, y+2, w) and climb y to v.
    Otherwise the jump is never used, so x never increases and y never
    decreases: u <= x and y <= v are needed.  Then, if w >= z, step x down
    to u, z up to w and y up to v.  If w < z, z must fall, and only the
    big drop (x'+y'+1, y', .) <= (x', y', .) at a row y' >= y lowers it,
    which needs x - u >= y'+1 >= y+1; conversely with x - u >= y+1 one
    drop at row y lands on (x-y-1, y, w), from where x steps down to u
    and y climbs to v.
    """
    (x, y, z), (u, v, w) = p, q
    if v >= y + 2:
        return True
    return y <= v and u <= x and (w >= z or x - u >= y + 1)


def _le_p4_cols(p, q):
    """:func:`_le_p4` on coordinate columns."""
    (x, y, z), (u, v, w) = p, q
    return (v >= y + 2) | ((y <= v) & (u <= x) & ((w >= z) | (x - u >= y + 1)))


# Payload checks: P1's "bot", "a" or "top", or a tuple of ints (not bools) in
# the family's ranges.  elem_le runs one twice per call, so each is unrolled
# per family; anything but a tuple of the right length unpacks to Nones.


def _is_p1(p) -> bool:
    n, i = p if isinstance(p, tuple) and len(p) == 2 else (None, None)
    return p in ("bot", "top", "a") or type(n) is type(i) is int and n >= 0 and 0 <= i <= 1


def _is_p2(p) -> bool:
    z, i, n = p if isinstance(p, tuple) and len(p) == 3 else (None, None, None)
    return type(z) is type(i) is type(n) is int and 0 <= i <= 1 and n >= 0


def _is_natural_pair(p) -> bool:
    x, y = p if isinstance(p, tuple) and len(p) == 2 else (None, None)
    return type(x) is type(y) is int and x >= 0 and y >= 0


def _is_natural_triple(p) -> bool:
    x, y, z = p if isinstance(p, tuple) and len(p) == 3 else (None, None, None)
    return type(x) is type(y) is type(z) is int and x >= 0 and y >= 0 and z >= 0


# --------------------------------------------------------------- the records


@dataclass(frozen=True)
class Family:
    """One family's facts, read by every function of the module.

    A window is the product of the ``factors`` ranges, slowest first, named
    by axis ("i" is 0..1; only an axis in ``signed`` goes below 0), and
    coordinate column k is factor ``order[k]``.  ``points`` are the named
    points in kind order, None at the kind of the coordinate tuples: they
    add a kind column first, are 0 in the others, and flank a window's
    product.  ``named`` maps each named chain or antichain's base name to
    its number of integer indices and its mask on coordinate columns c."""

    name: str
    axes: tuple  # the axes a WindowSpec must bound, exactly
    factors: tuple
    order: tuple
    fmt: str  # the name of a coordinate tuple
    member: Callable  # the payload check
    le: Callable  # the scalar form
    le_cols: Callable  # the broadcast form on coordinate columns
    named: dict
    signed: tuple = ()
    points: tuple = ()
    greatest: str | None = None  # the named point above the whole family

    def spans(self, spec: WindowSpec) -> dict:
        """Each factor's inclusive range in the window ``spec``, which must
        bound each of the family's axes exactly once."""
        given = {name: (lo, hi) for name, lo, hi in spec.bounds}
        if len(given) < len(spec.bounds):
            raise ValueError(f"window bounds an axis twice: {', '.join(a for a, _, _ in spec.bounds)}")
        for axis in [*given, *self.axes]:
            if (axis in self.axes) != (axis in given):
                problem = "has no axis" if axis in given else "needs a bound for axis"
                raise ValueError(f"family {self.name} {problem} {axis!r}; its axes are {', '.join(self.axes)}")
        spans = {a: (lo if a in self.signed else max(lo, 0), hi) for a in self.axes for lo, hi in [given[a]]}
        return {**spans, "i": (0, 1)}


class _Records(dict):
    """The records by family name; an unknown name raises ValueError."""

    def __missing__(self, family):
        raise ValueError(f"unknown family {family!r}")


# "n" for P1 bounds the pair index, and its kind 2 is a; "z" for P2 is an
# integer axis windowed symmetrically; "c" for P5 bounds both x and y, and
# its columns are x, y, n.
RECORDS = _Records({f.name: f for f in (
    Family("P1", ("n",), ("n", "i"), (0, 1), "(%s,%s)", _is_p1, _le_p1, _le_p1_cols,
           {"C1": (0, lambda c: (c[0] != 2) & (c[2] == 0)), "C2": (0, lambda c: (c[0] != 1) | (c[2] == 1))},
           points=("bot", None, "a", "top"), greatest="top"),
    Family("P2", ("z", "n"), ("z", "i", "n"), (0, 1, 2), "(%s,%s,%s)", _is_p2, _le_p2, _le_p2_cols,
           {"C0": (0, lambda c: c[1] == 0), "C1": (0, lambda c: c[1] == 1), "D": (1, lambda c, n: c[2] == n)},
           signed=("z",)),
    Family("P3", ("x", "y"), ("x", "y"), (0, 1), "(%s,%s)", _is_natural_pair, _le_p3, _le_p3_cols,
           {"C": (1, lambda c, x: c[0] == x)}),
    Family("P4", ("x", "y", "z"), ("x", "y", "z"), (0, 1, 2), "(%s,%s,%s)", _is_natural_triple, _le_p4, _le_p4_cols,
           {"E": (1, lambda c, x: c[0] == x)}),
    Family("P5", ("n", "c"), ("n", "c", "c"), (1, 2, 0), "(%s,%s,%s)", _is_natural_triple, _le_p5, _le_p5_cols,
           {"L": (1, lambda c, n: c[2] == n), "K": (2, lambda c, n, s: (c[2] == n) & (c[0] + c[1] == s))}),
)})

FAMILIES = tuple(RECORDS)


def element_id(family: str, payload) -> str:
    """The element's name: a named point (P1's ``"bot"``, ``"a"`` and
    ``"top"``) as it is, and every payload tuple by its family's format."""
    fam = RECORDS[family]
    return payload if fam.points and isinstance(payload, str) else fam.fmt % payload


def elem_le(family: str, p, q) -> bool:
    """Decide p <= q in the named family; raises FamilyMismatch."""
    fam = RECORDS[family]
    if not fam.member(p):
        raise FamilyMismatch(family, p)
    if not fam.member(q):
        raise FamilyMismatch(family, q)
    return fam.le(p, q)


# ------------------------------------------------------------------ windows


# No intermediate of a broadcast form exceeds four times the largest
# |coordinate| plus two (P5's 2*(u+v) is the largest), so the columns take
# the narrowest signed integer type that holds that bound: int8 for
# coordinates up to 31, where a form's broadcasts run about three times as
# fast as in int64, and up to int64 for coordinates below 2**61.  Past that
# the type is object and the same expression runs on Python ints.


def _exact_type(size: int) -> np.dtype:
    return np.min_scalar_type(-(4 * size + 2))


def _window_columns(family: str, spec: WindowSpec, cap: float = math.inf) -> np.ndarray:
    """``a[k, i]`` is coordinate k of the window's element i, in the order
    of :func:`window_payloads`: the product of the record's factors, with
    its named points around it.  The spec must bound exactly the family's
    axes, and a window of more than ``cap`` elements raises ValueError
    before it is enumerated."""
    fam = RECORDS[family]
    spans = fam.spans(spec)
    size = math.prod(max(hi - lo + 1, 0) for lo, hi in map(spans.get, fam.factors))
    size += len(fam.points) - bool(fam.points)
    if size > cap:
        raise ValueError(f"family {family} window of {size} elements exceeds its cap {cap}")
    dtype = _exact_type(max(abs(v) for span in spans.values() for v in span))
    factors = (np.arange(lo, hi + 1, dtype=dtype) for lo, hi in map(spans.get, fam.factors))
    g = [c.ravel() for c in np.meshgrid(*factors, indexing="ij")]
    columns = [g[k] for k in fam.order]
    if not fam.points:
        return np.stack(columns)
    t = fam.points.index(None)
    ends = np.zeros((1 + len(columns), len(fam.points)), dtype=dtype)
    ends[0] = range(len(fam.points))
    return np.concatenate((ends[:, :t], [np.full_like(g[0], t), *columns], ends[:, t + 1 :]), axis=1, dtype=dtype)


def _payloads(family: str, a: np.ndarray) -> list:
    """The payloads whose coordinate columns are ``a``, as Python ints."""
    points = RECORDS[family].points
    return [points[s] or tuple(c) for s, *c in zip(*a.tolist())] if points else list(zip(*a.tolist()))


def window_payloads(family: str, spec: WindowSpec) -> list:
    """All family elements inside the window, in a fixed enumeration order."""
    return _payloads(family, _window_columns(family, spec))


def _columns(family: str, points: list) -> np.ndarray:
    """``a[k, i]`` is coordinate k of points[i], in the type chosen above;
    ``points`` is non-empty."""
    fam = RECORDS[family]
    if fam.points:
        t, zeros = fam.points.index(None), (0,) * len(fam.order)
        points = [(t, *p) if isinstance(p, tuple) else (fam.points.index(p), *zeros) for p in points]
    coords = list(zip(*points))
    return np.array(coords, dtype=_exact_type(max(-min(map(min, coords)), max(map(max, coords)))))


def relation_block(family: str, rows: list, cols: list) -> np.ndarray:
    """``bool[len(rows), len(cols)]`` whose entry (i, j) is rows[i] <= cols[j].

    The family's broadcast form runs once over coordinate columns of the
    narrowest integer type that is exact for both sides, or of Python ints
    past int64.  Payloads are not validated (they come from enumerations of
    the family); passing the same list as ``rows`` and ``cols`` converts it
    once.
    """
    if not rows or not cols:
        return np.zeros((len(rows), len(cols)), dtype=bool)
    points = rows if cols is rows else [*rows, *cols]
    a = _columns(family, points)
    return RECORDS[family].le_cols(a[:, : len(rows), None], a[:, None, len(points) - len(cols) :])


def relation_pairs(family: str, points: list, left, right) -> np.ndarray:
    """``bool[len(left)]`` whose entry k is points[left[k]] <= points[right[k]].

    ``points`` (non-empty, not validated) is converted to coordinate columns
    once, and the family's broadcast form runs once on the columns gathered
    by the index arrays ``left`` and ``right``.
    """
    a = _columns(family, points)
    return RECORDS[family].le_cols(a[:, left], a[:, right])


def _incomparable(family: str, rows, cols) -> np.ndarray:
    """rows[i] and cols[j] are incomparable, for coordinate columns shaped
    to broadcast as a rows × cols block; both directions keep that layout."""
    le = RECORDS[family].le_cols
    return ~(le(rows, cols) | le(cols, rows))


WINDOW_CAP = 4000


def window(family: str, spec: WindowSpec) -> FinitePoset:
    """The induced finite poset on the window, with string element names.

    A window of more than :data:`WINDOW_CAP` elements raises ValueError
    before anything is enumerated.  Near the cap each family's window and
    its JSON took 0.29–0.48 s and 174–177 MB peak RSS (fresh processes,
    Python 3.11, 2 CPUs).
    """
    a = _window_columns(family, spec, WINDOW_CAP)
    names = [element_id(family, p) for p in _payloads(family, a)]
    return FinitePoset(names, RECORDS[family].le_cols(a[:, :, None], a[:, None, :]))


# -------------------------------------------------------------- named sets


_NAME = re.compile(r"^([A-Z]+[0-9]*)(?:\(\s*(-?\d+)(?:\s*,\s*(-?\d+))?\s*\))?$")


def _named_predicate(family: str, name: str):
    """The membership mask of a named set on coordinate columns; raises
    UnknownName, or ValueError for an unknown family."""
    m = _NAME.match(name.strip())
    arity, mask = RECORDS[family].named.get(m.group(1) if m else None, (None, None))
    indices = [int(g) for g in m.groups()[1:] if g is not None] if m else []
    if arity != len(indices):
        raise UnknownName(family, name)
    return lambda c: mask(c, *indices)


def _named_columns(family: str, name: str, spec: WindowSpec) -> np.ndarray:
    member, a = _named_predicate(family, name), _window_columns(family, spec)
    return a[:, member(a)]


def named_subset_payloads(family: str, name: str, spec: WindowSpec) -> list:
    return _payloads(family, _named_columns(family, name, spec))


def _first_unreached(family: str, lower: np.ndarray, upper: np.ndarray):
    """The index of the first column of ``lower`` with no column of
    ``upper`` strictly above it, or None.  y < x is y <= x and y != x: one
    block of the form, with each lower point's equal in upper cleared."""
    below = RECORDS[family].le_cols(lower[:, :, None], upper[:, None, :])
    at = {p: k for k, p in enumerate(zip(*upper.tolist()))}
    np.put(below, [r * below.shape[1] + at[p] for r, p in enumerate(zip(*lower.tolist())) if p in at], False)
    reached = below.any(axis=1)
    return None if reached.all() else int(reached.argmin())


def check_bounded_cofinally_above(
    family: str, upper: str, lower: str, bound: WindowSpec, slack: int = 2
) -> VerificationReport:
    """Bounded check that ``upper`` reaches above every point of ``lower``.

    For each y of the lower set inside ``bound``, searches the upper set in
    the window widened by ``slack`` for an x strictly above y.  The family's
    greatest element (P1's top) needs nothing strictly above it, since
    chains through it are cofinal there, so it is not searched for.  A pass
    is reported as verified-up-to-bound: it is evidence about the infinite
    sets, not a proof.  The reported bound is the range each axis of
    ``bound`` spans in the window, so a natural axis starts at 0 or above.
    """
    lower_cols = _named_columns(family, lower, bound)
    fam = RECORDS[family]
    spans = fam.spans(bound)
    checked = {axis: list(spans[axis]) for axis, _, _ in bound.bounds}
    params = {"family": family, "upper": upper, "lower": lower, "bound": checked, "slack": slack}
    if fam.greatest is not None:
        lower_cols = lower_cols[:, lower_cols[0] != fam.points.index(fam.greatest)]
    upper_cols = _named_columns(family, upper, bound.widened(slack))
    k = _first_unreached(family, lower_cols, upper_cols)
    if k is not None:
        witness = element_id(family, _payloads(family, lower_cols[:, [k]])[0])
        detail = {"reason": "no element of the upper set lies strictly above"}
        return VerificationReport("cofinally-above", params, FAIL, witness, detail)
    detail = {"lower_checked": lower_cols.shape[1], "upper_candidates": upper_cols.shape[1]}
    return VerificationReport("cofinally-above", params, UP_TO_BOUND, None, detail)


def check_bounded_bicomparable(
    family: str, first: str, second: str, bound: WindowSpec, slack: int = 2
) -> VerificationReport:
    """Both directions of :func:`check_bounded_cofinally_above`."""
    for upper, lower in ((first, second), (second, first)):
        rep = check_bounded_cofinally_above(family, upper, lower, bound, slack)
        params = {"family": family, "first": first, "second": second, "bound": rep.params["bound"], "slack": slack}
        if not rep.ok:
            return VerificationReport("bicomparable", params, FAIL, rep.witness, {"direction": f"{upper} over {lower}"})
    return VerificationReport("bicomparable", params, UP_TO_BOUND)


# ------------------------------------------------------------------- claims


@claim("P1.spine_partition", N=1500)
def _claim_p1_spine_partition(N: int) -> tuple:
    """The window certificate with chain C2 and the pair antichains.

    Parts: {bot}, {(n,0),(n,1)} for each n <= N, {a}, {top}; chain
    bot < (0,1) < ... < (N,1) < a < top.  Fully validated as a spine
    certificate of the window poset.

    N is capped at 1500: the 3005-element window took 0.16–0.18 s and
    112 MB peak RSS (fresh process, Python 3.11, 2 CPUs).
    """
    P = window("P1", WindowSpec.make(n=N))
    # The window lists bot, (0,0), (0,1), ..., (N,0), (N,1), a, top.
    e = P.elements
    chain = [e[0], *e[2:-2:2], *e[-2:]]
    parts = [e[:1], *zip(e[1:-2:2], e[2:-2:2]), e[-2:-1], e[-1:]]
    rep = check_spine(P, SpineCertificate(chain=tuple(chain), antichains=tuple(parts)))
    return PASS if rep.ok else FAIL, rep.witness, {"chain_size": len(chain), "parts": len(parts)}


@claim("P1.pigeonhole", m=4000)
def _claim_p1_pigeonhole(m: int) -> tuple:
    """Counting obstruction: no antichain partition pairs every point off
    the chain C1 with its own C1 element.

    The element a must share a part with some (k,0); under the matching
    hypothesis take k = m.  The m+1 points (0,1)..(m,1) are each
    incomparable only to the C1 elements {(k,0): k <= n} (computed
    exhaustively), so with (m,0) spoken for they compete for m hosts.

    m is capped at 4000: the check took 0.21–0.28 s and 92 MB peak RSS
    (fresh process, Python 3.11, 2 CPUs).
    """
    a = _window_columns("P1", WindowSpec.make(n=m))
    c1, pairs = a[:, _named_predicate("P1", "C1")(a)], a[:, a[2] == 1]
    free = _incomparable("P1", pairs[:, :, None], c1[:, None, :]).any(axis=0)
    reserved, demanders = (m, 0), _payloads("P1", pairs)
    hosts = [element_id("P1", h) for h in _payloads("P1", c1[:, free]) if h != reserved]
    ok = len(hosts) < len(demanders)
    return PASS if ok else FAIL, None if ok else hosts, {
        "demanders": [element_id("P1", d) for d in demanders],
        "hosts": hosts,
        "demander_count": len(demanders),
        "host_count": len(hosts),
        "reserved_for_a": element_id("P1", reserved),
    }


@claim("P2.partitions", B=900)
def _claim_p2_partitions(B: int) -> tuple:
    """Both named families cover the window exactly once: each named set's
    membership mask on the window's coordinate columns, added into one
    count per element.

    B is capped at 900: the 3,245,402-element window took 0.72–0.78 s and
    67 MB peak RSS (fresh process, Python 3.11, 2 CPUs).
    """
    columns = _window_columns("P2", WindowSpec.make(z=B, n=B))
    families = {"C0/C1": ("C0", "C1"), "D(n)": [f"D({n})" for n in range(B + 1)]}
    detail = {}
    for label, names in families.items():
        counts = np.zeros(columns.shape[1], dtype=np.int16)
        for name in names:
            counts += _named_predicate("P2", name)(columns)
        if (counts != 1).any():
            # The first element in no set, else the first one of the first
            # set that shares it: the sets are walked again only to fail.
            hit = counts == 0
            if not hit.any():
                hit = next(m for m in (_named_predicate("P2", n)(columns) & (counts > 1) for n in names) if m.any())
            return FAIL, element_id("P2", _payloads("P2", columns[:, [int(hit.argmax())]])[0]), {"family": label}
        detail[label] = {"sets": len(names), "covered": int(counts.sum())}
    return PASS, None, detail


@claim("P2.shift_reduction", B=300)
def _claim_p2_shift_reduction(B: int) -> tuple:
    """Each column chain maps consistently onto the previous one: every
    (z-1, 0, n) in the window lies below some (z, 0, m) in the window.

    B is capped at 300: the check took 0.26–0.36 s and 186 MB peak RSS
    (fresh process, Python 3.11, 2 CPUs)."""
    # Axis 0 is the column z, axis 1 the lower point's n, axis 2 the upper
    # point's m: one broadcast holds every column's block.  z never
    # decreases, so below a point of the next column is strictly below it.
    z = np.arange(1 - B, B + 1).reshape(-1, 1, 1)
    n = np.arange(B + 1)
    reached = RECORDS["P2"].le_cols((z - 1, 0, n[:, None]), (z, 0, n)).any(axis=2)
    if not reached.all():
        col, k = np.unravel_index(int(reached.argmin()), reached.shape)
        return FAIL, element_id("P2", (int(col) - B, 0, int(k))), {}
    return UP_TO_BOUND, None, {"checked": 2 * B * (B + 1)}


@claim("P3.row_bound", B=3000)
def _claim_p3_row_bound(y: int, B: int) -> tuple:
    """Maximum antichain of the row window {(x, y): x <= B} has size
    exactly min(y+1, B+1).

    B is capped at 3000: the check took 0.18–0.23 s and 112–113 MB peak RSS
    at y = 3 and y = 3000 (fresh processes, Python 3.11, 2 CPUs)."""
    w, _, antichain = width_and_dilworth(window("P3", WindowSpec.make(x=B, y=(y, y))))
    expected = min(y + 1, B + 1)
    ok = w == expected
    return PASS if ok else FAIL, None if ok else sorted(antichain), {"width": w, "expected": expected}


@claim("P3.atomic_antichain", B=3000)
def _claim_p3_atomic_antichain(n: int, m: int, B: int) -> tuple:
    """Bounded evidence that distinct columns are incomparable in bulk:
    some element of column n (y <= B) is incomparable to at least B
    elements of column m (y <= 2B).

    Each column index enters the form as one scalar, so x - u stays exact
    and every (B+1)×(2B+1) block is bool.  B is capped at 3000: the check
    took 0.11–0.15 s and 82 MB peak RSS at n=2 with m=5 and m=2**60-1
    (fresh process, Python 3.11, 2 CPUs)."""
    if n == m:
        return FAIL, element_id("P3", (n, 0)), {"reason": "columns coincide"}
    y = np.arange(2 * B + 1)
    counts = _incomparable("P3", (n, y[: B + 1, None]), (m, y)).sum(axis=1)
    best, count = element_id("P3", (n, int(counts.argmax()))), int(counts.max())
    ok = count >= B
    return UP_TO_BOUND if ok else FAIL, None if ok else best, {
        "best_element": best,
        "incomparable_count": count,
        "required": B,
    }


@claim("P4.no_domination", B=60, slack=60)
def _claim_p4_no_domination(n: int, m: int, B: int, slack: int = 2) -> tuple:
    """No single window element of E(n) lies above the whole window of
    E(m): each candidate (n, y, z) with y, z <= B is refuted inside the
    slack-widened window of E(m).  The asymmetric windows matter — a
    candidate at the very top of its own window would trivially dominate
    an equally truncated E(m).

    B and slack are each capped at 60: with both at their caps the check
    took 0.73 s and 343 MB peak RSS (Python 3.11, 2 CPUs)."""
    candidates = _window_columns("P4", WindowSpec.make(x=(n, n), y=B, z=B))
    targets = _window_columns("P4", WindowSpec.make(x=(m, m), y=B + slack, z=B + slack))
    dominating = RECORDS["P4"].le_cols(targets[:, :, None], candidates[:, None, :]).all(axis=0)
    if dominating.any():
        return FAIL, element_id("P4", (n, *divmod(int(dominating.argmax()), B + 1))), {}
    return UP_TO_BOUND, None, {"candidates": candidates.shape[1], "targets": targets.shape[1]}


def verify_claim(family: str, claim: str, params: dict) -> VerificationReport:
    """Run the check ``"<family>.<claim>"`` of :data:`report.CLAIMS`, which
    validates ``params`` itself (see :func:`report.claim`); raises
    UnknownClaim."""
    check = CLAIMS.get(f"{family}.{claim}")
    if check is None:
        raise UnknownClaim(family, claim)
    return check(**params)
