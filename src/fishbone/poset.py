"""Finite partial orders backed by a dense boolean comparison table.

A :class:`FinitePoset` stores its elements in a fixed declared order and a
reflexive ``leq`` matrix next to its strict part, so comparison queries are
O(1) and the partial-order axioms can be checked with a few boolean matrix
operations.  The comparability matrix, the cover matrix and the chain
lengths are each computed at most once, the comparability matrix only when
it is first read.  Every module answers its finite comparison questions
through these.

There are three ways in, all ending in ``_set``.  A table is validated by
one square of its strict matrix, which also gives the covers.  Generator
pairs are closed by ``_close``, one kernel over the DAG's successor lists (a
Kahn pass into generations, the Mirsky levels, then a reverse topological
walk over Python-int bitset rows) that also gives covers and chain lengths.
A subposet restricts its parent's matrices and gets its covers on first use.
Other chain lengths come on first use from ``_close`` over the covers.  Every
path is exact at every size: none counts paths in a type that can wrap.
The one matrix product, ``_bool_matmul``, starts no thread: small products
run on float32 BLAS below the size where OpenBLAS would wake its threads,
larger ones by table lookups on packed bits (four Russians).
Intended scale is up to a few thousand elements; storage is quadratic.
"""

from __future__ import annotations

import graphlib
import itertools
import json
from collections import deque
from typing import Iterable, Sequence

import numpy as np

ElementId = str | int


class PosetError(Exception):
    """Base class for errors raised by this module."""


class UnknownElement(PosetError):
    def __init__(self, element):
        super().__init__(f"unknown element {element!r}")
        self.element = element


class CycleError(PosetError):
    """Raised when generator pairs force two distinct elements to be equal."""

    def __init__(self, cycle: Sequence):
        loop = " <= ".join(repr(x) for x in list(cycle) + [cycle[0]])
        super().__init__(f"generators force a cycle: {loop}")
        self.cycle = tuple(cycle)


class NotAChain(PosetError):
    def __init__(self, x, y):
        super().__init__(f"elements {x!r} and {y!r} are incomparable")
        self.pair = (x, y)


# OpenBLAS runs a gemm of at most 65536 * 4 = 64**3 multiply-adds on the
# calling thread (its SMP_THRESHOLD_MIN times GEMM_MULTITHREAD_THRESHOLD).
_BLAS_MAX = 64**3
# Words of looked-up rows gathered at once by the four Russians branch.
_GATHER_WORDS = 1 << 16


def _bool_matmul(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Boolean product of the bool matrices ``a`` and ``b``, or the square
    of ``a`` when ``b`` is None.  The package's only matrix product; it
    sets no thread count and starts no thread.

    A product of at most ``_BLAS_MAX`` multiply-adds is a float32 BLAS
    product, which OpenBLAS runs on the calling thread whatever its thread
    setting: it sums nonnegative terms, which never round to 0, so ``> 0``
    is exact.  A larger product may wake OpenBLAS's worker threads, which
    have been seen to wait about 16 ms each time, so it calls no BLAS: it
    runs the method of four Russians (Arlazarov, Dinic, Kronrod
    and Faradzev, 1970) on uint64 words.  The rows of ``b`` are packed into
    bits and taken 8 at a time; for each group a 256-entry table holds the
    OR of every subset of its rows, built by 8 doublings.  Row i of the
    product is the OR, over the groups, of the entries that the packed
    bits of ``a[i]`` select: only AND and OR on bits, so exact.  The
    tables take 4 bytes per entry of ``b`` (its rows rounded up to 64
    bits), as a float32 copy of ``b`` does, and the looked-up rows are
    gathered ``_GATHER_WORDS`` words at a time."""
    if b is None:
        b = a
    (n, k), m = a.shape, b.shape[1]
    if n * k * m <= _BLAS_MAX:
        f = a.astype(np.float32)
        return (f @ (f if b is a else b.astype(np.float32))) > 0
    groups, words = -(-k // 8), -(-m // 64)
    packed = np.zeros((groups * 8, words * 8), np.uint8)
    packed[:k, : -(-m // 8)] = np.packbits(b, axis=1, bitorder="little")
    # rows[t, g] is row 8g + t of b, so each doubling ORs contiguous words.
    rows = np.ascontiguousarray(packed.view(np.uint64).reshape(groups, 8, words).transpose(1, 0, 2))
    table = np.empty((256, groups, words), np.uint64)
    table[0] = 0
    for t in range(8):
        np.bitwise_or(table[: 1 << t], rows[t], out=table[1 << t : 2 << t])
    table = table.reshape(256 * groups, words)
    # Row key[g, i] of the flat table is the entry a[i]'s bits select in group g.
    key = np.multiply(np.packbits(a, axis=1, bitorder="little").T, groups, dtype=np.intp)
    key += np.arange(groups)[:, None]
    out = np.empty((n, words), np.uint64)
    step = max(1, _GATHER_WORDS // (groups * words))
    for r in range(0, n, step):
        np.bitwise_or.reduce(table.take(key[:, r : r + step], axis=0), axis=0, out=out[r : r + step])
    return np.unpackbits(out.view(np.uint8), axis=1, count=m, bitorder="little").view(bool)


# numpy's 2-D index machinery (np.argwhere, np.nonzero on a matrix, np.ix_)
# costs several times what flat indices and two takes do at these sizes.
def _true_pairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the True entries of the matrix ``m``, in
    row-major order: ``np.argwhere(m)`` as two arrays."""
    return np.divmod(np.flatnonzero(m), m.shape[1])


def _block(m: np.ndarray, rows, cols=None) -> np.ndarray:
    """The submatrix ``m[np.ix_(rows, cols)]``, as a new array; ``cols``
    defaults to ``rows``."""
    return m.take(rows, 0).take(rows if cols is None else cols, 1)


def _shortest_cycle(nodes: Sequence[int], edges: list[list[int]]) -> list[int]:
    """Shortest directed cycle touching `nodes`, ties broken by start index."""
    node_set = set(nodes)
    best: list[int] | None = None
    for start in sorted(node_set):
        # BFS over edges restricted to the strongly connected component.
        parent: dict[int, int] = {start: -1}
        queue = deque([start])
        found = None
        while queue and found is None:
            cur = queue.popleft()
            for nxt in edges[cur]:
                if nxt == start:
                    found = cur
                    break
                if nxt in node_set and nxt not in parent:
                    parent[nxt] = cur
                    queue.append(nxt)
        if found is None:
            continue
        path = [found]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        if best is None or len(path) < len(best):
            best = path
    assert best is not None
    return best


def _cycle(succ: list[list[int]]) -> list[int]:
    """The cycle reported for cyclic generator arcs (no loops), given as
    successor lists: ``graphlib`` names the nodes of one cycle it stalls
    on, and the shortest cycle through them is reported."""
    sorter: graphlib.TopologicalSorter = graphlib.TopologicalSorter()
    for i in range(len(succ)):
        sorter.add(i)
    for i, outs in enumerate(succ):
        for j in outs:
            sorter.add(j, i)
    try:
        sorter.prepare()
    except graphlib.CycleError as err:
        return _shortest_cycle(err.args[1][:-1], succ)
    raise AssertionError("the arcs have no cycle")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _row_lists(m: np.ndarray) -> list[list[int]]:
    """For each row of the boolean matrix ``m``, the columns of its True
    entries in increasing order."""
    rows, cols = _true_pairs(m)
    flat = cols.tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(m))).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _unpack(rows: list[int], n: int) -> np.ndarray:
    """``bool[n, n]`` whose row i has bit j of ``rows[i]`` in column j."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def _close(succ: list[list[int]]) -> tuple[np.ndarray, ...] | None:
    """``leq``, strict order, covers and (up, down) chain lengths of the DAG
    whose arcs i -> j are listed in ``succ[i]`` (no loops; repeats allowed),
    or None when it has a cycle.

    Two passes over the successor lists.  A level-synchronous Kahn pass
    peels the DAG into generations: generation k holds the elements whose
    longest path from a source has k - 1 arcs, so k is the up-length, and
    the generations in turn are a topological order.  It stalls on a cycle.
    A walk in reverse topological order then keeps each element's rows as
    Python ints, bit j for element j.  Every successor's strict row is final
    when the element is reached, and ``far``, the OR of those rows, is what
    the element reaches by two arcs or more, so its strict row is arcs | far
    and its cover row arcs & ~far; its down-length is one more than its
    successors' longest.  Python ints cannot wrap, and neither pass recurses.
    """
    n = len(succ)
    waiting = [0] * n
    for outs in succ:
        for j in outs:
            waiting[j] += 1
    up = [0] * n
    order: list[int] = []
    layer = [i for i in range(n) if not waiting[i]]
    level = 0
    while layer:
        order += layer
        level += 1
        nxt = []
        for i in layer:
            up[i] = level
            for j in succ[i]:
                waiting[j] -= 1
                if not waiting[j]:
                    nxt.append(j)
        layer = nxt
    if len(order) < n:
        return None
    bit = [1 << j for j in range(n)]
    strict, cover, down = [0] * n, [0] * n, [1] * n
    for i in reversed(order):
        arcs = far = longest = 0
        for j in succ[i]:
            arcs |= bit[j]
            far |= strict[j]
            if down[j] > longest:
                longest = down[j]
        strict[i], cover[i], down[i] = arcs | far, arcs & ~far, longest + 1
    strict_m = _unpack(strict, n)
    leq = strict_m.copy()
    np.fill_diagonal(leq, True)
    return leq, strict_m, _unpack(cover, n), np.array(up, dtype=np.int64), np.array(down, dtype=np.int64)


class FinitePoset:
    """An immutable finite poset with a declared element order."""

    __slots__ = (
        "elements", "_index", "_leq", "_strict", "_comparable", "_order", "_position", "_cover", "_lengths"
    )

    def __init__(self, elements: Iterable[ElementId], leq: np.ndarray):
        self.elements: tuple = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")
        self._index = {e: i for i, e in enumerate(self.elements)}
        table = np.array(leq, dtype=bool)
        n = len(self.elements)
        if table.shape != (n, n):
            raise ValueError(f"leq table must be {n}x{n}")
        if not table.diagonal().all():
            i = int(np.argmin(table.diagonal()))
            raise ValueError(f"not reflexive at {self.elements[i]!r}")
        strict = table.copy()
        np.fill_diagonal(strict, False)
        # ``two``, the strict matrix squared, has ``two[i, i]`` set exactly
        # when some j has i < j < i: its diagonal checks antisymmetry.  For
        # an order the table squared is itself | two, so ``two`` outside the
        # table is where transitivity fails; inside, it is what lies two
        # steps or more above, and the rest of the strict order are covers.
        two = _bool_matmul(strict)
        if two.diagonal().any():
            i, j = (int(k[0]) for k in _true_pairs(strict & strict.T))
            raise ValueError(
                f"not antisymmetric: {self.elements[i]!r} and {self.elements[j]!r}"
            )
        if (two & ~table).any():
            i, j = (int(k[0]) for k in _true_pairs(two & ~table))
            raise ValueError(
                f"not transitive: {self.elements[i]!r} .. {self.elements[j]!r}"
            )
        self._set(table, strict, strict & ~two)

    def _set(self, leq: np.ndarray, strict: np.ndarray, cover: np.ndarray | None) -> None:
        """Freeze the given matrices; the rest, comparability always and
        the covers too when ``cover`` is None, is computed on first use."""
        self._leq, self._strict = map(_frozen, (leq, strict))
        self._cover = None if cover is None else _frozen(cover)
        self._comparable = self._order = self._position = self._lengths = None

    # ------------------------------------------------------------------ build

    @classmethod
    def from_generators(cls, elements: Iterable[ElementId], pairs: Iterable[tuple]) -> "FinitePoset":
        """Reflexive-transitive closure of ``pairs`` (each meaning x <= y).

        Cycles among distinct elements are rejected before the closure is
        computed; the error reports one shortest offending cycle.  The
        closure, the covers and the chain lengths all come from
        :func:`_close`.
        """
        elems = tuple(elements)
        index = {e: i for i, e in enumerate(elems)}
        if len(index) != len(elems):
            raise ValueError("duplicate elements")
        n = len(elems)
        succ: list[list[int]] = [[] for _ in range(n)]
        for x, y in pairs:
            if x not in index:
                raise UnknownElement(x)
            if y not in index:
                raise UnknownElement(y)
            i, j = index[x], index[y]
            if i != j:
                succ[i].append(j)
        closed = _close(succ)
        if closed is None:
            raise CycleError([elems[i] for i in _cycle(succ)])
        leq, strict, cover, up, down = closed
        P = cls.__new__(cls)
        P.elements, P._index = elems, index
        P._set(leq, strict, cover)
        P._lengths = (_frozen(up), _frozen(down))
        return P

    def induced(self, members: Iterable[ElementId]) -> "FinitePoset":
        """Subposet on ``members``, keeping the declared element order: blocks
        of this poset's matrices, with no axiom check or product."""
        keep = sorted({self.index(x) for x in members})
        Q = FinitePoset.__new__(FinitePoset)
        Q.elements = tuple(self.elements[i] for i in keep)
        Q._index = {e: i for i, e in enumerate(Q.elements)}
        Q._set(_block(self._leq, keep), _block(self._strict, keep), None)
        return Q

    # ----------------------------------------------------------------- access

    @property
    def leq_matrix(self) -> np.ndarray:
        """Read-only: ``[i, j]`` is elements[i] <= elements[j]."""
        return self._leq

    @property
    def strict_matrix(self) -> np.ndarray:
        """Read-only: ``[i, j]`` is elements[i] < elements[j]."""
        return self._strict

    @property
    def comparability_matrix(self) -> np.ndarray:
        """Read-only and reflexive: ``[i, j]`` is elements[i] <= or >= elements[j].
        Computed on first read and kept: building a poset, its covers, its
        spine and its width, and checking a certificate, never read it."""
        if self._comparable is None:
            self._comparable = _frozen(self._leq | self._leq.T)
        return self._comparable

    @property
    def linear_extension(self) -> np.ndarray:
        """Read-only: element indices sorted by down-set size, then declared
        index, so every element comes after all the elements below it."""
        return self._ranked()[0]

    @property
    def cover_matrix(self) -> np.ndarray:
        """Read-only: ``[i, j]`` is elements[i] < elements[j] with nothing
        strictly between; a subposet computes it on first use."""
        if self._cover is None:
            self._cover = _frozen(self._strict & ~_bool_matmul(self._strict))
        return self._cover

    @property
    def chain_lengths(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(up, down)``: for each element, the size of the
        longest chain with it on top, and of the longest with it at the
        bottom.  ``up`` is the Mirsky level, counted from 1."""
        if self._lengths is None:
            self._lengths = tuple(map(_frozen, _close(_row_lists(self.cover_matrix))[3:]))
        return self._lengths

    def _ranked(self) -> tuple[np.ndarray, list[int]]:
        """The linear extension and each element's position in it, computed
        once per poset."""
        if self._order is None:
            # A uint8 view summed into uint32 counts takes about half the time
            # of the bool sum, which widens to int64.  A count is at most n,
            # and an n x n table with n >= 2**32 would not fit in memory.
            order = np.argsort(self._leq.view(np.uint8).sum(axis=0, dtype=np.uint32), kind="stable")
            order.setflags(write=False)
            self._order, self._position = order, np.argsort(order).tolist()
        return self._order, self._position

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and (self._leq == other._leq).all()

    def __hash__(self):
        return hash(self.elements)

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(x) from None

    def leq(self, x, y) -> bool:
        return bool(self._leq[self.index(x), self.index(y)])

    def lt(self, x, y) -> bool:
        return x != y and self.leq(x, y)

    def comparable(self, x, y) -> bool:
        i, j = self.index(x), self.index(y)
        return bool(self._leq[i, j] or self._leq[j, i])

    def incomparable(self, x, y) -> bool:
        return not self.comparable(x, y)

    def _members(self, mask: np.ndarray) -> frozenset:
        return frozenset(self.elements[j] for j in np.flatnonzero(mask))

    def up_set(self, x) -> frozenset:
        return self._members(self._strict[self.index(x), :])

    def down_set(self, x) -> frozenset:
        return self._members(self._strict[:, self.index(x)])

    def chain_sorted(self, chain: Iterable[ElementId]) -> list:
        """A chain's members in increasing order; raises NotAChain otherwise."""
        position = self._ranked()[1]
        idx = sorted((self.index(x) for x in chain), key=position.__getitem__)
        members = [self.elements[i] for i in idx]
        for a, b in zip(members, members[1:]):
            if not self.leq(a, b):
                raise NotAChain(a, b)
        return members

    # -------------------------------------------------------------- structure

    def covers(self) -> list[tuple]:
        """Cover pairs (v, u) with v > u and nothing strictly between.

        This is the transitive reduction of the strict order, listed by the
        declared order of v then u.
        """
        e = self.elements
        return [(e[v], e[u]) for v, u in zip(*self._cover_pairs())]

    def _cover_pairs(self) -> tuple[list[int], list[int]]:
        """``np.argwhere(cover_matrix.T)`` as lists (upper, lower): a
        stable sort of the row-major pairs by upper, which costs less than
        flattening the transposed matrix."""
        lower, upper = _true_pairs(self.cover_matrix)
        order = np.argsort(upper, kind="stable")
        return upper[order].tolist(), lower[order].tolist()

    def convex_hull(self, members: Iterable[ElementId]) -> frozenset:
        """Elements lying between two members: {x : exists y, z in X, y <= x <= z}."""
        idx = [self.index(m) for m in members]
        return self._members(self._leq[idx, :].any(axis=0) & self._leq[:, idx].any(axis=1))

    def wide_interval(self, members: Iterable[ElementId]) -> frozenset:
        """Elements constrained from outside exactly as the set X is.

        z qualifies when every element strictly above all of X is strictly
        above z, and dually below.  An empty X imposes no constraint, so the
        whole poset is returned.
        """
        idx = [self.index(m) for m in members]
        if not idx:
            return frozenset(self.elements)
        ok_up = (self._strict | ~self._strict[idx, :].all(axis=0)).all(axis=1)
        ok_down = (self._strict.T | ~self._strict[:, idx].all(axis=1)).all(axis=1)
        return self._members(ok_up & ok_down)

    # ------------------------------------------------------------- predicates

    def is_chain(self, members: Iterable[ElementId]) -> bool:
        idx = [self.index(m) for m in members]
        return bool(_block(self.comparability_matrix, idx).all())

    def is_antichain(self, members: Iterable[ElementId]) -> bool:
        """Pairwise incomparable; a member listed twice is comparable to itself.

        Two distinct members are comparable exactly when one is strictly
        below the other, so the members' strict rows, restricted to the
        members, say it: one row gather, no column gather."""
        idx = [self.index(m) for m in members]
        if len(set(idx)) < len(idx):
            return False
        inside = np.zeros(len(self), dtype=bool)
        inside[idx] = True
        return not (self._strict.take(idx, 0) & inside).any()

    def is_contiguous_chain(self, chain: Iterable[ElementId]) -> bool:
        """True when no outside element fits strictly inside the chain.

        An outside x "fits" when y < x < z for some chain members y, z and
        chain + {x} is still a chain.
        """
        idx = [self.index(c) for c in self.chain_sorted(set(chain))]
        fits = self.comparability_matrix[:, idx].all(axis=1)
        fits &= self._strict[idx, :].any(axis=0) & self._strict[:, idx].any(axis=1)
        fits[idx] = False
        return not fits.any()

    # ------------------------------------------------------------------- JSON

    def to_json_dict(self) -> dict:
        """JSON form with the cover relation as generators (lower, upper)."""
        e = self.elements
        return {"elements": list(e), "le": [[e[u], e[v]] for v, u in zip(*self._cover_pairs())]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _is_element_id(x) -> bool:
    return isinstance(x, (str, int)) and not isinstance(x, bool)


_ID_TYPES = {str, int}


def poset_from_json_dict(data: dict) -> FinitePoset:
    """Poset from ``{"elements": [...], "le": [[x, y], ...]}``.

    Elements are unique strings or integers; each ``le`` entry is a 2-list
    of elements meaning x <= y.  Anything else raises ValueError, naming the
    first bad pair.  The common case, where every value has exactly one of
    the JSON types allowed, is accepted by set-of-types tests alone.
    """
    if not isinstance(data, dict) or "elements" not in data or "le" not in data:
        raise ValueError("poset JSON needs 'elements' and 'le' keys")
    elements, le = data["elements"], data["le"]
    if not isinstance(elements, list) or not (
        set(map(type, elements)) <= _ID_TYPES or all(map(_is_element_id, elements))
    ):
        raise ValueError("poset JSON 'elements' must be a list of strings or integers")
    if not isinstance(le, list):
        raise ValueError("poset JSON 'le' must be a list of [lower, upper] pairs")
    if not (
        set(map(type, le)) <= {list}
        and set(map(len, le)) <= {2}
        and set(map(type, itertools.chain.from_iterable(le))) <= _ID_TYPES
    ):
        for p in le:
            if not (isinstance(p, list) and len(p) == 2 and all(_is_element_id(x) for x in p)):
                raise ValueError(f"bad le pair {p!r}")
    return FinitePoset.from_generators(elements, le)


def _decode_json(load, source, what: str):
    """``load(source)``, with a RecursionError reported as ValueError."""
    try:
        return load(source)
    except RecursionError:
        raise ValueError(f"{what} JSON nested too deeply") from None


def load_poset(path: str) -> FinitePoset:
    with open(path, "r", encoding="utf-8") as fh:
        return poset_from_json_dict(_decode_json(json.load, fh, "poset"))


def loads_poset(text: str) -> FinitePoset:
    return poset_from_json_dict(_decode_json(json.loads, text, "poset"))
