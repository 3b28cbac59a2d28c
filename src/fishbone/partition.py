"""Chains, antichain partitions, and spine certificates for finite posets.

A *spine* of a poset is a pair (C, A) where C is a chain and A is a partition
of the whole poset into antichains such that every part of A meets C in
exactly one element.  Every finite poset has one: take a maximum chain and
partition by longest-chain-from-below ("level") — each level is an antichain
and contains exactly one element of any maximum chain.

The module also provides maximum-antichain / minimum-chain-cover duals, a
thickness measure counting well-insulated incomparable partners, and the
greedy procedures that extend a spine partition to a larger poset or pick an
antichain transversal through a list of chains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .poset import (
    FinitePoset, PosetError, UnknownElement, _block, _bool_matmul, _decode_json, _is_element_id
)
from .report import FAIL, PASS, VerificationReport


class ThresholdTooSmall(PosetError):
    """Extension failed: some outside element could not be placed."""

    def __init__(self, element, reason: str):
        super().__init__(f"cannot place {element!r}: {reason}")
        self.element = element


class NoEligiblePoint(PosetError):
    """Greedy transversal failed: a chain offered no usable element."""

    def __init__(self, chain_index: int, reason: str):
        super().__init__(f"chain {chain_index}: {reason}")
        self.chain_index = chain_index


@dataclass(frozen=True)
class SpineCertificate:
    """A chain plus an antichain partition, both listed explicitly.

    ``chain`` is in increasing order; ``antichains`` lists the parts, each a
    tuple of elements.  Parts are indexed by position.
    """

    chain: tuple
    antichains: tuple

    def to_json_dict(self) -> dict:
        return {
            "chain": list(self.chain),
            "antichains": [list(a) for a in self.antichains],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _is_id_list(value) -> bool:
    return isinstance(value, list) and all(_is_element_id(x) for x in value)


def certificate_from_json_dict(data: dict) -> SpineCertificate:
    """Certificate from ``{"chain": [...], "antichains": [[...], ...]}``.

    ``chain`` is a list of element ids (strings or integers) and
    ``antichains`` a list of such lists.  Anything else raises ValueError.
    """
    if not isinstance(data, dict) or "chain" not in data or "antichains" not in data:
        raise ValueError("certificate JSON needs 'chain' and 'antichains' keys")
    chain, antichains = data["chain"], data["antichains"]
    if not _is_id_list(chain):
        raise ValueError("certificate JSON 'chain' must be a list of strings or integers")
    if not (isinstance(antichains, list) and all(_is_id_list(a) for a in antichains)):
        raise ValueError("certificate JSON 'antichains' must be a list of lists of strings or integers")
    return SpineCertificate(chain=tuple(chain), antichains=tuple(tuple(a) for a in antichains))


def load_certificate(path: str) -> SpineCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        return certificate_from_json_dict(_decode_json(json.load, fh, "certificate"))


# --------------------------------------------------------------------- height


def height_and_max_chain(P: FinitePoset) -> tuple[int, list]:
    """Height (longest chain size) and the first maximum chain.

    Among all maximum chains, returns the one whose successive elements have
    least declared index, chosen greedily from the bottom.
    """
    if not len(P):
        return 0, []
    up, down = (a.tolist() for a in P.chain_lengths)
    h = max(up)
    # up[i] + down[i] - 1 <= h, with equality exactly when i lies on some
    # maximum chain; such an i at level k has a chain of h - k elements
    # above it.  So each level takes the first such element in declared
    # order that lies strictly above the previous pick, and one exists.
    candidates: list[list[int]] = [[] for _ in range(h)]
    for i, (k, d) in enumerate(zip(up, down)):
        if k + d > h:
            candidates[k - 1].append(i)
    strict = P.strict_matrix
    chain = [candidates[0][0]]
    for at_level in candidates[1:]:
        below = chain[-1]
        pick = next((i for i in at_level if strict[below, i]), None)
        assert pick is not None, "a maximum chain element has no successor on the next level"
        chain.append(pick)
    return h, [P.elements[i] for i in chain]


def height(P: FinitePoset) -> int:
    return height_and_max_chain(P)[0]


def mirsky_partition(P: FinitePoset) -> list[list]:
    """Partition into antichains by longest-chain-from-below.

    Part k (0-based) holds the elements whose longest chain from below has
    size k+1; there are exactly height(P) parts and each is an antichain.
    """
    level = P.chain_lengths[0].tolist()
    parts: list[list] = [[] for _ in range(max(level, default=0))]
    for e, k in zip(P.elements, level):
        parts[k - 1].append(e)
    return parts


# ---------------------------------------------------------------------- width


def _successor_rows(P: FinitePoset) -> list[int]:
    """For each element, the elements strictly above it as one Python int:
    bit p stands for the element at position p of
    :attr:`FinitePoset.linear_extension` (down-set size, then declared
    index), so the lowest set bit is the nearest successor.  One column
    permutation of the strict matrix gives every row its bit order."""
    packed = np.packbits(P.strict_matrix.take(P.linear_extension, axis=1), axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(packed))]


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _alternating_layers(rows, match_l, match_r, free) -> tuple[list[int], list[int], int]:
    """Breadth-first layers of the alternating paths from the unmatched left
    vertices.

    Returns each left vertex's layer (-1 when unreached), for each layer the
    right vertices first reached from it (the OR of its rows minus those
    seen before), and all the right vertices reached.  The search stops
    after the first layer that reaches a free right vertex; when none does,
    it finds everything reachable.
    """
    dist = [-1] * len(rows)
    frontier = [u for u, v in enumerate(match_l) if v < 0]
    seen, reached = 0, []
    while frontier:
        reach = 0
        for u in frontier:
            dist[u] = len(reached)
            reach |= rows[u]
        reach &= ~seen
        seen |= reach
        reached.append(reach)
        if reach & free:
            break
        frontier = []
        while reach:
            frontier.append(match_r[_low_bit(reach)])
            reach &= reach - 1
    return dist, reached, seen


def _augment_shortest(rows, order, roots, steps, match_l, match_r) -> int:
    """One Hopcroft–Karp phase: augment along vertex-disjoint shortest
    augmenting paths until none is left in the layering.

    A left vertex at depth d of a path may step to the right vertices in
    ``steps[d]``: those matched into layer d + 1, or the free ones past the
    last layer.  A right vertex leaves its set once a search through it
    fails or a path uses it, so each step takes the lowest bit of
    ``rows[u] & steps[d]``, the nearest successor still open.  Returns the
    free right vertices left.
    """
    for root in roots:
        stack, via = [root], []  # the path: left vertices, right vertices
        while stack:
            hit = rows[stack[-1]] & steps[len(via)]
            if not hit:  # dead end: nothing may step back into it
                stack.pop()
                if via:
                    steps[len(via) - 1] &= ~(1 << via.pop())
                continue
            v = _low_bit(hit)
            via.append(v)
            if match_r[v] < 0:
                for d, (x, y) in enumerate(zip(stack, via)):
                    match_l[x], match_r[y] = order[y], x
                    steps[d] &= ~(1 << y)
                break
            stack.append(match_r[v])
    return steps[-1]


def _max_matching(P: FinitePoset) -> tuple[list[int], list[int]]:
    """Maximum matching of the bipartite graph x_L -- y_R for x < y, and a
    maximum antichain.

    Hopcroft–Karp, O(E·sqrt(V)) for E comparable pairs and V elements, on
    the bitset rows of :func:`_successor_rows`.  Left vertices are element
    indices, right vertices positions in the linear extension.  A greedy
    pass first matches each element, bottom up, to its nearest free
    successor, which already builds a chain cover along the order.  Each
    phase then layers the alternating paths breadth first and augments
    along vertex-disjoint shortest paths found by a layered depth-first
    search, with roots in declared order.  Both searches keep
    their own queues and stacks, so long paths never meet the interpreter's
    recursion limit.  The result is deterministic; which maximum matching
    it is is not part of the contract.

    Returns ``match_l`` (each left vertex's partner, -1 when unmatched) and,
    from the final layering that finds no augmenting path, the König
    antichain: the elements whose left copy is reachable from an unmatched
    left vertex and whose right copy is not.
    """
    n = len(P)
    order = P.linear_extension.tolist()
    rows = _successor_rows(P)
    match_l, match_r = [-1] * n, [-1] * n
    free = (1 << n) - 1
    for u in order:
        hit = rows[u] & free
        if hit:
            p = _low_bit(hit)
            match_l[u], match_r[p] = order[p], u
            free &= ~(1 << p)
    while True:
        dist, reached, seen = _alternating_layers(rows, match_l, match_r, free)
        if not (reached and reached[-1] & free):
            return match_l, sorted(u for p, u in enumerate(order) if dist[u] >= 0 and not seen >> p & 1)
        roots = [u for u in range(n) if dist[u] == 0]
        free = _augment_shortest(rows, order, roots, reached[:-1] + [free], match_l, match_r)


def width_and_dilworth(P: FinitePoset) -> tuple[int, list[list], list]:
    """Width, a minimum chain cover, and a maximum antichain.

    Both come from one Hopcroft–Karp matching (:func:`_max_matching`): the
    chain cover follows matched successors, and the antichain is König's
    complement of a minimum vertex cover.  The antichain meets every chain
    of the cover once, which proves both optimal (Dilworth).  Repeated calls
    agree; which minimum cover and maximum antichain come out is not pinned.
    """
    n = len(P)
    match_l, anti = _max_matching(P)

    # Chains: follow matched successors from every element that is not some
    # other element's matched upper neighbour.
    chains: list[list] = []
    successors = set(match_l)
    for start in range(n):
        if start in successors:
            continue
        cur = start
        chain = [cur]
        while match_l[cur] >= 0:
            cur = match_l[cur]
            chain.append(cur)
        chains.append([P.elements[i] for i in chain])
    width = len(chains)
    assert width == match_l.count(-1)
    antichain = [P.elements[i] for i in anti]
    assert len(antichain) == width
    assert P.is_antichain(antichain)
    return width, chains, antichain


def width(P: FinitePoset) -> int:
    return width_and_dilworth(P)[0]


# ---------------------------------------------------------------------- spine


def find_spine(P: FinitePoset) -> SpineCertificate:
    """A spine certificate: maximum chain + partition by chain-length level.

    Each level is an antichain (two comparable elements have different
    levels) and any maximum chain passes through every level exactly once.
    """
    h, chain = height_and_max_chain(P)
    parts = mirsky_partition(P)
    assert len(parts) == h
    return SpineCertificate(chain=tuple(chain), antichains=tuple(tuple(p) for p in parts))


def check_spine(P: FinitePoset, cert: SpineCertificate) -> VerificationReport:
    """Validate a spine certificate against a poset.

    Checks: chain is a chain listed in increasing order, antichains are
    antichains, they partition P, and each part meets the chain exactly once.
    """
    params = {"chain": len(cert.chain), "antichains": len(cert.antichains)}

    def fail(reason: str, witness) -> VerificationReport:
        return VerificationReport(
            claim="spine", params=params, status=FAIL, witness=witness, detail={"reason": reason}
        )

    try:
        chain = [P.index(x) for x in cert.chain]
    except UnknownElement as err:
        return fail("chain element not in poset", err.element)
    # One pass over the parts labels each element with the part that holds
    # it, up to the first member listed again (``repeat``: its part and the
    # member).  Before that member the parts are disjoint, so one comparison
    # of labels tests all their pairs at once.
    label, repeat = [-1] * len(P), None
    try:
        for k, part in enumerate(cert.antichains):
            for x in part:
                i = P.index(x)
                if repeat is None:
                    if label[i] < 0:
                        label[i] = k
                    else:
                        repeat = k, x
    except UnknownElement as err:
        return fail("antichain element not in poset", err.element)
    at = np.array(chain, dtype=np.intp)
    rises = P.strict_matrix[at[:-1], at[1:]]
    if not rises.all():
        k = int(rises.argmin())
        return fail("chain not strictly increasing", [cert.chain[k], cert.chain[k + 1]])
    # Two comparable members of one part clash in the strict matrix on the
    # lower one's row only, but both rows carry that part's label.
    labels = np.array(label, dtype=np.intp)
    clash = P.strict_matrix & (labels[:, None] == labels) & (labels >= 0)[:, None]
    if clash.any():
        k = int(labels[clash.any(axis=1)].min())
        return fail("part is not an antichain", list(cert.antichains[k]))
    if repeat is not None:
        k, x = repeat
        if not P.is_antichain(cert.antichains[k]):
            return fail("part is not an antichain", list(cert.antichains[k]))
        return fail("element in two parts", x)
    if -1 in label:
        return fail("element in no part", P.elements[label.index(-1)])
    meets = [0] * len(cert.antichains)
    for i in chain:
        meets[label[i]] += 1
    k = next((k for k, count in enumerate(meets) if count != 1), None)
    if k is not None:
        on_chain = set(cert.chain)
        hits = [x for x in cert.antichains[k] if x in on_chain]
        return fail("part must meet the chain exactly once", {"part": k, "hits": hits})
    return VerificationReport(claim="spine", params=params, status=PASS)


def is_spine(P: FinitePoset, cert: SpineCertificate) -> bool:
    return check_spine(P, cert).ok


# ------------------------------------------------------------------ thickness


def _thick_partners(P: FinitePoset, members: Sequence, ys: Sequence) -> np.ndarray:
    """``bool[len(ys), len(members)]``: entry [r, k] says members[k] is
    incomparable to ys[r] and comparable to every member comparable to
    ys[r].  One product finds, for each y and x, a member comparable to y
    but not to x."""
    idx = [P.index(x) for x in members]
    comp = P.comparability_matrix
    with_y = _block(comp, [P.index(y) for y in ys], idx)
    return ~with_y & ~_bool_matmul(with_y, ~_block(comp, idx))


def _thickness(P: FinitePoset, members: list, tau: int) -> tuple[VerificationReport, list, np.ndarray]:
    """The thickness report of ``members`` at tau, with the elements outside
    them in declared order and their partner matrix (one product)."""
    params = {"subset": len(members), "tau": tau}
    inside = set(members)
    outsiders = [y for y in P.elements if y not in inside]
    partners = _thick_partners(P, members, outsiders)
    degrees = partners.sum(axis=1)
    low = np.flatnonzero(degrees < tau)
    if low.size:
        rep = VerificationReport(
            claim="thickness",
            params=params,
            status=FAIL,
            witness=outsiders[low[0]],
            detail={"degree": int(degrees[low[0]])},
        )
    else:
        detail = {"min_degree": int(degrees.min())} if outsiders else {}
        rep = VerificationReport(claim="thickness", params=params, status=PASS, detail=detail)
    return rep, outsiders, partners


def strong_thick_check(P: FinitePoset, F: Iterable, tau: int) -> VerificationReport:
    """Check every element outside F has thickness degree at least tau in F."""
    return _thickness(P, list(set(F)), tau)[0]


def extend_spine_partition(
    P: FinitePoset, F: Iterable, cert: SpineCertificate, tau: int
) -> SpineCertificate:
    """Extend a spine certificate of the subposet on F to all of P.

    Requires cert to be a valid spine of the subposet on F (checked on P's
    matrices restricted to F, with no product), and every outside element
    to have thickness degree >= tau in F (:class:`ThresholdTooSmall`).  The
    thickness check and a greedy placement read one partner matrix: outside
    elements, in declared order, each go to the lowest-indexed unused part
    holding one of their thick partners, so a part absorbs at most one.

    The result is a spine certificate of P with no further check.  The
    chain and the chain members of each part are those of cert, and every
    outside element joins exactly one part.  The part stays an antichain:
    an unused part holds only members of F, one of them y's partner x.  A
    member w of the part comparable to y would, by the partner condition, be
    comparable to x; in an antichain that makes w = x, which is
    incomparable to y.
    """
    members = list(set(F))
    rep = check_spine(P.induced(members), cert)
    if not rep.ok:
        raise ValueError(f"invalid certificate for subset: {rep.detail.get('reason')}")
    rep, outsiders, partners = _thickness(P, members, tau)
    if not rep.ok:
        raise ThresholdTooSmall(rep.witness, f"thickness degree {rep.detail['degree']} < {tau}")

    part_of = {x: k for k, part in enumerate(cert.antichains) for x in part}
    new_parts = [list(part) for part in cert.antichains]
    used: set[int] = set()
    for y, row in zip(outsiders, partners):
        free = {part_of[members[k]] for k in np.flatnonzero(row)} - used
        if not free:
            raise ThresholdTooSmall(y, "no unused antichain can absorb it")
        k = min(free)
        new_parts[k].append(y)
        used.add(k)
    return SpineCertificate(
        chain=cert.chain, antichains=tuple(tuple(p) for p in new_parts)
    )


# ------------------------------------------------------------- greedy picking


def greedy_antichain_from_chains(P: FinitePoset, chains: Sequence[Iterable]) -> list:
    """One element per chain, forming an antichain, chosen greedily.

    From each chain, restrict to the maximal final segment (upper part of
    the chain) whose members are all incomparable to everything already
    picked, and take that segment's least element; for the first chain that
    is its least element.  :class:`NoEligiblePoint` if a chain has no such
    segment (an empty chain included) or repeats an earlier chain's element.
    """
    comp = P.comparability_matrix
    at: list[int] = []
    for ci, chain in enumerate(chains):
        idx = [P.index(x) for x in P.chain_sorted(set(chain))]
        if not set(at).isdisjoint(idx):
            raise NoEligiblePoint(ci, "chain repeats an already picked element")
        blocked = np.flatnonzero(_block(comp, idx, at).any(axis=1))
        start = int(blocked[-1]) + 1 if blocked.size else 0
        if start == len(idx):
            raise NoEligiblePoint(ci, "no final segment avoids the picks so far")
        at.append(idx[start])
    picked = [P.elements[i] for i in at]
    assert P.is_antichain(picked)
    return picked
