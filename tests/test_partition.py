"""Spine certificates, the two min-max partitions, and the greedy drivers."""

import functools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fishbone.partition import (
    NoEligiblePoint,
    SpineCertificate,
    ThresholdTooSmall,
    _successor_rows,
    _thick_partners,
    certificate_from_json_dict,
    check_spine,
    extend_spine_partition,
    find_spine,
    greedy_antichain_from_chains,
    height,
    height_and_max_chain,
    is_spine,
    mirsky_partition,
    strong_thick_check,
    width,
    width_and_dilworth,
)
from fishbone.poset import FinitePoset
from fishbone.report import FAIL, PASS, VerificationReport
from fishbone.random_posets import random_poset


def diamond() -> FinitePoset:
    return FinitePoset.from_generators(
        "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


def grid(k: int = 3) -> FinitePoset:
    els = [(i, j) for i in range(k) for j in range(k)]
    pairs = [((i, j), (i, j + 1)) for i in range(k) for j in range(k - 1)]
    pairs += [((i, j), (i + 1, j)) for i in range(k - 1) for j in range(k)]
    return FinitePoset.from_generators(els, pairs)


@st.composite
def posets(draw, max_size: int = 8) -> FinitePoset:
    seed = draw(st.integers(0, 2**32 - 1))
    return random_poset(random.Random(seed), max_size=max_size)


# ------------------------------------------------------- height and chains


def test_diamond_height_and_chain():
    h, chain = height_and_max_chain(diamond())
    assert h == 3
    assert chain == ["a", "b", "d"]  # lexicographically least maximum chain


def test_grid_height_and_chain():
    P = grid()
    h, chain = height_and_max_chain(P)
    assert h == 5
    assert chain == [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]


def test_empty_and_singleton():
    E = FinitePoset.from_generators([], [])
    assert height_and_max_chain(E) == (0, [])
    S = FinitePoset.from_generators(["x"], [])
    assert height_and_max_chain(S) == (1, ["x"])
    assert width(S) == 1


def maximum_chains_by_brute_force(P: FinitePoset) -> list[tuple[int, ...]]:
    """Every chain of maximum size, as declared indices read bottom-up.

    A maximum chain is saturated from a minimal to a maximal element, so
    every path along the covers from a minimal element is walked; the
    covers come from the table by the triple loop."""
    n = len(P)
    lt = [[a and i != j for j, a in enumerate(row)] for i, row in enumerate(P.leq_matrix.tolist())]
    covers = [[j for j in range(n) if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))] for i in range(n)]
    stack = [(i,) for i in range(n) if not any(lt[j][i] for j in range(n))]
    chains = []
    while stack:
        chain = stack.pop()
        stack += [chain + (j,) for j in covers[chain[-1]]]
        if not covers[chain[-1]]:
            chains.append(chain)
    h = max(map(len, chains), default=0)
    return [c for c in chains if len(c) == h]


def tall_poset(seed: int, height: int = 55) -> FinitePoset:
    """Levels 0..height-1 of one element each, two on six of them, every
    element above a drawn nonempty part of the level below; four side
    elements each skip one level, and a separate short chain and an
    isolated element lie off every maximum chain.  Declared order shuffled."""
    rng = random.Random(seed)
    wide = set(rng.sample(range(1, height), 6))
    levels = [[(k, 0), (k, 1)] if k in wide else [(k, 0)] for k in range(height)]
    pairs = [
        (x, y)
        for lower, upper in zip(levels, levels[1:])
        for y in upper
        for x in rng.sample(lower, rng.randint(1, len(lower)))
    ]
    side = [("s", k) for k in range(7)]
    for s in side[:4]:
        k = rng.randrange(height - 2)
        pairs += [(rng.choice(levels[k]), s), (s, rng.choice(levels[k + 2]))]
    pairs += [(side[4], side[5])]
    elements = [x for level in levels for x in level] + side
    rng.shuffle(elements)
    return FinitePoset.from_generators(elements, pairs)


@given(posets(max_size=9))
@settings(max_examples=200, deadline=None)
def test_max_chain_is_the_least_maximum_chain_by_brute_force(P):
    chains = maximum_chains_by_brute_force(P)
    h, chain = height_and_max_chain(P)
    assert h == len(chains[0])
    assert tuple(P.index(x) for x in chain) == min(chains)


@pytest.mark.parametrize("seed", range(3))
def test_max_chain_of_a_tall_poset_is_the_least_by_brute_force(seed):
    P = tall_poset(seed)
    chains = maximum_chains_by_brute_force(P)
    h, chain = height_and_max_chain(P)
    assert h == len(chains[0]) >= 50 and len(chains) > 1
    assert tuple(P.index(x) for x in chain) == min(chains)


def test_mirsky_levels_of_grid_are_antidiagonals():
    P = grid()
    parts = mirsky_partition(P)
    assert len(parts) == 5
    for k, part in enumerate(parts):
        assert sorted(part) == sorted((i, j) for i, j in P.elements if i + j == k)


def test_antichain_height():
    A = FinitePoset.from_generators("xyz", [])
    assert height(A) == 1
    assert mirsky_partition(A) == [["x", "y", "z"]]


# ---------------------------------------------------------- width / Dilworth


def test_diamond_width():
    w, chains, anti = width_and_dilworth(diamond())
    assert w == 2
    assert sorted(anti) == ["b", "c"]
    assert sorted(len(c) for c in chains) == [1, 3]
    assert sorted(x for c in chains for x in c) == list("abcd")


def test_grid_width():
    P = grid()
    w, chains, anti = width_and_dilworth(P)
    assert w == 3
    assert len(anti) == 3 and P.is_antichain(anti)
    assert len(chains) == 3
    for c in chains:
        assert P.is_chain(c)
    assert sorted(x for c in chains for x in c) == sorted(P.elements)


def test_width_survives_a_long_augmenting_path():
    # a_i < b_i, b_{i+1} with the b's declared in descending order: the
    # greedy seed matches a_0 to b_0 and every later a_i to b_{i+1}, so z's
    # augmenting path runs through every a_i but a_0 down to b_1, far
    # deeper than the recursion limit.
    k = 1200
    a = [f"a{i}" for i in range(k - 1)]
    b = [f"b{i}" for i in range(k)]
    pairs = [(a[i], b[i]) for i in range(k - 1)] + [(a[i], b[i + 1]) for i in range(k - 1)]
    P = FinitePoset.from_generators(a + b[::-1] + ["z"], pairs + [("z", b[k - 1])])
    w, chains, anti = width_and_dilworth(P)
    assert w == k and len(chains) == k and len(anti) == k
    assert sorted(x for c in chains for x in c) == sorted(P.elements)
    assert all(P.is_chain(c) for c in chains) and P.is_antichain(anti)


def test_chain_poset_width_one():
    C = FinitePoset.from_generators("abc", [("a", "b"), ("b", "c")])
    w, chains, anti = width_and_dilworth(C)
    assert w == 1
    assert chains == [["a", "b", "c"]]
    assert anti in (["a"], ["b"], ["c"])


def _brute_min_chain_cover(P: FinitePoset) -> int:
    """Fewest chains partitioning P, by trying every placement."""
    comp = P.comparability_matrix.tolist()
    n = len(P)
    best = n
    chains: list[list[int]] = []

    def place(i: int) -> None:
        nonlocal best
        if len(chains) >= best:
            return
        if i == n:
            best = len(chains)
            return
        for c in chains:
            if all(comp[i][j] for j in c):
                c.append(i)
                place(i + 1)
                c.pop()
        chains.append([i])
        place(i + 1)
        chains.pop()

    place(0)
    return best


@given(posets(max_size=12))
@settings(max_examples=80, deadline=None)
def test_width_equals_brute_force_min_chain_cover(P):
    assert width(P) == _brute_min_chain_cover(P)


def test_linear_extension_and_successor_lists_follow_the_rank():
    for seed in range(30):
        P = random_poset(random.Random(seed), max_size=12)
        down = P.leq_matrix.sum(axis=0)
        rank = {i: (int(down[i]), i) for i in range(len(P))}
        order = P.linear_extension.tolist()
        assert order == sorted(range(len(P)), key=rank.get)
        chain = height_and_max_chain(P)[1][::-1]
        assert P.chain_sorted(chain) == sorted(chain, key=lambda x: rank[P.index(x)])
        for u, row in enumerate(_successor_rows(P)):
            nbrs = [order[p] for p in range(row.bit_length()) if row >> p & 1]
            assert nbrs == sorted(np.flatnonzero(P.strict_matrix[u]).tolist(), key=rank.get)


# Seeded posets at scale, each with a hidden order on 0..n-1 declared under a
# random relabelling, so the declared order says nothing about the order.


def _relabelled(n: int, pairs, rng: random.Random) -> list[tuple[int, int]]:
    label = rng.sample(range(n), n)
    return [(label[a], label[b]) for a, b in pairs]


def _dim2_poset(n: int, rng: random.Random) -> FinitePoset:
    """The intersection of two random linear orders."""
    x = np.array(rng.sample(range(n), n))
    y = np.array(rng.sample(range(n), n))
    return FinitePoset(range(n), (x[:, None] <= x) & (y[:, None] <= y))


def _layered_pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Seven layers; each element points to up to three elements in each of
    the next two layers."""
    layer = sorted(rng.randrange(7) for _ in range(n))
    members = [[i for i in range(n) if layer[i] == k] for k in range(9)]
    pairs = [
        (i, j)
        for i in range(n)
        for up in (members[layer[i] + 1], members[layer[i] + 2])
        for j in rng.sample(up, min(3, len(up)))
    ]
    return _relabelled(n, pairs, rng)


def _deep_pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Five long chains through 0..n-1, tied by sparse short upward edges."""
    owner = [rng.randrange(5) for _ in range(n)]
    last: dict[int, int] = {}
    pairs = []
    for i in range(n):
        if owner[i] in last:
            pairs.append((last[owner[i]], i))
        last[owner[i]] = i
    for _ in range(n // 4):
        a = rng.randrange(n - 1)
        pairs.append((a, min(n - 1, a + rng.randint(1, 30))))
    return _relabelled(n, pairs, rng)


@functools.cache
def _scale_generators(shape: str, n: int) -> list[tuple[int, int]]:
    """Generator pairs of each scale poset.  layered and deep are built from
    theirs; dim2 is given its covers, found by an exact float64 product on
    its table, plus n comparable pairs that are redundant."""
    rng = random.Random(f"{shape}-{n}")
    if shape != "dim2":
        return {"layered": _layered_pairs, "deep": _deep_pairs}[shape](n, rng)
    strict = _scale_poset(shape, n).strict_matrix
    fl = strict.astype(np.float64)
    covers = strict & ~(fl @ fl > 0)
    extra = rng.sample(np.argwhere(strict).tolist(), n)
    return [(a, b) for a, b in np.argwhere(covers).tolist() + extra]


@functools.cache
def _scale_poset(shape: str, n: int) -> FinitePoset:
    if shape == "dim2":
        return _dim2_poset(n, random.Random(f"{shape}-{n}"))
    return FinitePoset.from_generators(range(n), _scale_generators(shape, n))


SCALE_CASES = [(shape, n) for n in (300, 1000) for shape in ("dim2", "layered", "deep")]


@pytest.mark.parametrize("shape,n", SCALE_CASES)
def test_width_at_scale_is_proved_by_an_equal_cover_and_antichain(shape, n):
    P = _scale_poset(shape, n)
    w, chains, anti = width_and_dilworth(P)
    assert len(chains) == w and len(anti) == w
    # The chains partition P, each listed in increasing order ...
    assert sorted(P.index(x) for c in chains for x in c) == list(range(n))
    for c in chains:
        assert all(P.lt(a, b) for a, b in zip(c, c[1:]))
    # ... and the antichain meets each of them, so both are optimal.
    assert len(set(anti)) == w and P.is_antichain(anti)
    assert width_and_dilworth(P) == (w, chains, anti)


def test_width_memory_does_not_grow_with_the_comparable_pairs():
    # deep-3000 has about 4.3 million comparable pairs: a width that kept an
    # entry per pair would trace hundreds of MB, one bitset row per element
    # about 10 MB.
    P = _scale_poset("deep", 3000)
    tracemalloc.start()
    try:
        width_and_dilworth(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("shape,n", [c for c in SCALE_CASES if c != ("deep", 1000)])
def test_width_at_scale_matches_scipy_matching(shape, n):
    # deep-1000 is left out: scipy's matching takes minutes on it.
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    P = _scale_poset(shape, n)
    match = csgraph.maximum_bipartite_matching(
        sparse.csr_matrix(P.strict_matrix), perm_type="column"
    )
    assert width(P) == n - int((match >= 0).sum())


def _longest_paths(G, order) -> list[int]:
    """For each node of G, the number of nodes on the longest path ending
    there, relaxing the arcs along the topological ``order``."""
    length = dict.fromkeys(G, 1)
    for v in order:
        for w in G.successors(v):
            length[w] = max(length[w], length[v] + 1)
    return [length[i] for i in range(len(G))]


@pytest.mark.parametrize("shape,n", SCALE_CASES)
def test_generator_pass_at_scale_matches_networkx(shape, n):
    nx = pytest.importorskip("networkx")
    pairs = _scale_generators(shape, n)
    P = FinitePoset.from_generators(range(n), pairs)
    assert P == _scale_poset(shape, n)
    G = nx.DiGraph(pairs)
    G.add_nodes_from(range(n))
    closed = np.array(list(nx.transitive_closure_dag(G).edges()), dtype=np.intp).reshape(-1, 2)
    closure = np.eye(n, dtype=bool)
    closure[closed[:, 0], closed[:, 1]] = True
    assert (P.leq_matrix == closure).all()
    assert P.covers() == sorted((v, u) for u, v in nx.transitive_reduction(G).edges())
    up, down = P.chain_lengths
    assert up.tolist() == _longest_paths(G, nx.topological_sort(G))
    R = G.reverse()
    assert down.tolist() == _longest_paths(R, nx.topological_sort(R))
    # A poset given the same table gets its covers from the constructor's
    # product and its lengths on first use.
    T = FinitePoset(range(n), P.leq_matrix)
    assert (T.cover_matrix == P.cover_matrix).all()
    assert all((a == b).all() for a, b in zip(T.chain_lengths, P.chain_lengths))


@given(posets(max_size=12))
@settings(max_examples=80)
def test_table_built_chain_lengths_match_the_longest_path_dp(P):
    nx = pytest.importorskip("networkx")
    T = FinitePoset(P.elements, P.leq_matrix)
    G = nx.DiGraph(np.argwhere(T.strict_matrix).tolist())
    G.add_nodes_from(range(len(T)))
    up, down = T.chain_lengths
    assert up.tolist() == _longest_paths(G, nx.topological_sort(G))
    R = G.reverse()
    assert down.tolist() == _longest_paths(R, nx.topological_sort(R))


# ------------------------------------------------------- spine certificates


def test_find_spine_on_diamond():
    P = diamond()
    cert = find_spine(P)
    assert cert.chain == ("a", "b", "d")
    assert cert.antichains == (("a",), ("b", "c"), ("d",))
    assert is_spine(P, cert)


def test_spine_part_count_is_height():
    P = grid()
    cert = find_spine(P)
    assert len(cert.antichains) == height(P)
    assert is_spine(P, cert)


def test_check_spine_failure_reasons():
    P = diamond()

    def reason(cert):
        rep = check_spine(P, cert)
        assert not rep.ok
        return rep.detail["reason"]

    good = find_spine(P)
    assert check_spine(P, good).ok

    assert (
        reason(SpineCertificate(("a", "z"), good.antichains))
        == "chain element not in poset"
    )
    assert (
        reason(SpineCertificate(good.chain, (("a",), ("b", "z"), ("d",))))
        == "antichain element not in poset"
    )
    assert (
        reason(SpineCertificate(("b", "a", "d"), good.antichains))
        == "chain not strictly increasing"
    )
    assert (
        reason(SpineCertificate(("a", "d"), (("a",), ("b", "d"), ("c",))))
        == "part is not an antichain"
    )
    assert (
        reason(SpineCertificate(good.chain, (("a",), ("b", "c"), ("d",), ("c",))))
        == "element in two parts"
    )
    assert (
        reason(SpineCertificate(good.chain, (("a",), ("b",), ("d",))))
        == "element in no part"
    )
    assert (
        reason(SpineCertificate(("a", "d"), (("a",), ("b", "c"), ("d",))))
        == "part must meet the chain exactly once"
    )


def _check_spine_by_loops(P: FinitePoset, cert: SpineCertificate) -> VerificationReport:
    """Reference for check_spine: every member, pair and part in turn."""
    params = {"chain": len(cert.chain), "antichains": len(cert.antichains)}

    def fail(reason: str, witness) -> VerificationReport:
        return VerificationReport(
            claim="spine", params=params, status=FAIL, witness=witness, detail={"reason": reason}
        )

    for x in cert.chain:
        if x not in P:
            return fail("chain element not in poset", x)
    for part in cert.antichains:
        for x in part:
            if x not in P:
                return fail("antichain element not in poset", x)
    for a, b in zip(cert.chain, cert.chain[1:]):
        if not P.lt(a, b):
            return fail("chain not strictly increasing", [a, b])
    seen: dict = {}
    for k, part in enumerate(cert.antichains):
        if not P.is_antichain(part):
            return fail("part is not an antichain", list(part))
        for x in part:
            if x in seen:
                return fail("element in two parts", x)
            seen[x] = k
    missing = [e for e in P.elements if e not in seen]
    if missing:
        return fail("element in no part", missing[0])
    chain_set = set(cert.chain)
    if len(chain_set) != len(cert.chain):
        return fail("chain repeats an element", cert.chain[0])
    for k, part in enumerate(cert.antichains):
        hits = [x for x in part if x in chain_set]
        if len(hits) != 1:
            return fail("part must meet the chain exactly once", {"part": k, "hits": hits})
    return VerificationReport(claim="spine", params=params, status=PASS)


@st.composite
def mutated_spines(draw):
    """A poset and its spine certificate, changed by a few random edits:
    members moved, copied, dropped or replaced by unknown ids, parts split,
    merged, emptied or reordered, and chain members swapped or repeated."""
    P = draw(posets(max_size=9))
    cert = find_spine(P)
    chain = list(cert.chain)
    parts = [list(p) for p in cert.antichains]
    pool = st.sampled_from([*P.elements, "zz"])
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.integers(0, 8))
        k = draw(st.integers(0, len(parts) - 1)) if parts else 0
        if edit == 0 and parts and parts[k]:
            x = parts[k].pop(draw(st.integers(0, len(parts[k]) - 1)))
            parts[draw(st.integers(0, len(parts) - 1))].append(x)
        elif edit == 1 and parts:
            parts[k].insert(draw(st.integers(0, len(parts[k]))), draw(pool))
        elif edit == 2 and parts and parts[k]:
            parts[k].pop(draw(st.integers(0, len(parts[k]) - 1)))
        elif edit == 3 and parts:
            parts.insert(draw(st.integers(0, len(parts))), parts.pop(k))
        elif edit == 4 and len(parts) > 1:
            parts[k - 1] += parts.pop(k)
        elif edit == 5 and parts:
            parts.append([])
        elif edit == 6 and len(chain) > 1:
            i = draw(st.integers(0, len(chain) - 2))
            chain[i], chain[i + 1] = chain[i + 1], chain[i]
        elif edit == 7 and chain:
            chain.insert(draw(st.integers(0, len(chain))), draw(pool))
        elif edit == 8 and chain:
            chain.pop(draw(st.integers(0, len(chain) - 1)))
    return P, SpineCertificate(tuple(chain), tuple(map(tuple, parts)))


@given(mutated_spines())
@settings(max_examples=300)
def test_check_spine_matches_the_loop_reference(case):
    P, cert = case
    assert check_spine(P, cert) == _check_spine_by_loops(P, cert)


def test_certificate_json_round_trip():
    cert = find_spine(diamond())
    again = certificate_from_json_dict(json.loads(cert.dumps()))
    assert tuple(again.chain) == cert.chain
    assert tuple(tuple(p) for p in again.antichains) == cert.antichains


# ----------------------------------------------------- thickness + extension


def test_thick_degree_on_diamond():
    P = diamond()
    assert _thick_partners(P, ["a", "b", "d"], ["c"]).sum() == 1
    rep = strong_thick_check(P, {"a", "b", "d"}, 1)
    assert rep.ok and rep.detail["min_degree"] == 1
    rep = strong_thick_check(P, {"a", "b", "d"}, 2)
    assert not rep.ok and rep.witness == "c" and rep.detail["degree"] == 1


@given(posets(), st.data())
def test_thick_degree_matches_its_definition(P, data):
    F = data.draw(st.lists(st.sampled_from(P.elements), unique=True))
    degrees = _thick_partners(P, F, P.elements).sum(axis=1)
    for y, degree in zip(P.elements, degrees):
        want = sum(
            1
            for x in F
            if not P.comparable(x, y)
            and all(not P.comparable(z, y) or P.comparable(z, x) for z in F)
        )
        assert degree == want


def test_extend_spine_partition_absorbs_outsider():
    P = diamond()
    F = {"a", "b", "d"}
    cert = SpineCertificate(("a", "b", "d"), (("a",), ("b",), ("d",)))
    ext = extend_spine_partition(P, F, cert, tau=1)
    assert ext.chain == ("a", "b", "d")
    assert ext.antichains == (("a",), ("b", "c"), ("d",))
    assert is_spine(P, ext)


def test_extend_rejects_small_threshold():
    P = diamond()
    cert = SpineCertificate(("a", "b", "d"), (("a",), ("b",), ("d",)))
    with pytest.raises(ThresholdTooSmall):
        extend_spine_partition(P, {"a", "b", "d"}, cert, tau=2)


def test_extend_rejects_invalid_certificate():
    P = diamond()
    bad = SpineCertificate(("a", "d"), (("a", "b"), ("d",)))
    with pytest.raises(ValueError, match="invalid certificate"):
        extend_spine_partition(P, {"a", "b", "d"}, bad, tau=1)


def test_extend_places_outsiders_in_distinct_parts():
    P = FinitePoset.from_generators(
        ["u", "v", "c", "d"], [("u", "v")]
    )
    cert = SpineCertificate(("u", "v"), (("u",), ("v",)))
    ext = extend_spine_partition(P, {"u", "v"}, cert, tau=2)
    assert ext.antichains == (("u", "c"), ("v", "d"))
    assert is_spine(P, ext)


def test_extend_fails_when_parts_run_out():
    # Both outsiders can only use the single part, which is absorbed once.
    P = FinitePoset.from_generators(["u", "v", "c", "d"], [])
    cert = SpineCertificate(("u",), (("u", "v"),))
    with pytest.raises(ThresholdTooSmall):
        extend_spine_partition(P, {"u", "v"}, cert, tau=2)


# ------------------------------------------------------------ greedy picking


def ladder(k: int, ymax: int = 3):
    els = [(i, y) for i in range(k) for y in range(ymax + 1)]
    pairs = [((i, y), (i, y + 1)) for i in range(k) for y in range(ymax)]
    pairs += [((i + 1, y), (i, y + 1)) for i in range(k - 1) for y in range(ymax)]
    P = FinitePoset.from_generators(els, pairs)
    chains = [[(i, y) for y in range(ymax + 1)] for i in range(k)]
    return P, chains


def test_greedy_on_ladder_picks_column_bottoms():
    P, chains = ladder(4)
    assert greedy_antichain_from_chains(P, chains) == [(i, 0) for i in range(4)]


def test_greedy_moves_up_when_bottom_is_blocked():
    P = FinitePoset.from_generators(
        ["a", "b1", "b2"], [("b1", "a"), ("b1", "b2")]
    )
    assert greedy_antichain_from_chains(P, [["a"], ["b1", "b2"]]) == ["a", "b2"]


def test_greedy_raises_when_no_segment_is_free():
    P = FinitePoset.from_generators("ab", [("a", "b")])
    with pytest.raises(NoEligiblePoint):
        greedy_antichain_from_chains(P, [["a"], ["b"]])


@pytest.mark.parametrize("chains, index", [([[], ["a"]], 0), ([["a"], []], 1)])
def test_greedy_raises_on_an_empty_chain(chains, index):
    P = FinitePoset.from_generators("ab", [])
    with pytest.raises(NoEligiblePoint) as exc:
        greedy_antichain_from_chains(P, chains)
    assert exc.value.chain_index == index
    assert str(exc.value) == f"chain {index}: no final segment avoids the picks so far"


def test_greedy_raises_on_repeated_element():
    P = FinitePoset.from_generators("a", [])
    with pytest.raises(NoEligiblePoint):
        greedy_antichain_from_chains(P, [["a"], ["a"]])


# ------------------------------------------------------------- random posets


def test_random_poset_is_seed_deterministic():
    a = random_poset(random.Random(99), max_size=9)
    b = random_poset(random.Random(99), max_size=9)
    assert a == b and a.elements == b.elements
    assert 1 <= len(a) <= 9


def test_random_posets_vary_with_the_seed():
    seen = {random_poset(random.Random(s)).dumps() for s in range(20)}
    assert len(seen) > 1


@given(posets())
@settings(max_examples=60)
def test_spines_validate_on_random_posets(P):
    cert = find_spine(P)
    assert is_spine(P, cert)
    assert len(cert.antichains) == height(P)


@given(posets())
@settings(max_examples=60)
def test_minmax_inequalities(P):
    n = len(P)
    h, chain = height_and_max_chain(P)
    w, chains, anti = width_and_dilworth(P)
    assert h * w >= n
    assert len(chain) == h and P.is_chain(chain)
    assert len(anti) == w and P.is_antichain(anti)
    assert sorted(map(P.index, (x for c in chains for x in c))) == list(range(n))
    assert len(chains) == w


@given(posets(max_size=12))
@settings(max_examples=80)
def test_table_and_generator_built_posets_agree(P):
    # from_generators fills the covers and chain lengths in its pass; the
    # same table given to the constructor gets its covers from its product
    # and its chain lengths on first use.
    T = FinitePoset(P.elements, P.leq_matrix)
    assert T.covers() == P.covers()
    assert find_spine(T) == find_spine(P)
    assert height_and_max_chain(T) == height_and_max_chain(P)
    assert mirsky_partition(T) == mirsky_partition(P)
