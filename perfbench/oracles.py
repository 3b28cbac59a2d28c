"""Oracles for the benchmark, independent of the code they check.

Each ``check_*`` function takes one operation's recorded output and the
oracle's data, and returns the list of layers whose output was wrong (an
empty list when the operation is correct).  The benchmark counts an
operation with a non-empty list, or one that raised, as failed.

Matrices are indexed by the declared element order; ``leq`` is reflexive.
Boolean products go through float64 BLAS: entries are counts of at most n,
so they are exact and ``> 0`` is the boolean product.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching


def bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.float64) @ b.astype(np.float64)) > 0


def reduction(strict: np.ndarray) -> list[tuple[int, int]]:
    """Covers (lower, upper) of a transitively closed strict order."""
    cov = strict & ~bool_product(strict, strict)
    return [(int(a), int(b)) for a, b in np.argwhere(cov)]


def closure_from_edges(n: int, pairs) -> np.ndarray:
    """Reflexive closure of generator pairs (lower, upper), by networkx."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(p for p in pairs if p[0] != p[1])
    leq = np.eye(n, dtype=bool)
    closed = nx.transitive_closure_dag(g)
    for a, b in closed.edges():
        leq[a, b] = True
    return leq


def poset_oracle(leq: np.ndarray) -> dict:
    """Covers, height and width of a closed order, each from a library
    routine: networkx transitive reduction and longest path, scipy
    bipartite matching."""
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((int(a), int(b)) for a, b in np.argwhere(strict))
    covers = set(nx.transitive_reduction(g).edges())
    height = nx.dag_longest_path_length(nx.DiGraph(list(covers))) + 1 if covers else min(n, 1)
    match = maximum_bipartite_matching(csr_matrix(strict.astype(np.int8)), perm_type="column")
    width = n - int((match >= 0).sum())
    return {"covers": covers, "height": height, "width": width}


def check_axioms(leq: np.ndarray) -> bool:
    """Reflexive, antisymmetric and transitive, by an exact product."""
    n = leq.shape[0]
    eye = np.eye(n, dtype=bool)
    if not leq.diagonal().all() or ((leq & leq.T) & ~eye).any():
        return False
    return not (bool_product(leq, leq) & ~leq).any()


# ------------------------------------------------------------------ certify


def spine_ok(leq: np.ndarray, chain: list[int], parts: list[list[int]], height: int) -> bool:
    """The benchmark's own spine checker: an increasing chain, antichain
    parts that partition the poset, each part meeting the chain once, and
    as many parts as the height."""
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    if len(set(chain)) != len(chain):
        return False
    if any(not strict[a, b] for a, b in zip(chain, chain[1:])):
        return False
    flat = [x for p in parts for x in p]
    if sorted(flat) != list(range(n)):
        return False
    on_chain = np.zeros(n, dtype=bool)
    on_chain[chain] = True
    for p in parts:
        if strict[np.ix_(p, p)].any() or int(on_chain[p].sum()) != 1:
            return False
    return len(parts) == height


def dilworth_ok(leq: np.ndarray, width: int, chains: list[list[int]], antichain: list[int]) -> bool:
    """The chains are a cover of that many chains, and the antichain is an
    antichain of the same size."""
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    if len(chains) != width or len(antichain) != width:
        return False
    if sorted(x for c in chains for x in c) != list(range(n)):
        return False
    if any(not strict[a, b] for c in chains for a, b in zip(c, c[1:])):
        return False
    return not strict[np.ix_(antichain, antichain)].any()


def check_certify(out: dict, leq: np.ndarray, oracle: dict) -> list[str]:
    """One certify operation: closure and covers (poset), certificate,
    its check and the Dilworth decomposition (partition)."""
    bad = []
    if not np.array_equal(out["closure"], leq):
        bad.append("poset")
    if set(map(tuple, out["covers"])) != oracle["covers"] or len(out["covers"]) != len(oracle["covers"]):
        bad.append("poset")
    chain, parts = out["chain"], out["parts"]
    valid = spine_ok(leq, chain, parts, oracle["height"])
    if not valid or out["check"] != "pass":
        bad.append("partition")
    if out["width"] != oracle["width"] or not dilworth_ok(leq, out["width"], out["chains"], out["antichain"]):
        bad.append("partition")
    return sorted(set(bad))


# ----------------------------------------------------------------- families


def check_window(out: dict, expected_n: int, sample: list[tuple[int, int, bool]]) -> list[str]:
    """One window build with its JSON: the table is a partial order of the
    expected size and agrees with a sample of single-pair answers, and the
    emitted covers are its transitive reduction."""
    leq = out["table"]
    bad = []
    if leq.shape[0] != expected_n or not check_axioms(leq):
        bad.append("families")
    elif any(bool(leq[i, j]) != want for i, j, want in sample):
        bad.append("families")
    else:
        strict = leq & ~np.eye(leq.shape[0], dtype=bool)
        if sorted(map(tuple, out["covers"])) != sorted(reduction(strict)):
            bad.append("poset")
    return bad


# Expected reports of the fixed claims: the statements are true, so the
# status is fixed, and some details follow from the parameters.
def claim_expectation(family: str, claim: str, params: dict) -> tuple[str, dict]:
    if (family, claim) == ("P1", "spine_partition"):
        return "pass", {"chain_size": params["N"] + 4, "parts": params["N"] + 4}
    if (family, claim) == ("P1", "pigeonhole"):
        return "pass", {"demander_count": params["m"] + 1, "host_count": params["m"]}
    if (family, claim) == ("P2", "partitions"):
        return "pass", {}
    if (family, claim) == ("P3", "row_bound"):
        w = min(params["y"] + 1, params["B"] + 1)
        return "pass", {"width": w, "expected": w}
    return "verified-up-to-bound", {}


def check_claim(report: dict, family: str, claim: str, params: dict) -> list[str]:
    status, detail = claim_expectation(family, claim, params)
    got = report.get("detail", {})
    if report.get("status") != status or any(got.get(k) != v for k, v in detail.items()):
        return ["families"]
    return []


def family_le(family: str, p, q) -> bool:
    """Comparison in P1..P5 from the generator definitions alone: closed
    forms for P1 and P5, and a breadth-first search over generator moves,
    kept inside the box that monotone coordinates allow, for P2..P4."""
    if p == q:
        return True
    if family == "P1":
        if p == "bot" or q == "top":
            return True
        if q == "bot" or p == "top" or p == "a":
            return False
        if q == "a":
            return p[1] == 1
        if p[1] == q[1]:
            return p[0] <= q[0]
        return p[1] == 1 and p[0] < q[0]  # row 1 feeds row 0 one step later
    if family == "P5":
        (x, y, n), (u, v, m) = p, q
        if n >= m + 2:
            return True
        if n == m:
            return x <= u and y <= v
        if n == m + 1:
            return min(x, y) + 1 <= min(u, v) or x + y <= 2 * (u + v)
        return False
    if family == "P4" and q[1] >= p[1] + 2:
        return True  # jump two levels to (u, y+2, w), then climb y
    seen = {p}
    frontier = [p]
    while frontier:
        nxt = []
        for s in frontier:
            for t in _moves(family, s, p, q):
                if t == q:
                    return True
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return False


def _moves(family: str, s, p, q):
    if family == "P2":
        # z never decreases; n is reset by column moves and kept otherwise,
        # so no state needs n above max(n_p, n_q).
        z, i, n = s
        ncap = max(p[2], q[2])
        if n + 1 <= ncap:
            yield (z, i, n + 1)
        if z + 1 <= q[0]:
            yield (z + 1, i, 0)
            if i == 1:
                yield (z + 1, 0, n)
        if i == 0:
            yield (z, 1, n)
    elif family == "P3":
        x, y = s
        if y + 1 <= q[1]:
            yield (x, y + 1)
        if x + y + 1 <= q[0]:
            yield (x + y + 1, y)
    else:  # P4 below the two-level jump: x never rises, y rises by one
        x, y, z = s
        zcap = max(p[2], q[2])
        if z + 1 <= zcap:
            yield (x, y, z + 1)
        if y + 1 <= q[1]:
            yield (x, y + 1, z)
        if x - 1 >= q[0]:
            yield (x - 1, y, z)
        if x - (y + 1) >= q[0]:
            for c in range(zcap + 1):
                yield (x - (y + 1), y, c)


def check_queries(answers: list, queries: list) -> list[str]:
    want = [family_le(f, _payload(p), _payload(q)) for f, p, q in queries]
    return [] if answers == want else ["families"]


def _payload(p):
    return p if isinstance(p, str) else tuple(p)


# ------------------------------------------------------------------ battery


def masked(payload):
    """Sweep JSON with criteria 1 and 5's ``detail.elapsed`` set to None.
    Those two fields are wall-clock times, so they differ between runs even
    though the README calls the output byte-deterministic; nothing else is
    masked."""
    for rep in payload:
        if rep.get("claim") in ("acceptance-1", "acceptance-5") and "elapsed" in rep.get("detail", {}):
            rep["detail"]["elapsed"] = None
    return payload


def term_ast(tree):
    """The package's term objects, built from the generator's tree without
    the parser."""
    from fishbone.ordertype import OMEGA, OMEGA_STAR, Fin, OmegaRep, OmegaStarRep, Sum

    kind = tree[0]
    if kind == "fin":
        return Fin(tree[1])
    if kind == "w":
        return OMEGA
    if kind == "w*":
        return OMEGA_STAR
    if kind == "sum":
        return Sum(tuple(term_ast(p) for p in tree[1]))
    return (OmegaRep if kind == "rep" else OmegaStarRep)(term_ast(tree[1]))


def check_term(report: dict, tree) -> list[str]:
    from fishbone.acceptance import oracle_predicates

    got = report.get("predicates", {})
    want = oracle_predicates(term_ast(tree))
    return ["ordertype"] if any(got.get(k) != v for k, v in want.items()) else []


def reverse_laws_hold(a: dict, b: dict) -> bool:
    """Laws between the reports of a term and of its reverse."""
    pa, pb = a["predicates"], b["predicates"]
    return (
        pa["wellfounded"] == pb["cowellfounded"]
        and pa["cowellfounded"] == pb["wellfounded"]
        and pa["embeds_zeta"] == pb["embeds_zeta"]
        and pa["embeds_omega_plus_omegastar"] == pb["embeds_omega_plus_omegastar"]
        and a["alt"] == b["alt"]
        and a["rank"] == b["rank"]
        and a["vacillating"] == b["vacillating"]
        and a["limits"]["plus"] == b["limits"]["minus"]
        and a["limits"]["minus"] == b["limits"]["plus"]
    )
