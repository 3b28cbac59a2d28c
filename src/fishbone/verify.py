"""Desk-scale verification of the finite combinatorial facts behind the
no-spine argument for the family ``P5``.

The infinite argument shows no chain of P5 meets every part of any antichain
partition.  Its finite ingredients are checked here exhaustively on windows:
the level/antichain/contiguity structure of P5, the exact-length
interpolation chains inside a level, the forced drop of level minima, the
"every valid antichain labelling is constant on diagonals" rectangle lemma,
and the final 2a+1 vs 2a counting gap.  None of the reports claims the
infinite statement; pass statuses mean the finite instances checked out.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .families import WindowSpec, element_id, relation_block, window_payloads
from .partition import height
from .poset import FinitePoset, _block, _true_pairs
from .report import FAIL, PASS, UP_TO_BOUND, PreconditionViolated, VerificationReport, claim


# ------------------------------------------------------------- level window


def level_window(n: int, B: int, levels: int = 1) -> FinitePoset:
    """Window of P5 covering levels n .. n+levels-1 with both coords <= B.

    Its elements are the ``(x, y, n)`` payload tuples, not their names:
    the desk checks name an element only when it is a failure witness.
    Construction runs the same axiom checks as :func:`families.window`.
    """
    payloads = window_payloads("P5", WindowSpec.make(n=(n, n + levels - 1), c=B))
    return FinitePoset(payloads, relation_block("P5", payloads, payloads))


@claim("P5.level_structure", B=40)
def verify_level_structure(n: int, s: int, B: int) -> tuple:
    """Window checks of the level structure of P5.

    Checks, for levels n and n+1 with coordinates <= B: the level L_n is a
    convex subset of the two-level window; the diagonal K(n,s) is an
    antichain; every fixed-row and fixed-column set inside L_n is a chain
    and a contiguous chain within L_n.

    B is capped at 40: the two-level window then has 3362 elements, and the
    check took 0.89 s and 178 MB peak RSS (Python 3.11, 2 CPUs).
    """
    if s > 2 * B:
        raise PreconditionViolated(f"diagonal s={s} exceeds window reach 2B={2 * B}")
    return check_level_structure(n, [s], B, level_window(n, B, levels=2))[0]


def check_level_structure(n: int, diagonals: Iterable[int], B: int, two: FinitePoset) -> list[tuple]:
    """The ``(status, witness, detail)`` of :func:`verify_level_structure`
    for each s in ``diagonals``, against ``two = level_window(n, B,
    levels=2)`` built by the caller.

    Only the diagonal K(n, s) depends on s, so the convexity check and the
    line check run once per call; each report still reads them in the order
    convexity, diagonal, lines.  The 2(B+1) lines (row z0, then column z0,
    for z0 = 0..B) are checked in a single gather over the level's blocks of
    ``two``'s matrices (a subposet's order is the restriction):
    :meth:`FinitePoset.is_chain` and :meth:`FinitePoset.is_contiguous_chain`
    within the level, with a leading line axis.  The first failing line is
    reported, with "not a chain" ahead of "not contiguous" on that line.

    ``two`` holds ``(x, y, n)`` payload tuples, as :func:`level_window`
    builds them.  L(n) and each K(n, s) are filtered from ``two.elements``
    and sorted, which is the window's enumeration order whatever order
    ``two`` lists them in.  Element names are built only for a failure's
    witness.
    """

    def outcome(failure: tuple | None, diagonal: Sequence = ()) -> tuple:
        if failure is None:
            return UP_TO_BOUND, None, {"diagonal_size": len(diagonal), "lines_checked": 2 * (B + 1)}
        reason, witness = failure
        return FAIL, witness, {"reason": reason}

    level_n = sorted(p for p in two.elements if p[2] == n)
    hull = two.convex_hull(level_n)
    if hull != frozenset(level_n):
        extra = min(element_id("P5", p) for p in hull - set(level_n))
        return [outcome(("level is not convex in the two-level window", extra)) for _ in diagonals]

    # grid[x, y] = x*(B+1) + y indexes (x, y, n) in level_n; line 2*z0 is
    # row z0 (x runs) and line 2*z0+1 is column z0 (y runs).
    grid = np.arange(len(level_n)).reshape(B + 1, B + 1)
    idx = np.stack((grid.T, grid), axis=1).reshape(2 * (B + 1), B + 1)
    at = [two.index(p) for p in level_n]
    C, S = _block(two.comparability_matrix, at), _block(two.strict_matrix, at)
    together = C[idx].all(axis=1)
    not_chain = ~np.take_along_axis(together, idx, axis=1).all(axis=1)
    member = np.zeros_like(together)
    np.put_along_axis(member, idx, True, axis=1)
    fits = together & S[idx].any(axis=1) & S.T[idx].any(axis=1) & ~member
    bad = not_chain | fits.any(axis=1)
    line_failure = None
    if bad.any():
        first = int(bad.argmax())
        line_failure = (
            "row/column is not a chain" if not_chain[first] else "row/column is not contiguous in its level",
            [element_id("P5", level_n[i]) for i in idx[first]],
        )

    outcomes = []
    for s in diagonals:
        diagonal = [p for p in level_n if p[0] + p[1] == s]
        if two.is_antichain(diagonal):
            failure = line_failure
        else:
            failure = ("diagonal is not an antichain", [element_id("P5", p) for p in diagonal])
        outcomes.append(outcome(failure, diagonal))
    return outcomes


# ------------------------------------------------------------ interpolation


def interpolate_chain(
    n: int, p: tuple[int, int], q: tuple[int, int], r: tuple[int, int]
) -> list:
    """A chain from (p,n) to (r,n) through (q,n) of size exactly
    r_x + r_y + 1 - p_x - p_y.

    Requires p <= q <= r coordinatewise.  The chain is the staircase that
    walks right then up to q, then right then up to r; successive points
    differ by one in one coordinate, so the whole path is totally ordered
    in the product order on the level.
    """
    (x, y), (u, v), (w, z) = p, q, r
    if not (x <= u <= w and y <= v <= z):
        raise PreconditionViolated(f"need {p} <= {q} <= {r} coordinatewise")
    path: list = []

    def walk(ax, ay, bx, by):
        for cx in range(ax, bx):
            path.append((cx, ay, n))
        for cy in range(ay, by):
            path.append((bx, cy, n))

    walk(x, y, u, v)
    walk(u, v, w, z)
    path.append((w, z, n))
    assert len(path) == w + z + 1 - x - y
    return path


# ----------------------------------------------------------------- min drop


@claim("P5.min_drop", B=1000)
def verify_min_drop(u: int, v: int, B: int) -> tuple:
    """Whenever (x,y) on the next level down lies below (u,v) despite
    x + y > 2(u + v), the drop min(x,y)+1 <= min(u,v) is forced.

    Exhaustive over x, y <= B, in one :func:`relation_block` against
    (u, v, 0); reports how many (x,y) qualify.  With the sum clause
    excluded by hypothesis, the block answers from P5's own min clause, so
    this re-reads the definition it tests: it is a definitional sanity
    check, not an independent proof, and cannot fail while the order keeps
    that clause.

    B is capped at 1000: the (B+1)**2 grid at that bound took 0.80 s and
    157 MB peak RSS (Python 3.11, 2 CPUs).
    """
    grid = [(x, y, 1) for x in range(B + 1) for y in range(B + 1)]
    below = relation_block("P5", grid, [(u, v, 0)])[:, 0]
    qualifying = [p for p, le in zip(grid, below) if le and p[0] + p[1] > 2 * (u + v)]
    for x, y, n in qualifying:
        if not (min(x, y) + 1 <= min(u, v)):
            return FAIL, element_id("P5", (x, y, n)), {}
    return UP_TO_BOUND, None, {"qualifying": len(qualifying)}


# ----------------------------------------------------- constant on diagonals


def _monotone_paths(u: int, v: int):
    """All right/up staircases (0,0) -> (u,v); yields tuples of points, the
    k-th point lying on diagonal k."""
    if u == 0 and v == 0:
        yield ((0, 0),)
        return
    for prev in (((u - 1, v),) if u else ()) + (((u, v - 1),) if v else ()):
        for path in _monotone_paths(*prev):
            yield path + ((u, v),)


def _rectangle_cells(u: int, v: int) -> list:
    return [(i, j) for i in range(u + 1) for j in range(v + 1)]


def _valid_assignments(u: int, v: int, path, ell: int):
    """All labelings f : rectangle -> {0..ell} with f(path[k]) = k and every
    label class an antichain in the product order, by backtracking."""
    cells = _rectangle_cells(u, v)
    fixed = {pt: k for k, pt in enumerate(path)}
    free = [c for c in cells if c not in fixed]

    def comparable(a, b):
        return (a[0] <= b[0] and a[1] <= b[1]) or (b[0] <= a[0] and b[1] <= a[1])

    def extend(i: int, assign: dict):
        if i == len(free):
            yield dict(assign)
            return
        cell = free[i]
        for label in range(ell + 1):
            ok = True
            for other, lab in assign.items():
                if lab == label and other != cell and comparable(cell, other):
                    ok = False
                    break
            if ok:
                assign[cell] = label
                yield from extend(i + 1, assign)
                del assign[cell]

    yield from extend(0, dict(fixed))


@claim("P5.constant_on_rows", ell=8)
def verify_constant_on_rows(ell: int) -> tuple:
    """Every valid antichain labelling of every staircase instance of size
    ell is constant on each diagonal below the top.

    An instance is a corner (u,v) with u+v = ell and a staircase path
    p_0..p_ell from (0,0) to (u,v); a valid labelling maps the rectangle
    {(i,j): i <= u, j <= v} to {0..ell}, fixes f(p_k) = k, and has all
    label classes antichains.  The check asserts f(i,j) = i+j whenever
    i+j <= ell-1, exhaustively; the top diagonal is genuinely unforced at
    this size, which is why it is excluded (rerun at ell+1 to pin row ell).

    ell is capped at 8: ell = 8 took 0.97 s (Python 3.11, 2 CPUs), and each
    step multiplies the time by about 8.
    """
    if ell < 1:
        raise PreconditionViolated("need ell >= 1")
    instances = 0
    assignments = 0
    for u in range(ell + 1):
        v = ell - u
        for path in _monotone_paths(u, v):
            instances += 1
            for f in _valid_assignments(u, v, path, ell):
                assignments += 1
                for (i, j), label in f.items():
                    if i + j <= ell - 1 and label != i + j:
                        witness = {"corner": [u, v], "path": [list(pt) for pt in path], "cell": [i, j], "label": label}
                        return FAIL, witness, {}
    return PASS, None, {"instances": instances, "assignments": assignments}


# ------------------------------------------------------------ final counting


@claim("P5.final_counting", a=40)
def verify_final_counting(a: int) -> tuple:
    """The chain F = {(a+t, a, 1): t <= 2a} has 2a+1 elements, all of them
    below every (u, v, 0) with u + v >= 2a (checked for coords <= 3a), while
    the region T = {(u, v, 0): u + v <= 2a-1} has height only 2a — so no
    antichain partition of T can host all of F one-per-part.

    The part of the cut past coordinate 3a needs no check: P5's sum clause
    puts (x, y, 1) below (u, v, 0) whenever x + y <= 2(u + v), and F's
    point (a+t, a, 1) has x + y = 2a + t <= 4a <= 2(u + v) for every
    u + v >= 2a.  So F lies below the whole cut, not only below the part
    the window checks.

    a is capped at 40: T then has 3240 elements, and the check took 0.94 s
    and 198 MB peak RSS (Python 3.11, 2 CPUs).
    """
    if a < 1:
        raise PreconditionViolated("need a >= 1")
    F = [(a + t, a, 1) for t in range(2 * a + 1)]
    bound = 3 * a
    cut = [(u, v, 0) for u in range(bound + 1) for v in range(bound + 1) if u + v >= 2 * a]
    le = relation_block("P5", F, F)
    # Pairs of F in combinations order, then pairs above the cut in
    # cut-point-major order: the first is the witness.
    failures = [(F[i], F[j], "F is not a chain") for i, j in zip(*_true_pairs(np.triu(~(le | le.T), 1)))]
    failures += [
        (F[i], cut[j], "missing comparability above the cut")
        for j, i in zip(*_true_pairs(~relation_block("P5", F, cut).T))
    ]
    if failures:
        p, q, reason = failures[0]
        return FAIL, [element_id("P5", p), element_id("P5", q)], {"reason": reason}

    T = [(u, v, 0) for u in range(2 * a) for v in range(2 * a) if u + v <= 2 * a - 1]
    h = height(FinitePoset(T, relation_block("P5", T, T)))
    ok = len(F) == 2 * a + 1 and h == 2 * a
    detail = {"F_size": len(F), "T_height": h, "gap": len(F) - h}
    return UP_TO_BOUND if ok else FAIL, None if ok else {"F_size": len(F), "T_height": h}, detail


# ------------------------------------------------------------------- presets


def desk_preset() -> list[VerificationReport]:
    """The standard battery reported by the command line ``verify all``."""
    reports = []
    for n in (0, 1, 2):
        reports.append(verify_level_structure(n, s=4, B=8))
    reports.append(verify_min_drop(2, 2, B=12))
    reports.append(verify_min_drop(1, 3, B=15))
    for ell in (1, 2, 3):
        reports.append(verify_constant_on_rows(ell))
    for a in (1, 2, 3):
        reports.append(verify_final_counting(a))
    return reports
