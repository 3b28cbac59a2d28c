"""Countable scattered linear order types as finite terms.

The term language covers finite chains, ω, ω* (the reverse of ω), finite
left-to-right sums, and ω- or ω*-indexed repetitions of a body term.  Every
order this package manipulates symbolically (ω, ω*, ζ = ω*+ω, ω+1, ω², ω
copies of ω*, …) is expressible, and all the predicates below are decidable
by structural recursion.

Concrete syntax::

    term := part ("+" part)*
    part := NAT | "w" | "w*" | "w" "[" term "]" | "w*" "[" term "]" | "(" term ")"

so ``"w*+w"`` is ζ and ``"w[w*]"`` is the ω-indexed sum of copies of ω*.
Brackets of either kind nest at most :data:`MAX_NESTING` deep.

Terms are kept in a normal form (flattened sums, merged finite parts, no
empty parts, repetitions of finite chains collapsed to ω/ω*): the parser
and :func:`reverse` build it, :func:`normalize` computes it for any term,
and every invariant answers for the normal form of its input.  Full
isomorphism testing is out of scope.

All invariants come from one bottom-up pass over the term, linear in its
size, whose rules each carry the reasoning behind them.  Throughout, "an
ω-chain" means a strictly increasing sequence indexed by ω, and "an
ω*-chain" a strictly decreasing one; a suborder of type X means an
order-embedding of X.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import inf
from typing import NamedTuple


class ParseError(SyntaxError):
    """Bad term syntax; ``position`` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Fin:
    """A finite chain with k elements (k = 0 is the empty order)."""

    k: int


@dataclass(frozen=True)
class Omega:
    """The natural numbers."""


@dataclass(frozen=True)
class OmegaStar:
    """The reverse of ω: no minimum, every element with finitely many above."""


@dataclass(frozen=True)
class Sum:
    """Finite left-to-right linear sum of the parts."""

    parts: tuple


@dataclass(frozen=True)
class OmegaRep:
    """ω-indexed sum of copies of ``body``: body + body + ... upward."""

    body: "OrderTerm"


@dataclass(frozen=True)
class OmegaStarRep:
    """ω*-indexed sum of copies of ``body``: ... + body + body downward."""

    body: "OrderTerm"


OrderTerm = Fin | Omega | OmegaStar | Sum | OmegaRep | OmegaStarRep

OMEGA = Omega()
OMEGA_STAR = OmegaStar()


# ------------------------------------------------------------- normalization
#
# Every sum and repetition is built by _sum or _rep, so the normal form's
# rules live in these two functions only.


def _sum(parts) -> OrderTerm:
    """The normal form of the sum of normal ``parts``: nested sums
    flattened, empty parts dropped, adjacent finite parts merged."""
    flat: list[OrderTerm] = []
    for p in parts:
        for q in p.parts if isinstance(p, Sum) else (p,):
            if isinstance(q, Fin):
                if q.k == 0:
                    continue
                if flat and isinstance(flat[-1], Fin):
                    flat[-1] = Fin(flat[-1].k + q.k)
                    continue
            flat.append(q)
    if not flat:
        return Fin(0)
    return flat[0] if len(flat) == 1 else Sum(tuple(flat))


def _rep(up: bool, body: OrderTerm) -> OrderTerm:
    """The normal form of the ω-indexed (``up``) or ω*-indexed repetition of
    the normal ``body``: ω copies of a nonempty finite chain are just ω, and
    repetitions of the empty order are empty."""
    if isinstance(body, Fin):
        return Fin(0) if body.k == 0 else (OMEGA if up else OMEGA_STAR)
    return OmegaRep(body) if up else OmegaStarRep(body)


def normalize(t: OrderTerm) -> OrderTerm:
    """Canonical form: flattened sums, merged/zero-free finite parts, and
    repetitions of finite chains rewritten (ω copies of a nonempty finite
    chain is just ω; repetitions of the empty order are empty)."""
    if isinstance(t, Fin):
        if t.k < 0:
            raise ValueError("negative finite chain")
        return t
    if isinstance(t, (Omega, OmegaStar)):
        return t
    if isinstance(t, Sum):
        return _sum([normalize(p) for p in t.parts])
    if isinstance(t, (OmegaRep, OmegaStarRep)):
        return _rep(isinstance(t, OmegaRep), normalize(t.body))
    raise TypeError(f"not an order term: {t!r}")


# --------------------------------------------------------------- parse/render


_TOKEN = re.compile(r"\s*(\d+|w\*|w|[+\[\]()])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


# Every recursion over a term (this parser, normalize, reverse, the
# invariants' fold and render) takes at most four frames of Python's
# recursion limit per bracket: three, and a fourth for render's generator.
# At this cap ``ot check`` of the worst shape, sums inside repetitions
# (``w+w*[...]``), needs about 405 frames (Python 3.11), which leaves about
# 595 of Python's default 1000 to its caller.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self) -> None:
        """Consume the token that :meth:`peek` has just returned."""
        self.i += 1

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.pos())
        self.i += 1

    def term(self) -> OrderTerm:
        parts = [self.part()]
        while self.peek() == "+":
            self.take()
            parts.append(self.part())
        return _sum(parts)

    def part(self) -> OrderTerm:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", self.pos())
        if tok == "(":
            return self.bracketed(")")
        if tok.isdigit():
            self.take()
            return Fin(int(tok))
        if tok in ("w", "w*"):
            self.take()
            if self.peek() == "[":
                return _rep(tok == "w", self.bracketed("]"))
            return OMEGA if tok == "w" else OMEGA_STAR
        raise ParseError(f"unexpected token {tok!r}", self.pos())

    def bracketed(self, close: str) -> OrderTerm:
        """The term between the opening bracket at the cursor and ``close``."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"brackets nested deeper than {MAX_NESTING}", self.pos())
        self.take()
        self.depth += 1
        inner = self.term()
        self.expect(close)
        self.depth -= 1
        return inner


def parse_term(text: str) -> OrderTerm:
    """The normal form of the term ``text`` denotes; raises
    :class:`ParseError` with the offset."""
    p = _Parser(text)
    t = p.term()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.pos())
    return t


def render(t: OrderTerm) -> str:
    """Canonical text; on normalized terms, ``parse_term(render(t)) == t``."""
    if isinstance(t, Fin):
        return str(t.k)
    if isinstance(t, Omega):
        return "w"
    if isinstance(t, OmegaStar):
        return "w*"
    if isinstance(t, OmegaRep):
        return f"w[{render(t.body)}]"
    if isinstance(t, OmegaStarRep):
        return f"w*[{render(t.body)}]"
    if isinstance(t, Sum):
        # Normalized sums never nest, so parts render without parentheses.
        return "+".join(render(p) for p in t.parts)
    raise TypeError(f"not an order term: {t!r}")


def reverse(t: OrderTerm) -> OrderTerm:
    """The reverse order, normalized: (A+B)* = B*+A*, and an ω-indexed
    repetition reverses to an ω*-indexed repetition of the reversed body."""
    if isinstance(t, Sum):
        return _sum([reverse(p) for p in reversed(t.parts)])
    if isinstance(t, (OmegaRep, OmegaStarRep)):
        return _rep(not isinstance(t, OmegaRep), reverse(t.body))
    if isinstance(t, Omega):
        return OMEGA_STAR
    if isinstance(t, OmegaStar):
        return OMEGA
    return normalize(t)


# ----------------------------------------------------------------- invariants
#
# Every invariant comes from one bottom-up fold, _facts, which computes a
# node's record from its children's records only.  The fold assumes
# normalized input, which the public calls give it: every Sum has >= 2
# parts, none of them empty or a Sum, and every repetition body is infinite.

Count = int | float  # float is only ever math.inf, meaning "countably many"


class _Facts(NamedTuple):
    wf: bool  # no ω*-chain
    cowf: bool  # no ω-chain
    wp1: bool  # embeds ω+1
    zeta: bool  # embeds ζ = ω*+ω
    owv: bool  # embeds ω+ω*
    has_max: bool
    has_min: bool
    plus: Count  # classes of ω-chains under mutual cofinality
    minus: Count  # classes of ω*-chains under mutual coinitiality
    profile: tuple  # the alternation profile (A, At, Ab, Abt), see below
    rank: int  # Hausdorff rank
    dec: bool  # an ω-indexed sum of infinite co-wellfounded blocks
    codec: bool  # dec of the reverse order


# ------------------------------------------------------- alternation number
#
# An alternation witness is a pair of chains inside one contiguous interval:
# an ω*-chain with an ω-chain entirely above it — equivalently the interval
# contains a ζ suborder.  The alternation number is the largest n for which
# n pairwise disjoint intervals each contain a witness.
#
# Computed via a profile (A, At, Ab, Abt) per term, where None means
# "impossible" and math.inf absorbs:
#   A   = max stacked witnesses inside t;
#   At  = max witnesses with additionally a spare ω*-chain above all of them
#         (an opening half for a witness closed further right);
#   Ab  = max witnesses with a spare ω-chain below all of them (a closing
#         half for a witness opened further left);
#   Abt = both spares at once.
# The spares must clear the counted witnesses because a straddling witness's
# interval spans everything between its two chains.
#
# Leaves:  Fin (0,-,-,-);  ω (0,-,0,-);  ω* (0,0,-,-).
#
# Sum: left-to-right scan with states closed / open (open = an ω*-chain is
# pending above everything counted so far).  Opening in a part uses its At;
# closing uses its Ab (+1 for the completed straddling witness) or Abt to
# close and reopen; a pending opener may also be abandoned.  For Ab/Abt of a
# sum the scan starts in a third state (the spare ω-chain is not placed
# yet), where parts may only be skipped or used to place it.
#
# Repetitions are argued at their rule in _facts.


def _padd(a, b):
    if a is None or b is None:
        return None
    return a + b


def _pmax(*vals):
    best = None
    for v in vals:
        if v is not None and (best is None or v > best):
            best = v
    return best


def _sum_scan(profiles, *, start_closed: bool) -> tuple:
    closed = 0 if start_closed else None
    open_ = None
    unplaced = None if start_closed else 0
    for a, at, ab, abt in profiles:
        ncl = _pmax(
            _padd(closed, a),               # count p's witnesses, stay closed
            _padd(open_, _padd(ab, 1)),     # close the pending witness in p
            _padd(open_, a),                # abandon the pending opener
            _padd(unplaced, ab),            # place the spare ω-chain in p
        )
        nop = _pmax(
            _padd(closed, at),              # open a new pending witness in p
            open_,                          # skip p, keep the pending opener
            _padd(open_, _padd(abt, 1)),    # close in p and reopen above
            _padd(open_, at),               # abandon, then reopen in p
            _padd(unplaced, abt),           # place the spare and open above
        )
        closed, open_ = ncl, nop
    if start_closed:
        return _pmax(closed, open_), open_
    return closed, open_


def _precedes(xs: list, ys: list) -> bool:
    """Some i < j has ``xs[i]`` and ``ys[j]``."""
    return True in xs and any(ys[xs.index(True) + 1:])


# Leaves.  No leaf embeds ω+1, ζ or ω+ω*, and none is an ω-sum of infinite
# co-wellfounded blocks: a finite order or ω has no valid block at all, and
# ω* has a maximum while any such sum has none.
_EMPTY = _Facts(
    wf=True, cowf=True, wp1=False, zeta=False, owv=False, has_max=False,
    has_min=False, plus=0, minus=0, profile=(0, None, None, None), rank=0,
    dec=False, codec=False,
)
_CHAIN = _EMPTY._replace(has_max=True, has_min=True)
_OMEGA = _EMPTY._replace(
    cowf=False, has_min=True, plus=1, profile=(0, None, 0, None), rank=1
)
_OMEGA_STAR = _EMPTY._replace(
    wf=False, has_max=True, minus=1, profile=(0, 0, None, None), rank=1
)


def _facts(t: OrderTerm) -> _Facts:
    if isinstance(t, Fin):
        return _CHAIN if t.k else _EMPTY
    if isinstance(t, Omega):
        return _OMEGA
    if isinstance(t, OmegaStar):
        return _OMEGA_STAR
    if isinstance(t, Sum):
        fs = [_facts(p) for p in t.parts]
        desc = [not f.wf for f in fs]  # the part holds an ω*-chain
        asc = [not f.cowf for f in fs]  # the part holds an ω-chain
        profiles = [f.profile for f in fs]
        return _Facts(
            # An ω*-chain has an infinite tail inside the least part it
            # meets, since it meets finitely many parts; mirror for ω-chains.
            wf=not any(desc),
            cowf=not any(asc),
            # Inside one part, or a non-final part holds an ω-chain and any
            # element of any later part tops it.
            wp1=any(f.wp1 for f in fs) or any(asc[:-1]),
            # Inside one part, or the ω*-chain tails off in an earlier part
            # with the ω-chain tailing off in a strictly later part.  The two
            # tails cannot share a part unless that part itself contains ζ:
            # a part may contain both chains with the ω-chain *below* the
            # ω*-chain, which is not ζ.
            zeta=any(f.zeta for f in fs) or _precedes(desc, asc),
            # Inside one part, or an ω-chain tailing in an earlier part with
            # an ω*-chain tailing in a later part.
            owv=any(f.owv for f in fs) or _precedes(asc, desc),
            has_max=fs[-1].has_max,
            has_min=fs[0].has_min,
            # A chain has an infinite tail in exactly one part, and
            # equivalence is decided by the tails, so classes add up.
            plus=sum(f.plus for f in fs),
            minus=sum(f.minus for f in fs),
            profile=(
                *_sum_scan(profiles, start_closed=True),
                *_sum_scan(profiles, start_closed=False),
            ),
            rank=max(f.rank for f in fs),
            # The final part absorbs all but finitely many blocks, so every
            # earlier part must decompose into finitely many co-wellfounded
            # intervals — i.e. be co-wellfounded — and the final part must
            # itself decompose (a straddling first block merges with a
            # co-wellfounded prefix, since a finite union of consecutive
            # co-wellfounded intervals is co-wellfounded).  The reverse of a
            # normalized sum is the sum of the reversed parts in reverse
            # order, and reversing swaps wf and cowf.
            dec=not any(asc[:-1]) and fs[-1].dec,
            codec=not any(desc[1:]) and fs[0].codec,
        )
    if isinstance(t, (OmegaRep, OmegaStarRep)):
        b = _facts(t.body)
        up = isinstance(t, OmegaRep)
        # A chain running against the blocks' order (an ω*-chain through
        # ω-indexed blocks, an ω-chain through ω*-indexed ones) meets finitely
        # many blocks, so it has a tail inside one block; one point per block
        # gives a chain running along the blocks' order.
        no_back = b.wf if up else b.cowf
        no_fwd = b.cowf if up else b.wf
        if no_back:
            # No chain against the blocks at all: the profile of a big ω
            # (big ω* for the ω*-indexed case).
            profile = _OMEGA.profile if up else _OMEGA_STAR.profile
        elif no_fwd:
            # Every witness must close with a chain running along infinitely
            # many blocks (no block has one), which makes its interval
            # cofinal (coinitial): at most one witness, no spare on its far
            # side, and any spare on its near side is itself cofinal.
            profile = (1, 0, 0, None)
        else:
            # Consecutive block pairs supply infinitely many disjoint
            # witnesses.
            profile = (inf, inf, inf, inf)
        return _Facts(
            wf=up and b.wf,
            cowf=not up and b.cowf,
            # A bounded ω-chain meets finitely many blocks — ascending
            # through infinitely many ω-indexed blocks is cofinal (nothing
            # above), and ascending through ω*-indexed blocks visits finitely
            # many blocks outright.  So an infinite piece of the chain sits
            # inside one block: either that block contains ω+1 itself, or it
            # contains an ω-chain topped by a point of a later block, and a
            # later nonempty block always exists for the relevant block.
            wp1=b.wp1 or not b.cowf,
            # A chain against the blocks is stuck in one block; conversely
            # such a chain inside block i is completed by a chain taking one
            # point from each block beyond i (above i for ω-indexed blocks,
            # below i for ω*-indexed ones).
            zeta=not no_back,
            # ω-indexed blocks: an ω*-chain is stuck inside a single block j,
            # and only finitely many blocks sit below j, so the ω-chain below
            # it also sits inside a single block i <= j.  If i < j this needs
            # ¬cowf and ¬wf of the body; if i = j the body itself contains
            # ω+ω*.  The ω*-indexed case mirrors (the ω-chain is stuck in one
            # block, finitely many blocks above it).
            owv=b.owv or not (b.wf or b.cowf),
            # ω-indexed blocks always have a later nonempty block, and the
            # least block is a full copy; mirror for ω*-indexed blocks.
            has_max=not up and b.has_max,
            has_min=up and b.has_min,
            # Chains confined to one block give one copy of the body's
            # classes per block (countably many overall, or none), and every
            # chain meeting infinitely many blocks is cofinal (coinitial) in
            # the whole order — those form one extra class.
            plus=inf if b.plus else int(up),
            minus=inf if b.minus else int(not up),
            profile=profile,
            # The body is infinite, so its rank is at least 1.
            rank=b.rank + 1,
            # ω-indexed: the blocks can be the copies themselves exactly when
            # the body is co-wellfounded; conversely copy 0 is covered by
            # finitely many blocks (any block touching copy 1 has all later
            # blocks above copy 0), so it must be co-wellfounded.
            # ω*-indexed: never — a first block would be a nonempty initial
            # interval, which here contains whole copies arbitrarily far
            # down, hence an ω-chain taking one point per copy upward.  The
            # reverse of an ω*-indexed repetition is the ω-indexed repetition
            # of the reversed body.
            dec=up and b.cowf,
            codec=not up and b.wf,
        )
    raise TypeError(f"not an order term: {t!r}")


# ----------------------------------------------------------------- endpoints


def has_maximum(t: OrderTerm) -> bool:
    return _facts(normalize(t)).has_max


def has_minimum(t: OrderTerm) -> bool:
    return _facts(normalize(t)).has_min


# ------------------------------------------------------------------ reports


def term_report(t: OrderTerm) -> dict:
    """The invariants of ``t`` as a JSON-ready dict, the one printed by the
    command-line ``ot check`` (the endpoints have their own calls,
    :func:`has_maximum` and :func:`has_minimum`):

    - ``term``: the canonical text of the normal form;
    - ``predicates``: ``wellfounded`` (no ω*-chain), ``cowellfounded`` (no
      ω-chain), ``embeds_omega_plus_one`` (an ω-chain with an element above
      all of it), ``embeds_zeta`` (a suborder of type ζ = ω*+ω: an ω*-chain
      with an ω-chain entirely above it), ``embeds_omega_plus_omegastar`` (a
      suborder of type ω+ω*), and the derived ``iwf`` (no ζ suborder),
      ``owf`` (no ω+ω* suborder) and ``atomic_increasing`` (no ω+1
      suborder, so every ω-chain is cofinal);
    - ``alt``: the alternation number, the most disjoint intervals each
      holding an ω*-chain with an ω-chain above it, or ``"inf"`` when no
      finite bound exists;
    - ``rank``: the Hausdorff rank, 0 for finite chains, 1 for ω and ω*,
      the max over sum parts, and +1 for each repetition of an infinite
      body;
    - ``limits``: ``plus`` and ``minus``, the classes of increasing and of
      decreasing chains, ``"w"`` for countably many;
    - ``vacillating``: neither ``t`` nor its reverse is an ω-indexed sum of
      infinite co-wellfounded blocks.
    """
    t = normalize(t)
    f = _facts(t)
    return {
        "term": render(t),
        "predicates": {
            "wellfounded": f.wf,
            "cowellfounded": f.cowf,
            "embeds_omega_plus_one": f.wp1,
            "embeds_zeta": f.zeta,
            "embeds_omega_plus_omegastar": f.owv,
            "iwf": not f.zeta,
            "owf": not f.owv,
            "atomic_increasing": not f.wp1,
        },
        "alt": "inf" if f.profile[0] == inf else int(f.profile[0]),
        "rank": f.rank,
        "limits": {
            "plus": "w" if f.plus == inf else int(f.plus),
            "minus": "w" if f.minus == inf else int(f.minus),
        },
        "vacillating": not (f.dec or f.codec),
    }
