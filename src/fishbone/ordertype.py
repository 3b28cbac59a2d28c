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
empty parts, repetitions of finite chains collapsed to ω/ω*), which makes
equality of terms meaningful enough for caching; full isomorphism testing is
out of scope.

Each decision procedure documents the recursion it implements and the
reasoning behind the non-obvious cases.  Throughout, "an ω-chain" means a
strictly increasing sequence indexed by ω, and "an ω*-chain" a strictly
decreasing one; a suborder of type X means an order-embedding of X.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from math import inf


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
    if isinstance(t, OmegaRep):
        body = normalize(t.body)
        if isinstance(body, Fin):
            return Fin(0) if body.k == 0 else OMEGA
        return OmegaRep(body)
    if isinstance(t, OmegaStarRep):
        body = normalize(t.body)
        if isinstance(body, Fin):
            return Fin(0) if body.k == 0 else OMEGA_STAR
        return OmegaStarRep(body)
    if isinstance(t, Sum):
        flat: list[OrderTerm] = []
        for raw in t.parts:
            p = normalize(raw)
            items = p.parts if isinstance(p, Sum) else (p,)
            for q in items:
                if isinstance(q, Fin):
                    if q.k == 0:
                        continue
                    if flat and isinstance(flat[-1], Fin):
                        flat[-1] = Fin(flat[-1].k + q.k)
                        continue
                flat.append(q)
        if not flat:
            return Fin(0)
        if len(flat) == 1:
            return flat[0]
        return Sum(tuple(flat))
    raise TypeError(f"not an order term: {t!r}")


def is_finite(t: OrderTerm) -> bool:
    return isinstance(t, Fin)


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
# predicates, term_report, and the structural hash and equality of cached
# terms) takes at most about seven frames per bracket, worst for sums inside
# repetitions.  At this cap ``ot check`` still leaves about 290 of Python's
# default 1000 frames to its caller.
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

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.pos())
        self.i += 1

    def term(self) -> OrderTerm:
        parts = [self.part()]
        while self.peek() == "+":
            self.take()
            parts.append(self.part())
        return Sum(tuple(parts)) if len(parts) > 1 else parts[0]

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
            base = OMEGA if tok == "w" else OMEGA_STAR
            if self.peek() == "[":
                body = self.bracketed("]")
                return OmegaRep(body) if tok == "w" else OmegaStarRep(body)
            return base
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
    """Parse and normalize; raises :class:`ParseError` with the offset."""
    p = _Parser(text)
    t = p.term()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.pos())
    return normalize(t)


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
    """The reverse order: (A+B)* = B*+A*, and an ω-indexed repetition
    reverses to an ω*-indexed repetition of the reversed body."""
    if isinstance(t, Fin):
        return t
    if isinstance(t, Omega):
        return OMEGA_STAR
    if isinstance(t, OmegaStar):
        return OMEGA
    if isinstance(t, Sum):
        return normalize(Sum(tuple(reverse(p) for p in reversed(t.parts))))
    if isinstance(t, OmegaRep):
        return normalize(OmegaStarRep(reverse(t.body)))
    if isinstance(t, OmegaStarRep):
        return normalize(OmegaRep(reverse(t.body)))
    raise TypeError(f"not an order term: {t!r}")


# ----------------------------------------------------------------- predicates
#
# All recursions below assume normalized input, so every Sum has >= 2 parts,
# none of them empty or a Sum, and every repetition body is infinite.


@cache
def is_wellfounded(t: OrderTerm) -> bool:
    """No ω*-chain.

    A sum is wellfounded iff all parts are (an ω*-chain has an infinite tail
    inside the least part it meets, because it meets finitely many parts or,
    for repetitions, cannot descend through infinitely many ω-indexed
    blocks).  An ω*-indexed repetition always contains an ω*-chain: one
    point from each block, going down the blocks.
    """
    if isinstance(t, (Fin, Omega)):
        return True
    if isinstance(t, OmegaStar):
        return False
    if isinstance(t, Sum):
        return all(is_wellfounded(p) for p in t.parts)
    if isinstance(t, OmegaRep):
        return is_wellfounded(t.body)
    if isinstance(t, OmegaStarRep):
        return False
    raise TypeError(f"not an order term: {t!r}")


@cache
def is_cowellfounded(t: OrderTerm) -> bool:
    """No ω-chain; the mirror image of :func:`is_wellfounded`."""
    if isinstance(t, (Fin, OmegaStar)):
        return True
    if isinstance(t, Omega):
        return False
    if isinstance(t, Sum):
        return all(is_cowellfounded(p) for p in t.parts)
    if isinstance(t, OmegaStarRep):
        return is_cowellfounded(t.body)
    if isinstance(t, OmegaRep):
        return False
    raise TypeError(f"not an order term: {t!r}")


@cache
def embeds_omega_plus_one(t: OrderTerm) -> bool:
    """Contains an ω-chain together with an element above all of it.

    Sum: either some part contains ω+1, or a non-final part contains an
    ω-chain (¬cowf) and any element of any later part tops it.

    Repetitions (both kinds): a bounded ω-chain meets finitely many blocks —
    ascending through infinitely many ω-indexed blocks is cofinal (nothing
    above), and ascending through ω*-indexed blocks visits finitely many
    blocks outright.  So an infinite piece of the chain sits inside one
    block: either that block contains ω+1 itself, or it contains an ω-chain
    (¬cowf) topped by a point of a later block, and a later nonempty block
    always exists for the relevant block.
    """
    if isinstance(t, (Fin, Omega, OmegaStar)):
        return False
    if isinstance(t, Sum):
        if any(embeds_omega_plus_one(p) for p in t.parts):
            return True
        return any(not is_cowellfounded(p) for p in t.parts[:-1])
    if isinstance(t, (OmegaRep, OmegaStarRep)):
        return embeds_omega_plus_one(t.body) or not is_cowellfounded(t.body)
    raise TypeError(f"not an order term: {t!r}")


@cache
def embeds_zeta(t: OrderTerm) -> bool:
    """Contains a suborder of type ζ = ω* + ω (an unbounded-below ω*-chain
    with an unbounded-above ω-chain entirely above it).

    Sum: inside one part, or the ω*-chain tails off in an earlier part
    (¬wf) with the ω-chain tailing off in a strictly later part (¬cowf).
    The two tails cannot share a part unless that part itself contains ζ:
    a part may contain both chains with the ω-chain *below* the ω*-chain,
    which is not ζ.

    ω-indexed repetition: an ω*-chain forces ¬wf of the body (it cannot
    descend through the ω-indexed blocks); conversely an ω*-chain inside
    block i is topped by an ω-chain taking one point from each later block.
    So the answer is exactly ¬wf(body).  ω*-indexed repetition: mirror,
    ¬cowf(body).
    """
    if isinstance(t, (Fin, Omega, OmegaStar)):
        return False
    if isinstance(t, Sum):
        if any(embeds_zeta(p) for p in t.parts):
            return True
        seen_descending = False
        for p in t.parts:
            if seen_descending and not is_cowellfounded(p):
                return True
            if not is_wellfounded(p):
                seen_descending = True
        return False
    if isinstance(t, OmegaRep):
        return not is_wellfounded(t.body)
    if isinstance(t, OmegaStarRep):
        return not is_cowellfounded(t.body)
    raise TypeError(f"not an order term: {t!r}")


@cache
def embeds_omega_plus_omegastar(t: OrderTerm) -> bool:
    """Contains a suborder of type ω + ω* (an ω-chain with an ω*-chain
    entirely above it).

    Sum: inside one part, or ω-chain tailing in an earlier part (¬cowf)
    with ω*-chain tailing in a later part (¬wf).

    Repetitions: within ω-indexed blocks an ω*-chain is stuck inside a
    single block j, and only finitely many blocks sit below j, so the
    ω-chain below it also sits inside a single block i ≤ j.  If i < j this
    needs ¬cowf and ¬wf of the body; if i = j the body itself contains
    ω+ω*.  The ω*-indexed case mirrors (the ω-chain is stuck in one block,
    finitely many blocks above it).
    """
    if isinstance(t, (Fin, Omega, OmegaStar)):
        return False
    if isinstance(t, Sum):
        if any(embeds_omega_plus_omegastar(p) for p in t.parts):
            return True
        seen_ascending = False
        for p in t.parts:
            if seen_ascending and not is_wellfounded(p):
                return True
            if not is_cowellfounded(p):
                seen_ascending = True
        return False
    if isinstance(t, (OmegaRep, OmegaStarRep)):
        if embeds_omega_plus_omegastar(t.body):
            return True
        return not is_wellfounded(t.body) and not is_cowellfounded(t.body)
    raise TypeError(f"not an order term: {t!r}")


@dataclass(frozen=True)
class TermPredicates:
    """The five primitive predicates, plus the derived names used elsewhere:
    ``iwf`` (no ζ suborder), ``owf`` (no ω+ω* suborder), and
    ``atomic_increasing`` (no ω+1 suborder, so all ω-chains are cofinal)."""

    wellfounded: bool
    cowellfounded: bool
    embeds_omega_plus_one: bool
    embeds_zeta: bool
    embeds_omega_plus_omegastar: bool

    @property
    def iwf(self) -> bool:
        return not self.embeds_zeta

    @property
    def owf(self) -> bool:
        return not self.embeds_omega_plus_omegastar

    @property
    def atomic_increasing(self) -> bool:
        return not self.embeds_omega_plus_one

    def to_dict(self) -> dict:
        return {
            "wellfounded": self.wellfounded,
            "cowellfounded": self.cowellfounded,
            "embeds_omega_plus_one": self.embeds_omega_plus_one,
            "embeds_zeta": self.embeds_zeta,
            "embeds_omega_plus_omegastar": self.embeds_omega_plus_omegastar,
            "iwf": self.iwf,
            "owf": self.owf,
            "atomic_increasing": self.atomic_increasing,
        }


def predicates(t: OrderTerm) -> TermPredicates:
    return TermPredicates(
        wellfounded=is_wellfounded(t),
        cowellfounded=is_cowellfounded(t),
        embeds_omega_plus_one=embeds_omega_plus_one(t),
        embeds_zeta=embeds_zeta(t),
        embeds_omega_plus_omegastar=embeds_omega_plus_omegastar(t),
    )


# ----------------------------------------------------------- limit structure

Count = int | float  # float is only ever math.inf, meaning "countably many"


@cache
def has_maximum(t: OrderTerm) -> bool:
    if isinstance(t, Fin):
        return t.k >= 1
    if isinstance(t, Omega):
        return False
    if isinstance(t, OmegaStar):
        return True
    if isinstance(t, Sum):
        return has_maximum(t.parts[-1])
    if isinstance(t, OmegaRep):
        return False  # there is always a later nonempty block
    if isinstance(t, OmegaStarRep):
        return has_maximum(t.body)  # the top block is a full copy
    raise TypeError(f"not an order term: {t!r}")


@cache
def has_minimum(t: OrderTerm) -> bool:
    if isinstance(t, Fin):
        return t.k >= 1
    if isinstance(t, OmegaStar):
        return False
    if isinstance(t, Omega):
        return True
    if isinstance(t, Sum):
        return has_minimum(t.parts[0])
    if isinstance(t, OmegaStarRep):
        return False
    if isinstance(t, OmegaRep):
        return has_minimum(t.body)
    raise TypeError(f"not an order term: {t!r}")


def _saturating_sum(values) -> Count:
    total: Count = 0
    for v in values:
        total += v
        if total == inf:
            return inf
    return total


@cache
def _plus_classes(t: OrderTerm) -> Count:
    """Number of equivalence classes of ω-chains, two chains equivalent when
    mutually cofinal.

    Sum: an ω-chain has an infinite tail in exactly one part (finitely many
    parts), and equivalence is decided by the tails, so classes add up.

    ω-indexed repetition: chains confined to one block give one copy of the
    body's classes per block (countably many overall, or none), and every
    chain meeting infinitely many blocks is cofinal in the whole order —
    those form one extra class.  ω*-indexed repetition: confined chains
    only (no ascending through the blocks), no extra class.
    """
    if isinstance(t, (Fin, OmegaStar)):
        return 0
    if isinstance(t, Omega):
        return 1
    if isinstance(t, Sum):
        return _saturating_sum(_plus_classes(p) for p in t.parts)
    if isinstance(t, OmegaRep):
        return inf if _plus_classes(t.body) > 0 else 1
    if isinstance(t, OmegaStarRep):
        return inf if _plus_classes(t.body) > 0 else 0
    raise TypeError(f"not an order term: {t!r}")


@cache
def _minus_classes(t: OrderTerm) -> Count:
    """Classes of ω*-chains under mutual coinitiality; mirror of plus."""
    if isinstance(t, (Fin, Omega)):
        return 0
    if isinstance(t, OmegaStar):
        return 1
    if isinstance(t, Sum):
        return _saturating_sum(_minus_classes(p) for p in t.parts)
    if isinstance(t, OmegaStarRep):
        return inf if _minus_classes(t.body) > 0 else 1
    if isinstance(t, OmegaRep):
        return inf if _minus_classes(t.body) > 0 else 0
    raise TypeError(f"not an order term: {t!r}")


def limit_point_counts(t: OrderTerm) -> tuple[Count, Count]:
    """(increasing classes, decreasing classes); ``math.inf`` = countably many."""
    return _plus_classes(t), _minus_classes(t)


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
# Repetitions: with a wellfounded body there is no ω*-chain at all, so the
# profile is that of a big ω.  With ¬wf but cowf body (ω-indexed case),
# every witness must close with an ω-chain running up through infinitely
# many blocks (no block has one), which makes its interval cofinal: at most
# one witness, no ω* above it, and any spare ω below is itself cofinal, so
# (1,0,0,-).  The ω*-indexed case mirrors this.  With ¬wf and ¬cowf body,
# consecutive block pairs supply infinitely many disjoint witnesses: all ∞.
#
# Sum: left-to-right scan with states closed / open (open = an ω*-chain is
# pending above everything counted so far).  Opening in a part uses its At;
# closing uses its Ab (+1 for the completed straddling witness) or Abt to
# close and reopen; a pending opener may also be abandoned.  For Ab/Abt of a
# sum the scan starts in a third state (the spare ω-chain is not placed
# yet), where parts may only be skipped or used to place it.


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


@cache
def _profile(t: OrderTerm) -> tuple:
    if isinstance(t, Fin):
        return (0, None, None, None)
    if isinstance(t, Omega):
        return (0, None, 0, None)
    if isinstance(t, OmegaStar):
        return (0, 0, None, None)
    if isinstance(t, OmegaRep):
        if is_wellfounded(t.body):
            return (0, None, 0, None)
        if is_cowellfounded(t.body):
            return (1, 0, 0, None)
        return (inf, inf, inf, inf)
    if isinstance(t, OmegaStarRep):
        if is_cowellfounded(t.body):
            return (0, 0, None, None)
        if is_wellfounded(t.body):
            return (1, 0, 0, None)
        return (inf, inf, inf, inf)
    if isinstance(t, Sum):
        a, at = _sum_scan(t.parts, start_closed=True)
        ab, abt = _sum_scan(t.parts, start_closed=False)
        return (a, at, ab, abt)
    raise TypeError(f"not an order term: {t!r}")


def _sum_scan(parts, *, start_closed: bool) -> tuple:
    closed = 0 if start_closed else None
    open_ = None
    unplaced = None if start_closed else 0
    for p in parts:
        a, at, ab, abt = _profile(p)
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


def alternation_number(t: OrderTerm) -> Count:
    """Max number of disjoint intervals each containing an ω*-chain with an
    ω-chain above it; ``math.inf`` when no finite bound exists."""
    value = _profile(t)[0]
    assert value is not None
    return value


# -------------------------------------------------------------------- ranks


@cache
def hausdorff_rank(t: OrderTerm) -> int:
    """0 for finite chains, 1 for ω/ω*, max over sum parts, and +1 for each
    repetition of an infinite body."""
    if isinstance(t, Fin):
        return 0
    if isinstance(t, (Omega, OmegaStar)):
        return 1
    if isinstance(t, Sum):
        return max(hausdorff_rank(p) for p in t.parts)
    if isinstance(t, (OmegaRep, OmegaStarRep)):
        return 1 if is_finite(t.body) else hausdorff_rank(t.body) + 1
    raise TypeError(f"not an order term: {t!r}")


# -------------------------------------------------------------- vacillation


@cache
def _omega_decomposable(t: OrderTerm) -> bool:
    """Can t be written as an ω-indexed sum of blocks, each infinite and
    containing no ω-chain?

    Leaves: never (a finite order or ω has no valid block at all; ω* has a
    maximum while any such sum has none).

    Sum: the final part absorbs all but finitely many blocks, so every
    earlier part must decompose into finitely many co-wellfounded intervals
    — i.e. be co-wellfounded — and the final part must itself decompose
    (a straddling first block merges with a co-wellfounded prefix, since a
    finite union of consecutive co-wellfounded intervals is
    co-wellfounded).

    ω-indexed repetition: the blocks can be the copies themselves exactly
    when the body is co-wellfounded; conversely copy 0 is covered by
    finitely many blocks (any block touching copy 1 has all later blocks
    above copy 0), so it must be co-wellfounded.

    ω*-indexed repetition: never — a first block would be a nonempty
    initial interval, which here contains whole copies arbitrarily far
    down, hence an ω-chain taking one point per copy upward.
    """
    if isinstance(t, (Fin, Omega, OmegaStar)):
        return False
    if isinstance(t, Sum):
        return all(is_cowellfounded(p) for p in t.parts[:-1]) and _omega_decomposable(
            t.parts[-1]
        )
    if isinstance(t, OmegaRep):
        return is_cowellfounded(t.body)
    if isinstance(t, OmegaStarRep):
        return False
    raise TypeError(f"not an order term: {t!r}")


def is_vacillating_chain(t: OrderTerm) -> bool:
    """True when neither t nor its reverse is an ω-indexed sum of infinite
    co-wellfounded blocks."""
    return not (_omega_decomposable(t) or _omega_decomposable(reverse(t)))


# ------------------------------------------------------------------ reports


def term_report(t: OrderTerm) -> dict:
    """The JSON-ready summary used by the command-line ``ot check``."""
    plus, minus = limit_point_counts(t)
    alt = alternation_number(t)
    return {
        "term": render(t),
        "predicates": predicates(t).to_dict(),
        "alt": "inf" if alt == inf else int(alt),
        "rank": hausdorff_rank(t),
        "limits": {
            "plus": "w" if plus == inf else int(plus),
            "minus": "w" if minus == inf else int(minus),
        },
        "vacillating": is_vacillating_chain(t),
    }
