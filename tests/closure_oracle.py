"""Bounded co-clone closure: the test oracle that cross-checks `classify`.

`coclone_fragment` generates the members of a language's co-clone up to a
small arity by closing under the primitive operations (permutation,
identification, projection, join) plus equality; `fragment_contains` is the
membership probe with early exit.  It is exponential and only meant for
tests at arity <= 4.

Inside the closure a relation is its `(arity, mask)` pair, as in
`Relation`, and each stored one keeps its list of member codes.  Each
dequeued relation is joined with the relations dequeued before it (and
itself), looked up by arity, so every pair is joined once in each order.
"""

from __future__ import annotations

import itertools
from collections import deque

from minsol.errors import InternalConsistencyError, ParseError
from minsol.relations import EQ2, Language, Relation

Rel = tuple[int, int]  # (arity, membership mask)


def _members(rel: Rel) -> list[int]:
    arity, mask = rel
    return [c for c in range(1 << arity) if (mask >> c) & 1]


def _heads(r2: Rel, t2s: list[int], overlap: int) -> list[int]:
    """Per value of r2's first `overlap` coords, the mask of the values its
    remaining coords take with it."""
    tail = r2[0] - overlap
    rests = [0] * (1 << overlap)
    for t2 in t2s:
        rests[t2 >> tail] |= 1 << (t2 & ((1 << tail) - 1))
    return rests


def _join(r1: Rel, t1s: list[int], r2: Rel, rests: list[int], overlap: int) -> Rel | None:
    """Conjoin, identifying the last `overlap` coords of r1 with the first
    of r2 (`rests` from `_heads`); result arity n1 + n2 - overlap.  None if
    the join is empty."""
    tail = r2[0] - overlap
    mask = 0
    lowmask = (1 << overlap) - 1
    for t1 in t1s:
        mask |= rests[t1 & lowmask] << (t1 << tail)
    if mask == 0:
        return None
    return r1[0] + tail, mask


def _permutations_of(rel: Rel, ts: list[int]) -> list[Rel]:
    n = rel[0]
    rows = [[(t >> (n - 1 - i)) & 1 for i in range(n)] for t in ts]
    out = []
    for perm in itertools.permutations(range(n)):
        mask = 0
        for bits in rows:
            mask |= 1 << sum(bits[perm[i]] << (n - 1 - i) for i in range(n))
        out.append((n, mask))
    return out


def _identify_last_two(rel: Rel, ts: list[int]) -> Rel | None:
    mask = 0
    for t in ts:
        if (t & 1) == ((t >> 1) & 1):
            mask |= 1 << ((t >> 2 << 1) | (t & 1))
    return (rel[0] - 1, mask) if mask else None


def _project_last(rel: Rel, ts: list[int]) -> Rel:
    mask = 0
    for t in ts:
        mask |= 1 << (t >> 1)
    return rel[0] - 1, mask


def _project_coord(rel: Rel, ts: list[int], coord: int) -> Rel:
    shift = rel[0] - 1 - coord
    mask = 0
    for t in ts:
        high = t >> (shift + 1)
        low = t & ((1 << shift) - 1)
        mask |= 1 << ((high << shift) | low)
    return rel[0] - 1, mask


def coclone_fragment(
    gamma: Language,
    max_arity: int,
    working_arity: int | None = None,
    target: Relation | None = None,
    state_cap: int = 200_000,
) -> set[Relation]:
    """All members of the generated co-clone up to `max_arity`.

    Fixpoint closure of the language plus equality under permutation,
    identification, existential quantification, and joins.  Stored
    relations are capped at `working_arity` (default: the larger of
    max_arity and the seed arities); joins may transiently exceed it by
    one coordinate, which is immediately projected away.  Passing a
    `target` stops the search as soon as that relation appears.
    """
    if max_arity > 4:
        raise ParseError("fragment oracle capped at arity 4")
    seeds = list(gamma.members()) + [EQ2]
    w = working_arity or max(max_arity, max(r.arity for r in seeds))
    goal = None if target is None else (target.arity, target.mask)
    seen: dict[Rel, list[int]] = {}  # stored relation -> its member codes
    queue: deque[Rel] = deque()
    done: dict[int, list[Rel]] = {}  # dequeued relations by arity
    heads: dict[tuple[Rel, int], list[int]] = {}
    spent: set[Rel] = set()  # transient join results already projected
    found = False

    def join(left: Rel, right: Rel, overlap: int) -> Rel | None:
        rests = heads.get((right, overlap))
        if rests is None:
            rests = heads[right, overlap] = _heads(right, seen[right], overlap)
        return _join(left, seen[left], right, rests, overlap)

    def push(r: Rel | None) -> None:
        nonlocal found
        if r is None or r[0] > w + 1 or found:
            return
        if r[0] > w:
            # transient join result: quantify away each coordinate in turn
            if r in spent:
                return
            spent.add(r)
            ts = _members(r)
            for i in range(r[0]):
                push(_project_coord(r, ts, i))
            return
        if r not in seen:
            seen[r] = _members(r)
            queue.append(r)
            if r == goal:
                found = True

    for s in seeds:
        if s.arity <= w:
            push((s.arity, s.mask))
        else:
            # oversized seeds: feed in their projections/identifications
            frontier = [(s.arity, s.mask)]
            while frontier:
                cur = frontier.pop()
                if cur[0] <= w:
                    push(cur)
                    continue
                for p in _permutations_of(cur, _members(cur)):
                    ts = _members(p)
                    nxt = _identify_last_two(p, ts)
                    if nxt is not None:
                        frontier.append(nxt)
                    frontier.append(_project_last(p, ts))
    while queue and not found:
        if len(seen) > state_cap:
            raise InternalConsistencyError("fragment closure exceeded its state cap")
        r = queue.popleft()
        rs = seen[r]
        for p in _permutations_of(r, rs):
            push(p)
            if p[0] >= 2:
                ps = seen.get(p) or _members(p)
                push(_identify_last_two(p, ps))
                push(_project_last(p, ps))
            if found:
                break
        done.setdefault(r[0], []).append(r)
        for arity, partners in done.items():
            overlaps = range(max(0, r[0] + arity - w - 1), min(r[0], arity) + 1)
            for other in partners:
                if found:
                    break
                for left, right in ((r, other), (other, r)):
                    for overlap in overlaps:
                        push(join(left, right, overlap))
    return {Relation(a, m) for a, m in seen if a <= max_arity}


def fragment_contains(
    gamma: Language, target: Relation, max_arity: int | None = None
) -> bool:
    """Membership probe for the closure, with early exit on success."""
    ma = max_arity or min(4, max(target.arity, gamma.max_arity))
    got = coclone_fragment(gamma, ma, target=target)
    return target in got
