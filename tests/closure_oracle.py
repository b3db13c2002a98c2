"""Bounded co-clone closure: the test oracle that cross-checks `classify`.

`coclone_fragment` generates the members of a language's co-clone up to a
small arity by closing under the primitive operations (permutation,
identification, projection, join) plus equality; `fragment_contains` is the
membership probe with early exit.  It is exponential and only meant for
tests at arity <= 4.
"""

from __future__ import annotations

import itertools
from collections import deque

from minsol.errors import InternalConsistencyError, ParseError
from minsol.relations import EQ2, Language, Relation


def _join(r1: Relation, r2: Relation, overlap: int) -> Relation | None:
    """Conjoin, identifying the last `overlap` coords of r1 with the first
    of r2; result arity n1 + n2 - overlap.  None if the join is empty."""
    n1, n2 = r1.arity, r2.arity
    tail = n2 - overlap
    buckets: dict[int, list[int]] = {}
    for t2 in r2.tuples():
        buckets.setdefault(t2 >> tail, []).append(t2 & ((1 << tail) - 1))
    mask = 0
    lowmask = (1 << overlap) - 1
    for t1 in r1.tuples():
        for rest in buckets.get(t1 & lowmask, ()):
            mask |= 1 << ((t1 << tail) | rest)
    if mask == 0:
        return None
    return Relation(n1 + n2 - overlap, mask)


def _permutations_of(r: Relation) -> list[Relation]:
    n = r.arity
    out = []
    for perm in itertools.permutations(range(n)):
        mask = 0
        for t in r.tuples():
            bits = [(t >> (n - 1 - i)) & 1 for i in range(n)]
            mask |= 1 << sum(bits[perm[i]] << (n - 1 - i) for i in range(n))
        out.append(Relation(n, mask))
    return out


def _identify_last_two(r: Relation) -> Relation | None:
    n = r.arity
    mask = 0
    for t in r.tuples():
        if (t & 1) == ((t >> 1) & 1):
            mask |= 1 << ((t >> 2 << 1) | (t & 1))
    return Relation(n - 1, mask) if mask else None


def _project_last(r: Relation) -> Relation:
    mask = 0
    for t in r.tuples():
        mask |= 1 << (t >> 1)
    return Relation(r.arity - 1, mask)


def _project_coord(r: Relation, coord: int) -> Relation:
    n = r.arity
    shift = n - 1 - coord
    mask = 0
    for t in r.tuples():
        high = t >> (shift + 1)
        low = t & ((1 << shift) - 1)
        mask |= 1 << ((high << shift) | low)
    return Relation(n - 1, mask)


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
    seen: set[Relation] = set()
    queue: deque[Relation] = deque()
    found = False

    def push(r: Relation | None) -> None:
        nonlocal found
        if r is None or r.arity > w + 1 or found:
            return
        if r.arity > w:
            # transient join result: quantify away each coordinate in turn
            for i in range(r.arity):
                push(_project_coord(r, i))
            return
        if r not in seen:
            seen.add(r)
            queue.append(r)
            if target is not None and r == target:
                found = True

    for s in seeds:
        if s.arity <= w:
            push(s)
        else:
            # oversized seeds: feed in their projections/identifications
            frontier = [s]
            while frontier:
                cur = frontier.pop()
                if cur.arity <= w:
                    push(cur)
                    continue
                for p in _permutations_of(cur):
                    nxt = _identify_last_two(p)
                    if nxt is not None:
                        frontier.append(nxt)
                    frontier.append(_project_last(p))
    while queue and not found:
        if len(seen) > state_cap:
            raise InternalConsistencyError("fragment closure exceeded its state cap")
        r = queue.popleft()
        for p in _permutations_of(r):
            push(p)
            if p.arity >= 2:
                push(_identify_last_two(p))
                push(_project_last(p))
            if found:
                break
        for other in list(seen):
            if found:
                break
            for left, right in ((r, other), (other, r)):
                for overlap in range(0, min(left.arity, right.arity) + 1):
                    if left.arity + right.arity - overlap <= w + 1:
                        push(_join(left, right, overlap))
    return {r for r in seen if r.arity <= max_arity}


def fragment_contains(
    gamma: Language, target: Relation, max_arity: int | None = None
) -> bool:
    """Membership probe for the closure, with early exit on success."""
    ma = max_arity or min(4, max(target.arity, gamma.max_arity))
    got = coclone_fragment(gamma, ma, target=target)
    return target in got
