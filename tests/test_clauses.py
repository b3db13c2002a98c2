"""The clause index against the pass-until-fixpoint propagation oracle."""

from __future__ import annotations

import random

from propagation_oracle import rescan_probe, rescan_propagate

from minsol.clauses import ClauseIndex, unit_propagate


def _random_clauses(rng: random.Random, n: int) -> list[frozenset[int]]:
    clauses = []
    for _ in range(rng.randint(0, 14)):
        width = rng.randint(1, 4)
        if rng.random() < 0.9:
            vs = rng.sample(range(1, n + 1), min(width, n))
        else:  # repeated variables: tautologies and collapsed literals
            vs = [rng.randint(1, n) for _ in range(width)]
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def test_unit_propagate_and_probes_match_the_rescan_oracle():
    rng = random.Random(20_000)
    conflicts = 0
    for trial in range(20_000):
        n = rng.randint(1, 9)
        clauses = _random_clauses(rng, n)
        assumptions = None
        if trial % 2:
            fixed = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            assumptions = {v: rng.randint(0, 1) for v in fixed}
        expected = rescan_propagate(clauses, assumptions)
        got = unit_propagate(clauses, assumptions)
        assert got == expected, (clauses, assumptions)
        conflicts += expected is None
        lit = rng.choice((1, -1)) * rng.randint(1, n)
        assert ClauseIndex(clauses).probe(lit) == rescan_probe(clauses, lit), (clauses, lit)
    # both verdicts are well represented
    assert 2_000 < conflicts < 18_000


def _binary_sets(rng: random.Random, implications_only: bool):
    for _ in range(1_500):
        n = rng.randint(2, 10)
        clauses = set()
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(1, n + 1), 2)
            if implications_only:
                clauses.add(frozenset({-a, b}))
            else:
                clauses.add(frozenset({rng.choice((a, -a)), rng.choice((b, -b))}))
        yield n, sorted(clauses, key=sorted)


def test_bitset_closure_matches_single_literal_probes():
    rng = random.Random(2_222)
    failed = {False: 0, True: 0}
    for implications_only in (False, True):
        for n, clauses in _binary_sets(rng, implications_only):
            index = ClauseIndex(clauses, n)
            for lit in (s * v for v in range(1, n + 1) for s in (1, -1)):
                expected = rescan_probe(clauses, lit)
                reach = index.reach(lit)
                assert bool(reach & index.bit(-lit)) == (expected is None)
                assert index.probe(lit) == expected
                if expected is None:
                    failed[implications_only] += 1
                    continue
                members = {l for v in range(1, n + 1) for l in (v, -v) if reach & index.bit(l)}
                assert members == expected
    # implications alone never fail a probe; 2-CNF often does
    assert failed[True] == 0 and failed[False] > 1_000


def test_closure_on_a_chain_longer_than_the_recursion_limit():
    n = 5000
    chain = [frozenset({-v, v + 1}) for v in range(1, n)]
    index = ClauseIndex(chain, n)
    comp, _ = index.closure
    assert len(set(comp.values())) == 2 * n
    assert index.reach(1) == sum(index.bit(v) for v in range(1, n + 1))
    assert index.reach(-n) == sum(index.bit(-v) for v in range(1, n + 1))
    assert len(index.probe(1)) == n
    cycle = ClauseIndex([*chain, frozenset({-n, 1})], n)
    comp, _ = cycle.closure
    assert len({comp[v] for v in range(1, n + 1)}) == 1
    assert comp[1] != comp[-1]
