"""The clause index against the pass-until-fixpoint propagation oracle and
the reference 2-SAT engines; clause extraction against the reference
extraction, and what the clause cache keeps."""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from clause_oracle import reference_clauses
from helpers import lang
from implicate_oracle import clause_allowed
from propagation_oracle import (
    reference_twosat_model,
    reference_twosat_toward,
    rescan_probe,
    rescan_propagate,
)

from minsol import clauses, decision
from minsol.clauses import ClauseIndex, twosat_model, unit_propagate
from minsol.errors import InternalConsistencyError, ShapeUnavailable
from minsol.formulas import Assignment, make_formula
from minsol.nsol import _twosat_toward
from minsol.relations import EQ2, T_REL, Relation, clause_rel, cnf_decompose

DISJUNCTIVE_SHAPES = [("horn", None), ("dual_horn", None), ("bijunctive", None), ("monotone", None)]
DISJUNCTIVE_SHAPES += [(shape, k) for shape in ("ihsb_pos", "ihsb_neg") for k in (2, 3, 4)]


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
    comp = index.components
    assert len(set(comp.values())) == 2 * n
    assert index.reach(1) == sum(index.bit(v) for v in range(1, n + 1))
    assert index.reach(-n) == sum(index.bit(-v) for v in range(1, n + 1))
    assert len(index.probe(1)) == n
    cycle = ClauseIndex([*chain, frozenset({-n, 1})], n)
    comp = cycle.components
    assert len({comp[v] for v in range(1, n + 1)}) == 1
    assert comp[1] != comp[-1]


def _random_2cnf(rng: random.Random, n: int) -> list[frozenset[int]]:
    clauses = []
    for _ in range(rng.randint(0, 2 * n)):
        vs = rng.sample(range(1, n + 1), min(rng.choice((1, 2, 2, 2)), n))
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def test_twosat_engines_match_the_reference_models():
    """Byte-identical 2-SAT models, and the same half-variable completions
    and failures, on random 2-CNFs."""
    rng = random.Random(14_000)
    unsat = failed = 0
    for _ in range(3_000):
        n = rng.randint(1, 14)
        clauses = _random_2cnf(rng, n)
        expected = reference_twosat_model(clauses, n)
        assert twosat_model(ClauseIndex(clauses, n)) == expected
        unsat += expected is None
        m = Assignment(tuple(rng.randint(0, 1) for _ in range(n)))
        variables = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        try:
            expected_toward = reference_twosat_toward(m, variables, clauses)
        except InternalConsistencyError:
            failed += 1
            with pytest.raises(InternalConsistencyError):
                _twosat_toward(m, variables, ClauseIndex(clauses, n))
            continue
        got = _twosat_toward(m, variables, ClauseIndex(clauses, n))
        assert sorted(got.items()) == sorted(expected_toward.items())
    # satisfiable and unsatisfiable inputs are both well represented
    assert 300 < unsat < 2_700 and failed > 100


def _shape_relation(rng: random.Random, shape: str, k: int | None) -> Relation:
    """The conjunction of up to four random clauses that the shape admits,
    over one to four coordinates; a clause that would leave no member is
    skipped."""
    arity = rng.randint(1, 4)
    mask = (1 << (1 << arity)) - 1
    for _ in range(rng.randint(1, 4)):
        while True:
            coords = rng.sample(range(arity), rng.randint(1, arity))
            pos = [i for i in coords if rng.random() < 0.5]
            neg = [i for i in coords if i not in pos]
            if clause_allowed(shape, k, tuple(pos), tuple(neg)):
                break
        mask = mask & clause_rel(arity, pos, neg).mask or mask
    return Relation(arity, mask)


def test_extraction_matches_the_reference_on_every_disjunctive_shape():
    """The same clauses in the same order, on atoms with repeated variables
    (merged literals, dropped tautologies) and with duplicate atoms."""
    rng = random.Random(17_000)
    merged = tautologies = 0
    for shape, k in DISJUNCTIVE_SHAPES:
        formulas = 0
        while formulas < 120:
            rels = {f"r{i}": _shape_relation(rng, shape, k) for i in range(rng.randint(1, 3))}
            n = rng.randint(1, 6)
            atoms = []
            for _ in range(rng.randint(1, 8)):
                name = rng.choice(list(rels))
                atoms.append((name, tuple(rng.randint(1, n) for _ in range(rels[name].arity))))
            atoms.append(rng.choice(atoms))
            f = make_formula(lang(**rels), n, atoms)
            try:
                expected = reference_clauses(f, shape, k)
            except ShapeUnavailable:  # a projection wider than k
                with pytest.raises(ShapeUnavailable):
                    clauses.cached_clauses(f, shape, k)
                continue
            got = clauses.cached_clauses(f, shape, k)
            assert got == expected and all(type(c) is frozenset for c in got), (f, shape, k)
            formulas += 1
            for rel, (_, vars_) in zip(f.bound, f.atoms):
                for cl in cnf_decompose(rel, shape, k):
                    pos = {vars_[i] for i in cl.positives}
                    neg = {vars_[i] for i in cl.negatives}
                    tautologies += bool(pos & neg)
                    merged += len(pos) + len(neg) < len(cl.positives) + len(cl.negatives)
    assert merged > 100 and tautologies > 100


def test_the_clause_cache_keeps_only_recent_formulas():
    """One 64-entry cache holds each formula's clause index: one miss per
    extraction, the default width shared with an explicit None, and a
    formula that 64 newer ones went past is collected."""
    language = lang(eq=EQ2, t=T_REL)  # every clause shape and parity admit both
    cache = clauses._formula_clause_cache

    def visit(n: int):
        f = make_formula(language, n, [("eq", (1, n)), ("t", (n,))])
        misses = cache.cache_info().misses
        for shape, k in DISJUNCTIVE_SHAPES:
            index = clauses.clause_index(f, shape, k)
            assert clauses.cached_clauses(f, shape, k) is index.clauses
            if k is None:
                assert clauses.clause_index(f, shape) is index
        assert cache.cache_info().misses == misses + len(DISJUNCTIVE_SHAPES)
        clauses.parity_rows(f)
        decision._label(f)
        return f

    old = weakref.ref(visit(2))
    for n in range(3, 3 + 64):
        visit(n)
    gc.collect()
    assert old() is None
    for n in range(3 + 64, 2 + 200):
        visit(n)
    assert cache.cache_info().currsize <= 64
