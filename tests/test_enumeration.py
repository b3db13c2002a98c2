"""Model enumeration against the numpy gather of `enumeration_oracle`.

Seeded random formulas: n 1-20, relations of arity 1-16 (random, near
full and near empty), atoms on distinct or repeated variables, zero
atoms, and blocks from 2**1 codes up.  `model_codes` must return the
reference's codes and dtype; `enumerate_models` its first `cap` models
and `truncated` iff a model lies past the cap (all of them, uncapped,
when they are few), with caps on and next to the block boundaries.  The
NSOL and XSOL oracle, which reads distances off the blocks, must return
the model `nearest_code` picks from the reference.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from enumeration_oracle import gather_codes, nearest_code
from helpers import lang
from minsol import formulas
from minsol.errors import NoSecondModel, NotAModel, TooLarge, Unsatisfiable
from minsol.formulas import (
    NSOL,
    XSOL,
    Assignment,
    enumerate_models,
    make_formula,
    model_codes,
    oracle_optimize,
)
from minsol.relations import F_REL, T_REL, Relation, sorted_atom, tuple_code


def _relation(rng: random.Random, arity: int) -> Relation:
    codes = [rng.randrange(1 << arity) for _ in range(rng.randint(1, 4))]
    kind = rng.randrange(3)
    if kind == 0:  # each tuple a coin flip
        return Relation(arity, rng.getrandbits(1 << arity) or 1)
    few = Relation.from_tuples(arity, codes)
    if kind == 1 and not few.is_full():  # near full: all but a few tuples
        return Relation(arity, ((1 << (1 << arity)) - 1) & ~few.mask)
    return few  # near empty: a few tuples


def _variables(rng: random.Random, arity: int, n: int) -> list[int]:
    if arity <= n and rng.random() < 0.5:
        return rng.sample(range(1, n + 1), arity)
    pool = rng.sample(range(1, n + 1), rng.randint(1, min(n, arity)))
    return [rng.choice(pool) for _ in range(arity)]  # repeats whenever the pool is short


def _formula(rng: random.Random, max_vars: int, max_arity: int):
    n = rng.randint(1, max_vars)
    rels, atoms = {}, []
    for i in range(rng.choice((0, 1, 2, 3, 5))):
        arity = rng.randint(1, max_arity)
        rels[f"r{i}"] = _relation(rng, arity)
        atoms.append((f"r{i}", _variables(rng, arity, n)))
    return make_formula(lang(**rels), n, atoms)


def _check(f) -> None:
    want = gather_codes(f)
    got = model_codes(f)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    edges = (max(len(want) - 1, 0), len(want), None)  # the cap at and next to the count
    # caps at the models below each of the first block boundaries, and one
    # either side: the cap lands on a block's last model or inside a block
    step = 1 << min(formulas._BLOCK_BITS, f.var_count)
    below = np.searchsorted(want, [step, 2 * step, 3 * step]).tolist()
    blocks = tuple(c + e for c in below for e in (-1, 0, 1) if 0 < c + e <= 4096)
    for cap in (0, 1, 2) + (edges if len(want) <= 4096 else ()) + blocks:
        listed = enumerate_models(f, cap)
        kept = want[:cap] if cap is not None else want
        assert [m.code() for m in listed.assignments] == kept.tolist()
        assert listed.truncated == (len(want) > len(kept))


def test_matches_the_gather():
    rng = random.Random(180)
    for _ in range(150):
        _check(_formula(rng, max_vars=20, max_arity=16))


@pytest.mark.parametrize("block_bits", [1, 2, 3, 5])
def test_matches_the_gather_in_tiny_blocks(monkeypatch, block_bits):
    # many blocks, so each atom is sliced on the variables above a block
    monkeypatch.setattr(formulas, "_BLOCK_BITS", block_bits)
    rng = random.Random(181 + block_bits)
    for _ in range(60):
        _check(_formula(rng, max_vars=11, max_arity=8))


def test_zero_atoms():
    for n in (1, 5, 17):
        f = make_formula(lang(r=Relation(1, 0b10)), n, [])
        assert model_codes(f).tolist() == list(range(1 << n))
        assert [str(m) for m in enumerate_models(f, 2).assignments] == [
            str(Assignment.from_code(c, n)) for c in (0, 1)
        ]


def test_arity_16_atoms_across_blocks():
    # two near-full arity-16 atoms sharing variables, with 16 blocks of 2**16 codes
    rng = random.Random(182)
    rels = {name: _relation(random.Random(name), 16) for name in ("a", "b")}
    atoms = [("a", rng.sample(range(1, 21), 16)), ("b", rng.sample(range(1, 21), 16))]
    _check(make_formula(lang(**rels), 20, atoms))


def test_sorted_atom_merges_and_sorts():
    # r(x3, x1, x3) over tuples 000, 011, 101, 110: the copies of x3 agree on
    # 000 and 101 only, which become (x1, x3) = (0, 0) and (0, 1)
    rel = Relation.from_tuples(3, ["000", "011", "101", "110"])
    assert sorted_atom(rel, (3, 1, 3)) == ((1, 3), 0b0011)
    # reversing the coordinates reverses each tuple
    rel = Relation.from_tuples(2, ["01"])
    assert sorted_atom(rel, (2, 1)) == ((1, 2), 1 << 0b10)
    assert np.array_equal(
        model_codes(make_formula(lang(r=rel), 2, [("r", (2, 1))])), np.array([0b10])
    )


def test_sorted_atom_depends_on_the_rank_pattern():
    # the memoised mask against a direct projection, and reused for any
    # variables of the same rank pattern (order and repeats)
    rng = random.Random(183)
    for _ in range(300):
        rel = _relation(rng, rng.randint(1, 5))
        variables = [rng.randint(1, 6) for _ in range(rel.arity)]
        vs = sorted(set(variables))
        want = 0
        for code in range(1 << len(vs)):
            value = {v: (code >> (len(vs) - 1 - i)) & 1 for i, v in enumerate(vs)}
            if rel.contains(tuple_code([value[v] for v in variables])):
                want |= 1 << code
        assert sorted_atom(rel, variables) == (tuple(vs), want)
        relabel = dict(zip(vs, sorted(rng.sample(range(1, 40), len(vs)))))
        assert sorted_atom(rel, [relabel[v] for v in variables]) == (tuple(relabel.values()), want)


def _check_oracle(f, rng: random.Random) -> int:
    """Compare NSOL from a random point and XSOL from a random model with
    the argmin; returns how many calls were compared."""
    codes = gather_codes(f)
    n = f.var_count
    if not len(codes):
        return 0
    point = rng.randrange(1 << n)
    out = oracle_optimize(NSOL, f, Assignment.from_code(point, n))
    assert (out.value, out.witness.code()) == nearest_code(codes, point)
    model = int(rng.choice(codes))
    others = codes[codes != model]
    if not len(others):
        with pytest.raises(NoSecondModel):
            oracle_optimize(XSOL, f, Assignment.from_code(model, n))
        return 1
    out = oracle_optimize(XSOL, f, Assignment.from_code(model, n))
    assert (out.value, out.witness.code()) == nearest_code(others, model)
    return 2


@pytest.mark.parametrize("n", range(1, 21))
def test_nearest_model_matches_the_reference(n):
    # from n = 17 a formula spans two or more blocks of 2**16 codes
    rng = random.Random(190 + n)
    compared = 0
    while compared < 20:
        f = _formula(rng, max_vars=n, max_arity=min(n, 8))
        if f.var_count == n:
            compared += _check_oracle(f, rng)


@pytest.mark.parametrize("block_bits", [1, 3])
def test_nearest_model_matches_the_reference_in_tiny_blocks(monkeypatch, block_bits):
    monkeypatch.setattr(formulas, "_BLOCK_BITS", block_bits)
    rng = random.Random(211 + block_bits)
    for _ in range(80):
        _check_oracle(_formula(rng, max_vars=10, max_arity=6), rng)


def test_xsol_from_the_only_model_of_its_block():
    # x2..x17 are 0 and x1 is free: one model in each of the two blocks
    f = make_formula(lang(f=F_REL), 17, [("f", [v]) for v in range(2, 18)])
    out = oracle_optimize(XSOL, f, Assignment.from_code(0, 17))
    assert out.value == 1 and out.witness.code() == 1 << 16
    out = oracle_optimize(XSOL, f, Assignment.from_code(1 << 16, 17))
    assert out.value == 1 and out.witness.code() == 0


def test_xsol_from_the_only_model():
    f = make_formula(lang(f=F_REL), 17, [("f", [v]) for v in range(1, 18)])
    with pytest.raises(NoSecondModel):
        oracle_optimize(XSOL, f, Assignment.from_code(0, 17))
    assert oracle_optimize(NSOL, f, Assignment.from_code(5, 17)).value == 2


def test_refusal_order():
    # each formula also fails every check after its own
    contradiction = lang(t=T_REL, f=F_REL)
    too_large = make_formula(contradiction, 25, [("t", [1]), ("f", [1])])
    unsat = make_formula(contradiction, 17, [("t", [1]), ("f", [1])])
    single = make_formula(lang(f=F_REL), 17, [("f", [v]) for v in range(1, 18)])
    for f, error in ((too_large, TooLarge), (unsat, Unsatisfiable), (single, NotAModel)):
        for problem in (NSOL, XSOL) if error is not NotAModel else (XSOL,):
            with pytest.raises(error):
                oracle_optimize(problem, f, Assignment.from_code(1, f.var_count))
    with pytest.raises(NoSecondModel):
        oracle_optimize(XSOL, single, Assignment.from_code(0, 17))
