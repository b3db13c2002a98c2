"""Conjunctive formulas, assignments, model enumeration, and the oracle.

The oracle is the library's ground truth: plain exhaustive enumeration.
A block of 2**16 codes is one int with bit c for code c, so each atom
narrows a block's models by O(arity) whole-set operations
(`_model_blocks`).  NSOL and XSOL are answered on those ints
(`nearest_model`): a block translated by the input's low bits holds the
model at low distance w in its codes of weight w, so one AND per weight
finds the block's nearest models.  So is MSD (`_radius_pair`): for
d = 1, 2, ... a weight-d mask splits into high bits, which name a later
partner block, and low bits, by which a block is translated, one delta
swap from a lighter mask; the translated block meets the partner in the
pairs at distance d.  Each distance is priced before it runs, as blocks
x C(n, d) x the words of a block int.  The price counts every block, as
a formula whose few models lie in all 256 blocks at n = 24 pays each
distance 256 times.  Once the total would pass `_WORDS_PER_PAIR` words
per model pair, the codes are read out and every pair is compared
(`_pairwise_pair`), so no input costs much more than twice that scan.
That hand-over alone uses numpy, imported on its first call:
`model_codes` reads the codes out and `_pairwise_pair` compares them.
`enumerate_models` reads codes off the block ints (`set_bits`).
Assignment codes are MSB-first (variable 1 is the most significant bit),
so ascending code order is lexicographic order on bitstrings.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from math import comb
from operator import ne
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import (
    InternalConsistencyError,
    LengthMismatch,
    NoSecondModel,
    NotAModel,
    ParseError,
    TooLarge,
    Unsatisfiable,
)
from .gf2 import popcount
from .outcome import SolveOutcome, exact
from .relations import (
    Language,
    Relation,
    dualize,
    load_language,
    membership_table,
    parse_relation_line,
    set_bits,
    sorted_atom,
    swap_bits,
    swap_mask,
    translate,
    _low,
    _weight_sets,
)

if TYPE_CHECKING:
    import numpy as np

ORACLE_VAR_CAP = 24
_BLOCK_BITS = 16  # 2**16 codes per block: each whole-set int is 8 KiB
# Block-int words the MSD radius search may spend per model pair before it
# hands over to the pairwise scan.  Calibrated on scripts/probe_oracle.py:
# a priced word costs the search 0.4-10 ns, a pair the scan 20-50 ns, and
# anywhere from 2 to 20 gave the same total there.
_WORDS_PER_PAIR = 10

NSOL = "NSOL"
XSOL = "XSOL"
MSD = "MSD"

@dataclass(frozen=True)
class Assignment:
    """A fixed-length bit vector over the formula's variables."""

    bits: tuple[int, ...]

    @classmethod
    def from_string(cls, s: str) -> "Assignment":
        if not s or set(s) - {"0", "1"}:
            raise ParseError(f"assignment must be a nonempty bitstring, got {s!r}")
        return cls(tuple(int(c) for c in s))

    @classmethod
    def from_code(cls, code: int, n: int) -> "Assignment":
        return cls(tuple((code >> (n - 1 - i)) & 1 for i in range(n)))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(map(str, self.bits))

    def code(self) -> int:
        c = 0
        for b in self.bits:
            c = (c << 1) | b
        return c

    def value(self, var: int) -> int:
        """Value of 1-based variable index."""
        return self.bits[var - 1]

    def complement(self) -> "Assignment":
        return Assignment(tuple(1 - b for b in self.bits))


def hamming(m1: Assignment, m2: Assignment) -> int:
    """Number of coordinates on which the two vectors disagree."""
    if len(m1) != len(m2):
        raise LengthMismatch(f"lengths {len(m1)} and {len(m2)} differ")
    return sum(map(ne, m1.bits, m2.bits))


@dataclass(frozen=True)
class Formula:
    """A conjunction of atoms over a language; variables are 1-based.

    Construction validates the atoms and binds them: `bound[i]` is the
    relation of `atoms[i]`, so no layer looks a name up again.  It takes no
    part in equality, hashing or the repr.  It holds the relations alone,
    not (relation, variables) pairs: cached formulas then keep one tuple
    more each rather than one per atom for the garbage collector to scan.
    The hash is computed once, as every cached layer looks formulas up.
    """

    language: Language
    var_count: int
    atoms: tuple[tuple[str, tuple[int, ...]], ...]
    bound: tuple[Relation, ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.var_count
        if n < 1:
            raise ParseError("formulas need at least one variable")
        get = self.language.get
        bound = []
        for name, vars_ in self.atoms:
            rel = get(name)
            if len(vars_) != rel.arity:
                raise ParseError(
                    f"atom {name}{vars_} has {len(vars_)} indices, arity is {rel.arity}"
                )
            if not (1 <= min(vars_) and max(vars_) <= n):
                raise ParseError(f"atom {name}{vars_} uses an index outside 1..{n}")
            bound.append(rel)
        object.__setattr__(self, "bound", tuple(bound))
        object.__setattr__(self, "_hash", hash((self.language, self.var_count, self.atoms)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilds the hash, as string hashes differ between processes
        return Formula, (self.language, self.var_count, self.atoms)

    def relation(self, name: str) -> Relation:
        return self.language.get(name)

    def effective_language(self) -> Language:
        """Declared relations plus any builtins the atoms reference."""
        declared = self.language.index
        extra: dict[str, Relation] = {}
        for (name, _), rel in zip(self.atoms, self.bound):
            if name not in declared:
                extra.setdefault(name, rel)
        if not extra:
            return self.language
        return Language(self.language.relations + tuple(extra.items()))

    def check_length(self, m: Assignment) -> None:
        if len(m) != self.var_count:
            raise LengthMismatch(f"assignment length {len(m)} != var count {self.var_count}")


def satisfies(formula: Formula, m: Assignment) -> bool:
    """True iff every atom's projected tuple is in its relation."""
    formula.check_length(m)
    bits = m.bits
    for rel, (_, vars_) in zip(formula.bound, formula.atoms):
        code = 0
        for v in vars_:
            code = (code << 1) | bits[v - 1]
        if not (rel.mask >> code) & 1:
            return False
    return True


def dualize_formula(formula: Formula) -> Formula:
    """Replace every relation by its dual; models map to their complements."""
    lang = Language(tuple((n, dualize(r)) for n, r in formula.effective_language().relations))
    return Formula(lang, formula.var_count, formula.atoms)


# --- model enumeration ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _replicator(b: int, k: int) -> int:
    """The int that, multiplied by a set of k-bit codes, repeats it across
    the 2**b codes of a block: bit 2**k * i for each i."""
    return ((1 << (1 << b)) - 1) // ((1 << (1 << k)) - 1)


def _model_blocks(formula: Formula) -> Iterator[tuple[int, int]]:
    """Yield (start, models) for each block of 2**b codes that holds a
    model, in ascending order, b = min(_BLOCK_BITS, n): models has bit c
    set iff code `start + c` is a model.

    Each distinct atom becomes once per call the set of its members over
    its sorted distinct variables (`sorted_atom`); atoms on the same
    variables are ANDed.  Per block each set is sliced to the values of
    its variables above the block, repeated across the block and spread
    by one delta swap per variable to that variable's code bit, then
    ANDed into the block's models: O(arity) whole-set operations per atom.
    Raises TooLarge beyond `ORACLE_VAR_CAP` variables."""
    n = formula.var_count
    if n > ORACLE_VAR_CAP:
        raise TooLarge(f"{n} variables exceed the enumeration cap {ORACLE_VAR_CAP}")
    b = min(_BLOCK_BITS, n)
    sets: dict[tuple[int, ...], int] = {}
    for atom in dict.fromkeys(zip(formula.bound, (vars_ for _, vars_ in formula.atoms))):
        vs, mask = sorted_atom(*atom)
        sets[vs] = sets.get(vs, mask) & mask
    full = (1 << (1 << b)) - 1
    for start in range(0, 1 << n, 1 << b):
        models = full
        for vs, mask in sets.items():
            high = j = 0
            for v in vs:  # the leading variables, above the block, are constant in it
                if n - v < b:
                    break
                high = (high << 1) | (start >> (n - v)) & 1
                j += 1
            k = len(vs) - j
            ones = (1 << (1 << k)) - 1
            x = (mask >> (high << k)) & ones
            if x == ones:  # no constraint in this block
                continue
            if k <= 6:  # one multiply repeats a set of at most 64 codes across the block
                x *= _replicator(b, k)
            else:  # a wider one doubles, as its multiply would cost 2**k times 2**b
                for width in range(k, b):
                    x |= x << (1 << width)
            for q, v in zip(reversed(range(k)), vs[j:]):
                if n - v != q:  # tuple bit q moves to code bit n - v, which no coordinate holds yet
                    x = swap_bits(x, (1 << (n - v)) - (1 << q), swap_mask(b, n - v, q))
            models &= x
            if not models:
                break
        else:
            yield start, models


@dataclass(frozen=True)
class ModelEnumeration:
    assignments: tuple[Assignment, ...]
    truncated: bool


def enumerate_models(formula: Formula, cap: int | None = None) -> ModelEnumeration:
    """All models in lexicographic order, truncated after `cap` models if
    given.  The codes are read off each block's int (`set_bits`) and the
    scan stops at the cap, so a capped call reads no further than the
    model past it."""
    n = formula.var_count
    out: list[Assignment] = []
    for start, models in _model_blocks(formula):
        for c in set_bits(models):
            if len(out) == cap:
                return ModelEnumeration(tuple(out), True)
            out.append(Assignment.from_code(start + c, n))
    return ModelEnumeration(tuple(out), False)


def model_codes(formula: Formula, blocks: list[tuple[int, int]] | None = None) -> np.ndarray:
    """Ascending int64 array of all model codes, filled block by block
    into one array sized by the blocks' model counts; `blocks` are the
    formula's `_model_blocks` if they are already at hand.  numpy loads
    on the first call."""
    import numpy as np

    n = formula.var_count
    if blocks is None:
        blocks = list(_model_blocks(formula))
    out = np.empty(sum(models.bit_count() for _, models in blocks), dtype=np.int64)
    pos = 0
    for start, models in blocks:
        codes = np.flatnonzero(membership_table(min(_BLOCK_BITS, n), models))
        out[pos : pos + len(codes)] = codes + start
        pos += len(codes)
    return out


def nearest_model(
    formula: Formula, m: Assignment, other: bool = False
) -> tuple[int, Assignment] | None:
    """(distance, model) for the lexicographically smallest of the models
    nearest to m, leaving m itself out if `other`; None if there is none
    (`_nearest`)."""
    n = formula.var_count
    found = _nearest(_model_blocks(formula), n, m.code(), other)
    return None if found is None else (found[0], Assignment.from_code(found[1], n))


def _nearest(
    blocks: Iterable[tuple[int, int]], n: int, code: int, other: bool
) -> tuple[int, int] | None:
    """(distance, model code) for the least of the models in `blocks`
    (`_model_blocks`) nearest to `code`, leaving `code` itself out if
    `other`; None if there is none.

    Each block of 2**b codes is translated by the code's low b bits, so
    its bit c then stands for a model at distance popcount(c) below the
    block, to which the code's distance above it (its high bits XOR the
    block's) is added.  The first weight whose codes meet the translated
    set is the block's least distance; translated back, that hit's lowest
    bit is its least nearest model.  Blocks come in ascending order, so
    only a strictly nearer one replaces the best, and one whose high
    distance alone reaches the best is skipped.
    """
    b = min(_BLOCK_BITS, n)
    low, high = code & ((1 << b) - 1), code >> b
    weights = _weight_sets(b)
    best: tuple[int, int] | None = None
    for start, models in blocks:
        far = (start >> b ^ high).bit_count()
        if best is not None and far >= best[0]:
            continue
        if other and start >> b == high:
            models &= ~(1 << low)
        near = translate(models, b, low)
        for w in range(b + 1 if best is None else min(b + 1, best[0] - far)):
            hit = near & weights[w]
            if hit:
                hit = translate(hit, b, low)
                best = far + w, start + (hit & -hit).bit_length() - 1
                break
    return best


def oracle_optimize(problem: str, formula: Formula, m: Assignment | None = None) -> SolveOutcome:
    """Exact optimum of NSOL/XSOL/MSD by full enumeration.

    NSOL and XSOL read the nearest model off the model blocks
    (`nearest_model`).  MSD searches the blocks by radius
    (`_radius_pair`) while that is priced below the pairwise scan, and
    otherwise decodes the codes (`model_codes`) and compares every pair.
    Witnesses are the lexicographically smallest optima, so every
    equivalence test against the oracle is deterministic.  Refusals come
    in the order TooLarge, Unsatisfiable, NotAModel, NoSecondModel.
    """
    if problem not in (NSOL, XSOL, MSD):
        raise ParseError(f"unknown oracle problem {problem!r}")
    n = formula.var_count
    if problem == MSD:
        blocks = list(_model_blocks(formula))
        count = sum(models.bit_count() for _, models in blocks)
        if count == 0:
            raise Unsatisfiable("formula has no model")
        if count < 2:
            raise NoSecondModel("fewer than two models")
        found = _radius_pair(blocks, n, count * (count - 1) // 2)
        value, a, b = found or _pairwise_pair(model_codes(formula, blocks), n)
        w1 = Assignment.from_code(a, n)
        w2 = Assignment.from_code(b, n)
        return SolveOutcome(MSD, value, w1, w2, guarantee=exact(), method="oracle")
    if m is None:
        raise NotAModel(f"{problem} needs an input assignment")
    formula.check_length(m)
    if problem == XSOL and not satisfies(formula, m):
        if next(_model_blocks(formula), None) is None:
            raise Unsatisfiable("formula has no model")
        raise NotAModel("XSOL input assignment must satisfy the formula")
    best = nearest_model(formula, m, other=problem == XSOL)
    if best is None:
        if problem == XSOL:
            raise NoSecondModel("the given model is the only one")
        raise Unsatisfiable("formula has no model")
    return SolveOutcome(problem, best[0], best[1], guarantee=exact(), method="oracle")


def _radius_pair(
    blocks: list[tuple[int, int]], n: int, pairs: float
) -> tuple[int, int, int] | None:
    """(distance, a, b) for the lexicographically smallest closest pair
    a < b of the models in `blocks` (`_model_blocks`), or None once its
    priced work would pass that of the pairwise scan over `pairs` pairs.

    For d = 1, 2, ... each block in ascending order looks for its models
    with a greater model at distance d (`_block_hits`).  The first block
    with one holds the least such model, the pair's `a`: a smaller one
    would have been found first.  Its least nearest other model is `b`
    (`_nearest`): no pair is closer than d, and a model below `a` at
    distance d would have been found before `a`.  The work of distance d
    is priced before it runs as blocks x C(n, d) x the words of a block
    int, and the search gives up once the total would pass
    `_WORDS_PER_PAIR` words per pairwise comparison.
    """
    b = min(_BLOCK_BITS, n)
    index = {start >> b: models for start, models in blocks}
    words = 1 << max(0, b - 6)
    spent = 0
    for d in range(1, n + 1):
        spent += len(blocks) * comb(n, d) * words
        if spent > _WORDS_PER_PAIR * pairs:
            return None
        highs = [_high_masks(n - b, k) for k in range(d + 1)]
        for start, models in blocks:
            h = start >> b
            partners = [[index[h ^ t] for t in masks if h ^ t > h and h ^ t in index]
                        for masks in highs]
            hits = _block_hits(models, partners, b, d)
            if hits:
                a = start + (hits & -hits).bit_length() - 1
                partner = _nearest(blocks, n, a, other=True)
                if partner is None or partner[0] != d:
                    raise InternalConsistencyError(f"model {a} has no other model at distance {d}")
                return d, a, partner[1]
    return None


@functools.lru_cache(maxsize=None)
def _high_masks(bits: int, k: int) -> tuple[int, ...]:
    """The `bits`-bit masks with k bits set."""
    return tuple(sum(1 << j for j in c) for c in itertools.combinations(range(bits), k))


def _block_hits(models: int, partners: list[list[int]], b: int, d: int) -> int:
    """The models of one block of 2**b codes with a greater model at
    distance d, as a set of the block's codes.  `partners[k]` holds the
    later blocks whose number is at distance k from this one's.

    The block is translated by every b-bit mask t of weight w < d, each
    one delta swap from a mask of weight w - 1 that lacks t's top bit, as
    a depth-first walk.  The translated set meets a partner at distance
    d - w in the codes c whose c ^ t is a model here; t moves them back.
    In the block itself a weight-d mask is t plus a bit j above t's top
    bit, and the models c with bit j clear and c ^ t ^ 2**j a model are
    the translated set shifted down by 2**j, ANDed with `_low(b)[j]` and
    the block's models.
    """
    lows = _low(b)
    hits = near = 0
    stack = [(0, 0, models)]  # (t, weight of t, the models translated by t)
    while stack:
        t, w, moved = stack.pop()
        for p in partners[d - w]:
            x = moved & p
            if x:
                hits |= translate(x, b, t)
        if w == d - 1:
            for j in range(t.bit_length(), b):
                near |= (moved >> (1 << j)) & lows[j]
        else:
            for j in range(t.bit_length(), b):
                low, shift = lows[j], 1 << j
                moved_j = ((moved & low) << shift) | ((moved >> shift) & low)
                stack.append((t | shift, w + 1, moved_j))
    return hits | (near & models)


def _pairwise_pair(codes: np.ndarray, n: int) -> tuple[int, int, int]:
    """(distance, a, b) for the lexicographically smallest closest pair
    a < b of the ascending model codes, by comparing every pair.  Codes
    are XORed as uint32, wide enough for `ORACLE_VAR_CAP` variables, in
    chunk x chunk blocks of 1 MB, so the block and the temporaries of
    `popcount` stay in cache.  numpy loads on the first call."""
    import numpy as np

    codes = codes.astype(np.uint32)
    best_val = n + 1
    best_pair: tuple[int, int] | None = None
    chunk = 1 << 9
    for i in range(0, len(codes), chunk):
        left = codes[i : i + chunk]
        for j in range(i, len(codes), chunk):
            right = codes[j : j + chunk]
            d = popcount(left[:, None] ^ right[None, :])
            if i == j:  # keep strictly ordered pairs only
                d = np.where(np.tri(len(left), len(right), 0, dtype=bool), n + 1, d)
            val = int(d.min())
            if val > n or val > best_val:
                continue
            t0, t1 = np.argwhere(d == val)[0]  # row-major first = lex smallest pair
            cand = (int(left[t0]), int(right[t1]))
            if val < best_val or best_pair is None or cand < best_pair:
                best_val = val
                best_pair = cand
    return best_val, best_pair[0], best_pair[1]


# --- formula files --------------------------------------------------------------


def parse_formula(text: str, base_dir: str | Path | None = None) -> Formula:
    """Parse the formula file format.

    Header: `lang FILE` or `lang builtin`, or inline `rel NAME ARITY
    t1,t2,...` declarations as in a language file (or both), then
    `vars N`, then one atom per line: `NAME i1 i2 ...` with 1-based
    variable indices.  Declared relations shadow builtins of the same name.
    """
    lang: Language | None = None
    var_count: int | None = None
    atoms: list[tuple[str, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        if head == "lang":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'lang FILE|builtin'")
            if parts[1] == "builtin":
                loaded = Language(())
            else:
                path = parts[1]
                if base_dir is not None and not os.path.isabs(path):
                    path = os.path.join(base_dir, path)
                loaded = load_language(path)
            if lang is not None:  # inline declarations come after the file's
                loaded = Language.from_pairs(loaded.relations + lang.relations)
            lang = loaded
        elif head == "rel":
            declared = lang.relations if lang is not None else ()
            lang = Language.from_pairs(declared + (parse_relation_line(line.strip(), lineno),))
        elif head == "vars":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(f"line {lineno}: expected 'vars N'")
            var_count = int(parts[1])
        else:
            if lang is None or var_count is None:
                raise ParseError(f"line {lineno}: atom before 'lang'/'rel'/'vars' header")
            try:
                vars_ = tuple(map(int, parts[1:]))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: variable indices must be integers") from exc
            if not lang.has(head):
                raise ParseError(f"line {lineno}: unknown relation {head!r}")
            atoms.append((head, vars_))
    if lang is None or var_count is None:
        raise ParseError("formula file needs a 'lang' header or 'rel' lines, and 'vars'")
    return Formula(lang, var_count, tuple(atoms))


def load_formula(path: str | Path) -> Formula:
    with open(path, encoding="utf-8") as fh:
        return parse_formula(fh.read(), base_dir=os.path.dirname(path))


def make_formula(
    language: Language, var_count: int, atoms: Iterable[tuple[str, Sequence[int]]]
) -> Formula:
    return Formula(language, var_count, tuple((n, tuple(v)) for n, v in atoms))
