"""Seeded instance generation for the four workloads.

Everything here is plain text in the README formats (language files,
formula files, assignment bitstrings) built from `random.Random`, so the
program under test sees only generated input.  Nothing here imports
minsol: relation membership is computed from the truth-table masks
directly (tuple code first-coordinate-most-significant, as the README
specifies).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Rel = tuple[int, int]  # (arity, membership mask over tuple codes)


def rel_from_tuples(arity: int, tuples: list[str]) -> Rel:
    mask = 0
    for t in tuples:
        mask |= 1 << int(t, 2)
    return arity, mask


def full_minus(arity: int, excluded: list[int]) -> Rel:
    mask = (1 << (1 << arity)) - 1
    for code in excluded:
        mask &= ~(1 << code)
    return arity, mask


def parity_rel(arity: int, odd: int) -> Rel:
    mask = 0
    for code in range(1 << arity):
        if code.bit_count() % 2 == odd:
            mask |= 1 << code
    return arity, mask


T = (1, 0b10)
F = (1, 0b01)
IMPL = rel_from_tuples(2, ["00", "01", "11"])
XOR2 = rel_from_tuples(2, ["01", "10"])
OR2 = full_minus(2, [0])
OR3 = full_minus(3, [0])
HORN3 = full_minus(3, [0b110])  # -x | -y | z
DUALHORN3 = full_minus(3, [0b001])  # x | y | -z
EVEN4 = parity_rel(4, 0)
ODD3 = parity_rel(3, 1)
NAE3 = full_minus(3, [0b000, 0b111])
ONE_IN_THREE = rel_from_tuples(3, ["001", "010", "100"])
DUP3 = full_minus(3, [0b010, 0b101])
NOT_000_011 = full_minus(3, [0b000, 0b011])

# Base languages of the eight exact-route co-clone families (the same
# bases as the test suite's FAMILY_LANGUAGES).
FAMILIES: dict[str, dict[str, Rel]] = {
    "iD1": {"xor2": XOR2, "t": T},
    "iM2": {"impl": IMPL, "f": F, "t": T},
    "iD2": {"xor2": XOR2, "impl": IMPL},
    "iS00_2": {"or2": OR2, "impl": IMPL, "f": F, "t": T},
    "iS00_3": {"or3": OR3, "impl": IMPL, "f": F, "t": T},
    "iE2": {"horn3": HORN3, "f": F, "t": T},
    "iV2": {"dualhorn3": DUALHORN3, "f": F, "t": T},
    "iL2": {"even4": EVEN4, "f": F, "t": T},
}

# mix3 is neither 0-valid, 1-valid nor complementive.  Its relations all
# keep six of eight tuples: mixing tight and loose relations made an
# instance's model count, and so the MSD scan's cost, vary tenfold.
EXHAUSTIVE_LANGUAGES: dict[str, dict[str, Rel]] = {
    "one_in_three": {"one_in_three": ONE_IN_THREE},
    "nae3": {"nae3": NAE3},
    "mix3": {"nae3": NAE3, "dup3": DUP3, "r6": NOT_000_011},
}

PROBLEMS = ("NSOL", "XSOL", "MSD")
MODES = ("auto", "exact", "approx")


def language_text(rels: dict[str, Rel]) -> str:
    lines = []
    for name, (arity, mask) in rels.items():
        tuples = ",".join(format(c, f"0{arity}b") for c in range(1 << arity) if (mask >> c) & 1)
        lines.append(f"rel {name} {arity} {tuples}")
    return "\n".join(lines) + "\n"


def formula_text(lang_file: str, n: int, atoms: list[tuple[str, tuple[int, ...]]]) -> str:
    body = "\n".join(f"{name} {' '.join(map(str, vs))}" for name, vs in atoms)
    return f"lang {lang_file}\nvars {n}\n{body}\n"


def holds(rel: Rel, model: list[int], vs: tuple[int, ...]) -> bool:
    arity, mask = rel
    code = 0
    for v in vs:
        code = (code << 1) | model[v - 1]
    return bool((mask >> code) & 1)


def atom_mask(codes: np.ndarray, n: int, rel: Rel, vs: tuple[int, ...]) -> np.ndarray:
    """Which assignment codes (variable v at bit n - v) satisfy one atom."""
    arity, mask = rel
    table = np.array([(mask >> c) & 1 for c in range(1 << arity)], dtype=bool)
    idx = np.zeros(len(codes), dtype=np.int64)
    for v in vs:
        idx = (idx << 1) | ((codes >> (n - v)) & 1)
    return table[idx]


def bits(model: list[int]) -> str:
    return "".join(map(str, model))


def planted_atoms(
    rng: random.Random,
    rels: dict[str, Rel],
    models: list[list[int]],
    atom_count: int,
) -> list[tuple[str, tuple[int, ...]]]:
    """Random atoms that every planted model satisfies.

    Candidates are drawn and kept only when all planted models satisfy
    them, so the formula is satisfiable by construction; rejecting whole
    random formulas almost never yields a satisfiable xor2 formula at
    ladder sizes.
    """
    n = len(models[0])
    names = list(rels)
    atoms: list[tuple[str, tuple[int, ...]]] = []
    tries = 0
    while len(atoms) < atom_count and tries < 200 * atom_count:
        tries += 1
        name = rng.choice(names)
        arity = rels[name][0]
        if arity <= n:
            vs = tuple(rng.sample(range(1, n + 1), arity))
        else:
            vs = tuple(rng.randint(1, n) for _ in range(arity))
        if all(holds(rels[name], m, vs) for m in models):
            atoms.append((name, vs))
    return atoms


def two_models(rng: random.Random, n: int) -> list[list[int]]:
    h1 = [rng.getrandbits(1) for _ in range(n)]
    h2 = list(h1)
    while h2 == h1:
        h2 = [rng.getrandbits(1) for _ in range(n)]
    return [h1, h2]


def _input(rng: random.Random, problem: str, model: list[int]) -> str | None:
    """NSOL starts from the planted model with a tenth of its bits flipped,
    XSOL from the planted model itself; MSD takes no assignment."""
    if problem == "NSOL":
        out = list(model)
        for v in rng.sample(range(len(model)), max(1, len(model) // 10)):
            out[v] ^= 1
        return bits(out)
    return bits(model) if problem == "XSOL" else None


@dataclass(frozen=True)
class SolveOp:
    """One solve call: formula text plus the problem's input assignment."""

    cell: str
    problem: str
    mode: str
    n: int
    text: str
    assignment: str | None
    planted: tuple[str, ...]
    rels: dict[str, Rel]
    atoms: tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ClassifyOp:
    cell: str
    text: str
    label: str


class LanguageFiles:
    """Writes each distinct language file once under the work directory."""

    def __init__(self, work_dir: Path) -> None:
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.names: dict[str, str] = {}

    def file_for(self, text: str) -> str:
        name = self.names.get(text)
        if name is None:
            name = f"l{len(self.names)}.lang"
            (self.dir / name).write_text(text, encoding="utf-8")
            self.names[text] = name
        return name


def _solve_op(
    rng: random.Random,
    files: LanguageFiles,
    cell: str,
    rels: dict[str, Rel],
    problem: str,
    mode: str,
    n: int,
    atom_count: int,
    atom_rels: dict[str, Rel] | None = None,
) -> SolveOp | None:
    """A planted instance over `rels`, its atoms drawn from `atom_rels` (default
    all of `rels`); None when no atom admits two distinct models."""
    for _ in range(50):
        models = two_models(rng, n)
        atoms = planted_atoms(rng, atom_rels or rels, models, atom_count)
        if atoms:
            return _make_op(rng, files, cell, rels, problem, mode, models, atoms)
    return None


def _make_op(
    rng: random.Random,
    files: LanguageFiles,
    cell: str,
    rels: dict[str, Rel],
    problem: str,
    mode: str,
    models: list[list[int]],
    atoms: list[tuple[str, tuple[int, ...]]],
) -> SolveOp:
    n = len(models[0])
    text = formula_text(files.file_for(language_text(rels)), n, atoms)
    return SolveOp(
        cell, problem, mode, n, text, _input(rng, problem, models[0]),
        tuple(bits(m) for m in models), rels, tuple(atoms),
    )


# --- workloads --------------------------------------------------------------

LADDER_SIZES = (12, 25, 50)


def ladder(rng: random.Random, files: LanguageFiles):
    """Endless stream of distinct planted ladder instances, one full grid per round.

    Files declare the family's whole base language, but atoms never use
    the unary constants: random unit atoms propagate through implication
    chains and made one cell's cost vary threefold between instances.
    """
    cells = [(fam, p, n) for fam in FAMILIES for p in PROBLEMS for n in LADDER_SIZES]
    while True:
        order = list(cells)
        rng.shuffle(order)
        for fam, problem, n in order:
            rels = FAMILIES[fam]
            wide = {name: rel for name, rel in rels.items() if rel[0] > 1}
            yield _solve_op(rng, files, f"{fam}/{problem}/n{n}", rels, problem, "auto", n, n, wide)


def random_language(rng: random.Random, max_arity: int, max_rels: int) -> dict[str, Rel]:
    rels = {}
    for i in range(rng.randint(1, max_rels)):
        arity = rng.randint(1, max_arity)
        rels[f"r{i}"] = (arity, rng.randint(1, (1 << (1 << arity)) - 1))
    return rels


DESK_LANGUAGES = 256
DESK_MAX_N = 9


def desk_mix(rng: random.Random, files: LanguageFiles):
    """Tiny instances over a per-run set of random languages, every problem x mode.

    n stops at 9.  From n = 10 on, an MSD op on a loose language falls back
    to the pairwise oracle over ~1000 or more models, whose temporaries
    (tens of MB, growing with models squared) would make the run's peak
    memory depend on its single loosest instance.  Such scans are the
    exhaustive workload's job.
    """
    langs = [random_language(rng, 3, 3) for _ in range(DESK_LANGUAGES)]
    combos = [(p, m) for p in PROBLEMS for m in MODES]
    while True:
        order = list(combos)
        rng.shuffle(order)
        for problem, mode in order:
            op = None
            while op is None:
                rels = rng.choice(langs)
                n = rng.randint(2, DESK_MAX_N)
                op = _solve_op(
                    rng, files, f"{problem}/{mode}", rels, problem, mode, n, rng.randint(1, 15)
                )
            yield op


EXHAUSTIVE_SIZES = (9, 11, 13)
AFFINE_DIMS = (10, 12, 14)


def _affine_op(rng: random.Random, files: LanguageFiles, problem: str, dim: int) -> SolveOp:
    """Planted even4/odd3 atoms until the solution space has dimension `dim`."""
    rels = {"even4": EVEN4, "odd3": ODD3}
    n = dim + rng.randint(6, 12)
    models = two_models(rng, n)
    atoms: list[tuple[str, tuple[int, ...]]] = []
    basis: list[int] = []  # parity rows in echelon form, to track the rank
    while n - len(basis) > dim:
        (atom,) = planted_atoms(rng, rels, models, 1)
        row = 0
        for v in atom[1]:
            row ^= 1 << v
        for b in basis:
            row = min(row, row ^ b)
        atoms.append(atom)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return _make_op(rng, files, f"affine/{problem}/dim{dim}", rels, problem, "auto", models, atoms)


# An exhaustive instance gets planted atoms until at most this share of its
# 2**n assignments are models.  The MSD scan's time and memory grow with
# the model count squared, and a fixed atom count spread it too widely.
MODEL_SHARE = 0.2


def _sized_op(
    rng: random.Random,
    files: LanguageFiles,
    cell: str,
    rels: dict[str, Rel],
    problem: str,
    mode: str,
    n: int,
) -> SolveOp:
    codes = np.arange(1 << n, dtype=np.int64)
    while True:  # some model pairs admit too few atoms (one_in_three on near-complements)
        models = two_models(rng, n)
        ok = np.ones(1 << n, dtype=bool)
        atoms: list[tuple[str, tuple[int, ...]]] = []
        while ok.sum() > MODEL_SHARE * (1 << n) and len(atoms) < 2 * n:
            found = planted_atoms(rng, rels, models, 1)
            if not found:
                break
            name, vs = found[0]
            ok &= atom_mask(codes, n, rels[name], vs)
            atoms.append((name, vs))
        if ok.sum() <= MODEL_SHARE * (1 << n):
            return _make_op(rng, files, cell, rels, problem, mode, models, atoms)


def exhaustive(rng: random.Random, files: LanguageFiles):
    """Past the polynomial frontier: NPO/pAPX languages and wide affine systems."""
    cells = [(lang, p, m, n) for lang in EXHAUSTIVE_LANGUAGES for p in PROBLEMS
             for m in MODES for n in EXHAUSTIVE_SIZES]
    cells += [("affine", p, "auto", d) for p in PROBLEMS for d in AFFINE_DIMS]
    while True:
        order = list(cells)
        rng.shuffle(order)
        for lang, problem, mode, size in order:
            if lang == "affine":
                yield _affine_op(rng, files, problem, size)
            else:
                yield _sized_op(
                    rng, files, f"{lang}/{problem}/{mode}/n{size}", EXHAUSTIVE_LANGUAGES[lang],
                    problem, mode, size,
                )


def distinct(ops):
    """Drop repeats: the library memoises clause sets on the formula's value,
    so a repeated formula would time a cache hit."""
    seen: set[str] = set()
    for op in ops:
        if op.text not in seen:
            seen.add(op.text)
            yield op


def load_pool(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["languages"]


# Arity-6 languages stay in the pool but are not run: at the seed one of
# them takes 8 to 214 s to classify, longer than a whole run may last.
CLASSIFY_MAX_ARITY = 5


def _bit_reverse(k: int, bits: int) -> int:
    return int(format(k, f"0{bits}b")[::-1], 2)


def low_discrepancy_order(keys: list, rng: random.Random) -> list[int]:
    """Every index of `keys` once, ordered so that each prefix is a spread
    sample of the ranking by key.

    Indices are ranked by key (ties broken at random) and visited in
    bit-reversed rank order from a random offset.  So the first 2^k ops hold
    one item from each of 2^k equal bands of the ranking.
    """
    ranked = sorted(range(len(keys)), key=lambda i: (keys[i], rng.random()))
    bits = max(1, (len(ranked) - 1).bit_length())
    offset = rng.randrange(1 << bits)
    order, seen = [], set()
    for k in range(1 << bits):
        rank = ((_bit_reverse(k, bits) + offset) % (1 << bits)) * len(ranked) >> bits
        if rank not in seen:
            seen.add(rank)
            order.append(ranked[rank])
    return order


def classify_op(entry: dict) -> tuple[int, ClassifyOp]:
    """A pool entry as an op, with the largest arity among its relations."""
    rels = {f"r{j}": (a, int(m, 16)) for j, (a, m) in enumerate(entry["rels"])}
    arity = max(a for a, _ in rels.values())
    return arity, ClassifyOp(f"arity{arity}", language_text(rels), entry["label"])


def classify_cold(rng: random.Random, pool: list[dict]):
    """Pool languages up to CLASSIFY_MAX_ARITY with their recorded labels.

    Each cycle visits every language once in a fresh low-discrepancy order,
    so that a time-bounded run sees the pool's mix in proportion.  The
    slowest fifth by recorded cold time (`cold_ms`), which holds nearly all
    of the time and the 90th percentile, is ranked by that time.  The rest
    is ranked by label first, so the mix of co-clones (and with it the
    verdicts) is spread as well.
    """
    ops, keys = [], []
    for entry in pool:
        arity, op = classify_op(entry)
        if arity <= CLASSIFY_MAX_ARITY:
            ops.append(op)
            keys.append(entry["cold_ms"])
    slow = sorted(keys)[int(0.8 * len(keys))]
    keys = [(1, "", ms) if ms >= slow else (0, op.label, ms) for op, ms in zip(ops, keys)]
    while True:
        for i in low_discrepancy_order(keys, rng):
            yield ops[i]
