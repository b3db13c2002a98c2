"""The route tables, the dispatchers' golden answers and the golden classification."""

import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import pytest

from minsol import msd, nsol, xsol
from minsol.postlattice import PARAM_FAMILIES, CoCloneLabel, all_labels, verdict_for_label

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("dispatch_golden", ROOT / "scripts" / "dispatch_golden.py")
golden = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(golden)


def test_records_match_golden_file():
    expected = golden.GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    got = golden.render(golden.records()).splitlines(keepends=True)
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


def test_large_records_match_golden_file():
    # planted n in {16, 32, 48}: long implication chains and large classes
    expected = golden.LARGE_GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    got = golden.render(golden.large_records()).splitlines(keepends=True)
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want
    tags = {json.loads(line)["tag"] for line in expected}
    assert tags == {"bijunctive_classes", "horn_closure", "horn_closure_dual",
                    "bijunctive_flip", "ihsb_flip", "ihsb_flip_dual",
                    "horn_turing", "horn_turing_dual",
                    "bijunctive_2approx", "ihsb_rounding", "ihsb_rounding_dual"}


def test_classify_records_match_golden_file():
    # node bases and their duals, random languages, chain-shaped relations
    expected = golden.CLASSIFY_GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    got = golden.render(golden.classify_records()).splitlines(keepends=True)
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want
    records = [json.loads(line) for line in expected]
    labels = {CoCloneLabel.parse(r["label"]) for r in records if r["source"].startswith("chain/")}
    for family in PARAM_FAMILIES:
        for param in (2, 3, 4):
            assert CoCloneLabel(family, param) in labels


def test_golden_file_covers_every_tag_in_every_mode():
    modes = defaultdict(set)
    for line in golden.GOLDEN.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        modes[record["problem"], record["tag"]].add(record["mode"])
    tags = {
        "NSOL": ("2affine_exact", "monotone_mincut", "affine_exact", "bijunctive_2approx",
                 "ihsb_rounding", "ihsb_rounding_dual", "feasible_napprox", "exhaustive_fallback"),
        "XSOL": ("bijunctive_flip", "ihsb_flip", "ihsb_flip_dual", "affine_mindist", "horn_turing",
                 "horn_turing_dual", "anothersat_napprox", "exhaustive_fallback"),
        "MSD": ("bijunctive_classes", "horn_closure", "horn_closure_dual", "affine_mindist",
                "tssat_napprox", "exhaustive_fallback"),
    }
    for problem, names in tags.items():
        for tag in names:
            assert modes[problem, tag] == set(golden.MODES), (problem, tag)


@pytest.mark.parametrize("problem, routes", [("NSOL", nsol.ROUTES), ("XSOL", xsol.ROUTES), ("MSD", msd.ROUTES)])
def test_route_table_covers_every_verdict_tag(problem, routes):
    # a missing or misspelt key would send a class to the wrong route
    tags = {verdict_for_label(label, problem).algorithm_tag for label in all_labels(5)}
    assert {tag.removesuffix("_dual") for tag in tags} == set(routes)


def test_trivial_lower_bound_is_labelled_exact():
    # NSOL 0 and XSOL/MSD 1 cannot be beaten, whatever the route promised
    from minsol.dispatch import checked
    from minsol.formulas import Assignment, make_formula
    from minsol.outcome import n_approx, ratio
    from minsol.relations import BUILTIN_RELATIONS, Language

    f = make_formula(Language((("or2", BUILTIN_RELATIONS["or2"]),)), 2, [("or2", (1, 2))])
    a = Assignment.from_string
    assert checked("NSOL", f, a("01"), [a("01")], ratio(2), "r").guarantee.kind == "exact"
    assert checked("NSOL", f, a("00"), [a("01")], ratio(2), "r").guarantee.kind == "ratio"
    assert checked("XSOL", f, a("01"), [a("11")], n_approx(), "r").guarantee.kind == "exact"
    assert checked("XSOL", f, a("01"), [a("10")], n_approx(), "r").guarantee.kind == "n_approx"
    assert checked("MSD", f, None, [a("11"), a("01")], n_approx(), "r").guarantee.kind == "exact"
    assert checked("MSD", f, None, [a("10"), a("01")], n_approx(), "r").guarantee.kind == "n_approx"
