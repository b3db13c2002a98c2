import json
import random

import pytest

from minsol import cli
from minsol.cli import run
from minsol.formulas import Assignment
from minsol.outcome import SolveOutcome


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "xor2.lang").write_text("rel xor2 2 01,10\n")
    (tmp_path / "or2.lang").write_text("rel or2 2 01,10,11\n")
    (tmp_path / "parity2.cf").write_text("lang xor2.lang\nvars 2\nxor2 1 2\n")
    (tmp_path / "or2pair.cf").write_text("lang builtin\nvars 2\nor2 1 2\n")
    (tmp_path / "contradiction.cf").write_text("lang builtin\nvars 1\nt 1\nf 1\n")
    big = ["lang builtin", "vars 30"]
    big += [f"one_in_three {3*i+1} {3*i+2} {3*i+3}" for i in range(10)]
    (tmp_path / "big_npo.cf").write_text("\n".join(big) + "\n")
    (tmp_path / "horn.cf").write_text(
        "lang builtin\nvars 3\ndup3 1 2 3\nt 3\n"
    )
    return tmp_path


def call(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_or2(self, workdir, capsys):
        code, out = call(capsys, "classify", "--lang", str(workdir / "or2.lang"))
        assert code == 0
        assert "co-clone: iS0^2" in out
        assert "NSOL: APX_complete" in out

    def test_json(self, workdir, capsys):
        code, out = call(capsys, "classify", "--lang", str(workdir / "or2.lang"), "--json")
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["label"] == "iS0^2"
        assert payload["verdicts"]["MSD"]["complexity"] == "PO"


class TestSolve:
    def test_msd_parity(self, workdir, capsys):
        code, out = call(capsys, "solve", "msd", "--formula", str(workdir / "parity2.cf"))
        assert code == 0
        assert "value: 2" in out
        assert "witnesses: 01 10" in out

    def test_nsol_json_round_trip(self, workdir, capsys):
        code, out = call(
            capsys, "solve", "nsol", "--formula", str(workdir / "or2pair.cf"),
            "--assignment", "00", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1
        assert payload["value"] == 1
        assert payload["guarantee"]["kind"] in ("exact", "ratio")
        assert payload["verdict"]["complexity"] == "APX_complete"

    def test_exit_two_on_contradiction(self, workdir, capsys):
        code, out = call(capsys, "solve", "msd", "--formula", str(workdir / "contradiction.cf"), "--json")
        assert code == 2
        assert json.loads(out)["error"] == "unsatisfiable"

    def test_exit_three_over_cap(self, workdir, capsys):
        code, out = call(capsys, "solve", "msd", "--formula", str(workdir / "big_npo.cf"), "--json")
        assert code == 3
        assert json.loads(out)["error"] == "too_large"

    def test_exit_three_no_poly(self, workdir, capsys):
        code, out = call(
            capsys, "solve", "msd", "--formula", str(workdir / "big_npo.cf"),
            "--mode", "approx", "--json",
        )
        assert code == 3
        assert json.loads(out)["error"] == "no_poly_algorithm"

    def test_missing_assignment_is_parse_error(self, workdir, capsys):
        code, out = call(capsys, "solve", "nsol", "--formula", str(workdir / "or2pair.cf"))
        assert code == 1

    def test_exit_four_on_non_model_witness(self, workdir, capsys, monkeypatch):
        # or2 1 2 rejects 00: re-verification must catch a route that returns it
        bad = SolveOutcome("NSOL", 0, Assignment.from_string("00"), method="broken")
        monkeypatch.setattr(cli, "solve_nsol", lambda *args: bad)
        code, out = call(
            capsys, "solve", "nsol", "--formula", str(workdir / "or2pair.cf"),
            "--assignment", "00", "--json",
        )
        assert code == 4
        payload = json.loads(out)  # exactly one JSON object, no traceback
        assert payload["schema"] == 1
        assert payload["error"] == "InternalConsistencyError"

    def test_mode_exact(self, workdir, capsys):
        code, out = call(
            capsys, "solve", "nsol", "--formula", str(workdir / "or2pair.cf"),
            "--assignment", "00", "--mode", "exact", "--json",
        )
        assert json.loads(out)["value"] == 1


class TestOracle:
    def test_nsol(self, workdir, capsys):
        code, out = call(
            capsys, "oracle", "nsol", "--formula", str(workdir / "or2pair.cf"),
            "--assignment", "00",
        )
        assert code == 0 and "value: 1" in out

    def test_agrees_with_solve(self, workdir, capsys):
        _, solve_out = call(
            capsys, "solve", "msd", "--formula", str(workdir / "horn.cf"), "--json"
        )
        _, oracle_out = call(
            capsys, "oracle", "msd", "--formula", str(workdir / "horn.cf"), "--json"
        )
        assert json.loads(solve_out)["value"] == json.loads(oracle_out)["value"]


class TestDecide:
    def test_sat(self, workdir, capsys):
        code, out = call(capsys, "decide", "sat", "--formula", str(workdir / "or2pair.cf"))
        assert code == 0 and "answer: yes" in out

    def test_anothersat(self, workdir, capsys):
        code, out = call(
            capsys, "decide", "anothersat", "--formula", str(workdir / "parity2.cf"),
            "--assignment", "01", "--json",
        )
        payload = json.loads(out)
        assert payload["answer"] is True and payload["witnesses"] == ["10"]

    @pytest.mark.parametrize("atoms, m, witness", [
        # 2-CNF: the nearest model with x5 flipped (010010 was SAT under the flipped unit)
        ("nand2 5 1\nnand2 2 4\nnand2 6 2\nnand2 5 3\nor2 4 5\n", "000011", "000010"),
        # Horn: the least model under each flipped unit, the nearest of them kept
        ("impl 2 4\nimpl 1 5\nimpl 3 1\nimpl 5 2\n", "11111", "00000"),
    ], ids=["two_cnf", "horn"])
    def test_anothersat_witness_json(self, workdir, capsys, atoms, m, witness):
        n = len(m)
        (workdir / "f.cf").write_text(f"lang builtin\nvars {n}\n{atoms}")
        code, out = call(
            capsys, "decide", "anothersat", "--formula", str(workdir / "f.cf"),
            "--assignment", m, "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["answer"] is True and payload["witnesses"] == [witness]

    def test_tssat_false_on_contradiction(self, workdir, capsys):
        code, out = call(capsys, "decide", "tssat", "--formula", str(workdir / "contradiction.cf"))
        assert code == 0 and "answer: no" in out

    def test_anothersat_lt_n(self, workdir, capsys):
        code, out = call(
            capsys, "decide", "anothersat-lt-n", "--formula", str(workdir / "parity2.cf"),
            "--assignment", "01",
        )
        assert code == 0 and "answer: no" in out


class TestDualize:
    def test_golden(self, workdir, capsys):
        code, out = call(capsys, "dualize", "--formula", str(workdir / "or2pair.cf"))
        assert code == 0
        assert "rel or2 2 00,01,10" in out  # dual of or2 is nand2
        assert "or2 1 2" in out

    def test_parse_error_exit_one(self, workdir, capsys):
        code, _ = call(capsys, "dualize", "--formula", str(workdir / "missing.cf"))
        assert code == 1

    def test_output_reloads_with_complemented_answers(self, workdir, capsys):
        # models 100, 101, 011: every answer below is the unique optimum, and
        # the dualized file redeclares the builtins or2, nand2 and impl
        (workdir / "mixed.cf").write_text("lang builtin\nvars 3\nor2 1 2\nnand2 1 2\nimpl 2 3\n")
        code, out = call(capsys, "dualize", "--formula", str(workdir / "mixed.cf"))
        assert code == 0
        (workdir / "mixed_dual.cf").write_text(out)

        def solve(name, *args):
            code, out = call(capsys, "solve", *args, "--formula", str(workdir / name), "--json")
            assert code == 0, out
            payload = json.loads(out)
            return payload["value"], payload["witnesses"]

        def flip(bits):
            return bits.translate(str.maketrans("01", "10"))

        for args, m in ((("msd",), None), (("xsol",), "011"), (("nsol",), "000")):
            extra = () if m is None else ("--assignment", m)
            dual_extra = () if m is None else ("--assignment", flip(m))
            value, witnesses = solve("mixed.cf", *args, *extra)
            dual_value, dual_witnesses = solve("mixed_dual.cf", *args, *dual_extra)
            assert dual_value == value
            assert sorted(dual_witnesses) == sorted(flip(w) for w in witnesses)
        assert solve("mixed.cf", "msd") == (1, ["100", "101"])


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("solve", "nsol", "--json"),  # no --formula
        ("dualize", "--formula", "f.cf", "--assignment", "0", "--json"),  # unknown option
        ("decide", "maybe", "--formula", "f.cf", "--json"),  # invalid choice
        ("--json",),  # no command
        ("solve", "msd", "--js"),  # abbreviated --json
    ])
    def test_exit_one_with_one_json_error(self, capsys, argv):
        code, out = call(capsys, *argv)
        assert code == 1
        payload = json.loads(out)  # exactly one JSON object
        assert payload["schema"] == 1 and payload["error"] == "ParseError"

    def test_plain_usage_error_exits_one(self, capsys):
        code, out = call(capsys, "solve", "nsol")
        assert code == 1 and out.startswith("error: minsol solve:")

    def test_help_exits_zero(self, capsys):
        code, out = call(capsys, "--help")
        assert code == 0 and "usage: minsol" in out


def test_fuzzed_inputs_keep_the_exit_and_json_contract(tmp_path, capsys):
    """Seeded well-formed formula files and command lines, half of each
    corrupted by a line or token edit: one JSON line and an exit code in
    0-4 for each."""
    rng = random.Random(2_024)
    (tmp_path / "ok.lang").write_text("rel r 2 01,10,11\n")
    arities = {"or2": 2, "impl": 2, "nand2": 2, "even3": 3, "odd3": 3, "nae3": 3,
               "one_in_three": 3, "dup3": 3, "t": 1, "f": 1}
    bad_lines = ["lang", "lang missing.lang", "vars x", "vars -2", "vars 2 3", "rel s 2 012",
                 "rel s x 01", "rel s 3", "or2 1", "or2 1 9", "or2 0 1", "zz 1", "even3 a b c"]
    bad_tokens = ["extra", "--formula", "--assignment", "0x1", "--mode", "fast", "--lang",
                  "bogus", "nsol", str(tmp_path / "missing.cf")]
    codes = set()
    for trial in range(300):
        n = rng.randint(1, 5)
        lines = [rng.choice(("lang builtin", "lang ok.lang")), f"vars {n}"]
        for name in rng.choices(list(arities), k=rng.randint(0, 4)):
            lines.append(" ".join([name, *(str(rng.randint(1, n)) for _ in range(arities[name]))]))
        if rng.random() < 0.5:
            lines[rng.randrange(len(lines))] = rng.choice(bad_lines)
        path = tmp_path / f"f{trial}.cf"
        path.write_text("\n".join(lines) + "\n")
        bits = "".join(rng.choice("01") for _ in range(rng.choice((n, n, n + 1))))
        command = rng.choice(("solve", "oracle", "decide", "dualize", "classify"))
        if command in ("solve", "oracle"):
            argv = [command, rng.choice(("nsol", "xsol", "msd")), "--formula", str(path)]
            argv += ["--assignment", bits] if rng.random() < 0.8 else []
            argv += ["--mode", rng.choice(("auto", "exact", "approx"))] if command == "solve" else []
        elif command == "decide":
            argv = [command, rng.choice(("sat", "anothersat", "tssat", "anothersat-lt-n")),
                    "--formula", str(path), "--assignment", bits]
        elif command == "dualize":
            argv = [command, "--formula", str(path)]
        else:
            argv = [command, "--lang", str(tmp_path / "ok.lang")]
        if rng.random() < 0.5:
            edit = rng.randrange(3)
            at = rng.randrange(len(argv) + (edit == 0))
            if edit == 0:
                argv.insert(at, rng.choice(bad_tokens))
            elif edit == 1:
                del argv[at]
            else:
                argv[at] = rng.choice(bad_tokens)
        code = run([*argv, "--json"])
        out = capsys.readouterr().out
        assert code in range(5), argv
        assert len(out.splitlines()) == 1 and json.loads(out)["schema"] == 1, argv
        codes.add(code)
    assert codes >= {0, 1, 2}
