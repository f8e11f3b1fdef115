"""The command-line surface: exit codes, JSON contracts, golden regression."""

import hashlib
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridcorr.cli import _json, main
from hybridcorr.syntax import NODE_NAMES, NODE_TYPES, formula_to_json, parse, parse_input

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    from importlib import resources

    ref = resources.files("hybridcorr").joinpath("data/schemas").joinpath(name)
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


class TestParser:
    def test_built_once(self):
        from hybridcorr.cli import build_parser

        assert build_parser() is build_parser()

    def test_no_state_leaks_between_calls(self, capsys):
        code, out, _ = run_cli(
            capsys, "correspond", "[]p -> p", "--json", "--trace", "--simplify"
        )
        assert code == 0 and "trace" in json.loads(out)
        code, out, _ = run_cli(capsys, "correspond", "[]p -> p")
        assert code == 0
        assert not out.startswith("{") and "trace [" not in out
        code, out, _ = run_cli(capsys, "verify", "p -> <>p", "--max-worlds", "2", "--json")
        assert code == 0 and json.loads(out)["frames"] == 18
        code, out, _ = run_cli(capsys, "verify", "p -> <>p")
        assert code == 0 and "frames checked: 530" in out
        code, _, _ = run_cli(capsys, "classify", "[]p -> p", "--eps", "p=1")
        assert code == 3
        code, out, _ = run_cli(capsys, "classify", "[]p -> p")
        assert code == 0 and "skeletal:   True" in out

    def test_importing_the_cli_leaves_the_goldens_reader_unloaded(self):
        # Only corpus run and bless read the goldens, through
        # importlib.resources; without site, which may load it through a
        # .pth file, importing the command line does not load it.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import hybridcorr.cli; "
            "print('importlib.resources' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestClassify:
    def test_skeletal_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "[]p -> p")
        assert code == 0
        assert "skeletal:   True" in out

    def test_not_skeletal_exit_three(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "[]p -> <>p")
        assert code == 3

    def test_eleven_props_classify_and_reduce(self, capsys):
        # no cap on the variables: the order type is found in one pass, and
        # it is the first witness of the 2^11 search on the signed trees
        text = (
            "[]p1 & <>p2 & p3 & [](p4 -> p5) & <>~p6 & p7 & @'i p8 & !x. <>(x & p9)"
            " & p10 & ~[]p11 -> [](p1 | p2) | <>p3 | ~p4 | []p6 | <>p7 | []p8 | p9"
            " | <>p10 | []p11"
        )
        expected = oracles.first_witness(parse_input(text))
        assert str(expected) == "p1=d,p2=1,p3=1,p4=1,p5=d,p6=1,p7=1,p8=1,p9=1,p10=1,p11=1"
        code, out, _ = run_cli(capsys, "classify", text, "--json")
        assert code == 0
        assert json.loads(out)["order_type"] == expected.to_json()
        code, out, _ = run_cli(capsys, "correspond", text, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "success"
        assert report["order_type"] == expected.to_json()

    def test_json_matches_schema(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "<>p1 & p2 <= <>[]<>p1 | <>[]<>p2", "--json")
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, load_schema("classify.json"))
        assert report["order_type"] == {"p1": "1", "p2": "1"}
        assert report["definite"] is True

    def test_explicit_eps(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "[]p -> p", "--eps", "p=1", "--json")
        assert code == 3
        assert json.loads(out)["skeletal"] is False


class TestCorrespond:
    def test_reflexivity_text(self, capsys):
        code, out, _ = run_cli(capsys, "correspond", "[]p -> p")
        assert code == 0
        assert "'i0 <= []~'i1 => 'i0 <= ~'i1" in out
        assert "@'i0 []~'i1 -> ~@'i0 'i1" in out

    def test_transitivity_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "correspond", "<> <> p -> <> p", "--json", "--trace"
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, load_schema("correspond.json"))
        assert report["status"] == "success"
        assert report["trace"]

    def test_failure_exit_two(self, capsys):
        code, out, _ = run_cli(capsys, "correspond", "[]p -> <>p", "--json")
        assert code == 2
        report = json.loads(out)
        jsonschema.validate(report, load_schema("correspond.json"))
        assert report["status"] == "failure"

    def test_require_skeletal_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "correspond", "[]p -> <>p", "--require-skeletal")
        assert code == 3

    def test_require_skeletal_json(self, capsys):
        code, out, err = run_cli(
            capsys, "correspond", "[]p -> <>p", "--json", "--require-skeletal"
        )
        assert code == 3
        report = json.loads(out)
        jsonschema.validate(report, load_schema("correspond.json"))
        assert report == {
            "status": "failure",
            "order_type": None,
            "reason": "input is not skeletal Sahlqvist",
        }
        assert err == "input is not skeletal Sahlqvist\n"

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "correspond", "p -> ->")
        assert code == 1
        assert "parse error" in err

    def test_simplify_flag(self, capsys):
        # the eliminated variable leaves <>F behind, which --simplify folds
        code, plain, _ = run_cli(capsys, "correspond", "T -> <>q")
        assert code == 0 and "<>F <= ~'i1" in plain
        code, folded, _ = run_cli(capsys, "correspond", "T -> <>q", "--simplify")
        assert code == 0
        assert "F <= ~'i1" in folded and "<>F" not in folded


class TestTranslate:
    def test_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "translate", "'i0 <= []~'i1 => 'i0 <= ~'i1"
        )
        assert code == 0
        assert out.strip() == "@'i0 []~'i1 -> ~@'i0 'i1"

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "translate", "=> 'i0 <= ~'i1", "--json"
        )
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema("translate.json"))


class TestFormulaSchema:
    """The formula AST that correspond.json and translate.json publish is
    the node table: every node name with its declared fields, a symbol
    field as a symbol and every other field as a formula."""

    @pytest.mark.parametrize("name", ["correspond.json", "translate.json"])
    def test_nodes_and_fields_are_the_node_table(self, name):
        formula = load_schema(name)["definitions"]["formula"]
        assert formula["properties"]["node"]["enum"] == list(NODE_TYPES)
        published = {
            case["if"]["properties"]["node"]["const"]: [
                (fld, case["then"]["properties"][fld]["$ref"]) for fld in case["then"]["required"]
            ]
            for case in formula["allOf"]
        }
        assert published == {
            node: [
                (fld, "#/definitions/symbol" if fld in cls._symbol_kinds else "#/definitions/formula")
                for fld in fields
            ]
            for node, (cls, fields) in NODE_TYPES.items()
        }
        assert formula["allOf"][0]["then"]["additionalProperties"] is False

    def test_every_node_validates_and_a_missing_field_does_not(self):
        f = parse("p & ~F -> <>@'i 'j | []!x. @x (x & T)")
        assert {type(g) for g in oracles.subformulas(f)} == set(NODE_NAMES)
        report = {"text": str(f), "ast": formula_to_json(f)}
        jsonschema.validate(report, load_schema("translate.json"))
        del report["ast"]["rhs"]["rhs"]["child"]["var"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, load_schema("translate.json"))


# Generated inputs of the agree3 benchmark workload whose outputs have 5 or
# 6 nominals, which a cap of 4 nominals per check used to refuse; the
# largest of their checks has 794 cases.
MANY_NOMINALS = [
    "~F <= @'n1 @'n1 (p1 & p1) -> 'n1 | (p1 | p1 | F & 'n1)",
    "~(p1 | []'n1) | p1 <= ('n1 | p1 -> 'n1) -> []@'n1 T",
    "<>p2 <= ~(F | 'n1) & (F -> p2)",
    "!x1. (<>p1 & (T -> T) & (p2 & 'n1 & p1)) <= p1 & (~F | (T | 'n1)) -> p2",
    "p1 <= p1 -> !x1. p1 | ~'n1",
    "'n1 <= ([]p1 -> []p1) | p1 | @'n1 F",
    "p2 | !x1. !x2. ~T <= 'n1 & F -> p2 | 'n1",
]
# sha256 of their joint `verify --json` stdout, recorded with that cap
# raised to 12 nominals.
MANY_NOMINALS_DIGEST = "fc7afb5d3267ba2184f75ea8d78439cc3680065a9fda78f4ffe2585d79a87c38"


class TestVerify:
    def test_outputs_with_many_nominals(self, capsys, monkeypatch):
        for var in [v for v in os.environ if v.startswith("HYBRIDCORR_")]:
            monkeypatch.delenv(var)
        digest = hashlib.sha256()
        for text in MANY_NOMINALS:
            code, out, err = run_cli(capsys, "verify", text, "--json")
            assert code == 0 and err == "", err
            assert json.loads(out)["translation_equivalence_ok"] is True
            digest.update(out.encode())
        assert digest.hexdigest() == MANY_NOMINALS_DIGEST

    def test_reflexivity_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "[]p -> p", "--max-worlds", "2", "--json"
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, load_schema("verify.json"))
        assert report["frames"] == 18
        assert report["agreements"] == 18
        assert report["valid_frames"] == 5  # reflexive frames of size <= 2
        assert report["translation_equivalence_ok"] is True

    def test_reflexivity_at_five_worlds(self, capsys):
        # a prop on the 512 blocks of 2^16 five-world frames
        code, out, _ = run_cli(capsys, "verify", "p -> <>p", "--max-worlds", "5", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["frames"] == 33_620_498
        assert report["agreements"] == report["frames"]
        # a reflexive frame of size n may have any of its n*n - n other edges
        assert report["valid_frames"] == sum(2 ** (n * n - n) for n in range(1, 6)) == 1_052_741
        assert report["translation_equivalence_ok"] is True

    def test_down_under_a_binder_on_its_term_agrees_everywhere(self, capsys):
        # substage 1 once put x for y under !x. and disagreed on 88 frames
        code, out, _ = run_cli(capsys, "verify", "@x !y. <>!x. @y <>x", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["frames"] == report["agreements"] == 530
        assert report["translation_equivalence_ok"] is True

    def test_failure_json(self, capsys):
        code, out, err = run_cli(capsys, "verify", "[]p -> <>p", "--json")
        assert code == 2
        report = json.loads(out)
        jsonschema.validate(report, load_schema("correspond.json"))
        assert report["status"] == "failure"
        assert err.startswith("failure: ") and err.count("\n") == 1


class TestHostileInput:
    def one_line_error(self, code, out, err):
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_over_the_case_budget(self, capsys):
        # refused before any table is built, naming the check's cases
        runs = [
            (("axioms-check", "--max-worlds", "5"), "27,179,304"),
            (("verify", "<>(p & q & r) -> <>p", "--max-worlds", "5"), "16,781,896"),
        ]
        for argv, cases in runs:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            self.one_line_error(code, out, err)
            assert f"{cases} cases exceed the budget of 1,048,576" in err

    def test_verify_admits_every_check_before_deciding_any(self, capsys, monkeypatch):
        # The input side (16,414 cases) fits the budget and the output side
        # does not: the output is refused before the input is decided.
        import hybridcorr.semantics as semantics

        def built(*args):
            raise AssertionError("a table was built before every check was admitted")

        monkeypatch.setattr(semantics, "_members", built)
        code, out, err = run_cli(capsys, "verify", "<> <> <> p -> <> p", "--max-worlds", "5")
        self.one_line_error(code, out, err)
        assert err == "error: 1,601,300 cases exceed the budget of 1,048,576 per check\n"

    def test_deep_nesting(self, capsys):
        code, out, err = run_cli(capsys, "classify", "<>" * 3000 + "p -> p")
        self.one_line_error(code, out, err)

    def test_nesting_limit(self, capsys):
        # Run in-process, correspond accepts 493 diamonds and classify 494;
        # a walk that took more stack per level would lower that.
        for command in ("correspond", "classify"):
            code, out, err = run_cli(capsys, command, "<>" * 450 + "p -> p", "--json")
            assert code == 0 and err == ""
            assert json.loads(out)
            code, out, err = run_cli(capsys, command, "<>" * 2000 + "p -> p", "--json")
            self.one_line_error(code, out, err)
            assert err == "error: input is nested too deeply\n"

    def test_world_cap_above_five(self, capsys):
        # six worlds are 68,753,097,234 frames: refused before any is built
        runs = [
            ("verify", "<>p -> p", "--max-worlds", "6"),
            ("axioms-check", "--max-worlds", "6"),
        ]
        for argv in runs:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            self.one_line_error(code, out, err)
            assert "68,753,097,234 frames" in err

    @pytest.mark.parametrize("cap", ["50", "1000"])
    def test_world_cap_far_above_five(self, capsys, cap):
        # refused at once with the world cap's line, without counting the
        # frames up to the refused cap
        for argv in [("verify", "p -> p", "--max-worlds", cap), ("axioms-check", "--max-worlds", cap)]:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            self.one_line_error(code, out, err)
            assert err == (
                f"error: {cap} worlds would mean at least 68,753,097,234 frames;"
                " checks stop at 5 worlds\n"
            )

    def test_verify_world_cap_below_one(self, capsys):
        # no frames would be checked, so nothing could disagree
        for cap in ("0", "-2"):
            code, out, err = run_cli(capsys, "verify", "p -> <>p", "--max-worlds", cap)
            self.one_line_error(code, out, err)
            assert "below 1" in err

    def test_axioms_check_world_cap_below_one(self, capsys):
        code, out, err = run_cli(capsys, "axioms-check", "--max-worlds", "0")
        self.one_line_error(code, out, err)
        assert "below 1" in err

    def test_untranslatable_quasi(self, capsys):
        code, out, err = run_cli(capsys, "translate", "'i <= p => 'i <= 'j")
        self.one_line_error(code, out, err)
        assert "cannot translate" in err

    def test_order_type_missing_a_variable(self, capsys):
        for command in ("classify", "correspond"):
            code, out, err = run_cli(capsys, command, "p -> <>p", "--eps", "q=1")
            self.one_line_error(code, out, err)
            assert "misses variable p" in err

    def test_order_type_naming_a_variable_the_input_lacks(self, capsys):
        # refused as the positional form with too many entries is, not reported
        for command in ("classify", "correspond"):
            for extra in ((), ("--json",)):
                for eps, message in (
                    ("p=1,q=d", "gives variable q, which the input lacks"),
                    ("1,d", "order type has 2 entries for 1 variables"),
                ):
                    code, out, err = run_cli(capsys, command, "p -> <>p", "--eps", eps, *extra)
                    self.one_line_error(code, out, err)
                    assert message in err

    def test_order_type_empty_or_repeated_variable(self, capsys):
        for command in ("classify", "correspond"):
            for eps, message in (
                ("p=1,=d", "names no variable"),
                ("p=1,p=d", "p twice"),
                ("1,d", "order type has 2 entries for 1 variables"),
                ("p=2", "order-type value must be 1 or d, got '2'"),
                ("1,", "empty entry"),
                (",1", "empty entry"),
            ):
                code, out, err = run_cli(capsys, command, "p -> p", "--eps", eps)
                self.one_line_error(code, out, err)
                assert message in err


class TestClosedOutput:
    def test_reader_closing_the_pipe_early(self):
        # The report (about 150 KB) outgrows the pipe, so writing it fails
        # once the reader has closed its end after one byte.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        text = "<>" * 300 + "p -> p"
        proc = subprocess.Popen(
            [sys.executable, "-m", "hybridcorr", "correspond", text, "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and err.count("\n") <= 1


class TestAxiomsCheck:
    def test_small_bound(self, capsys):
        code, out, _ = run_cli(capsys, "axioms-check", "--max-worlds", "2")
        assert code == 0
        assert "FAIL" not in out


class TestCorpus:
    def test_run_matches_goldens(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "run")
        assert code == 0, out
        assert "DIFF" not in out and "MISSING" not in out

    def test_bless_is_idempotent(self, capsys, tmp_path):
        from hybridcorr.corpus import bless_corpus, load_goldens

        target = tmp_path / "goldens.json"
        ok, _ = bless_corpus(path=target)
        assert ok
        assert json.loads(target.read_text()) == load_goldens()

    def test_bless_into_a_missing_directory(self, capsys, monkeypatch, tmp_path):
        from hybridcorr import corpus

        monkeypatch.setattr(corpus, "golden_path", lambda: tmp_path / "missing" / "goldens.json")
        code, out, err = run_cli(capsys, "corpus", "bless")
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write the goldens: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


_json_scalars = st.none() | st.booleans() | st.integers() | st.text()
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


class TestJsonWriter:
    """The CLI writes its reports byte for byte as json.dumps(v, indent=2)."""

    @settings(max_examples=300, deadline=None)
    @given(_json_values)
    @example({"": [], "a\u00e9\u2603\U0001f600": {}, "\x00\x1f\n\t\"\\": ()})
    @example([2**100, -(2**70), -1, 0, True, False, None, "\ud800", [[[]]], {"k": {}}])
    @example("plain")
    def test_matches_json_dumps(self, value):
        assert _json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [1.5, [0.0], {"a": float("nan")}, {1: "int key"}, {"s": {1, 2}}, object()]
    )
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            _json(value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "<>p1 & p2 <= <>[]<>p1 | <>[]<>p2", "--json"],
            ["classify", "[]p -> <>p", "--json"],
            ["correspond", "<> <> p -> <> p", "--json", "--trace"],
            ["correspond", "[]p -> <>p", "--json"],
            ["correspond", "[]p -> <>p", "--json", "--require-skeletal"],
            ["translate", "'i <= <>'j => 'i <= ~'j", "--json"],
            ["verify", "p -> <>p", "--json", "--max-worlds", "2"],
            ["verify", "[]p -> <>p", "--json"],
            ["axioms-check", "--json", "--max-worlds", "1"],
        ],
    )
    def test_every_json_report_is_indented_json(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
