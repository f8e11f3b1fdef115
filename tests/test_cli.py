"""The command-line surface: exit codes, JSON contracts, golden regression."""

import json

import jsonschema

from hybridcorr.cli import main


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

    def test_no_state_leaks_between_calls(self, capsys, monkeypatch):
        monkeypatch.delenv("HYBRIDCORR_MAX_WORLDS", raising=False)
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


class TestClassify:
    def test_skeletal_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "[]p -> p")
        assert code == 0
        assert "skeletal:   True" in out

    def test_not_skeletal_exit_three(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "[]p -> <>p")
        assert code == 3

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


class TestVerify:
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


class TestHostileInput:
    def one_line_error(self, code, out, err):
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_over_the_nominal_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("HYBRIDCORR_MAX_NOMINALS", raising=False)
        monkeypatch.delenv("HYBRIDCORR_MAX_ENUM", raising=False)
        text = "~F <= @'n1 @'n1 (p1 & p1) -> 'n1 | (p1 | p1 | F & 'n1)"
        code, out, err = run_cli(capsys, "verify", text)
        self.one_line_error(code, out, err)
        assert "5 nominals exceed the cap 4" in err

    def test_over_the_order_type_search_cap(self, capsys):
        text = " & ".join(f"p{k}" for k in range(11)) + " -> p0"
        code, out, err = run_cli(capsys, "classify", text)
        self.one_line_error(code, out, err)

    def test_deep_nesting(self, capsys):
        code, out, err = run_cli(capsys, "classify", "<>" * 3000 + "p -> p")
        self.one_line_error(code, out, err)

    def test_verify_world_cap_below_one(self, capsys):
        # no frames would be checked, so nothing could disagree
        for cap in ("0", "-2"):
            code, out, err = run_cli(capsys, "verify", "p -> <>p", "--max-worlds", cap)
            self.one_line_error(code, out, err)
            assert "below 1" in err

    def test_verify_world_cap_below_one_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HYBRIDCORR_MAX_WORLDS", "0")
        code, out, err = run_cli(capsys, "verify", "p -> <>p", "--json")
        self.one_line_error(code, out, err)

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

    def test_order_type_empty_or_repeated_variable(self, capsys):
        for command in ("classify", "correspond"):
            for eps, message in (("p=1,=d", "names no variable"), ("p=1,p=d", "p twice")):
                code, out, err = run_cli(capsys, command, "p -> p", "--eps", eps)
                self.one_line_error(code, out, err)
                assert message in err

    def test_limit_variable_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("HYBRIDCORR_MAX_WORLDS", "abc")
        code, out, err = run_cli(capsys, "verify", "[]p -> p")
        self.one_line_error(code, out, err)
        assert "HYBRIDCORR_MAX_WORLDS" in err


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

    def test_run_ignores_the_world_cap(self, capsys, monkeypatch):
        # the goldens index the frames with up to 3 worlds
        monkeypatch.setenv("HYBRIDCORR_MAX_WORLDS", "2")
        code, out, _ = run_cli(capsys, "corpus", "run")
        assert code == 0, out
        lines = out.splitlines()
        assert len(lines) == 16
        assert all(line.startswith("ok ") for line in lines), out

    def test_bless_is_idempotent(self, capsys, tmp_path):
        from hybridcorr.corpus import bless_corpus, load_goldens

        target = tmp_path / "goldens.json"
        ok, _ = bless_corpus(path=target)
        assert ok
        assert json.loads(target.read_text()) == load_goldens()
