"""CLI contract: exit codes, determinism, formats."""

import json
import subprocess
import sys

import pytest

from alcalc.cli import run
from alcalc.report import Check, Report, emit_report


def run_cli(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out = run_cli(["alcoves", "special", "--n", "3", "--f", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["checks"][0]["detail"]["count"] == 1

    def test_config_error_is_one(self, capsys):
        assert run(["alcoves", "special", "--p", "10"]) == 1
        assert run(["alcoves", "special", "--n", "1"]) == 1
        assert run(["verify", "weyl", "--trials", "0"]) == 1

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_nonpositive_count_is_one_with_message(self, capsys, count):
        # a family of no characters is bad input, not a vacuous pass or a
        # failed check
        assert run(["witness", "triple", "--n", "3", "--count", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: count must be positive\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "action, n", [("minors", "2"), ("minors", "6"), ("minors", "9"), ("weyl", "5"), ("weyl", "9"), ("bruhat", "5"), ("bruhat", "9")]
    )
    def test_n_out_of_range_is_one_with_message(self, capsys, action, n):
        # a verify subcommand with an n range refuses any other n instead of
        # clamping it to a size the report would not name
        bounds = {"minors": "3 <= n <= 5", "weyl": "2 <= n <= 4", "bruhat": "2 <= n <= 4"}[action]
        assert run(["verify", action, "--n", n, "--trials", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify {action} needs {bounds}, got n = {n}\n"

    def test_unknown_subcommand_is_one(self, capsys):
        assert run(["verify", "frobnicate"]) == 1

    def test_failed_invariant_is_one_with_message(self, monkeypatch, capsys):
        # a broken internal identity is reported like bad input: exit 1 and
        # one error line, no traceback
        import alcalc.serre as serre_mod
        from alcalc.weyl import ExtAffine

        real = serre_mod.wtilde_pair

        def identity_pair(rho, tau):
            x = real(rho, tau)
            return ExtAffine.identity(x.n, x.f)

        monkeypatch.setattr(serre_mod, "wtilde_pair", identity_pair)
        code = run(["setup", "build", "--n", "3", "--f", "1", "--pair", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: w~(rhobar,tau) deviates")
        assert "Traceback" not in captured.err


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        a = run_cli(["verify", "minors", "--n", "4", "--trials", "50", "--seed", "7"], capsys)[1]
        b = run_cli(["verify", "minors", "--n", "4", "--trials", "50", "--seed", "7"], capsys)[1]
        assert a == b

    def test_seed_changes_nothing_breaks(self, capsys):
        code, _ = run_cli(["verify", "minors", "--n", "4", "--trials", "50", "--seed", "8"], capsys)
        assert code == 0

    def test_witness_bytes_stable(self, capsys):
        args = ["witness", "triple", "--n", "3", "--p", "53", "--t", "2", "--count", "3"]
        a = run_cli(args, capsys)[1]
        b = run_cli(args, capsys)[1]
        assert a == b
        data = json.loads(a)
        wit = next(c for c in data["checks"] if c["name"] == "witness_triple_intersection")
        assert wit["passed"]
        assert all(v if not isinstance(v, list) else all(v) for v in wit["detail"]["checks"].values())


class TestFormats:
    def test_csv_rows(self):
        rep = Report(command="x", config={})
        rep.add("a", True, {"k": 1})
        rep.add("b", False, {}, {"bad": 2})
        rep.add("c", True)
        data = emit_report(rep, "csv-summary").decode()
        lines = data.strip().split("\n")
        assert len(lines) == 4  # header + 3 rows
        assert lines[0] == "check,passed,detail"

    def test_empty_checks_valid_json(self):
        rep = Report(command="x", config={"n": 2})
        data = json.loads(emit_report(rep, "json"))
        assert data["checks"] == []
        assert data["schema_version"] == "2"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(Report(command="x", config={}), "yaml")

    def test_failed_check_carries_counterexample(self):
        rep = Report(command="x", config={})
        rep.add("bad", False, {}, {"witness": [1, 2]})
        data = json.loads(emit_report(rep, "json"))
        assert data["checks"][0]["counterexample"] == {"witness": [1, 2]}
        assert rep.exit_code() == 2

    def test_out_file_and_config_precedence(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 4, "f": 1}))
        outfile = tmp_path / "r.json"
        code = run(["alcoves", "enumerate", "--config", str(cfgfile), "--out", str(outfile)])
        assert code == 0
        data = json.loads(outfile.read_text())
        assert data["config"]["n"] == 4
        # flags beat the config file
        code = run(["alcoves", "enumerate", "--config", str(cfgfile), "--n", "3", "--out", str(outfile)])
        data = json.loads(outfile.read_text())
        assert data["config"]["n"] == 3


class TestConfigFile:
    @pytest.mark.parametrize(
        "content, named",
        [
            ('{"n": "4"}', "'n'"),
            ('{"trials": true}', "'trials'"),
            ('{"p": 53.0}', "'p'"),
            ('{"format": "yaml"}', "'format'"),
            ('{"out": 3}', "'out'"),
            ('{"q_max": 3}', "'q_max'"),
            ("[4]", "JSON object"),
        ],
    )
    def test_bad_values_exit_one_with_message(self, tmp_path, capsys, content, named):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(content)
        assert run(["alcoves", "special", "--config", str(cfgfile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err

    def test_valid_values_accepted(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 4, "f": 2, "format": "csv-summary", "out": str(tmp_path / "r.csv")}))
        assert run(["alcoves", "special", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "r.csv").read_text().startswith("check,passed,detail")

    def test_q_max_flag_is_gone(self, capsys):
        assert run(["witness", "triple", "--q-max", "0"]) == 1
        assert "unrecognized arguments: --q-max" in capsys.readouterr().err


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "alcalc.cli", "alcoves", "special", "--n", "4", "--f", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["passed"] is True
