"""End-to-end command line checks, driven through ``cli.main``."""

import json

import pytest

from reclab import cli
from reclab.errors import UncertainAtPrecision


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 0, err
    doc = json.loads(out)
    assert set(doc) == {"config", "result"}
    return doc


class TestEnvelope:
    def test_config_echoes_inputs(self, capsys):
        doc = run_json(
            capsys, ["birkhoff", "check", "--elements", "2,4,6", "--arity", "3"]
        )
        cfg = doc["config"]
        assert cfg["command"] == "birkhoff.check"
        assert cfg["seed"] == 20260816
        assert cfg["precision_bits"] == 128
        assert cfg["flags"]["arity"] == 3

    def test_stdout_is_stable_across_runs(self, capsys):
        argv = ["bohr", "threedist", "--alpha", "golden", "--count", "8"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        assert len(out1) > 0

    def test_human_summary_stays_on_stderr(self, capsys):
        rc, out, err = run(
            capsys, ["birkhoff", "check", "--elements", "2,4,6", "--arity", "3"]
        )
        assert rc == 0
        json.loads(out)  # stdout is pure JSON
        assert "R_BIRKHOFF" in err


class TestBirkhoff:
    def test_check_unsat(self, capsys):
        doc = run_json(
            capsys, ["birkhoff", "check", "--elements", "2,4,6", "--arity", "3"]
        )
        res = doc["result"]
        assert res["status"] == "R_BIRKHOFF"
        assert res["certificate"]["type"] == "window_unsat"
        assert res["certificate"]["window"] == 7
        assert res["verified"] is True

    def test_check_periodic(self, capsys):
        doc = run_json(
            capsys, ["birkhoff", "check", "--elements", "2,4,6", "--arity", "4"]
        )
        res = doc["result"]
        assert res["status"] == "NOT_R_BIRKHOFF"
        assert res["certificate"]["type"] == "periodic"
        assert res["certificate"]["period"] == 8

    def test_emit_and_verify_roundtrip(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run_json(
            capsys,
            [
                "birkhoff", "check", "--elements", "2,4,6", "--arity", "4",
                "--emit-cert", str(cert),
            ],
        )
        doc = run_json(
            capsys,
            [
                "birkhoff", "verify", "--elements", "2,4,6", "--arity", "4",
                "--cert", str(cert),
            ],
        )
        assert doc["result"]["valid"] is True

    def test_verify_rejects_tampered_cert(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run_json(
            capsys,
            [
                "birkhoff", "check", "--elements", "2,4,6", "--arity", "4",
                "--emit-cert", str(cert),
            ],
        )
        blob = json.loads(cert.read_text())
        blob["colors"] = [1] * len(blob["colors"])
        cert.write_text(json.dumps(blob))
        doc = run_json(
            capsys,
            [
                "birkhoff", "verify", "--elements", "2,4,6", "--arity", "4",
                "--cert", str(cert),
            ],
        )
        assert doc["result"]["valid"] is False

    def test_chromatic(self, capsys):
        doc = run_json(
            capsys,
            ["birkhoff", "chromatic", "--elements", "2,3,7,11", "--window", "35"],
        )
        res = doc["result"]
        assert res["lower"] == 3 and res["upper"] == 3

    def test_set_file_input(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("6\n2\n4\n2\n")
        doc = run_json(
            capsys, ["birkhoff", "check", "--set", str(f), "--arity", "3"]
        )
        assert doc["result"]["set"] == [2, 4, 6]


class TestBohr:
    def test_member_worked_example(self, capsys):
        doc = run_json(
            capsys,
            ["bohr", "member", "--n", "13", "--alpha", "golden", "--eps", "1/10"],
        )
        res = doc["result"]
        assert res["member"] is True
        assert res["norm"]["float"] == pytest.approx(0.0344418, abs=1e-6)

    def test_enumerate_thirds(self, capsys):
        doc = run_json(
            capsys,
            [
                "bohr", "enumerate", "--alpha", "1/3", "--eps", "1/4",
                "--lo", "-10", "--hi", "10",
            ],
        )
        assert doc["result"]["members"] == [-9, -6, -3, 3, 6, 9]

    def test_cf_sqrt2(self, capsys):
        doc = run_json(capsys, ["bohr", "cf", "--alpha", "sqrt2", "--depth", "7"])
        res = doc["result"]
        assert res["denominators"] == [1, 2, 5, 12, 29, 70, 169, 408]
        assert res["quotients"] == [0] + [2] * 7
        assert res["terminated"] is False

    def test_witness_doubling(self, capsys, tmp_path):
        f = tmp_path / "doubling.txt"
        f.write_text("\n".join(str(2**k) for k in range(11)))
        doc = run_json(
            capsys,
            ["bohr", "witness", "--set", str(f), "--delta", "3/10"],
        )
        res = doc["result"]
        assert res["found"] is True
        assert res["revalidated"] is True
        lo, hi = res["interval"]
        # 1/3 sits inside the reported window
        from fractions import Fraction

        assert Fraction(lo) <= Fraction(1, 3) <= Fraction(hi)

    def test_obstruct_shifted_squares(self, capsys):
        doc = run_json(
            capsys,
            [
                "bohr", "obstruct", "--m-max", "10", "--poly", "1,0,1",
                "--elements", "2,5,10,17,26",
            ],
        )
        res = doc["result"]
        assert res["found"] is True and res["modulus"] == 3
        assert res["absolute"] is True

    def test_separate_small_interval(self, capsys, tmp_path):
        f = tmp_path / "interval.txt"
        f.write_text("\n".join(str(n) for n in range(1, 51)))
        doc = run_json(
            capsys, ["bohr", "separate", "--set", str(f), "--eps", "1/40"]
        )
        assert doc["result"]["found"] is False


class TestDyn:
    def test_returns_rotation(self, capsys):
        doc = run_json(
            capsys,
            [
                "dyn", "returns", "--alpha", "1/5", "--horizon", "12",
                "--radius", "1/10",
            ],
        )
        assert doc["result"]["set_returns"] == [-10, -5, 0, 5, 10]
        assert doc["result"]["system"] == "rotation"

    def test_returns_indicator(self, capsys, tmp_path):
        f = tmp_path / "mult3.txt"
        f.write_text("\n".join(str(n) for n in range(-36, 37) if n % 3 == 0))
        doc = run_json(
            capsys,
            [
                "dyn", "returns", "--indicator", str(f), "--horizon", "9",
                "--window-lo", "-36", "--window-hi", "36",
            ],
        )
        assert doc["result"]["point_returns"] == [-9, -6, -3, 0, 3, 6, 9]
        assert doc["result"]["system"] == "subshift"

    def test_psi_formula(self, capsys):
        doc = run_json(
            capsys,
            [
                "dyn", "psi", "--alpha", "golden", "--nk", "k^2",
                "--horizon", "50", "--eps", "1/100",
            ],
        )
        res = doc["result"]
        assert res["psi"]["float"] == pytest.approx(0.0131556, abs=1e-6)
        assert res["below_eps"] is False

    def test_rigidity(self, capsys):
        doc = run_json(
            capsys, ["dyn", "rigidity", "--alpha", "golden", "--horizon", "100"]
        )
        times = [r["time"] for r in doc["result"]["records"]]
        assert times == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_etadense_not_found(self, capsys):
        doc = run_json(
            capsys, ["dyn", "etadense", "--alpha", "1/2", "--eta", "1/10"]
        )
        assert doc["result"]["found"] is False


class TestSets:
    def test_gen_lr(self, capsys):
        doc = run_json(
            capsys, ["sets", "gen", "--family", "lr", "--r", "2", "--k-max", "2"]
        )
        assert doc["result"]["elements"] == [1, 2, 4, 8, 16, 32]

    def test_diff_windowed_input(self, capsys):
        # the window restricts the listing before differencing
        doc = run_json(
            capsys,
            [
                "sets", "diff", "--elements", "1,4,9,16", "--lo", "1", "--hi", "9",
            ],
        )
        assert doc["result"]["difference_set"] == [-8, -5, -3, 3, 5, 8]

    def test_gaps(self, capsys):
        doc = run_json(
            capsys,
            ["sets", "gaps", "--elements", "3,6,9,12", "--lo", "0", "--hi", "12"],
        )
        assert doc["result"]["max_gap"] == 3


class TestReport:
    def test_single_claim(self, capsys):
        rc, out, err = run(
            capsys,
            ["report", "paper-claims", "--only", "layered-family-lacunary"],
        )
        assert rc == 0
        doc = json.loads(out)
        claims = doc["result"]["claims"]
        assert len(claims) == 1
        assert claims[0]["status"] == "PASS"
        assert "runtime" not in claims[0]  # wall clock never on stdout

    def test_md_out_contains_table(self, capsys, tmp_path):
        md = tmp_path / "claims.md"
        rc, _, _ = run(
            capsys,
            [
                "report", "paper-claims", "--only",
                "layered-family-lacunary,layered-family-not-above",
                "--md-out", str(md),
            ],
        )
        assert rc == 0
        text = md.read_text()
        assert "| layered-family-lacunary |" in text
        assert "PASS" in text

    def test_unknown_claim_is_usage_error(self, capsys):
        rc, out, err = run(
            capsys, ["report", "paper-claims", "--only", "no-such-claim"]
        )
        assert rc == 2
        assert out == ""


class TestExitCodes:
    def test_missing_set_source(self, capsys):
        rc, out, err = run(capsys, ["birkhoff", "check", "--arity", "2"])
        assert rc == 2
        assert "provide --set FILE or --elements LIST" in err

    def test_argparse_rejects_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["birkhoff", "check", "--bogus"])
        assert exc.value.code == 2

    def test_unreadable_file(self, capsys, tmp_path):
        rc, out, err = run(
            capsys,
            ["birkhoff", "check", "--set", str(tmp_path / "nope"), "--arity", "2"],
        )
        assert rc == 2

    def test_precision_exit(self, capsys, monkeypatch):
        # handlers are looked up when build_parser runs, so patching the
        # module attribute reroutes the dispatch
        def boom(args):
            raise UncertainAtPrecision("cannot settle membership", ambiguous=[7])

        monkeypatch.setattr(cli, "cmd_bohr_member", boom)
        rc = cli.main(
            ["bohr", "member", "--n", "7", "--alpha", "golden", "--eps", "1/10"]
        )
        out = capsys.readouterr().out
        assert rc == 3
        doc = json.loads(out)
        assert doc["error"]["kind"] == "precision"
        assert doc["error"]["ambiguous"] == [7]

    def test_verification_budget_exit(self, capsys, tmp_path):
        # a bare window certificate past 4 * max M is refused before any
        # graph is built
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"type": "window_unsat", "window": 10**12, "arity": 3}))
        rc, out, err = run(
            capsys,
            ["birkhoff", "verify", "--elements", "2,4,6", "--arity", "3", "--cert", str(cert)],
        )
        assert rc == 4
        assert out == ""
        assert "exceeds 4 * max distance" in err
