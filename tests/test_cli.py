"""End-to-end command line checks, driven through ``cli.main``."""

import json
import os
import re
import resource
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import reclab
from reclab import bohr, cli, intsets

from oracles import bracket_float, signed_convergent

SRC = str(Path(reclab.__file__).resolve().parent.parent)


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
        assert "precision_bits" not in cfg and "precision_bits" not in cfg["flags"]
        assert cfg["flags"]["arity"] == 3

    def test_stdout_is_stable_across_runs(self, capsys):
        argv = ["bohr", "threedist", "--alpha", "golden", "--count", "8"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        assert len(out1) > 0

    def test_threedist_reads_counts_off_the_kernel(self, capsys):
        # 10**9 + 1 gaps are counted from three (length, multiplicity) parts,
        # never listed
        start = time.perf_counter()
        doc = run_json(capsys, ["bohr", "threedist", "--alpha", "golden", "--count", "1000000000"])
        assert time.perf_counter() - start < 1
        assert doc["result"]["gap_count"] == 10**9 + 1
        assert doc["result"]["distinct_count"] == len(doc["result"]["distinct_gaps"]) == 3
        # a closed orbit of 7 points has 7 gaps, however long the count
        doc = run_json(capsys, ["bohr", "threedist", "--alpha", "3/7", "--count", "1000000000"])
        assert doc["result"]["gap_count"] == 7 and doc["result"]["distinct_count"] == 1

    def test_human_summary_stays_on_stderr(self, capsys):
        rc, out, err = run(
            capsys, ["birkhoff", "check", "--elements", "2,4,6", "--arity", "3"]
        )
        assert rc == 0
        json.loads(out)  # stdout is pure JSON
        assert "R_BIRKHOFF" in err


class TestRepeatedCalls:
    """main builds its parsers once per process; each call parses into a
    fresh namespace, so no flag of one call reaches the next."""

    def test_parsers_are_built_once(self):
        assert cli.build_parser() is cli.build_parser()
        assert cli.command_parser("dyn", "rigidity") is cli.command_parser("dyn", "rigidity")

    @pytest.mark.parametrize(
        "first, second, flags",
        [
            (
                ["dyn", "rigidity", "--alpha", "golden", "--alpha", "sqrt2", "--horizon", "50"],
                ["dyn", "rigidity", "--alpha", "1/3", "--horizon", "20"],
                {"alpha": ["1/3"], "horizon": 20, "seed": cli.DEFAULT_SEED},
            ),
            (
                ["report", "paper-claims", "--inject-corruption", "--only", "certificate-audit"],
                ["report", "paper-claims", "--only", "certificate-audit"],
                {"inject_corruption": False, "json_out": None, "max_period": None, "max_window": None,
                 "md_out": None, "node_budget": None, "only": "certificate-audit", "seed": cli.DEFAULT_SEED},
            ),
        ],
        ids=["append", "store_true"],
    )
    def test_no_flag_carries_over(self, capsys, first, second, flags):
        before = run(capsys, first)
        other = run_json(capsys, second)
        again = run(capsys, first)
        assert before[0] == 0 and before[:2] == again[:2]
        assert other["config"]["flags"] == flags

    @pytest.mark.parametrize(
        "argv",
        [["birkhoff", "nosuch"], ["birkhoff", "check", "--bogus"], ["birkhoff", "check", "--help"], ["--help"]],
        ids=["unknown command", "unknown flag", "command help", "top help"],
    )
    def test_first_and_second_call_print_the_same(self, capsys, argv):
        cli.build_parser.cache_clear()
        cli.command_parser.cache_clear()
        printed = []
        for _ in range(2):
            code = exit_code(argv)
            captured = capsys.readouterr()
            printed.append((code, captured.out, captured.err))
        assert printed[0] == printed[1]
        assert printed[0][0] == (0 if "--help" in argv else 2)


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

    def test_zero_node_budget_is_the_budget_used(self, capsys):
        doc = run_json(
            capsys, ["birkhoff", "check", "--elements", "2,4,6", "--arity", "3", "--node-budget", "0"]
        )
        assert doc["config"]["budgets"]["node_budget"] == 0
        assert doc["result"]["stats"]["limits"]["node_budget"] == 0

    @pytest.mark.parametrize("flag", ["--node-budget", "--max-window", "--max-period"])
    def test_negative_budget_is_a_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["birkhoff", "check", "--elements", "2,4,6", "--arity", "3", flag, "-3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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

    def test_oversized_radicand_is_an_input_error(self, capsys):
        start = time.perf_counter()
        rc, out, err = run(
            capsys, ["bohr", "cf", "--alpha", "sqrt:100000000000000000000000000319:0:1:1"]
        )
        assert time.perf_counter() - start < 1
        assert rc == 2 and out == ""
        assert "limit is 56 bits" in err

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
        assert doc["result"] == {
            "found": True, "modulus": 3, "absolute": True, "residues_checked": 3, "m_max": 10,
        }

    def test_separate_small_interval(self, capsys, tmp_path):
        f = tmp_path / "interval.txt"
        f.write_text("\n".join(str(n) for n in range(1, 51)))
        doc = run_json(
            capsys, ["bohr", "separate", "--set", str(f), "--eps", "1/40"]
        )
        assert doc["result"]["found"] is False


SQRT2_SQRT3 = ["--alpha", "sqrt:2:0:1:1", "--alpha", "sqrt:3:0:1:1"]
# command -> (argv, the decision it prints, its value)
TWO_FIELDS = {
    "bohr.enumerate": (
        ["bohr", "enumerate", *SQRT2_SQRT3, "--eps", "1/5", "--lo", "-40", "--hi", "40"],
        "members", [-34, -22, -19, -7, 7, 19, 22, 34],
    ),
    "dyn.moving": (["dyn", "moving", *SQRT2_SQRT3, "--nk", "k^2", "--horizon", "30"], "fraction_below", "0"),
    "dyn.psi": (["dyn", "psi", *SQRT2_SQRT3, "--nk", "k^2", "--horizon", "30"], "below_eps", False),
    "dyn.returns": (
        ["dyn", "returns", "--alpha", "sqrt:2:0:1:1", "--alpha", "sqrt:5:-1:1:2", "--horizon", "60",
         "--radius", "1/8", "--center", "1/3;1/4", "--point", "1/5;2/7"],
        "point_returns", [-60, -55, -26, 34],
    ),
}
# displayed values: Approx at bohr._DISPLAY_BITS, the only output it sets
SHOWN = {"psi", "psi_min", "psi_max"}


def at_bits(capsys, monkeypatch, bits, argv):
    monkeypatch.setattr(bohr, "_DISPLAY_BITS", bits)
    return run_json(capsys, argv)["result"]


@pytest.mark.parametrize("command", sorted(TWO_FIELDS))
def test_two_field_decisions_need_no_precision(capsys, monkeypatch, command):
    argv, decision, value = TWO_FIELDS[command]
    low, high = (at_bits(capsys, monkeypatch, bits, argv) for bits in (8, 128))
    assert low[decision] == value
    assert {k: v for k, v in low.items() if k not in SHOWN} == {k: v for k, v in high.items() if k not in SHOWN}


def test_two_field_rigidity_records_need_no_precision(capsys, monkeypatch):
    # records compare squared norms exactly; only the displayed norms are Approx
    argv = ["dyn", "rigidity", *SQRT2_SQRT3, "--horizon", "300"]
    for bits in (8, 128):
        records = at_bits(capsys, monkeypatch, bits, argv)["records"]
        assert [rec["time"] for rec in records] == [1, 3, 7, 19, 22, 34, 41]


def test_two_field_minima_need_no_precision(capsys, monkeypatch):
    # the minimiser is picked on squared norms exactly; only its displayed
    # distance is an Approx at bohr._DISPLAY_BITS
    phi = ["dyn", "phi", *SQRT2_SQRT3, "--elements", "1,3,7,19,22,34,41", "--horizon", "60"]
    low, high = (at_bits(capsys, monkeypatch, bits, phi)["phi"] for bits in (8, 128))
    assert abs(low["float"] - high["float"]) <= low["max_error"]
    # every term is the displacement of 3: equal minima, first one kept
    psi = run_json(capsys, ["dyn", "psi", *SQRT2_SQRT3, "--nk", "k^2", "--rk", "3", "--horizon", "5"])["result"]
    norm = sum(min(f, 1 - f) ** 2 for f in ((3 * 2**0.5) % 1, (3 * 3**0.5) % 1)) ** 0.5
    assert psi["psi"]["float"] == pytest.approx(norm, rel=1e-12)


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

    # the cylinder at shift n reads coordinate offset + n alone, so the window
    # must hold offset +- horizon, and one short of it names the coordinate missed
    INDICATOR = [-9, -4, 0, 2, 7, 9]

    def test_returns_indicator_window_of_the_horizon(self, capsys, tmp_path):
        f = tmp_path / "set.txt"
        f.write_text("\n".join(map(str, self.INDICATOR)))
        doc = run_json(
            capsys,
            ["dyn", "returns", "--indicator", str(f), "--horizon", "9", "--window-lo", "-9", "--window-hi", "9"],
        )
        assert doc["result"]["point_returns"] == [n for n in range(-9, 10) if n in self.INDICATOR]

    def test_returns_indicator_window_short_of_the_horizon(self, capsys, tmp_path):
        f = tmp_path / "set.txt"
        f.write_text("\n".join(map(str, self.INDICATOR)))
        rc, out, err = run(
            capsys,
            ["dyn", "returns", "--indicator", str(f), "--horizon", "9", "--window-lo", "-8", "--window-hi", "8"],
        )
        assert rc == 2 and out == ""
        assert "coordinate -9 outside declared window [-8, 8]" in err

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

    def test_moving_builds_nothing_per_sample(self):
        # a rotation's psi is the same at every point, so it is evaluated
        # once and nothing is kept per sample: 2 * 10**8 samples fit a 1 GB
        # address space, in well under 2 s
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

        argv = ["dyn", "moving", "--alpha", "golden", "--nk", "k^2", "--horizon", "30", "--samples", "200000000"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "reclab.cli", *argv], env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, timeout=60, preexec_fn=cap,
        )
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - start < 2
        res = json.loads(proc.stdout)["result"]
        assert res["sample_count"] == 200_000_000 and res["fraction_below"] == "0"
        assert res["psi_min"] == res["psi_max"]

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

    def test_diff_lists_distinct_differences(self, capsys, tmp_path):
        # 15,996,000 ordered pairs, but a bitset of the span lists the 7,998
        # distinct differences
        listing = tmp_path / "set.txt"
        listing.write_text("\n".join(str(n) for n in range(1, 4001)))
        res = run_json(capsys, ["sets", "diff", "--set", str(listing)])["result"]
        assert res["count"] == 7998
        assert res["difference_set"] == list(range(-3999, 0)) + list(range(1, 4000))

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
        # at n = 1 the torus point is (q*sqrt(2) - p, q'*sqrt(3) - p'), two
        # convergent errors of about 2**-4200, and --eps = 1/round(1/norm):
        # its squared norm less eps**2 is about 2**-4200 too, and its sign
        # separates at an 8192-bit bracket
        (p, q), (p3, q3) = signed_convergent(2, 4200, 1), signed_convergent(3, 4200, -1)
        with localcontext() as ctx:
            ctx.prec = 6000
            x, y = q * Decimal(2).sqrt() - p, q3 * Decimal(3).sqrt() - p3
            eps_den = int((1 / (x * x + y * y).sqrt()).to_integral_value())
        argv = ["bohr", "member", "--n", "1", "--alpha", f"sqrt:2:{-p}:{q}:1",
                "--alpha", f"sqrt:3:{-p3}:{q3}:1", "--eps", f"1/{eps_den}"]
        doc = run_json(capsys, argv)
        assert doc["result"]["member"] is True
        # below 8192 bits the bracket budget runs out: exit 4, empty stdout
        monkeypatch.setattr(intsets, "HIT_CAP", 4096)
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (4, "")
        assert "past the cap 4096 bits" in err

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

    @pytest.mark.parametrize("argv, name", [
        (["bohr", "separate", "--elements", "1", "--eps", "1/2"], "eps"),
        (["bohr", "witness", "--elements", "1", "--delta", "1/2"], "delta"),
    ])
    def test_prune_radius_error_names_the_flag(self, capsys, argv, name):
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert f"{name} must satisfy 0 < {name} < 1/2" in err

    def test_pruning_budget_exit(self, capsys):
        # --grid-depth caps the pruning interval count, a work budget
        rc, out, err = run(capsys, ["bohr", "separate", "--elements", "1,2", "--eps", "1/5", "--grid-depth", "1"])
        assert rc == 4
        assert out == ""
        assert "interval count exceeded 1" in err

    def test_chromatic_window_budget_exit(self, capsys):
        # refused before the 10^8-vertex window graph is built
        rc, out, err = run(capsys, ["birkhoff", "chromatic", "--elements", "1,2", "--window", "100000000"])
        assert rc == 4
        assert out == ""
        assert "window 100000000 exceeds the node cap" in err

    def test_greedy_terms_past_hit_cap_exit(self, capsys):
        # refused before the first term is generated
        rc, out, err = run(capsys, ["birkhoff", "greedy", "--elements", "3,7", "--terms", "1000001"])
        assert rc == 4
        assert out == ""
        assert "greedy coloring of 1000001 elements exceeds the listing cap 1000000" in err

    def test_recurrent_past_the_sample_budget_exit(self, capsys, tmp_path):
        # golden's first witness at eps = 1/12000 is 6765 (a Fibonacci number,
        # norm about 1/15127), past the 5,000 target times tested: exit 4,
        # where it printed "found": false
        listing = tmp_path / "set.txt"
        listing.write_text("\n".join(str(n) for n in range(1, 6766)))
        argv = ["dyn", "recurrent", "--alpha", "golden", "--eps", "1/12000"]
        rc, out, err = run(capsys, [*argv, "--set", str(listing)])
        assert (rc, out) == (4, "")
        assert "no witness among the first 5000 target times" in err and "1765 more" in err
        doc = run_json(capsys, [*argv, "--elements", "6765"])
        assert doc["result"]["found"] is True and doc["result"]["time"] == 6765

    def test_sets_diff_past_hit_cap_exit(self, capsys, tmp_path):
        # 4,000 squares make 15,996,000 ordered pairs: refused before any is formed
        listing = tmp_path / "set.txt"
        listing.write_text("\n".join(str(n * n) for n in range(1, 4001)))
        rc, out, err = run(capsys, ["sets", "diff", "--set", str(listing)])
        assert rc == 4
        assert out == ""
        assert "difference set of 15996000 elements exceeds the listing cap 1000000" in err

    def test_cf_past_bit_cap_exit(self, capsys):
        # golden's kept convergents pass 64 * HIT_CAP bits near term 9,600;
        # printing all 30,001 used to run for about a minute
        start = time.perf_counter()
        rc, out, err = run(capsys, ["bohr", "cf", "--alpha", "golden", "--depth", "30000"])
        assert (rc, out) == (4, "")
        assert "exceeds the listing cap 64000000 bits" in err
        assert time.perf_counter() - start < 10

    def test_circle_rigidity_past_bit_cap_exit(self, capsys):
        # golden's records to 10**4299 would print about 136 MB; their bits
        # are charged before any value is built
        start = time.perf_counter()
        rc, out, err = run(capsys, ["dyn", "rigidity", "--alpha", "golden", "--horizon", str(10**4299)])
        assert (rc, out) == (4, "")
        assert "rigidity records of" in err and "exceeds the listing cap 64000000 bits" in err
        assert time.perf_counter() - start < 10

    def test_psi_at_the_widest_printable_horizon(self, capsys):
        # the walk to 10**4299 takes its quotients from PQa, and one value
        # is built: the last record's, whose parts still print
        start = time.perf_counter()
        doc = run_json(capsys, ["dyn", "psi", "--alpha", "golden", "--nk", "k", "--horizon", str(10**4299)])
        assert doc["result"]["psi"]["kind"] == "surd"
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("command", ["psi", "moving"])
    def test_formula_horizon_past_hit_cap_exit(self, capsys, command):
        # refused before the first r_k is evaluated
        argv = ["dyn", command, "--alpha", "golden", "--nk", "k^2", "--rk", "k^2", "--horizon", "100000000"]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (4, "")
        assert "formula horizon of 100000000 elements exceeds the listing cap 1000000" in err

    @pytest.mark.parametrize("command", ["psi", "moving"])
    def test_default_offsets_on_the_circle_have_no_cap(self, capsys, command):
        # r_k = k reads the circle kernel's last record; n_k is never evaluated.
        # Golden's records are at the Fibonacci numbers F: ||F*golden|| is
        # |F*(1 + sqrt5)/2 - F'| for the next one F', rounded from a Fraction
        # bracket; these norms are 10**-8 and 10**-30 beside 10**8 and 10**30
        # coefficients
        for horizon in (10**8, 10**30):
            f, f_next = 1, 2
            while f_next <= horizon:
                f, f_next = f_next, f + f_next
            p, q = Fraction(f - 2 * f_next, 2), Fraction(f, 2)
            if bracket_float(p, q, 5) < 0:
                p, q = -p, -q
            want = bracket_float(p, q, 5)
            doc = run_json(capsys, ["dyn", command, "--alpha", "golden", "--nk", "k^2", "--horizon", str(horizon)])
            result = doc["result"]
            assert result["horizon"] == horizon
            if command == "psi":
                assert result["psi"] == {"exact": f"({p}) + ({q})*sqrt(5)", "float": want, "kind": "surd"}
            else:
                assert result["psi_min"] == result["psi_max"] == want
            assert 0 < want < 1 / horizon

    @pytest.mark.parametrize("power", [200, 14000])
    def test_large_offset_norm_float_is_correctly_rounded(self, capsys, power):
        # ||2**power * golden|| beside coefficients of 2**power: its nearest
        # integer from a bracket 64 bits finer than the coefficients
        base = Fraction(2 ** (power - 1))
        bits = 2 * power + 64
        n = isqrt(5 << 2 * bits)
        lo, hi = (base + base * Fraction(s, 1 << bits) for s in (n, n + 1))
        assert round(lo) == round(hi)
        want = abs(bracket_float(base - round(lo), base, 5))
        doc = run_json(capsys, ["dyn", "psi", "--alpha", "golden", "--nk", "k", "--rk", f"2^{power}", "--horizon", "1"])
        assert doc["result"]["psi"]["float"] == want
        assert 0 < want <= 0.5

    def test_unprintable_exact_part_exit(self, capsys):
        # the surd's exact parts have about 4,800 digits, past the interpreter's
        # int-to-text limit; 2^14000 (about 4,200) prints, as above
        argv = ["dyn", "psi", "--alpha", "golden", "--nk", "k", "--rk", "2^16000", "--horizon", "1"]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (4, "")
        assert f"more than {sys.get_int_max_str_digits()} digits" in err

    def test_unprintable_result_int_exit(self, capsys, monkeypatch):
        # an int anywhere in the document, not only inside real_to_json
        _, text, flags = cli.COMMANDS[("sets", "gaps")]
        monkeypatch.setitem(cli.COMMANDS, ("sets", "gaps"), (lambda args: {"max_gap": 10**5000}, text, flags))
        rc, out, err = run(capsys, ["sets", "gaps", "--elements", "1", "--lo", "0", "--hi", "5"])
        assert (rc, out) == (4, "")
        assert "sys.get_int_max_str_digits()" in err

    def test_torus_rigidity_past_hit_cap_exit(self, capsys):
        # refused before the per-m scan, which ran past 20 s at this horizon
        argv = ["dyn", "rigidity", "--alpha", "golden", "--alpha", "sqrt2", "--horizon", "100000000"]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (4, "")
        assert "torus record scan of 100000000 elements exceeds the listing cap 1000000" in err

    def test_nk_is_parsed_but_never_evaluated(self, capsys):
        # "k mod 0" would raise on evaluation; only a syntax error exits 2
        base = ["dyn", "psi", "--alpha", "golden", "--horizon", "50", "--nk"]
        doc = run_json(capsys, [*base, "k mod 0"])
        assert doc["config"]["flags"]["nk"] == "k mod 0"
        doc["config"]["flags"]["nk"] = "k"
        assert doc == run_json(capsys, [*base, "k"])
        rc, out, _ = run(capsys, [*base, "k^"])
        assert (rc, out) == (2, "")

    def test_formula_is_compiled_before_the_horizon_cap(self, capsys):
        rc, out, err = run(capsys, ["dyn", "psi", "--alpha", "golden", "--nk", "k^", "--horizon", "100000000"])
        assert (rc, out) == (2, "")
        assert "listing cap" not in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--family", "kxnr", "--k", "1", "--r", "100000000"], "100000000 elements"),
            (["--family", "lr", "--r", "2", "--k-max", "200000"], "bits exceeds the listing cap 64000000 bits"),
            (["--family", "poly", "--coeffs", "0,1", "--n-max", "100000000"], "100000000 elements"),
        ],
        ids=["kxnr", "lr", "poly"],
    )
    def test_sets_gen_past_hit_cap_exit(self, capsys, flags, message):
        rc, out, err = run(capsys, ["sets", "gen", *flags])
        assert rc == 4
        assert out == ""
        assert message in err

    def test_stable_family_past_hit_cap_exit(self, capsys):
        rc, out, err = run(capsys, ["birkhoff", "stable", "--family-r", "2", "--k-max", "200000", "--removed", "4"])
        assert rc == 4
        assert out == ""

    def test_obstruct_polynomial_period_past_hit_cap_exit(self, capsys):
        # 2*C(n, 13) + 1: m*lcm(denominators) = 6,227,020,800 values of n
        poly = (
            "1,2/13,-6617/13860,128977/207900,-412009/907200,1148963/5443200,-9607/145152,"
            "314617/21772800,-299/134400,1747/7257600,-13/725760,19/21772800,-1/39916800,1/3113510400"
        )
        rc, out, err = run(capsys, ["bohr", "obstruct", "--m-max", "2", "--elements", "1", "--poly", poly])
        assert rc == 4
        assert out == ""
        assert "polynomial period modulo 2 of 6227020800 elements exceeds the listing cap 1000000" in err

    def test_deep_json_set_file_is_an_input_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        rc, out, err = run(capsys, ["birkhoff", "check", "--set", str(deep), "--arity", "2"])
        assert rc == 2
        assert out == ""
        assert "JSON set file must be an array of integers" in err

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000 + "]" * 200_000,
            '{"type": "window_unsat", "window": 3, "arity": 2, "proof": {"distances": [], "vertices": '
            + "[" * 200_000 + "]" * 200_000 + "}}",
        ],
        ids=["document", "proof-vertices"],
    )
    def test_deep_json_certificate_is_malformed(self, capsys, tmp_path, text):
        cert = tmp_path / "cert.json"
        cert.write_text(text)
        rc, out, err = run(capsys, ["birkhoff", "verify", "--elements", "1", "--arity", "2", "--cert", str(cert)])
        assert rc == 2
        assert out == ""
        assert "nested too deeply" in err


# every option string of every command; help text itself is not pinned,
# argparse formats it differently across Python 3.10-3.13
OPTIONS = {
    ("birkhoff", "check"): ("--set", "--elements", "--max-window", "--max-period", "--node-budget", "--arity",
                            "--emit-cert"),
    ("birkhoff", "verify"): ("--set", "--elements", "--arity", "--cert"),
    ("birkhoff", "minimal"): ("--set", "--elements", "--max-window", "--max-period", "--node-budget", "--arity"),
    ("birkhoff", "greedy"): ("--set", "--elements", "--terms"),
    ("birkhoff", "stable"): ("--max-window", "--max-period", "--node-budget", "--family-r", "--removed", "--k-max",
                             "--arity"),
    ("birkhoff", "chromatic"): ("--set", "--elements", "--node-budget", "--window"),
    ("bohr", "member"): ("--n", "--alpha", "--eps"),
    ("bohr", "enumerate"): ("--alpha", "--eps", "--lo", "--hi"),
    ("bohr", "witness"): ("--set", "--elements", "--delta", "--depth"),
    ("bohr", "obstruct"): ("--set", "--elements", "--m-max", "--poly"),
    ("bohr", "separate"): ("--set", "--elements", "--eps", "--grid-depth"),
    ("bohr", "cf"): ("--alpha", "--depth"),
    ("bohr", "threedist"): ("--alpha", "--count"),
    ("dyn", "returns"): ("--alpha", "--center", "--radius", "--point", "--horizon", "--indicator", "--window-lo",
                         "--window-hi", "--offset"),
    ("dyn", "nuu"): ("--alpha", "--center", "--radius", "--point", "--horizon", "--margin"),
    ("dyn", "phi"): ("--alpha", "--set", "--elements", "--horizon", "--indicator", "--window-lo",
                     "--window-hi", "--offset"),
    ("dyn", "psi"): ("--alpha", "--nk", "--rk", "--horizon", "--eps"),
    ("dyn", "recurrent"): ("--alpha", "--set", "--elements", "--eps"),
    ("dyn", "etadense"): ("--alpha", "--eta"),
    ("dyn", "rigidity"): ("--alpha", "--horizon"),
    ("dyn", "moving"): ("--alpha", "--nk", "--rk", "--horizon", "--eps", "--samples"),
    ("sets", "diff"): ("--set", "--elements", "--lo", "--hi"),
    ("sets", "gaps"): ("--set", "--elements", "--lo", "--hi", "--side"),
    ("sets", "gen"): ("--family", "--k", "--r", "--k-max", "--coeffs", "--n-max", "--out"),
    ("report", "paper-claims"): ("--max-window", "--max-period", "--node-budget", "--inject-corruption", "--only",
                                 "--md-out", "--json-out"),
}
GROUPS = sorted({group for group, _ in OPTIONS})


def help_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def missing(text, words):
    return [w for w in words if not re.search(rf"(?<![\w-]){re.escape(w)}(?![\w-])", text)]


class TestHelp:
    def test_top_names_every_group(self, capsys):
        assert missing(help_text(capsys, []), GROUPS) == []

    @pytest.mark.parametrize("group", GROUPS)
    def test_group_names_its_commands(self, capsys, group):
        commands = [c for g, c in OPTIONS if g == group]
        assert missing(help_text(capsys, [group]), commands) == []

    @pytest.mark.parametrize("command", sorted(OPTIONS), ids=" ".join)
    def test_command_names_its_options(self, capsys, command):
        assert missing(help_text(capsys, list(command)), OPTIONS[command]) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["nosuch", "check"],
        ["birkhoff", "nosuch"],
        ["birkhoff"],
        ["birkhoff", "check", "--elements", "1"],
        ["birkhoff", "check", "--elements", "2", "--arity", "2", "--seed", "3"],
        ["dyn", "rigidity", "--alpha", "golden", "--horizon", "10", "--point", "1/3"],
        ["dyn", "psi", "--alpha", "golden", "--nk", "k^2", "--horizon", "30", "--point", "sqrt:3:0:1:2"],
        ["dyn", "phi", "--alpha", "golden", "--elements", "1,3,8", "--horizon", "30", "--point", "1/3"],
        ["dyn", "moving", "--alpha", "golden", "--nk", "k^2", "--horizon", "30", "--samples", "-1"],
        ["bohr", "cf", "--alpha", "golden", "--depth", "-5"],
        ["bohr", "witness", "--elements", "1,3,10,40", "--delta", "1/5", "--depth", "-1"],
        ["dyn", "rigidity", "--alpha", "golden", "--horizon", "-3"],
        ["--precision-bits", "8", "sets", "diff", "--elements", "1,2"],
        ["bohr", "separate", "--elements", "1,2", "--eps", "1/5", "--grid-depth", "-1"],
        ["birkhoff", "chromatic", "--elements", "2,3", "--window", "9", "--max-window", "4"],
    ],
    ids=["unknown group", "unknown command", "missing command", "missing required flag", "global flag last",
         "point on rigidity", "point on psi", "point on phi", "negative samples", "negative cf depth", "negative witness depth", "negative horizon",
         "precision flag", "negative grid depth", "window budget on chromatic"],
)
def test_usage_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def exit_code(argv) -> int:
    """main's return code, or the code of the SystemExit argparse raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# a zero denominator is refused where the text is parsed: in parse_real, or
# by the argparse type of a rational flag
ZERO_DENOMINATORS = {
    "member eps": ["bohr", "member", "--n", "3", "--alpha", "1/3", "--eps", "1/0"],
    "member alpha": ["bohr", "member", "--n", "3", "--alpha", "2/0", "--eps", "1/10"],
    "returns radius": ["dyn", "returns", "--alpha", "golden", "--radius", "1/0", "--horizon", "5"],
    "returns point": ["dyn", "returns", "--alpha", "golden", "--point", "1/0", "--horizon", "5"],
    "witness delta": ["bohr", "witness", "--elements", "1,3,10,40", "--delta", "1/0"],
    "etadense eta": ["dyn", "etadense", "--alpha", "golden", "--eta", "1/0"],
    "nuu margin": ["dyn", "nuu", "--alpha", "golden", "--point", "1/3", "--horizon", "5", "--margin", "1/0"],
    "psi eps": ["dyn", "psi", "--alpha", "golden", "--nk", "k^2", "--horizon", "5", "--eps", "1/0"],
    "gen coeffs": ["sets", "gen", "--family", "poly", "--coeffs", "1,1/0"],
    "obstruct poly": ["bohr", "obstruct", "--elements", "1,2", "--m-max", "5", "--poly", "1/0"],
    "cf alpha": ["bohr", "cf", "--alpha", "1/0"],
}


@pytest.mark.parametrize("argv", ZERO_DENOMINATORS.values(), ids=ZERO_DENOMINATORS)
def test_zero_denominator_exits_2(capsys, argv):
    assert exit_code(argv) == 2
    assert capsys.readouterr().out == ""


SECOND_FIELD = {
    "returns point": ["dyn", "returns", "--alpha", "golden", "--point", "sqrt:3:0:1:2", "--center", "0",
                      "--radius", "1/10", "--horizon", "20"],
    "returns center": ["dyn", "returns", "--alpha", "golden", "--point", "1/3", "--center", "sqrt:2:0:1:3",
                       "--horizon", "20"],
    "nuu point": ["dyn", "nuu", "--alpha", "sqrt2", "--point", "sqrt:3:0:1:2", "--horizon", "20"],
    "torus point": ["dyn", "returns", "--alpha", "golden", "--alpha", "sqrt2", "--point", "1/3;sqrt:5:0:1:4",
                    "--horizon", "20"],
}


def test_negative_nuu_margin_exits_2(capsys):
    rc, out, err = run(capsys, ["dyn", "nuu", "--alpha", "golden", "--point", "1/3", "--center", "0",
                                "--radius", "1/20", "--horizon", "10", "--margin=-1/100"])
    assert (rc, out) == (2, "")
    assert "margin must be >= 0" in err


@pytest.mark.parametrize("argv", SECOND_FIELD.values(), ids=SECOND_FIELD)
def test_second_field_point_exits_2(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert "one quadratic field" in err
