"""Command-line surface: exit codes, report schemas, byte-level determinism."""

import contextlib
import hashlib
import io
import json
import argparse
import os
import pathlib
import re
import subprocess
import sys

import pytest

import spnil
import spnil.cli
from spnil.cli import MAX_TRIALS, SUITES, _SUITE_CAP, build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "perfbench" / "golden.json"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_expecting_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    return err.getvalue()


def test_passing_suites_exit_zero():
    for suite in ("weyl", "minors", "dunkl", "relation", "embedding",
                  "theta1-hom", "theta0-hom", "equivariance"):
        code, out, err = run(["verify", suite, "-n", "1"])
        assert code == 0, (suite, out)
        rep = json.loads(out)
        assert rep["overall_pass"] is True
        assert all(ch["pass"] for ch in rep["checks"])


def test_lagrangian_suite_reports_the_failing_rank_check():
    code, out, err = run(["verify", "lagrangian", "-n", "1"])
    assert code == 1
    rep = json.loads(out)
    assert rep["overall_pass"] is False
    by_name = {ch["name"]: ch for ch in rep["checks"]}
    rank_check = by_name["defining Jacobian has full rank with isotropic kernel"]
    assert rank_check["pass"] is False
    assert "ranks {3}" in rank_check["actual"]
    frame_check = by_name["stratum tangent frame is half-dimensional and isotropic"]
    assert frame_check["pass"] is True


def test_usage_errors_exit_two():
    run_expecting_usage_error([])
    run_expecting_usage_error(["verify", "unknown-suite", "-n", "1"])
    run_expecting_usage_error(["verify", "weyl", "-n", "1", "--format", "xml"])
    run_expecting_usage_error(["census", "-n", "abc"])
    # each bound is named on stderr, after the flag it belongs to
    bounds = {
        "verify weyl -n 5": "argument -n: verify requires 1 <= n <= 4",
        "verify weyl -n 0": "argument -n: verify requires 1 <= n <= 4",
        "verify weyl -n 1 --trials 0": f"argument --trials: trials must lie in 1..{MAX_TRIALS}",
        f"verify lagrangian -n 2 --trials {MAX_TRIALS + 1}": f"1..{MAX_TRIALS}",
        "verify lagrangian -n 2 --trials 10000000": f"1..{MAX_TRIALS}",
        "census -n 0": "argument -n: census requires 1 <= n <= 4",
        "census -n 5": "1 <= n <= 4",
        "hilbert -n 2": "argument -n: hilbert is implemented for n = 1 only",
        "hilbert -n 1 --max-degree 9": "argument --max-degree: max degree must lie in 0..8",
        "hilbert --max-degree -1": "0..8",
        "radial -n 0": "argument -n: radial requires 1 <= n <= 4",
        "radial -n 5": "1 <= n <= 4",
        "lemma-sl2 --dim 0": "argument --dim: dim must lie in 1..12",
        "lemma-sl2 --dim 13": "1..12",
    }
    for argv, bound in bounds.items():
        assert bound in run_expecting_usage_error(argv.split()), argv


def test_every_capped_suite_is_a_suite():
    assert set(_SUITE_CAP) <= set(SUITES)


def test_docs_list_the_suites_and_subcommands_of_the_parser():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Suites: (.*?)\.", readme, re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == [*SUITES, "all"]
    doc = spnil.cli.__doc__.split("Subcommands:\n", 1)[1].split("\n\n", 1)[0]
    documented = [line.split()[0] for line in doc.splitlines()]
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == list(commands.choices)


def test_census_csv_bytes_are_frozen():
    code, out, err = run(["census", "-n", "1", "--format", "csv"])
    assert code == 0
    assert out == ("lambda,orbit_dim,vplus_dim,xlambda_dim,is_component\n"
                   "(2),2,1,4,True\n"
                   '"(1,1)",0,0,3,False\n')


def test_census_json_schema():
    code, out, err = run(["census", "-n", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "census"
    assert rep["n"] == 2
    assert rep["overall_pass"] is True
    checks = rep["checks"]
    assert [ch["params"]["lambda"] for ch in checks] == [
        [4], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    for ch in checks:
        assert ch["name"] == "closure dimension"
        assert set(ch["params"]) == {"lambda", "orbit_dim", "vplus_dim",
                                     "xlambda_dim", "is_component"}
        assert ch["pass"] is True
    assert checks[0]["params"] == {"lambda": [4], "orbit_dim": 8,
                                   "vplus_dim": 2, "xlambda_dim": 12,
                                   "is_component": True}
    assert checks[0]["expected"] == "xlambda_dim = 12"


def test_radial_report():
    code, out, err = run(["radial", "-n", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["overall_pass"] is True
    names = [ch["name"] for ch in rep["checks"]]
    assert names.count("vacuum scalar of e_a e_-a") == 4
    assert names[-1] == "radial operator equals L_c at c=(-1/4,-1/2)"


def test_hilbert_report_rows():
    code, out, err = run(["hilbert", "-n", "1", "--max-degree", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["overall_pass"] is True
    assert [ch["expected"] for ch in rep["checks"]] == ["1", "6", "21", "56",
                                                        "125"]
    assert all(ch["expected"] == ch["actual"] for ch in rep["checks"])


def test_lemma_report():
    code, out, err = run(["lemma-sl2", "--dim", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["overall_pass"] is True
    assert len(rep["checks"]) == 4


def test_reports_are_byte_identical_across_runs():
    for argv in (["verify", "theta1-hom", "-n", "2"],
                 ["census", "-n", "2", "--format", "csv"],
                 ["radial", "-n", "1"]):
        code1, out1, _ = run(argv)
        code2, out2, _ = run(argv)
        assert code1 == code2
        assert out1 == out2


def test_seed_is_echoed():
    code, out, err = run(["verify", "weyl", "-n", "1", "--seed", "7"])
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_wall_time_goes_to_stderr_not_stdout():
    code, out, err = run(["verify", "weyl", "-n", "1"])
    assert "wall time" in err
    assert "wall time" not in out
    json.loads(out)


def test_verify_all_caps_expensive_suites():
    code, out, err = run(["verify", "all", "-n", "3"])
    # the Jacobian rank check fails by design, everything else passes
    assert code == 1
    rep = json.loads(out)
    failing = {(ch["name"], tuple(ch["params"]["lambda"]))
               for ch in rep["checks"] if not ch["pass"]}
    assert failing == {
        ("defining Jacobian has full rank with isotropic kernel", (4,)),
        ("defining Jacobian has full rank with isotropic kernel", (2, 2)),
    }
    assert "note: theta0-hom capped at n=2" in err
    assert "note: lagrangian capped at n=2" in err


def test_module_entry_point():
    # the child imports the same spnil as this test, installed or not
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(spnil.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "spnil.cli", "census", "-n", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["checks"][0]["params"]["lambda"] == [2]
    assert "wall time" in proc.stderr


def test_frozen_reports_match_their_golden_bytes():
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert len(goldens) == 15
    for argv, want in goldens.items():
        code, out, _ = run(argv.split())
        assert code == want["exit"], argv
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"], argv


def test_lagrangian_report_at_n3_keeps_its_bytes():
    # no golden covers n = 3, so its stdout bytes are pinned here
    pinned = {
        "0": "990380b017fb0651b73af10b0c90cf1f5daf5eebb3b2e321676ca25bb27b656c",
        "1": "d870fbee80bc27e5ff59233e54b1e3506a08bda6b52903962c4f909d4b831a2d",
    }
    for seed, digest in pinned.items():
        code, out, _ = run(["verify", "lagrangian", "-n", "3", "--trials", "2", "--seed", seed])
        assert code == 1
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_lagrangian_reports_off_the_goldens_keep_their_bytes():
    # a second n = 2 seed and the one n = 4 point, pinned like n = 3 above
    pinned = {
        "-n 2 --seed 7": "e12932e266d1ea737ce7ebf6a3e016fee3c9dff51cf5010ed69e1e534b8d6b07",
        "-n 4 --trials 1 --seed 0":
            "05fe9ed1316cc4143cd9e4b1a55db5c42ec20eb3ccd98690bc13fd75374bc204",
    }
    for args, digest in pinned.items():
        code, out, _ = run(["verify", "lagrangian"] + args.split())
        assert code == 1, args
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, args


def test_csv_reports_keep_their_bytes():
    # CSV layouts of every report kind but census, whose bytes are frozen above
    pinned = {
        "hilbert -n 1 --max-degree 4":
            (0, "e7165fec6513e98d01683f2c3517bfe08f2363a95b29108a27cdd433991bcb7f"),
        "verify weyl -n 1":
            (0, "72dd7d5821017181653946c5f25f6ec3527cefdf3bc248af959b902b377986fa"),
        "verify lagrangian -n 1 --trials 3":
            (1, "818ea35ff0ac0e7e01b4bf426b267d8f05bb18f9d5cef5dd615507ba6121354f"),
        "radial -n 2": (0, "b054a4d00483757f0a9ae669a229d344743ba4f70a1998be0ebdee30fda486d1"),
        "lemma-sl2 --dim 5":
            (0, "dee81842cb380af906b2d1ff3d9b922f2a95ac79598ac9adfdd43cb442b1fcbb"),
    }
    for args, (status, digest) in pinned.items():
        code, out, _ = run(args.split() + ["--format", "csv"])
        assert code == status, args
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, args


def test_algebra_reports_off_the_goldens_keep_their_bytes():
    # reports that reach MultiPoly, WeylElement and OscVector, theta0
    # through splie.ad_matrix, and matrices of polynomials through trace_pair
    # and the 2x2 minors, at sizes and seeds no golden covers
    pinned = {
        "verify weyl -n 2 --seed 5":
            "22c84631cae65ca677aa37c6d10689bde1f30319958ac2f31d079c7e82d51192",
        "verify dunkl -n 3 --seed 3":
            "ce235de788d1537e757e8f9e61b9bb064e68094ce0d4fa989f25d11da3602959",
        "verify relation -n 3 --seed 2":
            "67eadde8b533c575af80a6c693e15c8687863e183e3bdee2dcb2dc0a0258f40b",
        "radial -n 3": "a0ea786ffaf0295648c896be07762153c86bea0a40d15de4b97dd38c6a8ede8b",
        "verify equivariance -n 2 --seed 4":
            "2992aa61e192866d556eec63cee63d04f179cab6140ee76ba2f86f8423a93025",
        "verify theta0-hom -n 3":
            "0ee90a1fbf7d0541af9e778ed0738d1e2c1203c6c0d6ea53478df0896e4e760a",
        "verify theta0-hom -n 4":
            "df3c151673597d6de65676b12bb0271c7d996044c58968b9817ec6d73bc65da9",
        "verify relation -n 4 --seed 5":
            "486261063f35ae50e1c8b9d6fe264bbf512976a1251f63777ab6fb1632db8ac3",
        "verify dunkl -n 4 --seed 5 --trials 100":
            "c5ef27e6b3e32d024a041d95b493fb84c92b6fbc4f5370daee8c2fdafaeba479",
        "verify weyl -n 3 --seed 5":
            "bf5038cc71925c4e0f0de81d3099d952547cda1215ba17e5b12bcc2fa2ec2dd4",
        "verify minors -n 4":
            "b5f9c844fb54e16e991d2345f86c7bb88299701f6d114000c0d4d01c45c3d541",
        "verify weyl -n 4":
            "0eea1f8460ad4a9c09cc9af12a51f91dd91880a35491c2c61213687beb246c7d",
        "verify theta1-hom -n 3":
            "26bdb0ac4a55871ae509329e9ae54636d4f6fea92eb3f32c2e007ec7a7b3ae9e",
    }
    for args, digest in pinned.items():
        code, out, _ = run(args.split())
        assert code == 0, args
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, args
