import json
import os
import subprocess
import sys

import pytest

import nilwalk
from nilwalk.cli import main, parse_algebra, parse_scalar
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- imports -------------------------------------------------------------------


def _fresh_python(code):
    src = os.path.dirname(os.path.dirname(nilwalk.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_exact_commands_leave_numpy_unloaded():
    # numpy is most of the import time of nilwalk.cli, and check, pencil
    # and certify never touch a float
    code = (
        "import sys; from nilwalk import cli\n"
        "codes = [cli.main(a) for a in (['certify', 'heisenberg', '-m', '2'],"
        " ['pencil', 'heisenberg', '-m', '2', '-p', '1', '--k', '1,0;0,1'],"
        " ['check', 'heisenberg'])]\n"
        "print(codes, 'numpy' in sys.modules)"
    )
    assert _fresh_python(code) == "[0, 0, 0] False"


def test_numpy_backed_names_resolve_on_first_use():
    code = (
        "import sys, nilwalk\n"
        "names = ('coords', 'walk', 'stats', 'words')\n"
        "before = all(f'nilwalk.{n}' in sys.modules for n in names), 'numpy' in sys.modules\n"
        "same = nilwalk.SecondKindSystem is nilwalk.coords.SecondKindSystem\n"
        "print(before, same, 'numpy' in sys.modules, 'nice_pair_search' in dir(nilwalk))"
    )
    assert _fresh_python(code) == "(True, False) True True True"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nilwalk.no_such_name


# -- argument plumbing ---------------------------------------------------------


def test_parse_scalar_forms():
    assert parse_scalar("1/3") == Fraction(1, 3)
    assert parse_scalar("0.25") == Fraction(1, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert float(parse_scalar("phi")) == pytest.approx(0.6180339887498949)
    assert float(parse_scalar("sqrt2")) == pytest.approx(1.4142135623730951)


def test_parse_algebra_specs(tmp_path):
    assert parse_algebra("heisenberg").dim == 3
    assert parse_algebra("filiform:6").dim == 6
    assert parse_algebra("quasi_abelian:3,2").dim == 6
    assert parse_algebra("random_step3:2,1,2,7").dims == (2, 1, 2)
    with pytest.raises(KeyError):
        parse_algebra("borel")
    # a saved file round trips through the same entry point
    from nilwalk.lie_core import save_algebra
    from nilwalk import catalog

    path = tmp_path / "alg.json"
    save_algebra(catalog.example_3_2(), path)
    assert parse_algebra(str(path)).dims == (2, 1, 2)


# -- subcommands ------------------------------------------------------------------


def test_check_reports_structure(capsys):
    code, out, _ = run(capsys, "check", "heisenberg")
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] and doc["step"] == 2 and doc["level_dims"] == [2, 1]
    assert doc["provenance"]["version"]


def test_pencil_with_evaluation(capsys):
    code, out, _ = run(capsys, "pencil", "heisenberg", "-m", "2", "-p", "1", "--k", "1,0;0,1")
    doc = json.loads(out)
    assert code == 0
    assert not doc["identically_zero"]
    assert doc["at_k"]["independent"]
    assert doc["at_k"]["coordinates"] == ["a1_1*a2_2 - a1_2*a2_1"]


def test_pencil_bad_k_shape(capsys):
    code, _, err = run(capsys, "pencil", "heisenberg", "-m", "2", "-p", "1", "--k", "1,0")
    assert code == 2
    assert "rows" in err


def test_certify_exit_codes(capsys):
    code, out, _ = run(capsys, "certify", "heisenberg", "-m", "2")
    assert code == 0 and json.loads(out)["verdict"] == "great"
    code, out, _ = run(capsys, "certify", "example_5_6", "-m", "2", "--budget", "30")
    assert code == 1 and json.loads(out)["verdict"] == "degenerate"


def test_certify_stdout_is_byte_identical(capsys):
    first = run(capsys, "certify", "heisenberg", "-m", "2")
    second = run(capsys, "certify", "heisenberg", "-m", "2")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert "elapsed_seconds" not in first[1] and "elapsed_seconds" in first[2]


def test_provenance_records_every_parameter(capsys, monkeypatch, tmp_path):
    out_file = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "certify", "heisenberg", "-m", "2", "--budget", "30", "--verify",
        "--json", str(out_file),
    )
    prov = json.loads(out_file.read_text())["provenance"]
    assert code == 0
    assert prov["command"] == "certify" and prov["algebra"] == "heisenberg"
    assert prov["m"] == 2 and prov["budget"] == 30 and prov["verify"] is True
    assert prov["seed"] == 0 and len(prov["algebra_sha256"]) == 64
    assert not {"func", "cmd", "json", "csv"} & set(prov)
    # the worker count is not a parameter of the output
    args = ("clt", "--preset", "circle-quarters", "--character", "1",
            "-N", "8", "--trials", "100", "--seed", "3")
    _, one, _ = run(capsys, *args)
    monkeypatch.setenv("NILWALK_WORKERS", "2")
    _, two, _ = run(capsys, *args)
    assert one == two and json.loads(one)["provenance"]["trials"] == 100


def test_words_exit_codes(capsys):
    code, out, _ = run(
        capsys, "words", "heisenberg", "-p", "1",
        "--generator", "sqrt2,0,0", "--generator", "0,sqrt3,0", "--qmax", "40",
    )
    doc = json.loads(out)
    assert code == 0 and doc["found"] and doc["gamma_hat"] > 0
    code, out, _ = run(
        capsys, "words", "example_5_6", "-p", "3", "--budget", "25", "--qmax", "5"
    )
    doc = json.loads(out)
    assert code == 1 and not doc["found"] and doc["zero_candidates"] == 25
    # level 2 has d = 8: the default q_max = 100 scan is refused, not run
    code, _, err = run(capsys, "words", "example_5_6", "-p", "2")
    assert code == 2 and "d=8, q_max=100" in err
    code, _, err = run(capsys, "words", "heisenberg", "-p", "1", "--generator", "1,0")
    assert code == 2 and "needs 3 coordinates: '1,0'" in err
    code, _, err = run(capsys, "words", "heisenberg", "-p", "1", "--tau", "nan")
    assert code == 2 and "finite input" in err
    # a d = 2 level without --qmax scans the default q_max = 100 box
    code, out, _ = run(capsys, "words", "triangular:3", "-p", "1")
    assert code == 0 and json.loads(out)["q_max"] == 100


def test_gap_min_gap_gate(capsys):
    code, out, _ = run(capsys, "gap", "--preset", "golden-heisenberg", "--radius", "3")
    doc = json.loads(out)
    assert code == 0 and doc["resonant_count"] == 0 and len(doc["entries"]) == 48
    code, _, _ = run(
        capsys, "gap", "--preset", "golden-heisenberg", "--radius", "3",
        "--min-gap", "0.9",
    )
    assert code == 1  # the lazy walk never has gaps that large


def test_correlate_csv_contract(capsys, tmp_path):
    out_file = tmp_path / "corr.csv"
    code, _, _ = run(
        capsys, "correlate", "--preset", "circle-golden", "--character", "1",
        "--times", "2,8", "--samples", "4000", "--seed", "5",
        "--csv", str(out_file), "--check", "4.0",
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("# nilwalk v")
    assert "seed=5" in lines[0] and "algebra=sha256:" in lines[0]
    assert lines[1] == "N,estimate_re,estimate_im,stderr,samples"
    rows = [l.split(",") for l in lines[2:]]
    assert [r[0] for r in rows] == ["2", "8"]
    assert all(len(r) == 5 and int(r[4]) == 4000 for r in rows)


def test_correlate_header_records_the_walk(capsys):
    # circle-golden and circle-quarters share abelian(1) and its digest
    headers = {}
    for preset in ("circle-golden", "circle-quarters"):
        _, out, _ = run(
            capsys, "correlate", "--preset", preset, "--character", "1",
            "--times", "2", "--samples", "50", "--seed", "5",
        )
        headers[preset] = out.splitlines()[0]
    golden, quarters = headers["circle-golden"], headers["circle-quarters"]
    assert golden != quarters
    assert 'preset="circle-golden"' in golden and 'times="2"' in golden


def test_bad_worker_count_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NILWALK_WORKERS", "abc")
    code, out, err = run(
        capsys, "correlate", "--preset", "circle-golden", "--character", "1",
        "--times", "2", "--samples", "100",
    )
    assert code == 2 and out == "" and "NILWALK_WORKERS" in err


def test_correlate_deterministic_bytes(capsys, tmp_path):
    args = (
        "correlate", "--preset", "circle-golden", "--character", "1",
        "--times", "4", "--samples", "2000", "--seed", "1",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_clt_gate(capsys):
    code, out, _ = run(
        capsys, "clt", "--preset", "circle-quarters", "--character", "1",
        "-N", "128", "--trials", "400", "--seed", "2", "--max-ks", "0.2",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["ks_statistic"] < 0.2
    code, _, _ = run(
        capsys, "clt", "--preset", "circle-quarters", "--character", "1",
        "-N", "128", "--trials", "400", "--seed", "2", "--max-ks", "1e-9",
    )
    assert code == 1


def test_clt_too_few_trials_is_usage_error(capsys):
    code, _, err = run(
        capsys, "clt", "--preset", "circle-quarters", "--character", "1",
        "-N", "16", "--trials", "10", "--seed", "0",
    )
    assert code == 2 and "trials" in err


def test_lemma_subcommand(capsys):
    code, out, _ = run(capsys, "lemma-a1", "--grid", "10001")
    doc = json.loads(out)
    assert code == 0 and doc["ok"]


def test_counterexample_smoke(capsys):
    # tiny budgets: still confirms, since the witnesses come from the
    # structured candidates and the symbolic proof needs no sampling
    code, out, _ = run(
        capsys, "counterexample", "--budget", "12", "--words-budget", "20"
    )
    doc = json.loads(out)
    assert code == 0 and doc["confirmed"]
    assert doc["m2"]["verdict"] == "degenerate"
    assert doc["m4"]["verdict"] == "great"
    assert not doc["word_search"]["found"]


def test_unknown_algebra_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "borel")
    assert code == 2 and "catalog" in err


def test_missing_config_is_usage_error(capsys):
    code, _, err = run(capsys, "gap", "--radius", "2")
    assert code == 2 and "preset" in err
