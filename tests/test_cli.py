import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import nilwalk
from nilwalk import catalog
from nilwalk.cli import main, parse_algebra, parse_scalar, resolve_config
from nilwalk.lie_core import LieVector
from nilwalk.walk import golden_heisenberg_config, walk_config
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


def test_imports_build_no_bch_series():
    # the step-6 series takes a few ms to derive, so it waits for the
    # first product that needs it
    code = (
        "from nilwalk import bch\n"
        "def sizes(): return bch._bch_log.cache_info().currsize, "
        "bch._series_plan.cache_info().currsize, "
        "bch.bch_word_coefficients.cache_info().currsize\n"
        "import nilwalk; after_package = sizes()\n"
        "import nilwalk.cli; print(after_package, sizes())"
    )
    assert _fresh_python(code) == "(0, 0, 0) (0, 0, 0)"


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


def test_lazy_names_are_exported_by_their_modules():
    for module, names in nilwalk._LAZY_NAMES.items():
        exported = getattr(nilwalk, module).__all__
        assert [name for name in names if name not in exported] == [], module


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


def test_every_catalog_name_parses_bare_and_with_its_defaults():
    for name, (_, defaults) in catalog.CATALOG.items():
        expected = catalog.build(name)
        assert parse_algebra(name) == expected, name
        spelled = f"{name}:{','.join(map(str, defaults))}" if defaults else name
        assert parse_algebra(spelled) == expected, spelled
    assert parse_algebra("random_step3") == catalog.random_step3(2, 1, 1, 0)


@pytest.mark.parametrize(
    "ref, name",
    [("filiform:6,7", "filiform"), ("heisenberg:3", "heisenberg"), ("random_step3:2,1", "random_step3")],
)
def test_wrong_argument_count_is_usage_error(capsys, ref, name):
    code, out, err = run(capsys, "check", ref)
    assert code == 2 and out == ""
    assert err.startswith(f"error: wrong number of arguments for {name} ")


def _preset_args(preset, **given):
    opts = dict(preset=preset, algebra=None, generator=None, probs=None)
    return argparse.Namespace(**{**opts, **given})


def _same_walk(a, b):
    return (a.sc, a.generators, a.probs) == (b.sc, b.generators, b.probs)


def test_presets_build_their_configs():
    golden = golden_heisenberg_config()
    assert _same_walk(resolve_config(_preset_args("golden-heisenberg")), golden)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    half = [Fraction(1, 2)] * 2
    circles = {
        "circle-golden": [LieVector.zero(1), LieVector([Fraction(phi)])],
        "circle-quarters": [LieVector([Fraction(1, 4)]), LieVector([Fraction(3, 4)])],
    }
    for preset, gens in circles.items():
        expected = walk_config(catalog.abelian(1), gens, half)
        assert _same_walk(resolve_config(_preset_args(preset)), expected), preset
    # a preset ignores the explicit walk options
    ignored = _preset_args(
        "golden-heisenberg", algebra="abelian:1", generator=["1/3"], probs="1"
    )
    assert _same_walk(resolve_config(ignored), golden)


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


def test_pencil_level_out_of_range(capsys):
    # level 0 has no bracket, so it has no pencil to print
    for p in ("0", "2"):
        code, out, err = run(capsys, "pencil", "heisenberg", "-m", "2", "-p", p)
        assert code == 2 and out == ""
        assert f"level {p} out of range 1..step-1 for step 2" in err


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


def test_provenance_records_every_parameter(capsys, tmp_path):
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
    _, out, _ = run(capsys, "clt", "--preset", "circle-quarters", "--character", "1",
                    "-N", "8", "--trials", "100", "--seed", "3")
    assert json.loads(out)["provenance"]["trials"] == 100


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
    # triangular(5)'s level 1 has d = 4: the default q_max = 26 box is scanned
    code, out, _ = run(capsys, "words", "triangular:5", "-p", "1", "--budget", "8")
    assert code == 0 and json.loads(out)["q_max"] == 26
    code, _, err = run(capsys, "words", "heisenberg", "-p", "1", "--generator", "1,0")
    assert code == 2 and "needs 3 coordinates: '1,0'" in err
    code, _, err = run(capsys, "words", "heisenberg", "-p", "1", "--tau", "nan")
    assert code == 2 and "finite input" in err
    # a search whose candidates are all zero scans nothing, and still
    # refuses a bad q_max or tau before its first candidate
    for alg, p, opt, value, message in (
        ("example_5_6", "3", "--qmax", "0", "q_max must be positive"),
        ("heisenberg", "1", "--qmax", "0", "q_max must be positive"),
        ("example_5_6", "3", "--tau", "nan", "finite input: tau=nan"),
        ("heisenberg", "1", "--qmax", "100000000", "Diophantine scan too large"),
    ):
        code, out, err = run(capsys, "words", alg, "-p", p, "--budget", "5", opt, value)
        assert code == 2 and out == "" and message in err
    # a d = 2 level without --qmax scans the default q_max = 100 box
    code, out, _ = run(capsys, "words", "triangular:3", "-p", "1")
    assert code == 0 and json.loads(out)["q_max"] == 100
    # a pair search needs a level 1..step-1, and the message names both
    for alg, p, step in (("abelian:3", "1", 1), ("heisenberg", "0", 2), ("heisenberg", "2", 2)):
        code, out, err = run(capsys, "words", alg, "-p", p)
        assert code == 2 and out == ""
        assert err == f"error: level {p} out of range 1..step-1 for step {step}\n"
    # filiform(8) has step 7, one more than the BCH series is built for
    code, out, err = run(capsys, "words", "filiform:8", "-p", "6")
    assert code == 2 and out == ""
    assert err == "error: BCH series built up to step 6; this algebra has step 7\n"


def test_gap_min_gap_gate(capsys):
    code, out, _ = run(capsys, "gap", "--preset", "golden-heisenberg", "--radius", "3")
    doc = json.loads(out)
    assert code == 0 and doc["resonant_count"] == 0 and len(doc["entries"]) == 48
    code, _, _ = run(
        capsys, "gap", "--preset", "golden-heisenberg", "--radius", "3",
        "--min-gap", "0.9",
    )
    assert code == 1  # the lazy walk never has gaps that large


def test_clt_on_a_resonant_character_is_usage_error(capsys):
    # 2 * 1/4 and 2 * 3/4 are both 1/2 mod 1: the character never mixes
    code, out, err = run(
        capsys, "clt", "--preset", "circle-quarters", "--character", "2", "--trials", "200",
    )
    assert code == 2 and out == "" and "resonant" in err


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


def test_correlate_decides_characters_exactly(capsys):
    # a central frequency is no walk observable: exit 2, naming where it reads
    code, out, err = run(
        capsys, "correlate", "--preset", "golden-heisenberg", "--character", "0,0,1",
    )
    error = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2 and out == "" and len(error) == 1
    assert "level 1" in error[0] and "X3" in error[0]
    # a large level-0 frequency is exactly invariant, however far its
    # float values sit from a sampled tolerance
    code, out, _ = run(
        capsys, "correlate", "--preset", "golden-heisenberg", "--character", "1000000,0",
        "--times", "4,16", "--samples", "4000", "--check", "6",
    )
    assert code == 0 and len(out.splitlines()) == 4


def test_workers_variable_is_ignored(capsys, monkeypatch):
    # no environment variable selects how the chunks run
    args = ("correlate", "--preset", "circle-golden", "--character", "1",
            "--times", "2", "--samples", "100")
    monkeypatch.delenv("NILWALK_WORKERS", raising=False)
    want = run(capsys, *args)
    monkeypatch.setenv("NILWALK_WORKERS", "abc")
    assert want[0] == 0 and run(capsys, *args)[:2] == want[:2]


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


@pytest.mark.parametrize(
    "argv, name",
    [
        (["correlate", "--preset", "circle-golden", "--character", "1", "--times", "2", "--samples", "0"], "samples"),
        (["correlate", "--preset", "circle-golden", "--character", "1", "--times", "2", "--samples", "-3"], "samples"),
        (["clt", "--preset", "circle-quarters", "--character", "1", "-N", "0", "--trials", "200"], "N"),
        (["clt", "--preset", "circle-quarters", "--character", "1", "-N", "-2", "--trials", "200"], "N"),
        (["gap", "--preset", "golden-heisenberg", "--radius", "0"], "radius"),
        (["certify", "heisenberg", "-m", "2", "--budget", "-1"], "budget"),
        (["words", "heisenberg", "-p", "1", "--budget", "0"], "budget"),
        (["lemma-a1", "--grid", "0"], "grid"),
        (["words", "heisenberg", "-p", "1", "-m", "0"], "m"),
        (["words", "heisenberg", "-p", "1", "-m", "-3"], "m"),
    ],
)
def test_bad_sizes_and_budgets_are_usage_errors(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and f"error: {name} must be at least" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["gap", "--algebra", "abelian:4", "--generator", "0.1,0.2,0.3,0.4"], "radius"),
        (["gap", "--preset", "golden-heisenberg", "--radius", "300"], "radius"),
        (["lemma-a1", "--grid", "16777217"], "grid"),
    ],
)
def test_oversized_inputs_are_usage_errors(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith(f"error: {name} ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["gap", "--preset", "golden-heisenberg", "--radius", "2"], "--min-gap"),
        (["clt", "--preset", "circle-quarters", "--character", "1", "-N", "8",
          "--trials", "100"], "--max-ks"),
        (["correlate", "--preset", "circle-golden", "--character", "1",
          "--times", "2", "--samples", "10"], "--check"),
    ],
    ids=["gap", "clt", "correlate"],
)
def test_non_finite_thresholds_are_usage_errors(capsys, monkeypatch, argv, option, value):
    # every comparison with nan is false, so such a check could never fail
    def no_work(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(nilwalk.cli, "resolve_config", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"{option}={value}"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"argument {option}: must be a finite number, got '{value}'" in out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["correlate", "--algebra", "heisenberg", "--generator", "1e400,0,0",
          "--generator", "0,1,0", "--character", "1,0", "--times", "4",
          "--samples", "10"], "generator 1 "),
        (["clt", "--algebra", "heisenberg", "--generator", "1e400,phi,0",
          "--generator", "0,0,0", "--character", "0,1", "-N", "4",
          "--trials", "100"], "generator 1 "),
        (["words", "heisenberg", "-p", "1", "--generator", "1e400,0,0",
          "--generator", "0,1,0"], "a level-1 displacement "),
    ],
    ids=["correlate", "clt", "words"],
)
def test_coordinate_too_large_for_a_float_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and "too large for a float" in err


def test_walk_on_an_open_lattice_is_refused(capsys):
    # example_3_2's integer points are not closed: x_1 x_0 has t_3 = -1/2
    code, out, err = run(
        capsys, "correlate", "--algebra", "example_3_2", "--generator", "0,0,0,0,0",
        "--character", "1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: product of ") and "is not integral" in err


def test_gap_takes_a_coordinate_too_large_for_a_float(capsys):
    # gap works on exact phases: 10^400 X1 is an integer translation
    code, out, _ = run(
        capsys, "gap", "--algebra", "heisenberg", "--generator", "1e400,0,0",
        "--generator", "0,1,0", "--radius", "1",
    )
    assert code == 0 and json.loads(out)["resonant_count"] == 8


def test_more_letters_than_basis_vectors_is_usage_error(capsys):
    # heisenberg has three basis vectors, so a fourth letter has none
    code, out, err = run(capsys, "words", "heisenberg", "-p", "1", "-m", "4")
    assert code == 2 and out == "" and "error: basis index 3 is outside 0..2" in err


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
    # the plain message, not the repr that str(KeyError) gives
    assert err.startswith("error: unknown algebra 'borel'; catalog: ")


def test_missing_config_is_usage_error(capsys):
    code, _, err = run(capsys, "gap", "--radius", "2")
    assert code == 2 and "preset" in err


def _heisenberg_json(dim=3, **out):
    entry = {"k": 3, "num": 1, "den": 1, **out}
    return {"dim": dim, "brackets": [{"i": 1, "j": 2, "out": [entry]}]}


@pytest.mark.parametrize(
    "doc, argv",
    [
        (_heisenberg_json(den=0), ["check"]),
        (_heisenberg_json(num=1.5), ["check"]),
        (_heisenberg_json(dim="3"), ["check"]),
        ([_heisenberg_json()], ["check"]),
        ({**_heisenberg_json(), "names": "abc"}, ["check"]),
        (None, ["gap", "--algebra", "heisenberg", "--generator", "1/0,0,0"]),
        (None, ["gap", "--algebra", "heisenberg", "--generator", "1,0,0", "--probs", "1/0"]),
        (None, ["gap", "--algebra", "heisenberg", "--generator", "inf,0,0"]),
    ],
    ids=["den-0", "num-float", "dim-string", "list", "names-string", "generator-1/0",
         "probs-1/0", "generator-inf"],
)
def test_malformed_exact_input_is_usage_error(capsys, tmp_path, doc, argv):
    if doc is not None:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"dim": 2, "brackets": 5}, "brackets must be a list"),
        ({"dim": 2, "brackets": [1]}, "brackets[0] must be a JSON object"),
        ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": 5}]}, "brackets[0].out must be a list"),
        ({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": [7]}]},
         "brackets[0].out[0] must be a JSON object"),
        ({"brackets": []}, "missing the field 'dim'"),
        ({"dim": 2, "brackets": [{"i": 1, "j": 2}]}, "missing the field 'out'"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "num": 1}]},
                                 {"i": 2, "j": 1, "out": [{"k": 3, "num": 1}]}]},
         "[X1, X2] is given in both orders"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "num": 1},
                                                          {"k": 3, "num": 2}]}]},
         "duplicate output index 3 in bracket (1, 2)"),
    ],
    ids=["brackets-int", "entry-int", "out-int", "out-entry-int", "no-dim", "no-out",
         "pair-both-orders", "output-twice"],
)
def test_malformed_algebra_json_names_the_field(tmp_path, doc, field):
    # run as a program, so that a traceback on stderr would show
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(nilwalk.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "nilwalk.cli", "check", str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and field in proc.stderr
    assert "Traceback" not in proc.stderr


# -- output bytes -----------------------------------------------------------------

# SHA-256 of the stdout of each invocation, and its exit code.  A change
# to how documents are assembled or serialized must leave these bytes
# alone; a change that means to alter a document updates its line here.
STDOUT_SHA256 = [
    (["check", "heisenberg"], 0,
     "1b822b270e5a42c629ebecb62f40a105e88b9049eb008f4ea400d6fdda164195"),
    (["pencil", "heisenberg", "-m", "2", "-p", "1"], 0,
     "c280679a3c6fa1913c1cf53247d07ec85c4d6daf3141c80852e7d0bfb5e0b170"),
    (["pencil", "heisenberg", "-m", "2", "-p", "1", "--k", "1,0;0,1"], 0,
     "e6fd6d0dad6fb15d676f1e81725cc14820952fc95c9eaed7812e75e6ed31ef3e"),
    (["certify", "heisenberg", "-m", "2", "--verify"], 0,
     "04639e99356ef8e38b6ef8d4dcd1539f9d006c9318bd156a4666ee4e87bb033d"),
    (["certify", "example_5_6", "-m", "2", "--budget", "30"], 1,
     "32bb62fe9f0a332dca36a4af3e868b42401db941c42611512f34477b84a1b1c5"),
    (["counterexample", "--budget", "12", "--words-budget", "20"], 0,
     "0071be43ef376806c0db7c4d40d2f731f97bb3b52cc7921d48901400807d7516"),
    (["words", "heisenberg", "-p", "1", "--generator", "sqrt2,0,0",
      "--generator", "0,sqrt3,0", "--qmax", "40"], 0,
     "f9a2b449ab6443bb4fec0caf90a7aa603e713a5c469a3842eee831d8f391cdac"),
    (["words", "example_5_6", "-p", "3", "--budget", "25", "--qmax", "5"], 1,
     "a1fe734021c63bd33ceb23a33dc855e236299583be73e3111a3804c6ae4a384c"),
    (["gap", "--preset", "golden-heisenberg", "--radius", "3"], 0,
     "9597bd4413dfb2d2fa90e368d03171d5da65420d23e5740cef81221e016fcfae"),
    (["gap", "--algebra", "heisenberg", "--generator", "1/2,0,0",
      "--generator", "0,phi,0", "--probs", "1/3,2/3", "--radius", "2"], 0,
     "43b15cff42cd50836bd024c3ca035b1c0385c0cebebd90d0fe60ec83bc696b78"),
    (["clt", "--preset", "circle-quarters", "--character", "1", "-N", "128",
      "--trials", "400", "--seed", "2", "--max-ks", "0.2"], 0,
     "1f74e2060cebda9942e98782f3391c4f92c58b61b7db466a80dc45ad4081822e"),
    (["lemma-a1", "--grid", "10001"], 0,
     "1e41563297982a5be871d38be3f524c6436c0d8db190a38f9026e691760e64e7"),
    (["correlate", "--preset", "circle-golden", "--character", "1",
      "--times", "2,8", "--samples", "1000", "--seed", "1"], 0,
     "0b6ce56f679412ece395291459344eddf3da3bf2848c98e308e68b41be33b021"),
    # gamma_hat's last digits depend on the order that sums n.v
    (["words", "triangular:3", "-p", "1", "--generator", "phi,sigma,0,0,0,0",
      "--generator", "sigma,sqrt2,phi,0,0,0", "--budget", "30"], 0,
     "16da789fdd8054993e222b283744548d7c3368e2673b7c3a5bf3ebdb886ee777"),
    # a two-coordinate phase lam.t, which a BLAS product rounds by kernel
    (["correlate", "--algebra", "heisenberg", "--generator", "phi,sigma,0",
      "--generator", "sigma,sqrt2,0", "--character", "3,3", "--times", "4,16",
      "--samples", "1000", "--seed", "1"], 0,
     "1ddf41cd53893b63976a98649ffc59189e558902251cebf0494d6a4f7d12f79e"),
    # a d = 3 level scanned over the default q_max = 100 box, 201^3 points
    (["words", "triangular:4", "-p", "1", "--generator", "phi,sigma,sqrt2,sqrt3,0,0,0,0,0,0",
      "--generator", "sigma,sqrt2,phi,1/3,0,0,0,0,0,0", "--budget", "12"], 0,
     "ec341fb3292160463ad8759a3001fbb7e90abf7c4c04beabda90707656c82f95"),
    # Re(w v) on a w with Re w != 1 and Im w != 0, where a fused complex
    # product would round once and move the last bit with the SIMD dispatch
    (["clt", "--algebra", "heisenberg", "--generator", "1/2,0,0", "--generator", "0,phi,0",
      "--probs", "1/3,2/3", "--character", "1,1", "-N", "256", "--trials", "400",
      "--seed", "2"], 0,
     "63f1d02e7b00933662a289b4373c7cb61cb6205a6b822151f24a231f2087455d"),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest",
    STDOUT_SHA256,
    ids=[f"{i:02d}-{argv[0]}" for i, (argv, _, _) in enumerate(STDOUT_SHA256)],
)
def test_stdout_bytes_are_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _affine_json():
    """The non-nilpotent affine algebra [e1, e2] = e2."""
    return {"dim": 2, "brackets": [{"i": 1, "j": 2, "out": [{"k": 2, "num": 1, "den": 1}]}]}


def _reject_constant(name):
    # strict JSON has no NaN, Infinity or -Infinity
    raise ValueError(f"{name} in a JSON document")


@pytest.mark.parametrize(
    "argv",
    [argv for argv, _, _ in STDOUT_SHA256 if argv[0] != "correlate"] + [["check"]],
    ids=lambda argv: argv[0],
)
def test_every_json_document_carries_provenance(capsys, tmp_path, argv):
    if argv == ["check"]:
        path = tmp_path / "affine.json"
        path.write_text(json.dumps(_affine_json()))
        argv = argv + [str(path)]
    _, out, _ = run(capsys, *argv)
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["provenance"]["command"] == argv[0]
    if argv[0] == "check" and not doc["ok"]:
        assert doc["error"] == "series stabilized at dimension 1"
