import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hwfib import cli
from hwfib.cli import main
from hwfib.epimorphism import symbolic_sequence, verify_main_theorem
from hwfib.hwgroup import (
    build_candidate,
    candidate_count,
    candidate_from_index,
    candidate_to_json_dict,
    classify,
    classify_index,
    cyclic_hw,
    enumerate_candidates,
)

from _oracles import conjugate_diagonal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_candidate(tmp_path, candidate, name="candidate.json"):
    path = tmp_path / name
    path.write_text(json.dumps(candidate_to_json_dict(candidate)))
    return str(path)


def test_verify_cyclic3_passes(tmp_path, capsys):
    path = write_candidate(tmp_path, cyclic_hw(3))
    code, out, _ = run_cli(capsys, "verify", "--input", path)
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_json_report_shape(tmp_path, capsys):
    path = write_candidate(tmp_path, cyclic_hw(3))
    code, out, _ = run_cli(capsys, "verify", "--input", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["surjective"] is True
    assert report["relators"][0] == {"index": 0, "trivial": True}
    assert report["candidate"]["dim"] == 3


def test_verify_zero_translation_fails_with_torsion_note(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 3, "translations": [["0", "0", "0"], ["0", "0", "0"]]}))
    code, out, _ = run_cli(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "not torsion-free" in out


def test_verify_even_dimension_usage_error(tmp_path, capsys):
    path = tmp_path / "even.json"
    path.write_text(
        json.dumps({"dim": 4, "translations": [["0"] * 4, ["0"] * 4, ["0"] * 4]})
    )
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2
    assert "odd" in err


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2
    assert "cannot load" in err


def test_verify_non_half_integer(tmp_path, capsys):
    path = tmp_path / "third.json"
    path.write_text(
        json.dumps({"dim": 3, "translations": [["1/3", "0", "0"], ["0", "0", "0"]]})
    )
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "show"])
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "zero_denominator.json"
    path.write_text(
        json.dumps({"dim": 3, "translations": [["1/0", "1/2", "0"], ["0", "1/2", "1/2"]]})
    )
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 2
    assert "malformed candidate description" in err
    assert out == ""


def test_importing_the_cli_leaves_multiprocessing_out():
    # only survey --jobs N > 1 needs it, and the import costs every start
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", "import sys, hwfib.cli; sys.exit('multiprocessing' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr or "hwfib.cli imported multiprocessing"


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    # importing dataclasses loads inspect, ast, dis and tokenize: about 16 ms
    # of every start, for nothing the arithmetic needs
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import hwfib.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", f"hwfib.cli imported {result.stdout.strip()}"


def test_survey_dim3_full(capsys):
    code, out, _ = run_cli(capsys, "survey", "--dim", "3", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    summary = records[-1]
    assert summary.get("summary") is True
    body = records[:-1]
    assert len(body) == 64
    assert summary["hantzsche_wendt"] == sum(r["hw"] for r in body)
    assert summary["verified_fail"] == 0
    for r in body:
        if r["hw"]:
            assert r["verdict"] == "pass"
        else:
            assert r["verdict"] is None


def test_survey_sample_deterministic(capsys):
    args = ["survey", "--dim", "5", "--sample", "40", "--seed", "42", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 41  # 40 records + summary
    _, out3, _ = run_cli(capsys, "survey", "--dim", "5", "--sample", "40", "--seed", "1", "--format", "json")
    assert out3 != out1


def test_survey_sample_follows_enumerate_candidates(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--dim", "5", "--sample", "200", "--seed", "7", "--format", "json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    expected = [candidate_to_json_dict(c) for c in enumerate_candidates(5, sample=200, seed=7)]
    assert [{"dim": r["dim"], "translations": r["translations"]} for r in records] == expected


def _record_from_candidate(n, idx):
    # the survey record built through an HWCandidate, with the index bits
    # decoded to Fractions here rather than by hwgroup
    c = build_candidate(n, [
        [Fraction(1, 2) if idx >> (i * n + j) & 1 else 0 for j in range(n)]
        for i in range(n - 1)
    ])
    assert c == candidate_from_index(n, idx)
    cl = classify(c)
    return {
        "index": idx,
        "dim": n,
        "translations": candidate_to_json_dict(c)["translations"],
        "crystallographic": cl.crystallographic,
        "torsion_free": cl.torsion_free,
        "hw": cl.hantzsche_wendt,
        "verdict": verify_main_theorem(c).verdict if cl.hantzsche_wendt else None,
    }


def _seeded_indices(n, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(candidate_count(n)) for _ in range(count)]


@pytest.mark.parametrize("n, indices", [
    (3, range(64)),
    (5, _seeded_indices(5, 2000, seed=51)),
    (7, _seeded_indices(7, 200, seed=52)),
])
def test_survey_record_from_index_matches_candidate_path(n, indices):
    counts = {"crystallographic": 0, "hw": 0}
    for idx in indices:
        expected = _record_from_candidate(n, idx)
        assert cli._survey_record(n, idx) == expected, idx
        units, cl = classify_index(n, idx)
        assert cl == classify(candidate_from_index(n, idx))
        assert units == tuple(
            tuple(int(2 * t) for t in vec) for vec in candidate_from_index(n, idx).translations
        )
        for key in counts:
            counts[key] += expected[key]
    assert counts["crystallographic"] > 0
    # the verification branch ran; at n=7, HW candidates are too rare for 200 draws
    assert counts["hw"] > 0 or n == 7


@pytest.mark.parametrize("n, idx", [(3, 64), (3, -1), (5, candidate_count(5)), (4, 0), (1, 0)])
def test_index_path_rejects_what_candidate_from_index_rejects(n, idx):
    for fn in (candidate_from_index, classify_index, cli._survey_record):
        with pytest.raises(ValueError):
            fn(n, idx)


# argv items standing for files holding a candidate
CYCLIC13 = "cyclic13.json"
SCALED9 = "scaled9.json"
NONCRYST5 = "noncryst5.json"
Q = Fraction(1, 4)
CANDIDATE_FILES = {
    CYCLIC13: lambda: cyclic_hw(13),
    # cyclic n=9 conjugated by x -> diag(scale) x + shift, with shift in Z/4
    # and odd scales, so that its entries include 3/2 and -5/2
    SCALED9: lambda: conjugate_diagonal(
        cyclic_hw(9), (3, 1, 5, 1, 7, 3, 1, 5, 3), (Q, -3 * Q, 2 * Q, 0, -5 * Q, -Q, 3 * Q, 1, -2 * Q)
    ),
    # every generator moves the last coordinate by 3/2, so no square or
    # commutator moves it and the translation lattice has rank 4
    NONCRYST5: lambda: build_candidate(5, [
        ("3/2", -1, "5/2", 2, "3/2"),
        ("1/2", "5/2", "-3/2", 1, "3/2"),
        (-1, 0, "7/2", "1/2", "3/2"),
        (2, "-5/2", 1, "9/2", "3/2"),
    ]),
}

# sha256 of stdout keyed by argv, without any "runtime:" line.  The survey
# entries were recorded from the Fraction-based survey (each candidate built
# as an HWCandidate, classified and written with format_rational); the
# others from the code that kept a separate E(1) isometry type for the
# symbolic sequence and copied the product recursion three times.
STDOUT_SHA256 = {
    ("survey", "--dim", "3", "--format", "json"):
        "750e5b16ad77db6381d57b610c7f2a531646e3ebc1bd1b22a984a548cb9b1e58",
    ("survey", "--dim", "3"):
        "5cae40a42cca06c71409e7b6337fb1d280ad7443faae160941a10cab8fa41212",
    ("survey", "--dim", "5", "--sample", "2000", "--seed", "42", "--format", "json"):
        "fb6b63fbe8569264763845a543e5d37b7a1fd65a43d0f9c3a597a1eb2b283451",
    ("survey", "--dim", "5", "--sample", "200", "--seed", "7"):
        "3365b9e3da0b0cbbec294e9b1ddff030170f0097be747f441a64dee768a0600f",
    # workers receive the record function by pickle and send the records
    # back; recorded from the code whose value types were frozen dataclasses
    ("survey", "--dim", "5", "--sample", "300", "--seed", "5", "--jobs", "2", "--format", "json"):
        "47221a3d8657227e00d10d5b71cd0bc01ba26cd4841576009e721d01f488229f",
    # this entry and the SCALED9 and NONCRYST5 ones were recorded from the
    # list-based lattice and torsion kernel (vectors of half units per
    # normal generator, walk on per-coordinate remainders)
    ("survey", "--dim", "7", "--sample", "300", "--seed", "3", "--format", "json"):
        "18893d93c29fec8751391692187b17fe1a0197ea38d0d88ce7faf4fd34b84fdb",
    ("symbolic", "--dim", "13", "--format", "json"):
        "0c11c6e07ce371e460abf1f2afda4f904e12f6f66aba3d78b3dff12c3705262b",
    ("symbolic", "--dim", "7", "--k", "3"):
        "297f5f8d0fa58f4b477bb8093b58501736e38c41ed65308a4d898ffcd8cfb384",
    # the benchmark input
    ("symbolic", "--dim", "21", "--format", "json"):
        "0e3271b20791123c1e3d51830e488d0c47a07d662ad9fc560ff57d7e738dc9d4",
    # k = n-1: no seed has sign +1
    ("symbolic", "--dim", "3", "--k", "2"):
        "a9d439a74f9327bddd52bb31058c4d15da8930f0fbbbf009058bd51c0b56c5e7",
    ("symbolic", "--dim", "13", "--k", "6"):
        "5281549f5398620ef770a25f51834034da20a78cf0df1bda4294e2cc2b7bd155",
    ("verify", "--input", CYCLIC13, "--format", "json"):
        "b7463b682632d97ec12782a0c7091803e164c626932d67c51f2d37c1c871ace8",
    ("verify", "--input", CYCLIC13):
        "fe0c09cd77dae7b83420f44041c753842ff55de5c986d6eff16502adab4b4f03",
    ("verify", "--input", SCALED9, "--format", "json"):
        "f8ca6448aa1af26784e8d6e29682787d0a8208410ab91e89dd5b39577c997a13",
    ("verify", "--input", NONCRYST5, "--format", "json"):
        "1f5ddd251c14943a51f60ccc8d17e02f884eab398da0bb84710da09b40f3b9e6",
    ("show", "--dim", "7", "--format", "json"):
        "6abd804acd09fe6a9f117d585fb1f479bcdcdc439117afa06663c56535b52ef0",
    # these three were recorded from the code that built the translation
    # lattice by the general Hermite normal form; NONCRYST5 has rank 4, so
    # a coordinate with m_j = 0 is covered
    ("show", "--input", SCALED9, "--format", "json"):
        "845a98684ef836e866490354c7cff9225fe975025d080e58d5cd63b43ec40af0",
    ("show", "--input", NONCRYST5, "--format", "json"):
        "d4438d5d7a65ed74ddc6094578f0c9d0e5131bbeb616046a59bd116efd60f300",
    ("show", "--input", NONCRYST5):
        "e177ea50bd8bc08cfe198b34c6a8ebe8532a1c4fd738820b97c6d1a45b679b3c",
    ("abelianize", "4", "10", "--format", "json"):
        "50e045020a3773305ad3657cf487a94dc50dbd6d3b92e4042cebf14f2485a932",
    ("abelianize", "80", "162", "--format", "json"):
        "d343286d6cfb6fd9cdda656069e5efd674934e5379e15043668963a4c553e67b",
    ("abelianize", "80", "162"):
        "f12af763deceea21194478c8bf007c2b9162fada05c012ec30f43f6746ee930a",
    # the elimination of F(3, 10) does an xgcd column operation and then an
    # exact clear in the same pass
    ("abelianize", "3", "10", "--format", "json"):
        "f7a068604bd3a235b891bc2c9696865ef19e0b78da65bc11702e7198ca9a0bab",
    ("abelianize", "9", "4", "--format", "json"):
        "5a6212173986b27f5185c8964cdde9278051bf0177932373eafad98cfa528d9d",
}


def _stdout_sha256(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *(
        write_candidate(tmp_path, CANDIDATE_FILES[a](), a) if a in CANDIDATE_FILES else a
        for a in argv
    ))
    # show always exits 0; verify fails the non-crystallographic candidate
    assert code == (1 if argv[0] == "verify" and NONCRYST5 in argv else 0)
    kept = [line for line in out.splitlines(keepends=True) if not line.startswith("runtime:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(a[1:] for a in STDOUT_SHA256 if a[0] == "survey"))
def test_survey_stdout_byte_identical(capsys, tmp_path, args):
    argv = ("survey", *args)
    assert _stdout_sha256(capsys, tmp_path, argv) == STDOUT_SHA256[argv]


@pytest.mark.parametrize(
    "argv", [a for a in STDOUT_SHA256 if a[0] != "survey"], ids=" ".join
)
def test_stdout_byte_identical(capsys, tmp_path, argv):
    assert _stdout_sha256(capsys, tmp_path, argv) == STDOUT_SHA256[argv]


def test_survey_jobs_matches_serial(capsys):
    base = ["survey", "--dim", "3", "--format", "json"]
    _, serial, _ = run_cli(capsys, *base)
    _, parallel, _ = run_cli(capsys, *base, "--jobs", "2")
    assert serial == parallel


def _refuse(*args, **kwargs):
    raise AssertionError("work started that the command line should refuse")


@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1)])
def test_survey_jobs_out_of_range(capsys, monkeypatch, jobs):
    monkeypatch.setattr(cli, "Pool", _refuse)
    code, out, err = run_cli(capsys, "survey", "--dim", "3", "--jobs", jobs)
    assert code == 2
    assert "--jobs" in err
    assert out == ""


def test_dimension_cap_refuses_before_classifying(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_main_theorem", _refuse)
    monkeypatch.setattr(cli, "classify", _refuse)
    path = write_candidate(tmp_path, cyclic_hw(31))
    for argv in (
        ("verify", "--input", path),
        ("show", "--input", path),
        ("show", "--dim", "31"),
        ("survey", "--dim", "31", "--sample", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert f"limit of {cli.MAX_DIM}" in err
        assert out == ""


def test_dimension_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DIM", 5)
    code, _, _ = run_cli(capsys, "verify", "--input", write_candidate(tmp_path, cyclic_hw(5)))
    assert code == 0
    code, _, err = run_cli(capsys, "show", "--dim", "7")
    assert code == 2
    assert "limit of 5" in err


def test_symbolic_and_abelianize_caps_refuse_before_building(capsys, monkeypatch):
    # the benchmark inputs symbolic --dim 21 and abelianize 80 162 stay inside
    assert cli.MAX_SYMBOLIC_DIM >= 21 and cli.MAX_ABELIANIZE >= 162
    monkeypatch.setattr(cli, "symbolic_sequence", _refuse)
    monkeypatch.setattr(cli, "fibonacci_presentation", _refuse)
    monkeypatch.setattr(cli, "abelianization", _refuse)
    for argv, limit in (
        (("symbolic", "--dim", str(cli.MAX_SYMBOLIC_DIM + 2)), cli.MAX_SYMBOLIC_DIM),
        (("symbolic", "--dim", "10001", "--k", "0"), cli.MAX_SYMBOLIC_DIM),
        (("abelianize", "2", "1000000"), cli.MAX_ABELIANIZE),
        (("abelianize", "1000000", "2"), cli.MAX_ABELIANIZE),
        (("abelianize", "2", str(cli.MAX_ABELIANIZE + 1)), cli.MAX_ABELIANIZE),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert f"limit of {limit}" in err
        assert out == ""


def test_symbolic_and_abelianize_caps_are_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SYMBOLIC_DIM", 5)
    monkeypatch.setattr(cli, "MAX_ABELIANIZE", 10)
    assert run_cli(capsys, "symbolic", "--dim", "5")[0] == 0
    assert run_cli(capsys, "symbolic", "--dim", "7")[0] == 2
    assert run_cli(capsys, "abelianize", "4", "10")[0] == 0
    assert run_cli(capsys, "abelianize", "10", "4")[0] == 0
    assert run_cli(capsys, "abelianize", "4", "11")[0] == 2
    assert run_cli(capsys, "abelianize", "11", "4")[0] == 2


def test_survey_large_dim_requires_sample(capsys):
    code, _, err = run_cli(capsys, "survey", "--dim", "7")
    assert code == 2
    assert "--sample" in err


def test_survey_even_dim_rejected(capsys):
    code, _, err = run_cli(capsys, "survey", "--dim", "4", "--sample", "10")
    assert code == 2


def test_symbolic_dim3_text(capsys):
    code, out, _ = run_cli(capsys, "symbolic", "--dim", "3")
    assert code == 0
    assert "period 6 confirmed for k=0,1,2" in out
    assert "runtime" in out


def test_symbolic_single_k_prints_terms(capsys):
    code, out, _ = run_cli(capsys, "symbolic", "--dim", "3", "--k", "0")
    assert code == 0
    assert "term 0: (+1, d0)" in out
    assert "term 2: (-1, d0 + d1)" in out


def test_symbolic_json_deterministic(capsys):
    args = ["symbolic", "--dim", "5", "--format", "json"]
    code, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert code == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["verdict"] == "pass"
    assert len(data["checks"]) == 5
    assert all(c["periodic"] and c["recursion_consistent"] for c in data["checks"])


def test_symbolic_builds_each_sequence_once(capsys, monkeypatch):
    built = []

    def counting(n, k):
        built.append((n, k))
        return symbolic_sequence(n, k)

    monkeypatch.setattr(cli, "symbolic_sequence", counting)
    assert run_cli(capsys, "symbolic", "--dim", "9", "--format", "json")[0] == 0
    assert built == [(9, k) for k in range(9)]
    built.clear()
    code, out, _ = run_cli(capsys, "symbolic", "--dim", "9", "--k", "4")
    assert code == 0
    assert built == [(9, 4)]
    assert "term 25: " in out


def test_symbolic_k_out_of_range(capsys):
    code, _, err = run_cli(capsys, "symbolic", "--dim", "3", "--k", "5")
    assert code == 2
    assert "--k" in err


def test_symbolic_dim13_confirms_and_reports_runtime(capsys):
    code, out, _ = run_cli(capsys, "symbolic", "--dim", "13")
    assert code == 0
    assert "period 26 confirmed" in out
    assert "runtime:" in out


def test_verify_json_byte_identical(tmp_path, capsys):
    path = write_candidate(tmp_path, cyclic_hw(5))
    args = ["verify", "--input", path, "--format", "json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_abelianize_f26(capsys):
    code, out, _ = run_cli(capsys, "abelianize", "2", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["divisors"] == [1, 1, 1, 1, 4, 4]
    assert data["nontrivial"] == [4, 4]
    assert data["order"] == 16
    assert data["even_divisors"] == 2
    assert data["holonomy_rank"] == 2


def test_abelianize_f4_10(capsys):
    code, out, _ = run_cli(capsys, "abelianize", "4", "10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["even_divisors"] >= 4
    assert data["holonomy_rank"] == 4


def test_abelianize_degenerate(capsys):
    code, out, _ = run_cli(capsys, "abelianize", "1", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["divisors"] == [0]
    assert data["free_rank"] == 1
    assert data["order"] is None


def test_show_builtin_cyclic(capsys):
    code, out, _ = run_cli(capsys, "show", "--dim", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["classification"]["hantzsche_wendt"] is True
    assert data["holonomy_order"] == 4
    assert data["lattice"]["rank"] == 3


def test_show_text(tmp_path, capsys):
    path = write_candidate(tmp_path, cyclic_hw(3))
    code, out, _ = run_cli(capsys, "show", "--input", path)
    assert code == 0
    assert "generator 0" in out
    assert "hantzsche-wendt=yes" in out


def test_show_needs_source(capsys):
    code, _, err = run_cli(capsys, "show")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
