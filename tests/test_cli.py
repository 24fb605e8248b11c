import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from hwfib import cli, epimorphism, hwgroup
from hwfib.cli import main
from hwfib.epimorphism import symbolic_sequence, verify_main_theorem
from hwfib.hwgroup import (
    HWCandidate,
    candidate_count,
    candidate_from_index,
    candidate_indices,
    candidate_to_json_dict,
    classify,
    classify_index,
    cyclic_hw,
)
from hwfib.hwgroup import _classification, _classify_lanes

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


@pytest.mark.parametrize("command", ["verify", "show"])
@pytest.mark.parametrize("dim", ["1e400", "3.9", "true"])
def test_dim_must_be_a_json_integer(tmp_path, capsys, command, dim):
    # 1e400 reads as an infinite float, 3.9 would truncate to a valid 3 and
    # true would read as 1
    path = tmp_path / "dim.json"
    path.write_text('{"dim": %s, "translations": [["1/2", "1/2", "0"], ["0", "1/2", "1/2"]]}' % dim)
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 2
    assert "malformed candidate description" in err
    assert out == ""


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("command", ["verify", "show"])
@pytest.mark.parametrize("entry", ["1e9999", "1e10000000"])
def test_exponent_notation_is_a_usage_error(tmp_path, capsys, command, entry, output_format):
    # Fraction reads exponents: 10^9999 has more digits than int-to-str
    # will write, and building 10^10000000 alone takes seconds
    path = tmp_path / "exponent.json"
    path.write_text(
        json.dumps({"dim": 3, "translations": [[entry, "1/2", "0"], ["0", "1/2", "1/2"]]})
    )
    started = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--input", str(path), "--format", output_format)
    assert time.perf_counter() - started < 1
    assert code == 2
    assert "malformed candidate description" in err
    assert out == ""


def _refused_entry(text):
    return f"malformed candidate description: {text!r} is not an ASCII rational p/q or decimal"


# A candidate file and the reason the loader gives for refusing it.  A JSON
# number with a fraction or an exponent was read through a float, so the
# first entry loaded as 1/2, 5e-1 loaded, and the messages for 1e16,
# 0.00005, NaN and Infinity quoted the float's text, not the file's
_ENTRY_FILE = '{"dim": 3, "translations": [[%s, "1/2", "0"], ["0", "1/2", "1/2"]]}'
FILE_REFUSALS = [
    (_ENTRY_FILE % "0.50000000000000001",
     "generator 0 translation entry 50000000000000001/100000000000000000 is not a half-integer"),
    (_ENTRY_FILE % "5e-1", _refused_entry("5e-1")),
    (_ENTRY_FILE % "1e16", _refused_entry("1e16")),
    (_ENTRY_FILE % "0.00005", "generator 0 translation entry 1/20000 is not a half-integer"),
    (_ENTRY_FILE % "NaN", _refused_entry("NaN")),
    (_ENTRY_FILE % "Infinity", _refused_entry("Infinity")),
    (_ENTRY_FILE % "-Infinity", _refused_entry("-Infinity")),
    ('{"dim": 3.50, "translations": []}',
     "malformed candidate description: dim must be an integer, got 3.50"),
    ("[3]", "candidate description must be a JSON object, got array"),
    ('"abc"', "candidate description must be a JSON object, got string"),
]


@pytest.mark.parametrize("command", ["verify", "show"])
@pytest.mark.parametrize("text, reason", FILE_REFUSALS, ids=lambda v: v[:40])
def test_loader_reads_json_numbers_from_the_file_text(tmp_path, capsys, command, text, reason):
    path = tmp_path / "candidate.json"
    path.write_text(text)
    assert run_cli(capsys, command, "--input", str(path)) == (
        2, "", f"error: cannot load candidate: {reason}\n")


@pytest.mark.parametrize("command", ["verify", "show"])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, command):
    # json.load raises RecursionError past the interpreter's recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 2
    assert "cannot load candidate" in err
    assert out == ""


def test_importing_the_cli_leaves_multiprocessing_out():
    # the survey runs in one process whatever --jobs says, and importing
    # multiprocessing would cost every start of the CLI about 11 ms
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys, hwfib.cli; code = hwfib.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
        "print('multiprocessing' in sys.modules); sys.exit(code)"
    )
    for argv, lines in (((), 0), (("survey", "--dim", "3", "--jobs", "2", "--format", "json"), 65)):
        result = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        *out, imported = result.stdout.splitlines()
        assert len(out) == lines, argv
        assert imported == "False", f"{' '.join(argv) or 'import'} loaded multiprocessing"


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    # importing dataclasses loads inspect, ast, dis and tokenize: about 16 ms
    # of every start, for nothing the arithmetic needs.  Likewise argparse,
    # whose messages go through gettext and, once it parses, locale
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import hwfib.cli; "
        "unwanted = {'dataclasses', 'inspect', 'argparse', 'getopt', 'gettext', 'locale'}; "
        "print(' '.join(sorted(unwanted & (set(sys.modules) - before)))); "
        "sys.stdout.flush(); code = hwfib.cli.main(sys.argv[1:]); "
        "print(' '.join(sorted(unwanted & (set(sys.modules) - before)))); sys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, "symbolic", "--dim", "3"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 4, lines  # a line after import, two of symbolic, a line after the run
    assert lines[0] == "", f"import hwfib.cli loaded {lines[0]}"
    assert lines[-1] == "", f"symbolic --dim 3 loaded {lines[-1]}"


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


def test_survey_sample_follows_candidate_indices(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--dim", "5", "--sample", "200", "--seed", "7", "--format", "json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    expected = [
        candidate_to_json_dict(candidate_from_index(5, i))
        for i in candidate_indices(5, sample=200, seed=7)
    ]
    assert [{"dim": r["dim"], "translations": r["translations"]} for r in records] == expected


def _record_from_candidate(n, idx):
    # the survey record built through an HWCandidate, with the index bits
    # decoded to Fractions here rather than by hwgroup
    c = HWCandidate(n, [
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


def _text_line(record):
    flag = {True: "y", False: "n"}
    return (
        f"index={record['index']} crystallographic={flag[record['crystallographic']]} "
        f"torsion_free={flag[record['torsion_free']]} hw={flag[record['hw']]} "
        f"verdict={record['verdict'] or '-'}"
    )


# the survey seeds of the sampled inputs below, by dimension
_RECORD_SEEDS = {5: 51, 7: 52}


@pytest.mark.parametrize("n, indices", [
    (3, range(64)),
    (5, _seeded_indices(5, 2000, seed=_RECORD_SEEDS[5])),
    (7, _seeded_indices(7, 200, seed=_RECORD_SEEDS[7])),
])
def test_survey_record_from_index_matches_candidate_path(capsys, n, indices):
    # the survey's lines, written from cached class tails and word text,
    # against records built through an HWCandidate, byte for byte
    argv = ["survey", "--dim", str(n)]
    if n in _RECORD_SEEDS:
        argv += ["--sample", str(len(indices)), "--seed", str(_RECORD_SEEDS[n])]
    runs = {f: run_cli(capsys, *argv, "--format", f) for f in ("json", "text")}
    assert {code for code, _, _ in runs.values()} == {0}
    json_lines = runs["json"][1].splitlines()
    text_lines = runs["text"][1].splitlines()
    assert [json.loads(line)["index"] for line in json_lines[:-1]] == list(indices)
    counts = {"crystallographic": 0, "hw": 0}
    for idx, json_line, text_line in zip(indices, json_lines, text_lines):
        expected = _record_from_candidate(n, idx)
        assert json_line == json.dumps(expected, separators=(",", ":")), idx
        assert text_line == _text_line(expected), idx
        assert classify_index(n, idx) == classify(candidate_from_index(n, idx))
        for key in counts:
            counts[key] += expected[key]
    summary = json.loads(json_lines[-1])
    assert (summary["candidates"], summary["crystallographic"], summary["hantzsche_wendt"]) == (
        len(indices), counts["crystallographic"], counts["hw"]
    )
    assert counts["crystallographic"] > 0
    # the verification branch ran; at n=7, HW candidates are too rare for 200 draws
    assert counts["hw"] > 0 or n == 7


def test_survey_record_reads_the_certificate(capsys, monkeypatch):
    # a Hantzsche-Wendt line builds no Fraction candidate, and a survey
    # calls neither classify nor classify_index: it classifies the 64
    # candidates of n=3 in one call of the lane kernel per batch and builds
    # the line tail of each flags byte that shows once, from the byte alone,
    # however many batches it shows in; the summary classifies nothing
    monkeypatch.setattr(hwgroup, "candidate_from_index", _refuse)
    monkeypatch.setattr(hwgroup.HWCandidate, "__init__", _refuse)
    monkeypatch.setattr(epimorphism, "build_epimorphism", _refuse)
    for module in (cli, hwgroup, epimorphism):
        monkeypatch.setattr(module, "classify", _refuse)
    monkeypatch.setattr(hwgroup, "classify_index", _refuse)
    batches, classified = [], []

    def counting_classify_lanes(n, indices):
        batches.append(len(indices))
        return _classify_lanes(n, indices)

    def counting_classification(n, flags):
        classified.append(flags)
        return _classification(n, flags)

    monkeypatch.setattr(cli, "_classify_lanes", counting_classify_lanes)
    monkeypatch.setattr(cli, "_classification", counting_classification)
    for batch, output_format in product((cli.SURVEY_BATCH, 7), ("json", "text")):
        monkeypatch.setattr(cli, "SURVEY_BATCH", batch)
        batches.clear()
        classified.clear()
        code, out, _ = run_cli(capsys, "survey", "--dim", "3", "--format", output_format)
        assert code == 0
        lines = out.splitlines()[:-1]
        if output_format == "json":
            verdicts = [json.loads(line)["verdict"] for line in lines]
        else:
            verdicts = [line.rsplit(" verdict=", 1)[1] for line in lines]
        assert verdicts.count("pass") == 8 and len(verdicts) == 64
        assert batches == ([64] if batch >= 64 else [7] * 9 + [1])
        # flags 0 and 3 only: every torsion-free candidate is crystallographic
        assert classified == [0, 3]


@pytest.mark.parametrize("batch", [1, 7])
def test_survey_output_does_not_depend_on_its_bounds(capsys, monkeypatch, batch):
    # SURVEY_BATCH only groups candidates into kernel calls and lines into
    # writes, and bounds the word texts a survey keeps
    argvs = [
        ("survey", "--dim", "3"),
        ("survey", "--dim", "3", "--format", "json"),
        ("survey", "--dim", "5", "--sample", "300", "--seed", "4", "--format", "json"),
    ]
    expected = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(cli, "SURVEY_BATCH", batch)
    assert [run_cli(capsys, *argv) for argv in argvs] == expected


@pytest.mark.parametrize("n, idx", [
    (3, 64), (3, -1), (5, candidate_count(5)), (5, -1), (7, candidate_count(7)), (7, -1),
    (4, 0), (1, 0),
])
def test_index_path_rejects_what_candidate_from_index_rejects(n, idx):
    for fn in (candidate_from_index, classify_index):
        with pytest.raises(ValueError):
            fn(n, idx)


# argv items standing for files holding a candidate
CYCLIC13 = "cyclic13.json"
SCALED9 = "scaled9.json"
NONCRYST5 = "noncryst5.json"
TORSION5 = "torsion5.json"
SCALED_TORSION5 = "scaled_torsion5.json"
CYCLIC17 = "cyclic17.json"
NONCANON5 = "noncanonical5.json"
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
    NONCRYST5: lambda: HWCandidate(5, [
        ("3/2", -1, "5/2", 2, "3/2"),
        ("1/2", "5/2", "-3/2", 1, "3/2"),
        (-1, 0, "7/2", "1/2", "3/2"),
        (2, "-5/2", 1, "9/2", "3/2"),
    ]),
    # crystallographic but not torsion-free (at n=3 every crystallographic
    # candidate in the standard form is torsion-free)
    TORSION5: lambda: candidate_from_index(5, 281782),
    # crystallographic with torsion, every generator with its own bit, and
    # nonzero high words once normalised: index 285943 conjugated by odd
    # scales and a shift in Z/4
    SCALED_TORSION5: lambda: conjugate_diagonal(
        candidate_from_index(5, 285943), (3, 5, 1, 7, 3), (Q, -3 * Q, 2 * Q, 0, -Q)
    ),
    CYCLIC17: lambda: cyclic_hw(17),
}
# candidate files written by hand rather than by candidate_to_json_dict: a
# Hantzsche-Wendt candidate of dimension 5 whose entries spell half-integers
# as the loader must read them, the way Fraction did (2/4, 0.5, a sign,
# padding, 4/2, and bare JSON integers)
RAW_CANDIDATE_FILES = {
    NONCANON5: """{"dim": 5, "translations": [
  ["2/4", "0.5", "0", "4/2", 0],
  [0, "+1/2", " -3/2 ", "0", 1],
  ["0", "0", "1/2", "-1/2", "0"],
  [1, "0", "0", "1/2", "1/2"]
]}
""",
}

# sha256 of stdout keyed by argv, without any "runtime:" line.  The survey
# entries were recorded from the Fraction-based survey (each candidate built
# as an HWCandidate, classified and written by Fraction's str); the
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
    # --jobs is accepted and range-checked, but the survey runs in one
    # process; recorded from the code that sent records back from worker
    # processes and whose value types were frozen dataclasses
    ("survey", "--dim", "5", "--sample", "300", "--seed", "5", "--jobs", "2", "--format", "json"):
        "47221a3d8657227e00d10d5b71cd0bc01ba26cd4841576009e721d01f488229f",
    # this entry and the SCALED9 and NONCRYST5 ones were recorded from the
    # list-based lattice and torsion kernel (vectors of half units per
    # normal generator, walk on per-coordinate remainders)
    ("survey", "--dim", "7", "--sample", "300", "--seed", "3", "--format", "json"):
        "18893d93c29fec8751391692187b17fe1a0197ea38d0d88ce7faf4fd34b84fdb",
    # these three were recorded from the kernel that built an F2 basis of
    # the parity space for every orbit key, and wrote each JSON unit
    # through Fraction and its str
    ("survey", "--dim", "9", "--sample", "2000", "--seed", "9", "--format", "json"):
        "d3bd0e37f6613ac70a736e61157e88b132cb8cbed05e5228622ca21a18085e72",
    ("survey", "--dim", "21", "--sample", "200", "--seed", "21", "--format", "json"):
        "761b77eaf4fedc2902acb5e6c24a0c8cd30d5bc15db7c6ba80c8b5e6f61232a1",
    ("survey", "--dim", "21", "--sample", "200", "--seed", "21"):
        "d18e349bd6ac08d37372e274888ca830091473ef652530553f3126f3e93e447f",
    ("symbolic", "--dim", "13", "--format", "json"):
        "0c11c6e07ce371e460abf1f2afda4f904e12f6f66aba3d78b3dff12c3705262b",
    ("symbolic", "--dim", "7", "--k", "3"):
        "297f5f8d0fa58f4b477bb8093b58501736e38c41ed65308a4d898ffcd8cfb384",
    # the benchmark input
    ("symbolic", "--dim", "21", "--format", "json"):
        "0e3271b20791123c1e3d51830e488d0c47a07d662ad9fc560ff57d7e738dc9d4",
    # these two were recorded from the code that built one E(1) sequence
    # per k; the all-k run now takes all 61 coordinates in one recursion
    ("symbolic", "--dim", "61", "--format", "json"):
        "a46a9aeed402ac2f3a6188a506a9cba0953152e2147d057a2215bdd0b58c11b6",
    ("symbolic", "--dim", "21"):
        "8f79fce4bfbf065743cd15b892f307a3d9e0f40c47e30dffc7f9aec571efa64a",
    # k = n-1: no seed has sign +1
    ("symbolic", "--dim", "3", "--k", "2"):
        "a9d439a74f9327bddd52bb31058c4d15da8930f0fbbbf009058bd51c0b56c5e7",
    ("symbolic", "--dim", "13", "--k", "6"):
        "5281549f5398620ef770a25f51834034da20a78cf0df1bda4294e2cc2b7bd155",
    # these two were recorded from the code that packed each form with base
    # 2^(3n): the terms of one sequence at the cap and at k = n-1
    ("symbolic", "--dim", "151", "--k", "75"):
        "eca16eada5d4db248a8d26c4cead4527403b6a043d33cf19c686acd05b174e13",
    ("symbolic", "--dim", "61", "--k", "60"):
        "2f31a3713dead11b8ffc1a1ddf8dd4876a082c005fa38e1e17e8b6e4bd5fac41",
    ("verify", "--input", CYCLIC13, "--format", "json"):
        "b7463b682632d97ec12782a0c7091803e164c626932d67c51f2d37c1c871ace8",
    ("verify", "--input", CYCLIC13):
        "fe0c09cd77dae7b83420f44041c753842ff55de5c986d6eff16502adab4b4f03",
    ("verify", "--input", SCALED9, "--format", "json"):
        "f8ca6448aa1af26784e8d6e29682787d0a8208410ab91e89dd5b39577c997a13",
    ("verify", "--input", NONCRYST5, "--format", "json"):
        "1f5ddd251c14943a51f60ccc8d17e02f884eab398da0bb84710da09b40f3b9e6",
    # these four were recorded from the code that built the 2n images in
    # E(n) over Fraction and evaluated every relator per candidate: the
    # text fail path with its problem lines, a crystallographic candidate
    # with torsion, and the relator verdicts of a large dimension
    ("verify", "--input", NONCRYST5):
        "f39fcce01a90d3cb4b3e8adaf5e50132bb63b63f04590b57fa78d9340e63c1d6",
    ("verify", "--input", TORSION5, "--format", "json"):
        "49562135265dd2fc123813660e1e5cb696ae9e188b8e34677d84deb50c2cfbb0",
    ("verify", "--input", TORSION5):
        "8364f705b4f399cacb4ecef63cc8927c7ddab53ba110394559a6ac42ded3e323",
    # these six were recorded from the kernel that kept a high word per
    # generator and ran a projection test on an F2 basis of the parity space
    # in every class: TORSION5 lacks an own bit, SCALED_TORSION5 has them
    # all and nonzero high words
    ("verify", "--input", SCALED_TORSION5, "--format", "json"):
        "853528cec0f710fc7dadb882b6e91f5e61dfe2c62d9c7db7f4dd0b6f71258613",
    ("verify", "--input", SCALED_TORSION5):
        "b851bcedf2d68b566d6edbf2c8438b267dd5c26914a3c7ed428c857e46e38bf9",
    ("show", "--input", SCALED_TORSION5, "--format", "json"):
        "b97bc92894a381f6ddfc2a337205a3a1c8e892783a28831d91d1d85158827b63",
    ("show", "--input", SCALED_TORSION5):
        "6edd5df0c669bb37bfaedbe90863f163c9d971993a9d35c25d862ce00dd988e3",
    ("show", "--input", TORSION5, "--format", "json"):
        "8af9ba9fb5f0c55d200dbac47a8301717e4c00d869ea79902e11a9001c90c8c0",
    ("show", "--input", TORSION5):
        "c2fcb5ae0c36ab5c28a346508669c78e08482819c2e207c57f0b1f3e3f6cd019",
    ("verify", "--input", CYCLIC17, "--format", "json"):
        "53c639047ea9d98730649e57994aff5ec9a5ffd47d6411e7d287b5df7bbc37cb",
    # recorded from the loader that read every entry through Fraction
    ("verify", "--input", NONCANON5, "--format", "json"):
        "7bde014fc50b9ed13814b4c482a716cbff0a69546ea4b6b091b040dac5ef5ca5",
    ("verify", "--input", NONCANON5):
        "8717572c7cb9882f1282b1fbede2183c4d5fab332e0212c9c14c778ffceab489",
    ("show", "--input", NONCANON5, "--format", "json"):
        "63746f8601f330ea165217b21ac739da0a6e52e2980a0985c68aa8bdf5f8a1ec",
    ("show", "--input", NONCANON5):
        "a32a0424fb02562a4c93ebc7d822f2d6e463cfba5753d4544f210981f3683f95",
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
    # recorded from the xgcd elimination, whose pass on F(3, 10) did an
    # xgcd column operation and then an exact clear
    ("abelianize", "3", "10", "--format", "json"):
        "f7a068604bd3a235b891bc2c9696865ef19e0b78da65bc11702e7198ca9a0bab",
    ("abelianize", "9", "4", "--format", "json"):
        "5a6212173986b27f5185c8964cdde9278051bf0177932373eafad98cfa528d9d",
    # recorded before the Smith normal form divided out the trailing
    # block's content: both eliminations run out of unit pivots with a
    # content of 4 left, at n = 82 and at n = 322
    ("abelianize", "40", "82", "--format", "json"):
        "29457cbaa8801a2d1e053c5a65b54b5e51e612bc667a65c12dc5e6440e692327",
    ("abelianize", "160", "322", "--format", "json"):
        "0868f1c32039bc45c991c86b91c91f4f9530e6746cb27b7ad0de5b10320bff3a",
    ("abelianize", "160", "322"):
        "21543ad5eb9997a97b903fe9dd041b7613c838da26b85c0a8d7f85220ea8e928",
    # recorded from the xgcd elimination, whose coefficient growth took
    # 12 s, 8.6 s and about 75 s on these three
    ("abelianize", "162", "92", "--format", "json"):
        "b00f83b190bd40e9e2cc4162898a4b2e264538fe12c9a1b2cbaf06d577259d5c",
    ("abelianize", "322", "60", "--format", "json"):
        "98e9045a6da610be8251ffc97f09c01a5002e93b0bd67ed90b82178ea524b6b0",
    ("abelianize", "162", "220", "--format", "json"):
        "27a0dc13ec5a3c1998f53c6afb3b3d229338f6a4ca8083421486335c89887727",
    # the hashes of the same command lines above, with the flags written
    # --flag=value or in another order
    ("survey", "--format=json", "--dim", "3"):
        "750e5b16ad77db6381d57b610c7f2a531646e3ebc1bd1b22a984a548cb9b1e58",
    ("symbolic", "--format=json", "--dim=21"):
        "0e3271b20791123c1e3d51830e488d0c47a07d662ad9fc560ff57d7e738dc9d4",
    ("abelianize", "--format=json", "80", "162"):
        "d343286d6cfb6fd9cdda656069e5efd674934e5379e15043668963a4c553e67b",
}


def _argv_item(tmp_path, item):
    if item in CANDIDATE_FILES:
        return write_candidate(tmp_path, CANDIDATE_FILES[item](), item)
    if item in RAW_CANDIDATE_FILES:
        path = tmp_path / item
        path.write_text(RAW_CANDIDATE_FILES[item])
        return str(path)
    return item


def _stdout_sha256(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *(_argv_item(tmp_path, a) for a in argv))
    # show always exits 0; verify fails the non-crystallographic candidate
    # and the one with torsion
    assert code == (1 if argv[0] == "verify" and {NONCRYST5, TORSION5, SCALED_TORSION5} & set(argv) else 0)
    kept = [line for line in out.splitlines(keepends=True) if not line.startswith("runtime:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ("verify", "--input", CYCLIC13),
    ("show", "--input", CYCLIC13),
    ("show", "--dim", "5"),
    ("survey", "--dim", "3"),
    ("symbolic", "--dim", "5"),
    ("abelianize", "4", "10"),
], ids=" ".join)
def test_commands_on_canonical_input_leave_fractions_out(tmp_path, argv, output_format):
    # candidates are stored in half units and written and read as text
    # without Fraction; importing fractions also loads numbers, decimal and
    # _decimal, about 2 ms of every start
    _assert_fractions_left_out(tmp_path, argv, output_format)


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ("verify", "--input", NONCANON5),
    ("show", "--input", NONCANON5),
], ids=" ".join)
def test_commands_on_noncanonical_input_leave_fractions_out(tmp_path, argv, output_format):
    # every spelling the loader accepts (2/4, 0.5, a sign, padding, JSON
    # numbers) is read in ints by the same reader as canonical text
    _assert_fractions_left_out(tmp_path, argv, output_format)


def _assert_fractions_left_out(tmp_path, argv, output_format):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    argv = [_argv_item(tmp_path, a) for a in argv]
    code = (
        "import sys; from hwfib.cli import main; code = main(sys.argv[1:]); "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules))); sys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv, "--format", output_format],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]", f"{' '.join(argv)} loaded fractions"


@pytest.mark.parametrize("args", sorted(a[1:] for a in STDOUT_SHA256 if a[0] == "survey"))
def test_survey_stdout_byte_identical(capsys, tmp_path, args):
    argv = ("survey", *args)
    assert _stdout_sha256(capsys, tmp_path, argv) == STDOUT_SHA256[argv]


@pytest.mark.parametrize(
    "argv", [a for a in STDOUT_SHA256 if a[0] != "survey"], ids=" ".join
)
def test_stdout_byte_identical(capsys, tmp_path, argv):
    assert _stdout_sha256(capsys, tmp_path, argv) == STDOUT_SHA256[argv]


_TALLY_KEYS = (
    "candidates", "crystallographic", "torsion_free", "hantzsche_wendt",
    "verified_pass", "verified_fail",
)
_TEXT_SUMMARY = re.compile(
    r"surveyed (\d+) candidates in dimension (\d+): (\d+) crystallographic, "
    r"(\d+) hantzsche-wendt, (\d+) verified pass, (\d+) verified fail"
)


def _recount(lines, output_format):
    # the summary's counts, recounted from the survey's own lines
    tally = dict.fromkeys(_TALLY_KEYS, 0)
    for line in lines:
        if output_format == "json":
            record = json.loads(line)
            flags = [record[key] for key in ("crystallographic", "torsion_free", "hw")]
            verdict = record["verdict"]
        else:
            fields = dict(word.split("=") for word in line.split()[1:])
            flags = [fields[key] == "y" for key in ("crystallographic", "torsion_free", "hw")]
            verdict = None if fields["verdict"] == "-" else fields["verdict"]
        tally["candidates"] += 1
        for key, flag in zip(_TALLY_KEYS[1:4], flags):
            tally[key] += flag
        if verdict is not None:
            tally[f"verified_{verdict}"] += 1
    return tally


# the command lines of the pinned survey rows, without their --format
_SURVEY_ROWS = sorted({
    tuple(a for a in argv if a not in ("--format", "json", "--format=json"))
    for argv in STDOUT_SHA256 if argv[0] == "survey"
})


@pytest.mark.parametrize("batch", [1, 7, None])
@pytest.mark.parametrize("argv", _SURVEY_ROWS, ids=" ".join)
def test_survey_summary_counts_its_own_lines(capsys, monkeypatch, argv, batch):
    # the summary is computed from four counts, one per flags byte, and the
    # verdict of the Hantzsche-Wendt byte; it must tally the lines written,
    # however the candidates are batched
    if batch is not None:
        monkeypatch.setattr(cli, "SURVEY_BATCH", batch)
    n = int(argv[argv.index("--dim") + 1])
    for output_format in ("json", "text"):
        code, out, _ = run_cli(capsys, *argv, "--format", output_format)
        *lines, last = out.splitlines()
        tally = _recount(lines, output_format)
        if output_format == "json":
            assert json.loads(last) == {"summary": True, "dim": n, **tally}
        else:
            match = _TEXT_SUMMARY.fullmatch(last)
            assert match, last
            assert [int(v) for v in match.groups()] == [
                tally["candidates"], n, tally["crystallographic"], tally["hantzsche_wendt"],
                tally["verified_pass"], tally["verified_fail"],
            ]
        assert code == (1 if tally["verified_fail"] else 0)
        assert tally["crystallographic"] >= tally["hantzsche_wendt"] == (
            tally["verified_pass"] + tally["verified_fail"]
        )


def _has_own_bits(n, idx):
    return all(idx >> (i * n + i) & 1 for i in range(n - 1))


@pytest.mark.parametrize("argv, n, draws", [
    (("survey", "--dim", "5", "--sample", "1000", "--seed", "1"), 5, _seeded_indices(5, 1000, 1)),
    (("survey", "--dim", "3"), 3, range(64)),
    (("verify", "--input", CYCLIC13), None, None),
], ids=["survey-n5-seed1", "survey-n3", "verify-cyclic13"])
def test_walk_runs_only_when_every_generator_has_its_own_bit(
    capsys, tmp_path, monkeypatch, argv, n, draws
):
    # a generator whose word lacks its own bit decides torsion, so the lane
    # kernel walks only the draws with every own bit, and it reads the
    # crystallographic masks of a whole batch of 300 in one lattice step;
    # the cyclic candidate has every bit and walks once
    monkeypatch.setattr(cli, "SURVEY_BATCH", 300)
    if draws is None:
        batches = walks = 1
    else:
        batches = -(-len(draws) // 300)
        walks = sum(_has_own_bits(n, idx) for idx in draws)
        assert 0 < walks < len(draws)
    counts = dict.fromkeys(("_classify_lanes", "_schreier_lattice", "_torsion_exists"), 0)
    for name in counts:
        def counted(*args, _name=name, _run=getattr(hwgroup, name)):
            counts[_name] += 1
            return _run(*args)
        monkeypatch.setattr(hwgroup, name, counted)
    # the survey calls the kernel through its own binding
    monkeypatch.setattr(cli, "_classify_lanes", hwgroup._classify_lanes)
    _stdout_sha256(capsys, tmp_path, argv)
    assert counts == {
        "_classify_lanes": batches, "_schreier_lattice": batches, "_torsion_exists": walks
    }


# sha256 of the whole survey --dim 5 output (2^20 lines and the summary),
# by format: the standing guard that CI also checks
FULL_SURVEY_SHA256 = {
    "json": "9c4045eba1634a18d1ea37acdd54286204d4e2d7216ce2737ae45e326378cb12",
    "text": "c411a958a28df7455698a671a24b4f1c35900fde3eed321ee0b6632e1acff92a",
}


@pytest.mark.parametrize("output_format", sorted(FULL_SURVEY_SHA256))
def test_full_dim5_survey_sha256(output_format):
    # the JSON output is about 115 MB, so it is hashed as it streams
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "hwfib.cli", "survey", "--dim", "5", "--format", output_format]
    digest = hashlib.sha256()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src}) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
    assert proc.returncode == 0
    assert digest.hexdigest() == FULL_SURVEY_SHA256[output_format]


def test_survey_jobs_matches_serial(capsys):
    base = ["survey", "--dim", "3", "--format", "json"]
    _, serial, _ = run_cli(capsys, *base)
    _, parallel, _ = run_cli(capsys, *base, "--jobs", "2")
    assert serial == parallel


def _refuse(*args, **kwargs):
    raise AssertionError("work started that the command line should refuse")


def _refuse_survey_work(monkeypatch):
    # everything the survey loop calls before it writes a line
    for name in ("candidate_indices", "_classify_lanes", "_classification"):
        monkeypatch.setattr(cli, name, _refuse)


@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1)])
def test_survey_jobs_out_of_range(capsys, monkeypatch, jobs):
    _refuse_survey_work(monkeypatch)
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


def test_survey_refuses_a_dimension_above_the_cap_before_counting(capsys, monkeypatch):
    # the count of a full enumeration is never built: at n = 121 it has more
    # than 4,300 digits, and at n = 1000001 about 3 * 10^11
    _refuse_survey_work(monkeypatch)
    monkeypatch.setattr(hwgroup, "candidate_count", _refuse)
    for dim in ("121", "1000001"):
        code, out, err = run_cli(capsys, "survey", "--dim", dim)
        assert code == 2, dim
        assert f"limit of {cli.MAX_DIM}" in err
        assert out == ""
    for dim in (7, cli.MAX_DIM):
        code, out, err = run_cli(capsys, "survey", "--dim", str(dim))
        assert code == 2, dim
        assert f"has 2^{dim * (dim - 1)} candidates; pass --sample N" in err
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
    monkeypatch.setattr(cli, "symbolic_checks", _refuse)
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


def test_survey_sample_without_seed_draws_with_seed_0(capsys):
    unseeded = ("survey", "--dim", "5", "--sample", "5", "--format", "json")
    runs = [run_cli(capsys, *unseeded) for _ in range(2)]
    assert runs[0] == runs[1] == run_cli(capsys, *unseeded, "--seed", "0")
    assert runs[0][0] == 0


def test_survey_seed_without_sample_refused(capsys, monkeypatch):
    _refuse_survey_work(monkeypatch)
    code, out, err = run_cli(capsys, "survey", "--dim", "3", "--seed", "1")
    assert code == 2
    assert "--seed needs --sample" in err
    assert out == ""


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
    # the all-k run is one recursion on all n coordinates and builds no
    # single sequence; --k builds exactly one, a recursion of width 1
    widths, built = [], []
    recursion = epimorphism._product_recursion

    def counting_recursion(seeds, length):
        widths.append(seeds[0].dim)
        return recursion(seeds, length)

    def counting(n, k):
        built.append((n, k))
        return symbolic_sequence(n, k)

    monkeypatch.setattr(epimorphism, "_product_recursion", counting_recursion)
    monkeypatch.setattr(cli, "symbolic_sequence", _refuse)
    for n in (9, 61):
        widths.clear()
        assert run_cli(capsys, "symbolic", "--dim", str(n), "--format", "json")[0] == 0
        assert widths == [n]
    monkeypatch.setattr(cli, "symbolic_sequence", counting)
    monkeypatch.setattr(cli, "symbolic_checks", _refuse)
    widths.clear()
    code, out, _ = run_cli(capsys, "symbolic", "--dim", "9", "--k", "4")
    assert code == 0
    assert built == [(9, 4)]
    assert widths == [1]
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


def _exit_code(capsys, *argv):
    # the command line's verdict, whether main returns it or raises SystemExit
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    (),
    ("symbolic", "--dim", "3", "--frobnicate", "1"),
    ("symbolic", "--input", "x"),
    ("survey", "--dim", "3", "--k", "0"),
    ("symbolic", "--dim"),
    ("symbolic", "--dim", "x"),
    ("symbolic", "--dim", "3", "--format", "xml"),
    ("symbolic", "--dim", "3", "--format="),
    ("symbolic", "3"),
    ("abelianize", "3"),
    ("abelianize", "3", "4", "5"),
    ("abelianize", "3", "x"),
    # abbreviations of a flag are refused
    ("verify", "--inp", "x"),
    ("show", "--di", "3"),
], ids=lambda argv: " ".join(argv) or "no command")
def test_malformed_command_line_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert captured.err.count("error:") == 1, captured.err


def test_negative_positional_reaches_the_range_check(capsys):
    code, out, err = _exit_code(capsys, "abelianize", "-1", "5")
    assert code == 2
    assert "positive" in err
    assert out == ""


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("verify", "--help"), ("abelianize", "-h")],
                         ids=" ".join)
def test_help_exits_0_and_names_every_command(capsys, argv):
    code, out, err = _exit_code(capsys, *argv)
    assert code == 0
    assert err == ""
    for command in ("verify", "survey", "symbolic", "abelianize", "show"):
        assert f"hwfib {command} " in out, command


def test_help_is_the_readme_usage_block(capsys):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    _, out, _ = _exit_code(capsys, "--help")
    assert f"```\n{out}```" in readme.read_text(encoding="utf-8")
