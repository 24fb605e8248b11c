"""Command-line front end.

Subcommands: ``verify`` a candidate description against the Fibonacci-group
quotient map, ``survey`` a whole dimension (full enumeration or a seeded
sample), ``symbolic`` for the one-dimensional periodicity engine,
``abelianize`` for Fibonacci-group abelianizations, and ``show`` for a
human-readable look at one candidate.

A survey classifies its candidates a batch of indices at a time, in one
call of the hwgroup lane kernel, which gives each index a flags byte
(crystallographic, torsion-free).  The holonomy is the same for every
candidate, so the flags decide the classification and, through the
relator certificate of the dimension, the verdict: the entry of each flags
byte that shows is built once.  The survey writes each line from cached
text, the JSON text of each generator's word and the tail of each
classification, rather than encoding a record per line, and each batch's
lines in one write.

The command line is a command, then its flags in any order, each spelled in
full as ``--flag value`` or ``--flag=value``, and for ``abelianize`` the
integers r and n (USAGE lists them).  A value may start with ``-``, so
``--jobs -1`` reaches the range check; a repeated flag's last value wins.
``-h`` or ``--help`` prints USAGE and exits 0; any other malformed command
line writes one ``error:`` line to stderr and raises SystemExit(2).

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 invalid
input or usage.  JSON output is byte-deterministic for a fixed
configuration, since a ``--sample`` without ``--seed`` draws with seed 0;
runtimes are only ever reported in text mode.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import islice
from types import SimpleNamespace
from typing import Optional

from .epimorphism import (
    _certified_report,
    symbolic_checks,
    symbolic_sequence,
    verify_main_theorem,
)
from .exact import format_half
from .fpgroup import abelianization, fibonacci_presentation
from .hwgroup import (
    Classification,
    candidate_from_json_dict,
    candidate_indices,
    candidate_to_json_dict,
    classify,
    cyclic_hw,
    standard_signs,
    translation_lattice,
)
from .hwgroup import _NumberText, _classification, _classify_lanes, _word_units
from .isometry import _text

# The README's usage block, printed by -h and --help.
USAGE = """\
hwfib verify --input candidate.json [--format json|text]
hwfib survey --dim 3 [--sample N [--seed S]] [--jobs J] [--format json|text]
hwfib symbolic --dim 13 [--k K] [--format json|text]
hwfib abelianize 2 6 [--format json|text]
hwfib show --dim 3 | --input candidate.json [--format json|text]
"""
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

FULL_ENUMERATION_LIMIT = 5  # dimensions above this need --sample
# Largest dimension verify, show and survey accept: classifying a candidate
# walks its 2^(n-1) holonomy classes.  Measured on a 2-core x86-64 VM with
# Python 3.11.7: classify of cyclic n=17, 19 and 21 takes 0.015-0.022 s,
# 0.061-0.089 s and 0.24-0.35 s, and each step of 2 in n costs about 4x.
MAX_DIM = 21
# Largest dimension symbolic accepts.  The all-k run is one recursion of
# 3n-1 terms in E(n), one inverse and two products per term, on ints of
# (n-1) b bits (B = 2^b > 8(n-1), epimorphism._base_bits), so it grows about
# as n^3 log n.  Measured in process
# on the same VM, 10 runs each: 0.013-0.024 s at n=81, 0.021-0.022 s at
# n=101, 0.057-0.062 s at n=151, 0.065-0.074 s at n=161 and 0.12-0.15 s at
# n=201.  Raising the cap is left for a change that sets its budget.
MAX_SYMBOLIC_DIM = 151
# Largest r and n abelianize accepts, so that abelianize 2 1000000 exits
# instead of building a 10^6 x 10^6 relator matrix.  The Smith normal form
# clears by nearest remainders, so its entries stay small.  In process on
# the same VM: on the 289 F(r, n) with r and n in 2, 22, ..., 302, 322 the
# slowest took 0.22 s, and on r = 322 with every n in 2..322 the slowest
# was F(322, 318) at 0.6-0.8 s.  On the F(m-1, 2m) family, whose pivots
# are units once the content 4 is divided out, the Smith normal form takes
# 2 ms at n=82, 10 ms at n=162 and 35 ms at n=322.
MAX_ABELIANIZE = 322
# Candidates a survey classifies in one call of the lane kernel, and whose
# lines it joins into one write.  One write of a line to a text stream on a
# pipe costs about 2 us, more than formatting the line from its cached
# parts, and the kernel pays its fixed cost once per batch (2-core x86-64
# VM, Python 3.11.7).  The batch also bounds the memory a survey holds: at
# n = 21 its lanes make one int of 53 bytes per candidate, and it keeps the
# JSON text of at most this many generator words (see _WordText).
SURVEY_BATCH = 1 << 12
# One compact encoder for every line: json.dumps builds a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _fail_usage(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_USAGE


def _over_cap(dim: int) -> str:
    return (
        f"dimension {dim} is above the limit of {MAX_DIM}: classifying one "
        f"candidate walks 2^{dim - 1} holonomy classes"
    )


def _dumps(data: dict) -> str:
    return _ENCODER.encode(data)


def _load_candidate(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_float=_NumberText, parse_constant=_NumberText)
    candidate = candidate_from_json_dict(data)
    if candidate.dim > MAX_DIM:
        raise ValueError(_over_cap(candidate.dim))
    return candidate


def _translations_text(candidate) -> str:
    return " ".join("(" + ",".join(map(format_half, row)) + ")" for row in candidate.units)


def cmd_verify(cfg: SimpleNamespace) -> int:
    if not cfg.input_path:
        return _fail_usage("verify needs --input FILE")
    try:
        candidate = _load_candidate(cfg.input_path)
    except (OSError, RecursionError, ValueError) as exc:
        return _fail_usage(f"cannot load candidate: {exc}")
    report = verify_main_theorem(candidate)
    if cfg.output_format == "json":
        _emit(_dumps(report.to_json_dict()))
    else:
        cl = report.classification
        _emit(f"candidate: dim {candidate.dim}, translations {_translations_text(candidate)}")
        _emit(
            "classification: "
            f"crystallographic={'yes' if cl.crystallographic else 'no'} "
            f"torsion-free={'yes' if cl.torsion_free else 'no'} "
            f"holonomy order={cl.holonomy_order} "
            f"hantzsche-wendt={'yes' if cl.hantzsche_wendt else 'no'}"
        )
        trivial = sum(report.relators_trivial)
        _emit(f"relators: {trivial}/{len(report.relators_trivial)} trivial")
        _emit(f"surjective: {'yes' if report.surjective else 'no'}")
        for problem in report.problems():
            _emit(f"problem: {problem}")
        _emit(f"verdict: {report.verdict.upper()}")
    return EXIT_PASS if report.passed else EXIT_FAIL


class _WordText(dict):
    """JSON text of the translation of one generator of an enumerated
    candidate, keyed by its word, as candidate_to_json_dict writes it, each
    built when first read.  It keeps the text of at most SURVEY_BATCH words,
    every word for n <= 11, rather than a table of all 2^n words, which
    would hold 2^21 strings at n = 21."""

    __slots__ = ("dim",)

    def __init__(self, n: int) -> None:
        self.dim = n

    def __missing__(self, word: int) -> str:
        units = _word_units(self.dim, word)
        text = "[" + ",".join([f'"{format_half(u)}"' for u in units]) + "]"
        if len(self) < SURVEY_BATCH:
            self[word] = text
        return text


def _survey_entry(n: int, cl: Classification, output_format: str) -> list:
    """[classification, verdict, line tail, lines written] for the
    candidates of a survey with the classification cl; the survey counts
    the lines.  A Hantzsche-Wendt candidate takes its verdict from the
    relator certificate of the dimension, as verify does.  The JSON tail is
    the record after its translations, as _dumps writes it; the text tail
    is the line after its index."""
    verdict = _certified_report(n, cl).verdict if cl.hantzsche_wendt else None
    if output_format == "json":
        tail = _dumps({
            "crystallographic": cl.crystallographic,
            "torsion_free": cl.torsion_free,
            "hw": cl.hantzsche_wendt,
            "verdict": verdict,
        })[1:]
    else:
        tail = (
            f" crystallographic={'y' if cl.crystallographic else 'n'} "
            f"torsion_free={'y' if cl.torsion_free else 'n'} "
            f"hw={'y' if cl.hantzsche_wendt else 'n'} verdict={verdict or '-'}"
        )
    return [cl, verdict, tail, 0]


def cmd_survey(cfg: SimpleNamespace) -> int:
    if cfg.dim is None:
        return _fail_usage("survey needs --dim N")
    if cfg.dim % 2 == 0 or cfg.dim < 3:
        return _fail_usage(f"dimension must be odd and >= 3, got {cfg.dim}")
    if cfg.dim > MAX_DIM:
        return _fail_usage(_over_cap(cfg.dim))
    if cfg.dim > FULL_ENUMERATION_LIMIT and cfg.sample is None:
        return _fail_usage(
            f"full enumeration of dimension {cfg.dim} has 2^{cfg.dim * (cfg.dim - 1)} "
            f"candidates; pass --sample N (with --seed) instead"
        )
    if cfg.sample is not None and cfg.sample < 1:
        return _fail_usage("--sample must be positive")
    if cfg.seed is not None and cfg.sample is None:
        return _fail_usage("--seed needs --sample: a full enumeration draws no random indices")
    cpus = os.cpu_count() or 1
    if not 1 <= cfg.jobs <= cpus:
        return _fail_usage(f"--jobs must lie in [1, {cpus}], got {cfg.jobs}")

    n = cfg.dim
    as_json = cfg.output_format == "json"
    # generator i's word is bits i*n to i*n+n-1 of an index
    full = (1 << n) - 1
    shifts = range(0, n * (n - 1), n)
    # the _survey_entry of each classification, by its flags byte from
    # _classify_lanes: the holonomy is the same for every candidate (see the
    # hwgroup docstring)
    by_flags: list = [None] * 4
    text = _WordText(n)
    write = sys.stdout.write
    indices = candidate_indices(n, cfg.sample, cfg.seed or 0)
    while batch := list(islice(indices, SURVEY_BATCH)):
        flags = _classify_lanes(n, batch)
        for f, entry in enumerate(by_flags):
            lines = flags.count(f)
            if lines:
                if entry is None:
                    cl = _classification(n, f)
                    entry = by_flags[f] = _survey_entry(n, cl, cfg.output_format)
                entry[3] += lines
        tails = [by_flags[f][2] for f in flags]
        if as_json:
            # each line's word texts, read a column (one generator) at a time
            columns = [map(text.__getitem__, [i >> s & full for i in batch]) for s in shifts]
            words = map(",".join, zip(*columns))
            out = [
                f'{{"index":{i},"dim":{n},"translations":[{w}],{t}\n'
                for i, w, t in zip(batch, words, tails)
            ]
        else:
            out = [f"index={i}{t}\n" for i, t in zip(batch, tails)]
        write("".join(out))

    summary = {
        "summary": True,
        "dim": n,
        "candidates": 0,
        "crystallographic": 0,
        "torsion_free": 0,
        "hantzsche_wendt": 0,
        "verified_pass": 0,
        "verified_fail": 0,
    }
    for cl, verdict, _, lines in filter(None, by_flags):
        summary["candidates"] += lines
        summary["crystallographic"] += cl.crystallographic * lines
        summary["torsion_free"] += cl.torsion_free * lines
        summary["hantzsche_wendt"] += cl.hantzsche_wendt * lines
        if verdict is not None:
            summary[f"verified_{verdict}"] += lines
    if as_json:
        _emit(_dumps(summary))
    else:
        _emit(
            f"surveyed {summary['candidates']} candidates in dimension {n}: "
            f"{summary['crystallographic']} crystallographic, "
            f"{summary['hantzsche_wendt']} hantzsche-wendt, "
            f"{summary['verified_pass']} verified pass, "
            f"{summary['verified_fail']} verified fail"
        )
    return EXIT_PASS if summary["verified_fail"] == 0 else EXIT_FAIL


def cmd_symbolic(cfg: SimpleNamespace) -> int:
    if cfg.dim is None:
        return _fail_usage("symbolic needs --dim N")
    n = cfg.dim
    if n % 2 == 0 or n < 3:
        return _fail_usage(f"dimension must be odd and >= 3, got {n}")
    if n > MAX_SYMBOLIC_DIM:
        return _fail_usage(
            f"dimension {n} is above the limit of {MAX_SYMBOLIC_DIM}: the "
            f"check for all k grows about n^3"
        )
    if cfg.k is not None and not 0 <= cfg.k <= n - 1:
        return _fail_usage(f"--k must lie in [0, {n - 1}], got {cfg.k}")
    started = time.perf_counter()
    if cfg.k is None:
        verdicts = enumerate(symbolic_checks(n))
    else:
        seq = symbolic_sequence(n, cfg.k)
        verdicts = [(cfg.k, (seq.periodic(), seq.recursion_consistent()))]
    checks = [
        {"k": k, "periodic": periodic, "recursion_consistent": consistent}
        for k, (periodic, consistent) in verdicts
    ]
    elapsed = time.perf_counter() - started
    all_ok = all(c["periodic"] and c["recursion_consistent"] for c in checks)
    if cfg.output_format == "json":
        _emit(_dumps({
            "command": "symbolic",
            "dim": n,
            "period": 2 * n,
            "checks": checks,
            "verdict": "pass" if all_ok else "fail",
        }))
    else:
        confirmed = [str(c["k"]) for c in checks if c["periodic"] and c["recursion_consistent"]]
        if all_ok:
            _emit(f"period {2 * n} confirmed for k={','.join(confirmed)}")
        else:
            bad = [str(c["k"]) for c in checks if not (c["periodic"] and c["recursion_consistent"])]
            _emit(f"period {2 * n} FAILED for k={','.join(bad)}")
        if cfg.k is not None:
            for i in range(len(seq.terms)):
                _emit(f"term {i}: {seq.term_text(i)}")
        _emit(f"runtime: {elapsed:.3f}s")
    return EXIT_PASS if all_ok else EXIT_FAIL


def cmd_abelianize(cfg: SimpleNamespace) -> int:
    r, n = cfg.r, cfg.n
    if r < 1 or n < 1:
        return _fail_usage("abelianize needs positive r and n")
    if max(r, n) > MAX_ABELIANIZE:
        return _fail_usage(
            f"F({r},{n}) is above the limit of {MAX_ABELIANIZE} on r and n: "
            f"the Smith normal form of the n x n relator matrix grows about n^3"
        )
    divisors = abelianization(fibonacci_presentation(r, n))
    nontrivial = [x for x in divisors if x not in (0, 1)]
    free_rank = sum(1 for x in divisors if x == 0)
    order = None
    if free_rank == 0:
        order = 1
        for x in divisors:
            order *= x
    even = sum(1 for x in divisors if x == 0 or x % 2 == 0)
    # compare against the expected holonomy 2-rank when (r, n) = (m-1, 2m)
    holonomy_rank = r if (n == 2 * (r + 1)) else None
    if cfg.output_format == "json":
        _emit(_dumps({
            "command": "abelianize",
            "r": r,
            "n": n,
            "divisors": list(divisors),
            "nontrivial": nontrivial,
            "free_rank": free_rank,
            "order": order,
            "even_divisors": even,
            "holonomy_rank": holonomy_rank,
        }))
    else:
        _emit(f"abelianization of F({r},{n}): divisors {list(divisors)}")
        if free_rank:
            _emit(f"free rank {free_rank} (infinite group)")
        else:
            _emit(f"finite of order {order}; nontrivial divisors {nontrivial}")
        if holonomy_rank is not None:
            _emit(
                f"even divisors: {even} (holonomy of the matching "
                f"Hantzsche-Wendt groups has 2-rank {holonomy_rank})"
            )
    return EXIT_PASS


def cmd_show(cfg: SimpleNamespace) -> int:
    if cfg.input_path:
        try:
            candidate = _load_candidate(cfg.input_path)
        except (OSError, RecursionError, ValueError) as exc:
            return _fail_usage(f"cannot load candidate: {exc}")
    elif cfg.dim is not None:
        if cfg.dim > MAX_DIM:
            return _fail_usage(_over_cap(cfg.dim))
        try:
            candidate = cyclic_hw(cfg.dim)
        except ValueError as exc:
            return _fail_usage(str(exc))
    else:
        return _fail_usage("show needs --input FILE or --dim N")
    cl = classify(candidate)
    lattice = translation_lattice(candidate)
    if cfg.output_format == "json":
        _emit(_dumps({
            "candidate": candidate_to_json_dict(candidate),
            "classification": cl.to_json_dict(),
            "holonomy_order": cl.holonomy_order,
            "lattice": {
                "rank": lattice.rank,
                "denominator": lattice.den,
                "basis": [list(row) for row in lattice.basis],
            },
        }))
    else:
        _emit(f"candidate: dim {candidate.dim}")
        for i, row in enumerate(candidate.units):
            signs = standard_signs(candidate.dim, i)
            _emit(f"generator {i}: {_text(signs, map(format_half, row))}")
        _emit(f"holonomy order: {cl.holonomy_order}")
        _emit(
            f"translation lattice: rank {lattice.rank}, basis rows/" + str(lattice.den)
        )
        for row in lattice.basis:
            _emit("  " + " ".join(str(v) for v in row))
        _emit(
            "classification: "
            f"crystallographic={'yes' if cl.crystallographic else 'no'} "
            f"torsion-free={'yes' if cl.torsion_free else 'no'} "
            f"hantzsche-wendt={'yes' if cl.hantzsche_wendt else 'no'}"
        )
    return EXIT_PASS


# flag or positional -> (attribute of the parsed command line, function from
# its text to its value that raises KeyError or ValueError on a bad one, default)
OPTIONS = {
    "--dim": ("dim", int, None),
    "--k": ("k", int, None),
    "--input": ("input_path", str, None),
    "--sample": ("sample", int, None),
    "--seed": ("seed", int, None),
    "--jobs": ("jobs", int, 1),
    "--format": ("output_format", {"json": "json", "text": "text"}.__getitem__, "text"),
    "r": ("r", int, None),
    "n": ("n", int, None),
}
# command -> (function, flags, positionals)
COMMANDS = {
    "verify": (cmd_verify, ("--input", "--format"), ()),
    "survey": (cmd_survey, ("--dim", "--sample", "--seed", "--jobs", "--format"), ()),
    "symbolic": (cmd_symbolic, ("--dim", "--k", "--format"), ()),
    "abelianize": (cmd_abelianize, ("--format",), ("r", "n")),
    "show": (cmd_show, ("--dim", "--input", "--format"), ()),
}


def parse_argv(argv: list[str]) -> tuple:
    """The command's function and its parsed command line (the module
    docstring gives the grammar)."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        raise SystemExit(EXIT_PASS)
    command, *rest = argv or [""]
    if command not in COMMANDS:
        raise SystemExit(_fail_usage(f"expected a command (see --help), got {command!r}"))
    run, flags, positionals = COMMANDS[command]
    values = {dest: default for dest, _, default in OPTIONS.values()}
    pending = list(positionals)
    words = iter(rest)
    for word in words:
        if word.startswith("--"):
            name, eq, text = word.partition("=")
            if name not in flags:
                raise SystemExit(_fail_usage(f"{command} takes no flag {name}"))
            text = text if eq else next(words, None)
            if text is None:
                raise SystemExit(_fail_usage(f"{name} needs a value"))
        elif pending:
            name, text = pending.pop(0), word
        else:
            raise SystemExit(_fail_usage(f"{command} takes no further argument {word!r}"))
        dest, kind, _ = OPTIONS[name]
        try:
            values[dest] = kind(text)
        except (KeyError, ValueError):
            raise SystemExit(_fail_usage(f"invalid {name} value {text!r}")) from None
    if pending:
        raise SystemExit(_fail_usage(f"{command} needs the integers {' '.join(positionals)}"))
    return run, SimpleNamespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    run, cfg = parse_argv(sys.argv[1:] if argv is None else argv)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
