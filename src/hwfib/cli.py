"""Command-line front end.

Subcommands: ``verify`` a candidate description against the Fibonacci-group
quotient map, ``survey`` a whole dimension (full enumeration or a seeded
sample), ``symbolic`` for the one-dimensional periodicity engine,
``abelianize`` for Fibonacci-group abelianizations, and ``show`` for a
human-readable look at one candidate.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 invalid
input or usage.  JSON output is byte-deterministic for a fixed
configuration (including the seed); runtimes are only ever reported in text
mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Iterable, Optional

from .epimorphism import symbolic_sequence, verify_main_theorem
from .exact import format_rational
from .fpgroup import abelianization, fibonacci_presentation
from .hwgroup import (
    candidate_count,
    candidate_from_index,
    candidate_from_json_dict,
    candidate_indices,
    candidate_to_json_dict,
    classify,
    classify_index,
    cyclic_hw,
    translation_lattice,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

FULL_ENUMERATION_LIMIT = 5  # dimensions above this need --sample
# Largest dimension verify, show and survey accept: classifying a candidate
# walks its 2^(n-1) holonomy classes.  Measured on a 2-core x86-64 VM with
# Python 3.11.7: classify of cyclic n=17, 19 and 21 takes 0.025 s, 0.10-0.11 s
# and 0.34-0.40 s (0.32-0.37 s at n=21 conjugated by a dense integer
# translation), and each step of 2 in n costs about 4x.
MAX_DIM = 21
# Largest dimension symbolic accepts: the all-k run builds n sequences of
# 3n-1 terms, each a product of n-1 terms packed into ints of 3n(n-1) bits,
# so it grows about n^4.  Measured on the same VM: 0.3-0.4 s at n=41,
# 0.9-1.4 s at n=61, 2.1-3.6 s at n=81.
MAX_SYMBOLIC_DIM = 61
# Largest r and n abelianize accepts, so that abelianize 2 1000000 exits
# instead of building a 10^6 x 10^6 relator matrix.  On the F(m-1, 2m)
# family the Smith normal form grows about n^3 (measured on the same VM:
# 0.007 s at n=82, 0.04 s at n=162, 0.21 s at n=322).  Other (r, n) inside
# the limit can take far longer through coefficient growth in the
# elimination: F(322, 60) takes 10 s, F(162, 92) 14 s and F(162, 220) 85 s.
MAX_ABELIANIZE = 322


def Pool(processes: int):
    """``multiprocessing.Pool``, imported only when a survey asks for
    workers: the import costs every other start of the CLI about 11 ms."""
    from multiprocessing import Pool

    return Pool(processes=processes)


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
    return json.dumps(data, separators=(",", ":"))


def _load_candidate(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    candidate = candidate_from_json_dict(data)
    if candidate.dim > MAX_DIM:
        raise ValueError(_over_cap(candidate.dim))
    return candidate


def _translations_text(candidate) -> str:
    return " ".join(
        "(" + ",".join(format_rational(t) for t in vec) + ")"
        for vec in candidate.translations
    )


def cmd_verify(cfg: argparse.Namespace) -> int:
    if not cfg.input_path:
        return _fail_usage("verify needs --input FILE")
    try:
        candidate = _load_candidate(cfg.input_path)
    except (OSError, ValueError) as exc:
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


# wire text of a translation entry of u half units, u in {0, 1}
_HALF_UNIT_TEXT = tuple(format_rational(Fraction(u, 2)) for u in (0, 1))


def _survey_record(dim: int, index: int) -> dict:
    """Survey record of the candidate at index, classified from the bits of
    the index.  Only a Hantzsche-Wendt candidate is built as an HWCandidate,
    for the quotient-map verification; the translations are written from
    the bits, as candidate_to_json_dict would write them."""
    units, cl = classify_index(dim, index)
    verdict = None
    if cl.hantzsche_wendt:
        verdict = verify_main_theorem(candidate_from_index(dim, index)).verdict
    return {
        "index": index,
        "dim": dim,
        "translations": [[_HALF_UNIT_TEXT[u] for u in vec] for vec in units],
        "crystallographic": cl.crystallographic,
        "torsion_free": cl.torsion_free,
        "hw": cl.hantzsche_wendt,
        "verdict": verdict,
    }


def cmd_survey(cfg: argparse.Namespace) -> int:
    if cfg.dim is None:
        return _fail_usage("survey needs --dim N")
    if cfg.dim % 2 == 0 or cfg.dim < 3:
        return _fail_usage(f"dimension must be odd and >= 3, got {cfg.dim}")
    if cfg.dim > FULL_ENUMERATION_LIMIT and cfg.sample is None:
        return _fail_usage(
            f"full enumeration of dimension {cfg.dim} has {candidate_count(cfg.dim)} "
            f"candidates; pass --sample N (with --seed) instead"
        )
    if cfg.dim > MAX_DIM:
        return _fail_usage(_over_cap(cfg.dim))
    if cfg.sample is not None and cfg.sample < 1:
        return _fail_usage("--sample must be positive")
    cpus = os.cpu_count() or 1
    if not 1 <= cfg.jobs <= cpus:
        return _fail_usage(f"--jobs must lie in [1, {cpus}], got {cfg.jobs}")

    record = functools.partial(_survey_record, cfg.dim)
    indices = candidate_indices(cfg.dim, cfg.sample, cfg.seed)
    if cfg.jobs > 1:
        pool = Pool(processes=cfg.jobs)
        try:
            records = pool.imap(record, indices, chunksize=64)
            counts = _emit_survey_records(cfg, records)
        finally:
            pool.close()
            pool.join()
    else:
        counts = _emit_survey_records(cfg, map(record, indices))

    summary = {
        "summary": True,
        "dim": cfg.dim,
        "candidates": counts["total"],
        "crystallographic": counts["crystallographic"],
        "torsion_free": counts["torsion_free"],
        "hantzsche_wendt": counts["hw"],
        "verified_pass": counts["pass"],
        "verified_fail": counts["fail"],
    }
    if cfg.output_format == "json":
        _emit(_dumps(summary))
    else:
        _emit(
            f"surveyed {counts['total']} candidates in dimension {cfg.dim}: "
            f"{counts['crystallographic']} crystallographic, "
            f"{counts['hw']} hantzsche-wendt, "
            f"{counts['pass']} verified pass, {counts['fail']} verified fail"
        )
    return EXIT_PASS if counts["fail"] == 0 else EXIT_FAIL


def _emit_survey_records(cfg: argparse.Namespace, records: Iterable[dict]) -> dict:
    counts = {"total": 0, "crystallographic": 0, "torsion_free": 0, "hw": 0, "pass": 0, "fail": 0}
    for record in records:
        counts["total"] += 1
        counts["crystallographic"] += record["crystallographic"]
        counts["torsion_free"] += record["torsion_free"]
        counts["hw"] += record["hw"]
        if record["verdict"] == "pass":
            counts["pass"] += 1
        elif record["verdict"] == "fail":
            counts["fail"] += 1
        if cfg.output_format == "json":
            _emit(_dumps(record))
        else:
            verdict = record["verdict"] or "-"
            _emit(
                f"index={record['index']} crystallographic={'y' if record['crystallographic'] else 'n'} "
                f"torsion_free={'y' if record['torsion_free'] else 'n'} "
                f"hw={'y' if record['hw'] else 'n'} verdict={verdict}"
            )
    return counts


def cmd_symbolic(cfg: argparse.Namespace) -> int:
    if cfg.dim is None:
        return _fail_usage("symbolic needs --dim N")
    n = cfg.dim
    if n % 2 == 0 or n < 3:
        return _fail_usage(f"dimension must be odd and >= 3, got {n}")
    if n > MAX_SYMBOLIC_DIM:
        return _fail_usage(
            f"dimension {n} is above the limit of {MAX_SYMBOLIC_DIM}: the "
            f"check for all k grows about n^4"
        )
    if cfg.k is not None and not 0 <= cfg.k <= n - 1:
        return _fail_usage(f"--k must lie in [0, {n - 1}], got {cfg.k}")
    ks = [cfg.k] if cfg.k is not None else list(range(n))
    started = time.perf_counter()
    checks = []
    for k in ks:
        seq = symbolic_sequence(n, k)
        checks.append(
            {
                "k": k,
                "periodic": seq.periodic(),
                "recursion_consistent": seq.recursion_consistent(),
            }
        )
    elapsed = time.perf_counter() - started
    all_ok = all(c["periodic"] and c["recursion_consistent"] for c in checks)
    if cfg.output_format == "json":
        _emit(
            _dumps(
                {
                    "command": "symbolic",
                    "dim": n,
                    "period": 2 * n,
                    "checks": checks,
                    "verdict": "pass" if all_ok else "fail",
                }
            )
        )
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


def cmd_abelianize(cfg: argparse.Namespace) -> int:
    r, n = cfg.r, cfg.n
    if r is None or n is None or r < 1 or n < 1:
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
        _emit(
            _dumps(
                {
                    "command": "abelianize",
                    "r": r,
                    "n": n,
                    "divisors": list(divisors),
                    "nontrivial": nontrivial,
                    "free_rank": free_rank,
                    "order": order,
                    "even_divisors": even,
                    "holonomy_rank": holonomy_rank,
                }
            )
        )
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


def cmd_show(cfg: argparse.Namespace) -> int:
    if cfg.input_path:
        try:
            candidate = _load_candidate(cfg.input_path)
        except (OSError, ValueError) as exc:
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
        _emit(
            _dumps(
                {
                    "candidate": candidate_to_json_dict(candidate),
                    "classification": cl.to_json_dict(),
                    "holonomy_order": cl.holonomy_order,
                    "lattice": {
                        "rank": lattice.rank,
                        "denominator": lattice.den,
                        "basis": [list(row) for row in lattice.basis],
                    },
                }
            )
        )
    else:
        _emit(f"candidate: dim {candidate.dim}")
        for i, g in enumerate(candidate.generators):
            _emit(f"generator {i}: {g}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwfib",
        description=(
            "Exact verification of Hantzsche-Wendt groups and their "
            "Fibonacci-group quotient maps"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, dim=False, k=False, inp=False, sampling=False):
        if dim:
            p.add_argument("--dim", type=int, help="ambient dimension (odd)")
        if k:
            p.add_argument("--k", type=int, help="position of the +1 seed generator")
        if inp:
            p.add_argument("--input", dest="input_path", help="candidate JSON file")
        if sampling:
            p.add_argument("--sample", type=int, help="number of random candidates")
            p.add_argument("--seed", type=int, help="seed for --sample")
            p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument(
            "--format",
            dest="output_format",
            choices=("json", "text"),
            default="text",
            help="output format (default: text)",
        )

    p_verify = sub.add_parser("verify", help="verify one candidate from a JSON file")
    add_common(p_verify, inp=True)

    p_survey = sub.add_parser("survey", help="classify and verify a whole dimension")
    add_common(p_survey, dim=True, sampling=True)

    p_sym = sub.add_parser("symbolic", help="symbolic one-dimensional periodicity check")
    add_common(p_sym, dim=True, k=True)

    p_ab = sub.add_parser("abelianize", help="abelianization of a Fibonacci group")
    p_ab.add_argument("r", type=int, help="relator length parameter r of F(r, n)")
    p_ab.add_argument("n", type=int, help="generator count n of F(r, n)")
    add_common(p_ab)

    p_show = sub.add_parser("show", help="describe one candidate group")
    add_common(p_show, dim=True, inp=True)

    return parser


COMMANDS = {
    "verify": cmd_verify,
    "survey": cmd_survey,
    "symbolic": cmd_symbolic,
    "abelianize": cmd_abelianize,
    "show": cmd_show,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
