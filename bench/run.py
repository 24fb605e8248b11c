#!/usr/bin/env python3
"""Benchmark of the hwfib command line.

Run from the repository root:

    python3 bench/run.py --workload cyclic-verify --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the run is timed.  Every sample is a fresh interpreter
running one ``hwfib`` invocation, the way the console script does, one child
at a time and never with ``--jobs``.  The run repeats the workload's two
invocations until ``--seconds`` have passed.  Before each invocation it also
times one fixed stdlib-only reference computation and one fresh ``import
hwfib`` (``setup_s``).  Every timing is the median over the run of each
sample scaled by the reference sample just before it, so that the drift of a
shared machine's speed cancels out.

With ``--trace 1`` the run is traced instead, over every workload.  It first
times a few untraced process rounds, then replays the same invocations in
this process, alternately without and with spans around the calls into each
hwfib layer (see ``tracing.py``).  It reports per-layer totals, self times,
counts and the tracing overhead.

``--workload all`` runs every workload timed, then the traced run when
``--trace 1``, and prints every named metric.

Every invocation passes a correctness gate; a miss counts as failed.  The
last line of stdout is the result object; the line before it is the full
report (environment, percentiles, samples, problems), which ``--out`` also
writes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED_PATH = BENCH / "expected.json"

WORKLOADS = ("cyclic-verify", "survey-n5", "fibonacci")
SURVEY_SAMPLE = 1000  # candidates per survey-n5 invocation
MIN_ROUNDS = 3
TRACE_ROUNDS = 3  # untraced process rounds per workload in a traced run
TRACE_PASSES = 5  # untraced and traced in-process replays in a traced run
CHILD_TIMEOUT_S = 60
CRITERION_2_BOUND_S = 1.0  # acceptance criterion 2: cyclic n=13 verify
# Timed metrics are reported in seconds at the machine speed where the
# reference computation below takes this long: each sample's wall time is
# multiplied by REFERENCE_NOMINAL_S / the reference sample taken just before
# it, and the metric is the median of those.
REFERENCE_NOMINAL_S = 0.25

# The code of the `hwfib` console script.
ENTRY = "import sys; from hwfib.cli import main; sys.exit(main())"
IMPORT_ONLY = "import sys, hwfib; sys.stdout.write(hwfib.__file__)"

# A fixed stdlib-only computation, timed in a fresh interpreter every round
# next to the hwfib invocations.  It imports nothing from hwfib, so no change
# to the package can move it; it tracks the speed of the machine, which
# drifts by tens of percent over minutes on a shared host.
REFERENCE = """\
import sys
from fractions import Fraction
acc = {}
for i in range(40000):
    q = Fraction(i % 97, 2 + i % 5)
    key = (i % 64, q.denominator)
    acc[key] = acc.get(key, 0) + q
sys.stdout.write(str(sum(acc.values())))
"""

# Children import hwfib from this checkout's sources and keep byte-code
# caches, as an installed package would.
CHILD_ENV = {
    k: v
    for k, v in os.environ.items()
    if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")
}
CHILD_ENV["PYTHONPATH"] = str(SRC)


@dataclass(frozen=True)
class Call:
    """One hwfib invocation, the metric its wall time feeds, and its gate:
    ``check(stdout)`` returns a problem or None once the exit code is 0.
    The child runs ``python -c code *args``."""

    metric: str
    args: tuple[str, ...]
    check: Callable[[bytes], Optional[str]]
    code: str = ENTRY


# ---------------------------------------------------------------------------
# correctness gates

def check_verify(n: int, candidate: dict) -> Callable[[bytes], Optional[str]]:
    def check(out: bytes) -> Optional[str]:
        report = json.loads(out)
        if report["candidate"] != candidate:
            return "report names another candidate"
        relators = report["relators"]
        if [r["index"] for r in relators] != list(range(2 * n)):
            return f"expected relators 0..{2 * n - 1}"
        bad = [r["index"] for r in relators if r["trivial"] is not True]
        if bad:
            return f"relators {bad} are not trivial"
        if report["verdict"] != "pass" or report["surjective"] is not True:
            return f"verdict {report['verdict']}"
        return None

    return check


def check_survey(expected: dict) -> Callable[[bytes], Optional[str]]:
    def check(out: bytes) -> Optional[str]:
        if hashlib.sha256(out).hexdigest() != expected["sha256"]:
            return "stdout differs from the recorded digest"
        summary = json.loads(out.splitlines()[-1])
        if summary["verified_fail"] != 0:
            return f"verified_fail {summary['verified_fail']}"
        return None

    return check


def check_symbolic(n: int) -> Callable[[bytes], Optional[str]]:
    def check(out: bytes) -> Optional[str]:
        doc = json.loads(out)
        checks = doc["checks"]
        if doc["dim"] != n or doc["period"] != 2 * n:
            return f"dim {doc['dim']} period {doc['period']}"
        if [c["k"] for c in checks] != list(range(n)):
            return f"expected checks for k = 0..{n - 1}"
        bad = [
            c["k"]
            for c in checks
            if c["periodic"] is not True or c["recursion_consistent"] is not True
        ]
        if bad or doc["verdict"] != "pass":
            return f"k = {bad} not periodic or not recursion-consistent"
        return None

    return check


def check_abelianize(divisors: list[int]) -> Callable[[bytes], Optional[str]]:
    def check(out: bytes) -> Optional[str]:
        got = json.loads(out)["divisors"]
        if got != divisors:
            return f"divisors {got} differ from the recorded ones"
        return None

    return check


def check_reference(out: bytes) -> Optional[str]:
    if out != b"33388879/60":
        return f"reference computation printed {out[:40]!r}"
    return None


def check_import(out: bytes) -> Optional[str]:
    if Path(out.decode()) != SRC / "hwfib" / "__init__.py":
        return f"imported hwfib from {out.decode()!r}, not from {SRC}"
    return None


SETUP_CALL = Call("setup_s", (), check_import, IMPORT_ONLY)
REFERENCE_CALL = Call("reference_s", (), check_reference, REFERENCE)


# ---------------------------------------------------------------------------
# workloads

def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def survey_args(dim: int, sample: Optional[int] = None, seed: Optional[int] = None) -> tuple:
    args = ("survey", "--dim", str(dim))
    if sample is not None:
        args += ("--sample", str(sample), "--seed", str(seed))
    return args + ("--format", "json")


def survey_seed(seed: int, expected: dict) -> int:
    """The benchmark seed picks one of the recorded survey seeds."""
    return seed % len(expected["survey_n5"])


def verify_call(n: int) -> Call:
    from hwfib.hwgroup import candidate_to_json_dict, cyclic_hw

    candidate = candidate_to_json_dict(cyclic_hw(n))
    path = WORK / f"cyclic_hw_{n}.json"
    path.write_text(json.dumps(candidate))
    return Call(
        f"verify_n{n}_s",
        ("verify", "--input", str(path.relative_to(ROOT)), "--format", "json"),
        check_verify(n, candidate),
    )


def workload_calls(workload: str, seed: int, expected: dict) -> tuple[Call, Call]:
    """The workload's primary and secondary invocation for this seed."""
    if workload == "cyclic-verify":
        return verify_call(13), verify_call(9)
    if workload == "survey-n5":
        s = survey_seed(seed, expected)
        return (
            Call("survey_n5_s", survey_args(5, SURVEY_SAMPLE, s),
                 check_survey(expected["survey_n5"][s])),
            Call("survey_n3_s", survey_args(3), check_survey(expected["survey_n3"])),
        )
    if workload == "fibonacci":
        return (
            Call("symbolic_n21_s", ("symbolic", "--dim", "21", "--format", "json"),
                 check_symbolic(21)),
            Call("abelianize_n81_s", ("abelianize", "80", "162", "--format", "json"),
                 check_abelianize(expected["abelianize"]["80 162"])),
        )
    raise ValueError(f"unknown workload {workload}")


# ---------------------------------------------------------------------------
# running children

def run_child(args: tuple[str, ...], code: str = ENTRY) -> tuple[int, bytes, bytes, float, int]:
    """Run ``python -c code *args`` in a fresh interpreter and reap it with
    wait4.  Returns exit code, stdout, stderr, wall seconds and max RSS in
    KiB."""
    WORK.mkdir(exist_ok=True)
    with open(WORK / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *args],
            cwd=ROOT, env=CHILD_ENV,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), wall, usage.ru_maxrss


class Gate:
    """Counts invocations attempted and those that missed their gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, call: Call, code: int, out: bytes, err: bytes = b"") -> None:
        self.attempted += 1
        problem = None
        if code != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            problem = f"exit code {code} {tail}"
        else:
            try:
                problem = call.check(out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{call.metric} {' '.join(call.args)}: {problem}")

    def run(self, call: Call) -> tuple[float, int]:
        """Run the call in a child; return wall seconds and max RSS (KiB)."""
        rc, out, err, wall, rss = run_child(call.args, call.code)
        self.check(call, rc, out, err)
        return wall, rss

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / max(self.attempted, 1),
            "problems": self.problems,
        }


def measure(gate: Gate, calls: tuple[Call, ...], seconds: float, min_rounds: int):
    """Rounds of the calls, serially, until at least min_rounds are done and
    the seconds have passed.  Each call is preceded by one reference and one
    setup sample, so those are spread over the run like the others.

    Returns, per metric, (wall seconds, wall seconds of the reference taken
    just before) for every sample, and the largest max RSS (KiB) of the
    calls' children."""
    gate.run(SETUP_CALL)  # untimed: writes the byte-code caches
    samples: dict[str, list[tuple[float, float]]] = {
        c.metric: [] for c in (SETUP_CALL, *calls)}
    peak_rss = 0
    started = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        for call in calls:
            reference = gate.run(REFERENCE_CALL)[0]
            samples[SETUP_CALL.metric].append((gate.run(SETUP_CALL)[0], reference))
            wall, rss = gate.run(call)
            samples[call.metric].append((wall, reference))
            peak_rss = max(peak_rss, rss)
        rounds += 1
    return samples, peak_rss


def timing(samples: list[tuple[float, float]]) -> dict:
    """Median over the samples of wall / reference * REFERENCE_NOMINAL_S,
    plus the highest percentile that has at least ten samples beyond it
    when that lies above the median.  The unscaled median is ``wall``."""
    scaled = [wall / reference * REFERENCE_NOMINAL_S for wall, reference in samples]
    out = {
        "value": statistics.median(scaled),
        "unit": "s",
        "wall": statistics.median(wall for wall, _ in samples),
        "samples": len(samples),
    }
    p = 100 * (len(scaled) - 10) // len(scaled)
    if p > 50:
        out[f"p{p}"] = statistics.quantiles(scaled, n=100, method="inclusive")[p - 1]
    return out


def references(samples: dict[str, list[tuple[float, float]]]) -> list[float]:
    """Every reference sample of a measure() result: each one precedes
    exactly one setup sample."""
    return [reference for _, reference in samples[SETUP_CALL.metric]]


# ---------------------------------------------------------------------------
# timed run

def timed_run(workload: str, seed: int, seconds: float, expected: dict) -> dict:
    calls = workload_calls(workload, seed, expected)
    gate = Gate()
    samples, peak_rss = measure(gate, calls, seconds, MIN_ROUNDS)

    primary, secondary = calls
    named = {metric: timing(values) for metric, values in samples.items()}
    if workload == "survey-n5":
        n5 = named[primary.metric]
        named["survey_cand_per_s"] = {
            "value": SURVEY_SAMPLE / n5["value"], "unit": "1/s",
            "wall": SURVEY_SAMPLE / n5["wall"], "samples": n5["samples"],
        }
    named["peak_rss_mb"] = {"value": peak_rss / 1024, "unit": "MB"}
    gate_summary = gate.summary()
    named["error_rate"] = {"value": gate_summary["error_rate"], "unit": "ratio"}
    report = {
        "mode": "timed",
        "workload": workload,
        "env": environment(seed, expected, workload),
        "rounds": len(samples[primary.metric]),
        "reference_wall_s": statistics.median(references(samples)),
        "named": named,
        "metrics": {
            "primary_s": named[primary.metric],
            "secondary_s": named[secondary.metric],
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
        },
        "invocations": {c.metric: " ".join(c.args) for c in calls},
        "samples": samples,
        **gate_summary,
    }
    if workload == "cyclic-verify":
        # Criterion 2 bounds the unscaled wall time of verify_main_theorem
        # in a test process; the CLI process adds interpreter start, imports
        # and JSON emit on top.
        n13, setup = named["verify_n13_s"]["wall"], named["setup_s"]["wall"]
        report["criterion_2"] = {
            "bound_s": CRITERION_2_BOUND_S,
            "verify_n13_wall_s": n13,
            "verify_n13_wall_over_bound_s": n13 - CRITERION_2_BOUND_S,
            "verify_n13_wall_minus_setup_s": n13 - setup,
        }
    return report


# ---------------------------------------------------------------------------
# traced run

def clear_caches() -> None:
    """Empty every lru_cache in hwfib, so each in-process invocation starts
    as cold as a fresh interpreter."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hwfib") and module:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_in_process(call: Call, tracer=None) -> tuple[int, bytes, float]:
    """Run the call's hwfib main in this process, inside a cli.main span
    when a tracer is given.  Returns exit code, stdout and wall seconds."""
    import hwfib.cli

    main = hwfib.cli.main
    if tracer is not None:
        main = functools.partial(tracer.call, "cli.main", main)
    clear_caches()
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(list(call.args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buffer.getvalue().encode(), time.perf_counter() - start


def replay(calls: dict, gate: Gate, tracer=None) -> tuple[dict, dict]:
    """Every workload's calls once, in this process.  Returns wall seconds
    per workload and stdout per call."""
    seconds, outputs = {}, {}
    for workload, pair in calls.items():
        seconds[workload] = 0.0
        for call in pair:
            code, out, wall = run_in_process(call, tracer)
            gate.check(call, code, out)
            seconds[workload] += wall
            outputs[call] = out
    return seconds, outputs


def tally(call: Call, out: bytes) -> tuple[int, int]:
    """Crystallographic and Hantzsche-Wendt candidates in one output."""
    if call.args[0] == "verify":
        cl = json.loads(out)["classification"]
        return int(cl["crystallographic"]), int(cl["hantzsche_wendt"])
    if call.args[0] == "survey":
        summary = json.loads(out.splitlines()[-1])
        return summary["crystallographic"], summary["hantzsche_wendt"]
    return 0, 0


def per_call_us(fn: Callable, pairs: list, batches: int = 7) -> float:
    """Median microseconds of fn(a, b) over the pairs, in batches of at
    least 20 ms."""
    def batch(reps: int) -> float:
        start = time.perf_counter()
        for _ in range(reps):
            for a, b in pairs:
                fn(a, b)
        return time.perf_counter() - start

    reps = 1
    while batch(reps) < 0.02:
        reps *= 2
    return statistics.median(batch(reps) for _ in range(batches)) / (reps * len(pairs)) * 1e6


def traced_run(seed: int, expected: dict) -> dict:
    from hwfib.epimorphism import build_epimorphism, symbolic_sequence
    from hwfib.hwgroup import cyclic_hw
    from hwfib.isometry import DiagIsometry, SymIsometry1
    from tracing import LAYERS, Tracer, hooked

    gate = Gate()
    calls = {w: workload_calls(w, seed, expected) for w in WORKLOADS}
    process, reference_walls = {}, []
    for workload, pair in calls.items():
        samples, _ = measure(gate, pair, 0, TRACE_ROUNDS)
        reference_walls += references(samples)
        walls = {m: statistics.median(w for w, _ in v) for m, v in samples.items()}
        setup = walls.pop(SETUP_CALL.metric)
        process[workload] = sum(w - setup for w in walls.values())

    # Untraced and traced replays alternate; the medians over the passes
    # give the per-layer figures and the tracing overhead.
    untraced, traced, tracers = [], [], []
    for _ in range(TRACE_PASSES):
        untraced.append(replay(calls, gate)[0])
        tracer = Tracer()
        with hooked(tracer) as missing:
            seconds, outputs = replay(calls, gate, tracer)
        traced.append(seconds)
        tracers.append(tracer)

    crystallographic = hw = 0
    for call, out in outputs.items():
        c, h = tally(call, out)
        crystallographic += c
        hw += h
    images = build_epimorphism(cyclic_hw(13)).images
    terms = symbolic_sequence(21, 0).terms
    totals = [t.totals() for t in tracers]
    first = totals[0]
    candidates = first["hwgroup.decode"]["count"]
    # times are scaled by the reference like the timed metrics
    scale = REFERENCE_NOMINAL_S / statistics.median(reference_walls)
    metrics = {}
    for layer in LAYERS:
        for key, suffix in (("total_s", "_s"), ("self_s", ".self_s")):
            metrics[layer + suffix] = {
                "value": statistics.median(t[layer][key] for t in totals) * scale,
                "unit": "s"}
    metrics.update({
        "hwgroup.candidates": {"value": candidates, "unit": "count"},
        "hwgroup.crystallographic": {"value": crystallographic, "unit": "count"},
        "hwgroup.hw": {"value": hw, "unit": "count"},
        "hwgroup.hw_ratio": {"value": hw / max(candidates, 1), "unit": "ratio"},
        "hwgroup.classify_per_candidate": {
            "value": first["hwgroup.classify"]["count"] / max(candidates, 1), "unit": "ratio"},
        "fpgroup.relator_letters": {
            "value": tracers[0].counts["fpgroup.relator_letters"], "unit": "count"},
        "isometry.compose_us": {
            "value": per_call_us(DiagIsometry.compose, list(zip(images, images[1:]))) * scale,
            "unit": "us"},
        "isometry.sym_compose_us": {
            "value": per_call_us(SymIsometry1.compose, list(zip(terms, terms[1:]))) * scale,
            "unit": "us"},
        "trace.overhead_s": {
            "value": statistics.median(
                sum(t.values()) - sum(u.values()) for t, u in zip(traced, untraced)) * scale,
            "unit": "s"},
    })

    spans_path = WORK / f"spans-seed{seed}.json"
    spans_path.write_text(json.dumps({"layers": LAYERS, "spans": tracers[-1].spans}))
    return {
        "mode": "traced",
        "env": environment(seed, expected, "all"),
        "metrics": metrics,
        "reference_scale": scale,
        "layer_calls": {layer: first[layer]["count"] for layer in LAYERS},
        # Per workload, unscaled seconds of one replay (medians over the
        # passes) next to the process median minus setup_s.  The process
        # also imports the CLI's own modules and tears the interpreter down,
        # which the replay does not.
        "overhead": {
            w: {
                "traced_s": statistics.median(t[w] for t in traced),
                "untraced_s": statistics.median(u[w] for u in untraced),
                "process_minus_setup_s": process[w],
            }
            for w in WORKLOADS
        },
        "missing_hooks": missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
        **gate.summary(),
    }


# ---------------------------------------------------------------------------
# report

def git_commit() -> Optional[str]:
    """Commit of the checkout, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int, expected: dict, workload: str) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }
    if workload in ("survey-n5", "all"):
        env["survey_seed"] = survey_seed(seed, expected)
        env["survey_sample"] = SURVEY_SAMPLE
    return env


def value_only(metrics: dict) -> dict:
    return {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        extra = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}  {extra}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report to this file")
    args = parser.parse_args(argv)

    if not (SRC / "hwfib" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hwfib sources under {SRC}\n")
        return 2
    out_path = Path(args.out).resolve() if args.out else None
    os.chdir(ROOT)  # invocations name their input files relative to the root
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    expected = load_expected()

    if args.workload == "all":
        runs = [timed_run(w, args.seed, args.seconds, expected) for w in WORKLOADS]
        named: dict = {}
        for run in runs:
            named.update({k: v for k, v in run["named"].items()
                          if k not in ("setup_s", "peak_rss_mb", "error_rate")})
        setup = [r["named"]["setup_s"]["value"] for r in runs]
        named["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        named["peak_rss_mb"] = {
            "value": max(r["named"]["peak_rss_mb"]["value"] for r in runs), "unit": "MB"}
        if args.trace:
            runs.append(traced_run(args.seed, expected))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        named["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
        for run in runs:
            print_table(run.get("workload", "traced"), run.get("named", run["metrics"]))
        print_table("all", named)
        metrics = dict(named, **(runs[-1]["metrics"] if args.trace else {}))
        report = {"runs": runs, "named": named}
    else:
        if args.trace:
            report = traced_run(args.seed, expected)
            print_table("traced", report["metrics"])
        else:
            report = timed_run(args.workload, args.seed, args.seconds, expected)
            print_table(args.workload, report["named"])
        attempted, failed, metrics = report["attempted"], report["failed"], report["metrics"]

    if out_path:
        out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": value_only(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
