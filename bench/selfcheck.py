#!/usr/bin/env python3
"""Self-check of the benchmark harness on tiny cases.

    python3 bench/selfcheck.py

Runs every gate of run.py on an invocation that takes well under a second,
replays one invocation under the tracer, and makes sure the gates catch a
wrong expectation: a survey digest that cannot match and a usage error.
Prints one line per problem and exits 1 if there is any, else exits 0.
"""

from __future__ import annotations

import os
import sys

from run import (
    ROOT,
    SRC,
    WORK,
    Call,
    Gate,
    check_abelianize,
    check_survey,
    check_symbolic,
    load_expected,
    run_in_process,
    survey_args,
    verify_call,
)

N3_HW = 8  # golden count of Hantzsche-Wendt candidates in dimension 3


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    from tracing import Tracer, hooked

    expected = load_expected()
    problems = []

    survey_n3 = expected["survey_n3"]
    if (survey_n3["candidates"], survey_n3["hantzsche_wendt"]) != (64, N3_HW):
        problems.append(f"recorded n=3 survey is not 64 candidates with {N3_HW} HW")
    f26 = expected["abelianize"]["2 6"]
    if [x for x in f26 if x not in (0, 1)] != [4, 4]:
        problems.append(f"recorded F(2,6) divisors {f26} are not 4, 4")

    cases = (
        verify_call(3),
        Call("survey_n3_s", survey_args(3), check_survey(survey_n3)),
        Call("symbolic_n5_s", ("symbolic", "--dim", "5", "--format", "json"), check_symbolic(5)),
        Call("abelianize_2_6_s", ("abelianize", "2", "6", "--format", "json"),
             check_abelianize(f26)),
    )
    gate = Gate()
    for call in cases:
        gate.run(call)
    problems += gate.problems

    tracer = Tracer()
    with hooked(tracer) as missing:
        code, out, _ = run_in_process(cases[0], tracer)
    gate.check(cases[0], code, out)
    problems += [f"hook not installed: {hook}" for hook in missing]
    layers = {name for name, _, _, _ in tracer.spans}
    for layer in ("cli.main", "hwgroup.classify", "hwgroup.lattice", "fpgroup.relators"):
        if layer not in layers:
            problems.append(f"traced verify of n=3 recorded no {layer} span")

    must_fail = (
        Call("survey_n3_s", survey_args(3), check_survey({"sha256": "0" * 64})),
        Call("symbolic_n4_s", ("symbolic", "--dim", "4", "--format", "json"), check_symbolic(4)),
    )
    for call in must_fail:
        wrong = Gate()
        wrong.run(call)
        if wrong.failed != 1:
            problems.append(f"gate passed {' '.join(call.args)} against a wrong expectation")

    for problem in problems:
        print(f"selfcheck: {problem}")
    print(f"selfcheck: {'FAIL' if problems else 'ok'} ({gate.attempted} gated invocations)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
