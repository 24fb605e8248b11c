#!/usr/bin/env python3
"""Record the expected outputs the benchmark's gates compare against.

    python3 bench/record.py

Runs the current hwfib command line and writes bench/expected.json: the
sha256 and counts of every survey invocation the benchmark makes (one per
survey seed), and the abelianization divisors.  The recorded values are the
reference every later run is checked against, so re-record only when an
output format changes on purpose, in a change that touches nothing else.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import EXPECTED_PATH, SURVEY_SAMPLE, run_child, survey_args

SURVEY_SEEDS = 16
ABELIANIZE = ("80 162", "2 6")


def record(args: tuple[str, ...]) -> bytes:
    code, out, err, _, _ = run_child(args)
    if code != 0:
        sys.exit(f"hwfib {' '.join(args)} exited {code}: {err.decode()}")
    return out


def survey_record(args: tuple[str, ...]) -> dict:
    out = record(args)
    summary = json.loads(out.splitlines()[-1])
    return {
        "args": " ".join(args),
        "sha256": hashlib.sha256(out).hexdigest(),
        **{k: summary[k] for k in ("candidates", "crystallographic", "hantzsche_wendt",
                                   "verified_pass", "verified_fail")},
    }


def main() -> int:
    expected = {
        "survey_n5": [survey_record(survey_args(5, SURVEY_SAMPLE, s)) for s in range(SURVEY_SEEDS)],
        "survey_n3": survey_record(survey_args(3)),
        "abelianize": {
            rn: json.loads(record(("abelianize", *rn.split(), "--format", "json")))["divisors"]
            for rn in ABELIANIZE
        },
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
