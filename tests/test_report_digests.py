"""Reports of the benchmark corpus stay byte-identical.

Every job of every `perfbench/workloads.py` workload, at the seeds below,
is run through `gcr.cli.main` in this process.  The exit code, the report
(sorted keys, without `elapsed_ms`) and stderr are hashed per
`workload/seed/id` and compared with `tests/data/report_digests.json`.
The corpus never builds a conjugated cocharacter, so a fixed set of extra
jobs, keyed `extra/id`, covers that path: `limit` with a conjugator, and
`check`, `witness` and `semisimplify` on lower-triangular tuples, whose
adapted bases are not the standard one.

This is a change detector, not a correctness check: the stored digests are
whatever the program printed when the file was written, wrong answers
included (the hidden-flag jobs, ROADMAP item 1).  A change that alters
reports on purpose regenerates the file with

    PYTHONPATH=src python tests/test_report_digests.py --write

and lists the changed job ids in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data", "report_digests.json")
SEEDS = (101, 303)

sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

from gcr import cli  # noqa: E402


_GF3 = {"kind": "prime_field", "p": 3}
_GF5 = {"kind": "prime_field", "p": 5}
_GF7 = {"kind": "prime_field", "p": 7}
_QQ = {"kind": "rationals"}

# (field, lambda, conjugator, matrix or list of matrices), one limit job each
_LIMITS = {
    "limit-F5-matrix-exists": (_GF5, [1, 0], [["1", "2"], ["3", "4"]],
                               [["0", "4"], ["3", "1"]]),
    "limit-F5-matrix-absent": (_GF5, [1, 0], [["1", "2"], ["3", "4"]],
                               [["4", "0"], ["4", "2"]]),
    "limit-F5-matrices-exists": (_GF5, [2, 1, 0],
                                 [["1", "1", "0"], ["0", "1", "1"], ["1", "0", "1"]],
                                 [[["4", "0", "2"], ["0", "2", "0"], ["1", "1", "0"]],
                                  [["1", "0", "3"], ["1", "0", "4"], ["3", "2", "1"]]]),
    "limit-F5-matrices-absent": (_GF5, [1, 0, -1],
                                 [["2", "1", "0"], ["0", "1", "3"], ["1", "0", "2"]],
                                 [[["2", "3", "3"], ["0", "1", "0"], ["3", "4", "0"]],
                                  [["0", "1", "1"], ["3", "4", "3"], ["1", "3", "4"]]]),
    "limit-Q-matrix-exists": (_QQ, [1, -1], [["1", "1/2"], ["-1", "1"]],
                              [["5/3", "-4/3"], ["-11/3", "-2/3"]]),
    "limit-Q-matrix-absent": (_QQ, [1, -1], [["1", "1/2"], ["-1", "1"]],
                              [["11/9", "-1/9"], ["16/9", "1/9"]]),
    "limit-Q-matrices-exists": (_QQ, [1, 1, 0],
                                [["1", "0", "2"], ["1", "1", "0"], ["0", "-1", "1"]],
                                [[["5", "-3", "-3"], ["13/2", "-9/2", "-15/2"],
                                  ["-5/2", "5/2", "11/2"]],
                                 [["1", "0", "0"], ["0", "1", "0"],
                                  ["1/2", "-1/2", "1/2"]]]),
    "limit-Q-matrices-absent": (_QQ, [0, 1, 2],
                                [["1", "0", "2"], ["1", "1", "0"], ["0", "-1", "1"]],
                                [[["5", "-4", "-4"], ["1", "0", "-2"], ["1", "-1", "1"]],
                                 [["2", "-1", "-2"], ["1", "0", "-2"], ["0", "0", "1"]]]),
    "limit-F5-singular-conjugator": (_GF5, [1, 0], [["1", "2"], ["2", "4"]],
                                     [["1", "0"], ["0", "1"]]),
}

# lower-triangular tuples: their invariant flags end in the last
# coordinates, so every adapted basis permutes or mixes the standard one
_TUPLES = {
    "F3-jordan2": (_GF3, [[["1", "0"], ["1", "1"]]]),
    "F3-unitri3": (_GF3, [[["1", "0", "0"], ["1", "1", "0"], ["2", "0", "1"]],
                          [["1", "0", "0"], ["0", "1", "0"], ["0", "1", "1"]]]),
    "F7-lower3": (_GF7, [[["2", "0", "0"], ["1", "3", "0"], ["4", "5", "6"]],
                         [["1", "0", "0"], ["0", "1", "0"], ["1", "0", "1"]]]),
    "F7-lower4": (_GF7, [[["3", "0", "0", "0"], ["1", "3", "0", "0"],
                          ["0", "2", "5", "0"], ["6", "0", "1", "5"]]]),
    "Q-lower3": (_QQ, [[["1", "0", "0"], ["1", "1", "0"], ["0", "1", "1"]],
                       [["2", "0", "0"], ["1", "3", "0"], ["1/2", "1", "5"]]]),
}


def extra_jobs() -> list:
    """The fixed jobs beside the corpus, as (id, command, doc)."""
    jobs = []
    for name, (field, lam, conj, x) in _LIMITS.items():
        key = "matrices" if isinstance(x[0][0], list) else "matrix"
        jobs.append((name, "limit", {"command": "limit", "field": field,
                                     "lambda": lam, "conjugator": conj, key: x}))
    for name, (field, mats) in _TUPLES.items():
        for command in ("check", "witness", "semisimplify"):
            jobs.append((f"{command}-{name}", command,
                         {"command": command, "field": field, "matrices": mats}))
    return jobs


def _run(command: str, doc: dict) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main([command], stdin=io.StringIO(json.dumps(doc)),
                    stdout=out, stderr=err)
    return _digest(code, out.getvalue(), err.getvalue())


def _digest(code: int, out: str, err: str) -> str:
    if out:
        report = json.loads(out)
        report.pop("elapsed_ms", None)
        out = json.dumps(report, sort_keys=True)
    blob = json.dumps([code, out, err])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def corpus_digests() -> dict:
    """Digest of every corpus job, keyed by workload/seed/id, and of every
    extra job, keyed by extra/id."""
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for job in workloads.jobs(name, seed):
                digests[f"{name}/{seed}/{job['id']}"] = _run(job["command"],
                                                              job["doc"])
    for name, command, doc in extra_jobs():
        digests[f"extra/{name}"] = _run(command, doc)
    return digests


def test_corpus_reports_unchanged():
    with open(DATA, encoding="utf-8") as fh:
        expected = json.load(fh)
    actual = corpus_digests()
    changed = sorted(k for k in expected.keys() & actual.keys()
                     if expected[k] != actual[k])
    missing = sorted(expected.keys() - actual.keys())
    added = sorted(actual.keys() - expected.keys())
    if changed or missing or added:
        raise AssertionError(
            f"changed: {changed}; missing: {missing}; new: {added}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(corpus_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
