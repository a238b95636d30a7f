"""Reports of the benchmark corpus stay byte-identical.

Every job of every `perfbench/workloads.py` workload, at the seeds below,
is run through `gcr.cli.main` in this process.  The exit code, the report
(sorted keys, without `elapsed_ms`) and stderr are hashed per
`workload/seed/id` and compared with `tests/data/report_digests.json`.

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


def _digest(code: int, out: str, err: str) -> str:
    if out:
        report = json.loads(out)
        report.pop("elapsed_ms", None)
        out = json.dumps(report, sort_keys=True)
    blob = json.dumps([code, out, err])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def corpus_digests() -> dict:
    """Digest of every corpus job, keyed by workload/seed/id."""
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for job in workloads.jobs(name, seed):
                out, err = io.StringIO(), io.StringIO()
                code = cli.main([job["command"]],
                                stdin=io.StringIO(json.dumps(job["doc"])),
                                stdout=out, stderr=err)
                digests[f"{name}/{seed}/{job['id']}"] = _digest(
                    code, out.getvalue(), err.getvalue())
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
