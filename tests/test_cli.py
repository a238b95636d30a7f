import ast
import io
import itertools
import json
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from gcr.cli import main
from gcr.cochar import Cocharacter
from gcr.jobs import RequestError, parse_request, run
from gcr.linalg import GF, QQ, Matrix
from gcr.selftest import default_cases, run_cases


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


LIMIT_JOB = {"command": "limit", "field": {"kind": "prime_field", "p": 2},
             "lambda": [1, -1], "matrix": [["1", "1"], ["0", "1"]]}


def _without_elapsed(out):
    """The printed report, parsed, without its elapsed_ms, re-serialised
    with sorted keys: equal exactly when the reports' values are equal."""
    report = json.loads(out)
    report.pop("elapsed_ms")
    return json.dumps(report, sort_keys=True)


def test_parse_valid_limit():
    req = parse_request(json.dumps(LIMIT_JOB))
    assert req.command == "limit"
    assert req.field.p == 2
    assert req.cocharacter == Cocharacter((1, -1))


def test_parse_nonprime_modulus():
    doc = dict(LIMIT_JOB, field={"kind": "prime_field", "p": 4})
    with pytest.raises(RequestError) as exc:
        parse_request(json.dumps(doc))
    assert "not prime" in str(exc.value)
    assert exc.value.path == "$.field.p"


def test_parse_noninvertible_generator():
    doc = {"command": "check", "field": {"kind": "prime_field", "p": 2},
           "matrices": [[["1", "0"], ["0", "0"]]]}
    with pytest.raises(RequestError) as exc:
        parse_request(json.dumps(doc))
    assert "not invertible" in str(exc.value)


def test_parse_jagged_matrix():
    doc = dict(LIMIT_JOB, matrix=[["1", "1"], ["0"]])
    with pytest.raises(RequestError) as exc:
        parse_request(json.dumps(doc))
    assert "jagged" in str(exc.value)
    assert "$.matrix[1]" in str(exc.value)


def test_parse_unknown_key():
    doc = dict(LIMIT_JOB, extra=1)
    with pytest.raises(RequestError):
        parse_request(json.dumps(doc))


def test_parse_bad_json():
    with pytest.raises(RequestError):
        parse_request("{not json")


def test_run_limit_job():
    report = run(parse_request(json.dumps(LIMIT_JOB)))
    assert report["exists"] is True
    assert report["limit"] == [["1", "0"], ["0", "1"]]


def test_run_limit_absent():
    doc = dict(LIMIT_JOB, matrix=[["1", "0"], ["1", "1"]])
    report = run(parse_request(json.dumps(doc)))
    assert report["exists"] is False


def test_run_optimize_job():
    doc = {"command": "optimize", "weights": [[2, 0], [0, 2]]}
    report = run(parse_request(json.dumps(doc)))
    assert report["lambda_opt"] == [1, 1]
    assert report["value_sq"] == "2"
    assert report["mu"] == "2"


def test_optimize_coefficients_follow_sorted_distinct_weights():
    weights = [[2, -1], [0, 3], [-1, 0], [1, 1]]

    def report(ws):
        out = run(parse_request(json.dumps({"command": "optimize", "weights": ws})))
        out.pop("elapsed_ms")
        return out

    base = report(weights)
    for ws in itertools.permutations(weights):
        assert report(list(ws)) == base
    assert report(weights + weights[::2]) == base
    # hull_coeffs and margins are indexed by the sorted distinct weights
    ordered = sorted(map(tuple, weights))
    coeffs = [Fraction(c) for c in base["hull_coeffs"]]
    point = [Fraction(x) for x in base["min_point"]]
    assert [sum(c * w[d] for c, w in zip(coeffs, ordered))
            for d in range(2)] == point
    value_sq = Fraction(base["value_sq"])
    assert [Fraction(m) for m in base["margins"]] == [
        sum(p * x for p, x in zip(point, w)) - value_sq for w in ordered]
    assert report([[3], [1]])["hull_coeffs"] == ["1", "0"]


def test_run_check_adjoint_corpus():
    # the finite group generated by the adjoint generators over F_2 is
    # completely reducible (see the self-test corpus); the report carries a
    # machine-checkable complement certificate
    from gcr.jobs import fmt_matrix
    from gcr.selftest import adjoint_sl2_tuple
    h = adjoint_sl2_tuple(2)
    doc = {"command": "check", "field": {"kind": "prime_field", "p": 2},
           "matrices": [fmt_matrix(c) for c in h]}
    report = run(parse_request(json.dumps(doc)))
    assert report["verdict"] == "completely reducible"
    assert report["complements"][0] is not None


def count_complements(monkeypatch):
    """(subspaces passed to engine.has_invariant_complement, in call order;
    the unwrapped function)."""
    import gcr.engine
    real = gcr.engine.has_invariant_complement
    calls = []

    def counted(h, w):
        calls.append(w)
        return real(h, w)

    monkeypatch.setattr(gcr.engine, "has_invariant_complement", counted)
    return calls, real


def test_check_solves_each_complement_once(monkeypatch):
    # composition_series keeps the complements it solves; the check report
    # reads them, in series order, instead of solving every system again
    from gcr.jobs import fmt_matrix
    calls, real = count_complements(monkeypatch)
    docs = [
        {"command": "check", "field": {"kind": "rationals"},
         "matrices": [[["1", "1", "0"], ["0", "1", "0"], ["0", "0", "2"]]]},
        {"command": "check", "field": {"kind": "prime_field", "p": 7},
         "matrices": [[["2", "0", "1", "0"], ["0", "3", "0", "0"],
                       ["0", "0", "2", "0"], ["0", "0", "0", "5"]],
                      [["1", "0", "0", "0"], ["0", "1", "0", "4"],
                       ["0", "0", "1", "0"], ["0", "0", "0", "1"]]]},
    ]
    for doc in docs:
        calls.clear()
        req = parse_request(json.dumps(doc))
        report = run(req)
        assert len(report["series"]) > 2
        assert [fmt_matrix(w.basis) for w in calls] == report["series"][1:-1]
        want = [real(req.matrices, w) for w in calls]
        assert report["complements"] == [
            None if c is None else fmt_matrix(c.basis) for c in want]


def test_witness_solves_complements_through_first_non_split(monkeypatch):
    # the witness names the first series member without an invariant
    # complement, so no complement past that member is solved; the first two
    # tuples have proper members past it
    from gcr.jobs import fmt_matrix
    calls, real = count_complements(monkeypatch)
    docs = [
        ({"command": "witness", "field": {"kind": "rationals"},
          "matrices": [[["1", "1", "0"], ["0", "1", "0"], ["0", "0", "2"]]]},
         1),
        ({"command": "witness", "field": {"kind": "prime_field", "p": 5},
          "matrices": [[["1", "1", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "1", "1"], ["0", "0", "0", "1"]]]}, 1),
        ({"command": "witness", "field": {"kind": "rationals"},
          "matrices": [[["2", "0", "0"], ["0", "1", "1"], ["0", "0", "1"]]]},
         2),
    ]
    for doc, step in docs:
        calls.clear()
        req = parse_request(json.dumps(doc))
        report = run(req)
        flag = report["witness"]["flag"]
        assert report["witness"]["step"] == step and len(flag) > step
        assert [fmt_matrix(w.basis) for w in calls] == flag[:step]
        assert [real(req.matrices, w) is None for w in calls] == \
            [False] * (step - 1) + [True]


def test_cli_determinism():
    code1, out1, _ = run_cli(["limit"], json.dumps(LIMIT_JOB))
    code2, out2, _ = run_cli(["limit"], json.dumps(LIMIT_JOB))
    assert code1 == code2 == 0
    assert _without_elapsed(out1) == _without_elapsed(out2)


def test_cli_threads_option_is_gone():
    code, out, err = run_cli(["limit", "--threads", "4"], json.dumps(LIMIT_JOB))
    assert code == 1 and out == ""
    assert "usage: gcr" in err and "unrecognized arguments: --threads 4" in err


def test_cli_usage_and_help_use_the_given_streams():
    code, out, err = run_cli(["bogus"])
    assert code == 1 and out == ""
    assert "usage: gcr" in err and "invalid choice: 'bogus'" in err
    code, out, err = run_cli(["--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: gcr") and "--budget" in out


def test_cli_invalid_input_exit_1():
    code, _, err = run_cli(["limit"], "{not json")
    assert code == 1 and "error" in err

    doc = dict(LIMIT_JOB, field={"kind": "prime_field", "p": 4})
    code, _, err = run_cli(["limit"], json.dumps(doc))
    assert code == 1 and "not prime" in err


def test_cli_deeply_nested_json_exit_1():
    code, out, err = run_cli(["check"], "[" * 100000 + "]" * 100000)
    assert code == 1 and out == ""
    assert err.startswith("error: $: invalid JSON:")


def test_cli_huge_integer_literal_exit_1():
    doc = '{"command": "check", "budget": ' + "9" * 5000 + "}"
    code, out, err = run_cli(["check"], doc)
    assert code == 1 and out == ""
    assert err.startswith("error: $: invalid JSON:")


def test_cli_rational_exponent_notation_refused_fast():
    doc = {"command": "check", "field": {"kind": "rationals"},
           "matrices": [[["1e999999999"]]]}
    start = time.monotonic()
    code, out, err = run_cli(["check"], json.dumps(doc))
    assert time.monotonic() - start < 1
    assert code == 1 and out == ""
    assert "$.matrices[0][0][0]" in err and "exponent" in err


@pytest.mark.parametrize("p, entry", [
    (None, "1_0"),
    (None, "٣"),
    (7, "٣"),
    (None, " 1"),
    (7, " 1"),
    (None, "\t2\n"),
    (7, "\t2\n"),
    (7, "1 "),
    (7, -1),
])
def test_cli_scalar_spellings_refused(p, entry):
    field = {"kind": "rationals"} if p is None else {"kind": "prime_field", "p": p}
    doc = {"command": "check", "field": field, "matrices": [[[entry]]]}
    code, out, err = run_cli(["check"], json.dumps(doc))
    assert code == 1 and out == ""
    assert err.startswith("error: $.matrices[0][0][0]: ")


@pytest.mark.parametrize("entry, value", [
    ("1.5", "3/2"), ("+1", "1"), ("-1/2", "-1/2"), (-3, "-3")])
def test_parse_rational_spellings_accepted(entry, value):
    doc = {"command": "check", "field": {"kind": "rationals"},
           "matrices": [[[entry]]]}
    req = parse_request(json.dumps(doc))
    assert str(req.matrices[0].entries[0][0]) == value


def test_cli_command_mismatch():
    code, _, err = run_cli(["check"], json.dumps(LIMIT_JOB))
    assert code == 1 and "does not match" in err


def test_cli_budget_exceeded_exit_2():
    doc = {"command": "optimize", "weights": [[2, 0], [0, 2]]}
    code, _, err = run_cli(["optimize", "--budget", "0"], json.dumps(doc))
    assert code == 2 and "budget" in err.lower()


def test_cli_selftest_fresh_build_passes():
    code, out, _ = run_cli(["selftest"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["failed"] == 0


def test_cli_report_is_one_compact_json_line():
    # the check report nests matrices: series bases and the witness flag
    doc = {"command": "check", "field": {"kind": "prime_field", "p": 3},
           "matrices": [[["1", "0", "1"], ["0", "2", "0"], ["0", "0", "1"]],
                        [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]]}
    reports = []
    for argv, text in ((["check"], json.dumps(doc)), (["selftest"], "")):
        code, out, _ = run_cli(argv, text)
        assert code == 0
        line, end = out[:-1], out[-1:]
        assert end == "\n" and "\n" not in line
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))
        reports.append(json.loads(line))
    assert reports[0]["series"][2] == [["1", "0", "0"], ["0", "1", "0"]]
    assert reports[1]["ok"] is True


def test_cli_selftest_budget_zero_exit_2():
    code, _, err = run_cli(["selftest", "--budget", "0"])
    assert code == 2 and "budget" in err.lower()


def test_selftest_perturbed_expectation_named():
    cases = default_cases()
    name, thunk, expected = cases[0]
    perturbed = [(name, thunk, "wrong-value")] + cases[1:]
    report = run_cases(perturbed)
    assert not report["ok"]
    bad = [c for c in report["cases"] if not c["ok"]]
    assert [c["name"] for c in bad] == [name]
    assert bad[0]["expected"] == "wrong-value"
    assert bad[0]["actual"] == expected


def test_run_limit_tuple_job():
    doc = {"command": "limit", "field": {"kind": "prime_field", "p": 5},
           "lambda": [1, 0],
           "matrices": [[["1", "1"], ["0", "1"]], [["2", "0"], ["0", "3"]]]}
    report = run(parse_request(json.dumps(doc)))
    assert report["exists"] is True
    assert report["limits"] == [[["1", "0"], ["0", "1"]],
                                [["2", "0"], ["0", "3"]]]


def _pattern_limit(exps, x):
    """lim a->0 of diag(a^e) x diag(a^e)^-1 by its entry pattern: None when
    an entry with e[i] < e[j] is nonzero, else x with every entry at
    e[i] > e[j] zeroed."""
    n = x.rows
    if any(x.entries[i][j] for i in range(n) for j in range(n)
           if exps[i] < exps[j]):
        return None
    return Matrix(x.field, n, n, tuple(
        tuple(x.field.zero if exps[i] > exps[j] else x.entries[i][j]
              for j in range(n)) for i in range(n)))


def _conjugated_limit(exps, g, x):
    """g lim(g^-1 x g) g^-1, computed here from the entry pattern."""
    gi = g.inverse()
    lim = _pattern_limit(exps, gi * x * g)
    return None if lim is None else g * lim * gi


@pytest.mark.parametrize("field, lam, g, core", [
    pytest.param(GF(5), [1, 0], [[1, 2], [3, 4]],
                 [[[2, 3], [0, 4]], [[1, 1], [0, 1]]], id="GF5"),
    pytest.param(QQ, [1, 1, 0], [[1, 0, 2], [1, 1, 0], [0, -1, 1]],
                 [[[2, 0, 5], [0, 3, "1/2"], [0, 0, 1]],
                  [[1, "-1/3", 1], [4, 1, -1], [0, 0, "1/2"]]], id="QQ"),
])
def test_cli_limit_with_conjugator(field, lam, g, core):
    """The limit under g diag(a^lam) g^-1 of x = g c g^-1, for c in P of
    the diagonal cocharacter, is g lim(c) g^-1, in both request forms; a
    tuple with one component outside the conjugated P has no limit."""
    g = Matrix.make(field, g)
    xs = [g * Matrix.make(field, c) * g.inverse() for c in core]
    field_doc = ({"kind": "rationals"} if field.p is None
                 else {"kind": "prime_field", "p": field.p})
    base = {"command": "limit", "field": field_doc, "lambda": lam,
            "conjugator": [[str(v) for v in row] for row in g.entries]}

    def send(**body):
        code, out, err = run_cli(["limit"], json.dumps(dict(base, **body)))
        assert code == 0 and err == ""
        return json.loads(out)

    for x in xs:
        report = send(matrix=[[str(v) for v in row] for row in x.entries])
        want = _conjugated_limit(lam, g, x)
        assert want is not None and want != x
        assert report["exists"] is True
        assert Matrix.make(field, report["limit"]) == want
    report = send(matrices=[[[str(v) for v in row] for row in x.entries]
                            for x in xs])
    assert [Matrix.make(field, m) for m in report["limits"]] == \
        [_conjugated_limit(lam, g, x) for x in xs]
    # the transpose of the first generator's core leaves P
    bad = g * Matrix.make(field, core[0]).transpose() * g.inverse()
    assert _conjugated_limit(lam, g, bad) is None
    report = send(matrices=[[[str(v) for v in row] for row in x.entries]
                            for x in (xs[0], bad)])
    assert report == dict(report, exists=False, limits=None)


def test_cli_limit_conjugator_refusals():
    doc = {"command": "limit", "field": {"kind": "prime_field", "p": 5},
           "lambda": [1, 0], "conjugator": [["1", "2"], ["2", "4"]],
           "matrix": [["1", "0"], ["0", "1"]]}
    code, out, err = run_cli(["limit"], json.dumps(doc))
    assert (code, out) == (1, "")
    assert err == "error: $.conjugator: conjugator not invertible\n"

    doc["conjugator"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    code, out, err = run_cli(["limit"], json.dumps(doc))
    assert (code, out) == (1, "")
    assert err == "error: $.conjugator: expected a square 2x2 matrix\n"


def test_jobs_invert_a_conjugator_once(monkeypatch):
    """A limit job's conjugator and a witness's adapted basis are inverted
    once, when their cocharacter is built, and never re-checked."""
    seen = []
    for name in ("inverse", "is_invertible"):
        real = getattr(Matrix, name)

        def counted(self, real=real, name=name):
            seen.append((name, self))
            return real(self)

        monkeypatch.setattr(Matrix, name, counted)

    field = GF(5)
    doc = {"command": "limit", "field": {"kind": "prime_field", "p": 5},
           "lambda": [1, 0], "conjugator": [["1", "2"], ["3", "4"]],
           "matrices": [[["0", "4"], ["3", "1"]], [["1", "0"], ["0", "1"]],
                        [["3", "3"], ["2", "3"]]]}
    assert run(parse_request(doc))["exists"] is True
    g = Matrix.make(field, doc["conjugator"])
    assert [name for name, m in seen if m == g] == ["inverse"]

    del seen[:]
    doc = {"command": "witness", "field": {"kind": "prime_field", "p": 7},
           "matrices": [[["2", "0", "0"], ["1", "3", "0"], ["4", "5", "6"]],
                        [["1", "0", "0"], ["0", "1", "0"], ["1", "0", "1"]]]}
    report = run(parse_request(doc))
    conj = report["witness"]["cocharacter"]["conjugator"]
    assert conj is not None
    assert report["destabilising_cocharacter"]["conjugator"] == conj
    g = Matrix.make(GF(7), conj)
    assert [name for name, m in seen if m == g] == ["inverse"]


def test_run_semisimplify_certificate():
    doc = {"command": "semisimplify", "field": {"kind": "rationals"},
           "matrices": [[["1", "1"], ["0", "1"]]]}
    report = run(parse_request(json.dumps(doc)))
    assert report["limits"] == [[["1", "0"], ["0", "1"]]]
    assert report["cocharacter"] == {"exponents": [1, 0], "conjugator": None}
    # certificate: the reported limit is fixed by the reported cocharacter
    from gcr.cochar import limit_conj
    lam = Cocharacter(tuple(report["cocharacter"]["exponents"]))
    lim = Matrix.make(QQ, report["limits"][0])
    assert limit_conj(lam, lim) == lim


def test_check_witness_byte_determinism():
    doc = {"command": "check", "field": {"kind": "prime_field", "p": 2},
           "matrices": [[["1", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]]]}
    outs = set()
    for _ in range(3):
        _, out, _ = run_cli(["check"], json.dumps(doc))
        outs.add(_without_elapsed(out))
    assert len(outs) == 1


def test_cli_witness_report():
    doc = {"command": "witness", "field": {"kind": "prime_field", "p": 2},
           "matrices": [[["1", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]]]}
    code, out, _ = run_cli(["witness"], json.dumps(doc))
    assert code == 0
    report = json.loads(out)
    assert report["completely_reducible"] is False
    assert report["heuristic"] is True
    assert report["witness"]["step"] == 1
    assert report["destabilising_cocharacter"]["exponents"] == [1, 0, -1]


def test_cli_borel_tits_invalid_generator():
    doc = {"command": "borel-tits", "field": {"kind": "prime_field", "p": 3},
           "matrices": [[["2", "0"], ["0", "1"]]]}
    code, _, err = run_cli(["borel-tits"], json.dumps(doc))
    assert code == 1 and "unipotent" in err


@pytest.mark.parametrize("matrices, prefix", [
    ([[["1", "1"], ["0", "1"]], [["3", "0"], ["0", "1"]]],
     "error: $.matrices[1]: generator not unipotent"),
    ([[["1", "0"], ["0", "1"]]],
     "error: $.matrices: trivial unipotent subgroup"),
    ([[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]],
     "error: $.matrices: generated group is not unipotent"),
], ids=["generator", "trivial", "group"])
def test_cli_borel_tits_refusals_name_a_path(matrices, prefix):
    doc = {"command": "borel-tits", "field": {"kind": "prime_field", "p": 5},
           "matrices": matrices}
    code, out, err = run_cli(["borel-tits"], json.dumps(doc))
    assert code == 1 and out == ""
    assert err.startswith(prefix)


def test_cli_budget_caps_series_spins():
    # the companion matrix of x^10 + x^3 + 1, irreducible over F_2: the
    # exhaustive series search certifies it with 1033 spins
    rows = [["1" if i == j + 1 else "0" for j in range(10)] for i in range(10)]
    rows[0][9] = rows[3][9] = "1"
    doc = {"command": "check", "field": {"kind": "prime_field", "p": 2},
           "matrices": [rows]}
    code, out, _ = run_cli(["check"], json.dumps(doc))
    assert code == 0
    assert json.loads(out)["factor_commutant_dims"] == [10]
    code, out, err = run_cli(["check"], json.dumps({**doc, "budget": 10}))
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded: composition series")


@pytest.mark.parametrize("command", ["check", "semisimplify", "witness"])
def test_cli_series_budget_zero_exit_2(command):
    doc = {"command": command, "field": {"kind": "prime_field", "p": 2},
           "matrices": [[["1", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]]]}
    code, _, err = run_cli([command, "--budget", "0"], json.dumps(doc))
    assert code == 2 and "composition series" in err


def test_cli_orbit_dim():
    doc = {"command": "orbit-dim", "field": {"kind": "rationals"},
           "matrices": [[["1", "1"], ["0", "1"]]]}
    code, out, _ = run_cli(["orbit-dim"], json.dumps(doc))
    assert code == 0
    report = json.loads(out)
    assert report["orbit_dimension"] == 2
    assert report["commutant_dimension"] == 2


def test_cli_input_file(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(LIMIT_JOB))
    code, out, _ = run_cli(["limit", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["exists"] is True

    code, _, err = run_cli(["limit", "--input", str(tmp_path / "missing.json")])
    assert code == 1


def test_cli_input_file_not_utf8(tmp_path):
    path = tmp_path / "job.json"
    path.write_bytes(b'{"command":"optimize","weights":[[1]]}\xff')
    code, out, err = run_cli(["optimize", "--input", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_stdin_not_utf8():
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8")
    code = main(["optimize"], stdin=stdin, stdout=out, stderr=err)
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith("error: stdin: not UTF-8 (")
    assert err.getvalue().count("\n") == 1


def test_parse_huge_modulus_refused_quickly():
    # the bound is checked before trial division, which would run for hours
    # on 2^61 - 1
    code = ("import json\n"
            "from gcr.jobs import RequestError, parse_request\n"
            "doc = {'command': 'check', 'field': {'kind': 'prime_field', "
            "'p': 2305843009213693951}, 'matrices': [[['1']]]}\n"
            "try:\n"
            "    parse_request(json.dumps(doc))\n"
            "except RequestError as e:\n"
            "    print(e.path)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0 and proc.stdout == "$.field.p\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # each CLI invocation pays the import; the stdlib modules gcr needs
    # anyway are loaded first, so only what gcr itself adds is checked
    code = ("import argparse, json, fractions, functools, itertools, bisect\n"
            "import collections, math, sys\n"
            "before = set(sys.modules)\n"
            "import gcr, gcr.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_library_has_no_assert_statement():
    # python -O strips assert statements; certificate checks raise
    # AssertionError explicitly instead
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "gcr"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "gcr", "limit"],
        input=json.dumps(LIMIT_JOB), capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["exists"] is True
