"""Job requests and reports: one self-describing JSON document per job.

Wire conventions: matrix entries are ASCII decimal strings without
whitespace or "_" ("a/b" for rationals, non-negative decimals for prime
fields); cocharacters and weights are
integer arrays; every rational-valued report field is an exact "a/b"
string.  Reports are deterministic except for the elapsed_ms field.
"""

from __future__ import annotations

import json
import time
from typing import Optional

from . import engine
from .cochar import Cocharacter, limit_conj, limit_tuple
from .instability import InstabilityReport, WeightSet, optimal_cocharacter
from .linalg import DEFAULT_BUDGET, Field, Frozen, Matrix, MatrixTuple

COMMANDS = ("check", "limit", "optimize", "semisimplify", "borel-tits",
            "witness", "orbit-dim", "selftest")

_MATRIX_COMMANDS = ("check", "semisimplify", "borel-tits", "witness", "orbit-dim")


class RequestError(ValueError):
    """Invalid request; path names the first offending location."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class JobRequest(Frozen):
    _fields = ("command", "field", "matrices", "matrix", "cocharacter",
               "weights", "budget")

    def __init__(self, command: str, field: Optional[Field] = None,
                 matrices: Optional[MatrixTuple] = None,
                 matrix: Optional[Matrix] = None,
                 cocharacter: Optional[Cocharacter] = None,
                 weights: Optional[WeightSet] = None,
                 budget: int = DEFAULT_BUDGET):
        super().__init__(command, field, matrices, matrix, cocharacter,
                         weights, budget)


def _expect(cond, path, message):
    if not cond:
        raise RequestError(path, message)


def _parse_field(obj, path) -> Field:
    _expect(isinstance(obj, dict), path, "expected an object")
    kind = obj.get("kind")
    _expect(kind in ("rationals", "prime_field"), f"{path}.kind",
            "expected 'rationals' or 'prime_field'")
    if kind == "rationals":
        _expect(set(obj) <= {"kind"}, path, "unexpected key")
        return Field()
    _expect(set(obj) <= {"kind", "p"}, path, "unexpected key")
    p = obj.get("p")
    _expect(isinstance(p, int) and not isinstance(p, bool), f"{path}.p",
            "expected an integer modulus")
    try:
        return Field(p)
    except ValueError as e:
        raise RequestError(f"{path}.p", str(e)) from None


def _parse_scalar(obj, field: Field, path):
    ok = isinstance(obj, str) or (isinstance(obj, int) and not isinstance(obj, bool))
    _expect(ok, path, "expected a decimal string")
    if field.p is not None:
        _expect(obj >= 0 if isinstance(obj, int) else obj.isascii() and obj.isdigit(),
                path, "prime-field entries are non-negative decimal strings")
    elif isinstance(obj, str):
        _expect("e" not in obj and "E" not in obj, path,
                "rational entries are 'a/b' strings; no exponent notation")
        _expect(obj.isascii() and not any(c.isspace() or c == "_" for c in obj),
                path, "rational entries are ASCII 'a/b' strings, "
                "without whitespace or '_'")
    try:
        return field(obj)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise RequestError(path, f"bad scalar: {e}") from None


def _parse_matrix(obj, field: Field, path, square) -> Matrix:
    """A square matrix with `square` rows, or of any size if square is True."""
    _expect(isinstance(obj, list) and obj, path, "expected a non-empty matrix")
    rows = []
    for i, row in enumerate(obj):
        _expect(isinstance(row, list) and row, f"{path}[{i}]",
                "expected a non-empty row")
        _expect(len(row) == len(obj[0]), f"{path}[{i}]", "jagged matrix")
        rows.append(tuple(_parse_scalar(x, field, f"{path}[{i}][{j}]")
                          for j, x in enumerate(row)))
    m = Matrix(field, len(rows), len(rows[0]), tuple(rows))
    _expect(m.is_square and (square is True or m.rows == square), path,
            "expected a square matrix"
            if square is True else f"expected a square {square}x{square} matrix")
    return m


def _parse_exponents(obj, path) -> tuple:
    _expect(isinstance(obj, list) and obj, path,
            "expected a non-empty integer array")
    out = []
    for i, x in enumerate(obj):
        _expect(isinstance(x, int) and not isinstance(x, bool), f"{path}[{i}]",
                "expected an integer")
        out.append(x)
    return tuple(out)


def parse_request(text) -> JobRequest:
    """Validate a JSON job document into a JobRequest."""
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:
            # ValueError covers JSONDecodeError and integer literals over
            # the interpreter's digit limit; RecursionError, deep nesting
            raise RequestError("$", f"invalid JSON: {e}") from None
    else:
        doc = text
    _expect(isinstance(doc, dict), "$", "expected a JSON object")
    command = doc.get("command")
    _expect(command in COMMANDS, "$.command",
            f"expected one of {', '.join(COMMANDS)}")

    allowed = {"command", "budget"}
    if command in _MATRIX_COMMANDS:
        allowed |= {"field", "matrices"}
    elif command == "limit":
        allowed |= {"field", "lambda", "conjugator", "matrix", "matrices"}
    elif command == "optimize":
        allowed |= {"weights"}
    for key in doc:
        _expect(key in allowed, f"$.{key}", "unexpected key for this command")

    budget = doc.get("budget", DEFAULT_BUDGET)
    _expect(isinstance(budget, int) and not isinstance(budget, bool)
            and budget >= 0, "$.budget", "expected a non-negative integer")

    if command == "selftest":
        return JobRequest(command=command, budget=budget)

    if command == "optimize":
        ws = doc.get("weights")
        _expect(isinstance(ws, list) and ws, "$.weights",
                "expected a non-empty array of integer arrays")
        parsed = [_parse_exponents(w, f"$.weights[{i}]") for i, w in enumerate(ws)]
        rank = len(parsed[0])
        for i, w in enumerate(parsed):
            _expect(len(w) == rank, f"$.weights[{i}]", "weight length mismatch")
        return JobRequest(command=command, weights=WeightSet.of(parsed),
                          budget=budget)

    _expect("field" in doc, "$.field", "missing field spec")
    field = _parse_field(doc["field"], "$.field")

    if command == "limit":
        exps = _parse_exponents(doc.get("lambda"), "$.lambda")
        conj = None
        if "conjugator" in doc:
            conj = _parse_matrix(doc["conjugator"], field, "$.conjugator",
                                 square=len(exps))
        try:
            lam = Cocharacter(exps, conj)
        except ValueError as e:  # shapes are checked above: g is singular
            raise RequestError("$.conjugator", str(e)) from None
        _expect(("matrix" in doc) != ("matrices" in doc), "$.matrix",
                "provide exactly one of 'matrix' or 'matrices'")
        if "matrix" in doc:
            m = _parse_matrix(doc["matrix"], field, "$.matrix", square=len(exps))
            return JobRequest(command=command, field=field, matrix=m,
                              cocharacter=lam, budget=budget)
        mats = _parse_generators(doc["matrices"], field, square=len(exps))
        return JobRequest(command=command, field=field, matrices=mats,
                          cocharacter=lam, budget=budget)

    _expect("matrices" in doc, "$.matrices", "missing generator matrices")
    mats = _parse_generators(doc["matrices"], field)
    return JobRequest(command=command, field=field, matrices=mats, budget=budget)


def _parse_generators(obj, field: Field, square=None) -> MatrixTuple:
    _expect(isinstance(obj, list) and obj, "$.matrices",
            "expected a non-empty array of matrices")
    mats = []
    n = square
    for i, m in enumerate(obj):
        mm = _parse_matrix(m, field, f"$.matrices[{i}]",
                           square=n if n is not None else True)
        _expect(mm.is_invertible(), f"$.matrices[{i}]",
                "generator not invertible")
        n = mm.rows
        mats.append(mm)
    return MatrixTuple(field, n, tuple(mats))


# -- serialization ----------------------------------------------------------

def fmt_matrix(m: Matrix):
    return [[str(x) for x in row] for row in m.entries]


def fmt_field(field: Field):
    if field.p is None:
        return {"kind": "rationals"}
    return {"kind": "prime_field", "p": field.p}


def fmt_cocharacter(lam: Cocharacter):
    return {"exponents": list(lam.exponents),
            "conjugator": None if lam.conjugator is None
            else fmt_matrix(lam.conjugator)}


def fmt_witness(w: engine.WitnessParabolic):
    return {"flag": [fmt_matrix(s.basis) for s in w.flag],
            "cocharacter": fmt_cocharacter(w.cochar),
            "reason": w.reason,
            "step": w.step}


def fmt_instability(rep: InstabilityReport):
    """hull_coeffs and margins follow the sorted distinct weights (see
    InstabilityReport), in `optimize` and `witness` reports alike."""
    return {"semistable": rep.semistable,
            "min_point": [str(x) for x in rep.min_point],
            "value_sq": str(rep.value_sq),
            "hull_coeffs": [str(x) for x in rep.hull_coeffs],
            "margins": [str(x) for x in rep.margins],
            "lambda_opt": None if rep.lam_opt is None else list(rep.lam_opt),
            "mu": None if rep.mu_opt is None else str(rep.mu_opt),
            "lambda_norm_sq": None if rep.lam_norm_sq is None
            else str(rep.lam_norm_sq)}


# -- dispatch ---------------------------------------------------------------

def _run_check(req: JobRequest) -> dict:
    h = req.matrices
    cr, decomp, wit = engine.is_completely_reducible(h, budget=req.budget)
    complements = [None if c is None else fmt_matrix(c.basis)
                   for c in decomp.complements]
    return {
        "verdict": "completely reducible" if cr else "not completely reducible",
        "series": [fmt_matrix(s.basis) for s in decomp.series],
        "series_dims": [s.dim for s in decomp.series],
        "step_split": list(decomp.step_split),
        "factor_dims": list(decomp.factor_dims),
        "factor_commutant_dims": list(decomp.factor_commutant_dims),
        "not_absolutely_irreducible_factors":
            [i for i, d in enumerate(decomp.factor_commutant_dims) if d > 1],
        "complements": complements,
        "witness": None if wit is None else fmt_witness(wit),
    }


def _run_limit(req: JobRequest) -> dict:
    lam = req.cocharacter
    if req.matrix is not None:
        lim = limit_conj(lam, req.matrix)
        return {"exists": lim is not None,
                "limit": None if lim is None else fmt_matrix(lim)}
    lim = limit_tuple(lam, req.matrices)
    return {"exists": lim is not None,
            "limits": None if lim is None else [fmt_matrix(m) for m in lim]}


def _run_optimize(req: JobRequest) -> dict:
    rep = optimal_cocharacter(req.weights, budget=req.budget)
    return fmt_instability(rep)


def _run_semisimplify(req: JobRequest) -> dict:
    lim, lam = engine.semisimplify(req.matrices, budget=req.budget)
    return {"limits": [fmt_matrix(m) for m in lim],
            "cocharacter": fmt_cocharacter(lam)}


def _run_borel_tits(req: JobRequest) -> dict:
    for i, m in enumerate(req.matrices):
        _expect(engine.is_unipotent(m), f"$.matrices[{i}]",
                "generator not unipotent")
    try:
        wit = engine.borel_tits_flag(req.matrices)
    except ValueError as e:
        raise RequestError("$.matrices", str(e)) from None
    return fmt_witness(wit)


def _run_witness(req: JobRequest) -> dict:
    found = engine.tuple_witness_search(req.matrices, budget=req.budget)
    if found is None:
        return {"completely_reducible": True, "witness": None,
                "instability": None, "destabilising_cocharacter": None,
                "heuristic": True}
    wit, rep, destab = found
    return {"completely_reducible": False,
            "witness": fmt_witness(wit),
            "instability": fmt_instability(rep),
            "destabilising_cocharacter": fmt_cocharacter(destab),
            "heuristic": True}


def _run_orbit_dim(req: JobRequest) -> dict:
    h = req.matrices
    odim = engine.orbit_dimension(h)
    return {"orbit_dimension": odim,
            "commutant_dimension": h.dim * h.dim - odim}


def _run_selftest(req: JobRequest) -> dict:
    from . import selftest
    return selftest.run_cases(selftest.default_cases(budget=req.budget))


_DISPATCH = {
    "check": _run_check,
    "limit": _run_limit,
    "optimize": _run_optimize,
    "semisimplify": _run_semisimplify,
    "borel-tits": _run_borel_tits,
    "witness": _run_witness,
    "orbit-dim": _run_orbit_dim,
    "selftest": _run_selftest,
}


def run(req: JobRequest) -> dict:
    """Execute a validated request; the report echoes the command and adds
    timing (the only nondeterministic field)."""
    start = time.monotonic()
    body = _DISPATCH[req.command](req)
    report = {"command": req.command}
    if req.field is not None:
        report["field"] = fmt_field(req.field)
    report.update(body)
    report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    return report


def report_to_json(report: dict) -> str:
    """The report as one compact JSON line with sorted keys."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
