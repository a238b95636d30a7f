"""Bundled self-test corpus: worked examples plus oracle cross-checks.

Each case is (name, thunk, expected); the runner compares the thunk's JSON
value against the expectation and reports per-case pass/fail.  Budgets flow
into the oracle cases so a zero budget surfaces as a budget error.
"""

from __future__ import annotations

import itertools
import random

from .cochar import Cocharacter, limit_conj, parabolic_of
from .engine import (borel_tits_flag, has_invariant_complement,
                     is_completely_reducible, orbit_dimension, product_check,
                     ru_conjugator, semisimplify, verify_witness)
from .instability import (WeightSet, brute_force_optimum, f_compare, mu,
                          optimal_cocharacter)
from .linalg import (DEFAULT_BUDGET, GF, QQ, Field, Matrix, MatrixTuple,
                     commutant)


def mat(field: Field, rows) -> Matrix:
    return Matrix.make(field, rows)


def tup(field: Field, *mats) -> MatrixTuple:
    return MatrixTuple.make(field, list(mats))


def trace_zero_basis(field: Field):
    """Basis (x, y, z) of the trace-zero 2x2 matrices: E12, E21, diag(1,-1)."""
    one = field.one
    x = mat(field, [[0, 1], [0, 0]])
    y = mat(field, [[0, 0], [1, 0]])
    z = mat(field, [[one, 0], [0, field.neg(one)]])
    return (x, y, z)


def adjoint_sl2_tuple(p: int) -> MatrixTuple:
    """Conjugation action of the standard SL_2(F_p) generators on the
    3-dimensional trace-zero space, written in the basis (E12, E21, diag).

    A trace-zero matrix [[a, b], [c, -a]] has coordinates (b, c, a) in that
    basis, over any prime field.
    """
    field = GF(p)
    basis = trace_zero_basis(field)
    gens = [mat(field, [[1, 1], [0, 1]]), mat(field, [[1, 0], [1, 1]])]
    out = []
    for g in gens:
        gi = g.inverse()
        cols = []
        for b in basis:
            img = g * b * gi
            if img.trace() != field.zero:
                raise AssertionError("conjugate is not trace-zero")
            cols.append((img.entries[0][1], img.entries[1][0], img.entries[0][0]))
        ent = tuple(tuple(cols[c][r] for c in range(3)) for r in range(3))
        out.append(Matrix(field, 3, 3, ent))
    return MatrixTuple(field, 3, tuple(out))


def _case_limit_upper():
    lam = Cocharacter((1, -1))
    x = mat(QQ, [[1, 1], [0, 1]])
    lim = limit_conj(lam, x)
    return [[str(v) for v in row] for row in lim.entries]


def _case_limit_lower():
    lam = Cocharacter((1, -1))
    x = mat(QQ, [[1, 0], [1, 1]])
    return limit_conj(lam, x) is None


def _case_limit_pattern():
    # over F_3, the limit under (1,-1) exists iff upper triangular and is
    # fixed iff diagonal; scanned over every invertible 2x2
    field = GF(3)
    lam = Cocharacter((1, -1))
    for ent in itertools.product(range(3), repeat=4):
        x = mat(field, [[ent[0], ent[1]], [ent[2], ent[3]]])
        if not x.is_invertible():
            continue
        lim = limit_conj(lam, x)
        if (lim is not None) != (ent[2] == 0):
            return False
        if (lim == x) != (ent[1] == 0 and ent[2] == 0):
            return False
    return True


def _case_parabolic_gl2():
    field = GF(3)
    pd = parabolic_of(Cocharacter((1, -1)))
    for ent in itertools.product(range(3), repeat=4):
        x = mat(field, [[ent[0], ent[1]], [ent[2], ent[3]]])
        if not x.is_invertible():
            continue
        if pd.contains_p(x) != (ent[2] == 0):
            return False
        if pd.contains_levi(x) != (ent[1] == 0 and ent[2] == 0):
            return False
    return True


def _case_adjoint_f2():
    # The generated group here is finite of order 6; its trace-zero module
    # splits as the scalar line plus the span of the transpositions, so the
    # verdict is completely reducible, with a machine-verified splitting.
    h = adjoint_sl2_tuple(2)
    cr, decomp, _ = is_completely_reducible(h)
    verified = all(
        has_invariant_complement(h, v) is not None for v in decomp.series[1:-1])
    return {"verdict": "completely reducible" if cr else "not completely reducible",
            "splitting_verified": bool(verified)}


def _case_adjoint_f3():
    h = adjoint_sl2_tuple(3)
    cr, decomp, _ = is_completely_reducible(h)
    return {"completely_reducible": cr,
            "series_dims": [s.dim for s in decomp.series]}


def _case_unipotent_witness():
    field = GF(2)
    h = tup(field, mat(field, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
    cr, _, wit = is_completely_reducible(h)
    return {"completely_reducible": cr,
            "witness_verified": bool(wit is not None and verify_witness(h, wit)),
            "flag_dims": [s.dim for s in wit.flag]}


def _case_semisimplify_jordan():
    h = tup(QQ, mat(QQ, [[1, 1], [0, 1]]))
    lim, lam = semisimplify(h)
    return {"limit": [[str(v) for v in row] for row in lim[0].entries],
            "exponents": list(lam.exponents)}


def _case_borel_tits_j3():
    h = tup(QQ, mat(QQ, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    wit = borel_tits_flag(h)
    return [s.dim for s in wit.flag]


def _case_optimize_interval():
    rep = optimal_cocharacter(WeightSet.of([(1,), (2,)]))
    return {"lam": list(rep.lam_opt), "value_sq": str(rep.value_sq),
            "mu": rep.mu_opt}


def _case_optimize_diagonal():
    rep = optimal_cocharacter(WeightSet.of([(2, 0), (0, 2)]))
    return {"lam": list(rep.lam_opt), "value_sq": str(rep.value_sq),
            "mu": rep.mu_opt, "norm_sq": rep.lam_norm_sq}


def _case_optimize_semistable():
    rep = optimal_cocharacter(WeightSet.of([(-1,), (1,)]))
    return {"semistable": rep.semistable,
            "min_point": [str(v) for v in rep.min_point]}


def _case_optimize_oracle(budget: int):
    rng = random.Random(20240311)
    for _ in range(10):
        r = rng.choice([1, 2])
        t = rng.randint(1, 4)
        ws = set()
        while len(ws) < t:
            ws.add(tuple(rng.randint(-4, 4) for _ in range(r)))
        w = WeightSet.of(sorted(ws))
        rep = optimal_cocharacter(w, budget=budget)
        box = brute_force_optimum(w, 6, budget=budget)
        if rep.semistable:
            if mu(w, box.lam) > 0:
                return False
        elif f_compare(w, rep.lam_opt, box.lam) < 0:
            return False
    return True


def _case_mu_limit_consistency():
    # mu >= 0 iff the conjugation limit exists, checked on small matrices
    # over F_3 including non-invertible ones
    field = GF(3)
    rng = random.Random(7)
    lam = Cocharacter((2, 0, -1))
    for _ in range(60):
        x = mat(field, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        if all(v == 0 for row in x.entries for v in row):
            continue
        sup = set()
        for i in range(3):
            for j in range(3):
                if x.entries[i][j] != 0:
                    w = [0, 0, 0]
                    w[i] += 1
                    w[j] -= 1
                    sup.add(tuple(w))
        m = mu(WeightSet.of(sorted(sup)), lam.exponents)
        lim = limit_conj(lam, x)
        if (m >= 0) != (lim is not None):
            return False
        if lim is not None and (m > 0) != all(
                v == 0 for row in lim.entries for v in row):
            return False
    return True


def _case_ru_conjugator():
    field = GF(5)
    u0 = mat(field, [[1, 1], [0, 1]])
    d = mat(field, [[1, 0], [0, 2]])
    h = tup(field, u0 * d * u0.inverse())
    u = ru_conjugator(h, Cocharacter((1, 0)))
    return [[str(v) for v in row] for row in u.entries]


def _case_commutant_jordan():
    basis = commutant([mat(QQ, [[1, 1], [0, 1]])])
    return {"dim": len(basis),
            "basis": [[[str(v) for v in row] for row in b.entries]
                      for b in basis]}


def _case_product_mixed():
    field = GF(5)
    h1 = tup(field, mat(field, [[1, 1], [0, 1]]))
    h2 = tup(field, mat(field, [[1, 0], [0, 2]]))
    return list(product_check(h1, h2))


def _case_orbit_dim_jordan():
    return orbit_dimension(tup(QQ, mat(QQ, [[1, 1], [0, 1]])))


def default_cases(budget: int = DEFAULT_BUDGET):
    return [
        ("limit-2x2-upper", _case_limit_upper, [["1", "0"], ["0", "1"]]),
        ("limit-2x2-lower-absent", _case_limit_lower, True),
        ("limit-pattern-gl2-f3", _case_limit_pattern, True),
        ("parabolic-gl2-f3", _case_parabolic_gl2, True),
        ("adjoint-trace-zero-f2", _case_adjoint_f2,
         {"verdict": "completely reducible", "splitting_verified": True}),
        ("adjoint-trace-zero-f3", _case_adjoint_f3,
         {"completely_reducible": True, "series_dims": [0, 3]}),
        ("unipotent-e13-witness", _case_unipotent_witness,
         {"completely_reducible": False, "witness_verified": True,
          "flag_dims": [1, 2, 3]}),
        ("semisimplify-jordan-2", _case_semisimplify_jordan,
         {"limit": [["1", "0"], ["0", "1"]], "exponents": [1, 0]}),
        ("borel-tits-jordan-3", _case_borel_tits_j3, [1, 2, 3]),
        ("optimize-interval", _case_optimize_interval,
         {"lam": [1], "value_sq": "1", "mu": 1}),
        ("optimize-diagonal", _case_optimize_diagonal,
         {"lam": [1, 1], "value_sq": "2", "mu": 2, "norm_sq": 2}),
        ("optimize-semistable", _case_optimize_semistable,
         {"semistable": True, "min_point": ["0"]}),
        ("optimize-box-oracle", lambda: _case_optimize_oracle(budget), True),
        ("mu-limit-consistency", _case_mu_limit_consistency, True),
        ("ru-conjugator-f5", _case_ru_conjugator, [["1", "4"], ["0", "1"]]),
        ("commutant-jordan", _case_commutant_jordan,
         {"dim": 2, "basis": [[["1", "0"], ["0", "1"]],
                              [["0", "1"], ["0", "0"]]]}),
        ("product-unipotent-diagonal", _case_product_mixed,
         [False, True, False]),
        ("orbit-dim-jordan", _case_orbit_dim_jordan, 2),
    ]


def run_cases(cases) -> dict:
    results = []
    failed = 0
    for name, thunk, expected in cases:
        actual = thunk()
        ok = actual == expected
        if not ok:
            failed += 1
        results.append({"name": name, "ok": ok,
                        "expected": expected, "actual": actual})
    return {"cases": results, "passed": len(results) - failed,
            "failed": failed, "ok": failed == 0}
