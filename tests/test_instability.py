import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gcr.cochar import Cocharacter, limit_conj, parabolic_of
from gcr.instability import (BoxOptimum, WeightSet, _project_origin_affine,
                             brute_force_optimum, f_compare, min_norm_point,
                             mu, mu_conjugated, norm_sq, optimal_cocharacter,
                             support_of_tuple)
from gcr.linalg import (DEFAULT_BUDGET, GF, QQ, BudgetExceeded, Matrix,
                         MatrixTuple)

from helpers import (enumerate_min_norm_point, enumerate_ru, fm_feasible,
                     random_weight_set)


def mat(field, rows):
    return Matrix.make(field, rows)


def tup(field, *mats):
    return MatrixTuple.make(field, list(mats))


def test_weight_set_validation():
    with pytest.raises(ValueError):
        WeightSet.of([])
    w = WeightSet.of([(1, 0), (1, 0), (0, 1)])
    assert w.weights == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        WeightSet(2, ((1,),))


def test_support_examples():
    field = QQ
    h = tup(field, mat(field, [[1, 1], [0, 1]]))
    assert support_of_tuple(h).weights == ((0, 0), (1, -1))

    hid = tup(field, Matrix.identity(field, 2))
    lam = Cocharacter((1, 0), mat(field, [[1, 2], [3, 7]]))
    assert support_of_tuple(hid, lam).weights == ((0, 0),)
    with pytest.raises(ValueError, match="field mismatch"):
        support_of_tuple(hid, Cocharacter((1, 0), mat(GF(5), [[1, 2], [3, 4]])))
    # a cocharacter of GL_3 on a tuple of GL_2, diagonal or conjugated
    for lam in (Cocharacter((1, 0, 0)),
                Cocharacter((1, 0, 0), Matrix.identity(field, 3))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            support_of_tuple(hid, lam)
        with pytest.raises(ValueError, match="dimension mismatch"):
            mu_conjugated(hid, lam)

    hswap = tup(field, mat(field, [[0, 1], [1, 0]]))
    assert support_of_tuple(hswap).weights == ((-1, 1), (1, -1))


def test_mu_examples():
    assert mu(WeightSet.of([(0, 0), (1, -1)]), (1, -1)) == 0
    assert mu(WeightSet.of([(2,)]), (1,)) == 2
    assert mu(WeightSet.of([(1, 0), (0, 1)]), (1, 1)) == 1


def test_mu_decides_limit_existence():
    # mu >= 0 iff the conjugation limit exists; mu > 0 iff the limit is zero
    field = GF(3)
    rng = random.Random(31)
    lam = Cocharacter((2, 0, -1))
    for _ in range(80):
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
        assert (m >= 0) == (lim is not None)
        if lim is not None:
            zero = all(v == 0 for row in lim.entries for v in row)
            assert (m > 0) == zero


def test_f_compare_examples():
    w = WeightSet.of([(2,)])
    assert f_compare(w, (1,), (2,)) == 0
    w2 = WeightSet.of([(1,), (2,)])
    assert f_compare(w2, (1,), (-1,)) == 1
    w3 = WeightSet.of([(1, 1)])
    assert f_compare(w3, (1, 1), (1, 0)) == 1


def test_f_compare_scale_invariance():
    rng = random.Random(5)
    for _ in range(50):
        r = rng.choice([1, 2, 3])
        w = random_weight_set(rng, r)
        lam = tuple(rng.randint(-4, 4) for _ in range(r))
        if not any(lam):
            continue
        for c in range(1, 11):
            assert f_compare(w, lam, tuple(c * x for x in lam)) == 0


def test_f_compare_errors():
    w = WeightSet.of([(1,)])
    with pytest.raises(ValueError):
        f_compare(w, (0,), (1,))


def test_f_compare_consistent_with_floats():
    rng = random.Random(11)
    for _ in range(200):
        r = rng.choice([2, 3])
        w = random_weight_set(rng, r)
        l1 = tuple(rng.randint(-4, 4) for _ in range(r))
        l2 = tuple(rng.randint(-4, 4) for _ in range(r))
        if not any(l1) or not any(l2):
            continue
        f1 = mu(w, l1) / math.sqrt(norm_sq(l1))
        f2 = mu(w, l2) / math.sqrt(norm_sq(l2))
        got = f_compare(w, l1, l2)
        if abs(f1 - f2) > 1e-9:
            assert got == (1 if f1 > f2 else -1)


def test_min_norm_examples():
    p, coeffs = min_norm_point(WeightSet.of([(1,), (2,)]))
    assert p == (1,)
    assert coeffs == (1, 0)

    p, _ = min_norm_point(WeightSet.of([(-1,), (1,)]))
    assert p == (0,)

    p, coeffs = min_norm_point(WeightSet.of([(2, 0), (0, 2)]))
    assert p == (1, 1)
    assert coeffs == (Fraction(1, 2), Fraction(1, 2))

    # Collinear points are affinely dependent: the bordered Gram system of
    # the whole set is singular, and only the pairs and singletons count.
    assert _project_origin_affine([(1, 1), (2, 2), (3, 3)]) is None
    assert _project_origin_affine([(-1, 1), (1, -1), (2, -2)]) is None
    p, coeffs = min_norm_point(WeightSet.of([(1, 1), (2, 2), (3, 3)]))
    assert p == (1, 1) and coeffs == (1, 0, 0)
    p, coeffs = min_norm_point(WeightSet.of([(-1, 1), (1, -1), (2, -2)]))
    assert p == (0, 0) and sum(coeffs) == 1 and all(c >= 0 for c in coeffs)


def test_min_norm_certificate_survives_optimize_flag():
    # with every bordered Gram solve of two or more points failing, the
    # first Wolfe step on [[1, 0], [0, 1]] finds its active set affinely
    # dependent; under python -O that guard must still raise, and the CLI
    # must map it to exit code 3
    code = """
import io, json
import gcr.instability as instability
from gcr.cli import main
assert False, "asserts are live"
real = instability._project_origin_affine
instability._project_origin_affine = (
    lambda points: None if len(points) > 1 else real(points))
doc = {"command": "optimize", "weights": [[1, 0], [0, 1]]}
err = io.StringIO()
print("exit:", main(["optimize"], stdin=io.StringIO(json.dumps(doc)),
                    stdout=io.StringIO(), stderr=err))
print(err.getvalue().strip())
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "exit: 3", "internal error: Wolfe active set is affinely dependent"]


def _nonzero(rng, rank, bound):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if any(v):
            return v


def _weight_family(rng, kind, rank, size):
    """At most `size` weights of one shape: semistable (0 in the hull),
    unstable (inside an open half-space), collinear, or with repeated
    directions.  Low ranks have few small weights, so draws are capped."""
    ws = set()
    normal = _nonzero(rng, rank, 3)
    for _ in range(20 * size):
        if len(ws) >= size - (kind == "semistable"):
            break
        if kind == "semistable":
            ws.add(_nonzero(rng, rank, 3))
        elif kind == "unstable":
            v = _nonzero(rng, rank, 4)
            if sum(a * b for a, b in zip(normal, v)) > 0:
                ws.add(v)
        elif kind == "collinear":
            k = rng.randint(-4, 4)
            ws.add(tuple(k * x for x in normal))
        else:
            d = _nonzero(rng, rank, 2)
            for k in rng.sample([1, 2, 3], min(3, size - len(ws))):
                ws.add(tuple(k * x for x in d))
    if kind == "semistable":
        some = rng.sample(sorted(ws), rng.randint(1, len(ws)))
        ws.add(tuple(-sum(v[d] for v in some) for d in range(rank)))
    return WeightSet.of(sorted(ws))


def test_min_norm_point_equals_enumerator():
    # Wolfe's point with the face search returns exactly what the subset
    # enumerator returns, point and full coefficient tuple
    rng = random.Random(41)
    for kind in ("semistable", "unstable", "collinear", "duplicate"):
        for rank in range(1, 6):
            for _ in range(3):
                w = _weight_family(rng, kind, rank, rng.randint(2, 11))
                got = min_norm_point(w)
                assert got == enumerate_min_norm_point(w), (kind, w)
                if kind == "semistable":
                    assert not any(got[0])
                if kind == "unstable":
                    assert any(got[0])


def test_min_norm_rank_6_half_space_within_default_budget():
    # 30 weights of rank 6 have sum_{k <= 7} C(30, k) > DEFAULT_BUDGET
    # subsets, but Wolfe's method needs only a few solves
    assert sum(math.comb(30, k) for k in range(1, 8)) > DEFAULT_BUDGET
    rng = random.Random(43)
    normal = (3, -1, 2, 1, -2, 1)
    ws = set()
    while len(ws) < 30:
        v = _nonzero(rng, 6, 3)
        if sum(a * b for a, b in zip(normal, v)) > 0:
            ws.add(v)
    w = WeightSet.of(sorted(ws))
    p, coeffs = min_norm_point(w)
    assert any(p) and sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
    for d in range(6):
        assert p[d] == sum(c * x[d] for c, x in zip(coeffs, w.weights))
    qq = sum(x * x for x in p)
    assert all(sum(a * b for a, b in zip(p, chi)) >= qq for chi in w.weights)


def test_min_norm_budget_counts_solves():
    # one solve for the Wolfe step onto the pair, then the singletons and
    # the pair of the face: four bordered Gram solves in all
    w = WeightSet.of([(2, 0), (0, 2)])
    for budget in (0, 3):
        with pytest.raises(BudgetExceeded):
            min_norm_point(w, budget=budget)
    assert min_norm_point(w, budget=4) == min_norm_point(w)


def test_min_norm_certificate_random():
    rng = random.Random(13)
    for _ in range(60):
        w = random_weight_set(rng, rng.choice([1, 2, 3]))
        p, coeffs = min_norm_point(w)
        assert sum(coeffs) == 1
        assert all(c >= 0 for c in coeffs)
        for d in range(w.rank):
            assert p[d] == sum(c * Fraction(x[d]) for c, x in zip(coeffs, w.weights))
        qq = sum(x * x for x in p)
        for chi in w.weights:
            assert sum(a * b for a, b in zip(p, chi)) >= qq


def test_optimal_cocharacter_examples():
    rep = optimal_cocharacter(WeightSet.of([(1,), (2,)]))
    assert rep.lam_opt == (1,) and rep.value_sq == 1 and rep.mu_opt == 1

    rep = optimal_cocharacter(WeightSet.of([(2, 0), (0, 2)]))
    assert rep.lam_opt == (1, 1) and rep.value_sq == 2
    assert rep.mu_opt == 2 and rep.lam_norm_sq == 2

    rep = optimal_cocharacter(WeightSet.of([(-1,), (1,)]))
    assert rep.semistable and rep.lam_opt is None


def test_optimal_certificate_identity():
    rng = random.Random(17)
    for _ in range(40):
        w = random_weight_set(rng, rng.choice([2, 3]))
        rep = optimal_cocharacter(w)
        if rep.semistable:
            continue
        assert Fraction(rep.mu_opt ** 2) == rep.value_sq * rep.lam_norm_sq
        assert math.gcd(*(abs(v) for v in rep.lam_opt)) == 1
        assert sum(a * b for a, b in zip(rep.lam_opt, rep.min_point)) > 0


def test_brute_force_examples():
    w = WeightSet.of([(3,), (5,)])
    best = brute_force_optimum(w, 6)
    assert best == BoxOptimum((1,), 3, 1)

    w2 = WeightSet.of([(-1,), (1,)])
    best2 = brute_force_optimum(w2, 6)
    assert best2.mu <= 0

    w3 = WeightSet.of([(2, 0), (0, 2)])
    assert brute_force_optimum(w3, 6).lam == (1, 1)


def test_box_oracle_can_miss_thin_cones():
    # an unstable support whose destabilising cone contains no integer point
    # of the [-6,6] box: the optimizer still certifies instability exactly,
    # and the smallest destabilising lattice vector needs radius 8
    w = WeightSet.of([(-3, 1, 3), (1, 2, 1), (3, -3, -4)])
    rep = optimal_cocharacter(w)
    assert not rep.semistable
    assert rep.lam_opt == (15, -16, 22) and rep.mu_opt == 5
    import itertools
    assert all(mu(w, cand) <= 0
               for cand in itertools.product(range(-6, 7), repeat=3)
               if any(cand))
    assert mu(w, (5, -6, 8)) > 0


def test_fm_feasible_hand_checked():
    # {lam : <lam, chi> >= 1 for all chi} is nonempty iff some mu > 0
    assert not fm_feasible([(-1,), (1,)])       # lam >= 1 and -lam >= 1
    assert fm_feasible([(1,), (2,)])            # lam = 1
    assert not fm_feasible([(1, 0), (-1, 0)])   # opposite weights
    assert not fm_feasible([(0, 0)])            # 0 >= 1
    thin = [(-3, 1, 3), (1, 2, 1), (3, -3, -4)]
    assert fm_feasible(thin)
    assert all(sum(x * y for x, y in zip((5, -6, 8), chi)) >= 1 for chi in thin)


def test_brute_force_budget():
    w = WeightSet.of([(1, 1, 1)])
    with pytest.raises(BudgetExceeded):
        brute_force_optimum(w, 6, budget=10)
    with pytest.raises(ValueError):
        brute_force_optimum(w, 0)


def test_mu_conjugated_examples():
    field = GF(5)
    h = tup(field, mat(field, [[1, 1], [0, 1]]))
    assert mu_conjugated(h, Cocharacter((1, -1))) == 0

    h2 = tup(field, mat(field, [[1, 0], [1, 1]]))
    g = mat(field, [[0, 1], [1, 0]])
    assert mu_conjugated(h2, Cocharacter((1, -1), g)) == 0

    hid = tup(field, Matrix.identity(field, 2))
    g2 = mat(field, [[1, 2], [3, 2]])
    assert mu_conjugated(hid, Cocharacter((3, 1), g2)) == 0


def test_mu_invariant_under_ru_conjugation():
    # mu(u . lam) = mu(lam) for u in R_u(P_lam), exhaustively over F_2
    field = GF(2)
    rng = random.Random(19)
    for _ in range(25):
        n = rng.choice([2, 3])
        comps = []
        for _ in range(rng.choice([1, 2])):
            while True:
                m = mat(field, [[rng.randrange(2) for _ in range(n)]
                                for _ in range(n)])
                if m.is_invertible():
                    comps.append(m)
                    break
        h = MatrixTuple(field, n, tuple(comps))
        base = support_of_tuple(h)
        lam = tuple(rng.randint(-2, 2) for _ in range(n))
        if not any(lam):
            continue
        pd = parabolic_of(Cocharacter(lam))
        want = mu(base, lam)
        for u in enumerate_ru(pd, field):
            assert mu_conjugated(h, Cocharacter(lam, u)) == want


def test_weights_increase_under_ru():
    # for u in R_u(P) and x supported in one weight, u x u^-1 - x is
    # supported in strictly larger weights
    field = GF(3)
    rng = random.Random(29)
    lam = (2, 1, 0)
    pd = parabolic_of(Cocharacter(lam))
    for _ in range(40):
        i, j = rng.randrange(3), rng.randrange(3)
        x = Matrix.zero(field, 3, 3)
        rows = [list(r) for r in x.entries]
        rows[i][j] = rng.randrange(1, 3)
        x = mat(field, rows)
        base = lam[i] - lam[j]
        us = list(enumerate_ru(pd, field))
        u = us[rng.randrange(len(us))]
        diff = u * x * u.inverse() - x
        for a in range(3):
            for b in range(3):
                if diff.entries[a][b] != 0:
                    assert lam[a] - lam[b] > base
