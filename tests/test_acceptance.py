"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Shared random suites are seeded and session-scoped, so every run checks the
same instances.  The conjugacy oracle scans the full finite general linear
group on raw int tuples, independently of the library code paths.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from gcr.cochar import (Cocharacter, limit_conj, limit_tuple, pairing,
                        parabolic_of)
from gcr.engine import (borel_tits_flag, enumerate_group,
                        has_invariant_complement, is_completely_reducible,
                        normal_closure, product_check, ru_conjugator,
                        semisimplify, verify_witness)
from gcr.instability import (f_compare, mu, mu_conjugated,
                             optimal_cocharacter, support_of_tuple)
from gcr.linalg import (GF, BudgetExceeded, Matrix, MatrixTuple, Subspace,
                        commutant)
from gcr.selftest import adjoint_sl2_tuple

from helpers import (enumerate_gl, enumerate_ru, fm_feasible,
                     random_conjugated_diagonal, random_monomial_matrix,
                     random_permutation_matrix, random_unipotent_tuple,
                     random_weight_set, rapply, raw_tuple, rmul, rspan,
                     to_matrix, tuples_conjugate)


def _report(num, name, failures, extra=""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{extra}")


def _box(rank, radius):
    for cand in itertools.product(range(-radius, radius + 1), repeat=rank):
        if any(cand):
            yield cand


# -- criterion 1: the limit engine -------------------------------------------

def test_criterion_01_limit_engine():
    start = time.monotonic()
    failures = []
    field = GF(3)
    lam = Cocharacter((1, -1))

    x1 = Matrix.make(field, [[1, 1], [0, 1]])
    if limit_conj(lam, x1) != Matrix.identity(field, 2):
        failures.append("upper unitriangular must flow to the identity")
    x2 = Matrix.make(field, [[1, 0], [1, 1]])
    if limit_conj(lam, x2) is not None:
        failures.append("lower unitriangular must have no limit")

    for raw in enumerate_gl(2, 3):
        x = to_matrix(field, raw)
        lim = limit_conj(lam, x)
        if (lim is not None) != (raw[1][0] == 0):
            failures.append(f"existence pattern wrong at {raw}")
        if lim is not None and (lim == x) != (raw[0][1] == 0 and raw[1][0] == 0):
            failures.append(f"fixed-point pattern wrong at {raw}")

    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(1, "limit engine reproduces the rank-2 example", failures)
    assert not failures, failures


# -- criterion 2: the adjoint criterion --------------------------------------

SL2_GENERATORS = (((1, 1), (0, 1)), ((1, 0), (1, 1)))
M2_BASIS = (((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1)))


def _m2_conjugation_raw(p):
    """Raw 4x4 matrices of X -> g X g^-1 on M_2(F_p), basis E11, E12, E21, E22,
    one per standard SL_2 generator (both have determinant 1)."""
    out = []
    for g in SL2_GENERATORS:
        (a, b), (c, d) = g
        gi = ((d, -b % p), (-c % p, a))
        cols = [sum(rmul(p, rmul(p, g, e), gi), ()) for e in M2_BASIS]
        out.append(tuple(tuple(col[r] for col in cols) for r in range(4)))
    return tuple(out)


def test_criterion_02_adjoint_criterion():
    """The module criterion on the conjugation action of SL_2(F_p)'s standard
    generators.  They generate the finite group SL_2(F_p), so every tuple
    here is decided by exact linear algebra and cross-checked by raw scans.

    * F_3, trace-zero matrices: irreducible.
    * F_2, trace-zero matrices: the scalar line I has the invariant
      complement span{E12 + I, E21 + I}, the span of the three involutions.
    * F_2, all of M_2: not completely reducible.  A complement to the
      trace-zero hyperplane would be a fixed line spanned by a trace-1
      matrix, but only 0 and I commute with both generators and tr I = 0.
    * F_3, all of M_2: completely reducible (scalars plus trace zero).
    """
    start = time.monotonic()
    failures = []

    h3 = adjoint_sl2_tuple(3)
    cr3, decomp3, _ = is_completely_reducible(h3)
    if not cr3 or [s.dim for s in decomp3.series] != [0, 3]:
        failures.append("adjoint module over F_3 must be irreducible (0 < V)")

    # trace-zero over F_2, coordinates (E12, E21, diag(1,-1) = I): splits
    h2 = adjoint_sl2_tuple(2)
    cr2, decomp2, _ = is_completely_reducible(h2)
    if not cr2 or decomp2.factor_dims != (1, 2):
        failures.append(
            f"trace-zero module over F_2 must be completely reducible with "
            f"factor dims (1, 2); got cr={cr2}, dims={decomp2.factor_dims}")
    scalar, complement = (0, 0, 1), [(1, 0, 1), (0, 1, 1)]
    span = rspan(2, complement)
    for g in raw_tuple(h2):
        if rapply(2, g, scalar) != scalar:
            failures.append(f"scalar line not fixed by {g}")
        if any(rapply(2, g, v) not in span for v in complement):
            failures.append(f"involution span not stable under {g}")
    if scalar in span:
        failures.append("involution span contains the scalar line")

    # all of M_2(F_2): the trace-zero hyperplane has no complement
    raw_m2 = _m2_conjugation_raw(2)
    field2 = GF(2)
    m2 = MatrixTuple(field2, 4, tuple(to_matrix(field2, r) for r in raw_m2))
    crm, decompm, witm = is_completely_reducible(m2)
    if crm:
        failures.append("conjugation module on M_2(F_2) must not be "
                        "completely reducible")
    elif (witm is None or not verify_witness(m2, witm)
          or has_invariant_complement(m2, witm.flag[witm.step - 1]) is not None):
        failures.append("witness must be re-verifiable")
    elif any((v[0] + v[3]) % 2 for v in witm.flag[witm.step - 1].basis.entries):
        failures.append("witness member must be the trace-zero hyperplane")
    fixed = [x for x in itertools.product(range(2), repeat=4)
             if all(rapply(2, g, x) == x for g in raw_m2)]
    if sorted(fixed) != [(0, 0, 0, 0), (1, 0, 0, 1)]:
        failures.append(f"centralizer of the generators in M_2(F_2) is {fixed}, "
                        f"expected {{0, I}}")
    if any((x[0] + x[3]) % 2 for x in fixed):
        failures.append("a trace-1 matrix commutes with both generators")

    # all of M_2(F_3): the scalars split off the trace-zero module
    field3 = GF(3)
    m3 = MatrixTuple(field3, 4, tuple(to_matrix(field3, r)
                                      for r in _m2_conjugation_raw(3)))
    cr3m, decomp3m, _ = is_completely_reducible(m3)
    if not cr3m:
        failures.append("conjugation module on M_2(F_3) must be completely "
                        f"reducible; series {[s.dim for s in decomp3m.series]}")

    elapsed = time.monotonic() - start
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 2x1s")
    _report(2, "adjoint criterion over F_2 and F_3", failures)
    assert not failures, failures


# -- criteria 3 and 4: optimizer vs box oracle --------------------------------

@pytest.fixture(scope="session")
def weight_results():
    rng = random.Random(20240601)
    suite = [random_weight_set(rng, 2) for _ in range(100)]
    suite += [random_weight_set(rng, 3) for _ in range(100)]
    results = []
    for w in suite:
        rep = optimal_cocharacter(w)
        beaten_by = None
        box_has_positive = False
        for cand in _box(w.rank, 6):
            if mu(w, cand) > 0:
                box_has_positive = True
            if rep.lam_opt is not None and f_compare(w, rep.lam_opt, cand) < 0:
                beaten_by = cand
        results.append((w, rep, beaten_by, box_has_positive))
    return results


def test_criterion_03_optimizer_vs_oracle(weight_results):
    start = time.monotonic()
    failures = []
    for w, rep, beaten_by, _ in weight_results:
        if beaten_by is not None:
            failures.append(f"{w.weights}: beaten by {beaten_by}")
        # exact certificate: hull membership and margins
        if sum(rep.hull_coeffs) != 1 or any(c < 0 for c in rep.hull_coeffs):
            failures.append(f"{w.weights}: hull coefficients invalid")
        for d in range(w.rank):
            lhs = sum(c * x[d] for c, x in zip(rep.hull_coeffs, w.weights))
            if lhs != rep.min_point[d]:
                failures.append(f"{w.weights}: hull combination mismatch")
                break
        if any(m < 0 for m in rep.margins):
            failures.append(f"{w.weights}: negative margin")
        if rep.lam_opt is not None:
            if rep.mu_opt ** 2 != rep.value_sq * rep.lam_norm_sq:
                failures.append(f"{w.weights}: certificate identity broken")
    elapsed = time.monotonic() - start
    _report(3, "optimizer ties or beats the [-6,6] box oracle on 200 suites",
            failures, f" ({elapsed:.1f}s)")
    assert not failures, failures[:5]


THIN_CONE = ((-3, 1, 3), (1, 2, 1), (3, -3, -4))


def test_criterion_04_semistability_dichotomy(weight_results):
    """Semistable iff no cocharacter has mu > 0, decided exactly by
    Fourier-Motzkin elimination (no code shared with the optimizer).  The
    [-6,6] box is only a one-sided check: a positive value inside it proves
    instability, but a thin destabilising cone (THIN_CONE, whose smallest
    destabilising lattice vector is (5,-6,8)) can miss the box entirely."""
    failures = []
    box_misses = []
    for w, rep, _, box_has_positive in weight_results:
        p_zero = all(x == 0 for x in rep.min_point)
        unstable = fm_feasible(w.weights)
        if rep.semistable != p_zero:
            failures.append(f"{w.weights}: verdict semistable={rep.semistable} "
                            f"disagrees with min point {rep.min_point}")
        if rep.semistable and unstable:
            failures.append(f"{w.weights}: verdict is semistable, but some "
                            f"cocharacter has mu > 0 (Fourier-Motzkin feasible)")
        elif not rep.semistable and not unstable:
            failures.append(f"{w.weights}: verdict is unstable, but no "
                            f"cocharacter has mu > 0 (Fourier-Motzkin infeasible)")
        if rep.semistable and box_has_positive:
            failures.append(f"{w.weights}: verdict is semistable, but the "
                            f"[-6,6] box holds a vector with mu > 0")
        if unstable and not box_has_positive:
            box_misses.append(w.weights)
    if THIN_CONE not in box_misses:
        failures.append(f"thin-cone instance {THIN_CONE} must be in the suite "
                        f"and decided unstable beyond the box")
    _report(4, "semistable iff no cocharacter has mu > 0 (Fourier-Motzkin)",
            failures, f" ({len(box_misses)} unstable beyond the [-6,6] box)")
    assert not failures, failures[:5]


# -- criteria 5, 6, 10: limits, conjugacy, and the criterion surrogate --------

@pytest.fixture(scope="session")
def f2_tuple_suite():
    field = GF(2)
    gl2 = [to_matrix(field, r) for r in enumerate_gl(2, 2)]
    exhaustive = [MatrixTuple(field, 2, (a,)) for a in gl2]
    exhaustive += [MatrixTuple(field, 2, (a, b)) for a in gl2 for b in gl2]
    rng = random.Random(5150)
    gl3 = [to_matrix(field, r) for r in enumerate_gl(3, 2)]
    randomized = []
    for _ in range(500):
        comps = tuple(gl3[rng.randrange(len(gl3))]
                      for _ in range(rng.choice([1, 2])))
        randomized.append(MatrixTuple(field, 3, comps))
    return exhaustive, randomized


def test_criterion_05_limit_conjugacy_theorem(f2_tuple_suite):
    start = time.monotonic()
    exhaustive, randomized = f2_tuple_suite
    failures = []
    checked = 0
    for tuples, n in ((exhaustive, 2), (randomized, 3)):
        lams = [Cocharacter(e)
                for e in itertools.product(range(-2, 3), repeat=n)]
        for h in tuples:
            raws = raw_tuple(h)
            for lam in lams:
                lim = limit_tuple(lam, h)
                if lim is None:
                    continue
                checked += 1
                found = ru_conjugator(h, lam) is not None
                conj = tuples_conjugate(2, raws, raw_tuple(lim))
                if found != conj:
                    failures.append((raws, lam.exponents, found, conj))
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 min")
    _report(5, "limit in orbit iff a unipotent witness exists", failures,
            f" ({checked} limit cases, {elapsed:.1f}s)")
    assert not failures, failures[:5]


def test_criterion_06_criterion_surrogate(f2_tuple_suite):
    exhaustive, randomized = f2_tuple_suite
    failures = []
    for h in exhaustive + randomized:
        lim, _ = semisimplify(h)
        conj = tuples_conjugate(2, raw_tuple(h), raw_tuple(lim))
        cr = is_completely_reducible(h)[0]
        if conj != cr:
            failures.append((raw_tuple(h), conj, cr))
    _report(6, "completely reducible iff conjugate to the semisimplification",
            failures)
    assert not failures, failures[:5]


def test_criterion_10_dimension_inequality(f2_tuple_suite):
    exhaustive, randomized = f2_tuple_suite
    failures = []
    non_cr = 0
    for h in exhaustive + randomized:
        if is_completely_reducible(h)[0]:
            continue
        non_cr += 1
        lim, _ = semisimplify(h)
        if len(commutant(lim.components)) <= len(commutant(h.components)):
            failures.append(raw_tuple(h))
    _report(10, "commutant dimension strictly grows under semisimplification",
            failures, f" ({non_cr} non-reducible tuples)")
    assert non_cr >= 50
    assert not failures, failures[:5]


# -- criterion 7: the Clifford suite ------------------------------------------

def _random_enumerable_cr_tuple(rng):
    p = rng.choice([2, 3])
    n = rng.choice([2, 3, 4])
    field = GF(p)
    family = rng.choice(["perm", "monomial", "conj-diag"])
    m = rng.choice([1, 2])
    comps = []
    for _ in range(m):
        if family == "perm":
            comps.append(random_permutation_matrix(rng, field, n))
        elif family == "monomial":
            comps.append(random_monomial_matrix(rng, field, n))
        else:
            comps.append(random_conjugated_diagonal(rng, field, n))
    h = MatrixTuple(field, n, tuple(comps))
    try:
        enumerate_group(h, budget=400)
    except BudgetExceeded:
        return None
    if not is_completely_reducible(h)[0]:
        return None
    return h


def test_criterion_07_clifford_suite():
    start = time.monotonic()
    rng = random.Random(71)
    failures = []
    found = 0
    attempts = 0
    while found < 100 and attempts < 4000:
        attempts += 1
        h = _random_enumerable_cr_tuple(rng)
        if h is None:
            continue
        found += 1
        subsets = [[i] for i in range(len(h))]
        if len(h) > 1:
            subsets.append(list(range(len(h))))
        for subset in subsets:
            n = normal_closure(h, subset, budget=500)
            if not is_completely_reducible(n)[0]:
                failures.append((raw_tuple(h), subset))
    elapsed = time.monotonic() - start
    _report(7, "normal closures inside reducible groups stay reducible",
            failures, f" ({found} groups, {elapsed:.1f}s)")
    assert found >= 100
    assert not failures, failures[:5]


# -- criterion 8: the product criterion ---------------------------------------

def test_criterion_08_product_criterion():
    rng = random.Random(83)
    failures = []
    verdicts = Counter()
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        field = GF(p)
        m = rng.choice([1, 2])
        mats1, mats2 = [], []
        n1, n2 = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        for _ in range(m):
            mats1.append(_random_invertible(rng, field, n1))
            mats2.append(_random_invertible(rng, field, n2))
        h1 = MatrixTuple(field, n1, tuple(mats1))
        h2 = MatrixTuple(field, n2, tuple(mats2))
        a, b, c = product_check(h1, h2)
        verdicts[(a, b, c)] += 1
        if c != (a and b):
            failures.append((raw_tuple(h1), raw_tuple(h2), (a, b, c)))
    _report(8, "block-diagonal verdict equals the conjunction", failures,
            f" (verdict mix {dict(verdicts)})")
    assert not failures, failures[:5]
    assert verdicts[(True, True, True)] > 0
    assert sum(v for k, v in verdicts.items() if not k[2]) > 0


def _random_invertible(rng, field, n):
    while True:
        m = Matrix.make(field, [[rng.randrange(field.p) for _ in range(n)]
                                for _ in range(n)])
        if m.is_invertible():
            return m


# -- criterion 9: unipotent witness flags --------------------------------------

def test_criterion_09_borel_tits_properties():
    start = time.monotonic()
    rng = random.Random(97)
    failures = []
    for _ in range(100):
        p = rng.choice([2, 3])
        n = rng.choice([2, 3, 4])
        h = random_unipotent_tuple(rng, p, n, rng.choice([1, 2]))
        field = h.field
        wit = borel_tits_flag(h)
        flag = wit.flag
        # trivial action on every flag quotient
        prev = Subspace.zero(field, n)
        for member in flag:
            for c in h:
                for row in member.basis.entries:
                    img = c.apply(row)
                    diff = tuple(field.sub(a, b) for a, b in zip(img, row))
                    if not prev.contains(diff):
                        failures.append(("nontrivial quotient action", raw_tuple(h)))
            prev = member
        # proper parabolic: at least two blocks
        if not parabolic_of(Cocharacter(wit.cochar.exponents)).is_proper:
            failures.append(("flag stabilizer not proper", raw_tuple(h)))
        if flag[0].is_zero or flag[0].is_full:
            failures.append(("degenerate first member", raw_tuple(h)))
        # group-preserving conjugators stabilize the flag
        group = enumerate_group(h, budget=3000)
        gset = set(group)
        for _ in range(2):
            g = group[rng.randrange(len(group))]
            gi = g.inverse()
            conj_gens = [g * c * gi for c in h.components]
            if set(enumerate_group(conj_gens, budget=3000)) != gset:
                failures.append(("closure equality broken", raw_tuple(h)))
                continue
            for member in flag:
                image = Subspace.from_vectors(
                    field, n, [g.apply(row) for row in member.basis.entries])
                if image != member:
                    failures.append(("conjugator moves the flag", raw_tuple(h)))
    elapsed = time.monotonic() - start
    _report(9, "unipotent flags: trivial quotients, proper, canonical",
            failures, f" ({elapsed:.1f}s)")
    assert not failures, failures[:5]


# -- criterion 11: invariances -------------------------------------------------

def test_criterion_11_invariances():
    rng = random.Random(101)
    failures = []

    # scale invariance of the normalized comparison
    for _ in range(50):
        r = rng.choice([1, 2, 3])
        w = random_weight_set(rng, r)
        lam = tuple(rng.randint(-4, 4) for _ in range(r))
        if not any(lam):
            continue
        for c in range(1, 11):
            if f_compare(w, lam, tuple(c * x for x in lam)) != 0:
                failures.append(("scale", w.weights, lam, c))

    # permutation equivariance of the pairing
    for _ in range(100):
        n = rng.randint(2, 5)
        lam = tuple(rng.randint(-3, 3) for _ in range(n))
        chi = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(lam):
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        plam = tuple(lam[perm[i]] for i in range(n))
        pchi = tuple(chi[perm[i]] for i in range(n))
        if pairing(Cocharacter(plam), pchi) != pairing(Cocharacter(lam), chi):
            failures.append(("pairing", lam, chi, perm))

    # mu invariance under unipotent conjugation of the cocharacter,
    # exhaustively over F_2
    field = GF(2)
    gl2 = [to_matrix(field, r) for r in enumerate_gl(2, 2)]
    tuples2 = [MatrixTuple(field, 2, (a,)) for a in gl2]
    tuples2 += [MatrixTuple(field, 2, (a, b)) for a in gl2 for b in gl2]
    for h in tuples2:
        base = support_of_tuple(h)
        for exps in itertools.product(range(-2, 3), repeat=2):
            if not any(exps):
                continue
            pd = parabolic_of(Cocharacter(exps))
            want = mu(base, exps)
            for u in enumerate_ru(pd, field):
                if mu_conjugated(h, Cocharacter(exps, u)) != want:
                    failures.append(("mu-ru", raw_tuple(h), exps))

    gl3 = [to_matrix(field, r) for r in enumerate_gl(3, 2)]
    for _ in range(40):
        comps = tuple(gl3[rng.randrange(len(gl3))]
                      for _ in range(rng.choice([1, 2])))
        h = MatrixTuple(field, 3, comps)
        base = support_of_tuple(h)
        for exps in itertools.product(range(-1, 2), repeat=3):
            if not any(exps):
                continue
            pd = parabolic_of(Cocharacter(exps))
            want = mu(base, exps)
            for u in enumerate_ru(pd, field):
                if mu_conjugated(h, Cocharacter(exps, u)) != want:
                    failures.append(("mu-ru-3", raw_tuple(h), exps))

    _report(11, "scale, permutation, and unipotent-conjugation invariances",
            failures)
    assert not failures, failures[:5]
