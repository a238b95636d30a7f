import itertools
import random
import subprocess
import sys
from collections import Counter

import pytest

from gcr.cochar import Cocharacter, cocharacter_from_flag, limit_tuple
from gcr.engine import (block_diagonal, borel_tits_flag, composition_series,
                        enumerate_group, has_invariant_complement,
                        is_completely_reducible, normal_closure,
                        orbit_dimension, product_check, ru_conjugator,
                        semisimplify, tuple_witness_search, verify_witness)
from gcr.instability import mu, support_of_tuple
from gcr.jobs import JobRequest, run
from gcr.linalg import (GF, QQ, BudgetExceeded, Matrix, MatrixTuple, Subspace,
                        commutant)
from gcr.selftest import adjoint_sl2_tuple

from helpers import (all_candidate_vectors, all_subspaces,
                     enumerate_normal_closure, enumerate_ru_conjugator,
                     first_of_each_line, gauss_jordan, intersect,
                     projection_complement, random_gl_tuple, random_invertible,
                     random_monomial_matrix, random_permutation_matrix,
                     random_unipotent_tuple, raw_tuple,
                     sylvester_complement, tuples_conjugate)


def mat(field, rows):
    return Matrix.make(field, rows)


def tup(field, *mats):
    return MatrixTuple.make(field, list(mats))


def jordan2(field):
    return tup(field, mat(field, [[1, 1], [0, 1]]))


def e13_tuple(field):
    return tup(field, mat(field, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]))


# -- invariant complements ---------------------------------------------------

def test_complement_jordan_absent():
    h = jordan2(QQ)
    w = Subspace.from_vectors(QQ, 2, [(1, 0)])
    assert has_invariant_complement(h, w) is None


def test_complement_diagonal():
    h = tup(QQ, mat(QQ, [[1, 0], [0, 2]]))
    w = Subspace.from_vectors(QQ, 2, [(1, 0)])
    comp = has_invariant_complement(h, w)
    assert comp == Subspace.from_vectors(QQ, 2, [(0, 1)])


def test_complement_e13_absent():
    h = e13_tuple(QQ)
    w = Subspace.from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    assert has_invariant_complement(h, w) is None


def test_complement_requires_invariance():
    h = jordan2(QQ)
    w = Subspace.from_vectors(QQ, 2, [(0, 1)])
    with pytest.raises(ValueError):
        has_invariant_complement(h, w)


def test_complement_soundness_random():
    rng = random.Random(41)
    for _ in range(25):
        h = random_gl_tuple(rng, 3, 3, 2)
        decomp = composition_series(h)
        for member in decomp.series[1:-1]:
            comp = has_invariant_complement(h, member)
            if comp is None:
                continue
            assert intersect(comp, member).is_zero
            assert comp.add(member).is_full
            for c in h:
                for row in comp.basis.entries:
                    assert comp.contains(c.apply(row))


def _flagged_tuple(rng, field, n, m):
    """m generators stabilising a random flag with blocks of sizes 1..3,
    conjugated by a random invertible matrix."""
    def scalar():
        return rng.randrange(field.p) if field.p else rng.randint(-3, 3)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 3), n - sum(sizes)))
    block = [b for b, s in enumerate(sizes) for _ in range(s)]
    while True:
        gens = []
        for _ in range(m):
            gens.append(mat(field, [[scalar() if block[i] <= block[j] else 0
                                     for j in range(n)] for i in range(n)]))
        if all(g.is_invertible() for g in gens):
            break
    if field.p:
        g = random_invertible(rng, field, n)
    else:
        g = mat(field, [[1 if i == j else (rng.randint(-2, 2) if i < j else 0)
                         for j in range(n)] for i in range(n)])
        g = g * g.transpose()
    return MatrixTuple.make(field, [g * c * g.inverse() for c in gens])


def _assert_matches_oracle(h, w):
    got = has_invariant_complement(h, w)
    assert (got is None) == (projection_complement(h, w) is None), (h, w)
    assert got == sylvester_complement(h, w), (h, w)


def test_complement_matches_projection_oracle_seeded():
    rng = random.Random(2207)
    for field, n_max, trials in ((GF(2), 6, 10), (GF(3), 6, 10), (GF(7), 6, 10),
                                 (GF(65537), 5, 8), (QQ, 5, 8)):
        for _ in range(trials):
            h = _flagged_tuple(rng, field, rng.randint(1, n_max), rng.choice([1, 2]))
            series = composition_series(h).series  # from W = 0 to W = V
            for w in series:
                _assert_matches_oracle(h, w)
            assert has_invariant_complement(h, series[0]) == series[-1]
            assert has_invariant_complement(h, series[-1]) == series[0]


def test_complement_matches_oracle_on_every_invariant_subspace():
    rng = random.Random(12169)
    for p, n, trials in ((2, 3, 6), (2, 4, 3), (3, 3, 4)):
        field = GF(p)
        subspaces = all_subspaces(field, n)
        for _ in range(trials):
            h = _flagged_tuple(rng, field, n, rng.choice([1, 2]))
            for w in subspaces:
                if all(w.contains(c.apply(row)) for c in h for row in w.basis.entries):
                    _assert_matches_oracle(h, w)


def test_complement_matches_oracle_identity_and_scalar_tuples():
    # every subspace is invariant and the Sylvester system has d(n-d) free
    # unknowns, so the returned complement is fixed by the canonical choice
    for p, n in ((2, 3), (3, 3), (2, 4)):
        field = GF(p)
        ident = Matrix.identity(field, n)
        for h in (tup(field, ident), tup(field, -ident, ident)):
            for w in all_subspaces(field, n):
                _assert_matches_oracle(h, w)
    rng = random.Random(3)
    for field in (QQ, GF(65537)):
        n = 5
        ident = Matrix.identity(field, n)
        for h in (tup(field, ident), tup(field, ident + ident + ident)):
            for d in range(n + 1):
                vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
                _assert_matches_oracle(h, Subspace.from_vectors(field, n, vecs))


def _triangular_tuple(rng, field, n, m):
    """m upper triangular generators with diagonal entries 1 or 3."""
    return tup(field, *(mat(field, [[rng.choice((1, 3)) if i == j else
                                     rng.randint(-2, 2) if i < j else 0
                                     for j in range(n)] for i in range(n)])
                        for _ in range(m)))


def _check_report(h):
    report = run(JobRequest(command="check", field=h.field, matrices=h))
    del report["elapsed_ms"]
    return report


def test_check_report_independent_of_generator_presentation():
    # series, complements and witness depend only on the algebra the
    # generators span: permuting them, repeating one and appending the
    # product of two leaves the check report unchanged; the unconjugated
    # triangular tuples give non-split series over the large fields too
    rng = random.Random(5081)
    for field in (GF(2), GF(7), GF(65537), QQ):
        for trial in range(9):
            n, m = rng.randint(2, 5), rng.choice([2, 3])
            if trial % 3 == 2:
                h = _triangular_tuple(rng, field, n, m)
            else:
                h = _flagged_tuple(rng, field, n, m)
            if trial % 3 == 1:
                h = block_diagonal(h, _flagged_tuple(rng, field, 2, m))
            gens = list(h.components)
            rng.shuffle(gens)
            gens.append(rng.choice(gens))
            a, b = rng.sample(list(h.components), 2)
            gens.append(a * b)
            assert _check_report(MatrixTuple.make(field, gens)) == _check_report(h)


def test_verify_complement_survives_optimize_flag():
    # under python -O plain asserts vanish; the complement certificate must
    # still raise, and the CLI must still map it to exit code 3
    code = """
import io, json
import gcr.engine as engine
from gcr.cli import main
from gcr.linalg import QQ, MatrixTuple, Subspace
assert False, "asserts are live"
h = MatrixTuple.make(QQ, [[[1, 1], [0, 2]]])
w = Subspace.from_vectors(QQ, 2, [(1, 0)])
bad = Subspace.from_vectors(QQ, 2, [(0, 1)])
try:
    engine._verify_complement(h, w, bad)
except AssertionError as e:
    print("raised:", e)
engine.solve_affine = lambda a, b: ((0,) * a.cols, ())
doc = {"command": "check", "field": {"kind": "rationals"},
       "matrices": [[["1", "1"], ["0", "2"]]]}
err = io.StringIO()
print("exit:", main(["check"], stdin=io.StringIO(json.dumps(doc)),
                    stdout=io.StringIO(), stderr=err))
print(err.getvalue().strip())
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "raised: complement is not invariant"
    assert lines[1] == "exit: 3"
    assert lines[2] == "internal error: complement is not invariant"


# -- composition series ------------------------------------------------------

def test_series_jordan():
    decomp = composition_series(jordan2(QQ))
    assert [s.dim for s in decomp.series] == [0, 1, 2]
    assert decomp.series[1] == Subspace.from_vectors(QQ, 2, [(1, 0)])
    assert decomp.step_split == (False,)
    assert not decomp.semisimple


def test_series_identity_lexicographic():
    decomp = composition_series(tup(QQ, Matrix.identity(QQ, 2)))
    assert decomp.series[1] == Subspace.from_vectors(QQ, 2, [(1, 0)])
    assert decomp.semisimple


def test_series_adjoint_f3_irreducible():
    decomp = composition_series(adjoint_sl2_tuple(3))
    assert [s.dim for s in decomp.series] == [0, 3]
    assert decomp.semisimple
    assert decomp.factor_commutant_dims == (1,)


def test_commutant_adjoint_f3_schur():
    # irreducible module with full endomorphism field: commutant is scalars
    assert len(commutant(adjoint_sl2_tuple(3).components)) == 1


def test_factor_not_absolutely_irreducible_advisory():
    # rotation over F_3: irreducible with quadratic endomorphism field, so
    # the factor commutant has dimension 2
    field = GF(3)
    h = tup(field, mat(field, [[0, 2], [1, 0]]))
    decomp = composition_series(h)
    assert decomp.factor_dims == (2,)
    assert decomp.factor_commutant_dims == (2,)
    assert decomp.semisimple


def test_verify_witness_rejects_tampering():
    h = e13_tuple(GF(2))
    _, _, wit = is_completely_reducible(h)
    assert verify_witness(h, wit)
    from gcr.engine import WitnessParabolic
    # point the step at a member that does have a complement... the full
    # space member is rejected outright
    bad_step = WitnessParabolic(wit.flag, wit.reason, len(wit.flag))
    assert not verify_witness(h, bad_step)
    # a flag member that is not generator-stable is rejected
    bad_flag = (Subspace.from_vectors(GF(2), 3, [(0, 0, 1)]),) + wit.flag[1:]
    bad = WitnessParabolic(bad_flag, wit.reason, 1)
    assert not verify_witness(h, bad)
    # a step outside 1..len(flag)-1 is rejected, not read from the end or
    # past it
    for step in (-2, -1, 0, len(wit.flag) + 1):
        assert not verify_witness(h, wit._replace(step=step))
    # so is a flag of another shape, or a tuple of another field or dimension
    zero = Subspace.zero(GF(2), 3)
    assert not verify_witness(h, wit._replace(flag=(zero,) + wit.flag))
    assert not verify_witness(h, wit._replace(flag=()))
    assert not verify_witness(h, wit._replace(flag=wit.flag[:1], step=1))
    assert not verify_witness(e13_tuple(GF(3)), wit)
    assert not verify_witness(jordan2(GF(2)), wit)


def test_witness_cochar_is_derived_from_flag():
    # the cocharacter is not a field: it cannot disagree with the flag
    field = QQ
    h = tup(field, mat(field, [[1, 1, 0], [0, 1, 0], [0, 0, 2]]))
    wit = is_completely_reducible(h)[2]
    assert [s.dim for s in wit.flag] == [1, 2, 3]
    assert wit.cochar == Cocharacter((2, 1, 0))
    with pytest.raises(TypeError, match="no field 'cochar'"):
        wit._replace(cochar=Cocharacter((0, 0, 0)))


def _random_flag_tuple(rng, field, n, m, unipotent):
    """m generators g t g^-1 with t upper triangular, with diagonal entries
    1 if unipotent and +-1 otherwise, and small random entries above it.
    g is invertible over F_p; over Q it is a permutation matrix, since a
    hidden flag over Q can get the wrong verdict (ROADMAP item 1)."""
    def entry():
        return rng.randrange(field.p) if field.p else rng.randrange(-2, 3)

    g = (random_invertible(rng, field, n) if field.p
         else random_permutation_matrix(rng, field, n))

    def upper():
        rows = [[entry() if i < j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = 1 if unipotent else rng.choice((1, -1))
        return mat(field, rows)

    gi = g.inverse()
    return tup(field, *(g * upper() * gi for _ in range(m)))


@pytest.mark.parametrize("field", [GF(2), GF(7), QQ], ids=repr)
def test_witnesses_verify_with_flag_cochar_random(field):
    # the witnesses of check, witness and borel-tits re-verify, and each
    # carries the cocharacter adapted to its flag
    rng = random.Random(71)
    seen = 0
    for _ in range(12):
        unipotent = rng.random() < 0.5
        h = _random_flag_tuple(rng, field, rng.randrange(2, 5),
                               rng.randrange(1, 3), unipotent)
        cr, _, wit = is_completely_reducible(h)
        if cr:
            continue
        seen += 1
        wits = [wit, tuple_witness_search(h)[0]]
        if unipotent:
            wits.append(borel_tits_flag(h))
        for w in wits:
            assert verify_witness(h, w)
            assert w.cochar == cocharacter_from_flag(w.flag)
    assert seen >= 10


def test_series_quotients_irreducible_random():
    # certified by exhaustive spin over the factor: no proper invariant
    # subspace of any factor
    rng = random.Random(43)
    from gcr.engine import _action, _minimal_invariant
    from gcr.linalg import span_basis
    for _ in range(15):
        h = random_gl_tuple(rng, 2, 4, 2)
        decomp = composition_series(h)
        assert decomp.series[-1].is_full
        acts = span_basis(h.components)
        for a, b in zip(decomp.series, decomp.series[1:]):
            assert a.dim < b.dim
            qacts = _action(acts, Subspace.full(h.field, h.dim), a)
            sub = _minimal_invariant(qacts, lambda: None)
            assert sub.dim == b.dim - a.dim


def _action_oracle(acts, w, u):
    """Matrices of acts on w/u in the basis of w's RREF rows at pivots that
    are not u's, with coordinates solved by Gauss-Jordan elimination of
    [basis rows, u rows | image] with per-scalar field arithmetic."""
    field, n = w.field, w.ambient
    _, upiv, _ = gauss_jordan(u.basis)
    wred, wpiv, rank = gauss_jordan(w.basis)
    basis = [row for row, pc in zip(wred.entries[:rank], wpiv) if pc not in upiv]
    gens = basis + list(u.basis.entries)
    out = []
    for a in acts:
        cols = []
        for b in basis:
            image = [field.zero] * n
            for i in range(n):
                for j in range(n):
                    image[i] = field.add(image[i], field(a.entries[i][j] * b[j]))
            aug = Matrix(field, n, len(gens) + 1,
                         tuple(tuple(v[i] for v in gens) + (image[i],)
                               for i in range(n)))
            red, piv, _ = gauss_jordan(aug)
            assert piv == tuple(range(len(gens))), "image outside w"
            cols.append([red.entries[r][len(gens)] for r in range(len(basis))])
        out.append(Matrix(field, len(basis), len(basis),
                          tuple(tuple(c[r] for c in cols)
                                for r in range(len(basis)))))
    return out


def _planted_flag(rng, field, sizes):
    """Two block upper triangular generators over the block sizes,
    conjugated by a random invertible g, and the flag they stabilise, zero
    through full: the spans of g's leading columns."""
    n = sum(sizes)
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    block = [b for b, s in enumerate(sizes) for _ in range(s)]

    def draw(upper):
        while True:
            m = mat(field, [[(rng.randrange(field.p) if field.p else rng.randint(-3, 3))
                             if not upper or block[i] <= block[j] else 0
                             for j in range(n)] for i in range(n)])
            if m.is_invertible():
                return m

    g = draw(False)
    cols = g.transpose().entries
    flag = tuple(Subspace.from_vectors(field, n, cols[:s]) for s in starts)
    gi = g.inverse()
    return tup(field, *(g * draw(True) * gi for _ in range(2))), flag


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_action_matches_gauss_jordan_oracle(field):
    # pairs u <= w of members of the series of flagged tuples, and of
    # planted flags (over Q the series search misses hidden flags, ROADMAP
    # item 1): consecutive and non-consecutive members, zero and full
    from gcr.engine import _action, _series
    rng = random.Random(20261019 + (field.p or 0))
    pairs = set()
    for sizes in ([1, 2, 1], [2, 2], [1, 1, 2], [2, 1, 1], [1, 3], [1, 1, 1, 1]):
        planted, flag = _planted_flag(rng, field, sizes)
        flagged = _flagged_tuple(rng, field, sum(sizes), 2)
        for h, chain in ((planted, flag), (flagged, _series(flagged))):
            for i, u in enumerate(chain):
                for j, w in enumerate(chain[i + 1:], i + 1):
                    assert _action(h.components, w, u) == \
                        _action_oracle(h.components, w, u)
                    pairs.add((u, w, j - i))
    assert len({p for p in pairs if p[2] > 1}) > 10


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_candidate_vectors_one_per_line(p):
    # one seed per line, in the order of each line's first appearance in
    # the exhaustive enumeration
    from gcr.engine import _candidate_vectors
    field = GF(p)
    rng = random.Random(300 + p)
    for d in range(1, 5):
        for _ in range(3):
            n = rng.randint(d, 5)
            while True:
                sub = Subspace.from_vectors(
                    field, n, [[rng.randrange(p) for _ in range(n)]
                               for _ in range(d)])
                if sub.dim == d:
                    break
            got = list(_candidate_vectors(sub))
            assert got == first_of_each_line(p, all_candidate_vectors(sub))
            assert len(got) == (p ** d - 1) // (p - 1)


@pytest.mark.parametrize("field", [GF(3), GF(7)], ids=repr)
def test_minimal_invariant_matches_exhaustive_seeds(field, monkeypatch):
    # the first seed that shrinks the subspace has leading coefficient 1,
    # so spinning one vector per line finds the same subspace, in fewer
    # spins
    from gcr import engine

    def minimal_invariant(acts):
        spins = itertools.count()
        sub = engine._minimal_invariant(acts, lambda: next(spins))
        return sub, next(spins)

    rng = random.Random(61 + field.p)
    sizes_list = ([1, 2], [2, 1], [1, 1, 1], [2, 2], [1, 3], [3, 1], [1, 2, 1])
    if field.p == 3:
        sizes_list += ([2, 3], [1, 1, 2, 2], [3, 3])
    fewer = 0
    for sizes in sizes_list:
        for _ in range(2):
            h, _ = _planted_flag(rng, field, sizes)
            sub, spins = minimal_invariant(h.components)
            with monkeypatch.context() as m:
                m.setattr(engine, "_candidate_vectors", all_candidate_vectors)
                old_sub, old_spins = minimal_invariant(h.components)
            assert sub == old_sub
            assert spins <= old_spins
            fewer += spins < old_spins
    assert fewer > 0


def test_series_budget_counts_every_spin():
    # the companion matrix of x^10 + x^3 + 1, irreducible over F_2: its
    # module is simple, which the exhaustive search certifies with 10 seed
    # spins and 2^10 - 1 candidate spins
    rows = [[int(i == j + 1) for j in range(10)] for i in range(10)]
    rows[0][9] = rows[3][9] = 1
    h = tup(GF(2), mat(GF(2), rows))
    decomp = composition_series(h, budget=1033)
    assert [s.dim for s in decomp.series] == [0, 10]
    assert decomp.factor_commutant_dims == (10,)
    with pytest.raises(BudgetExceeded, match="composition series"):
        composition_series(h, budget=1032)


# -- the module criterion ----------------------------------------------------

def test_cr_diagonal_true():
    field = GF(5)
    h = tup(field, mat(field, [[1, 0], [0, 2]]), mat(field, [[2, 0], [0, 1]]))
    cr, decomp, wit = is_completely_reducible(h)
    assert cr and decomp.semisimple and wit is None


def test_cr_e13_false_with_witness():
    h = e13_tuple(GF(2))
    cr, decomp, wit = is_completely_reducible(h)
    assert not cr
    assert wit is not None and wit.reason == "no-complement"
    assert verify_witness(h, wit)
    member = wit.flag[wit.step - 1]
    assert has_invariant_complement(h, member) is None


def test_cr_adjoint_f2_splits():
    # The group generated here is the full finite group of F_2 points, of
    # order 6; its trace-zero module splits as scalars + span of the
    # transpositions, machine-verified below.  (The algebraic-group module
    # over the closure does not split, but that group is not generated by
    # these two matrices.)
    h = adjoint_sl2_tuple(2)
    cr, decomp, wit = is_completely_reducible(h)
    assert cr and wit is None
    assert decomp.factor_dims == (1, 2)
    comp = has_invariant_complement(h, decomp.series[1])
    assert comp is not None and comp.dim == 2
    for c in h:
        for row in comp.basis.entries:
            assert comp.contains(c.apply(row))


def test_orbit_closed_matches_criterion():
    # the orbit is closed iff the tuple is completely reducible
    assert is_completely_reducible(tup(GF(5), mat(GF(5), [[1, 0], [0, 3]])))[0]
    assert not is_completely_reducible(jordan2(GF(5)))[0]


HIDDEN_FLAG = pytest.mark.xfail(
    strict=True,
    reason="known wrong verdict (ROADMAP item 1): over Q, or over F_p with "
           "p^3 > 2^16, the minimal-invariant search seeds spin only with "
           "basis rows and misses the hidden flag")


@pytest.mark.parametrize("field", [
    pytest.param(QQ, marks=HIDDEN_FLAG, id="QQ"),
    pytest.param(GF(65537), marks=HIDDEN_FLAG, id="GF65537"),
    pytest.param(GF(41), marks=HIDDEN_FLAG, id="GF41"),
    pytest.param(GF(7), id="GF7"),
    pytest.param(GF(37), id="GF37"),
])
def test_cr_hidden_flag_jordan_block(field):
    # h = g J g^-1 with J a 2x2 Jordan block plus the eigenvalue 2: a
    # non-split flag 0 < V_1 < V_2 < V hidden from the coordinate axes
    g = mat(field, [[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    j = mat(field, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    cr, decomp, _ = is_completely_reducible(tup(field, g * j * g.inverse()))
    assert (cr, [v.dim for v in decomp.series]) == (False, [0, 1, 2, 3])


# -- semisimplification ------------------------------------------------------

def test_semisimplify_jordan():
    lim, lam = semisimplify(jordan2(QQ))
    assert lim[0] == Matrix.identity(QQ, 2)
    assert lam.exponents == (1, 0)
    assert lam.conjugator is None


def test_semisimplify_solves_no_complements(monkeypatch):
    # semisimplify reads only the series, so it must not solve complements
    import gcr.engine as engine

    def refuse(h, w):
        raise AssertionError("semisimplify solved a complement")
    monkeypatch.setattr(engine, "has_invariant_complement", refuse)
    for h in (jordan2(QQ), e13_tuple(GF(2)), adjoint_sl2_tuple(3)):
        lim, lam = semisimplify(h)
        assert limit_tuple(lam, h) == lim


def test_semisimplify_block_diagonal_fixed():
    field = GF(7)
    h = tup(field, mat(field, [[2, 0], [0, 3]]))
    lim, lam = semisimplify(h)
    assert limit_tuple(lam, h) == lim
    assert tuple(lim.components) == tuple(h.components)


def test_semisimplify_e13():
    h = e13_tuple(GF(2))
    lim, lam = semisimplify(h)
    assert lim[0] == Matrix.identity(GF(2), 3)


def test_semisimplify_idempotent_and_factors_preserved():
    rng = random.Random(53)
    for _ in range(15):
        h = random_gl_tuple(rng, 2, 3, 2)
        lim, lam = semisimplify(h)
        assert is_completely_reducible(lim)[0]
        # fixed by its own cocharacter
        lim2, _ = semisimplify(lim)
        assert Counter(composition_series(h).factor_dims) == \
            Counter(composition_series(lim).factor_dims)
        assert limit_tuple(semisimplify(lim)[1], lim) == lim


def test_dimension_inequality_smoke():
    for h in (jordan2(GF(3)), e13_tuple(GF(2))):
        lim, _ = semisimplify(h)
        assert len(commutant(lim.components)) > len(commutant(h.components))


# -- unipotent witness flags -------------------------------------------------

def test_borel_tits_jordan3():
    field = QQ
    h = tup(field, mat(field, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    wit = borel_tits_flag(h)
    assert [s.dim for s in wit.flag] == [1, 2, 3]
    assert wit.flag[0] == Subspace.from_vectors(field, 3, [(1, 0, 0)])
    assert wit.reason == "borel-tits"
    assert verify_witness(h, wit)


def test_borel_tits_e13():
    h = e13_tuple(GF(2))
    wit = borel_tits_flag(h)
    assert [s.dim for s in wit.flag] == [2, 3]
    assert wit.flag[0] == Subspace.from_vectors(GF(2), 3, [(1, 0, 0), (0, 1, 0)])


def test_borel_tits_errors():
    field = GF(3)
    with pytest.raises(ValueError):
        borel_tits_flag(tup(field, Matrix.identity(field, 2)))
    with pytest.raises(ValueError):
        borel_tits_flag(tup(field, mat(field, [[2, 0], [0, 1]])))


def test_borel_tits_rejects_nonunipotent_group():
    # both generators unipotent but the generated group is not
    field = GF(3)
    h = tup(field, mat(field, [[1, 1], [0, 1]]), mat(field, [[1, 0], [1, 1]]))
    with pytest.raises(ValueError):
        borel_tits_flag(h)


# -- orbit dimension ---------------------------------------------------------

def test_orbit_dimension_examples():
    assert orbit_dimension(tup(QQ, Matrix.identity(QQ, 2))) == 0
    assert orbit_dimension(jordan2(QQ)) == 2
    field = GF(7)
    assert orbit_dimension(tup(field, mat(field, [[1, 0], [0, 2]]))) == 2


# -- products ----------------------------------------------------------------

def test_product_check_examples():
    field = GF(5)
    d1 = tup(field, mat(field, [[1, 0], [0, 2]]))
    d2 = tup(field, mat(field, [[3, 0], [0, 1]]))
    assert product_check(d1, d2) == (True, True, True)

    u = tup(field, mat(field, [[1, 1], [0, 1]]))
    assert product_check(u, d2) == (False, True, False)


def test_product_check_adjoint_pair():
    # both components are completely reducible over F_2 (the trace-zero
    # module of the finite group splits), so the block embedding is too
    h = adjoint_sl2_tuple(2)
    assert product_check(h, h) == (True, True, True)


def test_product_check_mismatch():
    field = GF(5)
    with pytest.raises(ValueError):
        product_check(tup(field, Matrix.identity(field, 2)),
                      tup(field, Matrix.identity(field, 2),
                          Matrix.identity(field, 2)))


# -- R_u conjugators ---------------------------------------------------------

def test_ru_conjugator_block_diagonal_identity():
    field = GF(5)
    h = tup(field, mat(field, [[1, 0], [0, 2]]))
    u = ru_conjugator(h, Cocharacter((1, 0)))
    assert u == Matrix.identity(field, 2)


def test_ru_conjugator_jordan_absent():
    h = jordan2(GF(2))
    assert ru_conjugator(h, Cocharacter((1, 0))) is None


def test_ru_conjugator_finds_witness():
    field = GF(5)
    u0 = mat(field, [[1, 1], [0, 1]])
    d = mat(field, [[1, 0], [0, 2]])
    h = tup(field, u0 * d * u0.inverse())
    u = ru_conjugator(h, Cocharacter((1, 0)))
    assert u == u0.inverse()
    lim = limit_tuple(Cocharacter((1, 0)), h)
    assert u * h[0] * u.inverse() == lim[0]


def test_ru_conjugator_conjugated_cocharacter():
    # the search transports along the conjugator: run the diagonal example
    # from inside a conjugated torus
    field = GF(5)
    u0 = mat(field, [[1, 1], [0, 1]])
    d = mat(field, [[1, 0], [0, 2]])
    s = mat(field, [[2, 1], [1, 1]])
    h = tup(field, s * (u0 * d * u0.inverse()) * s.inverse())
    lam = Cocharacter((1, 0), s)
    u = ru_conjugator(h, lam)
    assert u is not None
    lim = limit_tuple(lam, h)
    assert u * h[0] * u.inverse() == lim[0]
    # u lives in the conjugated unipotent radical
    from gcr.cochar import parabolic_of
    pd = parabolic_of(Cocharacter((1, 0)))
    assert pd.contains_ru(s.inverse() * u * s)


def test_ru_conjugator_errors():
    h2 = tup(GF(2), mat(GF(2), [[1, 0], [1, 1]]))
    with pytest.raises(ValueError):
        ru_conjugator(h2, Cocharacter((1, 0)))  # limit absent
    with pytest.raises(ValueError):
        ru_conjugator(jordan2(GF(2)), Cocharacter((1, 0, 0)))  # dimensions


def test_ru_conjugator_recheck_raises(monkeypatch):
    # a wrong solution of the conjugator system must not be returned
    import gcr.engine as engine
    field = GF(5)
    u0 = mat(field, [[1, 1], [0, 1]])
    h = tup(field, u0 * mat(field, [[1, 0], [0, 2]]) * u0.inverse())
    monkeypatch.setattr(engine, "solve_affine", lambda a, b: ((0,) * a.cols, ()))
    with pytest.raises(AssertionError):
        ru_conjugator(h, Cocharacter((1, 0)))


def _pattern_matrix(rng, field, e, keep, unit=False):
    """Random matrix with entries only where keep(e[i], e[j]); unit puts
    ones on the diagonal, otherwise the matrix is retried until invertible."""
    n = len(e)
    while True:
        m = mat(field, [[1 if unit and i == j else
                         rng.randrange(field.p) if keep(e[i], e[j]) else 0
                         for j in range(n)] for i in range(n)])
        if m.is_invertible():
            return m


def _parabolic_case(rng):
    """A tuple inside P_lam for a random lam with exponents in [-1, 1]^n,
    conjugated 40% of the time.  Half the tuples are Levi tuples moved by a
    random member of R_u (a conjugator exists); the rest are random in P."""
    p = rng.choice([2, 3, 5])
    n = rng.choice([2, 3, 4])
    field = GF(p)
    e = tuple(rng.randint(-1, 1) for _ in range(n))
    m = rng.choice([1, 2])
    if rng.random() < 0.5:
        u = _pattern_matrix(rng, field, e, lambda a, b: a > b, unit=True)
        levi = [_pattern_matrix(rng, field, e, lambda a, b: a == b)
                for _ in range(m)]
        comps = [u * x * u.inverse() for x in levi]
    else:
        comps = [_pattern_matrix(rng, field, e, lambda a, b: a >= b)
                 for _ in range(m)]
    g = random_invertible(rng, field, n) if rng.random() < 0.4 else None
    if g is not None:
        comps = [g * c * g.inverse() for c in comps]
    return MatrixTuple(field, n, tuple(comps)), Cocharacter(e, g)


def test_ru_conjugator_matches_enumeration():
    rng = random.Random(97)
    found = conjugated = 0
    for _ in range(400):
        h, lam = _parabolic_case(rng)
        u = ru_conjugator(h, lam)
        assert u == enumerate_ru_conjugator(h, lam), (raw_tuple(h), lam)
        found += u is not None
        conjugated += lam.conjugator is not None
    assert conjugated >= 120
    assert 0 < found < 400


def test_ru_conjugator_rationals():
    from fractions import Fraction
    from gcr.cochar import parabolic_of
    u0 = mat(QQ, [[1, Fraction(3, 2)], [0, 1]])
    levi = [mat(QQ, [[2, 0], [0, 3]]), mat(QQ, [[-1, 0], [0, Fraction(1, 5)]])]
    h = tup(QQ, *[u0 * x * u0.inverse() for x in levi])
    lam = Cocharacter((1, 0))
    u = ru_conjugator(h, lam)
    assert u == u0.inverse()
    assert parabolic_of(lam).contains_ru(u)
    lim = limit_tuple(lam, h)
    assert all(u * c * u.inverse() == lc for c, lc in zip(h, lim))
    assert ru_conjugator(jordan2(QQ), lam) is None


# -- group enumeration and normal closures -----------------------------------

def test_enumerate_group_s3():
    field = GF(2)
    cyc = mat(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    swap = mat(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    g = enumerate_group([cyc, swap])
    assert len(g) == 6


def test_enumerate_group_budget():
    field = GF(3)
    cyc = mat(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(BudgetExceeded):
        enumerate_group([cyc], budget=2)


def test_normal_closure_s3():
    field = GF(2)
    cyc = mat(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    swap = mat(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    h = tup(field, cyc, swap)

    n = normal_closure(h, [0])  # closure of the 3-cycle: alternating part
    assert len(n) == 3
    assert Matrix.identity(field, 3) in n.components

    full = normal_closure(h, [0, 1])
    assert len(full) == 6

    # a transposition generates the whole of S_3 as a normal subgroup
    assert len(normal_closure(h, [1])) == 6


def test_normal_closure_trivial():
    field = GF(2)
    ident = Matrix.identity(field, 2)
    h = MatrixTuple(field, 2, (ident, mat(field, [[0, 1], [1, 0]])))
    n = normal_closure(h, [0])
    assert tuple(n.components) == (ident,)


def test_normal_closure_is_normal_and_minimal():
    rng = random.Random(59)
    for _ in range(10):
        h = random_gl_tuple(rng, 2, 3, 2)
        try:
            g = enumerate_group(h, budget=2000)
        except BudgetExceeded:
            continue
        n = normal_closure(h, [0], budget=2000)
        elements = set(n.components)
        assert h[0] in elements
        for a in g:
            ai = a.inverse()
            assert all(a * x * ai in elements for x in elements)


def test_normal_closure_budget_counts_closure_only():
    # the closure of the 3-cycle in S_3 has 3 elements; the group has 6
    field = GF(2)
    cyc = mat(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    swap = mat(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    h = tup(field, cyc, swap)
    assert len(normal_closure(h, [0], budget=3)) == 3
    with pytest.raises(BudgetExceeded):
        normal_closure(h, [0], budget=2)


def test_normal_closure_matches_enumeration():
    rng = random.Random(101)
    checked = 0
    while checked < 300:
        p, n = rng.choice([(2, 2), (2, 3), (3, 2)])
        field = GF(p)
        m = rng.choice([1, 2, 3])
        kind = rng.choice(["gl", "unipotent", "monomial"])
        if kind == "gl":
            h = random_gl_tuple(rng, p, n, m)
        elif kind == "unipotent":
            h = random_unipotent_tuple(rng, p, n, m)
        else:
            h = MatrixTuple(field, n, tuple(random_monomial_matrix(rng, field, n)
                                            for _ in range(m)))
        indices = sorted(rng.sample(range(m), rng.randint(1, m)))
        assert normal_closure(h, indices).components == \
            enumerate_normal_closure(h, indices), (raw_tuple(h), indices)
        checked += 1


# -- heuristic witness search ------------------------------------------------

def test_witness_search_cr_none():
    field = GF(5)
    assert tuple_witness_search(tup(field, mat(field, [[1, 0], [0, 2]]))) is None


def _assert_destabilises(h, wit, lam):
    """lam is the witness's cocharacter reweighted: same conjugator,
    exponents constant on each flag block; it pairs >= 0 with the whole
    tuple support and its limit exists and leaves the orbit."""
    assert lam.conjugator == wit.cochar.conjugator
    dims = [0] + [sub.dim for sub in wit.flag]
    assert all(len(set(lam.exponents[a:b])) == 1 for a, b in zip(dims, dims[1:]))
    assert mu(support_of_tuple(h, lam), lam.exponents) >= 0
    lim = limit_tuple(lam, h)
    assert lim is not None
    assert not tuples_conjugate(h.field.p, raw_tuple(h), raw_tuple(lim))


def test_witness_search_e13():
    h = e13_tuple(GF(2))
    found = tuple_witness_search(h)
    assert found is not None
    wit, rep, lam = found
    assert verify_witness(h, wit)
    assert not rep.semistable and rep.mu_opt > 0
    _assert_destabilises(h, wit, lam)


def test_witness_search_adjoint_f2_none():
    # completely reducible tuple (see test_cr_adjoint_f2_splits): no witness
    assert tuple_witness_search(adjoint_sl2_tuple(2)) is None


def test_witness_search_random_consistency():
    rng = random.Random(61)
    for _ in range(15):
        h = random_gl_tuple(rng, 2, 3, 1)
        found = tuple_witness_search(h)
        assert (found is None) == is_completely_reducible(h)[0]
        if found is None:
            continue
        wit, rep, lam = found
        assert verify_witness(h, wit)
        _assert_destabilises(h, wit, lam)


# -- criterion consistency at desk scale --------------------------------------

def test_criterion_consistency_small():
    # completely reducible iff the semisimplification is conjugate to the
    # tuple, by exhaustive conjugacy over the full finite group
    rng = random.Random(67)
    for p, n in ((2, 2), (3, 2), (2, 3)):
        for _ in range(12):
            h = random_gl_tuple(rng, p, n, rng.choice([1, 2]))
            lim, _ = semisimplify(h)
            conj = tuples_conjugate(p, raw_tuple(h), raw_tuple(lim))
            assert conj == is_completely_reducible(h)[0]


def test_clifford_smoke():
    # normal subgroups of completely reducible groups stay completely
    # reducible; over F_2 the permutation module of S_3 splits as the
    # all-ones line plus the sum-zero plane
    field = GF(2)
    cyc = mat(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    swap = mat(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    h = tup(field, cyc, swap)
    assert is_completely_reducible(h)[0]
    for subset in ([0], [1], [0, 1]):
        n = normal_closure(h, subset)
        assert is_completely_reducible(n)[0]


def test_reducibility_vs_subspace_enumeration():
    # independent oracle: enumerate every subspace, find the invariant ones
    # directly, and decide semisimplicity by enumerated complements
    rng = random.Random(73)
    cases = [(2, 3, 8), (3, 2, 8), (2, 4, 4)]
    for p, n, trials in cases:
        field = GF(p)
        subspaces = all_subspaces(field, n)
        for _ in range(trials):
            h = random_gl_tuple(rng, p, n, rng.choice([1, 2]))
            invariant = [s for s in subspaces
                         if all(s.contains(c.apply(row))
                                for c in h for row in s.basis.entries)]
            def enum_complement(w):
                for s in invariant:
                    if s.dim == n - w.dim and intersect(s, w).is_zero:
                        return s
                return None
            oracle_cr = all(enum_complement(w) is not None
                            for w in invariant
                            if 0 < w.dim < n)
            assert is_completely_reducible(h)[0] == oracle_cr
            for w in invariant:
                got = has_invariant_complement(h, w)
                want = enum_complement(w)
                assert (got is None) == (want is None)


def test_block_diagonal_shape():
    field = GF(2)
    h1 = jordan2(field)
    h2 = tup(field, Matrix.identity(field, 1))
    emb = block_diagonal(h1, h2)
    assert emb.dim == 3
    assert emb[0] == mat(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
