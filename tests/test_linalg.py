import copy
import random
from fractions import Fraction

import pytest

from gcr.cochar import Cocharacter, parabolic_of
from gcr.engine import composition_series, is_completely_reducible
from gcr.instability import BoxOptimum, WeightSet, optimal_cocharacter
from gcr.jobs import JobRequest
from gcr.linalg import (GF, QQ, Field, Matrix, MatrixTuple, Subspace,
                        commutant, kernel_basis, rref, solve_affine,
                        span_basis, spin, sylvester_rows)

from helpers import fraction_spin, gauss_jordan, intersect, random_invertible


def mat(field, rows):
    return Matrix.make(field, rows)


def test_field_validation():
    Field(2)
    Field(2**31 - 1)  # largest allowed prime
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(2**31 + 11)


JORDAN_GF2 = MatrixTuple.make(GF(2), [[[1, 1], [0, 1]]])


@pytest.mark.parametrize("make, name, text, cached", [
    pytest.param(lambda: Field(5), "p", "GF(5)", None, id="Field-GF5"),
    pytest.param(lambda: Field(), "p", "QQ", None, id="Field-QQ"),
    pytest.param(lambda: mat(GF(5), [[1, 2], [3, 4]]), "entries", None, None,
                 id="Matrix"),
    pytest.param(lambda: mat(QQ, [["1/2", 3], [4, "-2/3"]]), "entries", None,
                 "_integral", id="Matrix-QQ"),
    pytest.param(lambda: Subspace.from_vectors(GF(5), 3, [(0, 2, 4), (1, 0, 0)]),
                 "basis", None, "pivots", id="Subspace"),
    pytest.param(lambda: MatrixTuple.make(QQ, [[[1, 1], [0, 1]], [[2, 0], [0, 1]]]),
                 "components", None, "span", id="MatrixTuple"),
    pytest.param(lambda: Cocharacter((1, -1)), "exponents",
                 "Cocharacter(exponents=(1, -1), conjugator=None)", None,
                 id="Cocharacter"),
    pytest.param(lambda: WeightSet.of([(1, 0), (0, 1), (1, 0)]), "weights",
                 "WeightSet(rank=2, weights=((0, 1), (1, 0)))", None,
                 id="WeightSet"),
    pytest.param(lambda: optimal_cocharacter(WeightSet.of([(1, 0), (0, 1)])),
                 "lam_opt", None, None, id="InstabilityReport"),
    pytest.param(lambda: JobRequest("limit", QQ, matrix=mat(QQ, [[1, 1], [0, 1]]),
                                    cocharacter=Cocharacter((1, -1))),
                 "budget", None, None, id="JobRequest"),
    pytest.param(lambda: composition_series(JORDAN_GF2), "series", None, None,
                 id="ModuleDecomposition"),
    pytest.param(lambda: is_completely_reducible(JORDAN_GF2)[2], "flag", None,
                 "cochar", id="WitnessParabolic"),
    pytest.param(lambda: BoxOptimum((1,), 3, 1), "mu",
                 "BoxOptimum(lam=(1,), mu=3, norm_sq=1)", None, id="BoxOptimum"),
    pytest.param(lambda: parabolic_of(Cocharacter((1, -1, 1))), "order",
                 "ParabolicData(exponents=(1, -1, 1), order=(0, 2, 1), "
                 "block_sizes=(2, 1), block_exponents=(1, -1))", None,
                 id="ParabolicData"),
])
def test_value_semantics(make, name, text, cached):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert copy.deepcopy(a) == a
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) == getattr(b, name)
    if text is not None:
        assert repr(a) == text
    if cached is not None:
        assert getattr(a, cached) is getattr(a, cached) and cached in vars(a)
        # equality and hashing ignore the cached value
        assert cached not in vars(b) and a == b and hash(a) == hash(b)


def test_frozen_constructor_and_replace():
    with pytest.raises(TypeError, match="BoxOptimum takes 3 values, got 2"):
        BoxOptimum((1,), 3)
    with pytest.raises(TypeError):
        BoxOptimum((1,), 3, 1, 0)
    wit = is_completely_reducible(JORDAN_GF2)[2]
    moved = wit._replace(step=2)
    assert type(moved) is type(wit) and moved.step == 2 and moved != wit
    assert moved._replace(step=wit.step) == wit
    with pytest.raises(TypeError, match="no field 'steps'"):
        wit._replace(steps=2)


def test_scalar_canonicalization():
    f = GF(5)
    assert f("7") == 2
    assert f(-1) == 4
    q = QQ
    assert q("2/4") == q("1/2")
    with pytest.raises(ValueError):
        f(q("1/2"))
    assert f(True) == 1 and f(12) == 2 and f(Fraction(10, 2)) == 0
    assert type(q(3)) is Fraction
    half = Fraction(1, 2)
    assert q(half) is half
    for field in (f, q):
        with pytest.raises(TypeError):
            field(1.5)


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    red, piv, rank = rref(m)
    assert red == m and piv == (0, 1, 2) and rank == 3


def test_rref_f2_rank_one():
    m = mat(GF(2), [[1, 1], [1, 1]])
    red, piv, rank = rref(m)
    assert red.entries == ((1, 1), (0, 0))
    assert rank == 1 and piv == (0,)


def test_rref_zero():
    m = Matrix.zero(QQ, 2, 3)
    red, piv, rank = rref(m)
    assert red == m and rank == 0 and piv == ()


def test_rref_idempotent():
    rng = random.Random(1)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            m = mat(field, rows)
            r1 = rref(m)[0]
            assert rref(r1)[0] == r1


def test_solve_identity():
    sol = solve_affine(Matrix.identity(QQ, 3), [1, 0, 0])
    assert sol is not None
    x, kern = sol
    assert x == (1, 0, 0) and kern == ()


def test_solve_f2_kernel():
    sol = solve_affine(mat(GF(2), [[1, 1]]), [0])
    assert sol is not None
    x, kern = sol
    assert x == (0, 0)
    assert kern == ((1, 1),)
    # oracle: enumerate all four vectors
    sols = [(a, b) for a in range(2) for b in range(2) if (a + b) % 2 == 0]
    assert set(sols) == {(0, 0), (1, 1)}


def test_solve_infeasible():
    assert solve_affine(mat(QQ, [[0, 0]]), [1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_affine(mat(QQ, [[1, 0]]), [1, 2])


def test_solve_random_consistency():
    rng = random.Random(7)
    for field in (QQ, GF(3)):
        for _ in range(25):
            a = mat(field, [[rng.randint(-2, 2) for _ in range(3)]
                            for _ in range(2)])
            b = [field(rng.randint(-2, 2)) for _ in range(2)]
            sol = solve_affine(a, b)
            if sol is None:
                continue
            x, kern = sol
            assert a.apply(x) == tuple(b)
            for k in kern:
                assert all(v == 0 for v in a.apply(k))


def test_spin_fixed_line():
    h = mat(QQ, [[1, 1], [0, 1]])
    s = spin([(1, 0)], [h])
    assert s.dim == 1 and s.basis.entries == ((1, 0),)


def test_spin_grows_to_full():
    h = mat(QQ, [[1, 1], [0, 1]])
    s = spin([(0, 1)], [h])
    assert s.is_full


def test_spin_identity_gen():
    s = spin([(2, 3)], [Matrix.identity(QQ, 2)])
    assert s.dim == 1
    assert s.contains((2, 3))


def test_spin_empty_seeds():
    with pytest.raises(ValueError):
        spin([], [Matrix.identity(QQ, 2)])


def test_spin_stability_and_minimality():
    rng = random.Random(11)
    field = GF(3)
    for _ in range(15):
        gens = [random_invertible(rng, field, 4) for _ in range(2)]
        seed = tuple(rng.randrange(3) for _ in range(4))
        s = spin([seed], gens)
        assert s.contains(seed) or all(x == 0 for x in seed)
        # exactly stable: one more pass adds nothing
        for g in gens:
            for row in s.basis.entries:
                assert s.contains(g.apply(row))


def test_spin_over_q_matches_fraction_spin():
    # over Q spin runs fraction-free on primitive integer vectors; it must
    # give the same Subspace as the breadth-first spin in Fractions, on
    # generators with denominators (conjugates g t g^-1 of upper triangular
    # t, so g's leading columns span invariant subspaces), on seeds scaled by
    # rationals of either sign and on zero seeds, up to n = 12
    rng = random.Random(26)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    kinds = set()
    for n in range(1, 13):
        while True:
            g = mat(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if g.is_invertible():
                break
        gi = g.inverse()
        gens = []
        for _ in range(rng.randint(1, 2)):
            t = mat(QQ, [[rational() if j >= i else 0
                          for j in range(n)] for i in range(n)])
            gens.append(g * t * gi)
        cols = g.transpose().entries
        zero = (0,) * n
        for seeds in ([cols[0]], [cols[rng.randrange(n)], cols[rng.randrange(n)]],
                      [zero], [zero, cols[-1]],
                      [[rng.randint(-2, 2) for _ in range(n)]]):
            scaled = [[c * x for x in s] for c, s in
                      zip((rational() for _ in seeds), seeds)]
            want = fraction_spin(scaled, gens)
            assert spin(scaled, gens) == want, (n, seeds)
            kinds.add("zero" if want.is_zero else "full" if want.is_full
                      else "proper")
    assert kinds == {"zero", "proper", "full"}


def test_sylvester_rows_apply_the_map():
    rng = random.Random(17)
    for field in (GF(7), QQ):
        def rand(r, c):
            return mat(field, [[rng.randint(0, 6) for _ in range(c)]
                               for _ in range(r)])
        for d, m in ((2, 3), (3, 1), (1, 1), (0, 2), (2, 0)):
            pairs = [(rand(d, d), rand(m, m)) for _ in range(2)]
            x = rand(d, m)
            rows = sylvester_rows(pairs)
            assert len(rows) == 2 * d * m
            flat = [v for row in x.entries for v in row]
            got = [field(sum(r * v for r, v in zip(row, flat))) for row in rows]
            want = []
            for a, c in pairs:
                if d and m:
                    want += [v for row in (a * x - x * c).entries for v in row]
            assert got == want


def test_commutant_identity():
    basis = commutant([Matrix.identity(GF(3), 2)])
    assert len(basis) == 4


def test_commutant_jordan():
    basis = commutant([mat(QQ, [[1, 1], [0, 1]])])
    assert len(basis) == 2
    assert mat(QQ, [[1, 0], [0, 1]]) in basis
    assert mat(QQ, [[0, 1], [0, 0]]) in basis


def test_commutant_contains_identity_and_bounds():
    rng = random.Random(5)
    field = GF(2)
    for _ in range(20):
        gens = [random_invertible(rng, field, 3) for _ in range(2)]
        basis = commutant(gens)
        assert 1 <= len(basis) <= 9
        span = Subspace.from_vectors(
            field, 9, [tuple(x for row in b.entries for x in row) for b in basis])
        flat_id = tuple(x for row in Matrix.identity(field, 3).entries for x in row)
        assert span.contains(flat_id)


def test_commutant_dim_conjugation_invariant():
    rng = random.Random(13)
    field = GF(5)
    for _ in range(10):
        gens = [random_invertible(rng, field, 3) for _ in range(2)]
        g = random_invertible(rng, field, 3)
        gi = g.inverse()
        conj = [g * a * gi for a in gens]
        assert len(commutant(gens)) == len(commutant(conj))


def test_subspace_canonical_equality():
    s1 = Subspace.from_vectors(QQ, 2, [(1, 1), (2, 2)])
    s2 = Subspace.from_vectors(QQ, 2, [(3, 3)])
    assert s1 == s2 and s1.dim == 1


def test_subspace_sum_intersect():
    a = Subspace.from_vectors(GF(2), 3, [(1, 0, 0)])
    b = Subspace.from_vectors(GF(2), 3, [(0, 1, 0)])
    assert a.add(b).dim == 2
    assert intersect(a, b).is_zero
    assert intersect(a, a) == a


def test_matrix_inverse_round_trip():
    rng = random.Random(3)
    for field in (QQ, GF(7)):
        for _ in range(10):
            m = random_invertible(rng, field, 3) if field.p else \
                _random_invertible_qq(rng, 3)
            assert m * m.inverse() == Matrix.identity(field, 3)


def _random_invertible_qq(rng, n):
    while True:
        m = Matrix.make(QQ, [[rng.randint(-3, 3) for _ in range(n)]
                             for _ in range(n)])
        if m.is_invertible():
            return m


def test_matrix_tuple_validation():
    with pytest.raises(ValueError, match="not invertible"):
        MatrixTuple.make(QQ, [[[1, 0], [0, 0]]])  # singular
    with pytest.raises(ValueError, match="no generators"):
        MatrixTuple.make(QQ, [])
    with pytest.raises(ValueError, match="square of equal dimension"):
        MatrixTuple.make(QQ, [[[1, 0], [0, 1]], [[1]]])  # mixed dims
    with pytest.raises(ValueError, match="field mismatch"):
        MatrixTuple.make(QQ, [Matrix.identity(GF(2), 2)])


def test_generator_list_check_shared():
    # spin, commutant and MatrixTuple.make reject the same generator lists
    i2 = Matrix.identity(QQ, 2)
    shapes = ([i2, Matrix.identity(QQ, 1)], [i2, Matrix.identity(GF(2), 2)],
              [mat(QQ, [[1, 0]])])
    for gens in shapes:
        for call in (lambda: spin([(1, 0)], gens), lambda: commutant(gens)):
            with pytest.raises(ValueError, match="square of equal dimension"):
                call()
    for call in (lambda: spin([(1, 0)], []), lambda: commutant([]),
                 lambda: MatrixTuple.make(QQ, [])):
        with pytest.raises(ValueError, match="no generators"):
            call()


def test_span_basis_reduces():
    field = GF(2)
    i2 = Matrix.identity(field, 2)
    mats = [i2, i2, mat(field, [[1, 1], [0, 1]]), mat(field, [[0, 1], [1, 0]])]
    kept = span_basis(mats)
    assert kept[0] == i2 and len(kept) == 3


def test_kernel_basis_spans_kernel():
    m = mat(GF(3), [[1, 2, 0], [0, 0, 1]])
    kern = kernel_basis(m)
    assert len(kern) == 1
    assert all(v == 0 for v in m.apply(kern[0]))


def _oracle_cases(rng, field):
    """Matrices with no rows, no columns, zero rows, duplicate rows and
    rank-deficient rows, plus random full ones."""
    def rand(r, c):
        if field.p is None:
            return [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        return [[rng.randrange(field.p) for _ in range(c)] for _ in range(r)]

    base = rand(3, 5)
    combos = [[sum(a * x for a, x in zip(cs, col)) for col in zip(*base[:2])]
              for cs in rand(5, 2)]
    cases = [Matrix(field, 0, 4, ()), mat(field, [[], [], []]),
             mat(field, rand(2, 5) + [[0] * 5] + rand(1, 5)),
             mat(field, base + base[:2]), mat(field, combos),
             mat(field, rand(4, 4)), mat(field, rand(6, 4)), mat(field, rand(3, 7))]
    rng.shuffle(cases)
    return cases


def _oracle_span(field, vectors, n):
    """Nonzero RREF rows of the vectors, by the oracle."""
    red, _, rank = gauss_jordan(Matrix(field, len(vectors), n, tuple(vectors)))
    return red.entries[:rank]


def test_kernel_agrees_with_gauss_jordan_oracle():
    rng = random.Random(31)
    for field in (GF(2), GF(7), GF(65537), QQ):
        for m in _oracle_cases(rng, field):
            red, piv, rank = gauss_jordan(m)
            assert rref(m) == (red, piv, rank)

            kern = []
            for fc in (c for c in range(m.cols) if c not in piv):
                v = [field.zero] * m.cols
                v[fc] = field.one
                for i, pc in enumerate(piv):
                    v[pc] = field.neg(red.entries[i][fc])
                kern.append(tuple(v))
            assert kernel_basis(m) == tuple(kern)

            # span_basis keeps a row exactly when it raises the oracle rank
            singles = [Matrix(field, 1, m.cols, (r,)) for r in m.entries]
            kept = [s for i, s in enumerate(singles)
                    if gauss_jordan(mat(field, m.entries[:i + 1]))[2]
                    > gauss_jordan(Matrix(field, i, m.cols, m.entries[:i]))[2]]
            assert span_basis(singles) == kept

            n = m.cols
            sub = Subspace(n, Matrix(field, rank, n, red.entries[:rank]))
            for _ in range(3):
                v = tuple(field(rng.randrange(-5, 6)) for _ in range(n))
                want = list(v)
                for row, pc in zip(red.entries, piv):
                    c = v[pc]
                    want = [field.sub(a, field(c * b))
                            for a, b in zip(want, row)]
                assert sub.reduce(v) == tuple(want)
                inside = _oracle_span(field, list(red.entries[:rank]) + [v], n)
                assert sub.contains(v) == (len(inside) == rank)

            if n == 0 or m.rows == 0:
                continue
            # spin: close the seeds' span under the generators, by the oracle
            gens = [mat(field, [[rng.randrange(-2, 3) for _ in range(n)]
                                for _ in range(n)]) for _ in range(2)]
            singular = [m.entries[0]] + [[0] * n] * (n - 1)
            gens.append(mat(field, singular))
            rows = _oracle_span(field, list(m.entries), n)
            while True:
                images = [g.apply(r) for g in gens for r in rows]
                grown = _oracle_span(field, list(rows) + images, n)
                if grown == rows:
                    break
                rows = grown
            assert spin(m.entries, gens).basis.entries == rows
