import random

import pytest

from gcr.cochar import (Cocharacter, cocharacter_from_flag, limit_conj,
                        limit_tuple, pairing, parabolic_of)
from gcr.engine import ru_conjugator
from gcr.instability import mu_conjugated, support_of_tuple
from gcr.linalg import GF, QQ, Matrix, MatrixTuple, Subspace

from helpers import enumerate_gl, to_matrix


def mat(field, rows):
    return Matrix.make(field, rows)


def test_pairing_examples():
    assert pairing(Cocharacter((1, -1)), (1, -1)) == 2
    assert pairing(Cocharacter((0, 0, 0)), (5, -7, 2)) == 0
    assert pairing(Cocharacter((2, 1, 0)), (1, 0, -1)) == 2


def test_pairing_errors():
    with pytest.raises(ValueError):
        pairing(Cocharacter((1, -1)), (1, 2, 3))
    g = mat(GF(3), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        pairing(Cocharacter((1, -1), g), (1, -1))


def test_pairing_bilinear():
    rng = random.Random(2)
    for _ in range(30):
        a = tuple(rng.randint(-3, 3) for _ in range(4))
        b = tuple(rng.randint(-3, 3) for _ in range(4))
        c = tuple(rng.randint(-3, 3) for _ in range(4))
        if not any(a):
            continue
        la = Cocharacter(a)
        assert pairing(la, tuple(x + y for x, y in zip(b, c))) == \
            pairing(la, b) + pairing(la, c)


def test_pairing_permutation_equivariance():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 5)
        lam = tuple(rng.randint(-3, 3) for _ in range(n))
        chi = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(lam):
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        plam = tuple(lam[perm[i]] for i in range(n))
        pchi = tuple(chi[perm[i]] for i in range(n))
        assert pairing(Cocharacter(plam), pchi) == pairing(Cocharacter(lam), chi)


def test_parabolic_gl2_borel():
    # exponents (1,-1): P is upper triangular, L is diagonal
    pd = parabolic_of(Cocharacter((1, -1)))
    field = GF(3)
    for raw in enumerate_gl(2, 3):
        x = to_matrix(field, raw)
        upper = raw[1][0] == 0
        diag = raw[1][0] == 0 and raw[0][1] == 0
        assert pd.contains_p(x) == upper
        assert pd.contains_levi(x) == diag


def test_parabolic_trivial():
    pd = parabolic_of(Cocharacter((0, 0, 0)))
    assert not pd.is_proper
    field = GF(2)
    for raw in enumerate_gl(3, 2):
        assert pd.contains_p(to_matrix(field, raw))
    assert pd.contains_ru(Matrix.identity(field, 3))
    assert not pd.contains_ru(mat(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_parabolic_blocks_and_ru_member():
    pd = parabolic_of(Cocharacter((3, 3, -1)))
    assert pd.block_sizes == (2, 1)
    assert pd.block_exponents == (3, -1)
    x = mat(QQ, [[1, 0, 5], [0, 1, 0], [0, 0, 1]])
    assert pd.contains_ru(x)
    assert not pd.contains_ru(mat(QQ, [[1, 2, 0], [0, 1, 0], [0, 0, 1]]))


def test_parabolic_rejects_conjugated():
    g = mat(GF(3), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        parabolic_of(Cocharacter((1, 0), g))


def test_parabolic_scaling_invariance():
    lam = Cocharacter((2, 0, -1))
    pd1 = parabolic_of(lam)
    for c in range(1, 5):
        pdc = parabolic_of(Cocharacter(tuple(c * e for e in lam.exponents)))
        assert pdc.block_sizes == pd1.block_sizes
        assert pdc.order == pd1.order
        field = GF(2)
        for raw in enumerate_gl(3, 2):
            x = to_matrix(field, raw)
            assert pd1.contains_p(x) == pdc.contains_p(x)


def test_levi_ru_factorization():
    # every P member factors uniquely as (Levi part) * (R_u part)
    lam = Cocharacter((1, 0))
    pd = parabolic_of(lam)
    field = GF(3)
    seen = set()
    for raw in enumerate_gl(2, 3):
        x = to_matrix(field, raw)
        if not pd.contains_p(x):
            continue
        levi = limit_conj(lam, x)
        u = levi.inverse() * x
        assert pd.contains_levi(levi)
        assert pd.contains_ru(u)
        assert levi * u == x
        seen.add((levi, u))
    # factorization is a bijection onto L x R_u
    assert len(seen) == len({s for s in seen})
    # R_u intersect L is trivial
    for raw in enumerate_gl(2, 3):
        x = to_matrix(field, raw)
        if pd.contains_ru(x) and pd.contains_levi(x):
            assert x == Matrix.identity(field, 2)


def test_limit_gl2_examples():
    lam = Cocharacter((1, -1))
    assert limit_conj(lam, mat(QQ, [[1, 1], [0, 1]])) == Matrix.identity(QQ, 2)
    assert limit_conj(lam, mat(QQ, [[1, 0], [1, 1]])) is None
    d = mat(QQ, [[3, 0], [0, 7]])
    assert limit_conj(Cocharacter((5, 2)), d) == d


def test_limit_pattern_general_2x2():
    # limit exists iff upper triangular, limit equals x iff diagonal
    lam = Cocharacter((1, -1))
    field = GF(3)
    for raw in enumerate_gl(2, 3):
        x = to_matrix(field, raw)
        lim = limit_conj(lam, x)
        assert (lim is not None) == (raw[1][0] == 0)
        if lim is not None:
            assert (lim == x) == (raw[0][1] == 0)


def test_limit_idempotent_on_image():
    lam = Cocharacter((2, 1, 1))
    rng = random.Random(9)
    field = GF(5)
    for _ in range(20):
        x = mat(field, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        lim = limit_conj(lam, x)
        if lim is not None:
            assert limit_conj(lam, lim) == lim


def _random_upper_triangular(rng, field, n):
    # member of P for a strictly decreasing exponent vector
    rows = [[field(rng.randrange(1, field.p)) if i == j
             else (field(rng.randrange(field.p)) if j > i else field.zero)
             for j in range(n)] for i in range(n)]
    return Matrix.make(field, rows)


def test_limit_multiplicative_on_parabolic():
    # the limit map restricted to P members is a homomorphism
    lam = Cocharacter((1, 0, -2))
    rng = random.Random(17)
    field = GF(3)
    for _ in range(25):
        x = _random_upper_triangular(rng, field, 3)
        y = _random_upper_triangular(rng, field, 3)
        assert limit_conj(lam, x * y) == limit_conj(lam, x) * limit_conj(lam, y)


def test_limit_of_conjugated_point():
    # when lim lam.x exists and g is in P, lim lam.(g x g^-1) = c(g) lim c(g)^-1
    lam = Cocharacter((1, 0, -1))
    rng = random.Random(23)
    field = GF(5)
    count = 0
    while count < 25:
        g = _random_upper_triangular(rng, field, 3)
        x = mat(field, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        lim = limit_conj(lam, x)
        if lim is None:
            continue
        count += 1
        cg = limit_conj(lam, g)
        moved = limit_conj(lam, g * x * g.inverse())
        assert moved == cg * lim * cg.inverse()


def test_limit_conjugated_cocharacter():
    field = GF(3)
    g = mat(field, [[0, 1], [1, 0]])
    lam = Cocharacter((1, -1), g)
    # in the swapped basis the roles of upper/lower swap
    assert limit_conj(lam, mat(field, [[1, 0], [1, 1]])) == Matrix.identity(field, 2)
    assert limit_conj(lam, mat(field, [[1, 1], [0, 1]])) is None


def test_limit_tuple_examples():
    field = GF(5)
    lam = Cocharacter((1, -1))
    h = MatrixTuple.make(field, [[[1, 1], [0, 1]]])
    lim = limit_tuple(lam, h)
    assert lim is not None and lim[0] == Matrix.identity(field, 2)

    h2 = MatrixTuple.make(field, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    assert limit_tuple(lam, h2) is None

    zero = Cocharacter((0, 0))
    assert limit_tuple(zero, h2) == h2


def test_cocharacter_validation():
    with pytest.raises(ValueError):
        Cocharacter(())
    with pytest.raises(ValueError, match="conjugator not invertible"):
        Cocharacter((1, 0), mat(QQ, [[1, 0], [0, 0]]))
    with pytest.raises(ValueError, match="conjugator dimension mismatch"):
        Cocharacter((1, 0), Matrix.identity(QQ, 3))
    with pytest.raises(ValueError, match="conjugator dimension mismatch"):
        Cocharacter((1, 0), mat(QQ, [[1, 0, 0], [0, 1, 0]]))


def test_core_and_uncore():
    field = QQ
    g = mat(field, [[1, 2], [3, 7]])
    x = mat(field, [[1, 1], [0, 2]])
    lam = Cocharacter((1, 0), g)
    assert lam.core(x) == g.inverse() * x * g
    assert lam.uncore(lam.core(x)) == x
    diag = Cocharacter((1, 0))
    assert diag.core(x) is x and diag.uncore(x) is x
    # the kept inverse is not a field: equality, hash and repr ignore it
    same = Cocharacter((1, 0), mat(field, [[1, 2], [3, 7]]))
    assert same == lam and hash(same) == hash(lam) and repr(same) == repr(lam)
    assert "_inverse" not in repr(lam)


def test_with_exponents_keeps_the_torus():
    field = GF(5)
    g = mat(field, [[1, 2], [3, 4]])
    lam = Cocharacter((1, 0), g)
    moved = lam.with_exponents([3, -1])
    assert moved == Cocharacter((3, -1), g)
    x = mat(field, [[1, 1], [2, 3]])
    assert moved.core(x) == lam.core(x)
    with pytest.raises(ValueError, match="length mismatch"):
        lam.with_exponents((1, 0, 0))


def test_conjugator_checked_once(monkeypatch):
    """g is inverted once, when the cocharacter is built: limits, supports,
    mu and the R_u conjugator reuse that inverse and never re-check g."""
    field = GF(5)
    g = mat(field, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    # in the core basis, diagonal generators conjugated by an upper
    # unitriangular v: the limit is the diagonal tuple, in the orbit
    v = mat(field, [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
    core = [v * mat(field, [[a, 0, 0], [0, b, 0], [0, 0, c]]) * v.inverse()
            for a, b, c in ((1, 2, 3), (4, 1, 2), (2, 2, 1))]
    gi = g.inverse()
    h = MatrixTuple.make(field, [g * c * gi for c in core])

    calls = []
    for name in ("inverse", "is_invertible"):
        real = getattr(Matrix, name)

        def counted(self, real=real, name=name):
            if self == g:
                calls.append(name)
            return real(self)

        monkeypatch.setattr(Matrix, name, counted)

    lam = Cocharacter((2, 1, 0), g)
    assert calls == ["inverse"]
    del calls[:]
    lim = limit_tuple(lam, h)
    assert lim is not None and len(lim) == 3
    assert support_of_tuple(h, lam) == support_of_tuple(
        MatrixTuple.make(field, core))
    assert mu_conjugated(h, lam) == 0
    u = ru_conjugator(h, lam)
    assert calls == []
    assert u is not None and all(u * c * u.inverse() == lc for c, lc in zip(h, lim))


def test_ru_conjugator_changes_basis_once_per_component(monkeypatch):
    """ru_conjugator takes each component into the core basis once and
    brings back u and each limit once, for the check in the original basis
    (the diagonal core's own core and uncore are the identity)."""
    field = GF(5)
    g = mat(field, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    v = mat(field, [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
    core = [v * mat(field, [[a, 0, 0], [0, b, 0], [0, 0, c]]) * v.inverse()
            for a, b, c in ((1, 2, 3), (4, 1, 2), (2, 2, 1))]
    h = MatrixTuple.make(field, [g * c * g.inverse() for c in core])
    lam = Cocharacter((2, 1, 0), g)
    want = ru_conjugator(h, lam)

    calls = []
    for name in ("core", "uncore"):
        real = getattr(Cocharacter, name)

        def counted(self, x, real=real, name=name):
            if not self.is_diagonal:
                calls.append(name)
            return real(self, x)

        monkeypatch.setattr(Cocharacter, name, counted)
    assert ru_conjugator(h, lam) == want is not None
    assert (calls.count("core"), calls.count("uncore")) == (3, 4)


def test_flag_cochar_coordinate_line():
    field = QQ
    flag = [Subspace.from_vectors(field, 2, [(1, 0)]), Subspace.full(field, 2)]
    lam = cocharacter_from_flag(flag)
    assert lam.exponents == (1, 0)
    assert lam.conjugator is None


def test_flag_cochar_diagonal_line_stabilizer():
    # flag spanned by e1+e2 over F_3: conjugator's first column is e1+e2 and
    # the stabilizer matches the conjugated parabolic pattern on all of GL_2
    field = GF(3)
    line = Subspace.from_vectors(field, 2, [(1, 1)])
    lam = cocharacter_from_flag([line, Subspace.full(field, 2)])
    assert lam.exponents == (1, 0)
    g = lam.conjugator
    assert g.transpose().entries[0] == (1, 1)
    core = Cocharacter(lam.exponents)
    pd = parabolic_of(core)
    gi = g.inverse()
    for raw in enumerate_gl(2, 3):
        x = to_matrix(field, raw)
        stabilizes = line.contains(x.apply((1, 1)))
        assert pd.contains_p(gi * x * g) == stabilizes
        assert (limit_conj(lam, x) is not None) == stabilizes


def test_flag_cochar_plane():
    field = QQ
    plane = Subspace.from_vectors(field, 3, [(1, 0, 0), (0, 1, 0)])
    lam = cocharacter_from_flag([plane, Subspace.full(field, 3)])
    assert lam.exponents == (1, 1, 0)
    assert parabolic_of(lam).block_sizes == (2, 1)


def test_flag_cochar_errors():
    field = QQ
    line = Subspace.from_vectors(field, 2, [(1, 0)])
    with pytest.raises(ValueError):
        cocharacter_from_flag([line])  # does not end at the full space
    with pytest.raises(ValueError):
        cocharacter_from_flag([line, line, Subspace.full(field, 2)])
    other = Subspace.from_vectors(field, 2, [(0, 1)])
    with pytest.raises(ValueError):
        cocharacter_from_flag([line, other])  # not increasing
