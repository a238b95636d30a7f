"""Shared test utilities: raw-tuple oracles independent of the library.

The conjugacy oracle works on plain nested int tuples mod p and scans the
whole finite general linear group, so it shares no code path with the
engine operations it checks.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from gcr.linalg import (Field, GF, Matrix, MatrixTuple, Subspace, kernel_basis,
                        solve_affine, span_basis)


# -- raw matrices over F_p ---------------------------------------------------

def rmul(p, a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) % p for cb in bt)
                 for ra in a)


def rident(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _invertible_raw(p, m):
    rows = [list(r) for r in m]
    n = len(rows)
    rank = 0
    for c in range(n):
        pr = next((i for i in range(rank, n) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(inv * x) % p for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank == n


@lru_cache(maxsize=None)
def enumerate_gl(n, p):
    """All of GL_n(F_p) as raw tuples, identity first, then lexicographic."""
    out = []
    ident = rident(n)
    for flat in itertools.product(range(p), repeat=n * n):
        m = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if m != ident and _invertible_raw(p, m):
            out.append(m)
    return (ident,) + tuple(out)


def tuples_conjugate(p, hs, ks):
    """Brute-force simultaneous conjugacy over the full GL_n(F_p)."""
    n = len(hs[0])
    for s in enumerate_gl(n, p):
        if all(rmul(p, s, h) == rmul(p, k, s) for h, k in zip(hs, ks)):
            return True
    return False


def rspan(p, vecs):
    """Every F_p-linear combination of the raw vectors, as a set of tuples."""
    n = len(vecs[0])
    return {tuple(sum(c * v[i] for c, v in zip(cs, vecs)) % p for i in range(n))
            for cs in itertools.product(range(p), repeat=len(vecs))}


def rapply(p, m, v):
    """Raw matrix times raw column vector mod p."""
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in m)


def to_raw(m: Matrix):
    return tuple(tuple(int(x) for x in row) for row in m.entries)


def to_matrix(field: Field, raw) -> Matrix:
    return Matrix.make(field, raw)


def raw_tuple(h: MatrixTuple):
    return tuple(to_raw(c) for c in h.components)


# -- elimination oracle ------------------------------------------------------

def _field_inverse(f: Field, a):
    """The inverse of a nonzero scalar: 1/a over Q, Fermat's a^(p-2) mod p."""
    return 1 / Fraction(a) if f.p is None else pow(a, f.p - 2, f.p)


def gauss_jordan(m: Matrix):
    """(RREF, pivot columns, rank) by textbook Gauss-Jordan elimination with
    per-scalar Field arithmetic: for each column, swap a nonzero row up,
    scale it to 1 and clear the column in every other row.  Test oracle
    only: linalg.rref must return the same unique RREF."""
    f = m.field
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = _field_inverse(f, rows[r][c])
        rows[r] = [f(inv * x) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [f.sub(x, f(factor * y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(f, nr, nc, tuple(tuple(row) for row in rows)), tuple(pivots), r


# -- random generators -------------------------------------------------------

def random_invertible(rng: random.Random, field: Field, n: int) -> Matrix:
    while True:
        m = Matrix.make(field, [[rng.randrange(field.p) for _ in range(n)]
                                for _ in range(n)])
        if m.is_invertible():
            return m


def random_gl_tuple(rng: random.Random, p: int, n: int, m: int) -> MatrixTuple:
    field = GF(p)
    return MatrixTuple.make(field,
                            [random_invertible(rng, field, n) for _ in range(m)])


def random_unitriangular(rng: random.Random, field: Field, n: int) -> Matrix:
    rows = [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(field.p)
    return Matrix.make(field, rows)


def random_unipotent_tuple(rng: random.Random, p: int, n: int,
                           m: int) -> MatrixTuple:
    """Random tuple generating a unipotent subgroup: conjugated upper
    unitriangular generators (retries until some generator is nontrivial)."""
    field = GF(p)
    ident = Matrix.identity(field, n)
    while True:
        g = random_invertible(rng, field, n)
        gi = g.inverse()
        comps = [g * random_unitriangular(rng, field, n) * gi for _ in range(m)]
        if any(c != ident for c in comps):
            return MatrixTuple(field, n, tuple(comps))


def random_permutation_matrix(rng: random.Random, field: Field, n: int) -> Matrix:
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[field.one if j == perm[i] else field.zero for j in range(n)]
            for i in range(n)]
    return Matrix.make(field, rows)


def random_monomial_matrix(rng: random.Random, field: Field, n: int) -> Matrix:
    m = random_permutation_matrix(rng, field, n)
    rows = [[field(x * rng.randrange(1, field.p)) for x in row]
            for row in m.entries]
    return Matrix.make(field, rows)


def random_conjugated_diagonal(rng: random.Random, field: Field, n: int) -> Matrix:
    g = random_invertible(rng, field, n)
    d = Matrix.make(field, [[rng.randrange(1, field.p) if i == j else 0
                             for j in range(n)] for i in range(n)])
    return g * d * g.inverse()


def random_weight_set(rng: random.Random, rank: int, bound: int = 4,
                      max_size: int = 6):
    from gcr.instability import WeightSet
    t = rng.randint(1, max_size)
    ws = set()
    while len(ws) < t:
        ws.add(tuple(rng.randint(-bound, bound) for _ in range(rank)))
    return WeightSet.of(sorted(ws))


# -- exact instability oracle ------------------------------------------------

def fm_feasible(weights) -> bool:
    """Whether some real lam has <lam, chi> >= 1 for every chi in weights.

    By homogeneity this holds iff some cocharacter has mu > 0, i.e. iff the
    weight set is unstable.  Decided by Fourier-Motzkin elimination in exact
    Fractions, one coordinate at a time: each inequality a.x >= b with a
    positive coefficient on x_k is combined with each one with a negative
    coefficient, which eliminates x_k.  With every coordinate gone, what is
    left reads 0 >= b, and the system is feasible iff all of those hold.
    """
    rows = {(tuple(Fraction(c) for c in chi), Fraction(1)) for chi in weights}
    for k in range(len(next(iter(rows))[0])):
        pos = [(a, b) for a, b in rows if a[k] > 0]
        neg = [(a, b) for a, b in rows if a[k] < 0]
        rows = {(a, b) for a, b in rows if a[k] == 0}
        for ap, bp in pos:
            for an, bn in neg:
                sp, sn = -an[k], ap[k]
                rows.add((tuple(sp * x + sn * y for x, y in zip(ap, an)),
                          sp * bp + sn * bn))
    return all(b <= 0 for _, b in rows)


def enumerate_min_norm_point(w):
    """Minimum-norm point of conv(w.weights) by enumerating subsets.

    Projects the origin onto the affine hull of every subset of size at
    most rank + 1, keeps the projections with no negative coefficient, and
    returns the least one: the first subset (by size, then lexicographically
    by weight index) that attains it gives the coefficients.  The minimizer
    of a strictly convex norm is unique, so every tie must be the same
    point.  Returns (point, coefficients over the full weight list).
    """
    from gcr.instability import _project_origin_affine
    pts = w.weights
    t = len(pts)
    best = None  # (norm_sq, point, coeffs)
    ties = []
    for k in range(1, min(t, w.rank + 1) + 1):
        for subset in itertools.combinations(range(t), k):
            chosen = [pts[i] for i in subset]
            coeffs = _project_origin_affine(chosen)
            if coeffs is None or any(c < 0 for c in coeffs):
                continue
            point = tuple(sum(c * Fraction(x[d]) for c, x in zip(coeffs, chosen))
                          for d in range(w.rank))
            q = sum(x * x for x in point)
            if best is None or q < best[0]:
                full = [Fraction(0)] * t
                for i, c in zip(subset, coeffs):
                    full[i] = c
                best = (q, point, tuple(full))
                ties = [point]
            elif q == best[0]:
                ties.append(point)
    assert all(p == best[1] for p in ties), "minimum-norm point not unique"
    return best[1], best[2]


# -- spin-seed enumeration oracle ---------------------------------------------

def all_candidate_vectors(sub: Subspace):
    """Every nonzero vector of sub over a finite field, in lexicographic
    order of its coefficients on sub's basis rows: the exhaustive seed
    enumeration that engine._candidate_vectors replaced with one vector per
    line."""
    combine = sub.basis.transpose()
    for coeffs in itertools.product(range(sub.field.p), repeat=sub.dim):
        if any(coeffs):
            yield combine.apply(coeffs)


def first_of_each_line(p, vectors):
    """The vectors, in order, without any that spans a line already seen."""
    seen, out = set(), []
    for v in vectors:
        lead = next(x for x in v if x)
        line = tuple(x * pow(lead, -1, p) % p for x in v)
        if line not in seen:
            seen.add(line)
            out.append(v)
    return out


# -- invariant-complement oracle ---------------------------------------------

def intersect(a: Subspace, b: Subspace) -> Subspace:
    """The intersection of a and b, as the common kernel of both
    annihilators (the transversality oracle of the complement tests)."""
    ann = list(kernel_basis(a.basis)) + list(kernel_basis(b.basis))
    if not ann:
        return Subspace.full(a.field, a.ambient)
    m = Matrix(a.field, len(ann), a.ambient, tuple(ann))
    return Subspace.from_vectors(a.field, a.ambient, kernel_basis(m))


def all_subspaces(field, n):
    """Every subspace of F_p^n, sorted by dimension and then basis rows."""
    vectors = [v for v in itertools.product(range(field.p), repeat=n) if any(v)]
    seen = {Subspace.zero(field, n)}
    for k in range(1, n + 1):
        for combo in itertools.combinations(vectors, k):
            seen.add(Subspace.from_vectors(field, n, combo))
    return sorted(seen, key=lambda s: (s.dim, s.basis.entries))


def _projection_solutions(h: MatrixTuple, w: Subspace):
    """solve_affine of the n^2 system for the equivariant projections onto w.

    pi ranges over the n x n matrices (unknown pi[i][j] at i*n + j) with
    pi h = h pi for every generator, pi|_w = id and image in w.  Returns
    (particular solution, kernel basis), or None when there is none.
    """
    n, field = h.dim, h.field
    zero = field.zero
    rows, rhs = [], []
    for hm in span_basis(h.components):
        he = hm.entries
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                for k in range(n):
                    row[i * n + k] = field.add(row[i * n + k], he[k][j])
                    row[k * n + j] = field.sub(row[k * n + j], he[i][k])
                rows.append(tuple(row))
                rhs.append(zero)
    for wrow in w.basis.entries:
        for i in range(n):
            row = [zero] * (n * n)
            for j in range(n):
                row[i * n + j] = wrow[j]
            rows.append(tuple(row))
            rhs.append(wrow[i])
    for f in kernel_basis(w.basis):
        for j in range(n):
            row = [zero] * (n * n)
            for i in range(n):
                row[i * n + j] = f[i]
            rows.append(tuple(row))
            rhs.append(zero)
    return solve_affine(Matrix(field, len(rows), n * n, tuple(rows)), rhs)


def projection_complement(h: MatrixTuple, w: Subspace):
    """Invariant complement of w as ker pi_0, or None, by the n^2 system.

    pi_0 is the equivariant projection onto w whose free unknowns are zero.
    Test oracle only: the engine solves the smaller Sylvester system and
    returns None exactly when this does; which complement it returns is
    pinned by sylvester_complement.
    """
    sol = _projection_solutions(h, w)
    if sol is None:
        return None
    n, x = h.dim, sol[0]
    pi = Matrix(h.field, n, n, tuple(tuple(x[i * n + j] for j in range(n))
                                     for i in range(n)))
    return Subspace.from_vectors(h.field, n, kernel_basis(pi))


def sylvester_complement(h: MatrixTuple, w: Subspace):
    """The invariant complement named by the Sylvester solution whose free
    unknowns are zero, or None, from the projections of the n^2 system.

    With w_b the RREF rows of w at pivots p_b and N the non-pivot
    coordinates, a projection pi names ker pi = span{e_j - pi e_j : j in N},
    that is X[b][j] = -(pi e_j)[p_b], flattened at b*|N| + j.  A column of the
    Sylvester system's RREF is free iff some kernel direction has its last
    nonzero entry there, so the wanted X is the particular one reduced
    against the Gauss-Jordan rows of the kernel directions on reversed
    columns.  Test oracle only: it calls neither has_invariant_complement
    nor sylvester_rows.
    """
    sol = _projection_solutions(h, w)
    if sol is None:
        return None
    field, n = h.field, h.dim
    piv = w.pivots
    nonpiv = [j for j in range(n) if j not in piv]

    def sylvester_x(pi):
        return [field.neg(pi[pb * n + j]) for pb in piv for j in nonpiv]

    x = sylvester_x(sol[0])[::-1]
    kern = [sylvester_x(k)[::-1] for k in sol[1]]
    if kern:
        red, pivots, _ = gauss_jordan(Matrix(field, len(kern), len(x),
                                             tuple(map(tuple, kern))))
        for row, c in zip(red.entries, pivots):
            f = x[c]
            x = [field.sub(a, field(f * b)) for a, b in zip(x, row)]
    x = x[::-1]
    m = len(nonpiv)
    vecs = []
    for jj, j in enumerate(nonpiv):
        v = [field.zero] * n
        v[j] = field.one
        for b, wb in enumerate(w.basis.entries):
            v = [field.add(a, field(x[b * m + jj] * c)) for a, c in zip(v, wb)]
        vecs.append(v)
    return Subspace.from_vectors(field, n, vecs)


# -- enumeration oracles for R_u conjugators and normal closures -------------

def enumerate_ru(pd, field: Field):
    """All p^k members of R_u(P) for ParabolicData pd over a finite field,
    in lexicographic order of the free-entry values; no budget."""
    positions = pd.free_ru_positions()
    n = len(pd.exponents)
    for values in itertools.product(field.elements(), repeat=len(positions)):
        rows = [[field.one if i == j else field.zero for j in range(n)]
                for i in range(n)]
        for (i, j), v in zip(positions, values):
            rows[i][j] = v
        yield Matrix(field, n, n, tuple(tuple(r) for r in rows))


def enumerate_ru_conjugator(h: MatrixTuple, lam):
    """The lexicographically least u in R_u(P_lam) with u.h the limit of h
    under lam, by trying every member of R_u(P_lam) over F_p, or None.

    Works on raw tuples in the core basis (g^-1 . g): with l the limit of c
    (c with every entry at e[i] > e[j] zeroed), a member u0 works iff
    u0 c == l u0 for every component c.
    """
    field, n, p = h.field, h.dim, h.field.p
    e = lam.exponents
    g = lam.conjugator if lam.conjugator is not None else Matrix.identity(field, n)
    gi = g.inverse()
    comps = [to_raw(gi * c * g) for c in h.components]
    lims = [tuple(tuple(0 if e[i] > e[j] else c[i][j] for j in range(n))
                  for i in range(n)) for c in comps]
    free = [(i, j) for i in range(n) for j in range(n) if e[i] > e[j]]
    for values in itertools.product(range(p), repeat=len(free)):
        u0 = [list(r) for r in rident(n)]
        for (i, j), v in zip(free, values):
            u0[i][j] = v
        if all(rmul(p, u0, c) == rmul(p, lc, u0) for c, lc in zip(comps, lims)):
            return g * to_matrix(field, u0) * gi
    return None


def enumerate_normal_closure(h: MatrixTuple, indices):
    """Normal closure of the selected generators over a finite field: every
    conjugate of the seeds by every group element, then the group they
    generate, entry-sorted."""
    from gcr.engine import enumerate_group
    field = h.field
    seeds = [h[i] for i in indices]
    if not seeds:
        return (Matrix.identity(field, h.dim),)
    conjugates = {g * s * g.inverse() for g in enumerate_group(h) for s in seeds}
    return tuple(sorted(enumerate_group(sorted(conjugates, key=_entry_key)),
                        key=_entry_key))


def _entry_key(m: Matrix):
    return tuple(x for row in m.entries for x in row)
