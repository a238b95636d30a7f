"""Cocharacters of the diagonal torus of GL_n, block parabolic data, limits.

A cocharacter is an integer exponent vector (a_1, ..., a_n), optionally
conjugated by an invertible matrix g (the cocharacter a -> g diag(a^..) g^-1).
Conjugated cocharacters are carried symbolically: every consumer only needs
the entry-scaling exponents a_i - a_j, so limits are decided by exact zero
tests, never by evaluating at a small parameter value.

Entry conditions, for a diagonal cocharacter with exponents e:
  x in P   iff x[i][j] == 0 whenever e[i] <  e[j]
  x in L   iff x[i][j] == 0 whenever e[i] != e[j]
  x in R_u iff x in P and the equal-exponent diagonal blocks are identity
and conjugation under the cocharacter scales entry (i, j) by a^(e[i]-e[j]),
so the limit at a -> 0 exists iff x is in the P pattern and then zeroes every
entry with e[i] > e[j].  So x is in P, L or R_u exactly when its limit
exists, equals x, or equals the identity, which is how ParabolicData tests
membership.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .linalg import Frozen, Matrix, MatrixTuple, Subspace


class Cocharacter(Frozen):
    """a -> g diag(a^e) g^-1 for g = conjugator (the identity when None).
    Consumers work in the core basis g^-1 x g (core, undone by uncore); g is
    inverted once, here, and g^-1 is kept outside the compared fields."""

    _fields = ("exponents", "conjugator")

    def __init__(self, exponents: tuple, conjugator: Optional[Matrix] = None):
        exps = tuple(int(e) for e in exponents)
        if not exps:
            raise ValueError("empty exponent vector")
        inverse = None
        if conjugator is not None:
            if not conjugator.is_square or conjugator.rows != len(exps):
                raise ValueError("conjugator dimension mismatch")
            try:
                inverse = conjugator.inverse()
            except ValueError:
                raise ValueError("conjugator not invertible") from None
        super().__init__(exps, conjugator)
        object.__setattr__(self, "_inverse", inverse)

    def with_exponents(self, exponents: Sequence[int]) -> "Cocharacter":
        """The cocharacter of other exponents on the same torus g T g^-1,
        without inverting g again."""
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.n:
            raise ValueError("length mismatch")
        lam = object.__new__(Cocharacter)
        lam.__dict__.update(vars(self), exponents=exps)
        return lam

    def core(self, x: Matrix) -> Matrix:
        """x in the core basis: g^-1 x g."""
        return x if self.conjugator is None else self._inverse * x * self.conjugator

    def uncore(self, x: Matrix) -> Matrix:
        """x back from the core basis: g x g^-1."""
        return x if self.conjugator is None else self.conjugator * x * self._inverse

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def is_diagonal(self) -> bool:
        return self.conjugator is None


def pairing(lam: Cocharacter, chi: Sequence[int]) -> int:
    """The pairing <lam, chi>: dot product of exponent vectors on one torus."""
    if not lam.is_diagonal:
        raise ValueError("pairing requires an unconjugated cocharacter")
    chi = tuple(int(c) for c in chi)
    if len(chi) != lam.n:
        raise ValueError("length mismatch")
    return sum(a * c for a, c in zip(lam.exponents, chi))


class ParabolicData(Frozen):
    """Block data of P, L and R_u(P) for a diagonal cocharacter.

    order is the sorting permutation: coordinate indices by weakly decreasing
    exponent, ties broken by original index.  block_sizes groups equal
    exponents; block_exponents are the strictly decreasing sorted values.
    """

    _fields = ("exponents", "order", "block_sizes", "block_exponents")

    @property
    def is_proper(self) -> bool:
        return len(self.block_sizes) > 1

    def _check(self, x: Matrix):
        if not x.is_square or x.rows != len(self.exponents):
            raise ValueError("dimension mismatch")

    def contains_p(self, x: Matrix) -> bool:
        self._check(x)
        return _limit_diagonal(self.exponents, x) is not None

    def contains_levi(self, x: Matrix) -> bool:
        self._check(x)
        return _limit_diagonal(self.exponents, x) == x

    def contains_ru(self, x: Matrix) -> bool:
        self._check(x)
        return _limit_diagonal(self.exponents, x) == Matrix.identity(x.field, x.rows)

    def free_ru_positions(self) -> tuple:
        """Entry positions free in R_u(P): (i, j) with e[i] > e[j], row major."""
        e = self.exponents
        n = len(e)
        return tuple((i, j) for i in range(n) for j in range(n) if e[i] > e[j])


def parabolic_of(lam: Cocharacter) -> ParabolicData:
    """Block parabolic data of a diagonal cocharacter.

    A conjugated cocharacter is rejected; test lam.core(x) against the
    diagonal core instead.
    """
    if not lam.is_diagonal:
        raise ValueError("parabolic data requires an unconjugated cocharacter")
    e = lam.exponents
    order = tuple(sorted(range(len(e)), key=lambda i: (-e[i], i)))
    sizes = []
    values = []
    for i in order:
        if values and e[i] == values[-1]:
            sizes[-1] += 1
        else:
            values.append(e[i])
            sizes.append(1)
    return ParabolicData(e, order, tuple(sizes), tuple(values))


def _limit_diagonal(exponents, x: Matrix) -> Optional[Matrix]:
    e = exponents
    zero = x.field.zero
    out = []
    for i in range(x.rows):
        row = []
        for j in range(x.cols):
            v = x.entries[i][j]
            if e[i] < e[j]:
                if v != 0:
                    return None
                row.append(v)
            elif e[i] > e[j]:
                row.append(zero)
            else:
                row.append(v)
        out.append(tuple(row))
    return Matrix(x.field, x.rows, x.cols, tuple(out))


def limit_conj(lam: Cocharacter, x: Matrix) -> Optional[Matrix]:
    """Limit of the conjugation action lam(a) x lam(a)^-1 as a -> 0.

    Absence of the limit is a normal outcome, reported as None.  x need not
    be invertible (module elements are fine).
    """
    if not x.is_square or x.rows != lam.n:
        raise ValueError("dimension mismatch")
    lim = _limit_diagonal(lam.exponents, lam.core(x))
    return None if lim is None else lam.uncore(lim)


def limit_tuple(lam: Cocharacter, h: MatrixTuple) -> Optional[MatrixTuple]:
    """Componentwise limit; present iff every componentwise limit exists."""
    out = []
    for c in h:
        lim = limit_conj(lam, c)
        if lim is None:
            return None
        out.append(lim)
    return MatrixTuple(h.field, h.dim, tuple(out))


def cocharacter_from_flag(flag: Sequence[Subspace]) -> Cocharacter:
    """Cocharacter adapted to a flag of subspaces.

    The flag must be strictly increasing and end at the full space (a leading
    zero member is dropped).  The conjugator columns are an adapted basis
    mapping coordinate subspaces onto the flag; exponents are t-1, ..., 0,
    constant on the blocks the flag cuts out (block sizes are the jumps in the
    members' dimensions), so the flag stabilizer is the conjugated parabolic
    membership pattern.
    """
    flag = list(flag)
    if flag and flag[0].is_zero:
        flag = flag[1:]
    if not flag:
        raise ValueError("empty flag")
    field = flag[0].field
    n = flag[0].ambient
    prev_dim = 0
    for i, sub in enumerate(flag):
        if sub.ambient != n or sub.field != field:
            raise ValueError("ambient mismatch")
        if sub.dim <= prev_dim or (i > 0 and not flag[i - 1] <= sub):
            raise ValueError("flag not strictly increasing")
        prev_dim = sub.dim
    if not flag[-1].is_full:
        raise ValueError("flag does not end at the full space")

    adapted = []
    span = Subspace.zero(field, n)
    for sub in flag:
        for row in sub.basis.entries:
            if not span.contains(row):
                adapted.append(row)
                span = span.extend([row])
    if len(adapted) != n:
        raise AssertionError("flag basis is not adapted")

    # adapted vector k lies in exactly the members of dimension > k
    exps = tuple(sum(sub.dim > k for sub in flag) - 1 for k in range(n))
    g = Matrix(field, n, n, tuple(zip(*adapted)))
    ident = Matrix.identity(field, n)
    return Cocharacter(exps, None if g == ident else g)
