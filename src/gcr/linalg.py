"""Exact linear algebra over the rationals and prime fields.

Scalars are `fractions.Fraction` over the rationals and plain ints in
[0, p) over F_p.  No floating point is used anywhere: instability values
downstream must compare exactly.  All values are immutable and every
operation is a pure function.

A span does not change when its vectors are rescaled, so `spin` over Q runs
on primitive integer vectors, fraction-free, and builds the `Fraction` RREF
once at the end.  `rref` and `Subspace` keep the `Fraction` branch of the
elimination kernel (`_reduce`, `_insert`) until the benchmark stops holding
every report in memory (ROADMAP item 2).
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from collections import deque
from fractions import Fraction
from typing import Iterable, Optional, Sequence

DEFAULT_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


_set = object.__setattr__


class Frozen:
    """Immutable value whose fields are named, in order, by `_fields`.

    Instances compare equal, and hash equal, when they have the same class
    and equal field values; assigning or deleting an attribute raises
    AttributeError.  The constructor takes one value per field, in `_fields`
    order; a subclass that checks or defaults its arguments ends its own
    `__init__` in `super().__init__(...)`.
    """

    __slots__ = ()
    _fields: tuple

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} "
                            f"values, got {len(values)}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        unknown = changes.keys() - set(self._fields)
        if unknown:
            raise TypeError(f"{type(self).__qualname__} has no field "
                            f"{min(unknown)!r}")
        return type(self)(*(changes.get(name, getattr(self, name))
                            for name in self._fields))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field(Frozen):
    """The rationals (p is None) or the prime field F_p with p < 2**31."""

    __slots__ = ("p",)
    _fields = ("p",)

    def __init__(self, p: Optional[int] = None):
        if p is not None:
            # the bound comes first: trial division of a 61-bit modulus
            # runs for hours
            if isinstance(p, int) and p >= 2**31:
                raise ValueError(f"modulus too large: {p}")
            if not isinstance(p, int) or not _is_prime(p):
                raise ValueError(f"modulus not prime: {p!r}")
        _set(self, "p", p)

    # Fields are compared in hot loops (`a.field != b.field`), so p is
    # compared directly; the hash is that of the 1-tuple, as in Frozen.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p,))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    def __call__(self, x):
        """Canonicalize a scalar: Fraction in lowest terms, or residue in [0, p)."""
        # The exact type tests come first: engine scalars are already
        # canonical, and they skip isinstance's slower abstract-class check.
        if self.p is None:
            if type(x) is Fraction or isinstance(x, Fraction):
                return x
            if isinstance(x, (int, str)):
                return Fraction(x)
            raise TypeError(f"not a rational scalar: {x!r}")
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"not an integer residue: {x}")
            x = x.numerator
        elif isinstance(x, str):
            x = int(x, 10)
        if not isinstance(x, int):
            raise TypeError(f"not a prime-field scalar: {x!r}")
        return x % self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def elements(self):
        """All field elements, in residue order.  Prime fields only."""
        if self.p is None:
            raise ValueError("cannot enumerate the rationals")
        return range(self.p)


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)


class Matrix(Frozen):
    """Immutable matrix with canonical row-major entries over a Field."""

    _fields = ("field", "rows", "cols", "entries")

    # Matrix and Subspace are built in the engine's inner loops, so they set
    # their fields directly instead of through Frozen's generic loop.
    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        _set(self, "field", field)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    @staticmethod
    def make(field: Field, rows_data) -> "Matrix":
        rows_data = [list(r) for r in rows_data]
        nr = len(rows_data)
        nc = len(rows_data[0]) if nr else 0
        for r in rows_data:
            if len(r) != nc:
                raise ValueError("jagged matrix")
        ent = tuple(tuple(field(x) for x in r) for r in rows_data)
        return Matrix(field, nr, nc, ent)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return Matrix(field, n, n,
                      tuple(tuple(one if i == j else zero for j in range(n))
                            for i in range(n)))

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        if self.cols == 0:
            return Matrix.zero(self.field, self.rows, other.cols)
        p = self.field.p
        bt = tuple(zip(*other.entries))
        if p is None:
            ent = tuple(tuple(sum(x * y for x, y in zip(ra, cb)) + Fraction(0)
                              for cb in bt)
                        for ra in self.entries)
        else:
            ent = tuple(tuple(sum(x * y for x, y in zip(ra, cb)) % p for cb in bt)
                        for ra in self.entries)
        return Matrix(self.field, self.rows, other.cols, ent)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols or self.field != other.field:
            raise ValueError("shape mismatch")
        f = self.field
        ent = tuple(tuple(f.add(a, b) for a, b in zip(ra, rb))
                    for ra, rb in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, ent)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        ent = tuple(tuple(f.neg(a) for a in ra) for ra in self.entries)
        return Matrix(self.field, self.rows, self.cols, ent)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows, tuple(zip(*self.entries)))

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector, skipping zero entries of v (as
        _reduce skips zero coefficients)."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        p = self.field.p
        nz = [(j, y) for j, y in enumerate(v) if y]
        if p is None:
            return tuple(sum(row[j] * y for j, y in nz) + Fraction(0)
                         for row in self.entries)
        return tuple(sum(row[j] * y for j, y in nz) % p for row in self.entries)

    def trace(self):
        if not self.is_square:
            raise ValueError("not square")
        t = self.field.zero
        for i in range(self.rows):
            t = self.field.add(t, self.entries[i][i])
        return t

    def rank(self) -> int:
        return rref(self)[2]

    def is_invertible(self) -> bool:
        return self.is_square and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ValueError("not square")
        n = self.rows
        ident = Matrix.identity(self.field, n)
        aug = Matrix(self.field, n, 2 * n,
                     tuple(ra + rb for ra, rb in zip(self.entries, ident.entries)))
        red, piv, _ = rref(aug)
        if piv[:n] != tuple(range(n)):
            raise ValueError("matrix not invertible")
        return Matrix(self.field, n, n, tuple(r[n:] for r in red.entries))

    @functools.cached_property
    def _integral(self) -> tuple:
        """Over Q: the rows of l * self as ints, l the lcm of the entries'
        denominators (a nonzero multiple, with the same invariant subspaces)."""
        l = math.lcm(*(x.denominator for row in self.entries for x in row))
        return tuple(tuple(x.numerator * (l // x.denominator) for x in row)
                     for row in self.entries)


def _reduce(p, v, rows) -> list:
    """Residual of v against echelon rows, given as (pivot, row) pairs with
    each row 1 at its pivot and 0 before it, in increasing pivot order (or
    any order, when every row is also 0 at the other rows' pivots).

    p is the modulus of F_p, or None over Q: the field is tested once per
    call, and each row operation is plain arithmetic on the entries.
    """
    v = list(v)
    if p is None:
        for pc, row in rows:
            c = v[pc]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, row)]
    else:
        for pc, row in rows:
            c = v[pc]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
    return v


def _insert(p, v, rows):
    """Reduce v against the echelon rows and insert the nonzero residual,
    scaled to 1 at its pivot, in pivot order.  Returns the inserted row, or
    None when v already lies in their span."""
    v = _reduce(p, v, rows)
    pc = next((i for i, x in enumerate(v) if x), None)
    if pc is None:
        return None
    if p is None:
        inv = 1 / Fraction(v[pc])
        row = tuple(x * inv for x in v)
    else:
        inv = pow(v[pc], -1, p)
        row = tuple(x * inv % p for x in v)
    bisect.insort(rows, (pc, row))
    return row


def _primitive(v) -> list:
    """The primitive integer vector on the line of a rational vector v (v
    itself when zero)."""
    l = math.lcm(*(x.denominator for x in v))
    v = [x.numerator * (l // x.denominator) for x in v]
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _insert_int(v, rows):
    """_insert over Q on integer vectors, fraction-free: reduce v by
    v <- d v - c row against primitive echelon rows (d the row's pivot entry,
    c v's entry there) and insert the residual divided by its content.
    Returns the inserted row, or None when v already lies in their span."""
    for pc, row in rows:
        c = v[pc]
        if c:
            d = row[pc]
            g = math.gcd(c, d)
            c, d = c // g, d // g
            v = [d * a - c * b for a, b in zip(v, row)]
    pc = next((i for i, x in enumerate(v) if x), None)
    if pc is None:
        return None
    g = math.gcd(*v)
    row = tuple(x // g for x in v)
    bisect.insort(rows, (pc, row))
    return row


def _apply_int(rows, v) -> tuple:
    """Integer matrix rows times integer column vector v."""
    nz = [(j, y) for j, y in enumerate(v) if y]
    return tuple(sum(row[j] * y for j, y in nz) for row in rows)


def _clear_above(p, rows) -> list:
    """The reduced echelon rows spanning the same space as echelon rows:
    each row, last first, is reduced against the already reduced rows below
    it."""
    out = []
    for pc, row in reversed(rows):
        out.append((pc, tuple(_reduce(p, row, out))))
    out.reverse()
    return out


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns (rref matrix, pivot columns, rank).  The result is the unique
    RREF, with pivots 1 and pivot columns cleared above and below, padded
    with zero rows to the shape of m.
    """
    p = m.field.p
    rows: list = []
    for r in m.entries:
        _insert(p, r, rows)
    rows = _clear_above(p, rows)
    rank = len(rows)
    zero = (m.field.zero,) * m.cols
    red = Matrix(m.field, m.rows, m.cols,
                 tuple(row for _, row in rows) + (zero,) * (m.rows - rank))
    return red, tuple(pc for pc, _ in rows), rank


def _kernel_from_rref(field: Field, red_entries, pivots, cols: int):
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red_entries[i][fc])
        basis.append(tuple(v))
    return tuple(basis)


def kernel_basis(m: Matrix):
    """Basis of {v : m v = 0}, one vector per free column of the RREF."""
    red, piv, _ = rref(m)
    return _kernel_from_rref(m.field, red.entries, piv, m.cols)


def solve_affine(a: Matrix, b: Sequence):
    """Solve a x = b exactly.

    Returns (particular solution, kernel basis) or None when infeasible.
    The particular solution sets all free variables to zero.
    """
    if len(b) != a.rows:
        raise ValueError("dimension mismatch")
    f = a.field
    bb = [f(x) for x in b]
    aug = Matrix(f, a.rows, a.cols + 1,
                 tuple(ra + (bv,) for ra, bv in zip(a.entries, bb)))
    red, piv, _ = rref(aug)
    if a.cols in piv:
        return None
    x = [f.zero] * a.cols
    for i, pc in enumerate(piv):
        x[pc] = red.entries[i][a.cols]
    kern = _kernel_from_rref(f, red.entries, piv, a.cols)
    return tuple(x), kern


class Subspace(Frozen):
    """Subspace of k^n, canonicalized by the RREF of its basis rows.

    Equality of subspaces is therefore equality of basis rows.  Subspaces
    grow by `extend` (or `spin`), which keeps this form.
    """

    _fields = ("ambient", "basis")

    def __init__(self, ambient: int, basis: Matrix):
        _set(self, "ambient", ambient)
        _set(self, "basis", basis)

    @staticmethod
    def from_vectors(field: Field, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        return Subspace.zero(field, ambient).extend(vectors)

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix(field, 0, ambient, ()))

    @staticmethod
    def full(field: Field, ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.identity(field, ambient))

    @staticmethod
    def _from_echelon(field: Field, ambient: int, rows: list) -> "Subspace":
        """The span of echelon (pivot, row) pairs in pivot order."""
        rows = _clear_above(field.p, rows)
        return Subspace(ambient, Matrix(field, len(rows), ambient,
                                        tuple(row for _, row in rows)))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    @functools.cached_property
    def pivots(self) -> tuple:
        return tuple(next(j for j, x in enumerate(row) if x)
                     for row in self.basis.entries)

    @functools.cached_property
    def _pairs(self) -> tuple:
        return tuple(zip(self.pivots, self.basis.entries))

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient

    def reduce(self, v: Sequence) -> tuple:
        """Residual of v after subtracting its components along the basis."""
        f = self.field
        v = [f(x) for x in v]
        if len(v) != self.ambient:
            raise ValueError("dimension mismatch")
        return tuple(_reduce(f.p, v, self._pairs))

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(r) for r in self.basis.entries)

    def extend(self, vectors: Iterable[Sequence]) -> "Subspace":
        """The span of this subspace and the vectors."""
        f = self.field
        rows = list(self._pairs)
        for v in vectors:
            v = [f(x) for x in v]
            if len(v) != self.ambient:
                raise ValueError("dimension mismatch")
            _insert(f.p, v, rows)
        return Subspace._from_echelon(f, self.ambient, rows)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("ambient mismatch")
        return self.extend(other.basis.entries)


def _generators_shape(mats: Sequence[Matrix]) -> tuple:
    """(field, n) of a non-empty list of square n x n matrices over one
    field; ValueError otherwise."""
    if not mats:
        raise ValueError("no generators")
    field, n = mats[0].field, mats[0].rows
    if not all(m.is_square and m.rows == n and m.field == field for m in mats):
        raise ValueError("generators must be square of equal dimension")
    return field, n


class MatrixTuple(Frozen):
    """Ordered invertible generators (h_1, ..., h_m) of a matrix subgroup."""

    _fields = ("field", "dim", "components")

    @staticmethod
    def make(field: Field, mats) -> "MatrixTuple":
        comps = tuple(m if isinstance(m, Matrix) else Matrix.make(field, m)
                      for m in mats)
        if any(m.field != field for m in comps):
            raise ValueError("field mismatch")
        _, n = _generators_shape(comps)
        if not all(m.is_invertible() for m in comps):
            raise ValueError("generator not invertible")
        return MatrixTuple(field, n, comps)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i) -> Matrix:
        return self.components[i]

    @functools.cached_property
    def span(self) -> tuple:
        """The generators that span their linear span (see span_basis)."""
        return tuple(span_basis(self.components))


def span_basis(mats: Sequence[Matrix]) -> list:
    """First members of mats, in order, that enlarge the linear span.

    Stability and commuting conditions are linear in the acting matrix, so
    downstream solvers may restrict to such a spanning subset.
    """
    mats = list(mats)
    if not mats:
        return []
    p = mats[0].field.p
    rows: list = []
    return [m for m in mats
            if _insert(p, [x for row in m.entries for x in row], rows) is not None]


def spin(seeds: Sequence[Sequence], gens) -> Subspace:
    """Smallest subspace containing the seeds and stable under every generator.

    Seeds and generators are processed in input order, breadth first, so the
    output is deterministic; the result is canonical RREF anyway.  Over Q the
    seeds are primitive integer vectors and the generators integer multiples
    (Matrix._integral), since rescaling changes no span.
    """
    mats = list(gens)
    field, n = _generators_shape(mats)
    seeds = [tuple(field(x) for x in s) for s in seeds]
    if not seeds:
        raise ValueError("empty seed set")
    for s in seeds:
        if len(s) != n:
            raise ValueError("dimension mismatch")
    if field.p is None:
        seeds = [_primitive(s) for s in seeds]
        maps = [functools.partial(_apply_int, m._integral) for m in mats]
        insert = _insert_int
    else:
        maps = [m.apply for m in mats]
        insert = functools.partial(_insert, field.p)
    rows: list = []
    queue = deque(seeds)
    while queue:
        row = insert(queue.popleft(), rows)
        if row is not None:
            queue.extend(f(row) for f in maps)
    if field.p is not None:
        return Subspace._from_echelon(field, n, rows)
    # the unique RREF: clear above the pivots in integers (each row, last
    # first, inserted among the already reduced rows below it), then divide
    # each row by its pivot
    reduced: list = []
    for _, row in reversed(rows):
        _insert_int(row, reduced)
    return Subspace(n, Matrix(field, len(reduced), n, tuple(
        tuple(Fraction(x, row[pc]) for x in row) for pc, row in reduced)))


def sylvester_rows(pairs) -> list:
    """Rows of the linear map X -> (A X - X C) for each (A, C) in pairs.

    A is d x d and C is m x m, so X is d x m with X[b][j] the unknown at
    b*m + j; row b*m + j of each pair's block is entry (b, j) of A X - X C.
    Commuting (A = C) and intertwining conditions are both of this form.
    """
    rows = []
    for a, c in pairs:
        f = a.field
        d, m = a.rows, c.rows
        ae, ce = a.entries, c.entries
        for b in range(d):
            for j in range(m):
                row = [f.zero] * (d * m)
                for k in range(d):
                    row[k * m + j] = ae[b][k]
                for k in range(m):
                    row[b * m + k] = f.sub(row[b * m + k], ce[k][j])
                rows.append(tuple(row))
    return rows


def commutant(gens) -> tuple:
    """Canonical basis of the algebra {a : a h_i = h_i a for all i}."""
    mats = list(gens)
    field, n = _generators_shape(mats)
    rows = sylvester_rows([(hm, hm) for hm in span_basis(mats)])
    m = Matrix(field, len(rows), n * n, tuple(rows))
    sol = Subspace.from_vectors(field, n * n, kernel_basis(m))
    return tuple(Matrix(field, n, n,
                        tuple(row[i * n:(i + 1) * n] for i in range(n)))
                 for row in sol.basis.entries)
