"""Complete reducibility of matrix subgroups of GL_n over exact fields.

A finitely generated subgroup of GL_n is completely reducible exactly when
the natural module is a direct sum of irreducibles, which this engine
decides by exact linear algebra: composition series via spinning, invariant
complements via the Sylvester system A X - X C = -B of the generators in a
basis adapted to the subspace, witnesses as flags whose named member has no
invariant complement, and semisimplification as the limit under a
flag-adapted cocharacter.

F_q and the rationals are perfect, so deciding over the base field agrees
with the algebraically closed notion for the module criterion.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence

from .cochar import (Cocharacter, _limit_diagonal, cocharacter_from_flag,
                     limit_tuple, parabolic_of)
from .instability import WeightSet, optimal_cocharacter, support_of_tuple
from .linalg import (BudgetExceeded, DEFAULT_BUDGET, Frozen, Matrix,
                     MatrixTuple, Subspace, commutant, kernel_basis,
                     solve_affine, spin, sylvester_rows)


class ModuleDecomposition(Frozen):
    """Composition series 0 = V_0 < ... < V_s = V with split diagnostics.

    series holds the Subspaces, zero through full.  complements holds one
    entry per proper member: complements[i] is the canonical invariant
    complement of V_{i+1} in V, or None; step_split[i] records whether it
    exists, and the module is semisimple iff every step splits.
    factor_commutant_dims hold the commutant dimension of each factor action
    (1 means absolutely irreducible).
    """

    _fields = ("series", "factor_commutant_dims", "complements")

    @property
    def factor_dims(self) -> tuple:
        return tuple(b.dim - a.dim for a, b in zip(self.series, self.series[1:]))

    @property
    def step_split(self) -> tuple:
        return tuple(c is not None for c in self.complements)

    @property
    def semisimple(self) -> bool:
        return all(self.step_split)


class WitnessParabolic(Frozen):
    """A flag certifying failure of reducibility.

    flag holds the proper nonzero members, then the full space, and reason
    is "no-complement" or "borel-tits".  Every generator stabilizes every
    flag member, and the flag member at 1-based index `step` admits no
    invariant complement (re-verifiable via verify_witness).
    """

    _fields = ("flag", "reason", "step")

    @functools.cached_property
    def cochar(self) -> Cocharacter:
        """The cocharacter adapted to the flag (cocharacter_from_flag)."""
        return cocharacter_from_flag(self.flag)


def _stable_under(comps: Sequence[Matrix], sub: Subspace) -> bool:
    return all(sub.contains(c.apply(row))
               for c in comps for row in sub.basis.entries)


def _verify_complement(h: MatrixTuple, w: Subspace, comp: Subspace) -> None:
    """Re-verify an invariant complement: exhaustive, transverse and stable.

    Raises AssertionError explicitly, so the check survives python -O.
    """
    if comp.dim + w.dim != h.dim:
        raise AssertionError("complement has the wrong dimension")
    if not w.add(comp).is_full:
        raise AssertionError("complement is not transverse to the subspace")
    if not _stable_under(h.components, comp):
        raise AssertionError("complement is not invariant")


def has_invariant_complement(h: MatrixTuple, w: Subspace) -> Optional[Subspace]:
    """Invariant complement of an invariant subspace, or None.

    Let d = dim w, with RREF rows w_b at pivots p_b, and N the non-pivot
    coordinates.  In the basis (w_1..w_d, e_j for j in N) every generator
    is [[A, B], [0, C]]: A is the action on w (A[b][c] is entry p_b of
    h w_c), B[b][j] is entry p_b of column j of h, and C is the action on
    V/w modelled on N; both come from _action.  The
    invariant complements are span{e_j + sum_b X[b][j] w_b} for the
    solutions X of the Sylvester system A X - X C = -B, which has d(n-d)
    unknowns.  The one returned is named by its particular solution (free
    unknowns zero, unknown X[b][j] at b*|N| + j), which depends only on the
    solution set, hence only on the algebra the generators span and on w.
    The complement is re-verified to be stable, transverse and exhaustive.
    """
    n = h.dim
    field = h.field
    if w.ambient != n or w.field != field:
        raise ValueError("dimension mismatch")
    if not _stable_under(h.components, w):
        raise ValueError("subspace is not invariant")

    d, rows, piv = w.dim, w.basis.entries, w.pivots
    nonpiv = [j for j in range(n) if j not in piv]
    acts = h.span
    pairs = zip(_action(acts, w, Subspace.zero(field, n)),
                _action(acts, Subspace.full(field, n), w))
    rhs = [field.neg(hm.entries[pb][j]) for hm in acts for pb in piv for j in nonpiv]
    system = sylvester_rows(pairs)
    sol = solve_affine(Matrix(field, len(system), d * len(nonpiv),
                              tuple(system)), rhs)
    if sol is None:
        return None
    x, m = sol[0], len(nonpiv)
    comp = Subspace.from_vectors(field, n, [
        [int(i == j) + sum(x[b * m + jj] * wb[i] for b, wb in enumerate(rows))
         for i in range(n)] for jj, j in enumerate(nonpiv)])
    _verify_complement(h, w, comp)
    return comp


def _action(acts: Sequence[Matrix], w: Subspace, u: Subspace) -> list:
    """Matrices of each act on the subquotient w/u, for invariant u <= w:
    on w itself with u = 0, on V/u with w = V.  The basis is w's RREF rows
    at the pivots that are not u's (with u's rows, a basis of w), and entry
    (r, c) is row c's image, reduced mod u, read at row r's pivot."""
    upiv = set(u.pivots)
    basis = [(pc, row) for pc, row in zip(w.pivots, w.basis.entries)
             if pc not in upiv]
    d = len(basis)
    out = []
    for a in acts:
        cols = [u.reduce(a.apply(row)) for _, row in basis]
        out.append(Matrix(w.field, d, d,
                          tuple(tuple(c[piv] for c in cols) for piv, _ in basis)))
    return out


def _flag(h: MatrixTuple, step) -> tuple:
    """Flag of invariant subspaces, zero through full.  step(qacts) returns
    vectors of the quotient model of V/V_i (see _action), spanning the image
    of V_{i+1}."""
    field, n = h.field, h.dim
    series = [Subspace.zero(field, n)]
    while series[-1].dim < n:
        cur = series[-1]
        nonpiv = sorted(set(range(n)).difference(cur.pivots))
        lifts = []
        for u in step(_action(h.span, Subspace.full(field, n), cur)):
            lift = dict(zip(nonpiv, u))
            lifts.append([lift.get(j, field.zero) for j in range(n)])
        series.append(cur.extend(lifts))
    return tuple(series)


def _candidate_vectors(sub: Subspace):
    """Vectors of sub to try as spin seeds when shrinking.

    Over a finite field with at most 2^16 vectors this yields one nonzero
    member per line, since spin(c.v) = spin(v): the coefficient tuples whose
    first nonzero entry is 1, in lexicographic order (a complete
    irreducibility certificate).  Otherwise it falls back to the basis rows,
    certified by re-spin.
    """
    field = sub.field
    d = sub.dim
    if field.p is not None and field.p ** d <= 1 << 16:
        combine = sub.basis.transpose()
        for i in range(d - 1, -1, -1):
            head = (0,) * i + (1,)
            for tail in itertools.product(field.elements(), repeat=d - 1 - i):
                yield combine.apply(head + tail)
    else:
        yield from sub.basis.entries


def _minimal_invariant(acts: Sequence[Matrix], tick) -> Subspace:
    """A minimal invariant subspace of k^d under the d x d acts,
    deterministically.  tick() is called before every spin."""
    best = None
    for seed in Matrix.identity(acts[0].field, acts[0].rows).entries:
        tick()
        s = spin([seed], acts)
        if s.dim == 1:
            return s
        if best is None or s.dim < best.dim:
            best = s
    while best.dim > 1:
        smaller = None
        for v in _candidate_vectors(best):
            tick()
            s = spin([v], acts)
            if 0 < s.dim < best.dim:
                smaller = s
                break
        if smaller is None:
            break
        best = smaller
    return best


def _series(h: MatrixTuple, budget: int = DEFAULT_BUDGET) -> tuple:
    """Composition series, zero through full, with irreducible quotients.
    Every spin counts against the budget."""
    spins = itertools.count(1)

    def tick():
        if next(spins) > budget:
            raise BudgetExceeded(f"composition series: spins exceed budget {budget}")

    return _flag(h, lambda qacts: _minimal_invariant(qacts, tick).basis.entries)


def composition_series(h: MatrixTuple,
                       budget: int = DEFAULT_BUDGET) -> ModuleDecomposition:
    """Composition series of the natural module with irreducible quotients,
    and the invariant complement of each proper member."""
    series = _series(h, budget)
    return ModuleDecomposition(
        series, tuple(len(commutant(_action(h.span, b, a)))
                      for a, b in zip(series, series[1:])),
        tuple(has_invariant_complement(h, v) for v in series[1:-1]))


def _witness(series: tuple, step: int) -> WitnessParabolic:
    """The series as a witness flag, naming the member at 1-based `step`."""
    return WitnessParabolic(series[1:], "no-complement", step)


def is_completely_reducible(h: MatrixTuple, budget: int = DEFAULT_BUDGET):
    """Module criterion: (verdict, decomposition, witness-or-None).

    On a negative verdict the witness flag is the composition series with the
    first non-split member named; that member has no invariant complement.
    """
    decomp = composition_series(h, budget)
    if decomp.semisimple:
        return True, decomp, None
    return False, decomp, _witness(decomp.series, decomp.complements.index(None) + 1)


def semisimplify(h: MatrixTuple, budget: int = DEFAULT_BUDGET):
    """Block-diagonal associated-graded tuple and its adapted cocharacter.

    The limit exists because every generator stabilizes the flag; the result
    generates a completely reducible subgroup with the same multiset of
    composition-factor dimensions.
    """
    series = _series(h, budget)
    lam = cocharacter_from_flag(series[1:])
    lim = limit_tuple(lam, h)
    if lim is None:
        raise AssertionError("flag-adapted limit must exist")
    return lim, lam


def is_unipotent(m: Matrix) -> bool:
    """Whether (m - 1)^n = 0 for the n x n matrix m."""
    nil = m - Matrix.identity(m.field, m.rows)
    power = functools.reduce(Matrix.__mul__, [nil] * m.rows)
    return not any(x for row in power.entries for x in row)


def borel_tits_flag(h: MatrixTuple) -> WitnessParabolic:
    """Canonical witness flag of a nontrivial unipotent subgroup.

    Iterated common fixed spaces: V_1 = Fix(U), V_{i+1} the preimage of the
    common fixed space on V/V_i.  Every generator acts trivially on each
    quotient, so the subgroup sits in R_u of the flag stabilizer, and the
    first member never has an invariant complement.
    """
    field, n = h.field, h.dim
    if not all(is_unipotent(c) for c in h.components):
        raise ValueError("generator not unipotent")
    ident = Matrix.identity(field, n)
    if all(c == ident for c in h.components):
        raise ValueError("trivial unipotent subgroup")

    def step(qacts):
        d = qacts[0].rows
        qid = Matrix.identity(field, d)
        stacked = [row for q in qacts for row in (q - qid).entries]
        fixed = kernel_basis(Matrix(field, len(stacked), d, tuple(stacked)))
        if not fixed:
            raise ValueError("generated group is not unipotent")
        return fixed

    return WitnessParabolic(_flag(h, step)[1:], "borel-tits", 1)


def orbit_dimension(h: MatrixTuple) -> int:
    """Dimension of the simultaneous-conjugacy orbit: n^2 - dim commutant.

    Subgroups of GL_n are separable, so the tangent-space count is exact.
    """
    return h.dim * h.dim - len(commutant(h.components))


def block_diagonal(h1: MatrixTuple, h2: MatrixTuple) -> MatrixTuple:
    """Componentwise block-diagonal embedding into GL_{n1+n2}."""
    if h1.field != h2.field:
        raise ValueError("field mismatch")
    if len(h1) != len(h2):
        raise ValueError("mismatched component counts")
    field = h1.field
    n1, n2 = h1.dim, h2.dim
    zero = field.zero
    comps = []
    for a, b in zip(h1.components, h2.components):
        rows = [tuple(a.entries[i]) + (zero,) * n2 for i in range(n1)]
        rows += [(zero,) * n1 + tuple(b.entries[i]) for i in range(n2)]
        comps.append(Matrix(field, n1 + n2, n1 + n2, tuple(rows)))
    return MatrixTuple(field, n1 + n2, tuple(comps))


def product_check(h1: MatrixTuple, h2: MatrixTuple):
    """(cr of h1, cr of h2, cr of the block-diagonal embedding)."""
    emb = block_diagonal(h1, h2)
    return (is_completely_reducible(h1)[0],
            is_completely_reducible(h2)[0],
            is_completely_reducible(emb)[0])


def ru_conjugator(h: MatrixTuple, lam: Cocharacter) -> Optional[Matrix]:
    """u in R_u(P_lam) with u.h equal to the limit of h under lam, or None.

    When u exists the limit stays in the orbit; None certifies that it
    leaves the orbit.  In lam's core basis (lam.core) write u = I + N with N on
    the free R_u positions: u c u^-1 = l is the affine system l N - N c =
    c - l for each component c and its limit l.  The unknowns run over the
    free positions in reverse, so the particular solution (free unknowns
    zero) is the lexicographically least u over F_p, and canonical over Q.
    """
    field, n = h.field, h.dim
    if lam.n != n:
        raise ValueError("dimension mismatch")
    pairs, rhs = [], []
    for c in h.components:
        c0 = lam.core(c)
        l0 = _limit_diagonal(lam.exponents, c0)
        if l0 is None:
            raise ValueError("limit does not exist")
        pairs.append((l0, c0))
        rhs.extend(x for row in (c0 - l0).entries for x in row)
    cols = [i * n + j for i, j in
            reversed(parabolic_of(Cocharacter(lam.exponents)).free_ru_positions())]
    system = [tuple(row[k] for k in cols) for row in sylvester_rows(pairs)]
    sol = solve_affine(Matrix(field, len(system), len(cols), tuple(system)), rhs)
    if sol is None:
        return None
    x = dict(zip(cols, sol[0]))
    u0 = Matrix(field, n, n, tuple(
        tuple(x.get(i * n + j, field.one if i == j else field.zero)
              for j in range(n)) for i in range(n)))
    u = lam.uncore(u0)
    ui = u.inverse()
    if not all(u * c * ui == lam.uncore(l0)
               for c, (l0, _) in zip(h.components, pairs)):
        raise AssertionError("conjugated tuple is not the limit")
    return u


def _entry_key(m: Matrix):
    return tuple(x for row in m.entries for x in row)


def _closure(start, moves, budget: int, what: str) -> list:
    """Breadth-first closure of start under moves(a), in discovery order."""
    seen = dict.fromkeys(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for c in moves(a):
                if c not in seen:
                    seen[c] = None
                    if len(seen) > budget:
                        raise BudgetExceeded(f"{what} exceeds budget {budget}")
                    nxt.append(c)
        frontier = nxt
    return list(seen)


def enumerate_group(gens, budget: int = DEFAULT_BUDGET) -> list:
    """All elements of the group generated over a finite field, by breadth
    first closure under multiplication."""
    mats = list(gens)
    if not mats:
        raise ValueError("no generators")
    if mats[0].field.p is None:
        raise ValueError("finite base field required")
    return _closure(mats, lambda a: (a * b for b in mats), budget, "group order")


def normal_closure(h: MatrixTuple, indices: Sequence[int],
                   budget: int = DEFAULT_BUDGET) -> MatrixTuple:
    """Smallest normal subgroup of the generated group containing the
    selected generators, returned as the tuple of all its elements in a
    deterministic (entry-sorted) order.

    The breadth-first closure of the seeds under right multiplication by a
    seed and conjugation by a generator is closed under conjugation by the
    whole (finite) group, and under right multiplication by every conjugate,
    since a g s g^-1 = g (g^-1 a g) s g^-1; so it is the normal closure.  The
    group itself is never enumerated: the budget caps the closure's order.
    """
    field = h.field
    if field.p is None:
        raise ValueError("finite base field required")
    for i in indices:
        if not 0 <= i < len(h):
            raise ValueError(f"generator index out of range: {i}")
    seeds = list(dict.fromkeys(h[i] for i in indices))
    if not seeds:
        return MatrixTuple(field, h.dim, (Matrix.identity(field, h.dim),))
    conj = [(g, g.inverse()) for g in h.components]

    def moves(a):
        yield from (a * s for s in seeds)
        yield from (g * a * gi for g, gi in conj)

    closure = _closure(seeds, moves, budget, "normal closure order")
    return MatrixTuple(field, h.dim, tuple(sorted(closure, key=_entry_key)))


def tuple_witness_search(h: MatrixTuple, budget: int = DEFAULT_BUDGET):
    """Heuristic destabilising data for a non-completely-reducible tuple.

    The witness names the first series member without an invariant
    complement; complements are solved only up to that member.  Works in the
    composition-series basis: collects the support weights the
    adapted cocharacter strictly destabilises, projects them onto the flag
    blocks, and optimizes there, so the reported cocharacter pairs >= 0 with
    the whole tuple support and its limit is the semisimplification (which
    leaves the orbit).  Optimality over all maximal tori is not claimed.

    Returns (witness, instability report over the block weights, the
    report's optimal block exponents as a cocharacter on the witness's
    torus), or None for a completely reducible tuple.
    """
    series = _series(h, budget)
    step = next((i for i, v in enumerate(series[1:-1], 1)
                 if has_invariant_complement(h, v) is None), None)
    if step is None:
        return None
    wit = _witness(series, step)
    lam = wit.cochar
    sup = support_of_tuple(h, lam)
    strict = [chi for chi in sup.weights
              if sum(a * c for a, c in zip(lam.exponents, chi)) > 0]
    if not strict:
        raise AssertionError(
            "non-split module must have a strictly destabilised weight")
    blocks = list(zip(series, series[1:]))
    report = optimal_cocharacter(WeightSet.of(
        [tuple(sum(chi[a.dim:b.dim]) for a, b in blocks) for chi in strict]),
        budget=budget)
    if report.semistable:
        raise AssertionError("block weights of a non-split module are semistable")
    destab = lam.with_exponents(
        v for v, (a, b) in zip(report.lam_opt, blocks) for _ in range(a.dim, b.dim))
    return wit, report, destab


def verify_witness(h: MatrixTuple, wit: WitnessParabolic) -> bool:
    """Re-verify a witness directly: the flag is a flag of h's space that
    cocharacter_from_flag accepts, with no zero member; every member is
    generator-stable; the adapted limit exists; and the named member is a
    proper one without an invariant complement.  Anything else, including a
    flag of another field or dimension, returns False rather than raising."""
    flag = wit.flag
    if (not flag or flag[0].is_zero or flag[0].ambient != h.dim
            or flag[0].field != h.field or not 1 <= wit.step < len(flag)):
        return False
    try:
        lam = wit.cochar
    except ValueError:
        return False
    if not all(_stable_under(h.components, sub) for sub in flag):
        return False
    if limit_tuple(lam, h) is None:
        return False
    return has_invariant_complement(h, flag[wit.step - 1]) is None
