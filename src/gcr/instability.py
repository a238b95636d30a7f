"""Numerical function, normalized instability, and optimal cocharacters.

The numerical function of a weight support is mu(lam) = min_i <lam, chi_i>.
The normalized value mu(lam)/|lam| is never materialized as a real number:
comparisons go through (sign, mu^2, |lam|^2) with cross multiplication, and
its exact maximizer comes from the minimum-norm point p of the convex hull
of the support (the maximum equals |p|, attained on the ray through p when
p != 0; when p = 0 the support is semistable and mu <= 0 everywhere).

The norm is the standard Euclidean form on Z^r, which is invariant under
coordinate permutations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .cochar import Cocharacter
from .linalg import (QQ, BudgetExceeded, DEFAULT_BUDGET, Frozen, Matrix,
                     MatrixTuple, solve_affine)


class WeightSet(Frozen):
    """Finite set of distinct integer weight vectors, sorted for canonicity."""

    _fields = ("rank", "weights")

    def __init__(self, rank: int, weights: tuple):
        ws = sorted({tuple(int(x) for x in w) for w in weights})
        if not ws:
            raise ValueError("empty weight set")
        for w in ws:
            if len(w) != rank:
                raise ValueError("weight length mismatch")
        super().__init__(rank, tuple(ws))

    @staticmethod
    def of(weights: Sequence) -> "WeightSet":
        """The weight set of rank len(weights[0])."""
        return WeightSet(len(weights[0]) if weights else 0, weights)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def norm_sq(v) -> int:
    return sum(int(x) * int(x) for x in v)


def support_of_tuple(h: MatrixTuple, lam: Optional[Cocharacter] = None) -> WeightSet:
    """Weight support of a tuple for the conjugation action, on the torus
    of lam (the diagonal torus when lam is None).

    After rewriting each component in lam's core basis (lam.core), the
    weight e_i - e_j lies in the support iff some component has a nonzero
    (i, j) entry; 0 is in the support iff a diagonal entry survives.
    """
    n = h.dim
    if lam is not None and lam.n != n:
        raise ValueError("dimension mismatch")
    comps = h.components if lam is None else [lam.core(c) for c in h.components]
    seen = set()
    for c in comps:
        for i in range(n):
            for j in range(n):
                if c.entries[i][j] != 0:
                    w = [0] * n
                    w[i] += 1
                    w[j] -= 1
                    seen.add(tuple(w))
    return WeightSet(n, tuple(seen))


def mu(w: WeightSet, lam: Sequence[int]) -> int:
    """min over the support of <lam, chi>."""
    lam = tuple(int(x) for x in lam)
    if len(lam) != w.rank:
        raise ValueError("length mismatch")
    return min(_dot(lam, chi) for chi in w.weights)


def mu_conjugated(h: MatrixTuple, lam: Cocharacter) -> int:
    """mu for a cocharacter of the conjugated torus g T g^-1."""
    return mu(support_of_tuple(h, lam), lam.exponents)


def f_compare(w: WeightSet, lam1: Sequence[int], lam2: Sequence[int]) -> int:
    """Exact comparison of mu/|lam| at lam1 vs lam2: -1, 0 or +1.

    Signs first; equal signs compare mu^2 cross-multiplied by the squared
    norms, oriented so the ordering matches the real-valued quotient.
    """
    lam1 = tuple(int(x) for x in lam1)
    lam2 = tuple(int(x) for x in lam2)
    q1, q2 = norm_sq(lam1), norm_sq(lam2)
    if q1 == 0 or q2 == 0:
        raise ValueError("zero cocharacter")
    m1, m2 = mu(w, lam1), mu(w, lam2)
    s1 = (m1 > 0) - (m1 < 0)
    s2 = (m2 > 0) - (m2 < 0)
    if s1 != s2:
        return 1 if s1 > s2 else -1
    if s1 == 0:
        return 0
    diff = m1 * m1 * q2 - m2 * m2 * q1
    if diff == 0:
        return 0
    return s1 if diff > 0 else -s1


def _project_origin_affine(points):
    """Coefficients c (sum 1) minimizing |sum c_i x_i| over the affine hull,
    or None when the points are affinely dependent.

    The bordered Gram system [[G, 1], [1^T, 0]] is singular exactly then:
    an affine dependence c gives the kernel vector (c, 0), and a kernel
    vector (c, t) has c^T G c = |sum c_i x_i|^2 = 0 with sum c_i = 0.
    Otherwise the coefficients are unique.
    """
    k = len(points)
    rows = []
    for a in range(k):
        row = [Fraction(_dot(points[a], points[b])) for b in range(k)]
        row.append(Fraction(1))
        rows.append(tuple(row))
    rows.append(tuple([Fraction(1)] * k + [Fraction(0)]))
    m = Matrix(QQ, k + 1, k + 1, tuple(rows))
    rhs = [Fraction(0)] * k + [Fraction(1)]
    sol = solve_affine(m, rhs)
    if sol is None or sol[1]:
        return None
    return sol[0][:k]


def min_norm_point(w: WeightSet, budget: int = DEFAULT_BUDGET):
    """Exact minimum-norm point of conv(weights) with a hull certificate.

    Wolfe's active-set method ("Finding the nearest point in a polytope",
    1976) finds the point p in exact arithmetic.  The coefficients are then
    those of the first subset, by size and then lexicographically by weight
    index, whose affine projection of the origin is p with no negative
    coefficient.  Positive coefficients sit on the face
    F = {i : <p, chi_i> = <p, p>}, and a zero coefficient means a smaller
    subset comes first, so only subsets of F are searched.  Every bordered
    Gram solve counts against the budget.

    Returns (point, coefficients over the full weight list).
    """
    pts = w.weights
    t = len(pts)
    solves = 0

    def project(subset):
        nonlocal solves
        solves += 1
        if solves > budget:
            raise BudgetExceeded(f"{solves} Gram solves exceed budget {budget}")
        return _project_origin_affine([pts[i] for i in subset])

    def combine(subset, coeffs):
        return tuple(sum(c * Fraction(pts[i][d]) for c, i in zip(coeffs, subset))
                     for d in range(w.rank))

    # Major cycle: add the weight least in the direction of x, until none
    # lies below the hyperplane <x, .> = <x, x>.  Minor cycle: move from x
    # toward the affine minimizer of the active set, dropping coefficients
    # that reach 0, until the minimizer lies inside the active simplex.
    # min() keeps the first of equal keys: ties go to the lowest index.
    start = min(range(t), key=lambda i: norm_sq(pts[i]))
    active, coef = [start], [Fraction(1)]
    x = combine(active, coef)
    while True:
        j = min(range(t), key=lambda i: _dot(x, pts[i]))
        if _dot(x, pts[j]) >= _dot(x, x):
            break
        active.append(j)
        coef.append(Fraction(0))
        while True:
            alpha = project(active)
            if alpha is None:
                raise AssertionError("Wolfe active set is affinely dependent")
            if coef[-1] == 0 and alpha[-1] <= 0:
                raise AssertionError("Wolfe step does not descend")
            theta = min([c / (c - a) for c, a in zip(coef, alpha) if a <= 0],
                        default=Fraction(1))
            coef = [theta * a + (1 - theta) * c for c, a in zip(coef, alpha)]
            active = [i for i, c in zip(active, coef) if c != 0]
            coef = [c for c in coef if c != 0]
            x = combine(active, coef)
            if theta == 1:
                break

    qq = _dot(x, x)
    face = [i for i in range(t) if _dot(x, pts[i]) == qq]
    for k in range(1, min(len(face), w.rank + 1) + 1):
        for subset in itertools.combinations(face, k):
            coeffs = project(subset)
            if coeffs is None or any(c < 0 for c in coeffs):
                continue
            point = combine(subset, coeffs)
            if point != x:
                continue
            full = [Fraction(0)] * t
            for i, c in zip(subset, coeffs):
                full[i] = c
            if sum(full) != 1:
                raise AssertionError("hull coefficients do not sum to 1")
            if not all(_dot(point, chi) - qq >= 0 for chi in pts):
                raise AssertionError("optimality margin violated")
            return point, tuple(full)
    raise AssertionError("no candidate minimum-norm point")


class InstabilityReport(Frozen):
    """Verdict of the exact optimizer over one torus.

    min_point is the rational minimum-norm point p of the hull, value_sq is
    <p, p>, hull_coeffs are rational, one per weight, summing to 1, and
    margins are <p, chi_i> - <p, p>, all >= 0.  When semistable, the hull
    contains the origin, mu <= 0 for every cocharacter, and lam_opt, mu_opt
    and lam_norm_sq are None.  Otherwise lam_opt is the primitive integer
    vector on the ray through p, and mu_opt^2 == value_sq * lam_norm_sq
    exactly.  hull_coeffs and margins follow w.weights: the distinct weights
    sorted, not the input order.
    """

    _fields = ("semistable", "min_point", "value_sq", "hull_coeffs", "margins",
               "lam_opt", "mu_opt", "lam_norm_sq")


def optimal_cocharacter(w: WeightSet, budget: int = DEFAULT_BUDGET) -> InstabilityReport:
    point, coeffs = min_norm_point(w, budget=budget)
    value_sq = _dot(point, point) + Fraction(0)
    margins = tuple(_dot(point, chi) - value_sq for chi in w.weights)
    if all(x == 0 for x in point):
        return InstabilityReport(True, point, value_sq, coeffs, margins,
                                 None, None, None)
    scale = math.lcm(*(x.denominator for x in point))
    ints = [int(x * scale) for x in point]
    g = math.gcd(*(abs(v) for v in ints))
    lam = tuple(v // g for v in ints)
    m = mu(w, lam)
    q = norm_sq(lam)
    if math.gcd(*(abs(v) for v in lam)) != 1:
        raise AssertionError("cocharacter is not primitive")
    if _dot(lam, point) <= 0:
        raise AssertionError("cocharacter does not point toward the min point")
    if Fraction(m * m) != value_sq * q:
        raise AssertionError("certificate identity violated")
    return InstabilityReport(False, point, value_sq, coeffs, margins, lam, m, q)


class BoxOptimum(Frozen):
    """Best cocharacter in an integer box, with its comparison witness."""

    _fields = ("lam", "mu", "norm_sq")


def brute_force_optimum(w: WeightSet, box: int,
                        budget: int = DEFAULT_BUDGET) -> BoxOptimum:
    """Maximize the normalized value over nonzero integer vectors in
    [-box, box]^rank; ties resolve to the lexicographically smallest."""
    if box < 1:
        raise ValueError("box radius must be >= 1")
    r = w.rank
    count = (2 * box + 1) ** r
    if r * count > budget:
        raise BudgetExceeded(f"{r * count} enumeration steps exceed budget {budget}")
    best = None
    for cand in itertools.product(range(-box, box + 1), repeat=r):
        if all(x == 0 for x in cand):
            continue
        if best is None or f_compare(w, cand, best) > 0:
            best = cand
    return BoxOptimum(best, mu(w, best), norm_sq(best))
