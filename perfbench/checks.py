"""Independent answer checks for the benchmark.

Nothing here imports `gcr`: every expected value is computed with this
module's own exact arithmetic, so a fault in the program's linear algebra
cannot hide itself by also appearing in its check.

Scalars are ints in [0, p) over F_p and `Fraction`s over Q; a field is
named by `p`, with `p = None` for Q.  Matrices are lists of rows.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def parse_matrix(rows, p):
    """Parse wire scalars ("a" or "a/b") into the field."""
    if p is None:
        return [[Fraction(x) for x in row] for row in rows]
    return [[int(x) % p for x in row] for row in rows]


# -- elimination ---------------------------------------------------------------

def echelon(rows, ncols, p, reduced=True):
    """Row echelon form with unit pivots: (nonzero rows, pivot columns).

    With `reduced`, pivot columns are cleared above as well as below, which
    gives the unique RREF.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        if p is None:
            inv = 1 / Fraction(rows[r][c])
            prow = [x * inv for x in rows[r]]
        else:
            inv = pow(rows[r][c], -1, p)
            prow = [x * inv % p for x in rows[r]]
        rows[r] = prow
        for i in range(0 if reduced else r + 1, len(rows)):
            f = rows[i][c]
            if i == r or not f:
                continue
            if p is None:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
            else:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows, ncols, p):
    return len(echelon(rows, ncols, p, reduced=False)[1])


def solvable(rows, rhs, ncols, p):
    """Whether the linear system rows . x = rhs has a solution."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    return ncols not in echelon(aug, ncols + 1, p, reduced=False)[1]


def matmul(a, b, p):
    bt = list(zip(*b))
    if p is None:
        return [[sum(x * y for x, y in zip(ra, cb)) for cb in bt] for ra in a]
    return [[sum(x * y for x, y in zip(ra, cb)) % p for cb in bt] for ra in a]


def identity(n, p):
    one = 1 if p is not None else Fraction(1)
    zero = 0 if p is not None else Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def inverse(a, p):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(a)
    aug = [list(r) + e for r, e in zip(a, identity(n, p))]
    red, piv = echelon(aug, 2 * n, p)
    if piv != list(range(n)):
        return None
    return [row[n:] for row in red]


def apply(a, v, p):
    if p is None:
        return [sum(x * y for x, y in zip(row, v)) for row in a]
    return [sum(x * y for x, y in zip(row, v)) % p for row in a]


# -- module facts --------------------------------------------------------------

def algebra_dim(gens, p):
    """Dimension of the algebra the matrices generate, with the identity.

    The identity is spun under left multiplication by the generators inside
    M_b, so the span reached is the whole enveloping algebra.
    """
    b = len(gens[0])
    basis = []  # (pivot, row with unit pivot), pivots ascending
    queue = [identity(b, p)]
    while queue:
        m = queue.pop()
        v = [x for row in m for x in row]
        for pc, row in basis:
            f = v[pc]
            if f:
                if p is None:
                    v = [x - f * y for x, y in zip(v, row)]
                else:
                    v = [(x - f * y) % p for x, y in zip(v, row)]
        pc = next((i for i, x in enumerate(v) if x), None)
        if pc is None:
            continue
        inv = pow(v[pc], -1, p) if p is not None else 1 / v[pc]
        row = [x * inv % p for x in v] if p is not None else [x * inv for x in v]
        basis.append((pc, row))
        basis.sort(key=lambda t: t[0])
        queue.extend(matmul(g, m, p) for g in gens)
    return len(basis)


def absolutely_irreducible(gens, p):
    """Burnside: the module is absolutely irreducible iff the generators
    span all of M_b as an algebra."""
    b = len(gens[0])
    return algebra_dim(gens, p) == b * b


def complement_exists(gens, d, p):
    """Whether span(e_1..e_d) has an invariant complement.

    Every generator is block upper triangular, [[A, B], [0, C]] with A of
    size d.  The complement spanned by the columns of [[X], [I]] is
    invariant iff A X - X C = -B for every generator (a Sylvester system in
    the d*(n-d) entries of X).
    """
    n = len(gens[0])
    m = n - d
    rows, rhs = [], []
    zero = 0 if p is not None else Fraction(0)
    for g in gens:
        for r in range(d):
            for s in range(m):
                row = [zero] * (d * m)
                for k in range(d):
                    row[k * m + s] += g[r][k]
                for k in range(m):
                    row[r * m + k] -= g[d + k][d + s]
                if p is not None:
                    row = [x % p for x in row]
                rows.append(row)
                b = -g[r][d + s]
                rhs.append(b % p if p is not None else b)
    return solvable(rows, rhs, d * m, p)


def semisimple(gens, blocks, p):
    """Planted truth for block upper triangular generators whose diagonal
    blocks are irreducible: the module is semisimple iff every member of the
    planted flag has an invariant complement (by the modular law, each
    complement restricts to one inside the next smaller member)."""
    d = 0
    for b in blocks[:-1]:
        d += b
        if not complement_exists(gens, d, p):
            return False
    return True


def commutant_dim(gens, p):
    """dim {X : X g = g X for every generator}, from n^2 unknowns."""
    n = len(gens[0])
    rows = []
    zero = 0 if p is not None else Fraction(0)
    for g in gens:
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                for k in range(n):
                    row[i * n + k] += g[k][j]
                    row[k * n + j] -= g[i][k]
                rows.append([x % p for x in row] if p is not None else row)
    return n * n - rank(rows, n * n, p)


def is_invariant(gens, basis, p):
    """Whether span(basis) is stable under every generator."""
    n = len(gens[0])
    if not basis:
        return True
    images = [apply(g, v, p) for g in gens for v in basis]
    return rank(basis + images, n, p) == rank(basis, n, p)


# -- optimizer certificate ----------------------------------------------------

def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def optimizer_errors(weights, rep):
    """Reasons the instability report is not a certificate for the weights.

    `weights` are the distinct integer weights in sorted order, which is the
    order of `hull_coeffs` and `margins`.  An empty list means the report
    certifies its min point: p = sum c_i chi_i with c >= 0, sum c = 1, and
    <p, chi_i> >= <p, p> for every i, so the hyperplane through p separates
    the hull from the origin side and p is the point of least norm.
    """
    errs = []
    ws = sorted({tuple(w) for w in weights})
    c = [Fraction(x) for x in rep["hull_coeffs"]]
    pt = [Fraction(x) for x in rep["min_point"]]
    if len(c) != len(ws) or any(x < 0 for x in c) or sum(c) != 1:
        errs.append("hull coefficients are not a convex combination")
    elif [sum(ci * w[k] for ci, w in zip(c, ws)) for k in range(len(pt))] != pt:
        errs.append("min point is not the stated combination")
    q = _dot(pt, pt)
    if Fraction(rep["value_sq"]) != q:
        errs.append("value_sq is not <p, p>")
    if any(_dot(pt, w) < q for w in ws):
        errs.append("some weight lies on the origin side of the point")
    if [Fraction(x) for x in rep["margins"]] != [_dot(pt, w) - q for w in ws]:
        errs.append("margins are not <p, chi> - <p, p>")
    zero = all(x == 0 for x in pt)
    if rep["semistable"] != zero:
        errs.append("semistable flag disagrees with p = 0")
    if zero:
        if rep["lambda_opt"] is not None or rep["mu"] is not None:
            errs.append("semistable report carries a cocharacter")
        return errs
    lam = rep["lambda_opt"]
    if lam is None or len(lam) != len(pt) or math.gcd(*lam) != 1:
        return errs + ["lambda is missing or not primitive"]
    # lam lies on the open ray through p: lam = t p with t > 0
    t = next(Fraction(a) / b for a, b in zip(lam, pt) if b != 0)
    if t <= 0 or any(Fraction(a) != t * b for a, b in zip(lam, pt)):
        errs.append("lambda is not on the ray through p")
    mu = min(_dot(lam, w) for w in ws)
    if rep["mu"] is None or Fraction(rep["mu"]) != mu:
        errs.append("mu is not min <lambda, chi>")
    nsq = _dot(lam, lam)
    if rep["lambda_norm_sq"] is None or Fraction(rep["lambda_norm_sq"]) != nsq:
        errs.append("lambda_norm_sq is not |lambda|^2")
    if Fraction(mu * mu) != q * nsq:
        errs.append("mu^2 != value_sq * |lambda|^2")
    return errs


def min_norm_point(weights):
    """Least-norm point of the hull of a few weights, by brute force.

    Only for pinning the certificate check on hand-checked cases: every
    subset's affine projection of the origin is tried.
    """
    ws = sorted({tuple(w) for w in weights})
    best = None
    for k in range(1, len(ws) + 1):
        for sub in itertools.combinations(ws, k):
            # Gram(sub) c + m 1 = 0 and sum c = 1: the projection of the
            # origin onto the affine hull of sub, with multiplier m.
            one, zero = Fraction(1), Fraction(0)
            rows = [[Fraction(_dot(a, b)) for b in sub] + [one, zero] for a in sub]
            rows.append([one] * k + [zero, one])
            red, piv = echelon(rows, k + 2, None)
            if piv != list(range(k + 1)):
                continue
            coeffs = [red[i][k + 1] for i in range(k)]
            if any(x < 0 for x in coeffs):
                continue
            pt = [sum(ci * w[j] for ci, w in zip(coeffs, sub))
                  for j in range(len(ws[0]))]
            if best is None or _dot(pt, pt) < _dot(best[0], best[0]):
                full = [coeffs[sub.index(w)] if w in sub else Fraction(0) for w in ws]
                best = (pt, full)
    return best


def certificate_for(weights):
    """A report in the program's wire shape, built from this module's own
    brute-force min-norm point, so the certificate check can be pinned."""
    ws = sorted({tuple(w) for w in weights})
    pt, c = min_norm_point(ws)
    q = _dot(pt, pt)
    rep = {"semistable": all(x == 0 for x in pt),
           "min_point": [str(x) for x in pt], "value_sq": str(q),
           "hull_coeffs": [str(x) for x in c],
           "margins": [str(_dot(pt, w) - q) for w in ws],
           "lambda_opt": None, "mu": None, "lambda_norm_sq": None}
    if not rep["semistable"]:
        scale = math.lcm(*(x.denominator for x in pt))
        ints = [int(x * scale) for x in pt]
        g = math.gcd(*ints)
        lam = [v // g for v in ints]
        rep["lambda_opt"] = lam
        rep["mu"] = str(min(_dot(lam, w) for w in ws))
        rep["lambda_norm_sq"] = str(_dot(lam, lam))
    return rep


# -- pins ----------------------------------------------------------------------

THIN_CONE = ((-3, 1, 3), (1, 2, 1), (3, -3, -4))


def pin_cases():
    """Hand-checked cases the checks must reproduce; raises on a mismatch."""
    def expect(cond, what):
        if not cond:
            raise RuntimeError(f"benchmark check pin failed: {what}")

    q = Fraction
    jordan_q = [[q(1), q(1)], [q(0), q(1)]]
    expect(not complement_exists([jordan_q], 1, None), "Jordan block over Q splits")
    expect(not complement_exists([[[1, 1], [0, 1]]], 1, 5),
           "Jordan block over F_5 splits")
    expect(complement_exists([[[1, 0], [0, 2]]], 1, 5), "diag(1, 2) over F_5 does not split")
    expect(semisimple([[[1, 0], [0, 2]]], (1, 1), 5), "diag(1, 2) not semisimple")
    # conjugation by the generators of GL_2(F_2) on M_2(F_2), basis E11, E12,
    # E21, E22: the scalars sit inside the trace-zero hyperplane, which has no
    # invariant complement.  In the basis (I, E12, E21, E11) the module is
    # block upper triangular with blocks (1, 2, 1).
    s = [[0, 1], [1, 0]]
    t = [[1, 1], [0, 1]]
    basis = [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    flat = [[x for row in b for x in row] for b in basis]
    cols = list(zip(*flat))
    binv = inverse([list(c) for c in cols], 2)

    def conj_matrix(g):
        gi = inverse(g, 2)
        images = [[x for row in matmul(matmul(g, b, 2), gi, 2) for x in row]
                  for b in basis]
        return matmul(binv, [list(c) for c in zip(*images)], 2)

    gens = [conj_matrix(s), conj_matrix(t)]
    expect(all(g[i][j] == 0 for g in gens for i in range(4) for j in range(4)
               if (i > 0 and j == 0) or (i == 3 and j < 3)),
           "M_2(F_2) conjugation module is not block upper triangular")
    expect(not complement_exists(gens, 3, 2), "trace-zero hyperplane splits")
    expect(not semisimple(gens, (1, 2, 1), 2), "M_2(F_2) conjugation module semisimple")
    expect(absolutely_irreducible([[[0, 1], [1, 1]]], 2) is False,
           "a 2x2 F_2 matrix generates M_2")
    expect(absolutely_irreducible([s, t], 2), "GL_2(F_2) on F_2^2 not absolutely irreducible")
    expect(not absolutely_irreducible([[[q(0), q(-1)], [q(1), q(0)]]], None),
           "rotation by 90 degrees absolutely irreducible over Q")
    expect(commutant_dim([[[1, 1], [0, 1]]], 5) == 2, "commutant of a Jordan block")
    expect(commutant_dim([[[1, 0], [0, 2]]], 5) == 2, "commutant of diag(1, 2)")

    semi = certificate_for([(-1,), (1,)])
    expect(semi["semistable"] and not optimizer_errors([(-1,), (1,)], semi),
           "{(-1,), (1,)} is not certified semistable")
    thin = certificate_for(THIN_CONE)
    expect(thin["lambda_opt"] == [15, -16, 22] and not optimizer_errors(THIN_CONE, thin),
           "thin cone is not certified unstable with lambda (15, -16, 22)")
    bad = dict(thin, lambda_opt=[30, -32, 44])
    expect(optimizer_errors(THIN_CONE, bad), "a non-primitive lambda passes")
    bad = dict(thin, semistable=True)
    expect(optimizer_errors(THIN_CONE, bad), "a wrong semistable flag passes")


# -- reports -------------------------------------------------------------------

def member_has_complement(gens, member, p):
    """Whether the invariant subspace spanned by `member` has an invariant
    complement: the generators are rewritten in a basis that starts with the
    member, which makes them block upper triangular."""
    n = len(gens[0])
    basis = [list(r) for r in member]
    for e in identity(n, p):
        if rank(basis + [e], n, p) > len(basis):
            basis.append(e)
    b = [list(c) for c in zip(*basis)]
    bi = inverse(b, p)
    return complement_exists([matmul(matmul(bi, g, p), b, p) for g in gens],
                             len(member), p)


def _chain_errors(gens, members, n, p):
    """Members, from 0 to the whole space, must grow strictly, each inside
    the next, and be invariant."""
    dims = [len(m) for m in members]
    if dims[0] != 0 or dims[-1] != n or any(a >= b for a, b in zip(dims, dims[1:])):
        return ["flag does not increase strictly from 0 to the whole space"]
    if any(rank(a + b, n, p) != len(b) for a, b in zip(members, members[1:])):
        return ["flag members are not nested"]
    if not all(is_invariant(gens, m, p) for m in members):
        return ["a flag member is not invariant"]
    return []


def _check_errors(gens, e, rep, p):
    n = e["n"]
    cr = rep["verdict"] == "completely reducible"
    if cr != e["cr"]:
        return [f"verdict cr={cr}, planted cr={e['cr']}"]
    series = [parse_matrix(s, p) for s in rep["series"]]
    errs = _chain_errors(gens, series, n, p)
    if errs:
        return errs
    dims = [len(s) for s in series]
    if sorted(b - a for a, b in zip(dims, dims[1:])) != e["blocks"]:
        errs.append(f"factor dims {rep['factor_dims']} are not the planted "
                    f"blocks {e['blocks']}")
    comps = rep["complements"]
    if len(comps) != len(series) - 2:
        return errs + ["one complement per proper member expected"]
    for member, comp in zip(series[1:-1], comps):
        if comp is None:
            if member_has_complement(gens, member, p):
                errs.append(f"member of dim {len(member)} has a complement, none reported")
            continue
        c = parse_matrix(comp, p)
        if (len(c) + len(member) != n or rank(member + c, n, p) != n
                or not is_invariant(gens, c, p)):
            errs.append(f"complement of member of dim {len(member)} is not "
                        "invariant and transverse")
    if cr != all(c is not None for c in comps) or (rep["witness"] is None) != cr:
        errs.append("verdict disagrees with the complements or the witness")
    return errs


def _block_weights(gens, cochar, sizes, p):
    """Weights the witness optimizes over: the support of the tuple in the
    adapted basis, kept where the flag cocharacter pairs > 0, summed over
    the flag's blocks."""
    n = len(gens[0])
    exps = cochar["exponents"]
    g = parse_matrix(cochar["conjugator"], p) if cochar["conjugator"] else identity(n, p)
    gi = inverse(g, p)
    support = set()
    for h in gens:
        m = matmul(matmul(gi, h, p), g, p)
        support |= {(a, b) for a in range(n) for b in range(n) if m[a][b]}
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    out = set()
    for a, b in support:
        if exps[a] - exps[b] > 0:
            chi = [0] * n
            chi[a] += 1
            chi[b] -= 1
            out.add(tuple(sum(chi[s:s + k]) for s, k in zip(starts, sizes)))
    return sorted(out)


def _witness_errors(gens, e, rep, p):
    if rep["completely_reducible"] != e["cr"]:
        return [f"verdict cr={rep['completely_reducible']}, planted cr={e['cr']}"]
    if e["cr"]:
        return []
    wit = rep["witness"]
    flag = [parse_matrix(s, p) for s in wit["flag"]]
    errs = _chain_errors(gens, [[]] + flag, e["n"], p)
    if errs:
        return errs
    if member_has_complement(gens, flag[wit["step"] - 1], p):
        errs.append("the named witness member has an invariant complement")
    inst = rep["instability"]
    if inst["semistable"]:
        errs.append("a non-cr tuple is reported semistable on its blocks")
    dims = [0] + [len(m) for m in flag]
    sizes = [b - a for a, b in zip(dims, dims[1:])]
    weights = _block_weights(gens, wit["cocharacter"], sizes, p)
    return errs + optimizer_errors(weights, inst)


def _semisimplify_errors(gens, e, rep, p):
    n = e["n"]
    lam = rep["cocharacter"]
    exps = lam["exponents"]
    if sorted(exps.count(v) for v in set(exps)) != e["blocks"]:
        return ["factor dims of the cocharacter are not the planted blocks"]
    g = parse_matrix(lam["conjugator"], p) if lam["conjugator"] else identity(n, p)
    gi = inverse(g, p)
    for h, lim in zip(gens, rep["limits"]):
        m = matmul(matmul(gi, h, p), g, p)
        if any(m[a][b] for a in range(n) for b in range(n) if exps[a] < exps[b]):
            return ["the tuple is outside the cocharacter's parabolic"]
        levi = [[m[a][b] if exps[a] == exps[b] else 0 * m[a][b] for b in range(n)]
                for a in range(n)]
        if matmul(matmul(gi, parse_matrix(lim, p), p), g, p) != levi:
            return ["a limit is not the Levi part of its generator"]
    return []


def _orbit_dim_errors(e, rep):
    n = e["n"]
    if rep["orbit_dimension"] + rep["commutant_dimension"] != n * n:
        return ["orbit dim + commutant dim != n^2"]
    if rep["commutant_dimension"] != e["commutant_dim"]:
        return [f"commutant dim {rep['commutant_dimension']}, counted "
                f"{e['commutant_dim']}"]
    return []


def report_errors(job, rep):
    """Reasons the report is wrong for the job; empty when it is right."""
    e = job["expect"]
    cmd = job["command"]
    if cmd == "optimize":
        return optimizer_errors(e["weights"], rep)
    p = e["p"]
    gens = [parse_matrix(m, p) for m in job["doc"]["matrices"]]
    if cmd == "check":
        return _check_errors(gens, e, rep, p)
    if cmd == "witness":
        return _witness_errors(gens, e, rep, p)
    if cmd == "semisimplify":
        return _semisimplify_errors(gens, e, rep, p)
    return _orbit_dim_errors(e, rep)
