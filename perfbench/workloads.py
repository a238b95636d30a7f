"""Seeded job documents for the three workloads, with their expected answers.

Every tuple job plants a flag: two generators, block upper triangular over
blocks whose pairs are absolutely irreducible (checked by Burnside), with
either zero (split) or random off-diagonal blocks.  Its true verdict is
decided here, in the planted basis, by `checks.semisimple`.  The shapes of a
round are fixed per workload; the seed draws only the entries and the order,
so rounds of different seeds do comparable work.

Hidden-flag jobs conjugate the planted tuple by a random change of basis.
They come from a fixed seed, not the workload seed: the program misses the
hidden flag on all of them (see `HIDDEN_SEED`), so they fail on every run in
the same number.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks

# Seed of the hidden-flag slice.  The slice does not depend on the workload
# seed, so the number of failed jobs per round is the same in every run.
HIDDEN_SEED = 20221807

# (field p or None for Q, blocks, split, commands); one entry per tuple.
# Every tuple gets `check`; the other commands ride on a share of them.
CHECK_FP = [
    (7, (2, 2, 2), False, ("check", "witness", "semisimplify", "orbit-dim")),
    (7, (2, 2, 2), True, ("check", "witness", "semisimplify")),
    (7, (2, 2, 2), False, ("check", "witness")),
    (7, (3, 3), False, ("check", "semisimplify")),
    (7, (2, 3, 2), True, ("check", "orbit-dim")),
    (7, (3, 2, 2), False, ("check", "witness")),
    (7, (2, 2, 3), True, ("check", "witness")),
    (7, (3, 3, 2), False, ("check", "semisimplify")),
    (7, (2, 2, 2, 2), False, ("check", "orbit-dim")),
    (7, (2, 2, 3, 3), True, ("check",)),
    (65537, (2, 2, 2), False, ("check", "witness", "semisimplify", "orbit-dim")),
    (65537, (2, 2, 2), False, ("check", "witness")),
    (65537, (2, 3), False, ("check", "witness", "semisimplify")),
    (65537, (3, 3), True, ("check", "semisimplify")),
    (65537, (2, 3, 2), False, ("check", "orbit-dim")),
    (65537, (3, 2, 3), False, ("check", "witness")),
    (65537, (2, 2, 2, 2), True, ("check", "witness")),
    (65537, (4, 4), False, ("check", "semisimplify")),
    (65537, (3, 3, 2), False, ("check",)),
    (65537, (2, 4, 3), True, ("check", "orbit-dim")),
    (65537, (3, 3, 4), True, ("check",)),
]
HIDDEN_FP = [
    (7, (2, 2, 2), ("check", "semisimplify")),
    (7, (3, 3), ("check", "witness")),
    (65537, (2, 2, 2), ("check",)),
    (65537, (3, 3), ("check",)),
]

CHECK_Q = [
    (None, (2, 2), False, ("check", "witness", "semisimplify", "orbit-dim")),
    (None, (2, 2), False, ("check", "witness", "semisimplify", "orbit-dim")),
    (None, (2, 2), True, ("check", "witness", "semisimplify")),
    (None, (2, 2), False, ("check", "witness", "semisimplify")),
    (None, (2, 2), False, ("check", "witness")),
    (None, (2, 2), False, ("check", "witness")),
    (None, (2, 2), False, ("check", "witness")),
    (None, (2, 2), False, ("check", "witness")),
    (None, (2, 2), True, ("check", "orbit-dim")),
    (None, (2, 3), False, ("check", "semisimplify", "orbit-dim")),
    (None, (2, 3), False, ("check", "semisimplify")),
    (None, (3, 2), False, ("check", "witness")),
    (None, (3, 2), False, ("check", "semisimplify")),
    (None, (2, 3), False, ("check",)),
    (None, (3, 2), False, ("check",)),
    (None, (2, 3), True, ("check", "witness")),
    (None, (3, 2), True, ("check", "orbit-dim")),
    (None, (2, 2, 2), False, ("check",)),
    (None, (2, 2, 2), True, ("check", "orbit-dim")),
    (None, (3, 3), False, ("check",)),
    (None, (3, 3), True, ("check", "semisimplify")),
    (None, (2, 4), False, ("check",)),
    (None, (4, 2), True, ("check",)),
]
HIDDEN_Q = [
    (None, (2, 2), ("check", "semisimplify")),
]

# (rank, number of weights, kind); kind is "roots" (a support of a tuple:
# roots e_i - e_j of GL_r, with 0), "random", or "halfspace" (random inside
# an open half-space, hence unstable).
OPTIMIZE = [
    (3, 6, "roots"), (3, 7, "roots"), (3, 6, "roots"), (3, 7, "roots"),
    (3, 5, "roots"), (3, 7, "roots"), (4, 6, "roots"), (4, 6, "roots"),
    (4, 7, "roots"), (4, 7, "roots"), (4, 8, "roots"), (4, 8, "roots"),
    (4, 9, "roots"), (4, 9, "roots"), (4, 10, "roots"), (5, 6, "roots"),
    (5, 7, "roots"), (5, 7, "roots"), (5, 8, "roots"), (5, 8, "roots"),
    (5, 9, "roots"), (3, 6, "random"), (3, 7, "random"), (3, 8, "random"),
    (3, 8, "random"), (3, 9, "random"), (3, 10, "random"), (3, 11, "random"),
    (4, 6, "random"), (4, 7, "random"), (4, 7, "random"), (4, 8, "random"),
    (4, 9, "random"), (5, 6, "random"), (5, 7, "random"), (5, 7, "random"),
    (3, 6, "halfspace"), (3, 7, "halfspace"), (3, 8, "halfspace"),
    (3, 8, "halfspace"), (3, 9, "halfspace"), (3, 10, "halfspace"),
    (3, 11, "halfspace"), (4, 6, "halfspace"), (4, 7, "halfspace"),
    (4, 7, "halfspace"), (4, 8, "halfspace"), (4, 9, "halfspace"),
    (5, 6, "halfspace"), (5, 7, "halfspace"), (5, 7, "halfspace"),
    (5, 8, "halfspace"),
]


# -- tuples --------------------------------------------------------------------

def _entry(rng, p):
    return rng.randrange(p) if p is not None else Fraction(rng.randint(-3, 3))


def _invertible(rng, b, p):
    while True:
        m = [[_entry(rng, p) for _ in range(b)] for _ in range(b)]
        if checks.rank(m, b, p) == b:
            return m


def _block_pair(rng, b, p):
    """Two b x b invertible matrices whose pair is absolutely irreducible."""
    while True:
        pair = [_invertible(rng, b, p) for _ in range(2)]
        if checks.absolutely_irreducible(pair, p):
            return pair


def planted_tuple(rng, p, blocks, split):
    """Two generators, block upper triangular over `blocks`."""
    n = sum(blocks)
    starts = [sum(blocks[:k]) for k in range(len(blocks))]
    zero = 0 if p is not None else Fraction(0)
    gens = [[[zero] * n for _ in range(n)] for _ in range(2)]
    for k, b in enumerate(blocks):
        for g, m in zip(gens, _block_pair(rng, b, p)):
            for i in range(b):
                g[starts[k] + i][starts[k]:starts[k] + b] = m[i]
    if not split:
        for g in gens:
            for k, b in enumerate(blocks):
                for i in range(starts[k], starts[k] + b):
                    for j in range(starts[k] + b, n):
                        g[i][j] = _entry(rng, p)
    return gens


def _change_of_basis(rng, blocks, p):
    """A random g that hides the planted flag: no coordinate vector lies in
    g V', where V' is the largest proper member of the flag, i.e. every
    column of g^-1 is nonzero somewhere in the last block's rows.  Over Q, g
    is a product of unit triangular integer matrices, so conjugates keep
    integer entries."""
    n = sum(blocks)
    one = Fraction(1)
    while True:
        if p is not None:
            g = _invertible(rng, n, p)
        else:
            lower = [[one if i == j else one * (rng.randint(-2, 2) if i > j else 0)
                      for j in range(n)] for i in range(n)]
            upper = [[one if i == j else one * (rng.randint(-2, 2) if i < j else 0)
                      for j in range(n)] for i in range(n)]
            g = checks.matmul(lower, upper, None)
        gi = checks.inverse(g, p)
        if all(any(row[i] for row in gi[n - blocks[-1]:]) for i in range(n)):
            return g, gi


def _wire(m):
    return [[str(x) for x in row] for row in m]


def _field_doc(p):
    return {"kind": "rationals"} if p is None else {"kind": "prime_field", "p": p}


def _tuple_jobs(tag, rng, p, blocks, split, commands, hidden):
    gens = planted_tuple(rng, p, blocks, split)
    truth = checks.semisimple(gens, blocks, p)
    sent = gens
    if hidden:
        g, gi = _change_of_basis(rng, blocks, p)
        sent = [checks.matmul(checks.matmul(g, h, p), gi, p) for h in gens]
    expect = {"p": p, "n": sum(blocks), "blocks": sorted(blocks), "cr": truth,
              "hidden": hidden}
    if "orbit-dim" in commands:
        expect["commutant_dim"] = checks.commutant_dim(gens, p)
    field = "Q" if p is None else f"F{p}"
    shape = ".".join(map(str, blocks))
    kind = "hidden" if hidden else ("split" if split else "nonsplit")
    doc = {"field": _field_doc(p), "matrices": [_wire(h) for h in sent]}
    return [{"id": f"{tag}-{cmd}-{field}-{shape}-{kind}", "command": cmd,
             "doc": dict(doc, command=cmd), "expect": expect}
            for cmd in commands]


def _check_jobs(schedule, hidden, prefix, seed):
    rng = random.Random(seed)
    jobs = []
    for i, (p, blocks, split, commands) in enumerate(schedule):
        jobs += _tuple_jobs(f"{prefix}{i:02d}", rng, p, blocks, split, commands, False)
    fixed = random.Random(HIDDEN_SEED)
    for i, (p, blocks, commands) in enumerate(hidden):
        jobs += _tuple_jobs(f"{prefix}h{i}", fixed, p, blocks, False, commands, True)
    rng.shuffle(jobs)
    return jobs


# -- weight sets ---------------------------------------------------------------

def _roots(r):
    out = [(0,) * r]
    for i in range(r):
        for j in range(r):
            if i != j:
                w = [0] * r
                w[i] += 1
                w[j] -= 1
                out.append(tuple(w))
    return out


def weight_set(rng, r, t, kind):
    if kind == "roots":
        return rng.sample(_roots(r), t)
    ws = set()
    u = [rng.choice((-2, -1, 1, 2)) for _ in range(r)]
    while len(ws) < t:
        w = tuple(rng.randint(-3, 3) for _ in range(r))
        if kind == "halfspace" and sum(a * b for a, b in zip(u, w)) <= 0:
            continue
        ws.add(w)
    return sorted(ws)


def _optimize_jobs(seed):
    rng = random.Random(seed)
    jobs = []
    for i, (r, t, kind) in enumerate(OPTIMIZE):
        ws = weight_set(rng, r, t, kind)
        jobs.append({"id": f"opt{i:02d}-r{r}-t{t}-{kind}", "command": "optimize",
                     "doc": {"command": "optimize", "weights": [list(w) for w in ws]},
                     "expect": {"weights": ws}})
    thin = [list(w) for w in checks.THIN_CONE]
    jobs.append({"id": "opt-thin-cone", "command": "optimize",
                 "doc": {"command": "optimize", "weights": thin},
                 "expect": {"weights": list(checks.THIN_CONE)}})
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "check-fp": lambda seed: _check_jobs(CHECK_FP, HIDDEN_FP, "fp", seed),
    "check-q": lambda seed: _check_jobs(CHECK_Q, HIDDEN_Q, "q", seed),
    "optimize": _optimize_jobs,
}


def jobs(workload, seed):
    """The round of jobs of a workload: a list of dicts with an `id`, the
    `command`, the JSON `doc` sent to the program and the `expect`ed facts."""
    return WORKLOADS[workload](seed)
