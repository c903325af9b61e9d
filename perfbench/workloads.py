"""Seeded inputs and the ordered op lists of the three benchmark workloads.

Every workload is a closed loop with one client: the ops of a pass run one
after another, each on a freshly built ring, so no rank or power cache
survives from one op to the next (as in one CLI call).

The seed only changes the inputs, never the answers or the work:

* every polynomial (each G and each membership element) goes through the
  substitution x_i -> a_i * x_sigma(i), a_i in F_p^x, sigma a permutation.
  That is a graded automorphism of F_p[x] mapping the Frobenius power of
  the maximal ideal to itself, so b_e(m), m_e and memberships are unchanged.
  It maps monomials to monomials, so supports and matrix shapes are too.
* every toric fan goes through a signed coordinate permutation S.  The
  twisted fans are S * U * (named fan) with fixed shears U: a unimodular
  change of lattice keeps alpha and the volume, and S only permutes and
  flips the bounding box of the polytope, so the lattice-point scan has the
  same size for every seed.  Seeding U as well would make the scan size,
  and so the pass time, depend on the seed.

Seed 0 is the identity substitution and S = 1.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from frobw import frontend, splitting
from frobw.ffkernel import PolynomialFp, PrimeField

import checks

THREADS = 2

#: criterion-1 membership elements in I_1 of the diagonal cubic surface,
#: as (p, [(coefficient, exponents), ...])
MEMBERSHIPS = [
    (5, [(1, (2, 0, 0, 0))]),
    (7, [(1, (1, 1, 1, 0))]),
    (11, [(1, (2, 0, 3, 0)), (-1, (2, 0, 0, 3))]),
    (31, [(1, (1, 1, 12, 1)), (-10, (1, 1, 9, 4)), (15, (1, 1, 6, 7)),
          (-4, (1, 1, 3, 10)), (12, (1, 1, 0, 13))]),
]

NAMED_FANS = {
    "P1": (1, [[1], [-1]], [[0], [1]]),
    "P2": (2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    "P1xP1": (2, [[1, 0], [-1, 0], [0, 1], [0, -1]],
              [[0, 2], [2, 1], [1, 3], [3, 0]]),
    "P112": (2, [[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [0, 2]]),
    "P3": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
           [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    "P1xP1xP1": (3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                     [0, 0, 1], [0, 0, -1]],
                 [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5], [1, 2, 4],
                  [1, 2, 5], [1, 3, 4], [1, 3, 5]]),
    "P1xP2": (3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1],
                  [0, -1, -1]],
              [[0, 2, 3], [0, 2, 4], [0, 3, 4], [1, 2, 3], [1, 2, 4],
               [1, 3, 4]]),
}

N_TWISTS = 12
_SHEAR_SEED = 1729  # fixes the shears U, hence the size of every toric scan


@dataclass
class Op:
    """One request of a workload: `run` returns a plain-data answer and
    `check` lists its disagreements with the references."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


# ---------------------------------------------------------------------------
# seeded substitutions

class Substitutions:
    """Draws x_i -> a_i * x_sigma(i) in a fixed order from one seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def draw(self, p: int, v: int) -> tuple[list[int], list[int]]:
        if self.seed == 0:
            return [1] * v, list(range(v))
        a = [self.rng.randrange(1, p) for _ in range(v)]
        sigma = list(range(v))
        self.rng.shuffle(sigma)
        return a, sigma


def substitute(terms: dict, sub, p: int) -> dict:
    """Apply x_i -> a_i * x_sigma(i) to {exponents: coefficient}."""
    a, sigma = sub
    out = {}
    for exps, c in terms.items():
        new = [0] * len(exps)
        coeff = c
        for i, k in enumerate(exps):
            new[sigma[i]] += k
            coeff = coeff * pow(a[i], k, p) % p
        out[tuple(new)] = coeff % p
    return out


def diagonal(v: int, delta: int) -> dict:
    return {tuple(delta if j == i else 0 for j in range(v)): 1
            for i in range(v)}


def names(v: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(v))


def poly_text(terms: dict) -> str:
    """Input-grammar text of {exponents: coefficient in [1, p)}."""
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        factors = [f"x{i}^{k}" if k > 1 else f"x{i}"
                   for i, k in enumerate(exps) if k]
        parts.append("*".join(([str(c)] if c != 1 else []) + factors))
    return " + ".join(parts)


def ring_of(p: int, terms: dict) -> splitting.GradedHypersurface:
    field = PrimeField(p)
    v = len(next(iter(terms)))
    return splitting.GradedHypersurface(field, names(v),
                                        PolynomialFp(field, v, terms))


# ---------------------------------------------------------------------------
# seeded fans

def _shear(rng: random.Random, d: int) -> list[list[int]]:
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(6):
        if d < 2:
            break
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    return U


def _signed_permutation(rng: random.Random, d: int,
                        identity: bool) -> list[list[int]]:
    if identity:
        return [[int(i == j) for j in range(d)] for i in range(d)]
    perm = list(range(d))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(d)]
            for i in range(d)]


def _apply(M: list[list[int]], rays: list[list[int]]) -> list[list[int]]:
    return [[sum(M[i][k] * ray[k] for k in range(len(ray)))
             for i in range(len(ray))] for ray in rays]


def fan_inputs(seed: int) -> list[tuple[str, str, dict]]:
    """(name, base fan name, fan JSON object) for the named fans and the
    seeded twists."""
    out = [(name, name, {"dim": d, "rays": rays, "cones": cones})
           for name, (d, rays, cones) in NAMED_FANS.items()]
    shear_rng = random.Random(_SHEAR_SEED)
    perm_rng = random.Random(seed)
    for k in range(N_TWISTS):
        base = shear_rng.choice(sorted(NAMED_FANS))
        d, rays, cones = NAMED_FANS[base]
        U = _shear(shear_rng, d)
        S = _signed_permutation(perm_rng, d, seed == 0)
        out.append((f"twist{k}-{base}", base,
                    {"dim": d, "rays": _apply(S, _apply(U, rays)),
                     "cones": cones}))
    return out


# ---------------------------------------------------------------------------
# workloads

def _profile_answer(pr) -> dict:
    return {"e": pr.e, "b": list(pr.b), "m_e": pr.m_e, "a_e": pr.a_e,
            "duality_ok": pr.duality_ok}


def _profile_op(refs, p, v, delta, e, sub) -> Op:
    terms = substitute(diagonal(v, delta), sub, p)

    def run():
        return _profile_answer(splitting.profile(ring_of(p, terms), e,
                                                 threads=THREADS))
    return Op(f"profile Q{v - 2} p{p} e{e}", run,
              lambda ans: checks.check_profile(refs, p, v, delta, ans))


def _fano_op(refs, p, v, delta, e_max, sub) -> Op:
    terms = substitute(diagonal(v, delta), sub, p)

    def run():
        fr = splitting.fano_report(ring_of(p, terms), e_max, threads=THREADS)
        return [_profile_answer(pr) for pr in fr.profiles]
    return Op(f"fano_report cubic p{p} e1..{e_max}", run,
              lambda ans: [msg for pr in ans for msg in
                           checks.check_profile(refs, p, v, delta, pr)])


def _threshold_op(refs, p, v, delta, e, sub) -> Op:
    terms = substitute(diagonal(v, delta), sub, p)
    label = f"Q{v - 2}" if delta == 2 else "cubic"
    return Op(f"m_threshold {label} p{p} e{e}",
              lambda: splitting.m_threshold(ring_of(p, terms), e),
              lambda ans: checks.check_threshold(refs, p, v, delta, e, ans))


def _cli(argv: list[str]) -> dict:
    out = io.StringIO()
    rc = frontend.run_cli(argv, out)
    report = json.loads(out.getvalue()) if rc == 0 else None
    if report is not None:
        report.pop("elapsed_ms")  # the one field that differs between passes
    return {"rc": rc, "report": report}


def _cli_profile_op(refs, kind, p, v, delta, levels, sub) -> Op:
    text = poly_text(substitute(diagonal(v, delta), sub, p))
    argv = [kind, "--p", str(p), "--poly", text, "--vars", ",".join(names(v)),
            "--e", levels, "--threads", str(THREADS)]
    return Op(f"cli {kind} v{v} d{delta} p{p} e{levels}", lambda: _cli(argv),
              lambda ans: checks.check_cli_profile(refs, p, v, delta, ans))


def _cli_membership_op(p, element, sub) -> Op:
    G = poly_text(substitute(diagonal(4, 3), sub, p))
    f = poly_text(substitute({exps: c % p for c, exps in element}, sub, p))
    argv = ["membership", "--p", str(p), "--e", "1", "--poly", G,
            "--element", f, "--vars", ",".join(names(4))]
    return Op(f"cli membership p{p}", lambda: _cli(argv),
              lambda ans: checks.check_cli_membership(ans))


def _cli_toric_op(refs, name, base, path) -> Op:
    return Op(f"cli toric-alpha {name}",
              lambda: _cli(["toric-alpha", "--fan", path]),
              lambda ans: checks.check_cli_toric(refs, base, ans))


def build(workload: str, seed: int, refs: dict, scratch_dir) -> list[Op]:
    """The ordered op list of a workload.  cli-mixed writes its fan files
    into `scratch_dir`, which the caller owns and removes."""
    subs = Substitutions(seed)
    if workload == "profile-dense":
        return [
            _profile_op(refs, 5, 4, 2, 2, subs.draw(5, 4)),
            _profile_op(refs, 3, 5, 2, 2, subs.draw(3, 5)),
            _fano_op(refs, 5, 4, 3, 2, subs.draw(5, 4)),
        ]
    if workload == "threshold-sketch":
        ops = [_threshold_op(refs, p, d + 2, 2, e, subs.draw(p, d + 2))
               for d in (2, 3) for p in (3, 5) for e in (1, 2)]
        ops.append(_threshold_op(refs, 5, 4, 3, 2, subs.draw(5, 4)))
        return ops
    if workload == "cli-mixed":
        ops = [_cli_profile_op(refs, "split", 101, 3, 2, "1",
                               subs.draw(101, 3))]
        ops += [_cli_membership_op(p, element, subs.draw(p, 4))
                for p, element in MEMBERSHIPS]
        for name, base, obj in fan_inputs(seed):
            path = scratch_dir / f"{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            ops.append(_cli_toric_op(refs, name, base, str(path)))
        ops.append(_cli_profile_op(refs, "fano", 7, 4, 3, "1",
                                   subs.draw(7, 4)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


#: a cheap op of each workload, run once untimed before the first pass so
#: that one-time costs (first BLAS call, lazy imports) stay out of pass 1
WARMUP_OP = {
    "profile-dense": "fano_report cubic p5 e1..2",
    "threshold-sketch": "m_threshold Q2 p3 e1",
    "cli-mixed": "cli membership p5",
}
