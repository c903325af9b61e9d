"""Independent brute-force reference implementations.

These exist to mint frozen reference values before the main engines and to
back the oracle-equivalence tests.  They deliberately share no polynomial
arithmetic, monomial enumeration, or rank code with ffkernel (only the
PrimeField element type and plain data access on the input objects):

* naive_b_dimension computes G^(q-1) by repeated term-by-term
  multiplication (no Frobenius-digit shortcut), builds the full dense
  matrix over all target monomials (no pre-deletion of unreduced rows,
  no column restriction), then row-reduces.
* naive_toric_alpha re-solves the polytope vertices by Cramer's rule with
  cofactor determinants and re-scans an exhaustive integer box.

They are deliberately slow and dense; optimizing them is out of scope by
design, since independence is the point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .splitting import GradedHypersurface
from .toric import FanData


@dataclass(frozen=True)
class OracleConfig:
    """Caps keeping the oracles naive and small.  Strictly tighter than the
    main modules' caps."""

    max_p: int = 7
    max_e: int = 1
    #: low-degree (quadric-sized, delta <= 2) inputs get one extra level
    max_p_low_degree: int = 3
    max_e_low_degree: int = 2
    max_delta: int = 3
    max_target_monomials: int = 20000
    max_dim: int = 3
    max_lattice_points: int = 10 ** 5


DEFAULT_CONFIG = OracleConfig()


# ---------------------------------------------------------------------------
# naive splitting dimension

def _naive_monomials(v: int, deg: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree deg, by stars and bars."""
    out = []
    for bars in itertools.combinations(range(deg + v - 1), v - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(deg + v - 2 - prev)
        out.append(tuple(exps))
    return out


def _naive_multiply(a: dict, b: dict, p: int) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _naive_row_reduce_rank(A: np.ndarray, p: int) -> int:
    A = A.astype(np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        A[[r, i]] = A[[i, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % p
        r += 1
        if r == rows:
            break
    return r


def _check_splitting_caps(ring: GradedHypersurface, e: int, m: int,
                          config: OracleConfig) -> None:
    p = ring.field.p
    ok = (ring.delta <= config.max_delta and p <= config.max_p
          and e <= config.max_e)
    ok = ok or (ring.delta <= 2 and p <= config.max_p_low_degree
                and e <= config.max_e_low_degree)
    if not ok:
        raise ValidationError(
            f"oracle cap exceeded: p={p}, e={e}, delta={ring.delta} is "
            f"outside the naive domain")
    q = p ** e
    D = m + ring.delta * (q - 1)
    n_targets = math.comb(D + ring.v - 1, ring.v - 1)
    if n_targets > config.max_target_monomials:
        raise ValidationError(
            f"oracle cap exceeded: {n_targets} target monomials at degree "
            f"{D}, cap {config.max_target_monomials}")


def naive_b_dimension(ring: GradedHypersurface, e: int, m: int,
                      config: OracleConfig = DEFAULT_CONFIG) -> int:
    """b_e(m) by brute force; equals splitting.b_dimension on the shared
    domain."""
    if e < 1 or m < 0:
        raise ValidationError(f"bad level or degree: e={e}, m={m}")
    _check_splitting_caps(ring, e, m, config)
    p = ring.field.p
    q = p ** e
    gq = {(0,) * ring.v: 1}
    gdict = dict(ring.G.terms)
    for _ in range(q - 1):
        gq = _naive_multiply(gq, gdict, p)
    D = m + ring.delta * (q - 1)
    targets = _naive_monomials(ring.v, D)
    target_index = {t: i for i, t in enumerate(targets)}
    sources = _naive_monomials(ring.v, m)
    A = np.zeros((len(targets), len(sources)), dtype=np.int64)
    for j, u in enumerate(sources):
        for w, c in gq.items():
            t = tuple(x + y for x, y in zip(u, w))
            A[target_index[t], j] = c
    for i, t in enumerate(targets):  # delete rows divisible by some x_i^q
        if max(t) >= q:
            A[i, :] = 0
    return _naive_row_reduce_rank(A, p)


# ---------------------------------------------------------------------------
# naive toric alpha

def _cofactor_det(M: list[list[Fraction]]) -> Fraction:
    n = len(M)
    if n == 1:
        return M[0][0]
    total = Fraction(0)
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        sign = -1 if j % 2 else 1
        total += sign * M[0][j] * _cofactor_det(minor)
    return total


def _cramer_solve(M: list[list[Fraction]],
                  b: list[Fraction]) -> list[Fraction]:
    det = _cofactor_det(M)
    if det == 0:
        raise ValidationError("oracle: singular cone system")
    out = []
    for j in range(len(M)):
        Mj = [[b[i] if k == j else M[i][k] for k in range(len(M))]
              for i in range(len(M))]
        out.append(_cofactor_det(Mj) / det)
    return out


def naive_toric_alpha(fan: FanData,
                      config: OracleConfig = DEFAULT_CONFIG) -> Fraction:
    """Exact alpha by exhaustive integer-box scan; equals toric.toric_alpha
    on the shared domain."""
    if fan.d > config.max_dim:
        raise ValidationError(
            f"oracle cap exceeded: dimension {fan.d} > {config.max_dim}")
    vertices = []
    for cone in fan.cones:
        M = [[Fraction(fan.rays[i][j]) for j in range(fan.d)] for i in cone]
        vertices.append(tuple(_cramer_solve(M, [Fraction(-1)] * fan.d)))
    L = 1
    for u in vertices:
        for a in u:
            L = L * a.denominator // math.gcd(L, a.denominator)
    r = L * max(1, fan.d - 1)
    lo = [min(math.ceil(r * u[j]) for u in vertices) for j in range(fan.d)]
    hi = [max(math.floor(r * u[j]) for u in vertices) for j in range(fan.d)]
    count = 1
    for a, b in zip(lo, hi):
        count *= max(0, b - a + 1)
    if count > config.max_lattice_points:
        raise ValidationError(
            f"oracle cap exceeded: {count} box points, cap "
            f"{config.max_lattice_points}")
    best = None
    for u in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if any(sum(x * y for x, y in zip(u, ray)) < -r for ray in fan.rays):
            continue
        point_best = None
        for ray in fan.rays:
            c = sum(x * y for x, y in zip(u, ray)) + r
            if c > 0:
                val = Fraction(1, c)
                if point_best is None or val < point_best:
                    point_best = val
        if point_best is None:
            raise ValidationError(f"oracle: all c_i <= 0 at u={u}")
        if best is None or point_best < best:
            best = point_best
    if best is None:
        raise ValidationError("oracle: no lattice points in the polytope")
    return r * best
