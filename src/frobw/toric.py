"""Exact alpha_F-invariants of complete simplicial toric Fano varieties.

For a Fano fan with primitive rays v_1..v_n the anticanonical polytope is
P = {u : <u, v_i> >= -1}, and alpha = 1 / max over u in P of c(u), where
c(u) = max_i (<u, v_i> + 1).  c is a maximum of affine functions, hence
convex, so its maximum over P is reached at a vertex, and toric_alpha
evaluates c at the vertices only.  The maximizers of c form a union of
faces and the lexicographically smallest point of a face is a vertex, so
the lex-first maximizing vertex, times the dilation r that clears the
vertex denominators (times d-1 for degree-one generation), is the lex-first
maximizing lattice point of rP.

Everything is exact integer arithmetic through one determinant routine, a
fraction-free (Bareiss) elimination.  The vertices of P are the integer
rows of N over one common denominator L > 0, so the Fano test, the lex
order, the c-values and facet membership compare integers, and a simplex
of vertices has determinant det(N_simplex) / L^d.  Fraction appears only in
the values handed out: alpha, the volume, the bound and P.vertices.  No
floating point is used.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalCheckError, ValidationError


class FanData:
    """A complete simplicial fan: primitive rays plus maximal cones given as
    sets of d ray indices.

    Construction validates primitivity, distinct rays and simpliciality,
    and certifies exactly that the cones cover every direction exactly
    once:

    * every wall (the d-1 rays of a cone other than one ray j) is a wall of
      exactly two cones, whose rays j lie on opposite sides of it;
    * the sum of the rays of cone 0, a point inside it, lies in no other
      cone.

    Crossing a wall then leaves one cone and enters another, so the number
    of cones that hold a direction off the walls is the same everywhere,
    and it is 1 at that point.  For d = 1 the single wall is the origin and
    its pairing alone decides.
    """

    def __init__(self, d: int, rays: Sequence[Sequence[int]],
                 cones: Sequence[Sequence[int]]):
        if d < 1:
            raise ValidationError(f"lattice rank must be >= 1, got {d}")
        self.d = d
        self.rays = tuple(tuple(int(a) for a in ray) for ray in rays)
        self.cones = tuple(tuple(sorted(int(i) for i in cone))
                           for cone in cones)
        if not self.rays or not self.cones:
            raise ValidationError("fan needs at least one ray and one cone")
        first: dict[tuple[int, ...], int] = {}
        for k, ray in enumerate(self.rays):
            if len(ray) != d:
                raise ValidationError(
                    f"ray {k} has {len(ray)} coordinates, expected {d}")
            if all(a == 0 for a in ray):
                raise ValidationError(f"ray {k} is zero")
            if math.gcd(*(abs(a) for a in ray)) != 1:
                raise ValidationError(f"ray {k} = {ray} is not primitive")
            # the wall pairing below would report a repeated ray as a gap
            j = first.setdefault(ray, k)
            if j != k:
                raise ValidationError(f"ray {k} repeats ray {j} = {ray}")
        walls: dict[tuple[int, ...], list[bool]] = {}
        self.dets: list[int] = []  # of each cone's rays
        for c, cone in enumerate(self.cones):
            if len(set(cone)) != self.d:
                raise ValidationError(
                    f"cone {c} has {len(set(cone))} rays, expected {self.d}")
            if any(i < 0 or i >= len(self.rays) for i in cone):
                raise ValidationError(f"cone {c} references a missing ray")
            det = _det([self.rays[i] for i in cone])
            if det == 0:
                raise ValidationError(
                    f"non-simplicial or degenerate cone: cone {c} has "
                    f"linearly dependent rays")
            self.dets.append(det)
            for k in range(self.d):
                # the side of ray cone[k] is the sign of det(wall rays, ray
                # cone[k]); moving row k last takes d-1-k transpositions
                walls.setdefault(cone[:k] + cone[k + 1:], []).append(
                    (det > 0) == ((self.d - 1 - k) % 2 == 0))
        for wall, sides in walls.items():
            if sorted(sides) != [False, True]:
                raise ValidationError(
                    f"fan fails the completeness check: the wall of rays "
                    f"{list(wall)} must bound two cones, one on each side, "
                    f"but bounds {len(sides)} with {sides.count(True)} on "
                    f"its positive side")
        inner = [sum(a) for a in zip(*(self.rays[i] for i in self.cones[0]))]
        for c, cone in enumerate(self.cones[1:], start=1):
            if all(t >= 0 for t in _cramer([self.rays[i] for i in cone],
                                           self.dets[c], inner)[0]):
                raise ValidationError(
                    f"fan fails the completeness check: {tuple(inner)}, "
                    f"inside cone 0, also lies in cone {c}")

    def __repr__(self) -> str:
        return (f"FanData(d={self.d}, rays={len(self.rays)}, "
                f"cones={len(self.cones)})")


@dataclass(frozen=True)
class RationalPolytope:
    """The anticanonical polytope {u : <u, v_i> >= -1}.  Its vertices, one
    per maximal cone with repeats dropped, are the rows of N over the
    common denominator L > 0, the lcm of their coordinates' denominators."""

    rays: tuple[tuple[int, ...], ...]
    N: tuple[tuple[int, ...], ...]
    L: int

    @property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vertices as exact rationals, the rows of N / L."""
        return tuple(_fractions(row, self.L) for row in self.N)


@dataclass(frozen=True)
class ToricAlphaReport:
    r: int
    alpha: Fraction
    witness_u: tuple[int, ...]
    witness_ray: int
    volume: Fraction  # vol(-K_X) = d! * vol(P)
    bound: Fraction  # volume / (2^d (d+1)!)


# ---------------------------------------------------------------------------
# exact integer linear algebra (dimensions are tiny: the lattice rank)

def _det(M: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination.  After a step with pivot a, each entry of the
    trailing block is a minor of M of the next order, so the division by
    the previous pivot in the next step is exact (Sylvester's identity)."""
    A = [list(row) for row in M]
    sign, prev = 1, 1
    while len(A) > 1:
        piv = next((i for i, row in enumerate(A) if row[0]), None)
        if piv is None:
            return 0
        if piv:
            A[0], A[piv] = A[piv], A[0]
            sign = -sign
        top, *rest = A
        a = top[0]
        A = [[(a * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             for row in rest]
        prev = a
    return sign * A[0][0] if A else 1


def _cramer(rows: list, det: int, b: Sequence[int]) -> tuple[list[int], int]:
    """Integers x and D > 0 with sum_k x_k rows[k] = D b, by Cramer's rule:
    the coefficients of b are x_k / D.  det is the determinant of the rows,
    nonzero."""
    sign = 1 if det > 0 else -1
    return ([sign * _det(rows[:k] + [b] + rows[k + 1:])
             for k in range(len(rows))], sign * det)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _fractions(row: Sequence[int], L: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(a, L) for a in row)


# ---------------------------------------------------------------------------
# operations

def polar_and_dilate(fan: FanData) -> tuple[RationalPolytope, int]:
    """Vertices of P = {u : <u, v_i> >= -1} (one per maximal cone) and the
    dilation r = L * max(1, d-1) for their common denominator L."""
    # <u, v_i> = -1 for the rays v_i of a cone: u combines the columns of
    # their matrix into the all -1 vector.  Each u is keyed in lowest terms,
    # (x, D) with gcd(D, x) = 1, so equal vertices are dropped
    lowest: dict[tuple[tuple[int, ...], int], None] = {}
    # the matrix is a cone's rays transposed, so its determinant is known
    for cone, det in zip(fan.cones, fan.dets):
        x, D = _cramer(list(zip(*(fan.rays[i] for i in cone))), det,
                       [-1] * fan.d)
        g = math.gcd(D, *x)
        lowest[tuple(a // g for a in x), D // g] = None
    L = math.lcm(*(D for _, D in lowest))
    N = tuple(tuple(a * (L // D) for a in x) for x, D in lowest)
    for w in N:
        for k, ray in enumerate(fan.rays):
            if _dot(w, ray) < -L:
                raise ValidationError(
                    f"fan is not Fano: vertex {_fractions(w, L)} violates "
                    f"the constraint of ray {k}")
    r = L * max(1, fan.d - 1)
    return RationalPolytope(rays=fan.rays, N=N, L=L), r


def toric_alpha(fan: FanData) -> ToricAlphaReport:
    """Exact alpha_F = 1 / max_w c(w) over the vertices w of P, with the
    lex-first maximizing vertex and its first maximizing ray as witness,
    and the alpha <= 1/2 self-check."""
    P, r = polar_and_dilate(fan)
    L = P.L
    # L > 0, so the rows of N sort as the vertices N / L do, and
    # L c_i(w) = <N_w, v_i> + L compares as c_i(w)
    best = None  # (L max_i c_i, vertex row, ray index)
    for w in sorted(P.N):
        cs = [_dot(w, ray) + L for ray in fan.rays]
        c = max(cs)
        if c <= 0:
            raise InternalCheckError(
                f"max_i c_i = {Fraction(c, L)} <= 0 at the vertex "
                f"{_fractions(w, L)}")
        if best is None or c > best[0]:
            best = (c, w, cs.index(c))
    c, w, ray = best
    alpha = Fraction(L, c)
    u = tuple(r // L * a for a in w)
    if alpha > Fraction(1, 2):
        raise InternalCheckError(
            f"alpha = {alpha} exceeds 1/2, impossible for a toric Fano "
            f"variety; witness u={u}")
    volume = anticanonical_volume(fan, P)
    d = fan.d
    return ToricAlphaReport(
        r=r,
        alpha=alpha,
        witness_u=u,
        witness_ray=ray,
        volume=volume,
        bound=volume / (2 ** d * math.factorial(d + 1)),
    )


def anticanonical_volume(fan: FanData,
                         P: RationalPolytope | None = None) -> Fraction:
    """vol(-K_X) = d! * vol(P), exact, for the polar polytope P of the fan,
    computed from the fan unless given.

    P is coned from the interior origin over its facets; each facet (the
    tight locus of one ray, <N_w, v> = -L) is triangulated recursively by
    pivoting on its lexicographically smallest vertex, and each resulting
    simplex contributes |det N_simplex| / L^d.
    """
    if P is None:
        P, _ = polar_and_dilate(fan)
    d = fan.d
    total = 0
    for ray in fan.rays:
        face = [w for w in P.N if _dot(w, ray) == -P.L]
        for simplex in _triangulate_face(P, face, d - 1):
            if len(simplex) != d:
                continue  # lower-dimensional artifact, measure zero
            total += abs(_det(simplex))
    return Fraction(total, P.L ** d)


def _triangulate_face(P: RationalPolytope, verts: list, dim: int):
    """Vertex tuples (rows of N) of a simplicial decomposition of the face
    spanned by `verts`.  Degenerate branches yield short or flat tuples,
    which the caller discards (their determinants vanish)."""
    if len(verts) <= dim + 1 or dim == 0:
        return [tuple(verts)]
    apex = min(verts)
    out = []
    seen: set = set()
    for ray in P.rays:
        sub = [w for w in verts if _dot(w, ray) == -P.L]
        key = frozenset(sub)
        if (apex in sub or len(sub) == len(verts) or len(sub) < dim
                or key in seen):
            continue
        seen.add(key)
        for s in _triangulate_face(P, sub, dim - 1):
            out.append((apex,) + s)
    return out
