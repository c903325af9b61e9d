"""Exact alpha_F-invariants of complete simplicial toric Fano varieties.

For a Fano fan with primitive rays v_1..v_n the anticanonical polytope is
P = {u : <u, v_i> >= -1}, and alpha = 1 / max over u in P of c(u), where
c(u) = max_i (<u, v_i> + 1).  c is a maximum of affine functions, hence
convex, so its maximum over P is reached at a vertex, and toric_alpha
evaluates c at the vertices only.  The maximizers of c form a union of
faces and the lexicographically smallest point of a face is a vertex, so
the lex-first maximizing vertex, times the dilation r that clears the
vertex denominators (times d-1 for degree-one generation), is the lex-first
maximizing lattice point of rP.  Completeness of the fan, the vertices,
volumes and alpha are exact rational arithmetic through one determinant
routine; no floating point is used.
"""

from __future__ import annotations

import math
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
            if all(t >= 0 for t in _cramer((self.rays[i] for i in cone),
                                           inner)):
                raise ValidationError(
                    f"fan fails the completeness check: {tuple(inner)}, "
                    f"inside cone 0, also lies in cone {c}")

    def __repr__(self) -> str:
        return (f"FanData(d={self.d}, rays={len(self.rays)}, "
                f"cones={len(self.cones)})")


@dataclass(frozen=True)
class RationalPolytope:
    """The anticanonical polytope {u : <u, v_i> >= -1} with exact vertices,
    one per maximal cone."""

    rays: tuple[tuple[int, ...], ...]
    vertices: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ToricAlphaReport:
    r: int
    alpha: Fraction
    witness_u: tuple[int, ...]
    witness_ray: int
    volume: Fraction  # vol(-K_X) = d! * vol(P)
    bound: Fraction  # volume / (2^d (d+1)!)


# ---------------------------------------------------------------------------
# exact linear algebra over Q (dimensions are tiny: the lattice rank)

def _det(M: Sequence[Sequence]) -> Fraction:
    """The determinant of a square matrix of integers or fractions, by
    Gaussian elimination over Q."""
    A = [[Fraction(a) for a in row] for row in M]
    n = len(A)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for r in range(col + 1, n):
            if A[r][col] != 0:
                f = A[r][col] * inv
                A[r] = [a - f * c for a, c in zip(A[r], A[col])]
    return det


def _cramer(rows, b: Sequence) -> list[Fraction]:
    """The coefficients x with sum_k x_k rows[k] = b, by Cramer's rule;
    the rows must be linearly independent."""
    rows = list(rows)
    det = _det(rows)
    return [_det(rows[:k] + [b] + rows[k + 1:]) / det
            for k in range(len(rows))]


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


# ---------------------------------------------------------------------------
# operations

def polar_and_dilate(fan: FanData) -> tuple[RationalPolytope, int]:
    """Vertices of P = {u : <u, v_i> >= -1} (one per maximal cone) and the
    dilation r = lcm(vertex denominators) * max(1, d-1)."""
    # <u, v_i> = -1 for the rays v_i of a cone: u combines the columns of
    # their matrix into the all -1 vector
    unique = list(dict.fromkeys(
        tuple(_cramer(zip(*(fan.rays[i] for i in cone)), [-1] * fan.d))
        for cone in fan.cones))
    for u in unique:
        for k, ray in enumerate(fan.rays):
            if _dot(u, ray) < -1:
                raise ValidationError(
                    f"fan is not Fano: vertex {u} violates the constraint "
                    f"of ray {k}")
    L = 1
    for u in unique:
        for a in u:
            L = L * a.denominator // math.gcd(L, a.denominator)
    r = L * max(1, fan.d - 1)
    return RationalPolytope(rays=fan.rays, vertices=tuple(unique)), r


def toric_alpha(fan: FanData) -> ToricAlphaReport:
    """Exact alpha_F = 1 / max_w c(w) over the vertices w of P, with the
    lex-first maximizing vertex and its first maximizing ray as witness,
    and the alpha <= 1/2 self-check."""
    P, r = polar_and_dilate(fan)
    best = None  # (max_i c_i, vertex, ray index)
    for w in sorted(P.vertices):
        cs = [_dot(w, ray) + 1 for ray in fan.rays]
        c = max(cs)
        if c <= 0:
            raise InternalCheckError(
                f"max_i c_i = {c} <= 0 at the vertex {w}")
        if best is None or c > best[0]:
            best = (c, w, cs.index(c))
    c, w, ray = best
    alpha = 1 / c
    u = tuple(int(r * a) for a in w)
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
    tight locus of one ray) is triangulated recursively by pivoting on its
    lexicographically smallest vertex, and each resulting simplex
    contributes |det| of its vertex matrix.
    """
    if P is None:
        P, _ = polar_and_dilate(fan)
    d = fan.d
    total = Fraction(0)
    for ray in fan.rays:
        face = [u for u in P.vertices if _dot(u, ray) == -1]
        for simplex in _triangulate_face(P, face, d - 1):
            if len(simplex) != d:
                continue  # lower-dimensional artifact, measure zero
            total += abs(_det(simplex))
    return total


def _triangulate_face(P: RationalPolytope, verts: list, dim: int):
    """Vertex tuples of a simplicial decomposition of the face spanned by
    `verts`.  Degenerate branches yield short or flat tuples, which the
    caller discards (their determinants vanish)."""
    if len(verts) <= dim + 1 or dim == 0:
        return [tuple(verts)]
    apex = min(verts)
    out = []
    seen: set = set()
    for ray in P.rays:
        sub = [u for u in verts if _dot(u, ray) == -1]
        key = frozenset(sub)
        if (apex in sub or len(sub) == len(verts) or len(sub) < dim
                or key in seen):
            continue
        seen.add(key)
        for s in _triangulate_face(P, sub, dim - 1):
            out.append((apex,) + s)
    return out
