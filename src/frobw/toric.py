"""Exact alpha_F-invariants of complete simplicial toric Fano varieties.

For a Fano fan with primitive rays v_1..v_n the anticanonical polytope is
P = {u : <u, v_i> >= -1}.  After dilating by an integer r that clears the
vertex denominators (times d-1 for degree-one generation),

    alpha = r * min over lattice points u of rP of min_{c_i > 0} 1/c_i,

where c_i = <u, v_i> + r.  Completeness of the fan, the vertices, volumes
and alpha are exact rational arithmetic, all of it through one determinant
routine.  The lattice-point scan of rP runs over its bounding box in chunks
of int64 arrays, refused in advance when some c_i could leave the range of
int64, so it is exact too.  No floating point is used anywhere in this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InstanceTooLarge, InternalCheckError, ValidationError

#: refuse lattice-point enumerations beyond this many box candidates
DEFAULT_POINT_CAP = 10 ** 7

#: box points decoded and scanned per int64 chunk
_SCAN_CHUNK = 1 << 12


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
    witness_is_vertex: bool
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


def _alpha_at_dilation(fan: FanData, P: RationalPolytope, r: int,
                       point_cap: int):
    """min over u in rP of r/(max_i c_i), with the lex-smallest witness u
    and smallest witness ray recorded.

    The bounding box of rP is decoded in lexicographic order from a flat
    index, _SCAN_CHUNK points at a time; c_i = <u, v_i> + r is computed for
    a whole chunk in int64, and the points of rP are those with every
    c_i >= 0."""
    d = fan.d
    lo = [min(math.ceil(r * u[j]) for u in P.vertices) for j in range(d)]
    hi = [max(math.floor(r * u[j]) for u in P.vertices) for j in range(d)]
    sizes = [max(0, b - a + 1) for a, b in zip(lo, hi)]
    count = math.prod(sizes)
    if count > point_cap:
        raise InstanceTooLarge(
            f"instance too large: {count} lattice-point candidates in the "
            f"bounding box of {r}P exceeds the cap {point_cap}")
    coord = max(abs(a) for a in lo + hi)
    entry = max(abs(a) for ray in fan.rays for a in ray)
    if d * coord * entry + r >= 2 ** 63 or count >= 2 ** 63:
        raise InstanceTooLarge(
            f"instance too large: the scan of {r}P (box coordinates up to "
            f"{coord}, ray entries up to {entry}) leaves the range of int64")
    rays_t = np.array(fan.rays, dtype=np.int64).T
    origin = np.array(lo, dtype=np.int64)
    best = None  # (cmax, u, ray_index)
    for start in range(0, count, _SCAN_CHUNK):
        flat = np.arange(start, min(start + _SCAN_CHUNK, count),
                         dtype=np.int64)
        U = np.empty((len(flat), d), dtype=np.int64)
        for j in range(d - 1, -1, -1):
            flat, U[:, j] = np.divmod(flat, sizes[j])
        U += origin
        C = U @ rays_t + r
        inside = (C >= 0).all(axis=1)
        U, C = U[inside], C[inside]
        if not len(U):
            continue
        cmax = C.max(axis=1)
        if not cmax.all():
            u = tuple(int(a) for a in U[np.argmin(cmax)])
            raise InternalCheckError(
                f"all c_i zero for some u: u={u} at dilation r={r}")
        i = int(np.argmax(cmax))
        if best is None or cmax[i] > best[0]:
            best = (int(cmax[i]), tuple(int(a) for a in U[i]),
                    int(np.argmax(C[i])))
    if best is None:
        raise InternalCheckError(
            f"no lattice points found in {r}P; the origin should always "
            f"be one")
    cmax, u, ray = best
    return Fraction(r, cmax), u, ray


def toric_alpha(fan: FanData,
                point_cap: int = DEFAULT_POINT_CAP) -> ToricAlphaReport:
    """Exact alpha_F via lattice-point lct minimization over rP, with the
    dilation-stability and alpha <= 1/2 self-checks."""
    P, r = polar_and_dilate(fan)
    alpha, u, ray = _alpha_at_dilation(fan, P, r, point_cap)
    # the doubled box has at most 2^d times as many candidates
    alpha2, _, _ = _alpha_at_dilation(fan, P, 2 * r,
                                      point_cap * 2 ** fan.d)
    if alpha2 != alpha:
        raise InternalCheckError(
            f"dilation instability: alpha={alpha} at r={r} but "
            f"alpha={alpha2} at r={2 * r}")
    if alpha > Fraction(1, 2):
        raise InternalCheckError(
            f"alpha = {alpha} exceeds 1/2, impossible for a toric Fano "
            f"variety; witness u={u}")
    volume = anticanonical_volume(fan, P)
    d = fan.d
    witness_frac = tuple(Fraction(a, r) for a in u)
    return ToricAlphaReport(
        r=r,
        alpha=alpha,
        witness_u=u,
        witness_ray=ray,
        witness_is_vertex=witness_frac in P.vertices,
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
