"""Tests for exact toric alpha-invariants and anticanonical volumes."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import frobw.toric as toric
from frobw.acceptance import named_fans, random_fan_corpus
from frobw.errors import ValidationError
from frobw.frozen_values import FROZEN
from frobw.oracle import naive_toric_alpha
from frobw.toric import (
    FanData,
    anticanonical_volume,
    polar_and_dilate,
    toric_alpha,
)


def point_by_point_scan(fan, P, r):
    """The scan of rP one lattice point at a time, in lexicographic order:
    the first u of least r/max_i c_i and the first ray attaining the max."""
    lo = [min(math.ceil(r * u[j]) for u in P.vertices) for j in range(fan.d)]
    hi = [max(math.floor(r * u[j]) for u in P.vertices) for j in range(fan.d)]
    best = None
    for u in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        cs = [sum(a * b for a, b in zip(u, ray)) + r for ray in fan.rays]
        if min(cs) < 0:
            continue
        alpha_u = Fraction(r, max(cs))
        if best is None or alpha_u < best[0]:
            best = (alpha_u, u, cs.index(max(cs)))
    return best


def cofactor_det(M):
    """The determinant by cofactor expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j]
               * cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def product_fan(*factors):
    """The product of fans given as (d, rays, cones): rays padded with
    zeros into their factor's coordinates, cones the products of cones."""
    d, rays, cones = 0, [], [()]
    for fd, frays, fcones in factors:
        offset = len(rays)
        rays = ([ray + (0,) * fd for ray in rays]
                + [(0,) * d + tuple(ray) for ray in frays])
        cones = [cone + tuple(offset + i for i in fcone)
                 for cone in cones for fcone in fcones]
        d += fd
    return FanData(d, rays, cones)


def projective_space(d):
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays.append((-1,) * d)
    return d, rays, list(itertools.combinations(range(d + 1), d))


@pytest.fixture(scope="module")
def fans():
    return named_fans()


class TestDet:
    @pytest.mark.parametrize("n", range(6))
    def test_matches_cofactor_expansion(self, n):
        rng = random.Random(n)
        for trial in range(60):
            bound = 2 ** rng.choice((2, 20, 70))
            M = [[rng.randint(-bound, bound) for _ in range(n)]
                 for _ in range(n)]
            if n and trial % 3 == 1:
                M[0][0] = 0  # the first step must swap rows, or find none
            if n >= 2 and trial % 3 == 2:
                # the last row a combination of the others: singular
                a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                M[-1] = [a * x + b * y for x, y in zip(M[0], M[-2])]
            det = toric._det(M)
            assert type(det) is int
            assert det == cofactor_det(M), M
            if n >= 2 and trial % 3 == 2:
                assert det == 0

    @pytest.mark.parametrize("M,det", [
        ([], 1),
        ([[-7]], -7),
        ([[0, 1], [1, 0]], -1),
        # the second pivot vanishes after the first step: a swap mid-way
        ([[1, 2, 3], [2, 4, 5], [3, 7, 1]], 1),
        # a zero column below the diagonal
        ([[2, 1, 1], [4, 2, 2], [6, 3, 5]], 0),
        ([[0, 0, 1], [0, 2, 0], [3, 0, 0]], -6),
        ([[2 ** 64, 1], [1, -(2 ** 64)]], -(2 ** 128) - 1),
    ])
    def test_pinned(self, M, det):
        assert toric._det(M) == cofactor_det(M) == det


class TestFanValidation:
    def test_non_primitive_ray(self):
        with pytest.raises(ValidationError, match="not primitive"):
            FanData(2, [(2, 0), (0, 1), (-1, -1)],
                    [(0, 1), (1, 2), (0, 2)])

    def test_zero_ray(self):
        with pytest.raises(ValidationError, match="zero"):
            FanData(2, [(0, 0), (0, 1), (-1, -1)],
                    [(0, 1), (1, 2), (0, 2)])

    def test_wrong_cone_cardinality(self):
        with pytest.raises(ValidationError,
                           match="cone 0 has 3 rays, expected 2"):
            FanData(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)])

    def test_degenerate_cone(self):
        with pytest.raises(ValidationError, match="degenerate cone"):
            FanData(2, [(1, 0), (-1, 0), (0, 1)],
                    [(0, 1), (0, 2), (1, 2)])

    def test_repeated_ray(self):
        # P2 with (1, 0) again as ray 3: the cones cover the plane, but the
        # wall pairing would see ray 0 as a gap
        with pytest.raises(ValidationError, match="ray 3 repeats ray 0"):
            FanData(2, [(1, 0), (0, 1), (-1, -1), (1, 0)],
                    [(0, 1), (1, 2), (2, 3)])

    def test_missing_ray_index(self):
        with pytest.raises(ValidationError, match="missing ray"):
            FanData(2, [(1, 0), (0, 1)], [(0, 5)])

    @pytest.mark.parametrize("d,rays,cones", [
        # one quadrant only
        (2, [(1, 0), (0, 1)], [(0, 1)]),
        # P2 with one cone removed
        (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)]),
        # cones (2, 3) and (3, 4) overlap
        (2, [(1, 0), (0, 1), (-1, 3), (0, -1), (-1, -1)],
         [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        # walls pair up, but the cones wind twice around the origin
        (2, [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
         [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        # P2 with a cone repeated
        (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2), (1, 2)]),
        (1, [(1,), (-1,)], [(0,)]),
        (1, [(1,), (-1,)], [(0,), (1,), (1,)]),
    ], ids=["quadrant", "P2-minus-cone", "overlap", "double-cover",
            "P2-repeated-cone", "d1-single", "d1-repeated-cone"])
    def test_incomplete_fan_fails_spot_check(self, d, rays, cones):
        with pytest.raises(ValidationError, match="completeness"):
            FanData(d, rays, cones)


class TestPolarAndDilate:
    def test_projective_plane(self, fans):
        P, r = polar_and_dilate(fans["P2"])
        assert r == 1
        assert set(P.vertices) == {(Fraction(-1), Fraction(-1)),
                                   (Fraction(2), Fraction(-1)),
                                   (Fraction(-1), Fraction(2))}

    def test_quadric_surface(self, fans):
        P, r = polar_and_dilate(fans["P1xP1"])
        assert r == 1
        assert set(P.vertices) == {(Fraction(sx), Fraction(sy))
                                   for sx in (-1, 1) for sy in (-1, 1)}

    def test_projective_line(self, fans):
        P, r = polar_and_dilate(fans["P1"])
        assert r == 1
        assert set(P.vertices) == {(Fraction(-1),), (Fraction(1),)}

    def test_dimension_factor_in_dilation(self, fans):
        _, r = polar_and_dilate(fans["P3"])
        assert r == 2  # integral vertices, times max(1, d-1) = 2

    def test_non_fano_fan_rejected(self):
        # the Hirzebruch surface F_3 is complete but not Fano: the vertex
        # of cone (0, 1) violates the constraint of ray (-1, 3)
        fan = FanData(2, [(1, 0), (0, 1), (-1, 3), (0, -1)],
                      [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValidationError, match="not Fano"):
            polar_and_dilate(fan)


class TestToricAlpha:
    @pytest.mark.parametrize("name,alpha", [
        ("P1", Fraction(1, 2)),
        ("P2", Fraction(1, 3)),
        ("P1xP1", Fraction(1, 2)),
        ("P112", Fraction(1, 4)),
        ("P3", Fraction(1, 4)),
        ("P1xP1xP1", Fraction(1, 2)),
        ("P1xP2", Fraction(1, 3)),
    ])
    def test_named_values(self, fans, name, alpha):
        rep = toric_alpha(fans[name])
        assert rep.alpha == alpha
        assert rep.alpha <= Fraction(1, 2)

    def test_matches_frozen(self, fans):
        assert toric_alpha(fans["P1"]).alpha == Fraction(FROZEN["alpha_P1"])
        assert toric_alpha(fans["P2"]).alpha == Fraction(FROZEN["alpha_P2"])
        assert toric_alpha(fans["P1xP1"]).alpha \
            == Fraction(FROZEN["alpha_P1xP1"])

    def test_witness_recorded(self, fans):
        rep = toric_alpha(fans["P2"])
        assert rep.witness_u == (-1, -1)  # lex-smallest minimizer
        assert rep.witness_ray == 2

    @pytest.mark.parametrize("name,report", [
        ("P1", (1, "1/2", (-1,), 1, "2", "1/2")),
        ("P2", (1, "1/3", (-1, -1), 2, "9", "3/8")),
        ("P1xP1", (1, "1/2", (-1, -1), 1, "8", "1/3")),
        ("P112", (1, "1/4", (-1, -1), 2, "8", "1/3")),
        ("P3", (2, "1/4", (-2, -2, -2), 3, "64", "1/3")),
        ("P1xP1xP1", (2, "1/2", (-2, -2, -2), 1, "48", "1/4")),
        ("P1xP2", (2, "1/3", (-2, -2, -2), 4, "54", "9/32")),
    ])
    def test_polytope_solved_once(self, fans, name, report, monkeypatch):
        # the volume reuses the polytope whose vertices give alpha
        solved = []

        def counted(fan):
            solved.append(fan)
            return polar_and_dilate(fan)
        monkeypatch.setattr(toric, "polar_and_dilate", counted)
        rep = toric_alpha(fans[name])
        assert len(solved) == 1
        r, alpha, u, ray, volume, bound = report
        assert rep == toric.ToricAlphaReport(
            r, Fraction(alpha), u, ray, Fraction(volume), Fraction(bound))

    @pytest.mark.parametrize("name,total", [
        ("P1", 7), ("P2", 16), ("P1xP1", 22), ("P112", 16), ("P3", 29),
        ("P1xP1xP1", 65), ("P1xP2", 47)])
    def test_cone_determinants_computed_once(self, fans, name, total,
                                             monkeypatch):
        # each cone's ray determinant is computed once, by the fan check,
        # and handed on: the check takes c of them and d Cramer numerators
        # for each of its c - 1 inner-point tests, the vertices d numerators
        # per cone, and the volume one per simplex (80 calls, not 65, for
        # P1xP1xP1 when each Cramer solve took its own determinant)
        fan, calls, det = fans[name], [], toric._det

        def counted(M):
            calls.append(1)
            return det(M)
        monkeypatch.setattr(toric, "_det", counted)
        fan = FanData(fan.d, fan.rays, fan.cones)
        c = len(fan.cones)
        assert len(calls) == c + (c - 1) * fan.d
        toric_alpha(fan)
        assert len(calls) == total

    @pytest.mark.parametrize("factors,alpha,volume", [
        ([projective_space(4)], Fraction(1, 5), 625),
        ([projective_space(1)] * 4, Fraction(1, 2), 384),
    ], ids=["P4", "P1^4"])
    def test_four_dimensional(self, factors, alpha, volume):
        # the oracle's box scan stops at d = 3, so these are the closed
        # forms: vol(-K) = (d+1)^d for P^d and d! 2^d for (P1)^d
        fan = product_fan(*factors)
        assert fan.d == 4
        rep = toric_alpha(fan)
        assert (rep.alpha, rep.volume) == (alpha, volume)
        assert rep.r == 3  # integral vertices, times d - 1
        assert rep.witness_u == (-3, -3, -3, -3)
        assert rep.bound == Fraction(volume, 2 ** 4 * math.factorial(5))

    def test_large_coordinates_are_exact(self, fans):
        # P2 sheared by [[1, N], [0, 1]]: a ray has entry -1-N and the
        # bounding box of P holds about 12N lattice points, but P still has
        # only three vertices
        N = 2 ** 31
        rays = [(a + N * b, b) for a, b in fans["P2"].rays]
        rep = toric_alpha(FanData(2, rays, fans["P2"].cones))
        assert rep.alpha == Fraction(1, 3)
        assert rep.volume == 9
        assert rep.witness_u == (-1, 2 ** 31 - 1)
        assert all(type(a) is int for a in rep.witness_u)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_vertices_match_the_box_scans(self, seed):
        # the box scans are the references: the oracle's value, and the
        # lex-first witness of the point-by-point scan of rP
        fan = random_fan_corpus(count=1, seed=seed)[0]
        try:
            naive = naive_toric_alpha(fan)
        except ValidationError:  # a box past the oracle's cap
            assume(False)
        rep = toric_alpha(fan)
        assert rep.alpha == naive
        P, r = polar_and_dilate(fan)
        assert rep.r == r
        assert (rep.alpha, rep.witness_u, rep.witness_ray) \
            == point_by_point_scan(fan, P, r)


class TestVolume:
    @pytest.mark.parametrize("name,volume", [
        ("P1", 2), ("P2", 9), ("P1xP1", 8), ("P112", 8),
        ("P3", 64), ("P1xP1xP1", 48), ("P1xP2", 54),
    ])
    def test_named_volumes(self, fans, name, volume):
        assert anticanonical_volume(fans[name]) == volume

    def test_matches_frozen(self, fans):
        for name in ("P1", "P2", "P1xP1"):
            assert anticanonical_volume(fans[name]) \
                == Fraction(FROZEN[f"volume_{name}"])

    def test_bound_P1xP1(self, fans):
        assert toric_alpha(fans["P1xP1"]).bound == Fraction(1, 3)


class TestEquivariance:
    def test_unimodular_twists_preserve_invariants(self):
        import random

        from frobw.acceptance import _random_unimodular

        rng = random.Random(99)
        for fan in named_fans().values():
            alpha = toric_alpha(fan).alpha
            vol = anticanonical_volume(fan)
            for _ in range(2):
                U = _random_unimodular(rng, fan.d)
                rays = [tuple(sum(U[i][k] * ray[k] for k in range(fan.d))
                              for i in range(fan.d)) for ray in fan.rays]
                twisted = FanData(fan.d, rays, fan.cones)
                assert toric_alpha(twisted).alpha == alpha
                assert anticanonical_volume(twisted) == vol

    def test_corpus_respects_invariants(self):
        for fan in random_fan_corpus(count=10, seed=5):
            rep = toric_alpha(fan)
            assert rep.alpha <= Fraction(1, 2)
