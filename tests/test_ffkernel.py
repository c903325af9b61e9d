"""Unit tests for prime-field arithmetic, monomial combinatorics, sparse
polynomials, and the dense rank/kernel engine."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobw.ffkernel as ffkernel
from frobw.errors import InstanceTooLarge, ValidationError
from frobw.ffkernel import (
    PolynomialFp,
    PrimeField,
    digit_power,
    exponent_array,
    kernel_fp_batched,
    kernel_fp_dense,
    n_monomials,
    n_monomials_capped,
    power_term_bound,
    rank_fp_dense,
)
from frobw.oracle import _naive_monomials, _naive_multiply


def iter_degree(v, m):
    """The degree-m exponent tuples in v variables in graded colex order:
    the oracle's enumeration sorted by the reversed tuple."""
    return sorted(_naive_monomials(v, m), key=lambda e: e[::-1])


class TestPrimeField:
    def test_basic_arithmetic(self):
        F = PrimeField(7)
        assert F.inv(3) == 5
        assert F.inv(-1) == 6
        assert F == PrimeField(7) and F != PrimeField(5)

    def test_rejects_composite(self):
        with pytest.raises(ValidationError):
            PrimeField(6)
        with pytest.raises(ValidationError):
            PrimeField(1)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(5).inv(0)

    @pytest.mark.parametrize("p", [2, 3, 5, 101, 65537])
    def test_inverses(self, p):
        F = PrimeField(p)
        for a in list(range(1, min(p, 50))) + [p - 1]:
            assert a * F.inv(a) % p == 1


class TestMonomials:
    @pytest.mark.parametrize("v,m", [(1, 5), (2, 4), (3, 6), (4, 5), (5, 3)])
    def test_enumeration_is_graded_colex(self, v, m):
        mons = [tuple(int(a) for a in row) for row in exponent_array(v, m)]
        assert len(mons) == len(set(mons)) == n_monomials(v, m)
        assert mons == sorted(mons, key=lambda e: tuple(reversed(e)))
        assert all(sum(e) == m for e in mons)

    @pytest.mark.parametrize("v,m,cap",
                             [(3, 7, 2), (4, 6, 3), (2, 9, 5), (5, 8, 4),
                              (4, 12, 2), (3, 0, 0)])
    def test_capped_count_matches_bruteforce(self, v, m, cap):
        brute = sum(1 for e in iter_degree(v, m) if max(e, default=0) <= cap)
        assert n_monomials_capped(v, m, cap) == brute

    @pytest.mark.parametrize("v,m,cap",
                             [(1, 4, None), (1, 4, 3), (3, 7, 2), (4, 6, 3),
                              (5, 8, None), (4, 12, 2), (3, 0, 0)])
    def test_exponent_array_matches_iter_degree(self, v, m, cap):
        brute = [e for e in iter_degree(v, m)
                 if cap is None or max(e, default=0) <= cap]
        arr = exponent_array(v, m, cap)
        assert arr.shape == (len(brute), v)
        assert [tuple(int(a) for a in row) for row in arr] == brute

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), v=st.integers(1, 6), m=st.integers(0, 14))
    def test_exponent_array_matches_oracle_order(self, data, v, m):
        cap = data.draw(st.one_of(
            st.none(),
            st.just(0),
            st.integers(0, max(m - 1, 0)),        # below m
            st.integers(m, m + 5),                # at or above m
            st.integers(0, max(m - 1, 0) // v),   # v * cap < m when m > 0
        ))
        want = [e for e in iter_degree(v, m)
                if cap is None or max(e) <= cap]
        arr = exponent_array(v, m, cap)
        assert arr.dtype == np.int64
        assert arr.shape == (len(want), v)
        assert [tuple(int(a) for a in row) for row in arr] == want
        if cap is not None:
            assert len(want) == n_monomials_capped(v, m, cap)

    @settings(max_examples=100, deadline=None)
    @given(v=st.integers(1, 5), m=st.integers(0, 12),
           cap=st.one_of(st.none(), st.integers(0, 12)),
           lo=st.integers(0, 13), span=st.integers(0, 14))
    def test_ranged_exponent_array_is_a_run(self, v, m, cap, lo, span):
        # the vectors whose last exponent lies in range(lo, lo + span), as
        # the contiguous run of the full colex array that holds them
        full = exponent_array(v, m, cap)
        keep = (full[:, -1] >= lo) & (full[:, -1] < lo + span)
        part = exponent_array(v, m, cap, last=range(lo, lo + span))
        assert part.dtype == np.int64
        assert np.array_equal(part, full[keep])
        idx = np.flatnonzero(keep)
        assert idx.size == 0 or idx[-1] - idx[0] + 1 == idx.size

    def test_capped_count_zero_when_impossible(self):
        assert n_monomials_capped(3, 10, 2) == 0  # 3*2 < 10


class TestPolynomialFp:
    def test_normalization_drops_zero_coeffs(self):
        F = PrimeField(5)
        f = PolynomialFp(F, 2, {(1, 0): 5, (0, 1): 3})
        assert f.terms == {(0, 1): 3}

    def test_rejects_negative_exponent(self):
        # the product kernel encodes exponents as nonnegative digits
        with pytest.raises(ValidationError, match="negative exponent"):
            PolynomialFp(PrimeField(5), 2, {(1, -1): 1})

    def test_homogeneous_degree(self):
        F = PrimeField(5)
        assert PolynomialFp(F, 2, {(2, 0): 1, (0, 2): 1}).homogeneous_degree == 2
        assert PolynomialFp(F, 2, {(2, 0): 1, (0, 1): 1}).homogeneous_degree is None

    def test_leading_term_graded_colex(self):
        F = PrimeField(5)
        f = PolynomialFp(F, 3, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3})
        assert f.leading_term() == ((0, 0, 2), 3)

    def test_mul_commutes_and_distributes(self):
        F = PrimeField(7)
        f = PolynomialFp(F, 2, {(1, 0): 2, (0, 1): 3})
        g = PolynomialFp(F, 2, {(1, 1): 1, (2, 0): 5})
        h = PolynomialFp(F, 2, {(0, 2): 4})
        assert f.mul(g) == g.mul(f)
        assert f.mul(g.add(h)) == f.mul(g).add(f.mul(h))

    def test_pow_binomial(self):
        F = PrimeField(3)
        f = PolynomialFp(F, 2, {(1, 0): 1, (0, 1): 1})
        # (x+y)^3 = x^3 + y^3 over F_3
        assert f.pow(3).terms == {(3, 0): 1, (0, 3): 1}

    def test_frobenius_scales_exponents(self):
        F = PrimeField(5)
        f = PolynomialFp(F, 2, {(1, 2): 3})
        assert f.frobenius(2).terms == {(25, 50): 3}


class TestDigitPower:
    @pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
    def test_matches_direct_power_diagonal_cubic(self, p, e):
        F = PrimeField(p)
        G = PolynomialFp(F, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 2})
        assert digit_power(G, e) == G.pow(p ** e - 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 30))
    def test_matches_direct_power_random(self, seed):
        rng = random.Random(seed)
        p = rng.choice([3, 5, 7])
        e = rng.choice([1, 2])
        nvars = rng.randint(1, 3)
        F = PrimeField(p)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(nvars))
            terms[exps] = rng.randint(1, p - 1)
        G = PolynomialFp(F, nvars, terms)
        if G.is_zero():
            return
        assert digit_power(G, e) == G.pow(p ** e - 1)


def _naive_power(terms, n, nvars, p):
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = _naive_multiply(out, terms, p)
    return out


@st.composite
def _polynomials(draw, p, nvars, max_terms=5, max_exp=3):
    """Sparse, usually inhomogeneous polynomials; for large p the
    coefficients lean to p - 1 so that products come near 2^62."""
    coeff = st.one_of(st.integers(1, p - 1), st.just(p - 1))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * nvars), coeff,
        max_size=max_terms))
    return PolynomialFp(PrimeField(p), nvars, terms)


_PRIMES = st.sampled_from([2, 3, 5, 2 ** 31 - 1])


class TestMultiplyAgainstOracle:
    """The encoded-key kernel against the dict double loop of
    oracle._naive_multiply, which shares no code with it."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mul(self, data):
        p = data.draw(_PRIMES)
        nvars = data.draw(st.integers(1, 5))
        f = data.draw(_polynomials(p, nvars))
        g = data.draw(_polynomials(p, nvars))
        assert f.mul(g).terms == _naive_multiply(f.terms, g.terms, p)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_pow(self, data):
        p = data.draw(_PRIMES)
        nvars = data.draw(st.integers(1, 5))
        f = data.draw(_polynomials(p, nvars, max_terms=4, max_exp=2))
        n = data.draw(st.integers(0, 6))
        assert f.pow(n).terms == _naive_power(f.terms, n, nvars, p)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_digit_power(self, data):
        p, e = data.draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2),
                                          (5, 1)]))
        nvars = data.draw(st.integers(1, 3))
        G = data.draw(_polynomials(p, nvars, max_terms=3, max_exp=2))
        if G.is_zero():
            return
        assert digit_power(G, e).terms == _naive_power(G.terms, p ** e - 1,
                                                       nvars, p)

    def test_cancellation(self):
        F = PrimeField(7)
        f = PolynomialFp(F, 2, {(1, 0): 1, (0, 1): 3})
        g = PolynomialFp(F, 2, {(1, 0): 1, (0, 1): -3})
        assert f.mul(g).terms == {(2, 0): 1, (0, 2): 5}
        assert f.pow(7).terms == {(7, 0): 1, (0, 7): 3}
        assert f.mul(PolynomialFp(F, 2, {})).is_zero()

    def test_largest_prime_coefficients(self):
        p = 2 ** 31 - 1
        F = PrimeField(p)
        f = PolynomialFp(F, 1, {(0,): p - 1, (1,): p - 1})
        # (-1 - x)^2 = 1 + 2x + x^2
        assert f.mul(f).terms == {(0,): 1, (1,): 2, (2,): 1}
        G = PolynomialFp(F, 2, {(1, 1): p - 2})
        assert digit_power(G, 1).terms == {(p - 1, p - 1): 1}

    def test_exponent_box_at_int64_limit(self):
        F = PrimeField(5)
        x = PolynomialFp(F, 1, {(2 ** 61,): 1})
        assert x.mul(x).terms == {(2 ** 62,): 1}
        assert x.pow(2).terms == {(2 ** 62,): 1}
        y = PolynomialFp(F, 1, {(2 ** 62 - 1,): 1})
        with pytest.raises(InstanceTooLarge, match="63 bits"):
            PolynomialFp(F, 1, {(2 ** 62,): 1}).mul(y)
        with pytest.raises(InstanceTooLarge, match="63 bits"):
            x.pow(4)
        a = 2 ** 20 - 1
        cube = PolynomialFp(F, 3, {(a, a, a): 1})
        # radix 2a + 1 per coordinate, (2^21 - 1)^3 < 2^63
        assert cube.mul(cube).terms == {(2 * a, 2 * a, 2 * a): 1}
        with pytest.raises(InstanceTooLarge, match="63 bits"):
            cube.pow(3)


class TestPowerBound:
    def conic(self, p):
        return PolynomialFp(PrimeField(p), 3,
                            {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})

    def spy(self, monkeypatch):
        calls = []
        kernel = ffkernel._mul_keys

        def counted(*args):
            calls.append(1)
            return kernel(*args)
        monkeypatch.setattr(ffkernel, "_mul_keys", counted)
        return calls

    def test_bound_is_exact_on_the_diagonal_conic(self):
        G = self.conic(101)
        for n in (1, 2, 7, 50, 100):
            assert power_term_bound(G, n) == n_monomials(3, n) \
                == len(G.pow(n))

    def test_inhomogeneous_bound(self):
        F = PrimeField(5)
        f = PolynomialFp(F, 2, {(1, 0): 1, (0, 0): 1})
        assert power_term_bound(f, 4) == 5
        assert power_term_bound(PolynomialFp(F, 2, {}), 3) == 0

    def test_pow_boundary(self, monkeypatch):
        G = self.conic(101)
        calls = self.spy(monkeypatch)
        monkeypatch.setattr(ffkernel, "POWER_TERM_CAP", 66)
        assert len(G.pow(10)) == 66
        assert calls
        calls.clear()
        monkeypatch.setattr(ffkernel, "POWER_TERM_CAP", 77)
        with pytest.raises(InstanceTooLarge, match="up to 78 terms"):
            G.pow(11)
        assert not calls

    def test_digit_power_boundary(self, monkeypatch):
        # G^(p^e - 1) at p=3, e=2: the bound for G^8 is 45, the square of
        # the bound for G^2 is 36, and the power has exactly 36 terms
        G = self.conic(3)
        calls = self.spy(monkeypatch)
        monkeypatch.setattr(ffkernel, "POWER_TERM_CAP", 36)
        assert len(digit_power(G, 2)) == 36
        assert calls
        calls.clear()
        monkeypatch.setattr(ffkernel, "POWER_TERM_CAP", 35)
        with pytest.raises(InstanceTooLarge, match="up to 36 terms"):
            digit_power(G, 2)
        assert not calls

    def test_level_past_int64_refused(self, monkeypatch):
        # q = p^e >= 2^63 is refused before any product, and a huge e
        # before p ** e or any term bound is formed; G = x over F_2 still
        # powers at q = 2^62
        x = PolynomialFp(PrimeField(2), 1, {(1,): 1})
        assert digit_power(x, 62).terms == {(2 ** 62 - 1,): 1}
        calls = self.spy(monkeypatch)
        for G, e in ((x, 63), (self.conic(3), 40), (self.conic(5), 10 ** 5),
                     (self.conic(5), 10 ** 20)):
            with pytest.raises(InstanceTooLarge,
                               match=r"q = \d+\^\d+ >= 2\^63"):
                digit_power(G, e)
        assert not calls

    def test_large_prime_refused_at_once(self, monkeypatch):
        calls = self.spy(monkeypatch)
        with pytest.raises(InstanceTooLarge, match="power too large"):
            digit_power(self.conic(1000003), 1)
        assert not calls


def _naive_rank(A, p):
    A = A.astype(np.int64) % p
    r = 0
    rows, cols = A.shape
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i, c]), None)
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        r += 1
    return r


class TestRankEngine:
    @pytest.mark.parametrize("seed", range(8))
    def test_rank_and_kernel_vs_naive(self, seed):
        rng = random.Random(seed)
        npr = np.random.RandomState(seed)
        for _ in range(10):
            p = rng.choice([2, 3, 5, 7, 31, 101])
            rows, cols = rng.randint(1, 60), rng.randint(1, 60)
            tgt = rng.randint(0, min(rows, cols))
            A = (npr.randint(0, p, (rows, tgt))
                 @ npr.randint(0, p, (tgt, cols))) % p
            expect = _naive_rank(A.copy(), p)
            assert rank_fp_dense(A.astype(np.float64), p) == expect
            r, K = kernel_fp_dense(A.astype(np.float64), p)
            assert r == expect
            assert K.shape == (cols, cols - expect)
            Ki = K.astype(np.int64)
            assert ((Ki >= 0) & (Ki < p)).all()
            assert not ((A @ Ki) % p).any()
            if K.size:
                assert _naive_rank(Ki.T.copy(), p) == cols - expect

    def test_rank_equals_transpose_rank(self):
        npr = np.random.RandomState(42)
        for p in (3, 7, 101):
            A = npr.randint(0, p, (120, 200))
            assert (rank_fp_dense(A.astype(np.float64), p)
                    == rank_fp_dense(A.T.astype(np.float64), p))

    def test_identity_and_zero(self):
        assert rank_fp_dense(np.eye(5), 7) == 5
        assert rank_fp_dense(np.zeros((3, 4)), 5) == 0

    def test_rank_deficient(self):
        assert rank_fp_dense(np.array([[1.0, 2.0], [2.0, 4.0]]), 5) == 1

    def test_blocked_path_large(self):
        # large enough to cross several recursion levels
        p = 5
        npr = np.random.RandomState(1)
        B = npr.randint(0, p, (300, 180))
        C = npr.randint(0, p, (180, 260))
        A = ((B @ C) % p).astype(np.float64)
        assert rank_fp_dense(A, p) == 180

    def test_pivot_inverses_need_no_table(self):
        # the largest prime the dense engine takes: float64, (p-1)^2 * 32
        # plus a residue below 2^53; the old O(p) inverse table hung here
        npr = np.random.RandomState(5)
        for p in (16777213, 65537):
            A = (npr.randint(0, p, (40, 25)) @ npr.randint(0, 2, (25, 40))) % p
            expect = _naive_rank(A.copy(), p)
            assert expect == 25
            assert rank_fp_dense(A.astype(np.float64), p) == expect
            r, K = kernel_fp_dense(A.astype(np.float64), p)
            assert r == expect
            assert not ((A.astype(object) @ K.astype(np.int64)) % p).any()

    def test_float32_boundary_prime(self):
        # the largest prime whose residue plus _BASE products of residues
        # fits float32's exact range, and the next prime
        assert ffkernel._dtype_for(719)[0] is np.float32
        assert ffkernel._dtype_for(727)[0] is np.float64

    @pytest.mark.parametrize("p", [719, 727])
    @pytest.mark.parametrize("seed", range(3))
    def test_delayed_reduction_at_the_boundary_primes(self, p, seed):
        # factor entries mostly p - 1 drive the unreduced sums of the base
        # cases towards their bound; the shapes take several panels and
        # recursive triangular solves
        npr = np.random.RandomState(seed)
        for _ in range(3):
            rows, cols = npr.randint(30, 141), npr.randint(30, 101)
            t = npr.randint(1, min(rows, cols) + 1)
            L = npr.randint(0, p, (rows, t))
            R = npr.randint(0, p, (t, cols))
            L[npr.rand(rows, t) < 0.7] = p - 1
            R[npr.rand(t, cols) < 0.7] = p - 1
            A = (L @ R) % p
            expect = _naive_rank(A.copy(), p)
            assert rank_fp_dense(A.astype(np.float64), p) == expect
            r, K = kernel_fp_dense(A.astype(np.float64), p)
            assert r == expect
            assert K.shape == (cols, cols - expect)
            Ki = K.astype(np.int64)
            assert ((Ki >= 0) & (Ki < p)).all()
            assert not ((A @ Ki) % p).any()

    @pytest.mark.parametrize("p", [16777259, 100000007, 2 ** 31 - 1])
    def test_prime_past_the_exact_range_refused(self, monkeypatch, p):
        def unreached(*args):
            raise AssertionError("elimination started")
        monkeypatch.setattr(ffkernel, "_factor", unreached)
        A = np.random.RandomState(0).randint(0, 1000, (40, 40))
        for engine in (rank_fp_dense, kernel_fp_dense):
            with pytest.raises(InstanceTooLarge, match="prime too large"):
                engine(A.astype(np.float64), p)


#: the largest prime the batched engine runs in float32, and in float64
LARGEST_F32_PRIME = 509
LARGEST_BATCHED_PRIME = 94906249


def _test_matrix(npr, p, rows, cols, kind):
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "random":
        return npr.randint(0, p, (rows, cols)).astype(np.int64)
    # low rank, or rows repeated as scaled copies of one another
    t = npr.randint(0, min(rows, cols) + 1)
    A = (npr.randint(0, p, (rows, t)).astype(object)
         @ npr.randint(0, p, (t, cols)).astype(object)) % p
    A = A.astype(np.int64).reshape(rows, cols)
    if kind == "duplicate" and rows > 1:
        src = npr.randint(0, rows, rows)
        A = (A[src] * npr.randint(0, p, (rows, 1))) % p
    return A


class TestBatchedEngine:
    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 101, LARGEST_F32_PRIME,
                              LARGEST_BATCHED_PRIME]),
           shapes=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14),
                                     st.sampled_from(["zero", "random",
                                                      "low-rank",
                                                      "duplicate"])),
                           max_size=7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_matches_naive_rank(self, p, shapes, seed):
        npr = np.random.RandomState(seed)
        mats = [_test_matrix(npr, p, r, c, kind) for r, c, kind in shapes]
        out = kernel_fp_batched([A.astype(np.float64) for A in mats], p)
        assert len(out) == len(mats)
        for A, (rank, K) in zip(mats, out):
            cols = A.shape[1]
            expect = _naive_rank(A.copy(), p)
            assert rank == expect
            assert K.shape == (cols, cols - expect)
            Ki = K.astype(np.int64)
            assert ((Ki >= 0) & (Ki < p)).all()
            assert not ((A.astype(object) @ Ki.astype(object)) % p).any()
            if K.size:
                assert _naive_rank(Ki.T.copy(), p) == cols - expect

    @pytest.mark.parametrize("p", [2, 5, 101, 719])
    def test_same_kernel_basis_as_dense_engine(self, p):
        # the basis with an identity on the free rows is unique, so both
        # engines write the same K; the zero matrix has rank 0 and every
        # column free, the random 30 x 12 one full column rank
        npr = np.random.RandomState(p)
        mats = [np.zeros((6, 9)), _test_matrix(npr, p, 30, 12, "random"),
                *(_test_matrix(npr, p, int(npr.randint(1, 15)),
                               int(npr.randint(1, 15)), kind)
                  for kind in ("low-rank", "duplicate") for _ in range(4))]
        batched = kernel_fp_batched([A.astype(np.float64) for A in mats], p)
        assert batched[0][0] == 0 and batched[1][1].shape == (12, 0)
        for A, (rank, K) in zip(mats, batched):
            r, Kd = kernel_fp_dense(A.astype(np.float64), p)
            assert r == rank
            assert np.array_equal(Kd, K)

    def test_float_dtype_by_prime(self):
        assert ffkernel._batch_dtype(LARGEST_F32_PRIME)[0] is np.float32
        assert ffkernel._batch_dtype(521)[0] is np.float64
        assert ffkernel._batch_dtype(LARGEST_BATCHED_PRIME)[2] == 1

    def test_stack_reduced_between_steps(self):
        # at p = 509 float32 allows 64 unreduced steps, so a 100-column
        # matrix needs a reduction of the whole stack midway
        p = LARGEST_F32_PRIME
        npr = np.random.RandomState(3)
        A = _test_matrix(npr, p, 110, 100, "low-rank")
        B = npr.randint(0, p, (100, 100))
        (ra, _), (rb, _) = kernel_fp_batched(
            [A.astype(np.float64), B.astype(np.float64)], p)
        assert (ra, rb) == (_naive_rank(A.copy(), p), _naive_rank(B.copy(), p))

    def test_prime_past_the_exact_range_refused(self):
        npr = np.random.RandomState(4)
        A = npr.randint(0, 1000, (12, 12)).astype(np.float64)
        with pytest.raises(InstanceTooLarge, match="prime too large"):
            kernel_fp_batched([A], 94906297)
        # refused before the matrices are read at all
        with pytest.raises(InstanceTooLarge, match="prime too large"):
            kernel_fp_batched([None], 94906297)

    def test_empty_list(self):
        assert kernel_fp_batched([], 7) == []
