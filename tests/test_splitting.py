"""Tests for the graded splitting-subspace engine."""

import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobw.splitting as splitting
from frobw.errors import InstanceTooLarge, InternalCheckError, ValidationError
from frobw.ffkernel import PolynomialFp, PrimeField, exponent_array
from frobw.frozen_values import FROZEN
from frobw.oracle import naive_b_dimension
from frobw.splitting import (
    GradedHypersurface,
    b_dimension,
    diagonal_hypersurface,
    fano_report,
    fedder_is_fsplit,
    m_threshold,
    membership_check,
    profile,
)


@pytest.fixture(scope="module")
def quadric_p3():
    return diagonal_hypersurface(3, 4, 2)


@pytest.fixture(scope="module")
def cubic_p5():
    return diagonal_hypersurface(5, 4, 3)


def coo_block(A: np.ndarray) -> splitting._Block:
    """The _Block of the nonzero entries of a dense integer matrix, with
    rows and columns in the dtypes _build_block gives them."""
    rows, cols = np.nonzero(A)
    return splitting._Block(
        A.shape, rows.astype(np.min_scalar_type(A.shape[0])),
        cols.astype(np.min_scalar_type(A.shape[1])), A[rows, cols], None)


def ungraded_quadric():
    F = PrimeField(3)
    G = PolynomialFp(F, 4, {(2, 0, 0, 0): 1, (1, 1, 0, 0): 1,
                            (0, 1, 1, 0): 1, (0, 0, 1, 1): 1})
    return GradedHypersurface(F, ("x0", "x1", "x2", "x3"), G)


def f_split_cubic():
    """An F-split cubic surface over F_3."""
    F = PrimeField(3)
    G = PolynomialFp(F, 4, {(2, 0, 1, 0): 1, (2, 1, 0, 0): 1,
                            (1, 1, 0, 1): 1, (0, 1, 1, 1): 2,
                            (1, 0, 1, 1): 1})
    return GradedHypersurface(F, ("x0", "x1", "x2", "x3"), G)


def elliptic_cone(p):
    F = PrimeField(p)
    G = PolynomialFp(F, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    return GradedHypersurface(F, ("x", "y", "z"), G)


class TestGradedHypersurface:
    def test_dimensions(self, quadric_p3):
        # quadric surface: dim R_m = (m+1)^2
        for m in range(6):
            assert quadric_p3.dim_R(m) == (m + 1) ** 2
        assert quadric_p3.dim_R(-1) == 0

    def test_restricted_basis_counts(self, cubic_p5):
        for m in range(8):
            basis = cubic_p5.restricted_basis(m)
            assert basis.shape == (cubic_p5.dim_R(m), 4)

    def test_rejects_inhomogeneous(self):
        F = PrimeField(5)
        with pytest.raises(ValidationError):
            GradedHypersurface(F, ("x", "y"),
                               PolynomialFp(F, 2, {(2, 0): 1, (0, 1): 1}))

    def test_rejects_zero(self):
        F = PrimeField(5)
        with pytest.raises(ValidationError):
            GradedHypersurface(F, ("x", "y"), PolynomialFp(F, 2, {}))

    def test_rejects_name_mismatch(self):
        F = PrimeField(5)
        with pytest.raises(ValidationError):
            GradedHypersurface(F, ("x",),
                               PolynomialFp(F, 2, {(1, 1): 1}))


class TestLevel:
    """Every degree of a level reads one _Level per ring and level; its
    term masks and the terms' prefix sums aw are formed on first use."""

    def test_powered_once_per_ring_and_level(self, monkeypatch):
        # the Fedder test, a rank, a threshold and a profile at level 2
        # share one power of G; the threshold also powers level 1, whose
        # threshold places level 2's window
        ring = diagonal_hypersurface(3, 4, 2)
        powered, power = [], splitting.digit_power

        def counted(G, e):
            powered.append(e)
            return power(G, e)
        monkeypatch.setattr(splitting, "digit_power", counted)
        assert fedder_is_fsplit(ring, 2)
        b = b_dimension(ring, 2, 3)
        assert m_threshold(ring, 2) == 8
        assert profile(ring, 2).b[3] == b
        assert powered == [2, 1]
        assert ring.level(2) is ring.level(2)

    def test_masks_and_keys_formed_on_first_use(self):
        # the Fedder test forms neither; a threshold that a zero column
        # settles forms the masks alone; a rank forms the prefix sums
        F = PrimeField(3)
        lines = GradedHypersurface(F, ("x0", "x1", "x2"),
                                   PolynomialFp(F, 3, {(1, 1, 0): 1}))
        assert fedder_is_fsplit(lines, 1)
        level = lines.level(1)
        assert not {"masks", "aw"} & set(vars(level))
        assert m_threshold(lines, 1) == 0
        assert "masks" in vars(level) and "aw" not in vars(level)
        assert b_dimension(lines, 1, 0) == 1
        assert "aw" in vars(level)

    def test_fedder_forms_no_masks(self, monkeypatch):
        # G^(p-1) = (x0 x1)^(p-1) is one term, so the Fedder test is
        # immediate; the threshold's mask table, 3 x p rows of one word,
        # passes _TERM_MASK_BYTES and is refused before any basis is built
        F = PrimeField(16777213)
        ring = GradedHypersurface(F, ("x0", "x1", "x2"),
                                  PolynomialFp(F, 3, {(1, 1, 0): 1}))
        assert fedder_is_fsplit(ring, 1)
        assert "masks" not in vars(ring.level(1))

        def unscanned(*args):
            raise AssertionError("a basis was built before the masks")
        monkeypatch.setattr(GradedHypersurface, "restricted_basis", unscanned)
        with pytest.raises(InstanceTooLarge, match="bytes of term masks"):
            m_threshold(ring, 1)

    @pytest.mark.parametrize("ring,e", [
        pytest.param(lambda: diagonal_hypersurface(5, 4, 2), 2, id="Q2-p5-e2"),
        pytest.param(lambda: diagonal_hypersurface(5, 4, 3), 2,
                     id="cubic-p5-e2"),
        pytest.param(lambda: f_split_cubic(), 3, id="cubic-p3-e3")])
    @pytest.mark.parametrize("cells", [None, 100, 2000])
    def test_masks_match_one_row_at_a_time(self, ring, e, cells,
                                           monkeypatch):
        # the mask table, packed in chunks of rows (also of a few rows and
        # a last short chunk), is bit-identical to one packbits per row
        if cells is not None:
            monkeypatch.setattr(splitting, "_ENTRY_CELLS", cells)
        level = ring().level(e)
        masks = level.masks.view(np.uint8)
        assert masks.shape[:2] == (level.v, level.q)
        for i in range(level.v):
            for c in range(level.q):
                bits = np.packbits(level.W[:, i] <= c, bitorder="little")
                assert np.array_equal(masks[i, c, :bits.size], bits)
                assert not masks[i, c, bits.size:].any()


class TestBDimension:
    def test_quadric_profile_frozen(self, quadric_p3):
        assert [b_dimension(quadric_p3, 1, m) for m in range(5)] \
            == FROZEN["quadric_p3_e1_b"]

    def test_cubic_profile_frozen(self, cubic_p5):
        assert [b_dimension(cubic_p5, 1, m) for m in range(5)] \
            == FROZEN["cubic_p5_e1_b"]

    def test_cubic_e2_profile_frozen(self, cubic_p5):
        assert [b_dimension(cubic_p5, 2, m) for m in range(25)] \
            == FROZEN["cubic_p5_e2_b"]

    def test_degree_zero_is_fedder(self, quadric_p3, cubic_p5):
        assert b_dimension(quadric_p3, 1, 0) == 1
        assert b_dimension(cubic_p5, 1, 0) == 1
        assert b_dimension(elliptic_cone(5), 1, 0) == 0

    def test_sketch_path_matches_dense(self, monkeypatch):
        # the batched engine, the dense _factor alone and the sketch plus
        # kernel check alone give the same certified values.  At level 3 and
        # degrees up to 30 every block of the quadric is tall, its built
        # rows outnumber its sketch's, and it has at most 126 columns; the
        # b-profile is (m+1)^2 up to the middle degree 26, then palindromic
        ring = diagonal_hypersurface(3, 4, 2)
        degrees = (6, 20, 28, 30)
        expect = [(min(m, 52 - m) + 1) ** 2 for m in degrees]
        calls = self.spy_engines(monkeypatch)

        def paths_and_values():
            calls.clear()
            ring._b_cache.clear()
            values = [b_dimension(ring, 3, m) for m in degrees]
            return set(calls), values

        assert paths_and_values() == ({"kernel_fp_batched",
                                       "_kernel_verifies"}, expect)
        monkeypatch.setattr(splitting, "_BATCH_COLS", 0)
        with monkeypatch.context() as mp:
            mp.setattr(splitting, "_TALL", 10 ** 9)
            assert paths_and_values() == ({"rank_fp_dense"}, expect)
        monkeypatch.setattr(splitting, "DENSE_CELLS", 0)
        assert paths_and_values() == ({"kernel_fp_dense", "_kernel_verifies"},
                                      expect)

    def test_failed_batch_check_falls_back(self, monkeypatch):
        # a narrow sketch whose kernel check is refused is not sketched
        # again: its true block (455 built rows, 117 nonzero columns at
        # degree 28) is eliminated exactly; only the first block of each
        # symmetry orbit is sketched
        ring = diagonal_hypersurface(3, 4, 2)
        calls = self.spy_engines(monkeypatch)
        sketched = self.spy_sketches(monkeypatch)
        self.refuse_checks(monkeypatch, 1)
        ranked = sum(w > 0 for w in splitting._layout(ring, 3, 28).weights)
        assert ranked == 3
        assert b_dimension(ring, 3, 28) == 25 ** 2
        assert len(sketched) == ranked
        # a refused check does not reach the engine spy
        assert calls == ["kernel_fp_batched", "rank_fp_dense",
                         "_kernel_verifies", "_kernel_verifies"]

    def test_failed_wide_check_retries(self, monkeypatch):
        # G's exponent differences span the degree-0 lattice, so Phi_{3,28}
        # is one block; with no batch it is sketched by kernel_fp_dense, and
        # a refused check retries it once, by exact elimination
        ring = ungraded_quadric()
        monkeypatch.setattr(splitting, "_BATCH_COLS", 0)
        calls = self.spy_engines(monkeypatch)
        sketched = self.spy_sketches(monkeypatch)
        self.refuse_checks(monkeypatch, 1)
        assert b_dimension(ring, 3, 28) == 25 ** 2
        assert len(sketched) == 1
        assert calls == ["kernel_fp_dense", "rank_fp_dense"]

    @pytest.mark.parametrize("m,b", [(26, 729), (27, 676)])
    def test_failed_first_sketches_go_exact(self, m, b, monkeypatch):
        # unpatched failing sketches: the one block of the ungraded quadric
        # at e=3 is 3654 x 729 with full column rank at m=26, and 3276 x
        # 751 of rank 676 < dim R_27 = 784 at m=27, yet its sketch loses
        # rank and the true check refuses the sketch's kernel
        ring = ungraded_quadric()
        calls = self.spy_engines(monkeypatch)
        verify, verdicts = splitting._kernel_verifies, []

        def recorded(*args):
            verdicts.append(verify(*args))
            return verdicts[-1]
        monkeypatch.setattr(splitting, "_kernel_verifies", recorded)
        assert b_dimension(ring, 3, m) == b
        assert calls == ["kernel_fp_dense", "_kernel_verifies",
                         "rank_fp_dense"]
        assert verdicts == [False]

    @pytest.mark.parametrize("batch_cols", [128, 0])
    def test_refused_checks_raise(self, batch_cols, monkeypatch):
        # the built blocks of Phi_{3,30} (364, 286 and 220 rows) are all
        # sketched and rank deficient, so every one is checked; past a
        # lowered DENSE_CELLS the first refused check raises before any
        # dense matrix is built
        ring = diagonal_hypersurface(3, 4, 2)
        monkeypatch.setattr(splitting, "_BATCH_COLS", batch_cols)
        monkeypatch.setattr(splitting, "DENSE_CELLS", 1000)
        calls = self.spy_engines(monkeypatch)

        def undensed(*args, **kwargs):
            raise AssertionError("a refused block was made dense")
        monkeypatch.setattr(splitting, "_dense", undensed)
        self.refuse_checks(monkeypatch, 10 ** 9)
        with pytest.raises(InstanceTooLarge, match=r"at m=30: the sketch "
                           r"of a \d+ x \d+ block failed its kernel check"):
            b_dimension(ring, 3, 30)
        assert "rank_fp_dense" not in calls
        unused = "kernel_fp_dense" if batch_cols else "kernel_fp_batched"
        assert unused not in calls

    @pytest.mark.parametrize("batch_cols", [128, 0])
    def test_refused_checks_are_eliminated_exactly(self, batch_cols,
                                                    monkeypatch):
        # under DENSE_CELLS every block of Phi_{3,30} whose check is
        # refused is eliminated exactly, once, and the value stands
        ring = diagonal_hypersurface(3, 4, 2)
        monkeypatch.setattr(splitting, "_BATCH_COLS", batch_cols)
        calls = self.spy_engines(monkeypatch)
        sketched = self.spy_sketches(monkeypatch)
        self.refuse_checks(monkeypatch, 10 ** 9)
        assert b_dimension(ring, 3, 30) == 23 ** 2
        assert len(sketched) == 3
        assert calls.count("rank_fp_dense") == 3
        unused = "kernel_fp_dense" if batch_cols else "kernel_fp_batched"
        assert unused not in calls

    def test_ungraded_phi_is_sketched_by_shape(self, monkeypatch):
        # an ungraded Phi is one block and follows the shape rule of every
        # block: it is more than twice as tall as wide, and sketched, up to
        # degree 8 only
        ring = ungraded_quadric()
        sketches = self.spy_sketches(monkeypatch)
        sketched = []
        for m in range(17):
            sketches.clear()
            assert b_dimension(ring, 2, m) == naive_b_dimension(ring, 2, m)
            if sketches:
                sketched.append(m)
        assert sketched == list(range(9))

    def test_block_no_taller_than_its_sketch_is_not_sketched(self, cubic_p5,
                                                            monkeypatch):
        # every tall block of the cubic at level 2 has fewer built rows than
        # its sketch would have, so nothing is sketched or verified
        calls = self.spy_engines(monkeypatch)
        cubic_p5._b_cache.clear()
        assert [b_dimension(cubic_p5, 2, m) for m in range(25)] \
            == FROZEN["cubic_p5_e2_b"]
        cubic_p5._b_cache.clear()
        assert set(calls) == {"kernel_fp_batched"}

    def test_first_sketches_of_quadric_surface_verify(self, monkeypatch):
        # the bucket hash keeps the high bits of rank * _HASH_A, which spread
        # the rows of every sketched block of the quadric surface at p=5,
        # e=2 over enough buckets that no first sketch fails its check and
        # no second sketch goes to kernel_fp_dense
        ring = diagonal_hypersurface(5, 4, 2)
        calls = self.spy_engines(monkeypatch)
        pr = profile(ring, 2, threads=1)
        assert pr.b == [(min(m, 48 - m) + 1) ** 2 for m in range(49)]
        assert pr.a_e == 10425
        assert "_kernel_verifies" in calls
        assert "kernel_fp_dense" not in calls

    @staticmethod
    def spy_sketches(monkeypatch) -> list[tuple[int, int]]:
        """Record the built shape of every block that is sketched."""
        shapes = []
        sketch = splitting._sketch

        def counted(level, m, blk):
            shapes.append(blk.shape)
            return sketch(level, m, blk)
        monkeypatch.setattr(splitting, "_sketch", counted)
        return shapes

    @staticmethod
    def refuse_checks(monkeypatch, n: int) -> None:
        """Make the first n kernel checks fail."""
        verify = splitting._kernel_verifies
        left = [n]

        def refuse(A, K, p):
            left[0] -= 1
            return left[0] < 0 and verify(A, K, p)
        monkeypatch.setattr(splitting, "_kernel_verifies", refuse)

    @staticmethod
    def spy_engines(monkeypatch) -> list[str]:
        calls = []
        for name in ("kernel_fp_batched", "rank_fp_dense", "kernel_fp_dense",
                     "_kernel_verifies"):
            def counted(*args, name=name, engine=getattr(splitting, name)):
                calls.append(name)
                return engine(*args)
            monkeypatch.setattr(splitting, name, counted)
        return calls

    def test_work_cap_raises(self, monkeypatch):
        # the differences of the exponents of G span the whole degree-0
        # lattice, so Phi_{2,36} is one block of 17575 columns
        F = PrimeField(5)
        G = PolynomialFp(F, 5, {(2, 0, 0, 0, 0): 1, (1, 1, 0, 0, 0): 1,
                                (0, 1, 1, 0, 0): 1, (0, 0, 1, 1, 0): 1,
                                (0, 0, 0, 1, 1): 1})
        big = GradedHypersurface(F, tuple(f"x{i}" for i in range(5)), G)
        assert big.dim_R(36) == 17575

        def unbuilt(*args):
            raise AssertionError("Phi was built before the work cap check")
        monkeypatch.setattr(splitting, "digit_power", unbuilt)
        monkeypatch.setattr(splitting, "_column_scan", unbuilt)
        monkeypatch.setattr(splitting, "_build_block", unbuilt)
        with pytest.raises(InstanceTooLarge, match=r"1 block\(s\), the "
                           r"largest \d+ x 17575"):
            b_dimension(big, 2, 36)

    @pytest.mark.parametrize("e", [1, 2])
    def test_block_split_matches_oracle(self, e):
        # the exponent differences of G span a proper sublattice L of the
        # degree-0 lattice, so Phi splits into one block per class mod L
        F = PrimeField(3)
        G = PolynomialFp(F, 4, {(2, 0, 0, 0): 1, (0, 1, 1, 0): 1,
                                (0, 0, 0, 2): 1})
        ring = GradedHypersurface(F, ("x0", "x1", "x2", "x3"), G)
        M = (3 ** e - 1) * ring.fano_coindex
        assert max(len(splitting._layout(ring, e, m).shapes)
                   for m in range(M + 1)) > 1
        assert [b_dimension(ring, e, m) for m in range(M + 1)] \
            == [naive_b_dimension(ring, e, m) for m in range(M + 1)]

    def test_basis_built_once_per_rank(self, monkeypatch):
        F = PrimeField(3)
        G = PolynomialFp(F, 4, {(2, 0, 0, 0): 1, (0, 1, 1, 0): 1,
                                (0, 0, 0, 2): 1})
        ring = GradedHypersurface(F, ("x0", "x1", "x2", "x3"), G)
        degrees, laid_out = [], []
        basis = GradedHypersurface.restricted_basis
        layout = splitting._layout

        def counted(self, m):
            degrees.append(m)
            return basis(self, m)

        def counted_layout(ring, e, m):
            laid_out.append(m)
            return layout(ring, e, m)
        monkeypatch.setattr(GradedHypersurface, "restricted_basis", counted)
        monkeypatch.setattr(splitting, "_layout", counted_layout)
        pr = profile(ring, 2)
        # the ranks take the layouts the cap checks laid out
        assert sorted(degrees) == list(range(pr.M_e + 1))
        assert sorted(laid_out) == list(range(pr.M_e + 1))
        # the ring keeps the ranks, not the layouts
        assert sorted(ring._b_cache) == [(2, m) for m in range(pr.M_e + 1)]

    def test_row_keys_past_int64_refused(self, monkeypatch):
        # the int64 colex tables count targets of v exponents below q, up
        # to q^v; at q = 2 and v = 63 that is refused before any block is
        # built or any prefix sum formed, at v = 62 the rank is computed
        F = PrimeField(2)
        for v in (62, 63):
            G = PolynomialFp(F, v, {(1, 1) + (0,) * (v - 2): 1})
            ring = GradedHypersurface(F, tuple(f"x{i}" for i in range(v)), G)
            if v == 62:
                assert b_dimension(ring, 1, 0) == 1
                continue

            def unbuilt(*args):
                raise AssertionError("a block built past 2^63")
            monkeypatch.setattr(splitting, "_build_block", unbuilt)
            monkeypatch.setattr(splitting._Level, "aw", property(unbuilt))
            with pytest.raises(InstanceTooLarge, match=r"q\^63 >= 2\^63"):
                b_dimension(ring, 1, 0)
            assert m_threshold(ring, 1) == 0  # a zero column at m = 1

    def test_kernel_check_exact_range(self):
        # rows of two entries: 2 (p-1)^2 must stay below 2^53
        for p in (67108859, 67108879):
            A = coo_block(np.array([[1, p - 1], [p - 1, 1]]))
            kernel = np.array([[1.0], [1.0]])
            wrong = np.array([[1.0], [p - 2.0]])
            if p == 67108859:
                assert splitting._kernel_verifies(A, kernel, p)
                assert not splitting._kernel_verifies(A, wrong, p)
            else:
                with pytest.raises(InstanceTooLarge, match="prime too large"):
                    splitting._kernel_verifies(A, kernel, p)

    @staticmethod
    def naive_verifies(A: np.ndarray, K: np.ndarray, p: int) -> bool:
        return not ((A.astype(object) @ K.astype(object)) % p).any()

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 101, 4093, 67108859]),
           cells=st.sampled_from([1, 3, splitting._CHECK_CELLS]))
    def test_kernel_check_matches_naive_product(self, data, p, cells):
        # A = [B | -B T] is killed by K = [T; I]: its rows have the lengths
        # drawn for B plus the filled columns.  At p = 4093 a row of one
        # entry is checked in float32 and a row of two in float64; past two
        # entries p = 67108859 is refused.  A wrong kernel fails only in the
        # last row, which the last chunk holds; one or three cells per chunk
        # give one row per chunk.
        nrows = data.draw(st.integers(1, 12), label="nrows")
        ncols = data.draw(st.integers(1, 2 if p > 4093 else 8), label="ncols")
        k = data.draw(st.integers(1, ncols), label="kernel width")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        B = rng.integers(1, p, size=(nrows, ncols - k))
        for i in range(nrows):
            length = data.draw(st.integers(0, ncols - k), label="row length")
            B[i, rng.permutation(ncols - k)[length:]] = 0
        T = rng.integers(0, p, size=(ncols - k, k))
        A = np.hstack([B, (-(B.astype(object) @ T) % p).astype(np.int64)])
        K = np.vstack([T, np.eye(k, dtype=np.int64)])
        if data.draw(st.booleans(), label="wrong kernel"):
            A[-1, -1] = (A[-1, -1] + 1) % p
        longest = int((A != 0).sum(axis=1).max())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitting, "_CHECK_CELLS", cells)
            if longest * (p - 1) ** 2 > 2 ** 53 - 1:
                with pytest.raises(InstanceTooLarge, match="prime too large"):
                    splitting._kernel_verifies(coo_block(A), K * 1.0, p)
            else:
                assert splitting._kernel_verifies(coo_block(A), K * 1.0, p) \
                    == self.naive_verifies(A, K, p)

    def test_kernel_check_leaves_float32_past_its_range(self):
        # 3881 * 3587 + 3671 * 3290 = 6352 * 4093 + 1, which float32 rounds
        # to a multiple of 4093: a row of two entries needs float64
        p = 4093
        A = np.array([[3881, 3671]])
        K = np.array([[3587.0], [3290.0]])
        assert (A.astype(np.float32) @ K.astype(np.float32))[0, 0] % p == 0
        assert not self.naive_verifies(A, K, p)
        assert not splitting._kernel_verifies(coo_block(A), K, p)

    def test_bad_arguments(self, cubic_p5):
        with pytest.raises(ValidationError):
            b_dimension(cubic_p5, 0, 1)
        with pytest.raises(ValidationError):
            b_dimension(cubic_p5, 1, -1)


def unique_numbered_block(ring, e, U) -> splitting._Block:
    """The block of Phi on the columns U, numbered the way np.unique numbers
    it: every product u + w with no exponent past q - 1, column by column,
    rows in the order of their sorted base-q keys sum_i r_i q^i.  A row's
    rank is the place of its key among the keys of every degree-D target
    from exponent_array, whose colex order is the order of their keys."""
    q = ring.field.p ** e
    level = ring.level(e)
    W, cw = level.W.astype(np.int64), level.cw
    jj, tt = [], []
    for j0 in range(0, U.shape[0], 64):
        j, t = np.nonzero(
            (U[j0:j0 + 64, None, :].astype(np.int64) + W <= q - 1).all(axis=2))
        jj.append(j + j0)
        tt.append(t)
    jj, tt = np.concatenate(jj), np.concatenate(tt)
    weights = q ** np.arange(ring.v)
    row_keys, rows = np.unique((U[jj].astype(np.int64) + W[tt]) @ weights,
                               return_inverse=True)
    D = int(U[0].sum()) + ring.delta * (q - 1)
    every_key = exponent_array(ring.v, D, q - 1) @ weights
    assert (np.diff(every_key) > 0).all()
    row_ranks = np.searchsorted(every_key, row_keys)
    assert np.array_equal(every_key[row_ranks], row_keys)
    col_ids, cols = np.unique(jj, return_inverse=True)
    return splitting._Block(
        (row_keys.size, col_ids.size),
        rows.reshape(-1).astype(np.min_scalar_type(row_keys.size)),
        cols.reshape(-1).astype(np.min_scalar_type(col_ids.size)),
        cw[tt], row_ranks)


def layout_by_every_target(ring, e, m) -> splitting._Layout:
    """_layout's answer from one labelling of the basis and every target."""
    q = ring.field.p ** e
    D = m + ring.delta * (q - 1)
    basis = ring.restricted_basis(m)
    targets = exponent_array(ring.v, D, q - 1) - (q - 1) * ring._w0
    labels = splitting._class_labels(ring, np.concatenate([basis, targets]))
    col_labels = labels[:basis.shape[0]]
    classes = np.unique(col_labels)
    columns = [np.flatnonzero(col_labels == c) for c in classes]
    shapes = [(int(np.count_nonzero(labels[basis.shape[0]:] == c)), idx.size)
              for c, idx in zip(classes, columns)]
    weights = splitting._orbit_weights(
        ring, basis[[idx[0] for idx in columns]], shapes)
    return splitting._Layout(basis, shapes, columns, weights)


class TestBuildBlock:
    def test_dead_columns_give_an_empty_block(self, quadric_p3):
        # every column has an exponent >= q, so no product survives; the
        # dead columns have degrees 3 and 5, and only the live column's
        # degree m = 2 sets the targets' degree
        U = np.array([[3, 0, 0, 0], [0, 1, 4, 0]], dtype=np.uint8)
        blk = splitting._build_block(quadric_p3.level(1), 2, U)
        assert blk.shape == (0, 0)
        for a in (blk.rows, blk.cols, blk.vals, blk.row_ranks):
            assert a.size == 0
        # a live column between dead ones is numbered 0
        live = np.array([[1, 1, 0, 0]], dtype=np.uint8)
        blk = splitting._build_block(quadric_p3.level(1), 2,
                                     np.insert(U, 1, live, 0))
        assert blk.shape[1] == 1 and blk.rows.size > 0
        assert not blk.cols.any()

    @pytest.mark.parametrize("ring,e,m", [
        pytest.param(lambda: diagonal_hypersurface(5, 5, 2), 2, 24,
                     id="Q3-p5-e2-m24"),
        pytest.param(ungraded_quadric, 3, 20, id="ungraded-e3-m20"),
        pytest.param(ungraded_quadric, 3, 26, id="ungraded-e3-m26"),
        pytest.param(f_split_cubic, 3, 13, id="cubic-p3-e3-m13"),
        *[pytest.param(lambda: diagonal_hypersurface(101, 3, 2), 1, m,
                       id=f"conic-p101-m{m}") for m in (0, 50, 100)]])
    def test_matches_unique_numbering(self, ring, e, m, monkeypatch):
        # every ranked block, also with chunks of a few entries and one
        # bitset word per scan, numbers its rows and columns as np.unique
        # would, with the same dtypes
        ring = ring()
        layout = splitting._layout(ring, e, m)
        for k, w in enumerate(layout.weights):
            if not w:
                continue
            U = layout.basis[layout.columns[k]]
            want = unique_numbered_block(ring, e, U)
            blocks = [splitting._build_block(ring.level(e), m, U)]
            with monkeypatch.context() as small:
                small.setattr(splitting, "_ENTRY_CELLS", 1000)
                small.setattr(splitting, "_SCAN_WORDS", 1)
                blocks.append(splitting._build_block(ring.level(e), m, U))
            for blk in blocks:
                assert blk.shape == want.shape
                for got, ref in zip(blk[1:], want[1:]):
                    assert got.dtype == ref.dtype
                    assert np.array_equal(got, ref)

    def test_sketch_is_chunk_free(self, monkeypatch):
        # the sketch of the largest block of the p=5 quadric threefold at
        # e=2, m=24 is the same in chunks of 1000 entries as in one chunk
        ring = diagonal_hypersurface(5, 5, 2)
        layout, level = splitting._layout(ring, 2, 24), ring.level(2)
        blk = splitting._build_block(level, 24,
                                     layout.basis[layout.columns[0]])
        monkeypatch.setattr(splitting, "_SKETCH_ENTRIES", blk.vals.size)
        whole = splitting._sketch(level, 24, blk)
        monkeypatch.setattr(splitting, "_SKETCH_ENTRIES", 1000)
        assert np.array_equal(splitting._sketch(level, 24, blk), whole)
        # built in the dtype of kernel_fp_dense, which then copies nothing
        assert blk.shape[1] > splitting._BATCH_COLS
        assert whole.dtype == np.float32
        assert np.array_equal(np.remainder(whole, 5), whole)

    def test_block_and_sketch_memory_is_bounded(self):
        # building and sketching the largest block of the p=5 quadric
        # threefold at e=2, m=24 (13650 x 455, 500540 entries, 2.5 MiB of
        # COO arrays, a 2.1 MiB sketch) stays under 16 MiB of traced peak
        # (about 6.5 MiB); a sort of every entry's int64 key took 40 MiB
        ring = diagonal_hypersurface(5, 5, 2)
        layout = splitting._layout(ring, 2, 24)
        U = layout.basis[layout.columns[0]]
        assert layout.shapes[0] == max(layout.shapes)
        level = ring.level(2)
        level.masks, level.aw  # the level's tables are not the block's
        tracemalloc.start()
        try:
            blk = splitting._build_block(level, 24, U)
            splitting._sketch(level, 24, blk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blk.vals.size == 500540
        assert peak < 16 * 2 ** 20


class TestLayout:
    @pytest.mark.parametrize("ring,e,degrees", [
        pytest.param(lambda: diagonal_hypersurface(3, 4, 2), 2,
                     range(0, 17, 3), id="Q2-p3-e2"),
        pytest.param(lambda: diagonal_hypersurface(5, 4, 3), 2,
                     range(0, 25, 4), id="cubic-p5-e2"),
        pytest.param(lambda: diagonal_hypersurface(7, 3, 2), 2,
                     range(0, 49, 8), id="conic-p7-e2"),
        pytest.param(lambda: diagonal_hypersurface(3, 5, 2), 2,
                     (0, 8, 13, 24), id="Q3-p3-e2"),
        pytest.param(lambda: GradedHypersurface(
            PrimeField(3), ("x0", "x1", "x2", "x3"),
            PolynomialFp(PrimeField(3), 4, {(2, 0, 0, 0): 1, (0, 1, 1, 0): 1,
                                           (0, 0, 0, 2): 1})),
                     2, range(0, 17, 2), id="split-p3-e2")])
    @pytest.mark.parametrize("rows_per_chunk", [1, 7, None])
    def test_chunked_layout_matches_every_target(self, ring, e, degrees,
                                                 rows_per_chunk,
                                                 monkeypatch):
        # with a lowered chunk bound, small rings take the chunked path of
        # the basis and of the targets; shapes, columns, weights and the
        # basis equal those of one labelling of every target
        ring = ring()
        if rows_per_chunk is not None:
            monkeypatch.setattr(splitting, "_ENUM_ROWS", rows_per_chunk)
        for m in degrees:
            got = splitting._layout(ring, e, m)
            want = layout_by_every_target(ring, e, m)
            assert got.basis.dtype == want.basis.dtype
            assert np.array_equal(got.basis, want.basis)
            assert got.shapes == want.shapes
            assert got.weights == want.weights
            assert len(got.columns) == len(want.columns)
            for a, b in zip(got.columns, want.columns):
                assert np.array_equal(a, b)


class TestSymmetryOrbits:
    """Only the first block of each orbit of the symmetries of G is ranked;
    the sum over the blocks must equal the unreduced one at every degree."""

    @staticmethod
    def unreduced(ring, monkeypatch):
        twin = GradedHypersurface(ring.field, ring.names, ring.G)
        monkeypatch.setattr(twin, "_symmetries", [])
        return twin

    @staticmethod
    def reduces(ring, e, m):
        return any(w > 1 for w in splitting._layout(ring, e, m).weights)

    def test_symmetries_searched_by_the_first_rank(self, monkeypatch):
        # construction, the Fedder test, membership and a threshold that a
        # zero column settles need no symmetry; the first rank of a ring
        # searches them, once
        searches = []
        search = splitting._symmetries

        def counted(G, lattice):
            searches.append(G)
            return search(G, lattice)
        monkeypatch.setattr(splitting, "_symmetries", counted)
        assert fedder_is_fsplit(diagonal_hypersurface(5, 7, 2), 1)
        F = PrimeField(3)
        lines = GradedHypersurface(F, ("x0", "x1", "x2"),
                                   PolynomialFp(F, 3, {(1, 1, 0): 1}))
        assert m_threshold(lines, 1) == 0
        rings = [diagonal_hypersurface(3, v, 2) for v in (4, 5)]
        x0sq = PolynomialFp(F, 4, {(2, 0, 0, 0): 1})
        assert not membership_check(rings[0], 1, x0sq)  # I_1(2) = 0
        assert searches == []
        for n, ring in enumerate(rings, 1):
            b_dimension(ring, 2, 4)
            profile(ring, 1)
            assert searches == [r.G for r in rings[:n]]

    def test_quadric_threefold_p3(self, monkeypatch):
        ring = diagonal_hypersurface(3, 5, 2)
        assert len(ring._symmetries) == 4  # adjacent transpositions of S_5
        assert self.reduces(ring, 2, 12)
        reduced = profile(ring, 2).b
        assert reduced == profile(self.unreduced(ring, monkeypatch), 2).b

    def test_cubic_p5_e2_frozen(self, cubic_p5, monkeypatch):
        assert self.reduces(cubic_p5, 2, 12)
        twin = self.unreduced(cubic_p5, monkeypatch)
        for ring in (cubic_p5, twin):
            assert [b_dimension(ring, 2, m) for m in range(25)] \
                == FROZEN["cubic_p5_e2_b"]

    def test_non_unit_coefficients(self, monkeypatch):
        # a diagonal G has linearly independent exponents, so a torus
        # rescaling absorbs any coefficients
        F = PrimeField(5)
        G = PolynomialFp(F, 4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 2,
                                (0, 0, 2, 0): 3, (0, 0, 0, 2): 4})
        ring = GradedHypersurface(F, ("x0", "x1", "x2", "x3"), G)
        assert len(ring._symmetries) == 3
        assert self.reduces(ring, 2, 24)
        reduced = profile(ring, 2).b
        assert reduced == profile(self.unreduced(ring, monkeypatch), 2).b
        assert reduced == [(min(m, 48 - m) + 1) ** 2 for m in range(49)]

    def test_coefficients_break_symmetry(self, monkeypatch):
        # swapping x0 and x1 keeps the support of G but, with the dependent
        # exponents of G, the coefficients 1, 1, 2, 1 do not agree after it
        # up to a scalar (nor up to any torus rescaling: c(2,1)^2 / (c(3,0)
        # c(1,2)) = 3 becomes 4); those of (x0 + x1)^3 do
        F = PrimeField(5)
        exps = [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0)]
        names = ("x0", "x1", "x2")
        rings = [GradedHypersurface(F, names, PolynomialFp(
            F, 3, dict(zip(exps, coeffs)))) for coeffs in ((1, 1, 2, 1),
                                                           (1, 3, 3, 1))]
        assert [r._symmetries for r in rings] == [[], [(1, 0, 2)]]
        ring = rings[0]
        assert ring._lattice is not None
        twin = self.unreduced(ring, monkeypatch)
        for e in (1, 2):
            for m in range(9):
                assert set(splitting._layout(ring, e, m).weights) == {1}
                assert b_dimension(ring, e, m) == b_dimension(twin, e, m)
        assert [b_dimension(ring, 1, m) for m in range(9)] \
            == [naive_b_dimension(ring, 1, m) for m in range(9)]

    def test_work_estimate_counts_ranked_blocks(self, monkeypatch):
        # the cap is met by the ranked blocks alone, not by all 16
        ring = diagonal_hypersurface(5, 4, 2)
        layout = splitting._layout(ring, 2, 24)
        est = [splitting._estimate_flops(*s) for s in layout.shapes]
        ranked = sum(x for x, w in zip(est, layout.weights) if w)
        assert ranked < sum(est) / 2
        monkeypatch.setattr(splitting, "WORK_CAP", 0.99 * ranked)
        with pytest.raises(InstanceTooLarge, match="work cap"):
            b_dimension(ring, 2, 24)
        monkeypatch.setattr(splitting, "WORK_CAP", ranked)
        assert b_dimension(ring, 2, 24) == 25 ** 2

    def test_shape_mismatch_in_orbit_raises(self, monkeypatch):
        # x2 <-> x3 is no symmetry of x0^2 + x1 x2 + x3^2: it maps the class
        # of a 2 x 1 block of Phi_{1,1} to that of a 3 x 1 block
        F = PrimeField(3)
        G = PolynomialFp(F, 4, {(2, 0, 0, 0): 1, (0, 1, 1, 0): 1,
                                (0, 0, 0, 2): 1})
        ring = GradedHypersurface(F, ("x0", "x1", "x2", "x3"), G)
        assert sorted(ring._symmetries) == [(0, 2, 1, 3), (3, 1, 2, 0)]
        monkeypatch.setattr(ring, "_symmetries", [(0, 1, 3, 2)])
        with pytest.raises(InternalCheckError,
                           match=r"maps block 1, counted \(2, 1\), to no "
                           r"block of the same counted shape"):
            b_dimension(ring, 1, 1)


class TestThresholds:
    def test_probe_lays_out_only_the_rank(self, monkeypatch):
        # level 1's window is [0, 2]: the witness scans at 1, 2 and 3 find
        # the first zero column at 3, and only 2 is ranked.  Level 2's
        # window is [4, 8]: the scans at 4, 5, 7, then 8 and 9 by
        # bisection find it at 9, and only 8 is ranked.  Each rank lays out
        # a basis of its own; no scan enumerates the target monomials
        ring = diagonal_hypersurface(3, 4, 2)
        built, laid_out = [], []
        basis = GradedHypersurface.restricted_basis
        layout = splitting._layout

        def counted_basis(self, m):
            built.append(m)
            return basis(self, m)

        def counted_layout(ring, e, m):
            laid_out.append(m)
            return layout(ring, e, m)
        monkeypatch.setattr(GradedHypersurface, "restricted_basis",
                            counted_basis)
        monkeypatch.setattr(splitting, "_layout", counted_layout)
        assert m_threshold(ring, 2) == 8
        assert set(ring._b_cache) == {(1, 2), (2, 8)}
        assert built == [1, 2, 3, 2, 4, 5, 7, 8, 9, 8]
        assert laid_out == [2, 8]

    def test_refused_degree_keeps_no_cache(self, monkeypatch):
        # m_threshold: level 2's window is [16, 24] and the first zero
        # column is at 25, so the rank at 24, which the answer needs, is
        # refused by the work cap after its layout is counted; only level
        # 1's rank is kept.  profile: the pre-check refuses 14 after
        # counting degrees 0..13, before any rank, so it keeps no rank
        monkeypatch.setattr(splitting, "WORK_CAP", 1e6)
        for run, m, ranked in ((m_threshold, 24, {(1, 4)}),
                               (profile, 14, set())):
            ring = diagonal_hypersurface(5, 5, 2)
            with pytest.raises(InstanceTooLarge,
                               match=f"at m={m}: .* work cap"):
                run(ring, 2)
            assert set(ring._b_cache) == ranked

    @pytest.mark.parametrize("refuse,checked", [
        pytest.param(27, [4, 2, 3, 27], id="w-minus-1"),
        pytest.param(23, [4, 2, 3, 27, 20, 23], id="bisection")])
    def test_refused_rank_in_window_raises(self, refuse, checked,
                                           monkeypatch):
        # x^2 + y^2 + z^2 at p = 7: level 2's window is [15, 27] and no
        # scan up to 28 finds a zero column, so hi = 27 is ranked first; a
        # refused rank, at 27 or during the bisection below it, raises at
        # once: no other degree is tried
        ring = diagonal_hypersurface(7, 3, 2)
        spied = self.spy_caps(monkeypatch, refuse=refuse)
        with pytest.raises(InstanceTooLarge, match=f"refused m={refuse}"):
            m_threshold(ring, 2)
        assert spied == checked

    @pytest.mark.parametrize("ring,m1,side", [
        # the F_3 quadric surface (m_1 = 2, m_2 = 8): a rank finds
        # I_2(6) = 0 past the window [1, 5]; a zero column at 10 opens
        # the window [10, 14]
        pytest.param((3, 4, 2), 1, "above", id="Q2-p3-above"),
        pytest.param((3, 4, 2), 4, "below", id="Q2-p3-below"),
        # the conic over F_7 (m_2 = 24): the first zero column is at 42,
        # and the ranks bisected below 41 find I_2(29) != 0 in [29, 41]
        pytest.param((7, 3, 2), 5, "below", id="conic-p7-below")])
    def test_window_that_misses_m_e_raises(self, ring, m1, side,
                                           monkeypatch):
        # a wrong threshold of level 1 moves level 2's window off m_2
        ring, search = diagonal_hypersurface(*ring), splitting.m_threshold
        monkeypatch.setattr(splitting, "m_threshold", lambda ring, e:
                            m1 if e == 1 else search(ring, e))
        with pytest.raises(InternalCheckError,
                           match=f"m_e at level e=2 lies {side} its window"):
            search(ring, 2)

    @staticmethod
    def spy_caps(monkeypatch, refuse=None) -> list[int]:
        """Record the degree of every _check_caps call; refuse one degree."""
        checked, check = [], splitting._check_caps

        def recorded(ring, e, m):
            checked.append(m)
            if m == refuse:
                raise InstanceTooLarge(f"refused m={m}")
            return check(ring, e, m)
        monkeypatch.setattr(splitting, "_check_caps", recorded)
        return checked

    @pytest.mark.parametrize("ring,e", [
        # the quadrics and cubics of criteria 2, 3 and 6 but Q_3 at p = 5,
        # e = 2, whose profile is criterion 5's slowest (criterion 2 pins
        # its threshold at p^e - 1)
        *[pytest.param((p, v, delta), e, id=f"p{p}v{v}d{delta}e{e}")
          for p, v, delta, e in [
              (3, 4, 2, 1), (3, 4, 2, 2), (5, 4, 2, 1), (5, 4, 2, 2),
              (3, 5, 2, 1), (3, 5, 2, 2), (5, 5, 2, 1), (5, 4, 3, 1),
              (5, 4, 3, 2), (7, 4, 3, 1)]],
        pytest.param("ungraded", 1, id="ungraded-e1"),
        pytest.param("ungraded", 2, id="ungraded-e2"),
        # conics, all but p = 5, e = 1 loose: m_e < w - 1 for the first
        # zero column w (at p = 7, e = 2, m_e = 24 and w = 42)
        *[pytest.param((p, 3, 2), e, id=f"conic-p{p}e{e}")
          for p in (5, 7, 11) for e in (1, 2)]])
    def test_threshold_matches_profile(self, ring, e):
        # profile reads m_e off the full certified b-list
        def make():
            return (ungraded_quadric() if ring == "ungraded"
                    else diagonal_hypersurface(*ring))
        assert m_threshold(make(), e) == profile(make(), e).m_e

    @pytest.mark.parametrize("p,v,delta,e", [
        (3, 4, 2, 1), (3, 4, 2, 2), (5, 4, 2, 2), (3, 5, 2, 2),
        (5, 4, 3, 2)])
    def test_tight_threshold_ranks_only_m_e(self, p, v, delta, e):
        # at every level the first zero column is at m_e + 1, so one rank
        # per level settles m_e
        ring = diagonal_hypersurface(p, v, delta)
        m_threshold(ring, e)
        assert set(ring._b_cache) == {(k, m_threshold(ring, k))
                                      for k in range(1, e + 1)}

    def test_loose_threshold_pays_one_rank_at_w_minus_1(self):
        # x^2 + y^2 + z^2 at p = 7: m_1 = 3 with its first zero column at
        # w = 5, so level 1 ranks 4 and bisects 2 and 3 below it.  m_2 = 24
        # in the window [15, 27]: no zero column up to 28, so hi = 27 is
        # ranked; it is nonzero, so 28 is not, and the bisection of
        # [15, 27) ranks 20, 23, 25 and 24
        ring = diagonal_hypersurface(7, 3, 2)
        assert m_threshold(ring, 2) == 24
        assert sorted(ring._b_cache) == [
            (1, 2), (1, 3), (1, 4),
            (2, 20), (2, 23), (2, 24), (2, 25), (2, 27)]

    @pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 1)])
    def test_quadric_threshold(self, p, e):
        ring = diagonal_hypersurface(p, 4, 2)
        assert m_threshold(ring, e) == p ** e - 1

    def test_cubic_thresholds_frozen(self, cubic_p5):
        assert m_threshold(cubic_p5, 1) == FROZEN["cubic_p5_e1_m"]
        assert m_threshold(cubic_p5, 2) == FROZEN["cubic_p5_e2_m"]
        assert m_threshold(diagonal_hypersurface(7, 4, 3), 1) \
            == FROZEN["cubic_p7_e1_m"]

    def test_failed_sketch_of_tall_block_goes_exact(self):
        # Phi_{3,13} of this F-split cubic over F_3 is one block of 560
        # nonzero rows and 274 columns: its sketch (338 rows) fails its
        # check, so the block is eliminated exactly
        assert b_dimension(f_split_cubic(), 3, 13) == 274
        assert m_threshold(f_split_cubic(), 3) \
            == profile(f_split_cubic(), 3).m_e == 13

    def test_quadric_surface_level_3(self, monkeypatch):
        # m_3 = 5^3 - 1 for the p=5 quadric surface, certified by one rank
        # per level; the rank at m = 124 has a largest block of 43680 x
        # 2016 with 6.4 M entries (the CI workflow also bounds this call's
        # peak RSS).  Level 4's window [616, 624] passes the side cap
        # nowhere, so it is refused before G^(624) is powered
        ring = diagonal_hypersurface(5, 4, 2)
        assert m_threshold(ring, 3) == 124
        assert set(ring._b_cache) == {(1, 4), (2, 24), (3, 124)}

        def unpowered(*args):
            raise AssertionError("G^(q-1) was powered")
        monkeypatch.setattr(splitting, "digit_power", unpowered)
        with pytest.raises(InstanceTooLarge, match="at m=616: .* side cap"):
            m_threshold(ring, 4)
        assert set(ring._b_cache) == {(1, 4), (2, 24), (3, 124)}
        assert sorted(ring._levels) == [1, 2, 3]

    def test_window_over_the_caps_refused_unpowered(self, monkeypatch):
        # the F_3 quadric surface at e = 6: levels 1 to 4 give m_4 = 80,
        # and level 5's window [238, 242] passes the side cap nowhere, so
        # it is refused before level 5 is powered
        ring = diagonal_hypersurface(3, 4, 2)
        powered, power = [], splitting.digit_power

        def counted(G, e):
            powered.append(e)
            return power(G, e)
        monkeypatch.setattr(splitting, "digit_power", counted)
        with pytest.raises(InstanceTooLarge, match="at m=238: .* side cap"):
            m_threshold(ring, 6)
        assert sorted(powered) == [1, 2, 3, 4]
        assert m_threshold(ring, 4) == 80

    def test_exponents_past_int16(self):
        # G^(p-1) = (x0 x1)^40008 has exponents past 2^15; x0 is a zero
        # column at degree 1, so no rank is computed
        F = PrimeField(40009)
        ring = GradedHypersurface(F, ("x0", "x1", "x2"),
                                  PolynomialFp(F, 3, {(1, 1, 0): 1}))
        assert fedder_is_fsplit(ring, 1)
        assert m_threshold(ring, 1) == 0
        assert not ring._b_cache
        # a basis of degree past 2^15 keeps its exponents
        line = GradedHypersurface(F, ("x0", "x1"),
                                  PolynomialFp(F, 2, {(1, 0): 1}))
        assert line.restricted_basis(40000).tolist() == [[0, 40000]]

    def test_not_fsplit_raises(self):
        with pytest.raises(ValidationError, match="not F-split"):
            m_threshold(elliptic_cone(5), 1)


class TestProfile:
    def test_quadric_p3_e1(self, quadric_p3):
        pr = profile(quadric_p3, 1)
        assert pr.b == FROZEN["quadric_p3_e1_b"]
        assert pr.m_e == FROZEN["quadric_p3_e1_m"]
        assert pr.a_e == FROZEN["quadric_p3_e1_a"]
        assert pr.alpha_e == Fraction(2, 3)
        assert pr.alpha_upper == Fraction(3, 2)
        assert pr.s_raw == Fraction(19, 27)
        assert pr.duality_ok
        assert pr.monotone_ok is None

    def test_cached_ranks_are_not_checked_again(self, monkeypatch):
        # the threshold caches the rank at m_1 = 2; a refused profile adds
        # no rank to it, and the profile's cap checks skip it
        ring = diagonal_hypersurface(3, 4, 2)
        m_threshold(ring, 1)
        assert set(ring._b_cache) == {(1, 2)}
        with pytest.raises(InstanceTooLarge, match="work cap"):
            with monkeypatch.context() as patch:
                patch.setattr(splitting, "WORK_CAP", 0.0)
                profile(ring, 1)
        assert set(ring._b_cache) == {(1, 2)}
        checked = TestThresholds.spy_caps(monkeypatch)
        assert profile(ring, 1).b == FROZEN["quadric_p3_e1_b"]
        assert checked == [0, 1, 3, 4]

    @pytest.mark.parametrize("ring,e,failing", [
        pytest.param(lambda: diagonal_hypersurface(5, 4, 2), 2, 0,
                     id="Q2-p5-e2"),
        pytest.param(lambda: diagonal_hypersurface(101, 3, 2), 1, 0,
                     id="conic-p101"),
        # these two hold two real failing sketches each (m = 12 and 13 of
        # the cubic, m = 26 and 27 of the ungraded quadric), so the exact
        # fallback runs among the blocks of a whole level
        pytest.param(f_split_cubic, 3, 2, id="cubic-p3-e3"),
        pytest.param(ungraded_quadric, 3, 2, id="ungraded-e3")])
    def test_level_batches_match_degrees(self, ring, e, failing,
                                         monkeypatch):
        # a profile ranks the blocks of every degree in shared batches; its
        # b-values, and every engine call's (rank, K) and check verdict,
        # are those of one b_dimension per degree on a fresh ring
        def digest(A):
            A = np.ascontiguousarray(A)
            return hashlib.sha1(str((A.dtype, A.shape)).encode()
                                + A.tobytes()).hexdigest()

        calls = Counter()
        batched = splitting.kernel_fp_batched

        def spied_batched(mats, p):
            keys = [digest(A) for A in mats]
            out = batched(mats, p)
            calls.update((k, r, digest(K)) for k, (r, K) in zip(keys, out))
            return out
        monkeypatch.setattr(splitting, "kernel_fp_batched", spied_batched)
        for name in ("kernel_fp_dense", "rank_fp_dense", "_kernel_verifies"):
            def spied(*args, name=name, engine=getattr(splitting, name)):
                key = digest(args[1] if name == "_kernel_verifies"
                             else args[0])
                out = engine(*args)
                calls[name, key, out if isinstance(out, (bool, int))
                      else (out[0], digest(out[1]))] += 1
                return out
            monkeypatch.setattr(splitting, name, spied)
        pr = profile(ring(), e)
        by_level, calls = calls, Counter()
        fresh = ring()
        assert pr.b == [b_dimension(fresh, e, m) for m in range(pr.M_e + 1)]
        assert by_level == calls
        assert len(calls) > pr.M_e
        assert sum(n for key, n in calls.items()
                   if key[0] == "_kernel_verifies" and key[2] is False) \
            == failing

    def test_level_batches_in_bounded_memory(self):
        # the whole level of the p=5 quadric surface at e=2 holds one
        # pending batch at a time: about 3.3 MiB of traced peak, against
        # 2.4 MiB when each degree was batched on its own
        ring = diagonal_hypersurface(5, 4, 2)
        level = ring.level(2)
        level.masks, level.aw  # the level's tables are not the batches'
        tracemalloc.start()
        try:
            pr = profile(ring, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pr.a_e == 10425
        assert peak < 5 * 2 ** 20

    def test_chained_monotonicity_flag(self, cubic_p5):
        pr1 = profile(cubic_p5, 1)
        pr2 = profile(cubic_p5, 2, prev=pr1)
        assert pr2.monotone_ok is True
        with pytest.raises(ValidationError):
            profile(cubic_p5, 1, prev=pr1)  # wrong level chain
        # a wrong chain is refused before the level is ranked
        ring = diagonal_hypersurface(5, 4, 3)
        with pytest.raises(ValidationError, match="previous profile is "
                           "level 2, expected 1"):
            profile(ring, 2, prev=pr2)
        assert not any(e == 2 for e, _ in ring._b_cache)

    def test_free_rank_matches_profile_sum(self, cubic_p5):
        assert profile(cubic_p5, 1).a_e == FROZEN["cubic_p5_e1_a"]
        assert profile(cubic_p5, 2).a_e == FROZEN["cubic_p5_e2_a"]

    def test_non_fano_rejected(self):
        quartic = diagonal_hypersurface(5, 4, 4)
        with pytest.raises(ValidationError, match="non-Fano"):
            profile(quartic, 1)


class TestFedderAndMembership:
    def test_elliptic_cone_booleans(self):
        assert fedder_is_fsplit(elliptic_cone(5), 1) \
            == FROZEN["elliptic_cone_p5_split"]
        assert fedder_is_fsplit(elliptic_cone(7), 1) \
            == FROZEN["elliptic_cone_p7_split"]

    def test_diagonal_always_split(self, quadric_p3, cubic_p5):
        assert fedder_is_fsplit(quadric_p3, 1)
        assert fedder_is_fsplit(cubic_p5, 1)
        assert fedder_is_fsplit(cubic_p5, 2)

    def test_membership_consistency_with_dimension(self, cubic_p5):
        # x0 in degree 1: I_1(1) = 0, so not a member
        F = cubic_p5.field
        x0 = PolynomialFp(F, 4, {(1, 0, 0, 0): 1})
        assert membership_check(cubic_p5, 1, x0).member is False
        # x0^2 in degree 2 is the classical member
        x0sq = PolynomialFp(F, 4, {(2, 0, 0, 0): 1})
        res = membership_check(cubic_p5, 1, x0sq)
        assert res.member is True
        assert not res.in_principal_ideal

    def test_membership_flags_principal_ideal(self, cubic_p5):
        res = membership_check(cubic_p5, 1, cubic_p5.G)
        assert res.in_principal_ideal

    def test_membership_rejects_inhomogeneous(self, cubic_p5):
        F = cubic_p5.field
        bad = PolynomialFp(F, 4, {(1, 0, 0, 0): 1, (2, 0, 0, 0): 1})
        with pytest.raises(ValidationError):
            membership_check(cubic_p5, 1, bad)


class TestFanoReport:
    def test_quadric_bound_and_volume(self, quadric_p3):
        fr = fano_report(quadric_p3, 1)
        assert fr.volume == 8
        assert fr.bound == Fraction(1, 3)
        assert fr.coindex == 2

    def test_cubic_conclusive_below_half(self, cubic_p5):
        fr = fano_report(cubic_p5, 2)
        assert fr.alpha_normalized_upper[1] == Fraction(
            FROZEN["cubic_p5_e2_m"] + 1, 24)
        assert fr.conclusive_below_half
        assert fr.slack_above_half == 0
        # coindex 1: the halved-sum estimator is emitted
        assert fr.s_half_normalized is not None

    def test_non_fano_rejected(self):
        with pytest.raises(ValidationError, match="non-Fano"):
            fano_report(diagonal_hypersurface(5, 4, 4), 1)
