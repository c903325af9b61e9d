"""Graded splitting subspaces I_e(m) of a normal graded hypersurface ring
R = F_p[x_0..x_{v-1}]/(G), thresholds m_e, alpha estimates and rigorous
upper bounds, free ranks a_e, F-signature estimates, and the duality /
monotonicity / Fano-bound checks.

The degree-m piece of the level-e splitting ideal is the kernel of

    Phi_{e,m}: S_m -> span{monomials of degree m + delta*(q-1), all
                           exponents <= q-1},
    f |-> f * G^(q-1) with monomials divisible by some x_i^q deleted,

so b_e(m) = dim R_m - dim I_e(m) = rank Phi_{e,m}.  Since the kernel
contains G*S_{m-delta}, the columns can be restricted to the monomials not
divisible by the leading term of G without changing the rank; that cuts the
column count from dim S_m to dim R_m.

Phi_{e,m} is block diagonal for the grading of the monomials by their
class modulo the lattice of exponent differences of G, so its rank is the
sum of the ranks of its blocks, each certified on its own.

Rank strategy: blocks in one orbit of the symmetries of G have equal rank,
so only the first block of each orbit is ranked, and its certified rank
counts once for every block of the orbit.  A symmetry is a permutation
sigma of the variables (w -> w[sigma] on exponent vectors) with
sigma(supp G) = supp G and G(t * sigma x) = lambda * G(x) for a torus
rescaling t over the algebraic closure of F_p.  Then f -> f(t * sigma x)
maps class [u] mod L onto [sigma u], G * S_{m-delta} onto itself and the
deleted monomials onto deleted monomials, so the blocks of [u] and
[sigma u] agree up to invertible row and column scalings: rank does not
change under field extension, and the restricted columns of a class span a
complement of its part of G * S_{m-delta}, since reduction by G stays in a
class.  Such t and lambda exist when the exponent vectors of G are
linearly independent; otherwise the coefficients must agree after sigma up
to one global scalar (t = 1).  The symmetries are searched once per ring,
for v <= 7, by the first layout of a Phi that splits.  The duality
b(m) = b(M_e - m) is never used.

One loop certifies every ranked block (_certify).  A block at most twice as
tall as wide that fits DENSE_CELLS is eliminated exactly.  A taller or
larger block is compressed by a seeded hash of its rows' colex ranks into a
sketch with _SPARE rows more than columns, unless the built block, without
its zero rows, is no taller than that sketch.  Sketch rank = column count
is a proof of full column rank; otherwise the sketch's kernel basis is
verified against the true block, built from its nonzero entries in dense
row chunks, which certifies the exact rank.  A block whose sketch fails its
check is eliminated exactly, or refused (InstanceTooLarge) when it passes
DENSE_CELLS, so every returned value is certified.
A block's width alone picks its engine: blocks with at most 128 nonzero
columns are eliminated together, one vectorized step per column of the
widest (kernel_fp_batched); wider blocks go one at a time through the
BLAS-blocked engine (rank_fp_dense, kernel_fp_dense).  A profile hands the
blocks of every degree of its level to one _certify call, which takes them
widest first, so that each batch holds blocks of similar width from many
degrees; a batch is ranked once its zero-padded stack (blocks x widest x
tallest) plus the nonzeros it holds for kernel checks pass _BATCH_CELLS, so
one batch is pending at a time.

Every degree of a level reads one _Level, built once per ring and level.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InstanceTooLarge, InternalCheckError, ValidationError
from .ffkernel import (
    _EXACT,
    PolynomialFp,
    PrimeField,
    _batch_dtype,
    _divide_keys,
    _dtype_for,
    _place_values,
    digit_power,
    exponent_array,
    kernel_fp_batched,
    kernel_fp_dense,
    level_q,
    n_monomials,
    n_monomials_capped,
    rank_fp_dense,
)

#: refuse matrices with a side beyond this (desk-scale guarantee)
MAX_MATRIX_SIDE = 5 * 10 ** 5

#: dense materialization limit in matrix cells
DENSE_CELLS = 5 * 10 ** 7

#: cap on estimated elimination work (floating operations) per rank
WORK_CAP = 2.0 * 10 ** 11

#: blocks with more than this many rows per column are sketched
_TALL = 2

#: blocks with at most this many nonzero columns are ranked in one batch
_BATCH_COLS = 128

#: padded stack cells (blocks x widest x tallest) plus held nonzeros at
#: which a batch is ranked and released
_BATCH_CELLS = 1 << 17

#: rows of a sketch beyond its column count
_SPARE = 64

#: the symmetries of G are searched among the v! permutations up to this v
_SYMMETRY_VARS = 7

_HASH_A = np.uint64(0x9E3779B97F4A7C15)
_HASH_B = np.uint64(0xBF58476D1CE4E5B9)


class GradedHypersurface:
    """The graded ring R = F_p[x_0..x_{v-1}]/(G) for homogeneous G."""

    def __init__(self, field: PrimeField, names: Sequence[str],
                 G: PolynomialFp):
        if G.field != field:
            raise ValidationError("G is not defined over the given field")
        if any(a >= 2 ** 63 for exps in G.terms for a in exps):
            raise InstanceTooLarge("exponent too large: >= 2^63 in G")
        if G.is_zero():
            raise ValidationError("G must be nonzero")
        delta = G.homogeneous_degree
        if delta is None:
            raise ValidationError("G must be homogeneous")
        if delta < 1:
            raise ValidationError("G must have positive degree")
        if len(names) != G.nvars:
            raise ValidationError(
                f"{len(names)} variable names for {G.nvars} variables")
        self.field = field
        self.names = tuple(names)
        self.G = G
        self.v = G.nvars
        self.delta = delta
        self.fano_coindex = self.v - delta
        exps = sorted(G.terms)
        self._w0 = np.array(exps[0], dtype=np.int64)
        self._lattice = _grading_lattice(exps)
        self._levels: dict[int, _Level] = {}
        self._b_cache: dict[tuple[int, int], int] = {}

    @functools.cached_property
    def _symmetries(self) -> list[tuple[int, ...]]:
        """Generators of the symmetries of G, searched by the first layout
        that splits into blocks, for v <= _SYMMETRY_VARS: a ring that never
        lays out a split Phi never pays the v! search."""
        if self._lattice is None or self.v > _SYMMETRY_VARS:
            return []
        return _symmetries(self.G, self._lattice)

    def dim_S(self, m: int) -> int:
        return n_monomials(self.v, m) if m >= 0 else 0

    def dim_R(self, m: int) -> int:
        if m < 0:
            return 0
        return self.dim_S(m) - self.dim_S(m - self.delta)

    def level(self, e: int) -> _Level:
        """The _Level of e, built on first use and kept."""
        if e not in self._levels:
            self._levels[e] = _Level(self, e)
        return self._levels[e]

    def restricted_basis(self, m: int) -> np.ndarray:
        """Degree-m monomials not divisible by the leading term of G, as an
        (n x v) array in graded-colex order, in the smallest unsigned dtype
        that holds m.  These monomials descend to a basis of R_m.  The
        monomials are enumerated and filtered in bounded chunks."""
        lt = np.array(self.G.leading_term()[0])
        basis = np.concatenate([
            mons[(mons < lt).any(axis=1)].astype(np.min_scalar_type(m))
            for mons in _exponent_chunks(self.v, m, m)])
        if basis.shape[0] != self.dim_R(m):
            raise InternalCheckError(
                f"basis bookkeeping: {basis.shape[0]} restricted monomials at "
                f"degree {m}, binomial formula gives {self.dim_R(m)}")
        return basis

    def __repr__(self) -> str:
        return (f"GradedHypersurface(p={self.field.p}, v={self.v}, "
                f"delta={self.delta})")


def diagonal_hypersurface(p: int, v: int, delta: int) -> GradedHypersurface:
    """Convenience constructor for x_0^delta + ... + x_{v-1}^delta."""
    field = PrimeField(p)
    terms = {}
    for i in range(v):
        e = [0] * v
        e[i] = delta
        terms[tuple(e)] = 1
    names = tuple(f"x{i}" for i in range(v))
    return GradedHypersurface(field, names, PolynomialFp(field, v, terms))


# ---------------------------------------------------------------------------
# the grading that splits Phi into blocks
#
# Let L be the lattice spanned by the differences of the exponent vectors in
# supp G.  Every term of G^(q-1) lies in (q-1)*w0 + L, and deleting the
# monomials divisible by some x_i^q acts one monomial at a time, so the
# column of u meets only rows r with r - (q-1)*w0 = u (mod L).  Grouping
# the columns by their class in Z^v/L and the rows by the class of
# r - (q-1)*w0 makes Phi block diagonal; its rank is the sum of the ranks of
# the blocks.

def _grading_lattice(exps: list[tuple[int, ...]]):
    """An integer echelon basis of L as (pivot column, row) pairs with
    positive pivots, or None when L has index 1 in the degree-0 lattice,
    i.e. when every degree is a single class."""
    v = len(exps[0])
    rows = [[a - b for a, b in zip(w, exps[0])] for w in exps[1:]]
    basis = []
    for c in range(v):
        rows = [r for r in rows if any(r)]
        live = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(live) > 1:  # Euclid on column c
            live.sort(key=lambda r: abs(r[c]))
            piv = live[0]
            reduced = [[a - (r[c] // piv[c]) * b for a, b in zip(r, piv)]
                       for r in live[1:]]
            rows += [r for r in reduced if not r[c]]
            live = [piv] + [r for r in reduced if r[c]]
        if live:
            piv = live[0] if live[0][c] > 0 else [-a for a in live[0]]
            basis.append((c, np.array(piv, dtype=np.int64)))
    if len(basis) == v - 1 and all(row[c] == 1 for c, row in basis):
        return None
    return basis


# ---------------------------------------------------------------------------
# the symmetries of G, whose orbits of blocks have equal ranks

def _symmetries(G: PolynomialFp, lattice) -> list[tuple[int, ...]]:
    """Generators of the group of symmetries of G (see the rank strategy
    above), found among the permutations that keep each variable's
    multiset of exponents; lattice is G's grading lattice."""
    exps = sorted(G.terms)
    v, p = G.nvars, G.field.p
    index = {w: t for t, w in enumerate(exps)}
    c = [G.terms[w] for w in exps]
    free = len(exps) == 1 + len(lattice)  # linearly independent exponents
    columns = [sorted(w[i] for w in exps) for i in range(v)]
    group = []
    for perm in itertools.permutations(range(v)):
        if any(columns[j] != columns[i] for i, j in enumerate(perm)):
            continue
        img = [index.get(tuple(w[j] for j in perm)) for w in exps]
        if None in img:
            continue
        if free or all(c[s] * c[0] % p == ct * c[img[0]] % p
                       for s, ct in zip(img, c)):
            group.append(perm)
    # greedy generators: a permutation joins when the ones before it do
    # not generate it
    gens, span = [], {tuple(range(v))}
    for perm in group:
        if perm in span:
            continue
        gens.append(perm)
        frontier = list(span)
        while frontier:
            new = {tuple(a[j] for j in g) for a in frontier for g in gens}
            frontier = list(new - span)
            span |= new
    return gens


def _class_labels(ring: GradedHypersurface, X: np.ndarray) -> np.ndarray:
    """Label each row of X by its class modulo L; labels number the classes
    in the lexicographic order of their canonical representatives."""
    R = X.astype(np.int64)
    for c, row in ring._lattice:
        R -= (R[:, c] // row[c])[:, None] * row
    # mixed-radix codes, most significant coordinate first, compressed to
    # dense ranks whenever the next digit could overflow int64
    labels = np.zeros(R.shape[0], dtype=np.int64)
    size = 1
    for col in R.T:
        if col.size == 0:
            break
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if size * span >= 2 ** 62:
            size, labels = _dense_ranks(labels)
        labels = labels * span + (col - lo)
        size *= span
    return _dense_ranks(labels)[1]


def _dense_ranks(codes: np.ndarray) -> tuple[int, np.ndarray]:
    distinct, ranks = np.unique(codes, return_inverse=True)
    return distinct.size, ranks.reshape(-1)


# ---------------------------------------------------------------------------
# the exponent vectors of one degree: counted, enumerated in chunks, ranked
#
# Colex order compares exponent vectors from the last exponent down.  Let
# N_i(t) count the vectors of degree t in the first i variables with every
# exponent <= cap, P_i(t) = N_i(0) + ... + N_i(t), and a_i = x_0 + ... +
# x_{i-1} (so a_v = D).  The degree-D vectors before x in colex order that
# agree with x past coordinate i and are smaller at i number P_i(a_{i+1}) -
# P_i(a_i); the colex rank of x is their sum over i = 0..v-1 (the term of
# i = 0 is 0), which regroups as P_{v-1}(D) - 1 + R_1(a_1) + ... +
# R_{v-1}(a_{v-1}) with R_i = P_{i-1} - P_i.

#: exponent vectors enumerated per chunk of a basis or of a layout's targets
_ENUM_ROWS = 1 << 14


@functools.lru_cache(maxsize=8)
def _colex_tables(v: int, D: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """P and R for the degree-D vectors of v variables with every exponent
    <= cap: P[i, t] = P_i(t) for 0 <= i < v, and R[i - 1, a] = R_i(a) for
    1 <= i < v, with 0 <= t, a <= D.  Built once per degree; int64 holds
    every count while q^v < 2^63, which _check_caps enforces.  Shared by
    every caller, so read-only."""
    P = np.empty((v, D + 1), dtype=np.int64)
    N = np.zeros(D + 1, dtype=np.int64)
    N[0] = 1
    for i in range(v):
        P[i] = np.cumsum(N)
        # N_{i+1}(t) = P_i(t) - P_i(t - cap - 1)
        N = P[i].copy()
        N[cap + 1:] -= P[i, :D - cap]
    R = P[:-1] - P[1:]
    P.flags.writeable = R.flags.writeable = False
    return P, R


def _exponent_chunks(v: int, D: int, cap: int):
    """The degree-D vectors of v variables with every exponent <= cap, in
    colex order, as int64 chunks of runs of the last exponent: a chunk
    starts at every run that begins past a multiple of _ENUM_ROWS vectors,
    and the whole set is one chunk when it fits.  D >= 0."""
    if n_monomials_capped(v, D, cap) <= _ENUM_ROWS:
        yield exponent_array(v, D, cap)
        return
    P, _ = _colex_tables(v, D, cap)
    k = np.arange(min(D, cap) + 1)
    per_last = P[v - 1, D - k] - np.where(k < D, P[v - 1, D - k - 1], 0)
    group = (np.cumsum(per_last) - per_last) // _ENUM_ROWS
    firsts = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
    for lo, hi in zip(firsts, firsts[1:] + [k.size]):
        yield exponent_array(v, D, cap, last=range(lo, hi))


class _Layout(NamedTuple):
    """The columns of Phi_{e,m} and how they split into blocks: the
    restricted basis of degree m and, for each block, its (row bound,
    column count), the indices of its columns into the basis and its
    weight: the size of its symmetry orbit for the orbit's first block, 0
    for the others, whose equal rank that weight counts.  Counted from the
    monomials; Phi is not built.  The row bound counts every reduced target
    monomial of the block's class.  Blocks come in the lexicographic order
    of the canonical representatives of their classes."""

    basis: np.ndarray
    shapes: list[tuple[int, int]]
    columns: list[np.ndarray]
    weights: list[int]


def _layout(ring: GradedHypersurface, e: int, m: int) -> _Layout:
    """The layout of Phi_{e,m}, built from a fresh restricted basis: the
    basis and its class labels serve both the work estimate and the rank.
    The target monomials are counted per class in chunks (_exponent_chunks):
    the first chunk is labelled together with the basis, each later one
    with one column of every class, since a target of a class with no
    column meets no block."""
    q = ring.field.p ** e
    D = m + ring.delta * (q - 1)
    basis = ring.restricted_basis(m)
    cols = basis.shape[0]
    rows = n_monomials_capped(ring.v, D, q - 1)
    if ring._lattice is None or rows == 0 or cols == 0:
        return _Layout(basis, [(rows, cols)], [np.arange(cols)], [1])
    shift = (q - 1) * ring._w0
    chunks = _exponent_chunks(ring.v, D, q - 1)
    labels = _class_labels(ring, np.concatenate([basis, next(chunks) - shift]))
    ncls = int(labels.max()) + 1
    col_labels = labels[:cols]
    per_col = np.bincount(col_labels, minlength=ncls)
    per_row = np.bincount(labels[cols:], minlength=ncls)
    order = np.argsort(col_labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(per_col)))
    live = np.flatnonzero(per_col)
    firsts = basis[order[bounds[live]]]
    per_row = per_row[live]
    for targets in chunks:
        targets -= shift
        labels = _class_labels(ring, np.concatenate([firsts, targets]))
        block = np.full(int(labels.max()) + 1, live.size)
        block[labels[:live.size]] = np.arange(live.size)
        per_row += np.bincount(block[labels[live.size:]],
                               minlength=live.size + 1)[:live.size]
    shapes = list(zip(per_row.tolist(), per_col[live].tolist()))
    return _Layout(basis, shapes,
                   [order[bounds[c]:bounds[c + 1]] for c in live],
                   _orbit_weights(ring, firsts, shapes))


def _orbit_weights(ring: GradedHypersurface, firsts: np.ndarray,
                   shapes: list[tuple[int, int]]) -> list[int]:
    """Block weights from the orbits of the blocks under ring._symmetries,
    given the first column of each block (whose class is the block's)."""
    n = len(shapes)
    perms = np.array(ring._symmetries, dtype=np.intp).reshape(-1, ring.v)
    images = firsts[:, perms].reshape(-1, ring.v)
    labels = _class_labels(ring, np.concatenate([firsts, images]))
    block = np.full(int(labels.max()) + 1, -1)
    block[labels[:n]] = np.arange(n)
    image = block[labels[n:]].reshape(n, len(perms))
    counted = np.array(shapes).reshape(n, 2)
    bad = (image < 0) | (counted[image] != counted[:, None]).any(axis=2)
    if bad.any():
        k = int(np.argwhere(bad)[0, 0])
        raise InternalCheckError(
            f"orbit bookkeeping: a symmetry of G maps block {k}, counted "
            f"{shapes[k]}, to no block of the same counted shape")
    # the generators of a finite group reach a block's whole orbit, so
    # each block ends up labelled by the first block of its orbit
    orbit = np.arange(n)
    while True:
        first = np.minimum(orbit, orbit[image].min(axis=1, initial=n))
        if (first == orbit).all():
            break
        orbit = first
    return np.bincount(orbit, minlength=n).tolist()


# ---------------------------------------------------------------------------
# matrix construction

#: bitset cells (columns x 64-term words) scanned per chunk
_SCAN_WORDS = 1 << 16

#: unpacked bitset cells (columns x terms) per chunk of a block's entries
_ENTRY_CELLS = 1 << 15

#: entries of a block that a sketch accumulates per chunk
_SKETCH_ENTRIES = 1 << 16

#: largest term-mask table built for one level
_TERM_MASK_BYTES = 1 << 28


class _Level:
    """What every degree of level e of a ring reads: q = p^e and the terms
    of G^(q-1) with every exponent <= q - 1, the only ones a product with a
    monomial can keep, sorted, as an exponent matrix W (T x v, in the
    smallest unsigned dtype that holds q - 1) and a coefficient vector cw
    (in the smallest unsigned dtype that holds p - 1).  The term masks and
    the prefix sums aw are formed on first use, so fedder_is_fsplit forms
    neither, and a degree that _check_caps refuses never reaches the level."""

    def __init__(self, ring: GradedHypersurface, e: int):
        self.p = p = ring.field.p
        self.v = ring.v
        self.delta = ring.delta
        self.e = e
        self.q = q = level_q(p, e)
        exps, coeffs = digit_power(ring.G, e).arrays
        keep = exps.max(axis=1) < q
        exps, coeffs = exps[keep], coeffs[keep]
        order = np.lexsort(exps.T[::-1])
        self.W = exps[order].astype(np.min_scalar_type(q - 1))
        self.cw = coeffs[order].astype(np.min_scalar_type(p - 1))

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """Bitsets over the terms W: bit t of row [i, c] is set when the
        exponent of x_i in term t is <= c, for 0 <= c < q."""
        nbytes = 8 * -(-self.W.shape[0] // 64)
        if self.v * self.q * nbytes > _TERM_MASK_BYTES:
            raise InstanceTooLarge(
                f"power too large: scanning {self.W.shape[0]} terms of "
                f"G^(q-1) at q={self.q} needs more than "
                f"{_TERM_MASK_BYTES} bytes of term masks")
        masks = np.zeros((self.v, self.q, nbytes), dtype=np.uint8)
        # rows in chunks of at most _ENTRY_CELLS unpacked cells
        step = max(1, _ENTRY_CELLS // max(1, self.W.shape[0]))
        for i in range(self.v):
            for c in range(0, self.q, step):
                bound = np.arange(c, min(c + step, self.q))[:, None]
                bits = np.packbits(self.W[:, i] <= bound, axis=1,
                                   bitorder="little")
                masks[i, c:c + step, :bits.shape[1]] = bits
        return masks.view(np.uint64)

    @functools.cached_property
    def aw(self) -> np.ndarray:
        """The a_i of the terms: aw[i - 1, t] = W[t, 0] + ... + W[t, i - 1]
        for 1 <= i < v."""
        return np.cumsum(self.W[:, :-1], axis=1, dtype=np.intp).T


def _column_scan(level: _Level, U: np.ndarray):
    """For chunks of the columns U (n x v), the terms w of G^(q-1) with
    u + w <= q - 1, as (first column, bitset rows over the terms)."""
    masks = level.masks
    chunk = max(1, _SCAN_WORDS // max(level.v, masks.shape[2]))
    for j0 in range(0, U.shape[0], chunk):
        room = (level.q - 1) - U[j0:j0 + chunk].astype(np.int64)
        # a column with a negative room has no valid product at all
        dead = (room < 0).any(axis=1)
        np.maximum(room, 0, out=room)
        acc = masks[0][room[:, 0]]
        for i in range(1, level.v):
            acc &= masks[i][room[:, i]]
        acc[dead] = 0
        yield j0, acc


def _has_zero_column(level: _Level, basis: np.ndarray) -> bool:
    """Whether some monomial u of the restricted basis of a degree m admits
    no valid product, i.e. u is a monomial witness for I_e(m) != 0.  Linear
    work, no rank, and no enumeration of the target monomials."""
    return any(not acc.any(axis=1).all()
               for _, acc in _column_scan(level, basis))


class _Block(NamedTuple):
    """The nonzero entries of one block of Phi, without its zero rows and
    zero columns: entry t sits at (rows[t], cols[t]) and has value vals[t];
    row i is the target of colex rank row_ranks[i] among the degree's
    targets, increasing in i.  Entries come column by column; rows and cols
    in the smallest unsigned dtype that holds the row and the column count,
    vals in the one that holds p - 1."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_ranks: np.ndarray


def _build_block(level: _Level, m: int, U: np.ndarray) -> _Block:
    """The block of Phi_{e,m} on the degree-m columns U (n x v): column j
    holds the coefficient of w in G^(q-1) at the row of U[j] + w, for every
    w with U[j] + w <= q - 1.

    The entries are unpacked from the column scan's bitsets in chunks of at
    most _ENTRY_CELLS cells, and each is stored as it arrives: its column
    (numbered by runs, since the columns come in order), its value, and the
    colex rank of its target among the degree-D monomials with every
    exponent <= q - 1, D = m + delta * (q - 1).  A hit mask over the ranks
    numbers the rows in colex order, and its hits are the row ranks."""
    q, v, W, cw, aw = level.q, level.v, level.W, level.cw, level.aw
    D = m + level.delta * (q - 1)
    P, R = _colex_tables(v, D, q - 1)
    count = n_monomials_capped(v, D, q - 1)
    # a_i of a target is a_i of its column plus a_i of its term; row i - 1
    # of au is offset into row i - 1 of R.flat
    au = np.cumsum(U[:, :-1], axis=1, dtype=np.intp).T \
        + np.arange(0, R.size, D + 1)[:, None]
    hit = np.zeros(count, dtype=bool)
    rank_type = np.min_scalar_type(max(count - 1, 0))
    col_type = np.min_scalar_type(U.shape[0])
    ranks, cols, vals = [], [], []
    ncols = 0
    step = max(1, _ENTRY_CELLS // max(1, W.shape[0]))
    for j0, acc in _column_scan(level, U):
        live = np.flatnonzero(acc.any(axis=1))
        for s in range(0, live.size, step):
            c = live[s:s + step]
            bits = np.unpackbits(acc[c].view(np.uint8), axis=1,
                                 count=W.shape[0], bitorder="little")
            j, t = np.nonzero(bits)
            idx = au.take(c.take(j) + j0, axis=1)
            idx += aw.take(t, axis=1)
            r = R.take(idx).sum(axis=0)
            r += P[v - 1, D] - 1
            hit[r] = True
            ranks.append(r.astype(rank_type))
            cols.append((j + (ncols + s)).astype(col_type))
            vals.append(cw[t])
        ncols += live.size
    if not ncols:  # every column is dead
        return _Block((0, 0), np.zeros(0, np.uint8), np.zeros(0, np.uint8),
                      cw[:0], np.zeros(0, np.intp))
    targets = np.flatnonzero(hit)
    nrows = targets.size
    lookup = np.empty(count, dtype=np.min_scalar_type(nrows))
    lookup[targets] = np.arange(nrows)
    rows = np.empty(sum(r.size for r in ranks), dtype=lookup.dtype)
    at = 0
    for k, r in enumerate(ranks):  # free each chunk once it is numbered
        rows[at:at + r.size] = lookup[r]
        at += r.size
        ranks[k] = None
    return _Block((nrows, ncols), rows,
                  np.concatenate(cols).astype(np.min_scalar_type(ncols),
                                              copy=False),
                  np.concatenate(vals), targets)


def _sketched(rows: int, cols: int) -> bool:
    """Whether a block of this shape takes the sketch path: too many cells
    to materialize, or so tall that a (cols + _SPARE)-row sketch is far
    cheaper than eliminating it."""
    return rows * cols > DENSE_CELLS or rows > _TALL * cols


def _estimate_flops(rows: int, cols: int) -> float:
    """Cubic elimination work estimate for the path a block takes."""
    if not _sketched(rows, cols):
        return min(rows, cols) * rows * cols / 3.0
    return float(cols) * cols * (cols + _SPARE) / 3.0


def _check_counts(ring: GradedHypersurface, q: int, m: int
                  ) -> tuple[int, int]:
    """The shape of Phi_{e,m} at q = p^e, refused when a side passes
    MAX_MATRIX_SIDE or its colex ranks (int64 counts up to q^v) could
    overflow.  Counted from binomials: nothing is enumerated."""
    cols = ring.dim_R(m)
    rows = n_monomials_capped(ring.v, m + ring.delta * (q - 1), q - 1)
    if cols > MAX_MATRIX_SIDE or rows > MAX_MATRIX_SIDE:
        raise InstanceTooLarge(
            f"instance too large at m={m}: matrix is {rows} x {cols}, side "
            f"cap {MAX_MATRIX_SIDE}")
    if q ** ring.v >= 2 ** 63:
        raise InstanceTooLarge(
            f"instance too large at m={m}: colex ranks of {ring.v} "
            f"exponents below q={q} count up to q^{ring.v} >= 2^63")
    return rows, cols


def check_level(ring: GradedHypersurface, e: int) -> int:
    """M_e = (q - 1)(v - delta), the last degree of the level-e profile,
    once the ring is Fano, q = p^e is below 2^63 (level_q), no target lies
    past M_e, and every degree 0..M_e passes _check_counts.  Counts only:
    G^(q-1) is not powered and no basis is built, so a level over the
    count caps is refused before any heavy work."""
    if ring.fano_coindex <= 0:
        raise ValidationError(
            f"non-Fano: profile needs v > delta (v-delta = "
            f"{ring.fano_coindex})")
    q = level_q(ring.field.p, e)
    M = (q - 1) * ring.fano_coindex
    # beyond M_e there is no reduced target monomial, so the b-values
    # up to M_e are the whole profile and a_e is their sum
    tail_rows = n_monomials_capped(ring.v, M + 1 + ring.delta * (q - 1),
                                   q - 1)
    if tail_rows != 0:
        raise InternalCheckError(
            f"tail not zero: {tail_rows} reduced targets at m={M + 1}")
    for m in range(M + 1):
        _check_counts(ring, q, m)
    return M


def _check_caps(ring: GradedHypersurface, e: int, m: int) -> _Layout:
    """The layout of Phi_{e,m}, refused before any block is built when its
    counts (_check_counts) or its work estimate pass a cap."""
    rows, cols = _check_counts(ring, level_q(ring.field.p, e), m)
    layout = _layout(ring, e, m)
    shapes = layout.shapes
    ranked = [s for s, w in zip(shapes, layout.weights) if w]
    est = sum(_estimate_flops(r, c) for r, c in ranked)
    if est > WORK_CAP:
        r, c = max(ranked, key=lambda s: _estimate_flops(*s))
        raise InstanceTooLarge(
            f"instance too large at m={m}: estimated {est:.2e} elimination "
            f"operations on a {rows} x {cols} matrix in {len(shapes)} "
            f"block(s), the largest {r} x {c}, exceeds the work cap "
            f"{WORK_CAP:.2e}")
    return layout


def b_dimension(ring: GradedHypersurface, e: int, m: int) -> int:
    """b_e(m) = dim R_m - dim I_e(m) = rank Phi_{e,m}.  Certified exact.
    The ring keeps the rank.  The level is taken only once the caps pass,
    so a refused degree never powers G^(q-1)."""
    if m < 0:
        raise ValidationError(f"degree must be >= 0, got {m}")
    key = (e, m)
    if key in ring._b_cache:
        return ring._b_cache[key]
    layout = _check_caps(ring, e, m)
    b = _certify(ring.level(e), [(m, layout)])[m]
    ring._b_cache[key] = b
    return b


def _certify(level: _Level, layouts: list[tuple[int, _Layout]]
             ) -> dict[int, int]:
    """For each (m, layout of Phi_{e,m}), the sum of the certified ranks of
    the ranked blocks, each counted its layout weight times.

    The ranked blocks of all the degrees are planned before any is built:
    widest counted shape first, so that the blocks of one batch have
    similar widths.  Each is built just before its engine call or just
    before it joins the one pending batch.  A block is sketched when its
    counted shape is _sketched and its built block has more than ncols +
    _SPARE nonzero rows; otherwise it is eliminated exactly.  The block's
    nonzero columns pick the engine: at most _BATCH_COLS go to
    kernel_fp_batched, ranked once the zero-padded stack (blocks x widest x
    tallest) plus the held nonzeros pass _BATCH_CELLS; wider blocks go one
    at a time to rank_fp_dense (exact) or kernel_fp_dense (sketch).  An
    exact block is densified tall (_dense) for either engine.  Pivots and
    reductions are per matrix, so a block's rank and kernel do not depend
    on its batch.  A full-rank sketch is a proof, and so is a sketch kernel
    that kills the true block; a block whose sketch fails its check is
    eliminated exactly by rank_fp_dense, or refused (InstanceTooLarge) when
    it passes DENSE_CELLS.  Every ranked block, from any engine, counts
    through settle alone.
    """
    p = level.p
    total = {m: 0 for m, _ in layouts}
    plan = sorted(((m, layout.basis, shape, idx, w) for m, layout in layouts
                   for shape, idx, w in zip(layout.shapes, layout.columns,
                                            layout.weights)
                   if w and shape[0] and shape[1]),
                  key=lambda block: -block[2][1])
    queue, held, widest, tallest = [], 0, 0, 0

    def settle(m, w, rank, K, true) -> None:
        """Count w times the certified rank at m; true holds the entries of
        the block that a sketch compresses, None for a block eliminated
        exactly."""
        if not (true is None or rank == K.shape[0]
                or _kernel_verifies(true, K, p)):
            nrows, ncols = true.shape
            if nrows * ncols > DENSE_CELLS:
                raise InstanceTooLarge(
                    f"instance too large at m={m}: the sketch of a {nrows} x "
                    f"{ncols} block failed its kernel check, and eliminating "
                    f"the block exactly passes the dense cap of {DENSE_CELLS} "
                    f"cells")
            rank = rank_fp_dense(_dense(true), p)
        total[m] += w * rank

    def flush() -> None:
        if not queue:  # the batched engine refuses large primes up front
            return
        ranks = kernel_fp_batched([A for _, _, A, _ in queue], p)
        for (m, w, _, true), rK in zip(queue, ranks):
            settle(m, w, *rK, true)

    for m, basis, (rows, cols), idx, w in plan:
        blk = _build_block(level, m, basis[idx])
        nrows, ncols = blk.shape
        if nrows > rows or idx.size != cols:
            raise InternalCheckError(
                f"block bookkeeping at e={level.e}, m={m}: built {nrows} x "
                f"{idx.size}, counted {rows} x {cols}")
        if nrows == 0:
            continue
        # the counted row bound holds every target of the class; only the
        # built rows tell whether the sketch is shorter than the block
        sketch = _sketched(rows, cols) and nrows > ncols + _SPARE
        # a wide block's matrix lives only as long as its engine call
        if ncols > _BATCH_COLS:
            if sketch:
                settle(m, w, *kernel_fp_dense(_sketch(level, m, blk), p), blk)
            else:
                settle(m, w, rank_fp_dense(_dense(blk), p), None, None)
            continue
        if sketch:
            A = _sketch(level, m, blk)
            # the check needs the entries, not the row ranks
            queue.append((m, w, A, blk._replace(row_ranks=None)))
            held += blk.vals.size
        else:
            A = _dense(blk)
            queue.append((m, w, A, None))
        widest, tallest = max(widest, A.shape[1]), max(tallest, A.shape[0])
        if len(queue) * widest * tallest + held > _BATCH_CELLS:
            flush()
            queue, held, widest, tallest = [], 0, 0, 0
    flush()
    return total


def _dense(blk: _Block) -> np.ndarray:
    """The block as a dense matrix, transposed when that makes it tall; the
    rank is the same.  Tall, it has min(rows, cols) columns, and the batched
    engine takes one step per column; the blocked engine ran as fast on
    either orientation (600-1100-column blocks at p=5)."""
    A = np.zeros(blk.shape, dtype=blk.vals.dtype)
    A[blk.rows, blk.cols] = blk.vals
    nrows, ncols = blk.shape
    return A.T if nrows < ncols else A


def _sketch(level: _Level, m: int, blk: _Block) -> np.ndarray:
    """Row compression of a block of Phi_{e,m}: every row's colex rank hashes
    it to one of ncols + _SPARE buckets with a nonzero coefficient.
    Deterministic in (block, e, m).  The entries are accumulated in chunks
    of _SKETCH_ENTRIES, each into the columns it spans, and reduced mod p
    there; every partial sum is an integer below p times the entry count
    plus p, exact in float64, so the chunking leaves S unchanged.  S is
    built in the dtype of the engine that ranks it (see _certify), which
    holds its residues exactly, so the engine need not copy it."""
    p = level.p
    ncols = blk.shape[1]
    r = ncols + _SPARE
    dtype = (_dtype_for(p) if ncols > _BATCH_COLS else _batch_dtype(p))[0]
    # the seed hashes (p, v, delta, e, m, 0); the trailing 0 is part of the
    # hashed tuple: dropping it would change every sketch
    h = 0xCBF29CE484222325
    for x in (p, level.v, level.delta, level.e, m, 0):
        h = ((h ^ x) * 0x100000001B3) % 2 ** 64
    sd = np.uint64(h)
    ranks = blk.row_ranks.astype(np.uint64)
    buckets = ((ranks * _HASH_A + sd) >> np.uint64(32)).astype(np.int64) % r
    mix = ((ranks * _HASH_B + sd) >> np.uint64(29)).astype(np.int64)
    coeffs = 1 + mix % (p - 1) if p > 2 else np.ones_like(mix)
    S = np.zeros((r, ncols), dtype=dtype)
    for t in range(0, blk.vals.size, _SKETCH_ENTRIES):
        rows = blk.rows[t:t + _SKETCH_ENTRIES]
        cols = blk.cols[t:t + _SKETCH_ENTRIES]
        lo, hi = int(cols.min()), int(cols.max()) + 1
        vals = blk.vals[t:t + _SKETCH_ENTRIES] * coeffs[rows] % p
        part = np.bincount(
            buckets[rows] * (hi - lo) + (cols - lo), weights=vals,
            minlength=r * (hi - lo)).reshape(r, hi - lo)
        part += S[:, lo:hi]
        S[:, lo:hi] = np.remainder(part, p, out=part)
    return S


#: cells of the true block built per dense row chunk of a kernel check
_CHECK_CELLS = 1 << 20


def _kernel_verifies(blk: _Block, K: np.ndarray, p: int) -> bool:
    """Exact check that every sketch-kernel vector kills the true block:
    A K = 0 (mod p) for the matrix A whose entries blk holds.  A is built in
    dense row chunks of at most _CHECK_CELLS cells (one row when a row is
    wider), and each chunk is multiplied by K with BLAS.

    Exact: every entry of A and of K lies in [0, p), so every partial sum
    that a product forms, in any order, is a sum of some of one row's
    non-negative products.  It is at most that row's total, and so at most
    longest * (p-1)^2 for the longest row's nonzero count.  Each float
    dtype of _EXACT holds every integer up to its cap: the chunks run in the
    first one whose cap holds that bound, and past float64's cap the check
    is refused before any work."""
    nrows, ncols = blk.shape
    longest = int(np.bincount(blk.rows, minlength=1).max())
    bound = longest * (p - 1) ** 2
    dtype = next((d for d, cap in _EXACT if bound <= cap), None)
    if dtype is None:
        raise InstanceTooLarge(
            f"prime too large: verifying a kernel over F_{p} against rows "
            f"of {longest} entries leaves the exact range of float64")
    K = K.astype(dtype)
    # at most nrows, so that row offsets stay in the dtype of blk.rows
    step = max(1, min(nrows, _CHECK_CELLS // ncols))
    nchunks = -(-nrows // step)
    # group the entries by chunk; chunk numbers of at most 16 bits sort in
    # linear time
    chunk = (blk.rows // step).astype(np.min_scalar_type(nchunks))
    order = np.argsort(chunk, kind="stable")
    ends = np.cumsum(np.bincount(chunk, minlength=nchunks))
    for c, t in enumerate(np.split(order, ends[:-1])):
        r0 = c * step
        D = np.zeros((min(step, nrows - r0), ncols), dtype=dtype)
        D[blk.rows[t] - r0, blk.cols[t]] = blk.vals[t]
        if np.fmod(D @ K, p).any():
            return False
    return True


# ---------------------------------------------------------------------------
# derived quantities

def fedder_is_fsplit(ring: GradedHypersurface, e: int) -> bool:
    """F-splitness at level e: I_e(0) = 0, i.e. G^(q-1) has a monomial with
    all exponents <= q-1."""
    return ring.level(e).W.shape[0] > 0


def _bisect(pred, below: int, above: int) -> int:
    """The least m in (below, above] with pred(m), for pred monotone on
    (below, above) and taken as true at above, where it is not called."""
    while above - below > 1:
        mid = (below + above) // 2
        below, above = (below, mid) if pred(mid) else (mid, above)
    return above


def m_threshold(ring: GradedHypersurface, e: int) -> int:
    """The largest m with I_e(m) = 0, searched in the window that the
    threshold m' = m_{e-1} of the level below leaves open, with m_0 = 0
    (I_0 is the maximal ideal), q' = p^(e-1) and m^[q] = (x_i^q):

        lo = p(m' + 1) - delta(p - 1) - 1 <= m_e <= p(m' + 1) - 1 = hi.

    Upper: I_{e-1}(m' + 1) != 0 holds an f outside (G) with f G^(q'-1) in
    m^[q'].  Then f^p G^(q-1) = (f G^(q'-1))^p G^(p-1) lies in m^[q], and
    f^p lies outside (G) in the domain R.  Criterion 6 checks this bound.
    Lower, by the Frobenius trace: S is free over S^p on the x^a with all
    a_i < p, h = sum_a x^a pi_a(h)^p, and x^a (x^b)^p lies in m^[q] exactly
    when x^b lies in m^[q'].  So f in S_m lies in I_e exactly when every
    pi_a(f G^(p-1)) lies in I_{e-1} (Fedder: I_e = (I_{e-1}^[p] : G^(p-1))).
    Their degrees are at most (m + delta(p - 1))/p, so at most m' when
    m <= lo, where I_{e-1} is zero: every pi_a lies in (G), f G^(p-1) in
    (G^p), and f in (G).  So I_e(m) = 0 for m <= lo.

    On a domain "I_e(m) != 0" is monotone in m (multiply by a linear form),
    and so are the monomial witnesses: if u is one at degree m and u_k <
    lt(G)_k, then for j != k every product of x_j u with a term of G^(q-1)
    keeps the exponent of u's product that passed q - 1.  Galloping up
    from max(lo, 1), then bisection, on the zero-column scans (linear work,
    no rank) find the first witness degree w up to hi + 1.  A rank with
    I_e(w - 1) = 0 settles m_e = w - 1 (Fedder settles w - 1 = 0); only
    otherwise does bisection search the ranks of [max(lo, 1), w - 1).  With
    no witness up to hi + 1, hi is ranked as w - 1 would be, and hi + 1 is
    ranked only when I_e(hi) = 0: it stands in for the witness, and when it
    is zero too, m_e lies above the window.

    So m_e is certified by a rank (or Fedder at 0), and m_e + 1 by a witness
    or a rank; the bounds only choose the probes, and an answer outside the
    window raises InternalCheckError.  For lo >= 1, a window none of whose
    degrees passes _check_counts is refused with lo's refusal before
    G^(q-1) is powered; a refused rank raises.  The ring keeps only the
    search's ranks and levels, the lower ones included.
    """
    p = ring.field.p
    q = level_q(p, e)  # refused first, so the levels below stay few
    top = p * (m_threshold(ring, e - 1) + 1) if e > 1 else p
    lo, hi = max(0, top - ring.delta * (p - 1) - 1), top - 1

    def refusal(m: int) -> InstanceTooLarge | None:
        try:
            _check_counts(ring, q, m)
        except InstanceTooLarge as err:
            return err

    if lo and all(refusal(m) for m in range(lo, hi + 1)):
        raise refusal(lo)
    if not fedder_is_fsplit(ring, e):
        raise ValidationError(f"not F-split at level e={e}")
    level = ring.level(e)
    level.masks  # a refused mask table raises before any scan

    def nonzero(m: int) -> bool:
        return b_dimension(ring, e, m) < ring.dim_R(m)

    def witness(m: int) -> bool:
        return _has_zero_column(level, ring.restricted_basis(m))

    start = max(lo, 1)
    below, w = start - 1, start
    while w <= hi + 1 and not witness(w):  # start, start + 1, start + 3, ...
        below, w = w, min(2 * w - start + 1, hi + 2)
    w = _bisect(witness, below, w)  # hi + 2: no witness up to hi + 1
    top = min(w, hi + 1)
    if top > start and nonzero(top - 1):
        w = _bisect(nonzero, start - 1, top - 1)
    elif w > hi + 1 and nonzero(hi + 1):
        w = hi + 1
    if w == lo or w > hi + 1:  # I_e(lo) != 0, or I_e(hi + 1) = 0
        raise InternalCheckError(
            f"m_e at level e={e} lies {'below' if w == lo else 'above'} "
            f"its window [{lo}, {hi}] from m_(e-1)")
    return w - 1


@dataclass
class SplittingProfile:
    """Level-e record of the b-profile and its derived invariants."""

    e: int
    q: int
    M_e: int
    b: list[int]  # b[m] for 0 <= m <= M_e
    m_e: int
    alpha_e: Fraction
    alpha_upper: Fraction
    a_e: int
    s_raw: Fraction
    duality_ok: bool
    monotone_ok: bool | None  # None without a previous level


def profile(ring: GradedHypersurface, e: int,
            prev: SplittingProfile | None = None,
            threads: int = 1) -> SplittingProfile:
    """Assemble the full level-e profile with its self-checks.

    The level passes check_level before G^(q-1) is powered, and every
    unranked degree passes _check_caps once before any rank, so a refusal
    leaves the ring as it was; the checked layouts then go to one _certify
    call, which ranks the blocks of the whole level together on the
    calling thread (BLAS may use its own threads), and the ranks join the
    ring's cache, from which b_dimension reads each degree.  threads is
    accepted and has no effect."""
    if prev is not None and prev.e != e - 1:
        raise ValidationError(
            f"previous profile is level {prev.e}, expected {e - 1}")
    M = check_level(ring, e)
    if not fedder_is_fsplit(ring, e):
        raise ValidationError(f"not F-split at level e={e}")
    q = ring.level(e).q
    ranks = _certify(ring.level(e), [(m, _check_caps(ring, e, m))
                                     for m in range(M + 1)
                                     if (e, m) not in ring._b_cache])
    ring._b_cache.update(((e, m), b) for m, b in ranks.items())
    b = [b_dimension(ring, e, m) for m in range(M + 1)]
    dims = [ring.dim_R(m) for m in range(M + 1)]
    # scan monotonicity: I_e(m) != 0 implies I_e(m+1) != 0
    for m in range(M):
        if dims[m] - b[m] > 0 and dims[m + 1] - b[m + 1] == 0:
            raise InternalCheckError(
                f"scan monotonicity failed: dim I_e({m}) = "
                f"{dims[m] - b[m]} but dim I_e({m + 1}) = 0 at level e={e}")
    m_e = 0
    while m_e + 1 <= M and b[m_e + 1] == dims[m_e + 1]:
        m_e += 1
    a_e = sum(b)
    monotone_ok: bool | None = None
    if prev is not None:
        monotone_ok = (prev.alpha_e + Fraction(1, ring.field.p ** prev.e)
                       >= Fraction(m_e, q) + Fraction(1, q))
    return SplittingProfile(
        e=e, q=q, M_e=M, b=b, m_e=m_e,
        alpha_e=Fraction(m_e, q),
        alpha_upper=Fraction(m_e + 1, q - 1),
        a_e=a_e,
        s_raw=Fraction(a_e, q ** (ring.v - 1)),
        duality_ok=all(b[m] == b[M - m] for m in range(M + 1)),
        monotone_ok=monotone_ok,
    )


@dataclass(frozen=True)
class MembershipResult:
    """Boolean-like result of a membership test, with a vacuousness flag for
    elements that already lie in (G)."""

    member: bool
    in_principal_ideal: bool

    def __bool__(self) -> bool:
        return self.member


def membership_check(ring: GradedHypersurface, e: int,
                     f: PolynomialFp) -> MembershipResult:
    """Whether f lies in I_e(deg f): every monomial of f * G^(q-1) must be
    divisible by some x_i^q.

    Only the terms below q of f and of G^(q-1) (the level's W and cw) are
    multiplied: a monomial r with every exponent below q is u + w only for
    u <= r and w <= r, so its coefficient in f * G^(q-1) is the same.

    Elements of (G) are vacuous members and are flagged: f lies in (G)
    when G divides f exactly (_divide_keys).  A quotient has degree
    deg f - delta and exponents of x_i up to those of f less those of G.
    """
    q = level_q(ring.field.p, e)
    if f.field != ring.field or f.nvars != ring.v:
        raise ValidationError("element lives in a different ring")
    if f.is_zero():
        raise ValidationError("zero element: membership is vacuous")
    if f.homogeneous_degree is None:
        raise ValidationError("element must be homogeneous")
    level = ring.level(e)
    low = PolynomialFp(ring.field, ring.v, {u: c for u, c in f.terms.items()
                                            if max(u) < q})
    exps, _ = low.mul(PolynomialFp._from_arrays(
        ring.field, ring.v, level.W.astype(np.int64),
        level.cw.astype(np.int64))).arrays
    member = not (exps < q).all(axis=1).any()
    f_max = f._max_exponents()
    room = [a - b for a, b in zip(f_max, ring.G._max_exponents())]
    radix = [a + 1 for a in f_max]
    places = _place_values(radix)
    in_G = min(room) >= 0 and _divide_keys(
        *f._encode(places), *ring.G._encode(places), ring.field.p,
        n_monomials_capped(ring.v, f.homogeneous_degree - ring.delta,
                           max(room)), radix) is not None
    return MembershipResult(member, in_G)


@dataclass
class FanoReport:
    """Normalized alpha and F-signature data for a Fano hypersurface.

    The normalization divides by the coindex v - delta, so every quantity
    refers to the anticanonical polarization.
    """

    coindex: int
    profiles: list[SplittingProfile]
    alpha_normalized_estimates: list[Fraction]
    alpha_normalized_upper: list[Fraction]
    s_normalized: list[Fraction]
    s_half_normalized: list[Fraction] | None  # halved-sum estimator, coindex 1
    min_alpha_upper_normalized: Fraction
    conclusive_below_half: bool  # a rigorous certificate that alpha_F < 1/2
    slack_above_half: Fraction  # how far the best upper bound sits above 1/2
    volume: int  # deg(-K_X)^(v-2) normalization: delta * coindex^(v-2)
    bound: Fraction  # volume / (2^d (d+1)!), d = v - 2


def fano_report(ring: GradedHypersurface, e_max: int,
                threads: int = 1) -> FanoReport:
    """Profiles for e = 1..e_max with anticanonically normalized invariants;
    threads is accepted and has no effect, as in profile."""
    # non-Fano, e_max < 1 and a top level over the caps are refused before
    # level 1 is ranked
    check_level(ring, e_max)
    s = ring.fano_coindex
    profiles: list[SplittingProfile] = []
    prev = None
    for e in range(1, e_max + 1):
        prev = profile(ring, e, prev=prev)
        profiles.append(prev)
    estimates = [pr.alpha_e / s for pr in profiles]
    uppers = [pr.alpha_upper / s for pr in profiles]
    s_norm = [pr.s_raw / s for pr in profiles]
    s_half = None
    if s == 1:
        # halved-sum estimator: s ~ 2 * sum_{m <= (q-1)/2} b_e(m) / q^(v-1)
        s_half = [Fraction(2 * sum(pr.b[m] for m in
                                   range(0, (pr.q - 1) // 2 + 1)),
                           pr.q ** (ring.v - 1))
                  for pr in profiles]
    min_upper = min(uppers)
    d = ring.v - 2
    volume = ring.delta * s ** (ring.v - 2)
    bound = Fraction(volume, 2 ** d * math.factorial(d + 1))
    return FanoReport(
        coindex=s,
        profiles=profiles,
        alpha_normalized_estimates=estimates,
        alpha_normalized_upper=uppers,
        s_normalized=s_norm,
        s_half_normalized=s_half,
        min_alpha_upper_normalized=min_upper,
        conclusive_below_half=min_upper < Fraction(1, 2),
        slack_above_half=max(Fraction(0), min_upper - Fraction(1, 2)),
        volume=volume,
        bound=bound,
    )
