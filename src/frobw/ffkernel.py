"""Prime-field arithmetic, graded-colex monomial combinatorics, sparse
polynomial arithmetic with Frobenius-power shortcuts, and rank computation
over F_p.

Monomials are exponent tuples.  The total order everywhere is graded
colexicographic: compare total degree first, then the exponent vectors by
their last differing coordinate.

Polynomial products run on encoded keys: each exponent vector becomes one
int64 in a mixed radix wide enough that adding two keys adds the exponent
vectors without a carry, so the outer sum of two key arrays lists every
product monomial, and equal keys are merged by sorting.
"""

from __future__ import annotations

import functools
from heapq import heappop, heappush, heapreplace
from math import comb, isqrt, prod

import numpy as np

from .errors import InstanceTooLarge, InternalCheckError, ValidationError

#: cap on the term count of a computed power, and on the heap pushes of an
#: exact division (_divide_keys), read at each call
POWER_TERM_CAP = 10 ** 7


# ---------------------------------------------------------------------------
# prime field

class PrimeField:
    """The field F_p with elements represented canonically in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValidationError(f"modulus must be an integer >= 2, got {p!r}")
        if p >= 2 ** 31:
            raise ValidationError(f"modulus cap is 2^31, got {p}")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise ValidationError(f"modulus {p} is not prime (divisor {d})")
            d += 1
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# monomials and the graded colex order

def n_monomials(v: int, m: int) -> int:
    """Number of monomials of degree m in v variables: C(m+v-1, v-1)."""
    if m < 0:
        return 0
    return comb(m + v - 1, v - 1)


def n_monomials_capped(v: int, m: int, cap: int) -> int:
    """Number of degree-m monomials in v variables with every exponent <= cap,
    by inclusion-exclusion over coordinates forced past the cap."""
    if m < 0:
        return 0
    total = 0
    for k in range(v + 1):
        t = m - k * (cap + 1)
        if t < 0:
            break
        total += (-1) ** k * comb(v, k) * n_monomials(v, t)
    return total


def exponent_array(v: int, m: int, cap: int | None = None,
                   last: range | None = None) -> np.ndarray:
    """All degree-m exponent vectors in v variables with every exponent <=
    cap, as an (n x v) int64 array in colex order: lexicographic order on
    the reversed vectors (last exponent slowest, first exponent fastest).
    With last, only the vectors whose last exponent lies in that range: a
    contiguous run of the full array."""
    cap = m if cap is None else min(cap, m)
    if m < 0 or m > v * cap or (v == 1 and last is not None
                                and m not in last):
        return np.zeros((0, v), dtype=np.int64)
    # fix the exponents from the last variable down; every prefix is
    # extended by each value that leaves a degree x_0..x_{j-1} can take up
    out = np.zeros((1, v), dtype=np.int64)
    rest = np.array([m], dtype=np.int64)
    for j in range(v - 1, 0, -1):
        lo = np.maximum(rest - j * cap, 0)
        hi = np.minimum(rest, cap)
        if last is not None and j == v - 1:
            lo = np.maximum(lo, last.start)
            hi = np.minimum(hi, last.stop - 1)
        counts = np.maximum(hi - lo + 1, 0)
        out = np.repeat(out, counts, axis=0)
        starts = np.repeat(np.cumsum(counts) - counts - lo, counts)
        out[:, j] = np.arange(len(out), dtype=np.int64) - starts
        rest = np.repeat(rest, counts) - out[:, j]
    out[:, 0] = rest
    return out


# ---------------------------------------------------------------------------
# sparse polynomials

class PolynomialFp:
    """Sparse multivariate polynomial over F_p.

    Terms live in a dict mapping exponent tuples to nonzero coefficients in
    [1, p); outputs of arithmetic are normalized (no zero coefficients).
    Outputs of arithmetic are built from an exponent matrix and a coefficient
    vector (arrays) and form the dict only when it is first read.
    """

    def __init__(self, field: PrimeField, nvars: int,
                 terms: dict[tuple[int, ...], int]):
        self.field = field
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in terms.items():
            c %= field.p
            if c == 0:
                continue
            if len(exps) != nvars:
                raise ValidationError(
                    f"term {exps} has {len(exps)} exponents, expected {nvars}")
            if nvars and min(exps) < 0:
                raise ValidationError(f"negative exponent in term {exps}")
            clean[tuple(int(a) for a in exps)] = c
        self.terms = clean

    @classmethod
    def _from_arrays(cls, field: PrimeField, nvars: int, exps: np.ndarray,
                     coeffs: np.ndarray) -> "PolynomialFp":
        """The polynomial of distinct exponent rows and coefficients already
        reduced into [1, p), as arithmetic produces them: nothing is checked
        again."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.nvars = nvars
        poly.arrays = (exps, coeffs)
        return poly

    @functools.cached_property
    def terms(self) -> dict[tuple[int, ...], int]:
        exps, coeffs = self.arrays
        return dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The terms as an (n x nvars) int64 exponent matrix and an int64
        coefficient vector, row for row."""
        n = len(self.terms)
        return (np.array(list(self.terms), dtype=np.int64).reshape(
                    n, self.nvars),
                np.fromiter(self.terms.values(), dtype=np.int64, count=n))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return len(self) == 0

    def __len__(self) -> int:
        if "terms" in self.__dict__:
            return len(self.terms)
        return len(self.arrays[1])

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolynomialFp)
                and other.field == self.field
                and other.nvars == self.nvars
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.field.p, self.nvars,
                     tuple(sorted(self.terms.items()))))

    @property
    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if inhomogeneous/zero."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """The graded-colex largest term (exponents, coefficient)."""
        if not self.terms:
            raise ValidationError("zero polynomial has no leading term")
        exps = max(self.terms, key=lambda e: (sum(e), tuple(reversed(e))))
        return exps, self.terms[exps]

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: "PolynomialFp") -> "PolynomialFp":
        self._check_compatible(other)
        radix = [a + b + 1 for a, b in zip(self._max_exponents(),
                                           other._max_exponents())]
        places = _place_values(radix)
        keys, coeffs = _mul_keys(*self._encode(places), *other._encode(places),
                                 self.field.p)
        return self._decode(keys, coeffs, radix, places)

    def _max_exponents(self) -> list[int]:
        if "arrays" in self.__dict__:
            exps = self.arrays[0]
            return exps.max(axis=0).tolist() if len(exps) else [0] * self.nvars
        if not self.terms:
            return [0] * self.nvars
        return [max(col) for col in zip(*self.terms)]

    def _encode(self, places: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The terms as int64 (key, coefficient) arrays."""
        exps, coeffs = self.arrays
        return exps @ places, coeffs

    def _decode(self, keys: np.ndarray, coeffs: np.ndarray,
                radix: list[int], places: np.ndarray) -> "PolynomialFp":
        exps = keys[:, None] // places % np.array(radix, dtype=np.int64)
        return PolynomialFp._from_arrays(self.field, self.nvars, exps, coeffs)

    def _check_compatible(self, other: "PolynomialFp") -> None:
        if other.field != self.field or other.nvars != self.nvars:
            raise ValidationError("polynomials live in different rings")

    def __repr__(self) -> str:
        return (f"PolynomialFp(p={self.field.p}, nvars={self.nvars}, "
                f"terms={len(self.terms)})")


#: outer-sum cells of a polynomial product formed at once
_MUL_CHUNK = 1 << 16


def _place_values(radix: list[int]) -> np.ndarray:
    """Place values of the mixed radix in which coordinate i of an exponent
    vector is a digit below radix[i].  Refuses radices whose keys would not
    fit int64."""
    if prod(radix) >= 2 ** 63:
        raise InstanceTooLarge(
            f"instance too large: exponent vectors up to "
            f"{[r - 1 for r in radix]} do not encode in 63 bits")
    return np.cumprod([1] + radix, dtype=np.int64)[:-1]


def _mul_keys(ka: np.ndarray, ca: np.ndarray, kb: np.ndarray, cb: np.ndarray,
              p: int) -> tuple[np.ndarray, np.ndarray]:
    """The product of two polynomials given as (key, coefficient) arrays in
    one mixed radix, as sorted distinct keys with nonzero coefficients.

    The outer sums of the keys and the products of the coefficients mod p
    are formed _MUL_CHUNK cells at a time and merged into the running sum
    (_merge_chunks).  Every value stays exact in int64: coefficients are
    below p < 2^31.
    """
    if ka.size > kb.size:
        ka, ca, kb, cb = kb, cb, ka, ca
    step = max(1, _MUL_CHUNK // max(1, kb.size))
    return _merge_chunks((((ka[i:i + step, None] + kb).ravel(),
                           (ca[i:i + step, None] * cb).ravel() % p)
                          for i in range(0, ka.size, step)), p)


def _merge_chunks(chunks, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The sum of the (key, coefficient) chunks, as sorted distinct keys with
    nonzero coefficients.  Chunks are batched until they hold as many terms
    as the running sum, so a sum with few collisions is not re-sorted once
    per chunk."""
    keys, coeffs = np.zeros(0, np.int64), np.zeros(0, np.int64)
    batch_k, batch_c, pending = [], [], 0
    for k, c in chunks:
        batch_k.append(k)
        batch_c.append(c)
        pending += k.size
        if pending >= keys.size:
            keys, coeffs = _merge_terms([keys, *batch_k], [coeffs, *batch_c],
                                        p)
            batch_k, batch_c, pending = [], [], 0
    if batch_k:
        keys, coeffs = _merge_terms([keys, *batch_k], [coeffs, *batch_c], p)
    return keys, coeffs


def _merge_terms(keys: list[np.ndarray], coeffs: list[np.ndarray],
                 p: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum the coefficients of equal keys mod p and drop the zero sums.  The
    sort need not be stable: integer sums do not depend on their order."""
    k = np.concatenate(keys)
    order = np.argsort(k)
    k = k[order]
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    sums = np.add.reduceat(np.concatenate(coeffs)[order], starts) % p
    keep = sums != 0
    return k[starts[keep]], sums[keep]


def _divide_keys(ka: np.ndarray, ca: np.ndarray, kg: np.ndarray,
                 cg: np.ndarray, p: int, bound: int,
                 radix: list[int]) -> tuple[np.ndarray, np.ndarray] | None:
    """The exact quotient A / G of two (key, coefficient) polynomials in the
    mixed radix `radix`, as sorted keys with nonzero coefficients, or None
    when G does not divide A.

    Johnson's quotient heap (Monagan-Pearce, "Sparse polynomial division
    using a heap", 2011), largest key first: the heap holds the next product
    q_i g_j of each quotient term with the t terms g_1 > g_2 > ... of G, so
    it makes about t pushes per quotient term.  It stops with None on a
    negative quotient key or past `bound` quotient terms; t * bound past
    POWER_TERM_CAP is refused before the first pop.  Keys order monomials
    only while no digit carries, so the quotient Q is certified: Q's digits
    plus G's largest digits stay below the radix, and G Q equals A on keys
    (one _mul_keys); otherwise None.  When G divides A, nothing carries.
    """
    t = kg.size
    if t * bound > POWER_TERM_CAP:
        raise InstanceTooLarge(
            f"division too large: {t} divisor terms times up to {bound} "
            f"quotient terms is over the cap {POWER_TERM_CAP}")
    order = np.argsort(ka)
    ka, ca = ka[order], ca[order]
    order = np.argsort(kg)[::-1]
    g_keys, g_coeffs = kg[order].tolist(), cg[order].tolist()
    lead, inv_lead = g_keys[0], pow(g_coeffs[0], p - 2, p)
    todo = list(zip(ka.tolist(), ca.tolist()))  # popped largest first
    q_keys, q_coeffs = [], []
    heap: list[tuple[int, int, int]] = []  # (-key of q_i g_j, i, j)
    while todo or heap:
        m = max(todo[-1][0] if todo else -1, -heap[0][0] if heap else -1)
        c = todo.pop()[1] if todo and todo[-1][0] == m else 0
        while heap and heap[0][0] == -m:
            _, i, j = heap[0]
            c -= q_coeffs[i] * g_coeffs[j]
            if j + 1 < t:
                heapreplace(heap, (-(q_keys[i] + g_keys[j + 1]), i, j + 1))
            else:
                heappop(heap)
        c %= p
        if c == 0:
            continue
        key = m - lead
        if key < 0 or len(q_keys) == bound:
            return None
        q_keys.append(key)
        q_coeffs.append(c * inv_lead % p)
        if t > 1:
            heappush(heap, (-(key + g_keys[1]), len(q_keys) - 1, 1))
    qk = np.array(q_keys[::-1], dtype=np.int64)
    qc = np.array(q_coeffs[::-1], dtype=np.int64)
    places, base = _place_values(radix), np.array(radix, dtype=np.int64)
    room = base - 1 - (kg[:, None] // places % base).max(axis=0)
    if (qk[:, None] // places % base > room).any():
        return None
    k, c = _mul_keys(qk, qc, kg, cg, p)
    certified = np.array_equal(k, ka) and np.array_equal(c, ca)
    return (qk, qc) if certified else None


def _cumprod_mod(a: np.ndarray, p: int) -> np.ndarray:
    """The running products of the residues a mod p, in about 2 sqrt(n)
    numpy steps: running products along the rows of a near-square
    reshape, then each row times the product of all rows before it."""
    n = a.size
    w = max(1, isqrt(n))
    rows = -(-n // w)
    x = np.ones(rows * w, np.int64)
    x[:n] = a
    x = x.reshape(rows, w)
    for j in range(1, w):
        x[:, j] = x[:, j] * x[:, j - 1] % p
    head = np.ones(rows, np.int64)
    if rows > 1:
        head[1:] = _cumprod_mod(x[:-1, -1], p)
    return (x * head[:, None] % p).ravel()[:n]


def _multinomial_keys(keys: np.ndarray, coeffs: np.ndarray,
                      p: int) -> tuple[np.ndarray, np.ndarray]:
    """G^(p-1) for G given as (key, coefficient) arrays of t terms, in a
    radix that holds G^(p-1), by the multinomial theorem (see digit_power).

    The multi-indices k come from exponent_array(t, p - 1) in runs of
    their last entry of about _MUL_CHUNK rows each, merged as _mul_keys
    merges.  The coefficient of k is (p-1)! prod_i c_i^k_i / k_i!, read
    from one table per term: T[i, k] = c_i^k / k!, with 1/k! = (-1)^(k+1)
    (p-1-k)! by Wilson's theorem and (p-1)! = -1."""
    n, t = p - 1, keys.size
    if t == 1:  # c^(p-1) = 1: no table
        return keys * n, np.ones(1, np.int64)
    k = np.arange(p, dtype=np.int64)
    fact = _cumprod_mod(np.maximum(k, 1), p)
    inv_fact = fact[::-1] * np.where(k % 2 == 1, 1, p - 1) % p
    table = np.stack([_cumprod_mod(np.r_[1, np.full(n, c)], p) * inv_fact % p
                      for c in coeffs.tolist()])

    def chunks():
        j = 0
        while j <= n:
            # the run with last entry j is the longest of those from j on
            step = max(1, _MUL_CHUNK // n_monomials(t - 1, n - j))
            K = exponent_array(t, n, last=range(j, j + step))
            c = table[0, K[:, 0]]
            for i in range(1, t):
                c = c * table[i, K[:, i]] % p
            yield K @ keys, p - c
            j += step
    return _merge_chunks(chunks(), p)


def power_term_bound(G: PolynomialFp, n: int) -> int:
    """An upper bound on the number of terms of G^n, known before computing
    it: the monomials of degree n in the t terms of G and, for homogeneous
    G, the monomials of degree n * deg G in its variables."""
    t = len(G)
    if t == 0:
        return int(n == 0)
    bound = comb(n + t - 1, t - 1)
    delta = G.homogeneous_degree
    if delta is not None:
        bound = min(bound, n_monomials(G.nvars, n * delta))
    return bound


def level_q(p: int, e: int) -> int:
    """q = p^e for a level e >= 1, refused when q >= 2^63; e >= 63 is
    tested first, so that no big integer is formed for a huge e."""
    if e < 1:
        raise ValidationError(f"level must be >= 1, got {e}")
    if e >= 63 or p ** e >= 2 ** 63:
        raise InstanceTooLarge(f"level too large: q = {p}^{e} >= 2^63")
    return p ** e


def digit_power(G: PolynomialFp, e: int) -> PolynomialFp:
    """G^(q-1), q = p^e, on (key, coefficient) arrays decoded once at the end.

    Digits: q - 1 = sum_{i<e} (p-1) p^i and Frob^i(h) = h^(p^i) on
    prime-field coefficients give G^(q-1) = prod_{i<e} Frob^i(G^(p-1)).  All
    keys share the radix max(q-1, p) max_i + 1 in coordinate i, where max_i
    is G's largest exponent of x_i; it holds the exponents of every partial
    product G^(p^k - 1), k <= e, and of G^p, without a carry.  Keys are
    linear in the exponents, so Frob^i multiplies every key by p^i.

    Base: by the multinomial theorem, G^(p-1) = sum over |k| = p - 1 of
    (p-1)!/prod k_i! * prod c_i^k_i * x^(sum k_i w_i), for the terms c_i x^w_i
    of G.  Every k_i < p, so each k_i! is a unit mod p.  This path forms
    C(p-2+t, t-1) rows for the t terms of G, so it is taken when that count
    equals power_term_bound(G, p-1), and never forms more rows than the cap
    admits.  Otherwise G^(p-1) = G(x^p) / G, as Frobenius fixes the
    coefficients: one exact division (_divide_keys) with the quotient bound
    power_term_bound(G, p-1); a failed certificate is an InternalCheckError.

    Caps: the partial products have term counts bounded both by the bound
    for G^(q-1) and by the e-th power of the bound for G^(p-1); the smaller
    one is checked against POWER_TERM_CAP before any product, and
    p^e >= 2^63 before either bound is formed (level_q).
    """
    if G.is_zero():
        raise ValidationError("digit_power of the zero polynomial")
    p = G.field.p
    q = level_q(p, e)
    base_bound = power_term_bound(G, p - 1)
    bound = min(base_bound ** e, power_term_bound(G, q - 1))
    if bound > POWER_TERM_CAP:
        raise InstanceTooLarge(
            f"power too large: G^{q - 1} may have up to {bound} terms, over "
            f"the cap {POWER_TERM_CAP}")
    radix = [max(q - 1, p) * a + 1 for a in G._max_exponents()]
    places = _place_values(radix)
    keys, coeffs = G._encode(places)
    if n_monomials(len(G), p - 1) == base_bound:
        base = _multinomial_keys(keys, coeffs, p)
    else:
        base = _divide_keys(keys * p, coeffs, keys, coeffs, p, base_bound,
                            radix)
        if base is None:
            raise InternalCheckError(
                f"G(x^{p}) / G fails its certificate: no exact quotient "
                f"G^{p - 1} within {base_bound} terms")
    keys, coeffs = base_k, base_c = base
    for i in range(1, e):
        keys, coeffs = _mul_keys(keys, coeffs, base_k * p ** i, base_c, p)
    return G._decode(keys, coeffs, radix, places)


# ---------------------------------------------------------------------------
# dense rank over F_p
#
# Recursive blocked Gaussian elimination with partial pivoting.  The matrix
# lives in a float dtype holding exact small integers; trailing updates are
# BLAS matmuls with the inner dimension chunked so that accumulated products
# stay below the dtype's exact-integer range.  Pivot inverses are computed
# by modular powering as the pivots appear.  One recursive unit-lower
# triangular solve serves both LU's forward solve and the kernel's back
# substitution, which it runs on the pivot triangle with its rows and
# columns reversed.
#
# _BASE is both the width of the base cases and their delayed-reduction
# bound (as in FFLAS-FFPACK): a base panel or triangular solve adds at most
# _BASE products of residues to an entry that entered reduced, so it reduces
# only what it divides by or reads as a multiplier, and the rest once at its
# end.  Whole-array reductions use a multiply/floor with an off-by-one fixup
# instead of the slow generic '%'.  Widening _BASE does not pay: criterion 5
# took 43.2 s at 16, 42.6 s at 32, 45.0 s at 64 and 56.4 s at 128 (one run
# each, 2 cores, before the delayed reduction).

_BASE = 32


#: the float dtypes that hold exact integers, with the largest one each holds
_EXACT = ((np.float32, 2 ** 24 - 1), (np.float64, 2 ** 53 - 1))


def _dtype_for(p: int):
    """float32 when a residue plus _BASE products of residues, the growth the
    base cases allow between reductions, fits its exact range, else float64;
    a prime too large for float64 is refused before any work."""
    for dtype, exact_cap in _EXACT:
        if (p - 1) ** 2 * _BASE + (p - 1) <= exact_cap:
            return dtype, exact_cap
    raise InstanceTooLarge(
        f"prime too large: dense elimination over F_{p} leaves the exact "
        f"range of float64")


def _mod_inplace(A: np.ndarray, p: int) -> np.ndarray:
    """In-place reduction mod p of an array of exact integers."""
    q = A * A.dtype.type(1.0 / p)
    np.floor(q, out=q)
    q *= A.dtype.type(p)
    A -= q
    # 1/p is rounded, so the quotient can be off by one either way
    A[A < 0] += p
    A[A >= p] -= p
    return A


def _sub_matmul_mod(T: np.ndarray, X: np.ndarray, Y: np.ndarray, p: int,
                    exact_cap: int) -> None:
    """T <- (T - X @ Y) mod p in place, for T reduced mod p.  The inner
    dimension is chunked so that a chunk's products, taken from a reduced
    T, stay in the exact range."""
    Y = np.ascontiguousarray(Y)
    kc = (exact_cap - (p - 1)) // (p - 1) ** 2
    for s in range(0, X.shape[1], kc):
        T -= X[:, s:s + kc] @ Y[s:s + kc]
        _mod_inplace(T, p)


def _take_cols(A: np.ndarray, r0: int, r1: int, cols: list[int]) -> np.ndarray:
    """A[r0:r1][:, cols] with a cheap slice when cols is a contiguous run."""
    if len(cols) == cols[-1] - cols[0] + 1:
        return A[r0:r1, cols[0]:cols[-1] + 1]
    return A[r0:r1][:, cols]


def _solve_unit_lower(L, B, p, exact_cap, invs=None) -> None:
    """Solve (D^-1 L) X = B in place on B, with L unit lower triangular and
    read only below its diagonal, and D^-1 the row scalings invs (none when
    invs is None)."""
    k = L.shape[0]
    if k <= _BASE:
        # solved rows are reduced: a row adds < _BASE products below p^2
        for i in range(k):
            row = (B[i] - L[i, :i] @ B[:i]) % p
            B[i] = row if invs is None else row * invs[i] % p
        return
    h = k // 2
    head, tail = (None, None) if invs is None else (invs[:h], invs[h:])
    _solve_unit_lower(L[:h, :h], B[:h], p, exact_cap, head)
    _sub_matmul_mod(B[h:], L[h:, :h], B[:h], p, exact_cap)
    _solve_unit_lower(L[h:, h:], B[h:], p, exact_cap, tail)


def _factor(A, p, r0, c0, c1, piv_cols, piv_invs, exact_cap) -> int:
    """Eliminate columns [c0, c1) against rows [r0, m).

    Pivot rows bubble up to r0, r0+1, ...; multipliers are stored below the
    pivots; pivot rows end up holding the normalized echelon rows.  Returns
    the number of pivots found and appends their columns/inverses.
    """
    m = A.shape[0]
    if r0 >= m:
        return 0
    w = c1 - c0
    if w <= _BASE:
        P = np.ascontiguousarray(A[r0:, c0:c1])
        mm = P.shape[0]
        swaps = []
        rr = 0
        for j in range(w):
            col = P[rr:, j]
            np.remainder(col, p, out=col)
            pr = rr + int((col != 0).argmax())
            if P[pr, j] == 0:
                continue
            if pr != rr:
                P[[rr, pr]] = P[[pr, rr]]
                swaps.append((rr, pr))
            ipiv = pow(int(P[rr, j]), p - 2, p)
            # reduced before it is scaled, which could leave the exact range
            row = P[rr, j:]
            np.remainder(row, p, out=row)
            row *= ipiv
            np.remainder(row, p, out=row)
            P[rr + 1:, j + 1:] -= np.outer(P[rr + 1:, j], row[1:])
            piv_cols.append(c0 + j)
            piv_invs.append(float(ipiv))
            rr += 1
            if rr >= mm:
                break
        _mod_inplace(P, p)
        for a, b in swaps:
            A[[r0 + a, r0 + b], :c0] = A[[r0 + b, r0 + a], :c0]
            A[[r0 + a, r0 + b], c1:] = A[[r0 + b, r0 + a], c1:]
        A[r0:, c0:c1] = P
        return rr
    mid = c0 + (w // 2)
    n0 = len(piv_cols)
    k1 = _factor(A, p, r0, c0, mid, piv_cols, piv_invs, exact_cap)
    if k1:
        pc = piv_cols[n0:]
        invs = np.array(piv_invs[n0:], dtype=A.dtype)
        B = A[r0:r0 + k1, mid:c1]
        _solve_unit_lower(_take_cols(A, r0, r0 + k1, pc), B, p, exact_cap,
                          invs)
        if r0 + k1 < m:
            _sub_matmul_mod(A[r0 + k1:, mid:c1], _take_cols(A, r0 + k1, m, pc),
                            B, p, exact_cap)
    k2 = _factor(A, p, r0 + k1, mid, c1, piv_cols, piv_invs, exact_cap)
    return k1 + k2


def _eliminate(A: np.ndarray, p: int):
    """Reduce A mod p in the float dtype that p allows and factor it in
    place: returns the factored matrix, its pivot columns and the dtype's
    exact range.  A is consumed."""
    dtype, exact_cap = _dtype_for(p)
    W = np.ascontiguousarray(A, dtype=dtype)
    piv_cols: list[int] = []
    if W.size:
        _mod_inplace(W, p)
        _factor(W, p, 0, 0, W.shape[1], piv_cols, [], exact_cap)
    return W, piv_cols, exact_cap


def rank_fp_dense(A: np.ndarray, p: int) -> int:
    """Rank over F_p of a dense integer matrix.  A is consumed."""
    return len(_eliminate(A, p)[1])


def _kernel_basis(n: int, piv: np.ndarray, free: np.ndarray, X: np.ndarray,
                  p: int) -> np.ndarray:
    """The kernel basis of an n-column matrix whose reduced echelon form has
    pivot columns piv and the entries X (pivot rows x free columns) at its
    free columns: the vector of free column f is 1 at f, 0 at the other free
    columns and minus column f of X at the pivot columns."""
    K = np.zeros((n, free.size), dtype=X.dtype)
    K[piv] = np.remainder(-X, p)
    K[free, np.arange(free.size)] = 1
    return K


def kernel_fp_dense(A: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Rank and a kernel basis over F_p of a dense integer matrix.

    Returns (rank, K) with K of shape (n, n - rank); columns of K span the
    null space.  A is consumed.
    """
    n = A.shape[1]
    W, piv_cols, exact_cap = _eliminate(A, p)
    piv = np.array(piv_cols, dtype=np.intp)
    free = np.setdiff1d(np.arange(n), piv, assume_unique=True)
    # the first r rows hold the echelon form U, except that entries at pivot
    # columns below their own pivot store multipliers, which the solve does
    # not read.  U[:, piv] X = U[:, free] is unit upper triangular; with its
    # rows and columns reversed it is unit lower, built contiguous here
    rows = W[:piv.size][::-1]
    X = rows[:, free]
    if free.size:  # a full column rank needs no solve
        _solve_unit_lower(rows[:, piv[::-1]], X, p, exact_cap)
    return piv.size, _kernel_basis(n, piv, free, X[::-1], p)


# ---------------------------------------------------------------------------
# batched rank of small matrices over F_p
#
# Gauss-Jordan elimination on a stack of zero-padded matrices: one
# vectorized step per column eliminates that column in every matrix at once.
# Entries are exact integers in a float dtype.  Each step reduces the pivot
# column and the pivot row mod p and subtracts multiples below p of the
# pivot row, so every other entry grows by at most (p-1)^2 per step; the
# whole stack is reduced only when the next step could leave the exact
# range.  The pivot column and row are reduced through an integer type,
# where '%' is fast.

#: float32 is used while it allows this many steps between reductions
_BATCH_F32_STEPS = 64


def _batch_dtype(p: int):
    """The float dtype of the stack, the integer dtype its reductions use,
    and the number of steps it allows between reductions; a prime too large
    for float64 is refused before any work."""
    for (dtype, exact_cap), itype, least in zip(
            _EXACT, (np.int32, np.int64), (_BATCH_F32_STEPS, 1)):
        steps = (exact_cap - (p - 1)) // (p - 1) ** 2
        if steps >= least:
            return dtype, itype, steps
    raise InstanceTooLarge(
        f"prime too large: batched elimination over F_{p} leaves the exact "
        f"range of float64")


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise: the inverses of integer residues x != 0.
    Products stay below p^2, which fits x's dtype for the primes that
    _batch_dtype accepts."""
    out = np.ones_like(x)
    n = p - 2
    while n:
        if n & 1:
            out = out * x % p
        n >>= 1
        if n:
            x = x * x % p
    return out


def kernel_fp_batched(mats: list[np.ndarray],
                      p: int) -> list[tuple[int, np.ndarray]]:
    """Rank and kernel basis over F_p of each of a list of small dense
    integer matrices, eliminated together in one zero-padded stack.

    Returns one (rank, K) per matrix, as kernel_fp_dense does.  The cost is
    one vectorized step per column of the widest matrix.
    """
    dtype, itype, steps = _batch_dtype(p)
    # widest first, so that the matrices a step still has to eliminate are
    # a prefix of the stack, and the rows they span a prefix of the rows
    order = sorted(range(len(mats)), key=lambda b: -mats[b].shape[1])
    widths = np.array([mats[b].shape[1] for b in order], dtype=np.int64)
    spans = np.maximum.accumulate([mats[b].shape[0] for b in order]
                                  or [0]).astype(np.int64)
    B, C, R = len(mats), int(widths[0]) if mats else 0, int(spans[-1])
    # stored transposed, T[b, c] is column c of matrix b, so that the
    # trailing columns a step updates are one contiguous slab per matrix
    T = np.zeros((B, C, R), dtype=dtype)
    for k, b in enumerate(order):
        A = mats[b]
        T[k, :A.shape[1], :A.shape[0]] = np.remainder(A.T, p)
    unused = np.ones((B, R), dtype=bool)
    rank = np.zeros(B, dtype=np.int64)
    piv_cols = np.zeros((B, min(R, C)), dtype=np.int64)
    piv_rows = np.zeros((B, min(R, C)), dtype=np.int64)
    at = np.arange(B)
    left = steps
    for j in range(C):
        live = B - int(np.searchsorted(widths[::-1], j, side="right"))
        span = int(spans[live - 1])
        if span == 0:
            continue
        V = T[:live, :, :span]
        V[:, j] = V[:, j].astype(itype) % p
        col = V[:, j]
        open_rows = (col != 0) & unused[:live, :span]
        piv = open_rows.argmax(axis=1)
        has = open_rows[at[:live], piv]
        if not has.any():
            continue
        b, piv = at[:live][has], piv[has]
        prow = V[b, j:, piv].astype(itype) % p
        prow = prow * _inverse_mod(prow[:, :1], p) % p
        # every row of a matrix with a pivot loses its multiple of the
        # pivot row, which leaves zeros in column j; the pivot row itself
        # is then replaced by the normalized one
        full = np.zeros((live, C - j), dtype=dtype)
        full[b] = prow
        V[:, j:] -= full[:, :, None] * col[:, None, :]
        V[b, j:, piv] = prow
        unused[b, piv] = False
        piv_cols[b, rank[b]] = j
        piv_rows[b, rank[b]] = piv
        rank[b] += 1
        left -= 1
        if left == 0:
            np.remainder(T, p, out=T)
            left = steps
    out = [None] * B
    for k, b in enumerate(order):
        n = mats[b].shape[1]
        r = int(rank[k])
        pc, pr = piv_cols[k, :r], piv_rows[k, :r]
        free = np.setdiff1d(np.arange(n), pc)
        # T[k] holds the reduced echelon form transposed
        out[b] = (r, _kernel_basis(n, pc, free, T[k][free][:, pr].T, p))
    return out
