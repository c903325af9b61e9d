"""Mint the frozen reference values used by the acceptance tests.

Every value is produced by a naive/independent code path (the oracle module,
a relaxed oracle configuration, or the standalone reduced-row path below),
never by the main engines, and written to src/frobw/frozen_values.py.  Run
once:

    python3 tools/mint_frozen_values.py
"""

from __future__ import annotations

import itertools
import math
import pprint
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from frobw.oracle import (OracleConfig, _naive_monomials, _naive_multiply,
                          _naive_row_reduce_rank, naive_b_dimension,
                          naive_toric_alpha)
from frobw.splitting import diagonal_hypersurface
from frobw.ffkernel import PrimeField, PolynomialFp
from frobw.toric import FanData

#: relaxed caps for the one-time p=5, e=2 cubic mint; the default oracle
#: domain stays small, this widening exists only inside this script
RELAXED = OracleConfig(max_p=5, max_e=2, max_target_monomials=120000)


def reduced_row_b_dimension(ring, e, m):
    """Independent third path for b_e(m): all source monomials as columns,
    only the reduced target monomials (every exponent <= q-1) as rows, naive
    construction and naive row reduction.  No column restriction, no
    Frobenius-digit powering, no sketching."""
    p = ring.field.p
    q = p ** e
    gq = {(0,) * ring.v: 1}
    gdict = dict(ring.G.terms)
    for _ in range(q - 1):
        gq = _naive_multiply(gq, gdict, p)
    D = m + ring.delta * (q - 1)
    targets = [t for t in _naive_monomials(ring.v, D) if max(t) <= q - 1]
    target_index = {t: i for i, t in enumerate(targets)}
    sources = _naive_monomials(ring.v, m)
    A = np.zeros((len(targets), len(sources)), dtype=np.int64)
    for j, u in enumerate(sources):
        for w, c in gq.items():
            t = tuple(x + y for x, y in zip(u, w))
            idx = target_index.get(t)
            if idx is not None:
                A[idx, j] = c
    return _naive_row_reduce_rank(A, p)


def naive_fedder_split(p, terms, nvars, e):
    """F-splitness by expanding G^(q-1) naively and scanning for a reduced
    monomial."""
    q = p ** e
    gq = {(0,) * nvars: 1}
    for _ in range(q - 1):
        gq = _naive_multiply(gq, dict(terms), p)
    return any(max(t) <= q - 1 for t in gq)


def shoelace_normalized_volume(vertices):
    """d! * vol for d in {1, 2} by interval length / shoelace, independent
    of the toric module's triangulation."""
    d = len(vertices[0])
    if d == 1:
        xs = [u[0] for u in vertices]
        return Fraction(max(xs) - min(xs))
    assert d == 2
    # order vertices by angle around the centroid (rational comparisons via
    # cross products against the centroid would be overkill at 3-4 vertices;
    # sort by atan2 is fine since we only need an ordering, then recompute
    # the area exactly)
    import math as _math
    cx = sum(u[0] for u in vertices) / len(vertices)
    cy = sum(u[1] for u in vertices) / len(vertices)
    ordered = sorted(vertices,
                     key=lambda u: _math.atan2(float(u[1] - cy),
                                               float(u[0] - cx)))
    twice_area = Fraction(0)
    for (x1, y1), (x2, y2) in zip(ordered, ordered[1:] + ordered[:1]):
        twice_area += x1 * y2 - x2 * y1
    return abs(twice_area)  # 2! * vol = |shoelace sum|


def main():
    t0 = time.time()
    frozen = {}

    # quadric surface Q_2 = x0^2+..+x3^2, p=3, e=1: full profile and a_1
    q2 = diagonal_hypersurface(3, 4, 2)
    M = (3 - 1) * 2
    b = [naive_b_dimension(q2, 1, m) for m in range(M + 1)]
    frozen["quadric_p3_e1_b"] = b
    frozen["quadric_p3_e1_a"] = sum(b)
    frozen["quadric_p3_e1_m"] = max(
        m for m in range(M + 1)
        if all(b[k] == q2.dim_R(k) for k in range(m + 1)))
    print("quadric p3 e1:", b, f"[{time.time()-t0:.1f}s]")

    # cubic surface, p=5, e=1: full profile, m_1, a_1
    c5 = diagonal_hypersurface(5, 4, 3)
    M = (5 - 1) * 1
    b = [naive_b_dimension(c5, 1, m) for m in range(M + 1)]
    frozen["cubic_p5_e1_b"] = b
    frozen["cubic_p5_e1_a"] = sum(b)
    frozen["cubic_p5_e1_m"] = max(
        m for m in range(M + 1)
        if all(b[k] == c5.dim_R(k) for k in range(m + 1)))
    print("cubic p5 e1:", b, f"[{time.time()-t0:.1f}s]")

    # cubic surface, p=7, e=1: m_1
    c7 = diagonal_hypersurface(7, 4, 3)
    m = 0
    while naive_b_dimension(c7, 1, m + 1) == c7.dim_R(m + 1):
        m += 1
    frozen["cubic_p7_e1_m"] = m
    print("cubic p7 e1: m_1 =", m, f"[{time.time()-t0:.1f}s]")

    # cubic surface, p=5, e=2: m_2 via the relaxed naive oracle
    m = 0
    while naive_b_dimension(c5, 2, m + 1, RELAXED) == c5.dim_R(m + 1):
        m += 1
        print("  relaxed naive: I_2(m) = 0 through m =", m,
              f"[{time.time()-t0:.1f}s]")
    frozen["cubic_p5_e2_m"] = m
    print("cubic p5 e2: m_2 =", m, f"[{time.time()-t0:.1f}s]")

    # cubic surface, p=5, e=2: a_2 via the reduced-row third path
    M = (25 - 1) * 1
    b = []
    for deg in range(M + 1):
        b.append(reduced_row_b_dimension(c5, 2, deg))
        print(f"  third path: b_2({deg}) = {b[-1]} [{time.time()-t0:.1f}s]")
    frozen["cubic_p5_e2_b"] = b
    frozen["cubic_p5_e2_a"] = sum(b)
    print("cubic p5 e2: a_2 =", sum(b), f"[{time.time()-t0:.1f}s]")

    # elliptic cone x^3+y^3+z^3: Fedder booleans
    ec = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    frozen["elliptic_cone_p5_split"] = naive_fedder_split(5, ec, 3, 1)
    frozen["elliptic_cone_p7_split"] = naive_fedder_split(7, ec, 3, 1)
    print("elliptic cone split p5/p7:", frozen["elliptic_cone_p5_split"],
          frozen["elliptic_cone_p7_split"])

    # toric: alphas by the naive oracle, small volumes by shoelace
    P1 = FanData(1, [(1,), (-1,)], [(0,), (1,)])
    P2 = FanData(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    P1xP1 = FanData(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                    [(0, 2), (2, 1), (1, 3), (3, 0)])
    frozen["alpha_P1"] = str(naive_toric_alpha(P1))
    frozen["alpha_P2"] = str(naive_toric_alpha(P2))
    frozen["alpha_P1xP1"] = str(naive_toric_alpha(P1xP1))

    def vertices_of(fan):
        from frobw.oracle import _cramer_solve
        verts = []
        for cone in fan.cones:
            Mx = [[Fraction(fan.rays[i][j]) for j in range(fan.d)]
                  for i in cone]
            verts.append(tuple(_cramer_solve(Mx, [Fraction(-1)] * fan.d)))
        return verts

    frozen["volume_P1"] = str(shoelace_normalized_volume(vertices_of(P1)))
    frozen["volume_P2"] = str(shoelace_normalized_volume(vertices_of(P2)))
    frozen["volume_P1xP1"] = str(
        shoelace_normalized_volume(vertices_of(P1xP1)))
    print("toric:", {k: v for k, v in frozen.items() if "P" in k})

    out = (Path(__file__).resolve().parent.parent / "src" / "frobw"
           / "frozen_values.py")
    body = pprint.pformat(frozen, sort_dicts=True, width=76)
    out.write_text(
        '"""Frozen reference values minted by tools/mint_frozen_values.py.\n'
        "\n"
        "Every entry was produced by a naive independent code path before the\n"
        "main engines were trusted; regenerate only by rerunning the mint\n"
        'script, never by copying main-engine output."""\n'
        "\n"
        f"FROZEN = {body}\n")
    print("wrote", out, f"[{time.time()-t0:.1f}s total]")


if __name__ == "__main__":
    main()
