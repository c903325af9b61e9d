"""The built-in verification suite run by `frobw verify [--deep]`.

Each criterion prints one PASS/FAIL line; the runner exits nonzero when any
criterion fails.  Criterion 10 (oracle equivalence) only runs under --deep.
"""

from __future__ import annotations

import functools
import random
import sys
import time
from fractions import Fraction
from typing import Callable, TextIO

from .errors import FrobwError, ValidationError
from .ffkernel import PolynomialFp, PrimeField
from .splitting import (GradedHypersurface, diagonal_hypersurface,
                        fedder_is_fsplit, m_threshold, membership_check,
                        profile)
from .toric import FanData, anticanonical_volume, toric_alpha
from .frontend import parse_polynomial

from .frozen_values import FROZEN


def named_fans() -> dict[str, FanData]:
    return {
        "P1": FanData(1, [(1,), (-1,)], [(0,), (1,)]),
        "P2": FanData(2, [(1, 0), (0, 1), (-1, -1)],
                      [(0, 1), (1, 2), (0, 2)]),
        "P1xP1": FanData(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                         [(0, 2), (2, 1), (1, 3), (3, 0)]),
        "P112": FanData(2, [(1, 0), (0, 1), (-1, -2)],
                        [(0, 1), (1, 2), (0, 2)]),
        "P3": FanData(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                      [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        "P1xP1xP1": FanData(
            3,
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
             (0, 0, -1)],
            [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4),
             (1, 2, 5), (1, 3, 4), (1, 3, 5)]),
        "P1xP2": FanData(
            3,
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)],
            [(0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4),
             (1, 3, 4)]),
    }


def _random_unimodular(rng: random.Random, d: int) -> list[list[int]]:
    U = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(6):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(d):
            U[i][k] += c * U[j][k]
    if rng.random() < 0.5 and d > 1:
        i, j = rng.sample(range(d), 2)
        U[i], U[j] = U[j], U[i]
    if rng.random() < 0.5:
        U[0] = [-a for a in U[0]]
    return U


def random_fan_corpus(count: int = 12, seed: int = 1729) -> list[FanData]:
    """Seeded unimodular twists of the named fans: still valid simplicial
    Fano fans, exercising nontrivial ray coordinates."""
    rng = random.Random(seed)
    base = list(named_fans().values())
    out = []
    while len(out) < count:
        fan = rng.choice(base)
        U = _random_unimodular(rng, fan.d)
        rays = [tuple(sum(U[i][k] * ray[k] for k in range(fan.d))
                      for i in range(fan.d)) for ray in fan.rays]
        out.append(FanData(fan.d, rays, fan.cones))
    return out


# ---------------------------------------------------------------------------
# shared rings: rings(p, v, delta) is diagonal_hypersurface under
# functools.cache, made once per verify run, so that its criteria share
# rank caches

_Rings = Callable[[int, int, int], GradedHypersurface]


def criterion_1(rings: _Rings) -> tuple[bool, str]:
    """Exact memberships in I_1 for the diagonal cubic surface."""
    cases = [
        (5, "x0^2"),
        (7, "x0*x1*x2"),
        (11, "x0^2*x2^3 - x0^2*x3^3"),
        (31, "x0*x1*x2^12*x3 - 10*x0*x1*x2^9*x3^4 + 15*x0*x1*x2^6*x3^7"
             " - 4*x0*x1*x2^3*x3^10 + 12*x0*x1*x3^13"),
    ]
    details = []
    for p, text in cases:
        ring = rings(p, 4, 3)
        f = parse_polynomial(text, p, ring.names).poly
        t0 = time.monotonic()
        res = membership_check(ring, 1, f)
        dt = time.monotonic() - t0
        if not res or dt >= 5.0:
            return False, (f"p={p}: member={bool(res)} in {dt:.2f}s "
                           f"(expected member within 5s)")
        details.append(f"p={p} ok ({dt:.2f}s)")
    return True, "; ".join(details)


def criterion_2(rings: _Rings) -> tuple[bool, str]:
    """Quadric thresholds m_e = p^e - 1 for Q_2, Q_3, p in {3,5}, e in
    {1,2}."""
    details = []
    for d in (2, 3):
        for p in (3, 5):
            ring = rings(p, d + 2, 2)
            for e in (1, 2):
                got = m_threshold(ring, e)
                want = p ** e - 1
                if got != want:
                    return False, (f"Q_{d}, p={p}, e={e}: m_e={got}, "
                                   f"expected {want}")
                details.append(f"Q_{d} p{p} e{e}:{got}")
    return True, " ".join(details)


def criterion_3(rings: _Rings) -> tuple[bool, str]:
    """Cubic thresholds, including the frozen p=5 e=2 regression value."""
    m1_5 = m_threshold(rings(5, 4, 3), 1)
    m1_7 = m_threshold(rings(7, 4, 3), 1)
    m2_5 = m_threshold(rings(5, 4, 3), 2)
    ok = (m1_5 == 1 and m1_7 == 2 and m2_5 == FROZEN["cubic_p5_e2_m"]
          and m2_5 in (8, 9))
    return ok, (f"p5 m_1={m1_5} (want 1), p7 m_1={m1_7} (want 2), "
                f"p5 m_2={m2_5} (frozen {FROZEN['cubic_p5_e2_m']}, "
                f"interval 8..9)")


def criterion_4(rings: _Rings) -> tuple[bool, str]:
    """Strict normalized upper bound (m_2+1)/24 < 1/2 at p=5."""
    m2 = m_threshold(rings(5, 4, 3), 2)
    upper = Fraction(m2 + 1, 24)
    return upper < Fraction(1, 2), f"(m_2+1)/24 = {upper} vs 1/2"


_DUALITY_CASES = [
    # (p, v, delta, e) — quadric surfaces/threefolds and cubic surfaces
    (3, 4, 2, 1), (3, 4, 2, 2), (5, 4, 2, 1), (5, 4, 2, 2),
    (3, 5, 2, 1), (3, 5, 2, 2), (5, 5, 2, 1), (5, 5, 2, 2),
    (5, 4, 3, 1), (5, 4, 3, 2), (7, 4, 3, 1),
]


def criterion_5(rings: _Rings) -> tuple[bool, str]:
    """Duality palindrome b_e(m) = b_e(M_e - m) on full profiles."""
    done, failed = [], []
    for p, v, delta, e in _DUALITY_CASES:
        ring = rings(p, v, delta)
        try:
            pr = profile(ring, e)
        except FrobwError as ex:
            failed.append(f"p{p}v{v}d{delta}e{e}: {type(ex).__name__}: {ex}")
            continue
        if not pr.duality_ok:
            failed.append(f"p{p}v{v}d{delta}e{e}: palindrome broken, "
                          f"b={pr.b}")
            continue
        done.append(f"p{p}v{v}d{delta}e{e}")
    detail = f"palindromes hold: {' '.join(done)}"
    if failed:
        detail += f"; FAILED: {'; '.join(failed)}"
    return not failed, detail


def criterion_6(rings: _Rings) -> tuple[bool, str]:
    """alpha_e + p^-e non-increasing across levels: m_2 <= p(m_1 + 1) - 1,
    which m_threshold enforces, so a violation raises InternalCheckError."""
    details = []
    for p, v, delta in [(3, 4, 2), (5, 4, 2), (3, 5, 2), (5, 5, 2),
                        (5, 4, 3)]:
        ring = rings(p, v, delta)
        vals = []
        for e in (1, 2):
            m_e = m_threshold(ring, e)
            vals.append(Fraction(m_e, p ** e) + Fraction(1, p ** e))
        if vals[0] < vals[1]:
            return False, (f"p={p}, v={v}, delta={delta}: "
                           f"{vals[0]} < {vals[1]}")
        details.append(f"p{p}v{v}d{delta}: {vals[0]}>={vals[1]}")
    return True, "; ".join(details)


def criterion_7(rings: _Rings) -> tuple[bool, str]:
    """Named toric exact alphas, volumes, and the P1xP1 bound."""
    fans = named_fans()
    want = [
        ("P1xP1", Fraction(1, 2), Fraction(8)),
        ("P2", Fraction(FROZEN["alpha_P2"]), Fraction(FROZEN["volume_P2"])),
        ("P1", Fraction(FROZEN["alpha_P1"]), Fraction(FROZEN["volume_P1"])),
    ]
    assert Fraction(FROZEN["alpha_P1xP1"]) == Fraction(1, 2)
    assert Fraction(FROZEN["volume_P1xP1"]) == 8
    for name, alpha, volume in want:
        rep = toric_alpha(fans[name])
        vol = anticanonical_volume(fans[name])
        if rep.alpha != alpha or vol != volume:
            return False, (f"{name}: alpha={rep.alpha} (want {alpha}), "
                           f"volume={vol} (want {volume})")
    bound = toric_alpha(fans["P1xP1"]).bound
    if bound != Fraction(1, 3):
        return False, f"P1xP1 bound={bound}, want 1/3"
    return True, ("P1xP1 1/2 vol 8 bound 1/3; P2 1/3 vol 9; P1 1/2 vol 2 "
                  "(vs frozen)")


def criterion_8(rings: _Rings) -> tuple[bool, str]:
    """alpha <= 1/2 on the named fans and the random fan corpus."""
    fans = list(named_fans().values()) + random_fan_corpus()
    for fan in fans:
        rep = toric_alpha(fan)
        if rep.alpha > Fraction(1, 2):
            return False, f"alpha={rep.alpha} > 1/2 on {fan}"
    return True, f"{len(fans)} fans checked (alpha <= 1/2)"


def criterion_9(rings: _Rings) -> tuple[bool, str]:
    """Cross-module: 1/2 - alpha_e/2 = 1/(2p^e) for Q_2, exact."""
    toric_half = toric_alpha(named_fans()["P1xP1"]).alpha
    details = []
    for p in (3, 5):
        ring = rings(p, 4, 2)
        for e in (1, 2):
            m_e = m_threshold(ring, e)
            norm = Fraction(m_e, p ** e) / 2
            gap = toric_half - norm
            if (norm != Fraction(p ** e - 1, 2 * p ** e)
                    or gap != Fraction(1, 2 * p ** e)):
                return False, (f"p={p}, e={e}: alpha_e/2={norm}, "
                               f"gap={gap}, want 1/(2p^e)")
            details.append(f"p{p}e{e}: gap={gap}")
    return True, "; ".join(details)


def criterion_10(rings: _Rings) -> tuple[bool, str]:
    """[deep] Oracle equivalence on the full shared domain."""
    from .oracle import naive_b_dimension, naive_toric_alpha
    from .splitting import b_dimension
    checked = 0
    for p, v, delta, e in [(3, 4, 2, 1), (5, 4, 3, 1), (3, 4, 2, 2)]:
        ring = rings(p, v, delta)
        M = (p ** e - 1) * ring.fano_coindex
        for m in range(M + 1):
            naive = naive_b_dimension(ring, e, m)
            main = b_dimension(ring, e, m)
            if naive != main:
                return False, (f"p={p}, delta={delta}, e={e}, m={m}: "
                               f"naive={naive}, engine={main}")
            checked += 1
    fans = list(named_fans().values()) + random_fan_corpus()
    skipped = 0
    for fan in fans:
        try:
            naive = naive_toric_alpha(fan)
        except ValidationError:  # outside the oracle's naive domain
            skipped += 1
            continue
        main = toric_alpha(fan).alpha
        if naive != main:
            return False, f"fan {fan}: naive={naive}, engine={main}"
        checked += 1
    return True, (f"{checked} oracle comparisons, all equal "
                  f"({skipped} fans outside the oracle caps skipped)")


def criterion_11(rings: _Rings) -> tuple[bool, str]:
    """Free ranks a_1, a_2 of the p=5 cubic regress against the frozen
    oracle values, and a_3, which no oracle value covers, is reported; s_raw
    reported next to the known limit 15/124 (not reproducible exactly at
    this scale; no tolerance enforced)."""
    ring = rings(5, 4, 3)
    a = [profile(ring, e).a_e for e in (1, 2, 3)]
    frozen = [FROZEN["cubic_p5_e1_a"], FROZEN["cubic_p5_e2_a"]]
    s_raw = [Fraction(a_e, 5 ** (3 * e)) for e, a_e in enumerate(a, 1)]
    return a[:2] == frozen, (
        f"a_1={a[0]} (frozen {frozen[0]}), a_2={a[1]} (frozen {frozen[1]}), "
        f"a_3={a[2]}; s_raw: "
        + ", ".join(f"{s} ~ {float(s):.7f}" for s in s_raw)
        + f"; known limit 15/124 ~ {15 / 124:.7f}")


def criterion_12(rings: _Rings) -> tuple[bool, str]:
    """Fedder booleans for the elliptic cone x^3+y^3+z^3."""
    results = {}
    for p in (5, 7):
        field = PrimeField(p)
        G = PolynomialFp(field, 3,
                         {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        ring = GradedHypersurface(field, ("x", "y", "z"), G)
        results[p] = fedder_is_fsplit(ring, 1)
    ok = (results[5] == FROZEN["elliptic_cone_p5_split"] == False
          and results[7] == FROZEN["elliptic_cone_p7_split"] == True)
    return ok, (f"p=5 split={results[5]} (want False), "
                f"p=7 split={results[7]} (want True)")


CRITERIA: list[tuple[int, str, Callable, bool]] = [
    (1, "exact memberships (cubic surface)", criterion_1, False),
    (2, "quadric thresholds m_e = p^e - 1", criterion_2, False),
    (3, "cubic thresholds incl. frozen m_2", criterion_3, False),
    (4, "strict upper bound (m_2+1)/24 < 1/2", criterion_4, False),
    (5, "duality palindrome on full profiles", criterion_5, False),
    (6, "level monotonicity of alpha_e + p^-e", criterion_6, False),
    (7, "toric exact values", criterion_7, False),
    (8, "toric invariants on a fan corpus", criterion_8, False),
    (9, "cross-module quadric consistency", criterion_9, False),
    (10, "oracle equivalence", criterion_10, True),
    (11, "free-rank regression and s_raw trend", criterion_11, False),
    (12, "Fedder split/non-split booleans", criterion_12, False),
]


def run_acceptance(deep: bool = False,
                   stream: TextIO | None = None) -> int:
    stream = stream if stream is not None else sys.stdout
    rings = functools.cache(diagonal_hypersurface)
    failures = 0
    total0 = time.monotonic()
    for num, name, fn, deep_only in CRITERIA:
        if deep_only and not deep:
            stream.write(f"SKIP criterion {num:2d} ({name}): needs --deep\n")
            continue
        t0 = time.monotonic()
        try:
            ok, detail = fn(rings)
        except FrobwError as ex:
            ok, detail = False, f"{type(ex).__name__}: {ex}"
        dt = time.monotonic() - t0
        status = "PASS" if ok else "FAIL"
        stream.write(f"{status} criterion {num:2d} ({name}) "
                     f"[{dt:.1f}s]: {detail}\n")
        if not ok:
            failures += 1
    stream.write(f"{'OK' if not failures else 'FAILED'}: "
                 f"{len(CRITERIA) - failures} passed, {failures} failed "
                 f"[{time.monotonic() - total0:.1f}s]\n")
    return 0 if failures == 0 else 1
