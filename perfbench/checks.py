"""Reference answers and the answer checker.

References come from three independent sources, never from the run that is
being checked:

* FROZEN (minted by the naive code path in tools/mint_frozen_values.py): the
  cubic b-profiles, a_1, a_2 and m_2 at p=5, m_1 at p=7, and alpha and
  volume of P1, P2, P1xP1.
* Theory: m_e = p^e - 1 for the quadric surface and threefold; palindromic
  b-profiles; alpha <= 1/2; alpha and the volume are invariant under a
  unimodular twist; known anticanonical volumes.
* Lists recorded from the seed engine (written in closed form where one
  fits).  selftest.py cross-checks them against frobw.oracle at every degree
  inside the oracle's caps, and the closed forms at smaller primes.

A key is a tuple; refs maps it to the expected value.  references() builds
a fresh dict so that a test can corrupt its own copy.
"""

from __future__ import annotations

from fractions import Fraction

from frobw.frozen_values import FROZEN


def references() -> dict:
    refs: dict = {}
    # quadric thresholds: m_e = p^e - 1 for Q_2 and Q_3
    for v in (4, 5):
        for p in (3, 5):
            for e in (1, 2):
                refs[("m", p, v, 2, e)] = p ** e - 1
    # quadric surface, p=5, e=2 (recorded): (m+1)^2 up to the middle
    refs[("b", 5, 4, 2, 2)] = [(min(m, 48 - m) + 1) ** 2 for m in range(49)]
    # quadric threefold, p=3, e=2 (recorded; oracle-checked for m <= 7)
    refs[("b", 3, 5, 2, 2)] = [1, 5, 14, 30, 55, 91, 140, 204, 285, 380, 481,
                               580, 653, 580, 481, 380, 285, 204, 140, 91, 55,
                               30, 14, 5, 1]
    # conic, p=101, e=1 (recorded): b = dim R_m up to m_1 = (p-1)/2
    refs[("b", 101, 3, 2, 1)] = [2 * min(m, 100 - m) + 1 for m in range(101)]
    refs[("m", 101, 3, 2, 1)] = 50
    # cubic surface (FROZEN, plus the recorded p=7 profile)
    for e in (1, 2):
        refs[("b", 5, 4, 3, e)] = list(FROZEN[f"cubic_p5_e{e}_b"])
        refs[("a", 5, 4, 3, e)] = FROZEN[f"cubic_p5_e{e}_a"]
        refs[("m", 5, 4, 3, e)] = FROZEN[f"cubic_p5_e{e}_m"]
    refs[("m", 7, 4, 3, 1)] = FROZEN["cubic_p7_e1_m"]
    refs[("b", 7, 4, 3, 1)] = [1, 4, 10, 15, 10, 4, 1]
    # toric: FROZEN for P1, P2, P1xP1; recorded (oracle-checked) alphas and
    # theory volumes for the others
    alphas = {"P112": "1/4", "P3": "1/4", "P1xP1xP1": "1/2", "P1xP2": "1/3"}
    volumes = {"P112": "8", "P3": "64", "P1xP1xP1": "48", "P1xP2": "54"}
    for name in ("P1", "P2", "P1xP1"):
        alphas[name] = FROZEN[f"alpha_{name}"]
        volumes[name] = FROZEN[f"volume_{name}"]
    for name in alphas:
        refs[("alpha", name)] = Fraction(alphas[name])
        refs[("volume", name)] = Fraction(volumes[name])
    return refs


def _expect(refs: dict, key, got, what: str) -> list[str]:
    if key in refs and refs[key] != got:
        return [f"{what}: got {got}, reference {refs[key]}"]
    return []


def check_profile(refs: dict, p: int, v: int, delta: int,
                  ans: dict) -> list[str]:
    """A full level-e b-profile: reference list, threshold, free rank,
    palindrome, and the engine's own duality flag."""
    e, b = ans["e"], ans["b"]
    tag = f"p{p} v{v} d{delta} e{e}"
    bad = _expect(refs, ("b", p, v, delta, e), b, f"{tag} b")
    bad += _expect(refs, ("m", p, v, delta, e), ans["m_e"], f"{tag} m_e")
    bad += _expect(refs, ("a", p, v, delta, e), ans["a_e"], f"{tag} a_e")
    if ans["a_e"] != sum(b):
        bad.append(f"{tag}: a_e {ans['a_e']} != sum(b) {sum(b)}")
    if b != b[::-1]:
        bad.append(f"{tag}: b-profile is not palindromic")
    if ans["duality_ok"] is not True:
        bad.append(f"{tag}: duality_ok = {ans['duality_ok']}")
    return bad


def check_threshold(refs: dict, p: int, v: int, delta: int, e: int,
                    m_e: int) -> list[str]:
    key = ("m", p, v, delta, e)
    if key not in refs:
        return [f"no reference for m_e of p{p} v{v} d{delta} e{e}"]
    return _expect(refs, key, m_e, f"p{p} v{v} d{delta} e{e} m_e")


def _cli_ok(ans: dict) -> list[str]:
    return [] if ans["rc"] == 0 else [f"exit code {ans['rc']}"]


def check_cli_profile(refs: dict, p: int, v: int, delta: int,
                      ans: dict) -> list[str]:
    """`frobw split` / `frobw fano` report."""
    bad = _cli_ok(ans)
    if bad:
        return bad
    rep = ans["report"]
    for res in rep["results"]:
        if "b" in res:
            bad += check_profile(refs, p, v, delta, res)
    if rep["checks"]["duality_ok"] is not True:
        bad.append("report check duality_ok is not true")
    return bad


def check_cli_membership(ans: dict) -> list[str]:
    """Every criterion-1 element is a genuine (non-vacuous) member."""
    bad = _cli_ok(ans)
    if bad:
        return bad
    res = ans["report"]["results"][0]
    if res["member"] is not True:
        bad.append("element is not a member")
    if res["in_principal_ideal"] is not False:
        bad.append("element lies in (G)")
    return bad


def check_cli_toric(refs: dict, base: str, ans: dict) -> list[str]:
    """alpha and volume equal the base fan's references; alpha <= 1/2."""
    bad = _cli_ok(ans)
    if bad:
        return bad
    res = ans["report"]["results"][0]
    alpha = Fraction(res["alpha"])
    bad += _expect(refs, ("alpha", base), alpha, f"{base} alpha")
    bad += _expect(refs, ("volume", base), Fraction(res["volume"]),
                   f"{base} volume")
    if alpha > Fraction(1, 2):
        bad.append(f"alpha {res['alpha']} > 1/2")
    if ans["report"]["checks"]["alpha_le_half"] is not True:
        bad.append("report check alpha_le_half is not true")
    return bad
