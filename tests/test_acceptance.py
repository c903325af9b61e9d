"""The twelve acceptance criteria, one test each.

These call the same criterion functions that `frobw verify` runs.  The
duality criterion is the slowest: its p=5 quadric threefold at level 2
needs every b_2(m), m <= 72, from matrices with up to 234131 rows and up to
17575 columns.  Each Phi_{2,m} there splits into at most 16 graded blocks,
which keeps every rank under the work cap.  The blocks fall into 3
symmetry orbits and one block per orbit is ranked, so the criterion takes
about 35 s on two cores.  Criterion 10 is the slow oracle-equivalence sweep
and is marked `deep` (the CLI runs it under `verify --deep`).  One more
test pins the level-3 profile that criterion 11 reports.
"""

import functools
import io

import pytest

from frobw.acceptance import CRITERIA, run_acceptance
from frobw.splitting import diagonal_hypersurface, profile


@pytest.fixture(scope="module")
def rings():
    return functools.cache(diagonal_hypersurface)


_BY_NUM = {num: fn for num, _, fn, _ in CRITERIA}


def _check(num, rings):
    ok, detail = _BY_NUM[num](rings)
    assert ok, detail


def test_criterion_01_exact_memberships(rings):
    _check(1, rings)


def test_criterion_02_quadric_thresholds(rings):
    _check(2, rings)


def test_criterion_03_cubic_thresholds(rings):
    _check(3, rings)


def test_criterion_04_strict_upper_bound(rings):
    _check(4, rings)


def test_criterion_05_duality_palindrome(rings):
    _check(5, rings)


def test_criterion_06_level_monotonicity(rings):
    _check(6, rings)


def test_criterion_07_toric_exact_values(rings):
    _check(7, rings)


def test_criterion_08_toric_fan_corpus(rings):
    _check(8, rings)


def test_criterion_09_cross_module_consistency(rings):
    _check(9, rings)


@pytest.mark.deep
def test_criterion_10_oracle_equivalence(rings):
    _check(10, rings)


def test_criterion_11_free_rank_regression(rings):
    ok, detail = _BY_NUM[11](rings)
    assert ok, detail
    assert "15/124" in detail  # the known limit must be displayed alongside


def test_cubic_surface_level_3(rings):
    # level 3 of the p=5 cubic surface, which criterion 11 reports, on the
    # shared ring, so its profile runs once.  These values come from the
    # engine, not the oracle, which does not reach this level; the
    # palindrome b(m) = b(M_3 - m) is their independent check
    pr = profile(rings(5, 4, 3), 3)
    assert (pr.m_e, pr.a_e) == (49, 236266)
    assert pr.duality_ok


def test_criterion_12_fedder_booleans(rings):
    _check(12, rings)


def test_verify_runner_reports_every_criterion(monkeypatch):
    import frobw.acceptance as acc

    stubbed = [(num, name, lambda rings, n=num: (n != 5, "stub"), deep_only)
               for num, name, _, deep_only in CRITERIA]
    monkeypatch.setattr(acc, "CRITERIA", stubbed)
    buf = io.StringIO()
    code = run_acceptance(deep=False, stream=buf)
    out = buf.getvalue().splitlines()
    assert code == 1  # the stub fails criterion 5, runner must exit nonzero
    for num, _, _, deep_only in CRITERIA:
        line = next(ln for ln in out if f"criterion {num:2d}" in ln)
        assert line.startswith("SKIP" if deep_only
                               else ("FAIL" if num == 5 else "PASS"))
