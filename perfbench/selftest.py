"""Self-tests of the benchmark itself (not of frobw).

    python3 perfbench/selftest.py

Checks that the answer checker rejects a corrupted reference, that traced
and untraced passes return identical answers with every op second inside a
span, that the recorded references agree with frobw.oracle inside its caps,
that the seeded inputs leave the answers unchanged, and that the benchmark
exits nonzero without printing a result when the frobw sources are missing.
Takes about a minute.  Exits nonzero when a test fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_frobw()

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from frobw import oracle, splitting  # noqa: E402
from frobw.errors import ValidationError  # noqa: E402
from frobw.toric import FanData  # noqa: E402

# cheap ops of each workload (the full ops take 10-25 s per pass)
CHEAP = {
    "profile-dense": ["fano_report cubic p5 e1..2"],
    "threshold-sketch": ["m_threshold Q2 p3 e1", "m_threshold Q2 p3 e2",
                         "m_threshold Q3 p3 e2", "m_threshold cubic p5 e2"],
    "cli-mixed": ["cli membership p5", "cli membership p11",
                  "cli toric-alpha P2", "cli toric-alpha twist3-P3",
                  "cli fano v4 d3 p7 e1"],
}


def cheap_ops(workload: str, seed: int, refs: dict, scratch: Path):
    ops = workloads.build(workload, seed, refs, scratch)
    return [op for op in ops if op.name in CHEAP[workload]]


#: (reference key, the workload whose cheap ops compare against it)
CORRUPTIONS = [
    (("b", 5, 4, 3, 2), "profile-dense"),
    (("m", 3, 4, 2, 2), "threshold-sketch"),
    (("m", 7, 4, 3, 1), "cli-mixed"),
    (("alpha", "P2"), "cli-mixed"),
]


def failed_ops(ops) -> int:
    return run.tally(ops, run.run_loop(ops, 0), "none", [])[1]


def test_checker_rejects_corrupted_reference(scratch: Path):
    clean = checks.references()
    for workload in CHEAP:
        assert failed_ops(cheap_ops(workload, 3, clean, scratch)) == 0
    for key, workload in CORRUPTIONS:
        refs = dict(clean)
        if isinstance(refs[key], list):
            refs[key] = refs[key][:-1] + [refs[key][-1] + 1]
        else:
            refs[key] = refs[key] + 1
        assert failed_ops(cheap_ops(workload, 3, refs, scratch)) >= 1, key


def test_traced_matches_untraced(scratch: Path):
    refs = checks.references()
    for workload in CHEAP:
        ops = cheap_ops(workload, 5, refs, scratch)
        tr = tracing.Tracer()
        passes = run.run_loop(ops, 0, tr)
        assert [p["kind"] for p in passes] == ["pass", "traced"]
        plain, traced = passes
        assert plain["answers"] == traced["answers"], workload
        assert not any(plain["problems"].values())
        assert not any(traced["problems"].values())
        spans = traced["spans"]
        assert all(s.end is not None for s in spans)
        assert {s.op for s in spans if s.name == "op"} == {
            f"1:{i}" for i in range(len(ops))}
        assert tracing.op_coverage_gap(spans) < 1e-6
        metrics = tracing.layer_metrics(spans)
        assert metrics["splitting.b_dimension.calls"] > 0
        # the wrappers are gone again
        assert not hasattr(splitting.b_dimension, "__wrapped__")


def test_references_against_oracle(scratch: Path):
    refs = checks.references()

    def naive_profile(p, v, delta, e):
        ring = workloads.ring_of(p, workloads.diagonal(v, delta))
        M = (p ** e - 1) * (v - delta)
        out = []
        for m in range(M + 1):
            try:
                out.append(oracle.naive_b_dimension(ring, e, m))
            except ValidationError:  # outside the oracle's caps
                break
        return out

    q3 = naive_profile(3, 5, 2, 2)
    assert len(q3) >= 8 and q3 == refs[("b", 3, 5, 2, 2)][:len(q3)], q3
    assert naive_profile(7, 4, 3, 1) == refs[("b", 7, 4, 3, 1)]
    # the closed forms of the recorded quadric surface and conic lists,
    # and the conic threshold m_e = (q-1)/2, at p=3
    for e in (1, 2):
        q = 3 ** e
        M = 2 * (q - 1)
        assert naive_profile(3, 4, 2, e) == [(min(m, M - m) + 1) ** 2
                                             for m in range(M + 1)]
        conic = naive_profile(3, 3, 2, e)
        assert conic == [2 * min(m, q - 1 - m) + 1 for m in range(q)]
    for name in ("P112", "P3", "P1xP1xP1", "P1xP2"):
        d, rays, cones = workloads.NAMED_FANS[name]
        assert oracle.naive_toric_alpha(FanData(d, rays, cones)) == refs[
            ("alpha", name)], name


def test_seeded_inputs_keep_answers(scratch: Path):
    # the oracle agrees that the substitution keeps the cubic's b-profile
    for seed in (1, 2):
        subs = workloads.Substitutions(seed)
        sub = subs.draw(5, 4)
        assert sub != ([1] * 4, list(range(4)))
        terms = workloads.substitute(workloads.diagonal(4, 3), sub, 5)
        ring = workloads.ring_of(5, terms)
        b = [oracle.naive_b_dimension(ring, 1, m) for m in range(5)]
        assert b == checks.references()[("b", 5, 4, 3, 1)], b
    # twisted fans keep alpha (oracle), and seed 0 is the identity
    for seed in (0, 7):
        for name, base, obj in workloads.fan_inputs(seed)[7:]:
            fan = FanData(obj["dim"], obj["rays"], obj["cones"])
            alpha = oracle.naive_toric_alpha(fan)
            assert alpha == checks.references()[("alpha", base)], name
    assert workloads.Substitutions(0).draw(7, 4) == ([1] * 4, [0, 1, 2, 3])
    assert workloads.fan_inputs(0)[:7] == workloads.fan_inputs(9)[:7]
    assert workloads.fan_inputs(9) == workloads.fan_inputs(9)
    assert workloads.fan_inputs(9) != workloads.fan_inputs(10)


def test_exits_nonzero_without_sources(scratch: Path):
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "cli-mixed", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    run.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    failed = 0
    try:
        for test in tests:
            try:
                test(scratch)
                print(f"PASS {test.__name__}")
            except Exception:
                failed += 1
                print(f"FAIL {test.__name__}")
                traceback.print_exc()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
