"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Suites are cached so the determinism criterion can rerun them and
compare reports byte for byte without tripling the runtime.
"""

import re
import time
from pathlib import Path

from cutkit.config import Config
from cutkit.verify import (
    SUITES,
    suite_bias_preservation,
    suite_conditioning_telescope,
    suite_correction_bound,
    suite_gadget_equivalence,
    suite_kernel_multi,
    suite_kernel_single,
    suite_relaxation_consistency,
    suite_matroid,
    suite_pipeline_ratio,
    suite_sandwich,
)

_CACHE = {}


def run_cached(name, fn):
    if name not in _CACHE:
        t0 = time.perf_counter()
        result = fn(Config())
        _CACHE[name] = (result, time.perf_counter() - t0)
    return _CACHE[name]


def announce(number, title, result, elapsed, budget=None):
    status = "PASS" if result.passed else "FAIL"
    extra = f" [{elapsed:.1f}s]" if budget is None else f" [{elapsed:.1f}s/{budget}s]"
    print(f"ACCEPTANCE {number:02d} {title}: {status}{extra}")
    for f in result.failures[:10]:
        print(f"    counterexample: {f}")
    assert result.passed, f"criterion {number} failed: {result.failures[:3]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} overran {budget}s ({elapsed:.1f}s)"


def test_criterion_01_kernel_guarantee():
    result, elapsed = run_cached("kernel", suite_kernel_single)
    announce(1, "kernel guarantee", result, elapsed, budget=60)


def test_criterion_02_multi_kernel_guarantee():
    result, elapsed = run_cached("kernel-multi", suite_kernel_multi)
    announce(2, "multi-part kernel guarantee", result, elapsed, budget=60)


def test_criterion_03_exchange_step_bounds():
    # steps are emitted inside the criterion 1-2 runs; any per-step
    # violation lands in those suites' failure lists
    res1, t1 = run_cached("kernel", suite_kernel_single)
    res2, t2 = run_cached("kernel-multi", suite_kernel_multi)
    violations = [
        f for f in res1.failures + res2.failures if "exchange step" in f
    ]
    steps = sum(
        int(re.search(r"exchange_steps=(\d+)", r.report).group(1))
        for r in (res1, res2)
    )
    print(f"ACCEPTANCE 03 exchange-step bounds: "
          f"{'PASS' if not violations else 'FAIL'} [steps={steps}]")
    assert steps > 0, "no exchange steps were exercised"
    assert not violations, violations[:3]


def test_criterion_04_matroid_approximation():
    result, elapsed = run_cached("matroid", suite_matroid)
    announce(4, "matroid 0.5-approximation", result, elapsed, budget=120)


def test_criterion_05_sandwich_inequality():
    result, elapsed = run_cached("sandwich", suite_sandwich)
    announce(5, "sandwich inequality", result, elapsed)


def test_criterion_06_relaxation_consistency():
    result, elapsed = run_cached("relaxation", suite_relaxation_consistency)
    announce(6, "relaxation consistency", result, elapsed)


def test_criterion_07_conditioning_telescoping():
    result, elapsed = run_cached("conditioning", suite_conditioning_telescope)
    announce(7, "conditioning telescoping", result, elapsed)


def test_criterion_08_bias_preservation():
    result, elapsed = run_cached("bias", suite_bias_preservation)
    announce(8, "rounding bias preservation", result, elapsed)


def test_criterion_09_correction_bound():
    result, elapsed = run_cached("correction", suite_correction_bound)
    announce(9, "random-correction bound", result, elapsed)


def test_criterion_10_pipeline_ratio_floor():
    result, elapsed = run_cached("pipeline", suite_pipeline_ratio)
    announce(10, "end-to-end ratio floor", result, elapsed, budget=600)


def test_criterion_11_gadget_equivalence():
    result, elapsed = run_cached("gadget", suite_gadget_equivalence)
    announce(11, "hardness gadget equivalence", result, elapsed)


def test_criterion_12_determinism():
    pairs = (
        ("kernel", suite_kernel_single),
        ("matroid", suite_matroid),
        ("pipeline", suite_pipeline_ratio),
    )
    for name, fn in pairs:
        first, _ = run_cached(name, fn)
        second = fn(Config())
        assert second.report == first.report, f"{name} report varies across reruns"
        assert second.passed == first.passed
    print("ACCEPTANCE 12 determinism: PASS")


def test_criterion_13_reports_match_the_pinned_reports():
    """Each suite's report, as `cutkit verify` prints it, equals the one in
    tests/data/verify_reports.txt.  A change that means to move a report
    lists every moved value and regenerates the file with

        PYTHONPATH=src python -m cutkit.cli verify --suite kernel \\
            --suite kernel-multi --suite matroid --suite sandwich \\
            --suite relaxation --suite conditioning --suite bias \\
            --suite correction --suite pipeline --suite gadget \\
            > tests/data/verify_reports.txt

    The suites' cached results are read, so none runs a second time.
    """
    pinned = (Path(__file__).resolve().parent / "data" / "verify_reports.txt").read_text()
    lines = []
    for name, fn in SUITES.items():
        result, _ = run_cached(name, fn)
        lines.append(f"{'PASS' if result.passed else 'FAIL'} {result.report}")
        lines.extend(f"  counterexample: {f}" for f in result.failures)
    assert "\n".join(lines) + "\n" == pinned
    print("ACCEPTANCE 13 pinned reports: PASS")
