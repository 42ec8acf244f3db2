"""The benchmark's view of the program: every per-layer metric that
BENCHMARK.json declares must find the functions its spans wrap.

bench/spans.py skips a span whose target is gone and leaves its metrics out
of the report, so a renamed or deleted function shows up only as missing
metrics in a benchmark run.  This test finds that in about a second.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

import nppreserve
import nppreserve.cli
from nppreserve import check_p2, check_ratio, parse_polynomial
from conftest import CERTIFY_MEMBER, QUINTIC

ROOT = Path(__file__).resolve().parents[1]

# per-layer metrics that bench/run.py computes itself, with the spans they need
RUN_METRICS = {
    "cone.peak_alloc_mib": ["cone.ratio"],
    "cli.parse_ms": ["cli.parse"],
    "cli.batch_overhead_ms": ["preserver.p2"],
    "trace.overhead_pct": [],
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def test_every_declared_metric_has_its_spans(spans, tracer):
    for name in declared_metrics():
        assert name in spans.LAYER or name in RUN_METRICS, name
        needs = spans.LAYER[name][1] if name in spans.LAYER else RUN_METRICS[name]
        missing = [span for span in needs if span not in tracer.traced]
        assert not missing, f"{name} needs {missing}"


def test_batch_entry_point_exists():
    assert callable(nppreserve.cli.run)
    assert callable(nppreserve.cli.parse_polynomial)


def test_uninstall_restores_the_program(spans):
    from nppreserve import cone

    originals = (cone._scan_grid, cone.certify_ratio, cone.check_ratio, nppreserve.check_p2)
    tracer = spans.Tracer()
    tracer.install()
    assert cone._scan_grid is not originals[0]
    tracer.uninstall()
    assert (cone._scan_grid, cone.certify_ratio, cone.check_ratio, nppreserve.check_p2) == originals


def test_cone_hooks_sum_the_grid_calls(spans):
    # check_ratio scans grid levels 1-2 once, then decides; the grid hook
    # adds up each call's counters to check_ratio's own totals.  The
    # cone.bernstein span wraps certify_ratio, the exact decision: the member
    # and the refutation below the grid reach it, the quintic, refuted at
    # grid level 1, does not
    deep = parse_polynomial("x^5 - 1/100x^3 + x")  # no grid point is negative
    expected = {"grid_levels": 0, "grid_exact_checks": 0}
    for p in (CERTIFY_MEMBER, QUINTIC, deep):
        for key in expected:
            expected[key] += check_ratio(p).budget_spent[key]
    tracer = spans.Tracer()
    with tracer.active("probe"):
        for p in (CERTIFY_MEMBER, QUINTIC, deep):
            check_p2(p)
    count = tracer.counts["probe"]
    assert {key: count[key] for key in expected} == expected == {
        "grid_levels": 2 + 1 + 2, "grid_exact_checks": 12 + 1 + 12}
    assert count["route_grid"] == 2  # the quintic and the deep refutation
    calls = tracer.totals("probe")[0]
    assert calls["cone.ratio"] == 3 and calls["cone.grid"] == 1 + 1 + 1
    assert calls["cone.bernstein"] == 2
    assert "cone.bernstein" in tracer.traced


def test_spectral_stage_decides_through_the_halfline_span(spans):
    # the per-layer metrics see the spectral stage's half-line decisions only
    # through the halfline.decide span, which wraps check_nonneg_halfline: a
    # spectral member and a spectral non-member each make three of them
    # inside the preserver.spectral span
    tracer = spans.Tracer()
    with tracer.active("probe"):
        for p in (CERTIFY_MEMBER, parse_polynomial("-x")):
            check_p2(p)
    spectral = [i for i, span in enumerate(tracer.spans) if span[0] == "preserver.spectral"]
    inside = Counter(span[3] for span in tracer.spans if span[0] == "halfline.decide")
    assert len(spectral) == 2
    assert [inside[i] for i in spectral] == [3, 3]
    assert tracer.counts["probe"]["spectral_rejects"] == 1


def test_public_names_resolve():
    missing = [name for name in nppreserve.__all__ if not hasattr(nppreserve, name)]
    assert not missing
