"""Tests for the benchmark's own code: span arithmetic, the tail-percentile
rule, and wrapper transparency."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (BENCH, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from layers import layer_metrics, targets  # noqa: E402
from tracing import (Target, Tracer, covered, inside, install,  # noqa: E402
                     percentile, samples_beyond, self_times, wrap)


def span(name, start, end, parent):
    return [name, start, end, parent, None, {}]


class TestSelfTime:
    def test_synthetic_tree(self):
        spans = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("b", 3.0, 6.0, 0),      # overlaps a: the union counts once
            span("a.x", 2.0, 3.0, 1),
            span("c", 9.0, 12.0, 0),     # runs past its parent: clipped at 10
        ]
        assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])

    def test_covered_merges_and_clips(self):
        assert covered((0, 10), []) == 0
        assert covered((0, 10), [(2, 3), (2.5, 4), (6, 7)]) == pytest.approx(3)
        assert covered((0, 10), [(-5, 1), (9, 20)]) == pytest.approx(2)

    def test_inside_follows_ancestors(self):
        spans = [span("fit", 0, 5, -1), span("mid", 1, 4, 0), span("iou", 2, 3, 1),
                 span("iou", 6, 7, -1)]
        assert inside(spans, "fit") == [False, True, True, False]


class TestPercentileRule:
    def test_ten_samples_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert samples_beyond(60, 80) == 12

    def test_p90_needs_a_hundred_samples(self):
        assert percentile(list(range(100)), 90) == pytest.approx(89.1)
        with pytest.raises(ValueError):
            percentile(list(range(99)), 90)
        with pytest.raises(ValueError):
            percentile(list(range(49)), 80)
        assert percentile(list(range(50)), 80) == pytest.approx(39.2)

    def test_median_of_any_count(self):
        assert percentile([3.0], 50) == 3.0
        assert percentile([1.0, 2.0], 50) == 1.5
        assert percentile([], 50) == 0.0


class TestWrapper:
    def test_returns_the_same_object(self):
        tracer = Tracer()
        payload = object()
        traced = wrap(tracer, "f", lambda x: (x, payload))
        out = traced(7)
        assert out[0] == 7 and out[1] is payload
        assert [s[0] for s in tracer.spans] == ["f"]

    def test_reraises_the_same_exception(self):
        tracer = Tracer()
        err = KeyError("boom")

        def fail():
            raise err

        with pytest.raises(KeyError) as info:
            wrap(tracer, "f", fail)()
        assert info.value is err
        assert tracer.spans[0][5] == {"error": True}
        assert tracer.spans[0][2] is not None
        # A failed call leaves no span open: the next one is a root span.
        wrap(tracer, "g", lambda: None)()
        assert tracer.spans[1][3] == -1

    def test_nesting_and_attributes(self):
        tracer = Tracer()
        inner = wrap(tracer, "inner", lambda n: n + 1,
                     on_call=lambda at, a, k: at.update(arg=a[0]),
                     on_result=lambda at, r: at.update(out=r))
        outer = wrap(tracer, "outer", lambda n: inner(n) * 2,
                     request=lambda a, k: f"req{a[0]}")
        assert outer(3) == 8
        names = [s[0] for s in tracer.spans]
        assert names == ["outer", "inner"]
        assert tracer.spans[1][3] == 0
        assert tracer.spans[1][4] == "req3"
        assert tracer.spans[1][5] == {"arg": 3, "out": 4}

    def test_install_rebinds_every_namespace_and_restores(self, monkeypatch):
        def f(x):
            return x * 2

        pkg = types.ModuleType("fakepkg")
        pkg.f = f
        sub = types.ModuleType("fakepkg.sub")
        sub.g = f                        # same function under another name
        monkeypatch.setitem(sys.modules, "fakepkg", pkg)
        monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
        tracer = Tracer()
        inst = install(tracer, [Target("pkg.f", pkg, "f")], prefix="fakepkg")
        assert pkg.f is not f and sub.g is pkg.f
        assert sub.g(4) == 8
        inst.uninstall()
        assert pkg.f is f and sub.g is f
        assert len(tracer.spans) == 1

    def test_program_outputs_unchanged(self):
        from tactwin import geometry, metrics
        from tactwin.geometry import OrientedBox
        a = OrientedBox(0.0, 0.0, 4.0, 2.0, 30.0)
        b = OrientedBox(0.5, 0.2, 3.0, 2.5, 75.0)
        before = geometry.rotated_iou(a, b)
        original = geometry.rotated_iou
        tracer = Tracer()
        inst = install(tracer, targets())
        try:
            assert metrics.rotated_iou is not original
            assert metrics.rotated_iou(a, b) == before
        finally:
            inst.uninstall()
        assert geometry.rotated_iou is original and metrics.rotated_iou is original
        assert [s[0] for s in tracer.spans] == ["geometry.rotated_iou"]


class TestLayerMetrics:
    NAMES = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

    def test_empty_trace_reads_zero(self):
        values = layer_metrics([], {}, self.NAMES)
        assert list(values) == self.NAMES
        assert all(v == 0 for v in values.values())

    def test_undeclared_metric_is_refused(self):
        with pytest.raises(KeyError):
            layer_metrics([], {"made.up": 1.0}, self.NAMES)
