import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactwin import geometry
from tactwin.geometry import (MERGE_EPS, OrientedBox, angle_error, boxes_to_corners,
                              normalize_angle, points_in_box, rotated_iou,
                              rotated_iou_gradient, rotated_iou_pairs)


def random_boxes(rng, n, span=5.0, size=(0.5, 8.0)):
    return np.column_stack([
        rng.uniform(-span, span, n),
        rng.uniform(-span, span, n),
        rng.uniform(size[0], size[1], n),
        rng.uniform(size[0], size[1], n),
        rng.uniform(0.0, 180.0, n),
    ])


def degenerate_pairs(rng, n=400):
    """Pair families where eps-tolerance decisions in the clip matter."""
    a = random_boxes(rng, n)
    swapped = np.column_stack([a[:, 0], a[:, 1], a[:, 3], a[:, 2],
                               (a[:, 4] + 90.0) % 180.0])
    # Axis-aligned pairs that share an edge, or only a corner.
    base, other = a.copy(), random_boxes(rng, n)
    base[:, 4] = other[:, 4] = 0.0
    edge = other.copy()
    edge[:, 0] = base[:, 0] + (base[:, 2] + other[:, 2]) / 2.0
    edge[:, 1] = base[:, 1]
    corner = edge.copy()
    corner[:, 1] = base[:, 1] + (base[:, 3] + other[:, 3]) / 2.0

    def lattice():
        boxes = np.round(random_boxes(rng, n) * 4.0) / 4.0
        boxes[:, 2:4] = np.maximum(boxes[:, 2:4], 0.25)
        boxes[:, 4] = rng.choice([0.0, 45.0, 90.0, 135.0], n)
        return boxes

    families = {
        "identical": (a, a.copy()),
        "swapped": (a, swapped),
        "disjoint": (a, a + np.array([40.0, -25.0, 0.0, 0.0, 0.0])),
        "edge_touching": (base, edge),
        "corner_touching": (base, corner),
        "quarter_mm_lattice": (lattice(), lattice()),
    }
    for eps in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        families[f"offset_{eps:g}"] = (a, a + rng.uniform(-eps, eps, a.shape))
    return families


FAMILIES = sorted(degenerate_pairs(np.random.default_rng(0), 1))


def pairs_16_slot(boxes_a, boxes_b):
    """Frozen copy of the 16-slot batched clip that ``rotated_iou_pairs``
    replaced; its outputs are the bit-exact reference for the faster one."""
    def corners(boxes):
        t = np.radians(boxes[:, 4])
        c, s = np.cos(t), np.sin(t)
        hw, hh = boxes[:, 2] / 2.0, boxes[:, 3] / 2.0
        lx = np.stack([hw, -hw, -hw, hw], axis=1)
        ly = np.stack([hh, hh, -hh, -hh], axis=1)
        x = lx * c[:, None] - ly * s[:, None] + boxes[:, 0:1]
        y = lx * s[:, None] + ly * c[:, None] + boxes[:, 1:2]
        return np.stack([x, y], axis=2)

    def areas(pts):
        x, y = pts[..., 0], pts[..., 1]
        rx, ry = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        return np.maximum(0.5 * np.sum(x * ry - rx * y, axis=1), 0.0)

    buf = 16
    boxes_a = np.asarray(boxes_a, dtype=float).reshape(-1, 5)
    boxes_b = np.asarray(boxes_b, dtype=float).reshape(-1, 5)
    n = boxes_a.shape[0]
    if n == 0:
        return np.zeros(0)
    sub, clip = corners(boxes_a), corners(boxes_b)
    pts = np.concatenate([sub, sub[:, 3:4].repeat(buf - 4, axis=1)], axis=1)
    counts = np.full(n, 4, dtype=int)
    rows = np.arange(n)
    slot = np.arange(buf)
    for k in range(4):
        a = clip[:, k]
        b = clip[:, (k + 1) % 4]
        ex = (b[:, 0] - a[:, 0])[:, None]
        ey = (b[:, 1] - a[:, 1])[:, None]
        side = ex * (pts[..., 1] - a[:, 1][:, None]) - ey * (pts[..., 0] - a[:, 0][:, None])
        valid = slot[None, :] < counts[:, None]
        geo_inside = side >= -MERGE_EPS
        prev_pts = np.roll(pts, 1, axis=1)
        prev_side = np.roll(side, 1, axis=1)
        prev_geo = np.roll(geo_inside, 1, axis=1)
        inside = geo_inside & valid
        crossing = (geo_inside != prev_geo) & valid
        denom = prev_side - side
        safe = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        t = np.clip(prev_side / safe, 0.0, 1.0)
        ipts = prev_pts + t[..., None] * (pts - prev_pts)
        emit = crossing.astype(int) + inside.astype(int)
        pos = np.cumsum(emit, axis=1) - emit
        out = np.zeros((n, 2 * buf + 2, 2))
        r_ix = np.broadcast_to(rows[:, None], (n, buf))
        out[r_ix[crossing], pos[crossing]] = ipts[crossing]
        cur_pos = pos + crossing.astype(int)
        out[r_ix[inside], cur_pos[inside]] = pts[inside]
        counts = np.minimum(emit.sum(axis=1), buf)
        pad_ix = np.minimum(slot[None, :], np.maximum(counts - 1, 0)[:, None])
        pts = out[rows[:, None], pad_ix]
    inter = np.where(counts >= 3, areas(pts), 0.0)
    area_a = areas(np.concatenate([sub, sub[:, 3:4].repeat(buf - 4, axis=1)], axis=1))
    area_b = areas(np.concatenate([clip, clip[:, 3:4].repeat(buf - 4, axis=1)], axis=1))
    union = area_a + area_b - inter
    iou = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
    return np.clip(iou, 0.0, 1.0)


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


# Frozen copy of the scalar Sutherland-Hodgman clip that ``rotated_iou`` ran
# before it became a one-row call of the batched clip. Polygons are (n, 2)
# counter-clockwise vertex arrays; the clip merges vertices closer than
# MERGE_EPS, which the batched clip does not.

def box_to_polygon(box: OrientedBox) -> np.ndarray:
    return box.corners()


def polygon_area(v: np.ndarray) -> float:
    """Shoelace area; nonnegative for CCW input, clipped at zero."""
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    rx, ry = np.roll(x, -1), np.roll(y, -1)
    return max(0.5 * float(np.sum(x * ry - rx * y)), 0.0)


def dedupe_vertices(verts: list) -> np.ndarray:
    """Drop consecutive (and wrap-around) vertices closer than MERGE_EPS."""
    out = []
    for p in verts:
        if not out or abs(p[0] - out[-1][0]) + abs(p[1] - out[-1][1]) > MERGE_EPS:
            out.append(p)
    while len(out) > 1 and abs(out[0][0] - out[-1][0]) + abs(out[0][1] - out[-1][1]) <= MERGE_EPS:
        out.pop()
    return np.array(out).reshape(-1, 2)


def polygon_clip(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Intersection of two convex CCW polygons; empty when they do not overlap."""
    verts = [tuple(p) for p in subject]
    n_clip = clip.shape[0]
    if len(verts) == 0 or n_clip < 3:
        return np.zeros((0, 2))
    for k in range(n_clip):
        if not verts:
            break
        ax, ay = clip[k]
        bx, by = clip[(k + 1) % n_clip]
        ex, ey = bx - ax, by - ay
        out = []
        prev = verts[-1]
        prev_side = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in verts:
            side = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if side >= -MERGE_EPS:
                if prev_side < -MERGE_EPS:
                    t = prev_side / (prev_side - side)
                    out.append((prev[0] + t * (cur[0] - prev[0]),
                                prev[1] + t * (cur[1] - prev[1])))
                out.append(cur)
            elif prev_side >= -MERGE_EPS:
                t = prev_side / (prev_side - side)
                out.append((prev[0] + t * (cur[0] - prev[0]),
                            prev[1] + t * (cur[1] - prev[1])))
            prev, prev_side = cur, side
        verts = out
    merged = dedupe_vertices(verts)
    return merged if merged.shape[0] >= 3 else np.zeros((0, 2))


def scalar_iou(a: OrientedBox, b: OrientedBox) -> float:
    """The scalar clip's IoU of a canonically ordered pair: what the old
    ``rotated_iou`` returned below 2**500 mm (its far-apart shortcut gave the
    clip's 0.0)."""
    first, second = sorted((a, b), key=lambda bx: (bx.cx, bx.cy, bx.w, bx.h, bx.theta_deg))
    pa, pb = box_to_polygon(first), box_to_polygon(second)
    inter = polygon_area(polygon_clip(pa, pb))
    union = polygon_area(pa) + polygon_area(pb) - inter
    return 0.0 if union <= 0.0 else min(max(inter / union, 0.0), 1.0)


def mc_iou(a: OrientedBox, b: OrientedBox, n_samples: int, seed: int) -> float:
    """Monte-Carlo point-sampling oracle, independent of the clipping path."""
    rng = np.random.default_rng(seed)
    ca, cb = a.corners(), b.corners()
    lo = np.minimum(ca.min(axis=0), cb.min(axis=0))
    hi = np.maximum(ca.max(axis=0), cb.max(axis=0))
    pts = rng.uniform(lo, hi, size=(n_samples, 2))

    def inside(box):
        t = math.radians(box.theta_deg)
        c, s = math.cos(t), math.sin(t)
        dx, dy = pts[:, 0] - box.cx, pts[:, 1] - box.cy
        u = dx * c + dy * s
        v = -dx * s + dy * c
        return (np.abs(u) <= box.w / 2) & (np.abs(v) <= box.h / 2)

    in_a, in_b = inside(a), inside(b)
    either = np.count_nonzero(in_a | in_b)
    if either == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / either


class TestNormalizeAngle:
    def test_identity(self):
        assert normalize_angle(0) == 0.0

    def test_modular_reduction(self):
        assert normalize_angle(185) == pytest.approx(5.0)

    def test_negative(self):
        # -30 + 180 = 150, re-adding multiples of 180 stays in class
        assert normalize_angle(-30) == pytest.approx(150.0)
        assert normalize_angle(-30 + 5 * 180) == pytest.approx(150.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize_angle(float("nan"))
        with pytest.raises(ValueError):
            normalize_angle(float("inf"))

    @given(st.floats(-1e6, 1e6))
    def test_idempotent_and_in_range(self, raw):
        out = normalize_angle(raw)
        assert 0.0 <= out < 180.0
        assert normalize_angle(out) == out


class TestAngleError:
    def test_paper_wraparound_case(self):
        assert angle_error(1, 179) == pytest.approx(2.0, abs=1e-9)

    def test_identity_rotation(self):
        assert angle_error(37.25, 37.25) == 0.0

    def test_quarter_turn(self):
        assert angle_error(30, 120) == pytest.approx(90.0, abs=1e-9)

    @given(st.floats(0, 180, exclude_max=True), st.floats(0, 180, exclude_max=True))
    @settings(max_examples=200)
    def test_matches_closed_form_and_symmetric(self, a, b):
        d = abs(a - b) % 180.0
        expected = min(d, 180.0 - d)
        assert angle_error(a, b) == pytest.approx(expected, abs=1e-9)
        assert angle_error(a, b) == angle_error(b, a)
        assert 0.0 <= angle_error(a, b) <= 90.0


class TestBoxToPolygon:
    def test_axis_aligned_vertices(self):
        poly = box_to_polygon(OrientedBox(0, 0, 4, 2, 0))
        got = {(round(x, 9), round(y, 9)) for x, y in poly}
        assert got == {(2, 1), (-2, 1), (-2, -1), (2, -1)}

    def test_rotated_square_hits_axes(self):
        poly = box_to_polygon(OrientedBox(0, 0, 2, 2, 45))
        for x, y in poly:
            assert math.hypot(x, y) == pytest.approx(math.sqrt(2))
            assert min(abs(x), abs(y)) == pytest.approx(0.0, abs=1e-12)

    def test_square_90_degrees_same_point_set(self):
        a = box_to_polygon(OrientedBox(1, 1, 2, 2, 90))
        b = box_to_polygon(OrientedBox(1, 1, 2, 2, 0))
        sa = {(round(x, 9), round(y, 9)) for x, y in a}
        sb = {(round(x, 9), round(y, 9)) for x, y in b}
        assert sa == sb

    def test_area_reproduces_w_times_h(self, rng):
        for row in random_boxes(rng, 100):
            box = OrientedBox(*row)
            assert polygon_area(box_to_polygon(box)) == pytest.approx(
                box.w * box.h, rel=1e-12)


class TestPolygonOps:
    def test_self_intersection(self):
        poly = box_to_polygon(OrientedBox(0.5, -0.25, 3, 2, 33))
        inter = polygon_clip(poly, poly)
        assert polygon_area(inter) == pytest.approx(polygon_area(poly), rel=1e-12)

    def test_disjoint_is_empty(self):
        a = box_to_polygon(OrientedBox(0, 0, 1, 1, 0))
        b = box_to_polygon(OrientedBox(5, 5, 1, 1, 30))
        assert len(polygon_clip(a, b)) == 0

    def test_offset_unit_squares(self):
        a = box_to_polygon(OrientedBox(0, 0, 1, 1, 0))
        b = box_to_polygon(OrientedBox(0.5, 0, 1, 1, 0))
        assert polygon_area(polygon_clip(a, b)) == pytest.approx(0.5, rel=1e-12)

    def test_touching_edge_zero_area(self):
        a = box_to_polygon(OrientedBox(0, 0, 2, 2, 0))
        b = box_to_polygon(OrientedBox(2, 0, 2, 2, 0))
        assert polygon_area(polygon_clip(a, b)) == pytest.approx(0.0, abs=1e-12)

    def test_area_examples(self):
        assert polygon_area(np.zeros((0, 2))) == 0.0
        unit = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert polygon_area(unit) == pytest.approx(1.0)
        tri = np.array([[0, 0], [2, 0], [0, 2]], dtype=float)
        assert polygon_area(tri) == pytest.approx(2.0)


class TestRotatedIoU:
    def test_identical_boxes(self):
        box = OrientedBox(1, -2, 3, 5, 71)
        assert rotated_iou(box, box) == 1.0

    def test_axis_aligned_closed_form(self):
        a = OrientedBox(0, 0, 4, 2, 0)
        b = OrientedBox(2, 0, 4, 2, 0)
        assert rotated_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
        # A turned box on itself, and boxes far apart.
        box = OrientedBox(0, 0, 3, 2, 10)
        assert rotated_iou(box, box) == pytest.approx(1.0, abs=1e-12)
        assert rotated_iou(OrientedBox(0, 0, 1, 1, 0), OrientedBox(9, 9, 1, 1, 0)) == 0.0

    def test_rotated_square_octagon_case(self):
        a = OrientedBox(0, 0, 2, 2, 0)
        b = OrientedBox(0, 0, 2, 2, 45)
        inter = 8 * (math.sqrt(2) - 1)
        expected = inter / (8 - inter)
        assert rotated_iou(a, b) == pytest.approx(expected, abs=1e-9)

    def test_symmetric_exactly(self, rng):
        for row_a, row_b in zip(random_boxes(rng, 50), random_boxes(rng, 50)):
            a, b = OrientedBox(*row_a), OrientedBox(*row_b)
            assert rotated_iou(a, b) == rotated_iou(b, a)

    def test_disjoint_zero(self):
        assert rotated_iou(OrientedBox(0, 0, 1, 1, 10),
                           OrientedBox(9, 9, 1, 1, 80)) == 0.0

    def test_scale_invariance(self, rng):
        for row_a, row_b in zip(random_boxes(rng, 40), random_boxes(rng, 40)):
            a, b = OrientedBox(*row_a), OrientedBox(*row_b)
            base = rotated_iou(a, b)
            for s in (0.125, 3.0, 1e3):
                sa = OrientedBox(a.cx * s, a.cy * s, a.w * s, a.h * s, a.theta_deg)
                sb = OrientedBox(b.cx * s, b.cy * s, b.w * s, b.h * s, b.theta_deg)
                assert rotated_iou(sa, sb) == pytest.approx(base, abs=1e-12)

    def test_axis_aligned_matches_interval_formula(self, rng):
        for row_a, row_b in zip(random_boxes(rng, 50), random_boxes(rng, 50)):
            row_a[4] = row_b[4] = 0.0
            a, b = OrientedBox(*row_a), OrientedBox(*row_b)
            ox = max(0.0, min(a.cx + a.w / 2, b.cx + b.w / 2) - max(a.cx - a.w / 2, b.cx - b.w / 2))
            oy = max(0.0, min(a.cy + a.h / 2, b.cy + b.h / 2) - max(a.cy - a.h / 2, b.cy - b.h / 2))
            inter = ox * oy
            union = a.area + b.area - inter
            assert rotated_iou(a, b) == pytest.approx(inter / union, abs=1e-12)

    def test_monte_carlo_oracle_small(self, rng):
        boxes_a = random_boxes(rng, 30)
        boxes_b = random_boxes(rng, 30)
        for i, (ra, rb) in enumerate(zip(boxes_a, boxes_b)):
            a, b = OrientedBox(*ra), OrientedBox(*rb)
            approx = mc_iou(a, b, 200_000, seed=i)
            assert rotated_iou(a, b) == pytest.approx(approx, abs=0.02)

    def test_batched_matches_scalar(self, rng):
        a = random_boxes(rng, 300)
        b = random_boxes(rng, 300)
        batch = rotated_iou_pairs(a, b)
        scalar = [scalar_iou(OrientedBox(*ra), OrientedBox(*rb))
                  for ra, rb in zip(a, b)]
        assert np.allclose(batch, scalar, atol=1e-12)
        single = [rotated_iou(OrientedBox(*ra), OrientedBox(*rb)) for ra, rb in zip(a, b)]
        assert np.allclose(single, scalar, atol=1e-12)

    def test_batched_corners_ccw(self, rng):
        rows = random_boxes(rng, 20)
        corners = boxes_to_corners(rows)
        for row, quad in zip(rows, corners):
            assert np.allclose(quad, OrientedBox(*row).corners())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batched_matches_scalar_degenerate(self, rng, family):
        a, b = degenerate_pairs(rng, 150)[family]
        batch = rotated_iou_pairs(a, b)
        scalar = [scalar_iou(OrientedBox(*ra), OrientedBox(*rb))
                  for ra, rb in zip(a, b)]
        assert np.allclose(batch, scalar, atol=1e-12)

    def test_huge_centre_scores_zero(self):
        # The clip's products overflowed here; such a pair cannot overlap.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rotated_iou(OrientedBox(1e308, 0, 2, 2, 10),
                               OrientedBox(0, 0, 2, 2, 0)) == 0.0
            assert rotated_iou(OrientedBox(1e308, 0, 2, 2, 0),
                               OrientedBox(-1e308, 0, 2, 2, 0)) == 0.0
            assert rotated_iou(OrientedBox(0, -1e308, 2, 2, 0),
                               OrientedBox(0, 1e308, 2, 2, 0)) == 0.0

    def test_huge_boxes_clip_at_a_smaller_scale(self):
        big = 1.7976931348623157e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rotated_iou(OrientedBox(0, 0, big, 2, 37),
                               OrientedBox(0, 0, 2, 2, 0)) == 0.0
            # 2 mm by 2 mm inside 2 mm by 1.8e308 mm
            assert rotated_iou(OrientedBox(0, 0, 2, 2, 0),
                               OrientedBox(0, 0, 2, big, 0)) == pytest.approx(2.0 / big,
                                                                              rel=1e-12)
            huge = OrientedBox(1e200, -1e200, 3e200, 1e200, 30)
            assert rotated_iou(huge, huge) == 1.0
            half = OrientedBox(1e200, -1e200, 1.5e200, 1e200, 30)
            assert rotated_iou(huge, half) == pytest.approx(0.5, abs=1e-12)

    def test_shortcut_agrees_with_clip_near_contact(self, rng):
        # Corner-to-corner pairs along the common diagonal, from overlapping
        # through touching to gaps the clip's eps tolerance still bridges,
        # scaled past 2**500 mm: the overflow guard's far-apart shortcut
        # must score them as the clip does at the guard's scale.
        rows_a, rows_b = [], []
        for i in range(3000):
            lo = (1e-3, 0.5)[i % 2]
            w1, h1, w2, h2 = rng.uniform(lo, 10.0 * lo if lo < 0.5 else 8.0, 4)
            theta = rng.uniform(0.0, 180.0)
            reach = (math.hypot(w1, h1) + math.hypot(w2, h2)) / 2.0
            gap = (0.0, 10.0 ** rng.uniform(-16, -3), rng.uniform(-0.5, 2.5))[i % 3]
            phi = math.atan2(h1, w1) + math.radians(theta)
            dist = reach * (1.0 + gap)
            a = OrientedBox(rng.uniform(-9, 9), rng.uniform(-9, 9), w1, h1, theta)
            b = OrientedBox(a.cx + dist * math.cos(phi), a.cy + dist * math.sin(phi),
                            w2, h2, math.degrees(phi - math.atan2(-h2, -w2)))
            rows_a.append(a.as_array())
            rows_b.append(b.as_array())
        scale = np.array([2.0 ** 600] * 4 + [1.0])
        a, b = np.array(rows_a) * scale, np.array(rows_b) * scale
        scaled_a, scaled_b, shortcut = geometry._rescale_huge_rows(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_bit_identical(rotated_iou_pairs(a, b), pairs_16_slot(scaled_a, scaled_b))
        assert shortcut.sum() > 100


def assert_pairs_match_oracle(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_bit_identical(rotated_iou_pairs(a, b), pairs_16_slot(a, b))


class TestBatchedIoU:
    """``rotated_iou_pairs`` equals the 16-slot clip bit for bit."""

    def test_random_pairs(self):
        rng = np.random.default_rng(20240521)
        for span in (2.0, 5.0, 10.0):
            assert_pairs_match_oracle(random_boxes(rng, 4000, span=span),
                                      random_boxes(rng, 4000, span=span))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_degenerate_families(self, rng, family):
        assert_pairs_match_oracle(*degenerate_pairs(rng, 2000)[family])

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
    def test_scales(self, rng, scale):
        factor = np.array([scale, scale, scale, scale, 1.0])
        a, b = random_boxes(rng, 2000), random_boxes(rng, 2000)
        assert_pairs_match_oracle(a * factor, b * factor)
        assert_pairs_match_oracle(a * factor, (a + rng.uniform(-1e-9, 1e-9, a.shape)) * factor)

    def test_overflow_fallback(self, rng, monkeypatch):
        # Rotated copies clip to octagons; at 5 slots most rows overflow and
        # go through the 16-slot re-clip.
        a = random_boxes(rng, 600)
        b = a.copy()
        b[:, 4] = (a[:, 4] + rng.uniform(5.0, 85.0, 600)) % 180.0
        near = a + rng.uniform(-1e-9, 1e-9, a.shape)
        widths = []
        clip = geometry._clip_quads

        def spy(sx, sy, cx, cy, width):
            widths.append((width, sx.shape[1]))
            return clip(sx, sy, cx, cy, width)

        monkeypatch.setattr(geometry, "_clip_quads", spy)
        monkeypatch.setattr(geometry, "_WIDTH", 5)
        assert_pairs_match_oracle(a, b)
        assert widths[0] == (5, 600)
        assert widths[1][0] == 16 and widths[1][1] > 300
        assert_pairs_match_oracle(a, near)

    def test_disjoint_is_exactly_zero(self, rng):
        a = random_boxes(rng, 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rotated_iou_pairs(a, a + np.array([30.0, 30.0, 0.0, 0.0, 0.0]))
        assert np.all(got == 0.0)

    def test_identical_is_one(self, rng):
        a = random_boxes(rng, 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rotated_iou_pairs(a, a)
        assert np.all(got == 1.0)

    def test_huge_centre_scores_zero(self):
        big = 1.7976931348623157e308
        a = np.array([[1e308, 0, 2, 2, 10], [1e308, 0, 2, 2, 0],
                      [0, -1e308, 2, 2, 0], [0, 0, big, 2, 37], [0, 0, 2, 2, 0]])
        b = np.array([[0, 0, 2, 2, 0], [-1e308, 0, 2, 2, 0],
                      [0, 1e308, 2, 2, 0], [0, 0, 2, 2, 0], [0, 0, 2, big, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rotated_iou_pairs(a, b)
        assert got[:3].tolist() == [0.0] * 3
        # a 2 mm box inside a 1.8e308 mm one
        assert np.all((got[3:] >= 0.0) & (got[3:] < 1e-300))

    def test_huge_boxes_clip_at_a_smaller_scale(self, rng):
        huge = [1e200, -1e200, 3e200, 1e200, 30]
        half = [1e200, -1e200, 1.5e200, 1e200, 30]
        a, b = random_boxes(rng, 300), random_boxes(rng, 300)
        a[[7, 8]], b[[7, 8]] = [huge, huge], [huge, half]
        a[20, 4] = 1e300    # a huge angle trips the batch test, not the row's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rotated_iou_pairs(a, b)
        assert got[7] == 1.0
        assert got[8] == pytest.approx(0.5, abs=1e-12)
        rest = np.ones(300, dtype=bool)
        rest[[7, 8]] = False
        assert_bit_identical(got[rest], pairs_16_slot(a[rest], b[rest]))

    def test_infinite_entries_score_zero(self, rng):
        inf = math.inf
        a, b = random_boxes(rng, 300), random_boxes(rng, 300)
        bad = [(3, 0, inf), (4, 1, -inf), (5, 2, inf), (6, 3, inf), (7, 4, inf),
               (8, 4, -inf), (9, 0, -inf)]
        for row, col, value in bad[:4]:
            a[row, col] = value
        for row, col, value in bad[4:]:
            b[row, col] = value
        a[10, 0], b[10, 2] = 1e300, inf    # huge and infinite in one row
        a[11, 4] = 1e300                   # a finite row that trips the batch test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rotated_iou_pairs(a, b)
            swapped = rotated_iou_pairs(b, a)
            assert rotated_iou(OrientedBox(inf, 0, 2, 2, 0), OrientedBox(0, 0, 2, 2, 0)) == 0.0
            assert rotated_iou(OrientedBox(0, 0, 2, 2, 0), OrientedBox(0, 0, inf, 2, 0)) == 0.0
        infinite = np.zeros(300, dtype=bool)
        infinite[[3, 4, 5, 6, 7, 8, 9, 10]] = True
        assert np.all(got[infinite] == 0.0) and np.all(swapped[infinite] == 0.0)
        assert_bit_identical(got[~infinite], pairs_16_slot(a[~infinite], b[~infinite]))

    def test_infinite_single_pairs(self):
        inf = math.inf
        unit = [[0, 0, 2, 2, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in ([inf, 0, 2, 2, 0], [0, -inf, 2, 2, 0], [0, 0, inf, 2, 0],
                        [0, 0, 2, inf, 0], [0, 0, 2, 2, inf], [0, 0, 2, 2, -inf]):
                assert rotated_iou_pairs([row], unit).tolist() == [0.0]
                assert rotated_iou_pairs(unit, [row]).tolist() == [0.0]

    def test_empty_input(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rotated_iou_pairs(np.zeros((0, 5)), np.zeros((0, 5)))
        assert got.shape == (0,)


def iou_differences(a, b, step):
    """Central, forward and backward differences of ``rotated_iou_pairs`` in
    the five parameters of each first box, each (N, 5)."""
    base = rotated_iou_pairs(a, b)
    up, down = [], []
    for j in range(5):
        e = np.zeros(5)
        e[j] = step
        up.append(rotated_iou_pairs(a + e, b))
        down.append(rotated_iou_pairs(a - e, b))
    up, down = np.stack(up, axis=1), np.stack(down, axis=1)
    return (up - down) / (2.0 * step), (up - base[:, None]) / step, (base[:, None] - down) / step


def assert_matches_differences(a, b, step, rtol=1e-6, tight_share=0.99):
    """The analytic gradient equals central differences to rtol of each row's
    largest entry plus the IoU's float noise over the step, in at least
    tight_share of the entries. Every entry is allowed half the spread of the
    one-sided differences on top: a kink within the step widens that spread,
    and the analytic value is then one side's slope, half the spread from
    the mean."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rotated_iou_gradient(a, b, rotated_iou_pairs(a, b))
    central, forward, backward = iou_differences(a, b, step)
    err = np.abs(got - central)
    tol = rtol * np.abs(central).max(axis=1, keepdims=True) + 1e-14 / step
    assert np.all(err <= tol + np.abs(forward - backward) / 2.0)
    assert (err <= tol).mean() >= tight_share
    return got


def exact_clip(subject, clip):
    """Sutherland-Hodgman clip of one quad by another in exact rational
    arithmetic, with no tolerance: a point on a clip edge is inside."""
    out = subject
    for k in range(4):
        (ax, ay), (bx, by) = clip[k], clip[(k + 1) % 4]
        pts, out = out, []
        for i, cur in enumerate(pts):
            prev = pts[i - 1]
            ps = (bx - ax) * (prev[1] - ay) - (by - ay) * (prev[0] - ax)
            cs = (bx - ax) * (cur[1] - ay) - (by - ay) * (cur[0] - ax)
            if (ps >= 0) != (cs >= 0):
                t = ps / (ps - cs)
                out.append((prev[0] + t * (cur[0] - prev[0]),
                            prev[1] + t * (cur[1] - prev[1])))
            if cs >= 0:
                out.append(cur)
    return out


def exact_area(poly):
    n = len(poly)
    if n < 3:
        return Fraction(0)
    return sum(poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
               for i in range(n)) / 2


def exact_central_differences(a, b, step=Fraction(1, 10 ** 12)):
    """Central differences of the IoU in the five parameters of each first
    box, in exact arithmetic on the float corners: each corner moves by
    step times its velocity for that parameter. Free of the float clip's
    tolerance, so a step far below any edge gap is usable."""
    out = np.zeros_like(a)
    for r, (pa, pb) in enumerate(zip(boxes_to_corners(a), boxes_to_corners(b))):
        t = math.radians(a[r, 4])
        along, across = np.array([math.cos(t), math.sin(t)]), np.array([-math.sin(t), math.cos(t)])
        rel = pa - a[r, :2]
        velocities = [np.tile([1.0, 0.0], (4, 1)), np.tile([0.0, 1.0], (4, 1)),
                      np.sign(rel @ along)[:, None] * along / 2.0,
                      np.sign(rel @ across)[:, None] * across / 2.0,
                      np.column_stack([-rel[:, 1], rel[:, 0]]) * (math.pi / 180.0)]
        clip = [tuple(map(Fraction, p)) for p in pb]
        for j, vel in enumerate(velocities):
            ious = []
            for sign in (1, -1):
                moved = [tuple(Fraction(x) + sign * step * Fraction(v) for x, v in zip(p, pv))
                         for p, pv in zip(pa, vel)]
                inter = exact_area(exact_clip(moved, clip))
                ious.append(inter / (exact_area(moved) + exact_area(clip) - inter))
            out[r, j] = float((ious[0] - ious[1]) / (2 * step))
    return out


def rotate_pairs(rng, a, b):
    """The same pairs turned about the origin by one random angle per row."""
    phi = rng.uniform(0.0, 180.0, a.shape[0])
    c, s = np.cos(np.radians(phi)), np.sin(np.radians(phi))

    def turn(boxes):
        out = boxes.copy()
        out[:, 0] = c * boxes[:, 0] - s * boxes[:, 1]
        out[:, 1] = s * boxes[:, 0] + c * boxes[:, 1]
        out[:, 4] = (boxes[:, 4] + phi) % 180.0
        return out

    return turn(a), turn(b)


class TestIoUGradient:
    """``rotated_iou_gradient`` against differences of ``rotated_iou_pairs``."""

    def test_random_pairs(self, rng):
        a, b = random_boxes(rng, 3000, span=3.0), random_boxes(rng, 3000, span=3.0)
        got = assert_matches_differences(a, b, 1e-6)
        assert (got != 0).any(axis=1).sum() > 1000

    def test_containment(self, rng):
        # The second box holds the first with a margin of at least 0.05 mm,
        # or the other way round.
        outer = random_boxes(rng, 500, size=(4.0, 8.0))
        inner = outer.copy()
        inner[:, 2:4] = outer[:, 2:4] * rng.uniform(0.1, 0.5, (500, 2))
        room = (outer[:, 2:4] - inner[:, 2:4]) / 2.0 - 0.05
        u, v = (rng.uniform(-1.0, 1.0, (500, 2)) * room).T
        t = np.radians(outer[:, 4])
        inner[:, 0] += u * np.cos(t) - v * np.sin(t)
        inner[:, 1] += u * np.sin(t) + v * np.cos(t)
        held = assert_matches_differences(inner, outer, 1e-6)
        holding = assert_matches_differences(outer, inner, 1e-6)
        # A held box's boundary is all inside: only its own area moves the IoU.
        assert np.all(held[:, [0, 1, 4]] == 0.0)
        iou = rotated_iou_pairs(outer, inner)
        area = outer[:, 2] * outer[:, 3]
        assert np.allclose(holding[:, 2], -iou * outer[:, 3] / area, rtol=1e-12)

    def test_swapped_representation(self, rng):
        # (w, h, theta) and (h, w, theta + 90) are one box: the gradient
        # agrees, with the w and h columns swapped.
        a, b = random_boxes(rng, 1000, span=3.0), random_boxes(rng, 1000, span=3.0)
        swapped = np.column_stack([a[:, 0], a[:, 1], a[:, 3], a[:, 2],
                                   (a[:, 4] + 90.0) % 180.0])
        got = assert_matches_differences(swapped, b, 1e-6)
        plain = rotated_iou_gradient(a, b, rotated_iou_pairs(a, b))
        assert np.allclose(got, plain[:, [0, 1, 3, 2, 4]], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("gap", [-1e-3, -1e-4, -1e-5, 1e-5, 1e-3])
    @pytest.mark.parametrize("touch", ["edge", "corner"])
    def test_touching_pairs(self, rng, touch, gap):
        # Parallel boxes side by side, or corner to corner, overlapping
        # (gap < 0) or apart by more than the step; turned as a whole.
        a, b = random_boxes(rng, 400), random_boxes(rng, 400)
        a[:, 4] = b[:, 4] = 0.0
        b[:, 0] = a[:, 0] + (a[:, 2] + b[:, 2]) / 2.0 + gap
        b[:, 1] = a[:, 1]
        if touch == "corner":
            b[:, 1] += (a[:, 3] + b[:, 3]) / 2.0 + gap
        a, b = rotate_pairs(rng, a, b)
        got = assert_matches_differences(a, b, 1e-6)
        if gap > 0:
            assert np.all(got == 0.0)
        else:
            assert np.all(got[:, 0] != 0.0)

    @pytest.mark.parametrize("eps", [1e-6, 1e-5, 1e-4, 1e-3])
    def test_near_identical_pairs(self, rng, eps):
        # Edges lie within eps of each other, closer than the float clip's
        # tolerance lets a float difference resolve: compare with exact ones.
        a = random_boxes(rng, 40)
        b = a + rng.uniform(-eps, eps, a.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rotated_iou_gradient(a, b, rotated_iou_pairs(a, b))
        want = exact_central_differences(a, b)
        assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want).max(axis=1, keepdims=True))
        assert np.all(np.abs(got[:, 2:4]) > 0)

    def test_disjoint_and_guarded_pairs_are_exactly_zero(self, rng):
        inf = math.inf
        a, b = random_boxes(rng, 300), random_boxes(rng, 300)
        b[:100] = a[:100] + np.array([40.0, -25.0, 0.0, 0.0, 0.0])
        a[100], a[101, 0], a[102, 1] = [1e308, 0, 2, 2, 10], inf, -inf
        a[103, 0] = 1e300    # guarded: more than twice the reach apart
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iou = rotated_iou_pairs(a, b)
            got = rotated_iou_gradient(a, b, iou)
        assert np.all(iou[:104] == 0.0) and np.all(got[:104] == 0.0)
        assert (got[104:] != 0).any()

    def test_coincident_edges_follow_the_closed_convention(self):
        # Identical boxes: every edge lies on the other box's boundary. The
        # size terms are those of shrinking (the edges move inside); shift
        # and turn move coincident edges both ways and cancel to 0.
        box = np.array([[0.5, -0.25, 2.0, 3.0, 0.0], [1.0, 2.0, 1.5, 0.5, 30.0]])
        got = rotated_iou_gradient(box, box, rotated_iou_pairs(box, box))
        _, _, backward = iou_differences(box, box, 1e-7)
        assert np.all(got[:, [0, 1, 4]] == 0.0)
        assert np.allclose(got[:, 2:4], backward[:, 2:4], rtol=1e-6)
        assert np.allclose(got[:, 2:4], 1.0 / box[:, 2:4], rtol=1e-12)


class TestPointsInBox:
    def test_center_and_outside(self):
        box = OrientedBox(1, 1, 4, 2, 30)
        res = points_in_box(np.array([[1, 1], [50, 50]]), box)
        assert res.tolist() == [True, False]

    def test_matches_corner_containment(self, rng):
        box = OrientedBox(0.5, -1, 5, 3, 67)
        pts = rng.uniform(-5, 5, size=(500, 2))
        got = points_in_box(pts, box)
        t = math.radians(box.theta_deg)
        c, s = math.cos(t), math.sin(t)
        for (x, y), flag in zip(pts, got):
            u = (x - box.cx) * c + (y - box.cy) * s
            v = -(x - box.cx) * s + (y - box.cy) * c
            assert flag == (abs(u) <= 2.5 and abs(v) <= 1.5)
