import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tactwin.assignment import (_RAW_CLIP, Assignment, Positives, PositiveTerms,
                                PredictionField, _decode_raw, bce, bce_grad,
                                loss_gradient, positive_targets, simota_assign,
                                smooth_l1, smooth_l1_grad, total_loss)
from tactwin.contact import GroundTruth
from tactwin.encoding import build_region_grid, csl_encode
from tactwin.errors import AssignmentError, ContractViolation
from tactwin.geometry import OrientedBox, points_in_box, rotated_iou_pairs

CLASSES = ["alpha", "beta"]


def toy_field(rng=None, size=64, scale=0.5, n_classes=2):
    grid = build_region_grid(size)
    field = PredictionField.uniform(grid, scale, n_classes)
    if rng is not None:
        field.obj = rng.uniform(0.05, 0.95, field.obj.shape)
        field.cls = rng.uniform(0.05, 0.95, field.cls.shape)
        field.csl = rng.uniform(0.05, 0.95, field.csl.shape)
        field.force = rng.uniform(0, 8, field.force.shape)
        field.box_raw = rng.uniform(-0.5, 0.5, field.box_raw.shape)
    return field


def make_gt(cx, cy, w, h, theta=0.0, cls="alpha", force=2.0):
    return GroundTruth(OrientedBox(cx, cy, w, h, theta), cls, theta, force)


def random_scene(rng, n_gt, extent=32.0):
    gts = []
    offsets = np.linspace(-extent / 4, extent / 4, max(n_gt, 1))
    for k in range(n_gt):
        gts.append(make_gt(
            cx=float(offsets[k] + rng.uniform(-2, 2)),
            cy=float(offsets[::-1][k] + rng.uniform(-2, 2)),
            w=float(rng.uniform(2, 8)), h=float(rng.uniform(2, 8)),
            theta=float(rng.uniform(0, 180)),
            cls=CLASSES[int(rng.integers(2))],
            force=float(rng.uniform(0.5, 9.5))))
    return gts


class TestBce:
    def test_half_prediction(self):
        assert bce(0.5, 1) == pytest.approx(math.log(2), abs=1e-15)

    def test_exact_limits_are_zero(self):
        assert bce(0.0, 0.0) == 0.0
        assert bce(1.0, 1.0) == 0.0

    def test_soft_target(self):
        expected = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert bce(0.3, 0.3) == pytest.approx(expected, abs=1e-15)

    def test_grad_reference(self):
        assert bce_grad(0.5, 1) == pytest.approx(-2.0)

    def test_array_broadcast(self):
        out = bce(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert out == pytest.approx([math.log(2), math.log(2)])


class TestSmoothL1:
    def test_values(self):
        assert smooth_l1(0.0) == 0.0
        assert smooth_l1(0.5) == pytest.approx(0.125)
        assert smooth_l1(2.0) == pytest.approx(1.5)

    def test_c1_at_joint(self):
        eps = 1e-9
        assert smooth_l1(1 + eps) - smooth_l1(1 - eps) == pytest.approx(
            0.0, abs=1e-8)
        assert smooth_l1_grad(1 - 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert smooth_l1_grad(2.0) == 1.0
        assert smooth_l1_grad(-2.0) == -1.0


class TestSimota:
    def test_single_candidate_cell(self):
        # a tiny box centered on a level-8 cell center, with a radius small
        # enough to exclude every other level's cells
        field = toy_field()
        gt = make_gt(*_cell_center(field, 0), 1.5, 1.5)
        asn = simota_assign(field, [gt], CLASSES, center_radius=0.3)
        assert asn.n_positives == 1
        assert asn.positives_per_gt[0].tolist() == [0]

    def test_three_by_three_block(self):
        # single-level grid: the GT covers exactly a 3x3 block of cells; with
        # uniform predictions each candidate has IoU 64/576 so dynamic_k =
        # floor(9 * 1/9) = 1 and the tie breaks to the lowest cell index
        grid = build_region_grid(64, strides=(8,))
        field = PredictionField.uniform(grid, 0.5, 2)
        centers = grid.centers_mm(0.5)
        target = centers[9]  # row 1, col 1 of the 8x8 level
        gt = make_gt(target[0], target[1], 12.0, 12.0)
        asn = simota_assign(field, [gt], CLASSES, center_radius=0.3)
        cand = np.nonzero(points_in_box(centers, gt.box))[0]
        assert cand.size == 9
        assert asn.n_positives == 1
        assert asn.positives_per_gt[0].tolist() == [int(cand.min())]

    def test_two_gts_contend_for_one_cell(self):
        grid = build_region_grid(64, strides=(8,))
        field = PredictionField.uniform(grid, 0.5, 2)
        centers = grid.centers_mm(0.5)
        shared, spare = 9, 10
        # gt_a's only candidate is the shared cell; gt_b covers both but the
        # class channel makes the shared cell cheaper for gt_a
        field.cls[shared] = [0.9, 0.1]
        gt_a = make_gt(centers[shared][0], centers[shared][1], 3.0, 3.0,
                       cls="alpha")
        cx_b = (centers[shared][0] + centers[spare][0]) / 2
        gt_b = make_gt(cx_b, centers[spare][1], 7.0, 3.0, cls="beta")
        asn = simota_assign(field, [gt_a, gt_b], CLASSES, center_radius=0.1)
        assert asn.positives_per_gt[0].tolist() == [shared]
        assert spare in asn.positives_per_gt[1].tolist()
        assert shared not in asn.positives_per_gt[1].tolist()

    def test_no_candidates_raises(self):
        field = toy_field()
        gt = make_gt(-15.9, -15.9, 0.05, 0.05)
        with pytest.raises(AssignmentError):
            simota_assign(field, [gt], CLASSES, center_radius=0.01)

    def test_contract_on_random_scenes(self, rng):
        field = toy_field(rng)
        centers = field.grid.centers_mm(field.scale_mm_per_px)
        strides = field.grid.strides_mm(field.scale_mm_per_px)
        for _ in range(50):
            gts = random_scene(rng, int(rng.integers(1, 4)))
            asn = simota_assign(field, gts, CLASSES)
            seen = set()
            for gi, cells in enumerate(asn.positives_per_gt):
                assert cells.size >= 1
                for cell in cells:
                    assert cell not in seen
                    seen.add(cell)
                    inside = points_in_box(centers[cell:cell + 1],
                                           gts[gi].box)[0]
                    near = (abs(centers[cell, 0] - gts[gi].box.cx)
                            <= 2.5 * strides[cell]
                            and abs(centers[cell, 1] - gts[gi].box.cy)
                            <= 2.5 * strides[cell])
                    assert inside or near

    def test_empty_scene(self):
        field = toy_field()
        asn = simota_assign(field, [], CLASSES)
        assert asn.n_positives == 0


class TestTotalLoss:
    def test_no_gt_uniform_objectness(self):
        grid = build_region_grid(640)
        field = PredictionField.uniform(grid, 0.05, 2)
        asn = simota_assign(field, [], CLASSES)
        lb = total_loss(field, [], asn, CLASSES)
        assert lb.total == pytest.approx(8400 * math.log(2), abs=1e-6)
        assert lb.cls == lb.csl == lb.force == lb.box == 0.0

    def test_perfect_predictions(self):
        # the zero-loss limit needs one-hot angle labels: a tight window makes
        # the Gaussian neighbors underflow to exactly 0, so every target is
        # hard and predictions at the clamp limits drive all terms to 0
        field = toy_field()
        gt = make_gt(*_cell_center(field, 10), 4.0, 3.0, theta=25.0,
                     force=3.5, cls="beta")
        asn = simota_assign(field, [gt], CLASSES)
        pos = np.nonzero(asn.cell_to_gt >= 0)[0]
        field.obj = asn.obj_targets().astype(float)
        field.cls[:] = 0.0
        field.cls[pos, 1] = 1.0
        field.csl[:] = 0.0
        field.csl[pos] = csl_encode(25.0, window_radius=1, sigma=0.05)
        field.force[pos] = 3.5
        for cell in pos:
            field.box_raw[cell] = _raw_for_box(field, int(cell), gt.box)
        lb = total_loss(field, [gt], asn, CLASSES,
                        window_radius=1, sigma=0.05)
        assert lb.total < 1e-5

    def test_soft_label_entropy_floor(self):
        # with the default soft window, a prediction equal to the label pays
        # exactly the label's entropy and nothing more
        field = toy_field()
        gt = make_gt(*_cell_center(field, 10), 4.0, 3.0, theta=25.0)
        asn = simota_assign(field, [gt], CLASSES)
        pos = np.nonzero(asn.cell_to_gt >= 0)[0]
        field.obj = asn.obj_targets().astype(float)
        field.cls[:] = 0.0
        field.cls[pos, 0] = 1.0
        label = csl_encode(25.0)
        field.csl[:] = 0.0
        field.csl[pos] = label
        field.force[pos] = 2.0
        for cell in pos:
            field.box_raw[cell] = _raw_for_box(field, int(cell), gt.box)
        lb = total_loss(field, [gt], asn, CLASSES)
        floor = float(np.sum(bce(label, label))) * pos.size
        assert lb.total == pytest.approx(floor, rel=1e-9)

    def test_total_equals_sum_of_parts(self, rng):
        field = toy_field(rng)
        gts = random_scene(rng, 2)
        asn = simota_assign(field, gts, CLASSES)
        lb = total_loss(field, gts, asn, CLASSES)
        parts = lb.cls + lb.csl + lb.force + lb.box + lb.obj
        assert lb.total == pytest.approx(parts, rel=1e-12)
        assert lb.total >= 0

    def test_force_term_reference(self):
        field = toy_field()
        gt = make_gt(*_cell_center(field, 5), 4.0, 4.0, force=3.0)
        asn = simota_assign(field, [gt], CLASSES, center_radius=0.3)
        pos = np.nonzero(asn.cell_to_gt >= 0)[0]
        assert pos.size == 1
        field.force[pos] = 5.0  # error of 2 -> smooth L1 gives 1.5
        lb = total_loss(field, [gt], asn, CLASSES)
        assert lb.force == pytest.approx(1.5)

    def test_objectness_covers_all_cells(self):
        field = toy_field()
        gt = make_gt(*_cell_center(field, 3), 4.0, 4.0)
        asn = simota_assign(field, [gt], CLASSES)
        lb = total_loss(field, [gt], asn, CLASSES)
        # uniform 0.5 objectness: every one of the 84 cells contributes ln 2
        assert lb.obj == pytest.approx(84 * math.log(2), rel=1e-12)

    def test_gt_permutation_invariance(self, rng):
        field = toy_field(rng)
        gts = random_scene(rng, 3)
        asn = total = None
        results = []
        for order in ([0, 1, 2], [2, 0, 1]):
            permuted = [gts[i] for i in order]
            asn = simota_assign(field, permuted, CLASSES)
            results.append(total_loss(field, permuted, asn, CLASSES).total)
        assert results[0] == pytest.approx(results[1], rel=1e-12)

    def test_inconsistent_assignment_rejected(self):
        field = toy_field()
        gt = make_gt(*_cell_center(field, 3), 4.0, 4.0)
        asn = simota_assign(field, [gt], CLASSES)
        with pytest.raises(ContractViolation):
            total_loss(field, [], asn, CLASSES)

    def test_parallel_assignment_identical(self, rng):
        field = toy_field(rng)
        scenes = [random_scene(rng, int(rng.integers(1, 4))) for _ in range(24)]
        serial = [simota_assign(field, gts, CLASSES) for gts in scenes]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda gts: simota_assign(field, gts, CLASSES), scenes))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.cell_to_gt, b.cell_to_gt)


def _cell_center(field, index):
    c = field.grid.centers_mm(field.scale_mm_per_px)[index]
    return float(c[0]), float(c[1])


def _raw_for_box(field, cell, box):
    center = field.grid.centers_mm(field.scale_mm_per_px)[cell]
    s_mm = field.grid.strides_mm(field.scale_mm_per_px)[cell]
    return np.array([
        (box.cx - center[0]) / s_mm,
        (box.cy - center[1]) / s_mm,
        math.log(box.w / s_mm),
        math.log(box.h / s_mm),
        box.theta_deg,
    ])


def fd_box_gradient(pos, box_raw, step):
    """Frozen copy of the central-difference box gradient that the analytic
    one replaced, kept as its oracle: d(1 - IoU^2) / d(raw box) from 10
    decoded copies of each row."""
    j = np.arange(5)
    offsets = np.zeros((10, 5))
    offsets[2 * j, j] = step
    offsets[2 * j + 1, j] = -step
    reps = (box_raw[:, None, :] + offsets[None, :, :]).reshape(-1, 5)
    dec = _decode_raw(reps, np.repeat(pos.centers_mm, 10, axis=0),
                      np.repeat(pos.strides_mm, 10))
    fd = 1.0 - rotated_iou_pairs(dec, np.repeat(pos.boxes, 10, axis=0)) ** 2
    fd = fd.reshape(-1, 5, 2)
    return (fd[:, :, 0] - fd[:, :, 1]) / (2.0 * step)


def box_terms(pos, box_raw):
    """PositiveTerms of a box-only batch; the other terms are unused."""
    n = box_raw.shape[0]
    return PositiveTerms(pos, np.full((n, 2), 0.5), np.full((n, 180), 0.5),
                         np.zeros(n), box_raw)


def box_positives(centers, strides, boxes):
    n = len(strides)
    return Positives(np.arange(n), centers, strides, np.zeros((n, 2)),
                     np.zeros((n, 180)), np.zeros(n), boxes)


def one_sided_box_gradient(pos, box_raw, step, sign):
    """Forward (sign 1) or backward (sign -1) differences of 1 - IoU^2."""
    base = box_terms(pos, box_raw).iou
    out = np.zeros_like(box_raw)
    for j in range(5):
        moved = box_raw.copy()
        moved[:, j] += sign * step
        out[:, j] = sign * ((1.0 - box_terms(pos, moved).iou ** 2) - (1.0 - base ** 2)) / step
    return out


class TestLossGradient:
    def test_bce_grad_reference(self):
        assert bce_grad(0.5, 1.0) == pytest.approx(-2.0)

    def test_smooth_l1_grad_reference(self):
        assert smooth_l1_grad(2.0) == 1.0

    def test_matches_finite_differences(self, rng):
        field = toy_field(rng)
        gts = random_scene(rng, 2)
        asn = simota_assign(field, gts, CLASSES)
        grad = loss_gradient(field, gts, asn, CLASSES)
        pos = np.nonzero(asn.cell_to_gt >= 0)[0]
        h = 1e-6

        def loss():
            return total_loss(field, gts, asn, CLASSES).total

        checks = [
            (field.obj, grad.obj, (int(pos[0]),)),
            (field.obj, grad.obj, (7,)),
            (field.cls, grad.cls, (int(pos[0]), 1)),
            (field.csl, grad.csl, (int(pos[0]), 42)),
            (field.force, grad.force, (int(pos[0]),)),
        ] + [(field.box_raw, grad.box_raw, (int(pos[0]), j)) for j in range(5)]
        for arr, garr, idx in checks:
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss()
            arr[idx] = orig - h
            down = loss()
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            assert garr[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_box_term_step_consistency(self, rng):
        # The analytic box gradient against the frozen central differences
        # it replaced, at their default step and at ten times it.
        field = toy_field(rng)
        gts = random_scene(rng, 1)
        asn = simota_assign(field, gts, CLASSES)
        grad = loss_gradient(field, gts, asn, CLASSES)
        targets = positive_targets(field, gts, asn, CLASSES)
        pos = targets.cells
        scale = max(np.abs(grad.box_raw[pos]).max(), 1e-9)
        for step in (1e-4, 1e-3):
            fd = fd_box_gradient(targets, field.box_raw[pos], step)
            rel = np.abs(grad.box_raw[pos] - fd).max() / scale
            assert rel < 1e-3

    def test_box_chain_matches_central_differences(self, rng):
        # Random positives near their ground truths over three strides,
        # through offsets, log-sizes (some held by the clip) and angles
        # outside [0, 180).
        n = 400
        strides = rng.choice([0.4, 0.8, 1.6], n)
        centers = rng.uniform(-8.0, 8.0, (n, 2))
        boxes = np.column_stack([centers + rng.normal(0.0, 1.0, (n, 2)) * strides[:, None],
                                 strides[:, None] * rng.uniform(1.0, 6.0, (n, 2)),
                                 rng.uniform(0.0, 180.0, n)])
        raw = np.column_stack([rng.normal(0.0, 0.7, (n, 2)),
                               np.log(boxes[:, 2:4] / strides[:, None])
                               + rng.normal(0.0, 0.3, (n, 2)),
                               boxes[:, 4] + rng.normal(0.0, 30.0, n) + 180.0 * rng.integers(-2, 3, n)])
        raw[:20, 2] = _RAW_CLIP + 5.0
        raw[20:40, 3] = -_RAW_CLIP - 5.0
        pos = box_positives(centers, strides, boxes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = box_terms(pos, raw).gradient()[3]
        want = fd_box_gradient(pos, raw, 1e-6)
        tol = 1e-6 * np.abs(want).max(axis=1, keepdims=True) + 1e-9
        assert np.all(np.abs(got - want) <= tol)
        assert np.all(got[:20, 2] == 0.0) and np.all(got[20:40, 3] == 0.0)
        assert (np.abs(got[40:]) > 0).all(axis=1).sum() > 200

    def test_coincident_edges_follow_the_closed_convention(self):
        # Identical boxes, axis-aligned and turned, decoded exactly: the size
        # terms are backward differences (the edges move into the ground
        # truth), and shift and turn cancel to 0. A box inside a twice-as-big
        # ground truth that shares its right edge: the x offset and the width
        # take backward differences, y and the angle central ones.
        centers = np.array([[1.0, -2.0]] * 4)
        strides = np.array([0.5, 1.0, 1.0, 0.5])
        raw = np.array([[0.0, 0.0, 0.0, 0.0, 0.0], [0.5, -0.25, 0.0, 0.3, 30.0],
                        [0.0, 0.0, 0.0, 0.0, 0.0], [0.25, 0.5, 0.0, 0.0, 0.0]])
        boxes = _decode_raw(raw, centers, strides)
        outer = boxes[2:].copy()
        outer[:, 0] -= outer[:, 2] / 2.0
        outer[:, 2:4] *= 2.0
        boxes[2:] = outer
        pos = box_positives(centers, strides, boxes)
        got = box_terms(pos, raw).gradient()[3]
        step = 1e-7
        backward = one_sided_box_gradient(pos, raw, step, -1)
        forward = one_sided_box_gradient(pos, raw, step, 1)
        central = (forward + backward) / 2.0
        assert np.all(got[:2, [0, 1, 4]] == 0.0)
        assert np.allclose(got[:2, 2:4], backward[:2, 2:4], rtol=1e-5)
        assert np.allclose(got[:2, 2:4], -2.0, rtol=1e-12)
        assert np.allclose(got[2:, [0, 2]], backward[2:, [0, 2]], rtol=1e-5, atol=1e-8)
        assert np.allclose(got[2:, [1, 4]], central[2:, [1, 4]], rtol=1e-5, atol=1e-8)
        assert not np.allclose(forward[2:, [0, 2]], backward[2:, [0, 2]], rtol=1e-2)

    def test_disjoint_and_guarded_rows_are_exactly_zero(self, rng):
        centers = rng.uniform(-8.0, 8.0, (6, 2))
        strides = np.full(6, 0.8)
        boxes = np.column_stack([centers, np.full((6, 2), 0.8), np.zeros(6)])
        raw = np.zeros((6, 5))
        raw[0, 0] = 10.0                 # disjoint
        raw[1, 1] = -6.0                 # disjoint
        raw[2, 0] = 1e300                # huge decoded centre
        raw[3, 0], raw[4, 1] = math.inf, -math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            terms = box_terms(box_positives(centers, strides, boxes), raw)
            got = terms.gradient()[3]
        assert np.all(terms.iou[:5] == 0.0) and np.all(got[:5] == 0.0)
        assert terms.iou[5] == 1.0

    def test_zero_everywhere_without_gts(self):
        field = toy_field()
        asn = simota_assign(field, [], CLASSES)
        grad = loss_gradient(field, [], asn, CLASSES)
        assert not grad.cls.any() and not grad.csl.any()
        assert not grad.force.any() and not grad.box_raw.any()
        assert grad.obj.shape == field.obj.shape
