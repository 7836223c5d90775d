"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to stream them). The heavy
decoders are session fixtures shared across criteria; all randomness is
seeded. Pixel-level suites run at the default 640 px raster. The decode round
trips and the Monte Carlo IoU oracle run in forked workers, one per CPU; each
unit's seed is fixed by its index, so every number is the same on any number
of CPUs.
"""

import functools
import math
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from tactwin import runner
from tactwin.assignment import PredictionField, loss_gradient, simota_assign, total_loss
from tactwin.contact import ContactScenario, GroundTruth, SphereProbe, hertz_indentation
from tactwin.dataset import DatasetSpec, generate_dataset
from tactwin.encoding import build_region_grid, csl_encode
from tactwin.frames import SensorConfig
from tactwin.geometry import OrientedBox, angle_error, points_in_box, rotated_iou
from tactwin.metrics import evaluate_detections
from tactwin.render import (contact_band_contrast, deviation_area_mm2,
                            height_field, make_reference, render,
                            resolution_sweep, simulate)
from tactwin.suites import (ANISOTROPIC_CLASSES, footprint_probes,
                            roundtrip_probes, sample_scenario,
                            screw_part_probes, sphere_probes)
from tactwin.toyhead import cell_features, fit_toy_head, predict_sample_force

from test_dataset import dir_digest
from test_geometry import mc_iou, random_boxes


def report(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _simulate_and_decode(decoder, scenario, seed, material, illum, sensor):
    img, gt = simulate(scenario, material, illum, sensor, seed=seed)
    return decoder.decode(img), [gt]


def run_suite(decoder, probes, n, noise_sigma, seed, material, illum, sensor):
    """Simulate and decode n random scenarios; returns per-sample lists.

    The scenarios are drawn here in order; the i-th is simulated with seed
    ``seed * 100000 + i`` and decoded as one unit in a forked worker.
    """
    rng = np.random.default_rng(seed)
    scenarios = [sample_scenario(rng, probes, sensor, material.e_star,
                                 force_range=(0.8, 10.0), noise_sigma=noise_sigma)
                 for _ in range(n)]
    return runner.run_units(
        [functools.partial(_simulate_and_decode, decoder, sc, seed * 100000 + i,
                           material, illum, sensor) for i, sc in enumerate(scenarios)],
        fork=True)


def suite_errors(samples):
    stats = defaultdict(list)
    n_single_correct = 0
    for dets, (gt,) in samples:
        if len(dets) == 1 and dets[0].class_name == gt.class_name:
            n_single_correct += 1
        if not dets:
            continue
        det = dets[0]
        stats["force"].append((abs(det.force_n - gt.force_n), gt.force_n))
        stats["loc"].append(math.hypot(det.box.cx - gt.box.cx,
                                       det.box.cy - gt.box.cy))
        if gt.class_name in ANISOTROPIC_CLASSES:
            stats["angle"].append(angle_error(det.theta_deg, gt.theta_deg))
    return n_single_correct, stats


class TestCriterion1AngleMetric:
    def test_angle_error_closed_form(self):
        rng = np.random.default_rng(101)
        pairs = rng.uniform(0.0, 180.0, size=(10_000, 2))
        t0 = time.perf_counter()
        worst = 0.0
        for a, b in pairs:
            d = abs(a - b) % 180.0
            expected = min(d, 180.0 - d)
            worst = max(worst, abs(angle_error(a, b) - expected))
        elapsed = time.perf_counter() - t0
        example = angle_error(1.0, 179.0)
        ok = worst < 1e-9 and abs(example - 2.0) < 1e-9 and elapsed < 1.0
        report(1, ok, f"max |err-closed_form|={worst:.2e} deg, "
                      f"(1,179)->{example:.12f}, {elapsed:.2f}s")


def _mc_iou_error(ra, rb, seed):
    a, b = OrientedBox(*ra), OrientedBox(*rb)
    return abs(rotated_iou(a, b) - mc_iou(a, b, 1_000_000, seed=seed))


class TestCriterion2RotatedIoU:
    def test_monte_carlo_and_closed_forms(self):
        rng = np.random.default_rng(202)
        t0 = time.perf_counter()
        boxes_a = random_boxes(rng, 200)
        boxes_b = random_boxes(rng, 200)
        worst = max(runner.run_units(
            [functools.partial(_mc_iou_error, ra, rb, 7000 + i)
             for i, (ra, rb) in enumerate(zip(boxes_a, boxes_b))], fork=True))
        axis_err = abs(rotated_iou(OrientedBox(0, 0, 4, 2, 0),
                                   OrientedBox(2, 0, 4, 2, 0)) - 1 / 3)
        inter = 8 * (math.sqrt(2) - 1)
        square_err = abs(rotated_iou(OrientedBox(0, 0, 2, 2, 0),
                                     OrientedBox(0, 0, 2, 2, 45))
                         - inter / (8 - inter))
        elapsed = time.perf_counter() - t0
        ok = (worst < 0.01 and axis_err < 1e-12 and square_err < 1e-9
              and elapsed < 30.0)
        report(2, ok, f"MC worst={worst:.4f}, axis err={axis_err:.1e}, "
                      f"45deg err={square_err:.1e}, {elapsed:.1f}s")


CLASSES_AB = ["alpha", "beta"]


def random_loss_scene(rng):
    grid = build_region_grid(64)
    field = PredictionField.uniform(grid, 0.5, 2)
    field.obj = rng.uniform(0.05, 0.95, field.obj.shape)
    field.cls = rng.uniform(0.05, 0.95, field.cls.shape)
    field.csl = rng.uniform(0.05, 0.95, field.csl.shape)
    field.box_raw = rng.uniform(-0.5, 0.5, field.box_raw.shape)
    gts = []
    for k in range(int(rng.integers(1, 3))):
        cx, cy = rng.uniform(-10, 10, 2)
        gts.append(GroundTruth(
            OrientedBox(float(cx), float(cy), float(rng.uniform(3, 8)),
                        float(rng.uniform(3, 8)), float(rng.uniform(0, 180))),
            CLASSES_AB[int(rng.integers(2))], 0.0, float(rng.uniform(1, 9))))
    # keep force predictions non-degenerate: away from the smooth-L1 kink
    # and from zero error
    asn = simota_assign(field, gts, CLASSES_AB)
    pos = np.nonzero(asn.cell_to_gt >= 0)[0]
    for cell in pos:
        gt_force = gts[asn.cell_to_gt[cell]].force_n
        field.force[cell] = gt_force + rng.choice([-1, 1]) * rng.uniform(0.1, 0.85)
    return field, gts, asn


class TestCriterion3GradientChecks:
    def test_analytic_vs_central_differences(self):
        rng = np.random.default_rng(303)
        t0 = time.perf_counter()
        h = 1e-6
        n_checks = 0
        worst = 0.0
        for _ in range(10):
            field, gts, asn = random_loss_scene(rng)
            grad = loss_gradient(field, gts, asn, CLASSES_AB)
            pos = np.nonzero(asn.cell_to_gt >= 0)[0]

            def pick(rng):
                kind = rng.integers(4)
                if kind == 0:
                    return field.obj, grad.obj, (int(rng.integers(field.obj.size)),)
                if kind == 1:
                    return field.cls, grad.cls, (int(rng.choice(pos)), int(rng.integers(2)))
                if kind == 2:
                    return field.csl, grad.csl, (int(rng.choice(pos)), int(rng.integers(180)))
                return field.force, grad.force, (int(rng.choice(pos)),)

            for _ in range(100):
                arr, garr, idx = pick(rng)
                orig = arr[idx]
                arr[idx] = orig + h
                up = total_loss(field, gts, asn, CLASSES_AB).total
                arr[idx] = orig - h
                down = total_loss(field, gts, asn, CLASSES_AB).total
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(garr[idx] - fd) / abs(fd))
                n_checks += 1
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-6 and n_checks == 1000 and elapsed < 10.0
        report(3, ok, f"{n_checks} points, worst rel err={worst:.2e}, "
                      f"{elapsed:.1f}s")


class TestCriterion4LossClosedForms:
    def test_perfect_and_uniform(self, monkeypatch):
        grid = build_region_grid(640)
        field = PredictionField.uniform(grid, 0.05, 2)
        asn = simota_assign(field, [], CLASSES_AB)
        uniform = total_loss(field, [], asn, CLASSES_AB).total
        uniform_err = abs(uniform - 8400 * math.log(2))

        gt = GroundTruth(OrientedBox(0.025, 0.025, 4, 3, 25), "beta", 25.0, 3.5)
        asn = simota_assign(field, [gt], CLASSES_AB)
        pos = np.nonzero(asn.cell_to_gt >= 0)[0]
        field.obj = asn.obj_targets().astype(float)
        field.cls[:] = 0.0
        field.cls[pos, 1] = 1.0
        field.csl[:] = 0.0
        # Zero loss needs hard angle targets, so the label's window is made tight.
        tight = functools.partial(csl_encode, window_radius=1, sigma=0.05)
        monkeypatch.setattr("tactwin.assignment.csl_encode", tight)
        field.csl[pos] = tight(25.0)
        field.force[pos] = 3.5
        centers = grid.centers_mm(0.05)
        strides = grid.strides_mm(0.05)
        for cell in pos:
            s_mm = strides[cell]
            field.box_raw[cell] = [
                (gt.box.cx - centers[cell][0]) / s_mm,
                (gt.box.cy - centers[cell][1]) / s_mm,
                math.log(gt.box.w / s_mm), math.log(gt.box.h / s_mm),
                gt.box.theta_deg]
        perfect = total_loss(field, [gt], asn, CLASSES_AB).total
        ok = perfect < 1e-5 and uniform_err < 1e-6
        report(4, ok, f"perfect={perfect:.2e}, "
                      f"|uniform - 8400 ln2|={uniform_err:.2e}")


class TestCriterion5SimotaContract:
    def test_thousand_scenes(self):
        rng = np.random.default_rng(505)
        grid = build_region_grid(64)
        field = PredictionField.uniform(grid, 0.5, 2)
        field.cls = rng.uniform(0.05, 0.95, field.cls.shape)
        field.box_raw = rng.uniform(-0.3, 0.3, field.box_raw.shape)
        centers = grid.centers_mm(0.5)
        strides = grid.strides_mm(0.5)
        scenes = []
        for _ in range(1000):
            gts = []
            anchors = rng.uniform(-9, 9, size=(int(rng.integers(1, 4)), 2))
            for ax, ay in anchors:
                gts.append(GroundTruth(
                    OrientedBox(float(ax), float(ay),
                                float(rng.uniform(3, 7)), float(rng.uniform(3, 7)),
                                float(rng.uniform(0, 180))),
                    CLASSES_AB[int(rng.integers(2))], 0.0, 2.0))
            scenes.append(gts)
        serial = [simota_assign(field, gts, CLASSES_AB) for gts in scenes]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda gts: simota_assign(field, gts, CLASSES_AB), scenes))
        violations = 0
        for gts, asn, pasn in zip(scenes, serial, parallel):
            if not np.array_equal(asn.cell_to_gt, pasn.cell_to_gt):
                violations += 1
                continue
            seen = set()
            for gi, cells in enumerate(asn.positives_per_gt):
                if cells.size < 1:
                    violations += 1
                for cell in cells:
                    if cell in seen:
                        violations += 1
                    seen.add(cell)
                    inside = points_in_box(centers[cell:cell + 1], gts[gi].box)[0]
                    near = (abs(centers[cell, 0] - gts[gi].box.cx) <= 2.5 * strides[cell]
                            and abs(centers[cell, 1] - gts[gi].box.cy) <= 2.5 * strides[cell])
                    if not (inside or near):
                        violations += 1
        ok = violations == 0
        report(5, ok, f"1000 scenes, {violations} contract violations, "
                      "serial == parallel")


class TestCriterion6SimulatorPhysics:
    def test_hertz_and_orderings(self, material, illum, sensor):
        forces = np.arange(0.5, 10.01, 0.5)
        depths = [hertz_indentation(f, 5.0, material.e_star)[0] for f in forces]
        slope = float(np.polyfit(np.log(depths), np.log(forces), 1)[0])

        diameters = (10.0, 15.0, 20.0, 25.0, 30.0)
        area = {}
        for d in diameters:
            rows = []
            for f in forces:
                sc = ContactScenario(SphereProbe(d), 0, 0, 0, float(f))
                img = render(height_field(sc, material, sensor),
                             sensor.scale_mm_per_px, illum)
                rows.append(deviation_area_mm2(img, sensor.scale_mm_per_px, illum))
            area[d] = rows
        mono_force = all(np.all(np.diff(area[d]) > 0) for d in diameters)
        fixed_idx = {1.0: 1, 3.0: 5, 6.0: 11, 9.0: 17}
        mono_diam = all(
            all(area[diameters[j]][i] < area[diameters[j + 1]][i]
                for j in range(len(diameters) - 1))
            for f, i in fixed_idx.items())

        contrast = {
            (d, f): contact_band_contrast(
                ContactScenario(SphereProbe(d), 0, 0, 0, f), material, illum, sensor)
            for d in diameters for f in (1.0, 3.0, 6.0, 9.0)}
        up_in_force = all(
            contrast[(d, 1.0)] < contrast[(d, 3.0)] < contrast[(d, 6.0)] < contrast[(d, 9.0)]
            for d in diameters)
        down_in_diam = all(
            all(contrast[(diameters[j], f)] > contrast[(diameters[j + 1], f)]
                for j in range(len(diameters) - 1))
            for f in (1.0, 3.0, 6.0, 9.0))
        ok = (abs(slope - 1.5) <= 0.01 and mono_force and mono_diam
              and up_in_force and down_in_diam)
        report(6, ok, f"slope={slope:.4f}, area mono(F)={mono_force}, "
                      f"mono(d)={mono_diam}, contrast up(F)={up_in_force}, "
                      f"down(d)={down_in_diam}")


class TestRunSuite:
    def test_same_samples_at_1_and_2_cpus(self, roundtrip_decoder, material, illum,
                                          sensor, monkeypatch):
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(runner, "_available_cpus", lambda n=cpus: n)
            runs.append(run_suite(roundtrip_decoder, roundtrip_probes(), 12, 0.02,
                                  seed=13, material=material, illum=illum,
                                  sensor=sensor))
        assert all(dets for dets, _ in runs[0])
        assert runs[0] == runs[1]


class TestCriterion7RoundTripNoiseless:
    def test_500_scenarios(self, roundtrip_decoder, material, illum, sensor):
        t0 = time.perf_counter()
        samples = run_suite(roundtrip_decoder, roundtrip_probes(), 500, 0.0,
                            seed=7, material=material, illum=illum, sensor=sensor)
        n_ok, stats = suite_errors(samples)
        elapsed = time.perf_counter() - t0
        acc = n_ok / 500
        force_mae = float(np.mean([e for e, _ in stats["force"]]))
        loc_mae = float(np.mean(stats["loc"]))
        angle_mae = float(np.mean(stats["angle"]))
        ok = (acc == 1.0 and force_mae <= 0.05 and loc_mae <= 0.15
              and angle_mae <= 0.41 and elapsed < 180.0)
        report(7, ok, f"acc={acc:.3f}, force MAE={force_mae:.4f} N, "
                      f"loc MAE={loc_mae:.4f} mm, angle MAE={angle_mae:.4f} deg "
                      f"(n={len(stats['angle'])}), {elapsed:.0f}s")


class TestCriterion8RoundTripNoisy:
    def test_500_noisy_scenarios(self, roundtrip_decoder, material, illum, sensor):
        samples = run_suite(roundtrip_decoder, footprint_probes(), 500, 0.02,
                            seed=8, material=material, illum=illum, sensor=sensor)
        _, stats = suite_errors(samples)
        force_mae = float(np.mean([e for e, _ in stats["force"]]))
        low = [e for e, f in stats["force"] if f <= 3.0]
        force_mae_low = float(np.mean(low))
        angle_mae = float(np.mean(stats["angle"]))
        classes = sorted({gt.class_name for _, (gt,) in samples})
        rep = evaluate_detections(samples, classes,
                                  angle_classes=ANISOTROPIC_CLASSES)
        aps = {c: rep.per_class[c]["ap_at_iou"] for c in classes}
        min_ap = min(aps.values())
        ok = (force_mae <= 0.2 and force_mae_low <= 0.1 and angle_mae <= 1.0
              and min_ap >= 0.94)
        report(8, ok, f"force MAE={force_mae:.4f} N (0-3 N: {force_mae_low:.4f}, "
                      f"n={len(low)}), angle MAE={angle_mae:.4f} deg, "
                      f"min per-class AP@50={min_ap:.4f}")


SCREW_FORCE_TARGETS = {"head": 0.19, "body": 0.21, "top": 0.15, "bottom": 0.17}


class TestCriterion9ScrewScenario:
    def test_four_part_suite(self, screw_decoder, material, illum, sensor):
        samples = run_suite(screw_decoder, screw_part_probes(), 200, 0.02,
                            seed=9, material=material, illum=illum, sensor=sensor)
        per_part = defaultdict(list)
        for dets, (gt,) in samples:
            if dets:
                per_part[gt.class_name].append(abs(dets[0].force_n - gt.force_n))
        classes = sorted(SCREW_FORCE_TARGETS)
        rep = evaluate_detections(samples, classes)
        maes = {c: float(np.mean(per_part[c])) for c in classes}
        mae_ok = all(maes[c] <= SCREW_FORCE_TARGETS[c] + 0.05 for c in classes)
        recalls = {c: rep.per_class[c]["recall"] for c in classes}
        recall_ok = all(r is not None and r >= 0.95 for r in recalls.values())
        cm = rep.confusion
        diag_ok = all(
            cm.matrix[i, i] > cm.matrix[i].sum() - cm.matrix[i, i]
            for i in range(len(cm.labels)))
        ok = mae_ok and recall_ok and diag_ok
        detail = ", ".join(f"{c}: MAE={maes[c]:.3f}<= {SCREW_FORCE_TARGETS[c] + 0.05:.2f} "
                           f"R={recalls[c]:.3f}" for c in classes)
        report(9, ok, detail + f", diagonal dominant={diag_ok}")


class TestCriterion10Resolution:
    def test_sweep_monotone_and_limit(self, illum, sensor):
        freqs = [0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
        results = {}
        for orientation in ("horizontal", "vertical"):
            sweep = resolution_sweep(freqs, orientation, illum, sensor)
            mods = [r.modulation for r in sweep.rows]
            mono = all(b <= a + 0.02 for a, b in zip(mods, mods[1:]))
            results[orientation] = (mono, sweep.limit_lp_mm)
        ok = all(mono and limit is not None and limit <= 10.0
                 for mono, limit in results.values())
        report(10, ok, ", ".join(
            f"{o}: monotone={m}, limit={l} lp/mm"
            for o, (m, l) in results.items()))


class TestCriterion11ToyHead:
    def test_sphere_force_training(self, material, illum, small_sensor):
        grid = build_region_grid(small_sensor.input_size)
        reference = make_reference(small_sensor, illum)
        rng = np.random.default_rng(11)
        feats, gts, forces = [], [], []
        for i in range(300):
            sc = sample_scenario(rng, sphere_probes(), small_sensor,
                                 material.e_star, force_range=(0.2, 3.0))
            img, gt = simulate(sc, material, illum, small_sensor, seed=i)
            feats.append(cell_features(img, reference, grid))
            gts.append([gt])
            forces.append(gt.force_n)
        res = fit_toy_head(feats[:240], gts[:240], grid,
                           small_sensor.scale_mm_per_px, ["sphere"],
                           learning_rate=0.02, epochs=500)
        monotone = all(b <= a for a, b in zip(res.losses, res.losses[1:]))
        errs = [abs(predict_sample_force(res.head, feats[i], grid,
                                         small_sensor.scale_mm_per_px)
                    - forces[i]) for i in range(240, 300)]
        mae = float(np.mean(errs))
        ok = monotone and not res.diverged and mae <= 0.1
        report(11, ok, f"monotone={monotone} (lr=0.02, 500 epochs), "
                       f"held-out force MAE={mae:.4f} N over {len(errs)} samples")


class TestCriterion12Determinism:
    def test_generate_byte_identical(self, tmp_path):
        spec = DatasetSpec(count=24, master_seed=12, suite="roundtrip",
                           force_range=(0.8, 10.0), noise_sigma=0.02,
                           sensor=SensorConfig(input_size=128,
                                               scale_mm_per_px=0.25))
        generate_dataset(spec, tmp_path / "a", workers=1)
        generate_dataset(spec, tmp_path / "b", workers=1)
        generate_dataset(spec, tmp_path / "c", workers=4)
        same_rerun = dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")
        same_workers = dir_digest(tmp_path / "a") == dir_digest(tmp_path / "c")
        ok = same_rerun and same_workers
        report(12, ok, f"rerun identical={same_rerun}, "
                       f"4-worker identical={same_workers}")
