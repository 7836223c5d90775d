import math

import numpy as np
import pytest
from scipy import ndimage

from tactwin.contact import (ContactScenario, FootprintProbe, MaterialParams,
                             SphereProbe, ground_truth, height_field,
                             hertz_indentation, punch_indentation)
from tactwin.errors import ConfigError, ScenarioError
from tactwin.frames import SensorConfig, pixel_centers_mm
from tactwin.render import (IlluminationModel, baseline_intensity,
                            contact_band_contrast, deviation_area_mm2,
                            make_reference, render, resolution_sweep,
                            ring_lights, simulate)
from tactwin.suites import (STENCIL_SCALE_MM, SUITES, footprint_probes,
                            sample_scenario, stencil_circle, stencil_strip)

# 160 px over the standard 32 mm active area.
SENSOR_160 = SensorConfig(input_size=160, scale_mm_per_px=0.2)
# The strip of the roundtrip and six-footprint suites.
STRIP = FootprintProbe("strip", stencil_strip(20.0, 4.0), STENCIL_SCALE_MM)


def frozen_band_contrast(scenario, material, illum, sensor, band_mm=0.5):
    """Frozen copy of the two-path ``contact_band_contrast`` that the single
    mask-band path replaced: an analytic annulus for spheres, the full-depth
    pixels' inner band for punches."""
    hf = height_field(scenario, material, sensor)
    img = render(hf, illum)
    dev = np.abs(img.pixels - baseline_intensity(illum))
    X, Y = pixel_centers_mm(sensor)
    if scenario.probe.params()["kind"] == "sphere":
        _, a = hertz_indentation(scenario.force_n, scenario.probe.radius_mm,
                                 material.e_star)
        r = np.hypot(X - scenario.x_mm, Y - scenario.y_mm)
        band = (r <= a) & (r >= a - band_mm)
    else:
        inside = hf.z >= hf.max_depth * (1.0 - 1e-9)
        dist = ndimage.distance_transform_edt(inside, sampling=sensor.scale_mm_per_px)
        band = inside & (dist <= band_mm)
    if not band.any():
        return 0.0
    return float(dev[band].max())


def _unique_probes():
    """Every probe of every suite, once."""
    return list(dict.fromkeys(p for suite in sorted(SUITES) for p in SUITES[suite]()))


class TestHertz:
    def test_zero_force(self):
        assert hertz_indentation(0, 7, 0.3) == (0.0, 0.0)

    def test_reference_point(self):
        depth, radius = hertz_indentation(3, 5, 0.3)
        assert depth == pytest.approx(2.240, abs=2e-3)
        assert radius == pytest.approx(3.347, abs=2e-3)

    def test_log_log_slope(self, material):
        forces = np.arange(0.5, 10.01, 0.5)
        depths = [hertz_indentation(f, 5, material.e_star)[0] for f in forces]
        slope = np.polyfit(np.log(depths), np.log(forces), 1)[0]
        assert slope == pytest.approx(1.5, abs=0.01)

    def test_negative_force_rejected(self):
        with pytest.raises(ValueError):
            hertz_indentation(-1, 5, 0.3)


class TestPunch:
    def test_zero_force(self):
        assert punch_indentation(0, 10, 0.3) == 0.0

    def test_reference_point(self):
        assert punch_indentation(2, math.pi, 0.3) == pytest.approx(10 / 3, abs=1e-9)

    def test_linear_in_force(self):
        d1 = punch_indentation(1.5, 25, 0.4)
        d2 = punch_indentation(3.0, 25, 0.4)
        assert d2 == pytest.approx(2 * d1, rel=1e-12)


class TestHeightField:
    def test_zero_force_zero_field(self, material, small_sensor):
        sc = ContactScenario(SphereProbe(10), force_n=0.0)
        hf = height_field(sc, material, small_sensor)
        assert not hf.z.any()

    def test_sphere_max_depth_matches_hertz(self, material, sensor):
        sc = ContactScenario(SphereProbe(10), 2.0, -3.0, 0, 3.0)
        hf = height_field(sc, material, sensor)
        depth, _ = hertz_indentation(3.0, 5.0, material.e_star)
        # the grid's nearest pixel sits up to half a pixel diagonal off the
        # apex, costing r^2 / (2R) of height
        sag = (sensor.scale_mm_per_px / math.sqrt(2)) ** 2 / (2 * 5.0)
        assert depth - hf.max_depth == pytest.approx(0.0, abs=2 * sag)

    def test_field_continuous_and_nonnegative(self, material, sensor):
        sc = ContactScenario(SphereProbe(20), 0, 0, 0, 5.0)
        hf = height_field(sc, material, sensor)
        assert hf.z.min() >= 0.0
        gy, gx = np.gradient(hf.z, sensor.scale_mm_per_px)
        # no jumps larger than a steep but finite physical slope
        assert np.abs(gy).max() < 60 and np.abs(gx).max() < 60

    def test_strip_moment_axis(self, material, sensor):
        sc = ContactScenario(STRIP, 0, 0, 30, 3.0)
        hf = height_field(sc, material, sensor)
        X, Y = pixel_centers_mm(sensor)
        w = hf.z
        m = w.sum()
        cx, cy = (X * w).sum() / m, (Y * w).sum() / m
        mu20 = (w * (X - cx) ** 2).sum() / m
        mu02 = (w * (Y - cy) ** 2).sum() / m
        mu11 = (w * (X - cx) * (Y - cy)).sum() / m
        axis = 0.5 * math.degrees(math.atan2(2 * mu11, mu20 - mu02)) % 180
        assert axis == pytest.approx(30.0, abs=0.5)

    def test_out_of_bounds_rejected(self, material, sensor):
        sc = ContactScenario(SphereProbe(20), 15.0, 0, 0, 5.0)
        with pytest.raises(ScenarioError):
            height_field(sc, material, sensor)

    def test_clipped_footprint_rejected(self, material, sensor):
        # The lshape reaches 9.97 mm from its stencil's array centre, 1.3 mm
        # beyond its tight box's half-diagonal (8.67 mm); at x = 7.32 mm
        # about 2 % of this footprint falls off the raster.
        lshape = next(p for p in footprint_probes() if p.class_name == "lshape")
        sc = ContactScenario(lshape, 7.32, 0.0, -45.0, 5.0)
        with pytest.raises(ScenarioError):
            height_field(sc, material, sensor)

    def test_overdeep_indentation_rejected(self, sensor):
        soft = MaterialParams(e_star=0.05)
        sc = ContactScenario(SphereProbe(10), 0, 0, 0, 9.0)
        with pytest.raises(ScenarioError):
            height_field(sc, soft, sensor)

    def test_footprint_probes_compare_by_value(self):
        first, second = footprint_probes(), footprint_probes()
        assert first == second
        assert [hash(p) for p in first] == [hash(p) for p in second]
        assert len(set(first + second)) == len(first)

    def test_footprint_probe_identity_is_name_stencil_and_scale(self):
        probe = FootprintProbe("disc", stencil_circle(8.0), 0.1)
        assert probe == FootprintProbe("disc", stencil_circle(8.0).copy(), 0.1)
        assert probe != FootprintProbe("disc", stencil_circle(6.0), 0.1)
        assert probe != FootprintProbe("coin", stencil_circle(8.0), 0.1)
        assert probe != FootprintProbe("disc", stencil_circle(8.0), 0.2)
        # same bytes, other shape
        assert (FootprintProbe("bar", np.ones((2, 3), bool), 0.1)
                != FootprintProbe("bar", np.ones((3, 2), bool), 0.1))

    def test_footprint_probe(self, material, sensor):
        probe = FootprintProbe("dot", stencil_circle(6.0), 0.1)
        sc = ContactScenario(probe, 1.0, 1.0, 0, 2.0)
        hf = height_field(sc, material, sensor)
        d = punch_indentation(2.0, probe.area_mm2, material.e_star)
        assert hf.max_depth == pytest.approx(d, rel=1e-9)

    @pytest.mark.parametrize("probe", [
        FootprintProbe("strip", stencil_strip(10.0, 0.05), 0.1),
    ], ids=["footprint"])
    def test_punch_between_pixel_centres_rejected(self, probe, material):
        # 0.1 mm wide and centred on the boundary between two pixel rows:
        # no pixel centre of the 160 px raster lies on the contact.
        with pytest.raises(ScenarioError, match="covers no pixel"):
            height_field(ContactScenario(probe, 0, 0, 0, 1.0), material, SENSOR_160)


class TestProbeInterface:
    @pytest.mark.parametrize("probe", _unique_probes(), ids=lambda p: p.label)
    def test_every_placement_in_bounds(self, probe, material):
        # Placement and the bounds check share the probe's reach at the top
        # of the force range, so a draw without an edge margin still fits.
        rng = np.random.default_rng(8)
        for _ in range(150):
            sc = sample_scenario(rng, [probe], SENSOR_160, material.e_star,
                                 edge_margin_mm=0)
            height_field(sc, material, SENSOR_160)

    @pytest.mark.parametrize("probe", _unique_probes(), ids=lambda p: p.label)
    def test_band_contrast_matches_frozen_oracle(self, probe, material, illum, sensor):
        poses = [(0.0, 0.0, 0.0), (1.3, -2.1, 37.0), (-0.7, 0.45, 123.0)]
        forces = (0.25, 1.0, 5.0, 9.0, 10.0)
        if probe.class_name == "sphere":
            poses, forces = poses[:2], np.arange(0.25, 10.0 + 1e-9, 0.25)
        cases = [(SENSOR_160, ContactScenario(probe, x, y, theta, float(force)))
                 for force in forces for x, y, theta in poses]
        cases.append((sensor, ContactScenario(probe, *poses[1], 5.0)))
        for grid, sc in cases:
            assert (contact_band_contrast(sc, material, illum, grid)
                    == frozen_band_contrast(sc, material, illum, grid))


class TestRender:
    def test_flat_field_uniform(self, sensor, illum):
        ref = make_reference(sensor, illum)
        assert ref.is_reference
        assert (ref.pixels == baseline_intensity(illum)).all()

    def test_baseline_value(self):
        illum = IlluminationModel(ambient=0.25, diffuse=0.6,
                                  light_dirs=ring_lights(4), exponent=1)
        expected = 0.25 + 0.6 * math.sin(math.radians(45))
        assert baseline_intensity(illum) == pytest.approx(expected, abs=1e-12)

    def test_intensities_in_range(self, material, illum, sensor):
        sc = ContactScenario(SphereProbe(10), 0, 0, 0, 9.0)
        img = render(height_field(sc, material, sensor), illum)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_deeper_indentation_larger_area_higher_contrast(
            self, material, illum, sensor):
        areas, contrasts = [], []
        for force in (1.0, 4.0, 8.0):
            sc = ContactScenario(SphereProbe(15), 0, 0, 0, force)
            img = render(height_field(sc, material, sensor), illum)
            areas.append(deviation_area_mm2(img, illum))
            contrasts.append(contact_band_contrast(sc, material, illum, sensor))
        assert areas[0] < areas[1] < areas[2]
        assert contrasts[0] < contrasts[1] < contrasts[2]

    def test_larger_sphere_larger_area_weaker_contrast(
            self, material, illum, sensor):
        areas, contrasts = [], []
        for diameter in (10.0, 20.0, 30.0):
            sc = ContactScenario(SphereProbe(diameter), 0, 0, 0, 3.0)
            img = render(height_field(sc, material, sensor), illum)
            areas.append(deviation_area_mm2(img, illum))
            contrasts.append(contact_band_contrast(sc, material, illum, sensor))
        assert areas[0] < areas[1] < areas[2]
        assert contrasts[0] > contrasts[1] > contrasts[2]

    def test_illumination_validation(self):
        with pytest.raises(ConfigError):
            IlluminationModel(ambient=0.7, diffuse=0.7)
        with pytest.raises(ConfigError):
            IlluminationModel(exponent=0.5)


class TestSimulate:
    def test_deterministic_with_noise(self, material, illum, small_sensor):
        sc = ContactScenario(SphereProbe(10), 1, 2, 0, 3.0, noise_sigma=0.02)
        img1, _ = simulate(sc, material, illum, small_sensor, seed=5)
        img2, _ = simulate(sc, material, illum, small_sensor, seed=5)
        assert np.array_equal(img1.pixels, img2.pixels)
        img3, _ = simulate(sc, material, illum, small_sensor, seed=6)
        assert not np.array_equal(img1.pixels, img3.pixels)

    def test_sphere_ground_truth_box(self, material, illum, sensor):
        sc = ContactScenario(SphereProbe(20), -2, 4, 0, 5.0)
        _, gt = simulate(sc, material, illum, sensor)
        _, a = hertz_indentation(5.0, 10.0, material.e_star)
        assert gt.box.w == pytest.approx(2 * a, abs=sensor.scale_mm_per_px)
        assert gt.box.h == pytest.approx(2 * a, abs=sensor.scale_mm_per_px)
        assert (gt.box.cx, gt.box.cy) == (-2, 4)

    def test_strip_label_passthrough(self, material, illum, sensor):
        sc = ContactScenario(STRIP, 0, 0, 45, 3.0)
        _, gt = simulate(sc, material, illum, sensor)
        # 201 x 41 stencil cells of 0.1 mm
        assert (gt.box.w, gt.box.h, gt.theta_deg) == (201 * 0.1, 41 * 0.1, 45)
        assert gt.class_name == "strip" and gt.force_n == 3.0

    def test_noise_clamped(self, material, illum, small_sensor):
        sc = ContactScenario(SphereProbe(10), 0, 0, 0, 1.0, noise_sigma=0.5)
        img, _ = simulate(sc, material, illum, small_sensor, seed=1)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0


class TestDeviationMonotonicity:
    def test_area_monotone_in_force_small_raster(self, material, illum,
                                                 small_sensor):
        # fine-grained sweep on the fast raster; the acceptance suite runs
        # the full-resolution version
        for diameter in (10.0, 30.0):
            areas = []
            for force in np.arange(0.5, 10.01, 0.5):
                sc = ContactScenario(SphereProbe(diameter), 0, 0, 0, float(force))
                img = render(height_field(sc, material, small_sensor), illum)
                areas.append(deviation_area_mm2(img, illum))
            diffs = np.diff(areas)
            assert np.all(diffs >= 0)

    def test_area_monotone_in_diameter(self, material, illum, small_sensor):
        for force in (1.0, 6.0):
            areas = []
            for diameter in (10.0, 15.0, 20.0, 25.0, 30.0):
                sc = ContactScenario(SphereProbe(diameter), 0, 0, 0, force)
                img = render(height_field(sc, material, small_sensor), illum)
                areas.append(deviation_area_mm2(img, illum))
            assert np.all(np.diff(areas) >= 0)


class TestResolutionSweep:
    def test_low_frequency_near_sweep_maximum(self, material, illum, sensor):
        sweep = resolution_sweep([0.5, 2.0, 6.0], "horizontal", material,
                                 illum, sensor)
        mods = [r.modulation for r in sweep.rows]
        assert mods[0] == pytest.approx(max(mods), abs=0.02)

    def test_limit_below_nyquist(self, material, illum, sensor):
        freqs = [0.5, 1, 2, 4, 6, 8, 10, 12]
        for orientation in ("horizontal", "vertical"):
            sweep = resolution_sweep(freqs, orientation, material, illum, sensor)
            assert sweep.limit_lp_mm is not None
            assert sweep.limit_lp_mm <= 10.0

    def test_above_nyquist_flagged(self, material, illum, sensor):
        sweep = resolution_sweep([11.0, 15.0], "vertical", material, illum, sensor)
        for row in sweep.rows:
            assert row.modulation == 0.0 and not row.resolvable

    def test_monotone_within_tolerance(self, material, illum, sensor):
        freqs = [0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        sweep = resolution_sweep(freqs, "horizontal", material, illum, sensor)
        mods = [r.modulation for r in sweep.rows]
        for lo, hi in zip(mods[1:], mods[:-1]):
            assert lo <= hi + 0.02

    def test_bad_orientation(self, material, illum, sensor):
        with pytest.raises(ConfigError):
            resolution_sweep([1.0], "diagonal", material, illum, sensor)
