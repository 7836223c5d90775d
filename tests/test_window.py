"""The windowed forward model and calibration against the whole-raster oracle.

``contact_window`` decides which pixels ``simulate`` computes and which the
calibration sweeps measure. Patching it to return the whole raster runs the
same code on every pixel, which is what the windowed results must equal byte
for byte. The sloped-pixel shading is held to a frozen copy of the per-light
shading it replaced, and the sweep's reused punch profiles to fresh height
fields.
"""

import contextlib
import importlib
import json

import numpy as np
import pytest

from tactwin.contact import ContactScenario, SphereProbe, StripProbe, height_field
from tactwin.dataset import DatasetSpec, sample_for_index
from tactwin.decoder import (CALIBRATION_FORCES, DecodeConfig,
                             _calibration_blobs, _decode_measurements,
                             build_calibration, build_decoder, build_templates,
                             calibration_scenario)
from tactwin.frames import PixelWindow, SensorConfig, pixel_centers_mm
from tactwin.render import (IlluminationModel, TactileImage, _shade,
                            contact_window, make_reference, resolution_sweep,
                            ring_lights, simulate)
from tactwin.suites import SUITES, footprint_probes

# 160 px over the standard 32 mm active area: windows reach the raster edge
# for edge-placed contacts and for the largest probes' calibration windows.
SENSOR_160 = SensorConfig(input_size=160, scale_mm_per_px=0.2)


@contextlib.contextmanager
def whole_frame():
    """Make every window the whole raster, in simulate and in calibration."""
    def full(scenario, material, illum, sensor):
        return PixelWindow.full(sensor.input_size)
    with pytest.MonkeyPatch.context() as mp:
        for module in ("tactwin.render", "tactwin.decoder"):
            mp.setattr(importlib.import_module(module), "contact_window", full)
        yield


def _simulated_pixels(suite, sensor, count, noise_sigma, material, illum):
    """Raw float64 pixels: equal pixels give equal PGM bytes, and the float
    comparison also catches last-bit differences that PGM rounding hides."""
    spec = DatasetSpec(count=count, master_seed=17, suite=suite,
                       noise_sigma=noise_sigma, sensor=sensor,
                       material=material, illum=illum)
    out = []
    for i in range(count):
        scenario, seed = sample_for_index(spec, i)
        out.append(simulate(scenario, material, illum, sensor, seed=seed)[0].pixels.tobytes())
    return out


def _blob_fields(blobs):
    return [(b.area_mm2, b.n_pixels, b.centroid_mm, b.mu20, b.mu02, b.mu11,
             b.mean_dev, b.peak_dev, b.edge_contrast, b.deviation_integral,
             b.ys.tolist(), b.xs.tolist(), b.weights.tolist(), b.extent_mm)
            for b in blobs]


def _sweep(probe, material, illum, sensor, cfg):
    """Every blob field the calibration sweep measures, for each force."""
    reference = make_reference(sensor, illum)
    return [_blob_fields(_calibration_blobs(probe, force, material, illum,
                                            sensor, cfg, reference)[0])
            for force in CALIBRATION_FORCES[1:]]


def _unique_probes():
    probes = {}
    for suite in sorted(SUITES):
        for probe in SUITES[suite]():
            probes.setdefault(json.dumps(probe.params(), sort_keys=True), probe)
    return list(probes.values())


def _calibration_json(probes, material, illum, sensor, cfg):
    by_class = {}
    for probe in probes:
        by_class.setdefault(probe.class_name, []).append(probe)
    tables = {cls: build_calibration(cls, plist, material, illum, sensor, cfg).to_json()
              for cls, plist in sorted(by_class.items())}
    return json.dumps(tables, sort_keys=True)


def _templates_json(probes, material, illum, sensor, cfg):
    return json.dumps(build_templates(probes, material, illum, sensor, cfg).to_json(),
                      sort_keys=True)


class TestContactWindow:
    def test_window_is_part_of_the_raster(self, material, illum, sensor):
        sc = sample_for_index(DatasetSpec(count=1, master_seed=3), 0)[0]
        w = contact_window(sc, material, illum, sensor)
        assert 0 < (w.y1 - w.y0) * (w.x1 - w.x0) < sensor.input_size ** 2

    def test_horizontal_light_takes_whole_raster(self, material, sensor):
        # l_z = 0 leaves no rounding margin for the flat shading
        illum = IlluminationModel(light_dirs=np.array([[1.0, 0.0, 0.0],
                                                       [0.0, 0.6, 0.8]]))
        sc = sample_for_index(DatasetSpec(count=1, master_seed=3), 0)[0]
        assert contact_window(sc, material, illum, sensor) == PixelWindow.full(640)


    def test_unloaded_contact_off_the_raster(self, material, illum, sensor):
        # zero force skips the bounds check; the window keeps an edge pixel
        sc = ContactScenario(SphereProbe(10.0), 100.0, 3.0, 0.0, 0.0)
        image, _ = simulate(sc, material, illum, sensor)
        assert image.is_reference
        assert np.array_equal(image.pixels, make_reference(sensor, illum).pixels)


class TestMeasurementWindow:
    def test_deviation_at_the_window_edge(self, illum, sensor, decode_cfg):
        # Deviation that fills the window out to its edges: the denoise filter
        # spreads it beyond the window, and the measurement must still see
        # all of it, as on the whole raster.
        reference = make_reference(sensor, illum)
        window = PixelWindow(200, 280, 300, 380, sensor.input_size)
        pixels = reference.pixels.copy()
        pixels[200:206, 300:380] -= 0.05
        pixels[270:280, 300:330] -= 0.05
        image = TactileImage(pixels, sensor.scale_mm_per_px)
        windowed = _decode_measurements(image, reference, sensor, decode_cfg, window)
        assert windowed
        assert _blob_fields(windowed) == _blob_fields(
            _decode_measurements(image, reference, sensor, decode_cfg))

    def test_filtered_support_at_the_window_edge(self, illum, sensor):
        # A threshold below every nonzero filtered value puts the filter's
        # whole support, up to the kernel radius beyond the window, into the
        # blob, so its weights show how the filter treats the window's edges.
        cfg = DecodeConfig(noise_sigma=0.02, threshold=1e-300)
        reference = make_reference(sensor, illum)
        window = PixelWindow(200, 280, 300, 380, sensor.input_size)
        pixels = reference.pixels.copy()
        pixels[200:280, 300] -= 0.05
        pixels[279, 300:380] += 0.05
        image = TactileImage(pixels, sensor.scale_mm_per_px)
        windowed = _decode_measurements(image, reference, sensor, cfg, window)
        blob = windowed[0]    # 15 px: the kernel radius at 0.25 mm / 0.05 mm
        assert (blob.xs.min(), blob.ys.max()) == (300 - 15, 279 + 15)
        assert _blob_fields(windowed) == _blob_fields(
            _decode_measurements(image, reference, sensor, cfg))


class TestSimulateExact:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_160px_suite(self, suite, noise, material, illum):
        args = (suite, SENSOR_160, 200, noise, material, illum)
        windowed = _simulated_pixels(*args)
        with whole_frame():
            assert windowed == _simulated_pixels(*args)

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_640px_roundtrip(self, noise, material, illum, sensor):
        args = ("roundtrip", sensor, 12, noise, material, illum)
        windowed = _simulated_pixels(*args)
        with whole_frame():
            assert windowed == _simulated_pixels(*args)


class TestCalibrationExact:
    # Flat probes do not calibrate at 160 px (their area steps are too coarse
    # to rise at every force), so the sweep's measurements are compared
    # directly, force by force, for every probe of every suite.
    @pytest.mark.parametrize("probe", _unique_probes(), ids=lambda p: "-".join(
        [type(p).__name__, p.class_name, f"{getattr(p, 'diameter_mm', '')}"]))
    def test_160px_sweep(self, probe, material, illum, decode_cfg):
        windowed = _sweep(probe, material, illum, SENSOR_160, decode_cfg)
        with whole_frame():
            assert windowed == _sweep(probe, material, illum, SENSOR_160, decode_cfg)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_160px_templates(self, suite, material, illum, decode_cfg):
        by_class = {}
        for probe in SUITES[suite]():
            by_class.setdefault(probe.class_name, []).append(probe)
        probes = [plist[len(plist) // 2] for _, plist in sorted(by_class.items())]
        windowed = _templates_json(probes, material, illum, SENSOR_160, decode_cfg)
        with whole_frame():
            assert windowed == _templates_json(probes, material, illum,
                                               SENSOR_160, decode_cfg)

    def test_160px_sphere_table(self, material, illum):
        cfg = DecodeConfig(noise_sigma=0.0)
        probes = SUITES["spheres"]()
        windowed = _calibration_json(probes, material, illum, SENSOR_160, cfg)
        with whole_frame():
            assert windowed == _calibration_json(probes, material, illum,
                                                 SENSOR_160, cfg)

    def test_640px_two_roundtrip_probes(self, material, illum, sensor, decode_cfg):
        lshape = next(p for p in footprint_probes() if p.class_name == "lshape")
        probes = [SphereProbe(20.0), lshape]
        windowed = (_calibration_json(probes, material, illum, sensor, decode_cfg),
                    _templates_json(probes, material, illum, sensor, decode_cfg))
        with whole_frame():
            assert windowed == (
                _calibration_json(probes, material, illum, sensor, decode_cfg),
                _templates_json(probes, material, illum, sensor, decode_cfg))


def frozen_shade(z, scale_mm_per_px, illum):
    """Frozen copy of the per-light shading of every pixel that
    ``render._shade`` replaced; its outputs are the bit-exact reference for
    the sloped-pixel rule."""
    fy, fx = np.gradient(z, scale_mm_per_px)
    inv_norm = 1.0 / np.sqrt(1.0 + fx * fx + fy * fy)
    shade = np.zeros(z.shape)
    for lx, ly, lz in illum.light_dirs:
        dot = (-fx * lx - fy * ly + lz) * inv_norm
        np.maximum(dot, 0.0, out=dot)
        if illum.exponent != 1.0:
            dot **= illum.exponent
        shade += dot
    shade /= illum.light_dirs.shape[0]
    return np.clip(illum.ambient + illum.diffuse * shade, 0.0, 1.0)


OTHER_LIGHTS = {
    "ring4_30deg": IlluminationModel(light_dirs=ring_lights(4, 30.0)),
    # l_z just under 1/2 and lights at 30 and 60 degrees azimuth: here a
    # threshold 4 t would let -f_x l_x - f_y l_y move l_z by an ulp.
    "ring12_30deg": IlluminationModel(light_dirs=ring_lights(12, 30.0)),
    "exponent2": IlluminationModel(exponent=2.0),
    "horizontal_light": IlluminationModel(light_dirs=np.array([[1.0, 0.0, 0.0],
                                                               [0.0, 0.6, 0.8]])),
}


def assert_shades_like_oracle(z, scale_mm_per_px, illum):
    assert (_shade(z, scale_mm_per_px, illum).tobytes()
            == frozen_shade(z, scale_mm_per_px, illum).tobytes())


def _window_field(probe, force, material, illum, sensor):
    """The height field ``simulate`` shades for a calibration render."""
    scenario = calibration_scenario(probe, force)
    window = contact_window(scenario, material, illum, sensor).grow(1)
    return height_field(scenario, material, sensor, window=window).z


class TestSlopedShading:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_calibration_windows(self, suite, material, illum, sensor):
        for probe in SUITES[suite]():
            for force in (0.25, 5.0, 10.0):
                z = _window_field(probe, force, material, illum, sensor)
                assert_shades_like_oracle(z, sensor.scale_mm_per_px, illum)

    @pytest.mark.parametrize("suite", ["roundtrip", "screw"])
    def test_whole_raster_fields(self, suite, material, illum, sensor):
        spec = DatasetSpec(count=3, master_seed=11, suite=suite)
        for i in range(spec.count):
            z = height_field(sample_for_index(spec, i)[0], material, sensor).z
            assert_shades_like_oracle(z, sensor.scale_mm_per_px, illum)

    @pytest.mark.parametrize("orientation", ["horizontal", "vertical"])
    def test_resolution_gratings(self, orientation, material, illum, sensor,
                                 monkeypatch):
        render_module = importlib.import_module("tactwin.render")
        fields = []

        def spy(height, illum):
            fields.append(height.z)
            return original(height, illum)

        original = render_module.render
        monkeypatch.setattr(render_module, "render", spy)
        resolution_sweep([0.5, 2.0, 5.0, 9.0], orientation, material, illum, sensor)
        assert len(fields) == 4
        for z in fields:
            assert_shades_like_oracle(z, sensor.scale_mm_per_px, illum)

    @pytest.mark.parametrize("light", sorted(OTHER_LIGHTS))
    def test_other_lights(self, light, material, sensor):
        illum = OTHER_LIGHTS[light]
        for probe in SUITES["roundtrip"]():
            z = _window_field(probe, 5.0, material, illum, sensor)
            assert_shades_like_oracle(z, sensor.scale_mm_per_px, illum)

    @pytest.mark.parametrize("light", ["default", *sorted(OTHER_LIGHTS)])
    def test_slopes_around_the_threshold(self, light, sensor):
        # A shallow bowl whose slopes run from 0 to 16 t in every direction,
        # t being the rule's threshold (any scale when t = 0).
        illum = OTHER_LIGHTS.get(light, IlluminationModel())
        t = float(np.abs(illum.light_dirs[:, 2]).min()) * 2.0 ** -56 or 2.0 ** -56
        X, Y = pixel_centers_mm(sensor)
        z = 16.0 * t / (2.0 * X.max()) * (X * X + Y * Y)
        assert_shades_like_oracle(z, sensor.scale_mm_per_px, illum)

    def test_nan_heights_shade_as_before(self, illum, small_sensor):
        z = np.zeros((small_sensor.input_size,) * 2)
        z[40:50, 60:70] = 0.3
        z[45, 65] = np.nan
        assert_shades_like_oracle(z, small_sensor.scale_mm_per_px, illum)


class TestProfileMemo:
    def test_sweep_fields_equal_fresh_fields(self, material, illum, sensor,
                                             decode_cfg, monkeypatch):
        contact = importlib.import_module("tactwin.contact")
        render_module = importlib.import_module("tactwin.render")
        seen, built = [], []

        def spy_field(scenario, material, sensor, window=None):
            assert contact._PROFILE_MEMO.get() is not None
            hf = height_field(scenario, material, sensor, window=window)
            seen.append((scenario, window, hf.z.tobytes()))
            return hf

        def spy_inside(inside):
            def wrapped(probe, *args):
                built.append(probe.class_name)
                return inside(probe, *args)
            return wrapped

        monkeypatch.setattr(render_module, "height_field", spy_field)
        for name in ("_strip_inside", "_footprint_inside"):
            monkeypatch.setattr(contact, name, spy_inside(getattr(contact, name)))
        lshape = next(p for p in footprint_probes() if p.class_name == "lshape")
        build_decoder([StripProbe(20.0, 4.0), lshape, SphereProbe(20.0)],
                      material, illum, sensor, decode_cfg)
        assert contact._PROFILE_MEMO.get() is None
        # one profile per punch in the calibration sweep, one per template
        assert built == ["lshape", "strip", "lshape", "strip"]
        monkeypatch.undo()
        assert len(seen) == 3 * (len(CALIBRATION_FORCES) - 1 + 2)
        for scenario, window, z in seen:
            assert height_field(scenario, material, sensor, window=window).z.tobytes() == z
