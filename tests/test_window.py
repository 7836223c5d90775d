"""The windowed forward model and measurement against their whole-raster
references in ``oracle``.

``simulate`` renders only ``contact_window``. ``_decode_measurements``
filters and labels a crop around the pixels that can reach the threshold;
it is checked also under a skirt just below the threshold that reaches
farther than the crop, with the contact at a raster corner, and on a
noise-free image read back from a PGM. The calibration sweeps measure
``render_window``'s patch alone; their blobs, tables and templates are
checked, also from ``build_decoder``'s forked workers. Sloped-pixel shading
and its blocked per-light kernel are checked against per-light shading of
every pixel, and a sweep's reused punch profiles against fresh height
fields.
"""

import importlib
import json

import numpy as np
import pytest
from scipy import ndimage

from tactwin import runner
from tactwin.contact import ContactScenario, FootprintProbe, SphereProbe, height_field
from tactwin.dataset import DatasetSpec, read_pgm, sample_for_index, write_pgm
from tactwin.decoder import (_COLUMNS, CALIBRATION_FORCES, DecodeConfig,
                             _calibration_blobs, _decode_measurements,
                             build_calibration, build_decoder, build_templates,
                             calibration_scenario, difference_image)
from tactwin.frames import PixelWindow, pixel_centers_mm
from tactwin.render import (_SHADE_BLOCK, IlluminationModel, TactileImage, _shade,
                            _shade_slopes, contact_window, make_reference,
                            resolution_sweep, ring_lights, simulate)
from tactwin.suites import STENCIL_SCALE_MM, SUITES, footprint_probes, stencil_strip

from oracle import (SENSOR_160, _blob_fields, frozen_calibration_blobs,
                    frozen_measurements, frozen_shade, frozen_shade_slopes,
                    frozen_simulate, whole_raster_calibration)


def assert_measures_like_oracle(image, reference, sensor, cfg):
    blobs = _decode_measurements(difference_image(image, reference), sensor, cfg)
    assert _blob_fields(blobs) == _blob_fields(
        frozen_measurements(image, reference, sensor, cfg))
    return blobs


def _simulated_images(suite, sensor, count, noise_sigma, material, illum,
                      simulator=simulate):
    spec = DatasetSpec(count=count, master_seed=17, suite=suite,
                       noise_sigma=noise_sigma, sensor=sensor,
                       material=material, illum=illum)
    for i in range(count):
        scenario, seed = sample_for_index(spec, i)
        yield simulator(scenario, material, illum, sensor, seed=seed)[0]


def _simulated_pixels(*args):
    """Raw float64 pixels and the reference flag: equal pixels give equal PGM
    bytes, and the float comparison also catches last-bit differences that PGM
    rounding hides."""
    return [(image.pixels.tobytes(), image.is_reference)
            for image in _simulated_images(*args)]


def _sweep(calibration_blobs, probe, material, illum, sensor, cfg):
    """Every blob field and ground-truth box the calibration sweep measures,
    for each force."""
    reference = make_reference(sensor, illum)
    out = []
    for force in CALIBRATION_FORCES[1:]:
        blobs, gt = calibration_blobs(probe, force, material, illum, sensor, cfg, reference)
        out.append((_blob_fields(blobs), gt.box))
    return out


def _unique_probes():
    probes = {}
    for suite in sorted(SUITES):
        for probe in SUITES[suite]():
            probes.setdefault(json.dumps(probe.params(), sort_keys=True), probe)
    return list(probes.values())


def _calibration_tables(probes, material, illum, sensor, cfg):
    """Each class's table from ``build_calibration``: every column of every
    curve, as Python floats."""
    by_class = {}
    for probe in probes:
        by_class.setdefault(probe.class_name, []).append(probe)
    return {cls: [(c.label, *(getattr(c, k).tolist() for k in _COLUMNS)) for c in
                  build_calibration(cls, plist, material, illum, sensor, cfg).curves]
            for cls, plist in sorted(by_class.items())}


def _library(models):
    return [(cls, m.offset, [(force, mask.shape, mask.tobytes()) for force, mask in m.variants])
            for cls, m in models.items()]


def _templates(probes, material, illum, sensor, cfg):
    return _library(build_templates(probes, material, illum, sensor, cfg))


def _decoder_json(probes, material, illum, sensor, cfg):
    """The model file ``calibrate`` writes for these probes."""
    decoder = build_decoder(probes, material, illum, sensor, cfg)
    return json.dumps(decoder.to_json(), sort_keys=True)


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
        # Deviation that fills its support out to the edges: the denoise
        # filter spreads it beyond the support, and the measurement must
        # still see all of it, as on the whole raster.
        reference = make_reference(sensor, illum)
        pixels = reference.pixels.copy()
        pixels[200:206, 300:380] -= 0.05
        pixels[270:280, 300:330] -= 0.05
        image = TactileImage(pixels, sensor.scale_mm_per_px)
        assert assert_measures_like_oracle(image, reference, sensor, decode_cfg)

    def test_filtered_support_at_the_window_edge(self, illum, sensor):
        # A threshold below every nonzero filtered value puts the filter's
        # whole support, up to the kernel radius beyond the deviation's
        # support, into the blob, so its weights show how the filter treats
        # the support's edges.
        cfg = DecodeConfig(noise_sigma=0.02, threshold=1e-300)
        reference = make_reference(sensor, illum)
        pixels = reference.pixels.copy()
        pixels[200:280, 300] -= 0.05
        pixels[279, 300:380] += 0.05
        image = TactileImage(pixels, sensor.scale_mm_per_px)
        blob = assert_measures_like_oracle(image, reference, sensor, cfg)[0]
        # 15 px: the kernel radius at 0.25 mm / 0.05 mm
        assert (blob.xs.min(), blob.ys.max()) == (300 - 15, 279 + 15)

    @pytest.mark.parametrize("size, core", [
        (640, (slice(300, 330), slice(200, 260))),
        (160, (slice(70, 78), slice(60, 90))),
        (160, (slice(0, 8), slice(140, 160))),
    ], ids=["640px", "160px", "160px-raster-edge"])
    def test_skirt_just_under_the_threshold(self, size, core, illum, sensor):
        # A core above the threshold in a skirt that fills the raster, every
        # skirt value a hair under the rectangle's cut t (1 - 2^-40). The
        # filter carries the skirt's values from up to twice the kernel radius
        # beyond the core into the mask's edge pixels, and a skirt that
        # reaches the threshold after filtering would fall outside the label
        # rectangle.
        sensor = sensor if size == 640 else SENSOR_160
        cfg = DecodeConfig(noise_sigma=0.0)
        t = cfg.effective_threshold(sensor)
        rng = np.random.default_rng(size)
        reference = make_reference(sensor, illum)
        skirt = t * (1.0 - 2.0 ** -39) * rng.uniform(1.0 - 2.0 ** -8, 1.0, (size, size))
        pixels = reference.pixels - skirt
        pixels[core] -= 0.05
        image = TactileImage(pixels, sensor.scale_mm_per_px)
        dev = difference_image(image, reference)
        assert np.abs(dev[np.abs(dev) < 0.02]).max() < t * (1.0 - 2.0 ** -40)
        blob, = assert_measures_like_oracle(image, reference, sensor, cfg)
        radius = cfg.denoise_radius_px(sensor)
        assert blob.ys.max() >= core[0].stop + radius - 2

    def test_noise_free_pgm_is_measured_around_its_contact(self, material, illum, sensor,
                                                          tmp_path, monkeypatch):
        # 16-bit rounding moves every pixel of a PGM off the float reference,
        # but far below the threshold: the filter still runs on a crop.
        cfg = DecodeConfig(noise_sigma=0.0)
        reference = make_reference(sensor, illum)
        shapes = []

        def spy(dev, **kwargs):
            shapes.append(dev.shape)
            return gaussian_filter(dev, **kwargs)

        gaussian_filter = ndimage.gaussian_filter
        monkeypatch.setattr(ndimage, "gaussian_filter", spy)
        for i, image in enumerate(_simulated_images("roundtrip", sensor, 7, 0.0,
                                                    material, illum)):
            write_pgm(tmp_path / f"{i}.pgm", image)
            image = read_pgm(tmp_path / f"{i}.pgm", sensor.scale_mm_per_px)
            assert (image.pixels != reference.pixels).all()
            shapes.clear()
            assert assert_measures_like_oracle(image, reference, sensor, cfg)
            # the measurement's crop, then the whole-raster oracle
            assert max(shapes[0]) < sensor.input_size and len(shapes) == 2

    def test_reference_decodes_to_nothing(self, illum, sensor, decode_cfg):
        reference = make_reference(sensor, illum)
        assert _decode_measurements(difference_image(reference, reference),
                                    sensor, decode_cfg) == []
        assert frozen_measurements(reference, reference, sensor, decode_cfg) == []

    @pytest.mark.parametrize("scenario, corner", [
        (ContactScenario(SphereProbe(10.0), -12.0, -12.0, 0.0, 5.0), (0, 0)),
        (ContactScenario(FootprintProbe("strip", stencil_strip(8.0, 3.0), STENCIL_SCALE_MM),
                         11.0, 11.0, 30.0, 8.0), (160, 160)),
    ], ids=["sphere-first-corner", "strip-last-corner"])
    @pytest.mark.parametrize("decode_noise", [0.0, 0.02])
    def test_contact_at_the_raster_corner(self, scenario, corner, decode_noise,
                                          material, illum):
        # A noise-free contact whose support reaches two raster edges: the
        # filter reflects there, and the measured crop must reflect alike.
        image = simulate(scenario, material, illum, SENSOR_160)[0]
        reference = make_reference(SENSOR_160, illum)
        differs = image.pixels != reference.pixels
        rows = np.flatnonzero(differs.any(axis=1))
        cols = np.flatnonzero(differs.any(axis=0))
        assert corner in ((rows[0], cols[0]), (rows[-1] + 1, cols[-1] + 1))
        cfg = DecodeConfig(noise_sigma=decode_noise)
        assert assert_measures_like_oracle(image, reference, SENSOR_160, cfg)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_160px_suite(self, suite, noise, material, illum):
        cfg = DecodeConfig(noise_sigma=noise)
        reference = make_reference(SENSOR_160, illum)
        for image in _simulated_images(suite, SENSOR_160, 100, noise, material, illum):
            assert_measures_like_oracle(image, reference, SENSOR_160, cfg)


class TestSimulateExact:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_160px_suite(self, suite, noise, material, illum):
        args = (suite, SENSOR_160, 200, noise, material, illum)
        assert _simulated_pixels(*args) == _simulated_pixels(*args, frozen_simulate)

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_640px_roundtrip(self, noise, material, illum, sensor):
        args = ("roundtrip", sensor, 12, noise, material, illum)
        assert _simulated_pixels(*args) == _simulated_pixels(*args, frozen_simulate)


class TestCalibrationExact:
    # The sweep's measurements are compared force by force for every probe
    # of every suite.
    @pytest.mark.parametrize("probe", _unique_probes(), ids=lambda p: "-".join(
        [type(p).__name__, p.class_name, f"{getattr(p, 'diameter_mm', '')}"]))
    def test_160px_sweep(self, probe, material, illum, decode_cfg):
        args = (probe, material, illum, SENSOR_160, decode_cfg)
        assert _sweep(_calibration_blobs, *args) == _sweep(frozen_calibration_blobs, *args)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_160px_templates(self, suite, material, illum, decode_cfg):
        # Several probes per class too: build_templates ships the library
        # build_decoder does, from the middle probe's sweep only.
        probes = SUITES[suite]()
        windowed = _templates(probes, material, illum, SENSOR_160, decode_cfg)
        swept = build_decoder(probes, material, illum, SENSOR_160, decode_cfg)
        assert _library(swept.models) == windowed
        with whole_raster_calibration():
            assert windowed == _templates(probes, material, illum, SENSOR_160, decode_cfg)

    def test_160px_sphere_table(self, material, illum):
        cfg = DecodeConfig(noise_sigma=0.0)
        probes = SUITES["spheres"]()
        windowed = _calibration_tables(probes, material, illum, SENSOR_160, cfg)
        with whole_raster_calibration():
            assert windowed == _calibration_tables(probes, material, illum,
                                                   SENSOR_160, cfg)

    def test_160px_decoder_at_2_workers(self, material, illum, decode_cfg, monkeypatch):
        # Fork hands the patched oracle to the worker processes, so the
        # oracle arm also runs in the pool.
        monkeypatch.setattr(runner, "_available_cpus", lambda: 2)
        probes = SUITES["spheres"]()
        windowed = _decoder_json(probes, material, illum, SENSOR_160, decode_cfg)
        with whole_raster_calibration():
            assert windowed == _decoder_json(probes, material, illum,
                                             SENSOR_160, decode_cfg)

    def test_160px_sphere_table_at_1_and_2_cpus(self, material, illum, decode_cfg,
                                                monkeypatch):
        # build_calibration sweeps in forked workers, as build_decoder does.
        tables = []
        for cpus in (1, 2):
            monkeypatch.setattr(runner, "_available_cpus", lambda n=cpus: n)
            tables.append(_calibration_tables(SUITES["spheres"](), material, illum,
                                              SENSOR_160, decode_cfg))
        assert tables[0] == tables[1]

    def test_640px_two_roundtrip_probes(self, material, illum, sensor, decode_cfg):
        lshape = next(p for p in footprint_probes() if p.class_name == "lshape")
        probes = [SphereProbe(20.0), lshape]
        windowed = _decoder_json(probes, material, illum, sensor, decode_cfg)
        with whole_raster_calibration():
            assert windowed == _decoder_json(probes, material, illum, sensor, decode_cfg)


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

    @pytest.mark.parametrize("light", ["default", *sorted(OTHER_LIGHTS)])
    @pytest.mark.parametrize("size", [1, _SHADE_BLOCK, 3 * _SHADE_BLOCK + 777])
    def test_blocked_kernel(self, light, size):
        # Slopes from flat to steep, in every direction, with NaNs; the
        # largest size spans several blocks and ends in a ragged one.
        illum = OTHER_LIGHTS.get(light, IlluminationModel())
        rng = np.random.default_rng(size)
        fx, fy = rng.standard_normal((2, size)) * np.exp(rng.uniform(-40.0, 3.0, (2, size)))
        fx[::97] = np.nan
        fy[5::89] = np.nan
        assert (_shade_slopes(fx, fy, illum).tobytes()
                == frozen_shade_slopes(fx, fy, illum).tobytes())

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

        def spy_mask(scenario, *args):
            built.append(scenario.probe.class_name)
            return contact_mask(scenario, *args)

        contact_mask = contact.contact_mask
        # The spies record in this process only: sweep without workers.
        monkeypatch.setattr(runner, "_available_cpus", lambda: 1)
        monkeypatch.setattr(render_module, "height_field", spy_field)
        monkeypatch.setattr(contact, "contact_mask", spy_mask)
        strip, lshape = (next(p for p in footprint_probes() if p.class_name == name)
                         for name in ("strip", "lshape"))
        build_decoder([strip, lshape, SphereProbe(20.0)],
                      material, illum, sensor, decode_cfg)
        assert contact._PROFILE_MEMO.get() is None
        # one profile per punch, in its calibration sweep; the templates
        # take the sweep's renders at their forces and render nothing
        assert built == ["lshape", "strip"]
        monkeypatch.undo()
        assert len(seen) == 3 * (len(CALIBRATION_FORCES) - 1)
        for scenario, window, z in seen:
            assert height_field(scenario, material, sensor, window=window).z.tobytes() == z
