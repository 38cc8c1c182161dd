"""Masking and pointing evaluation tests: hand cases, oracles, seeded baselines."""

import csv
import math

import numpy as np
import pytest

from relprop import evaluate
from relprop.errors import DataError, ShapeError
from relprop.evaluate import (
    DEFAULT_ENERGIES,
    DEFAULT_PATCH_SIZES,
    EVAL_METHODS,
    BoundingBox,
    MaskSample,
    NoPositiveRelevanceError,
    PointSample,
    aggregate_masking,
    aggregate_pointing,
    energy_threshold,
    mask_patch,
    maximal_point,
    patch_masking_eval,
    pointing_game,
    random_relevance_map,
    read_bounding_boxes,
    run_masking,
    run_pointing,
    write_masking_reports,
    write_pointing_reports,
)
from relprop.model import LayerParams, LayerSpec, NetworkModel, Preprocessing, forward, predict_topk

from oracles import energy_threshold_by_sort
from test_model import dense_softmax_model


def scan_maximal_point(values):
    """Linear scan with explicit row-major tie handling."""
    best, bx, by = -math.inf, 0, 0
    for yy in range(values.shape[0]):
        for xx in range(values.shape[1]):
            if values[yy, xx] > best:
                best, bx, by = values[yy, xx], xx, yy
    return bx, by


class TestMaximalPoint:
    def test_single_nonzero_pixel(self):
        values = np.zeros((4, 5))
        values[2, 3] = 1.0
        assert maximal_point(values) == (3, 2)

    def test_uniform_map_takes_origin(self):
        assert maximal_point(np.ones((3, 3))) == (0, 0)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            values = rng.integers(0, 4, size=(h, w)).astype(float)
            assert maximal_point(values) == scan_maximal_point(values)

    def test_empty_or_flat_map_rejected(self):
        for values in (np.zeros((0, 3)), np.zeros(4)):
            with pytest.raises(ShapeError, match="maximal_point: need a non-empty 2-D map"):
                maximal_point(values)


class TestMaskPatch:
    def test_single_pixel(self):
        image = np.arange(27.0).reshape(3, 3, 3)
        out = mask_patch(image, (1, 1), 1)
        changed = np.any(out != image, axis=2)
        assert changed.sum() == 1 and changed[1, 1]
        assert out[1, 1].tobytes() == np.zeros(3).tobytes()  # +0.0, the subtracted mean

    def test_corner_clipping(self):
        """Center (0,0) with p=5 only reaches the in-bounds 3x3 quadrant."""
        image = np.full((8, 8, 1), 50.0)
        out = mask_patch(image, (0, 0), 5)
        changed = np.any(out != image, axis=2)
        assert changed.sum() == 9
        assert changed[:3, :3].all()

    def test_masked_count_equals_clip_region(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h, w = int(rng.integers(3, 12)), int(rng.integers(3, 12))
            image = rng.uniform(1, 2, size=(h, w, 2))
            x = int(rng.integers(0, w))
            y = int(rng.integers(0, h))
            p = int(rng.choice([1, 3, 5, 7]))
            r = p // 2
            out = mask_patch(image, (x, y), p)
            expect = (min(h, y + r + 1) - max(0, y - r)) * (
                min(w, x + r + 1) - max(0, x - r)
            )
            assert np.any(out != image, axis=2).sum() == expect

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        image = rng.uniform(0, 255, size=(6, 6, 3))
        once = mask_patch(image, (2, 3), 3)
        twice = mask_patch(once, (2, 3), 3)
        np.testing.assert_array_equal(once, twice)

    def test_even_or_nonpositive_patch_rejected(self):
        image = np.zeros((4, 4, 1))
        for bad in (0, 2, 4, -1):
            with pytest.raises(ShapeError):
                mask_patch(image, (1, 1), bad)

    def test_bad_image_rejected(self):
        with pytest.raises(ShapeError, match=r"image must be \[H,W,C\], got \(4, 4\)"):
            mask_patch(np.zeros((4, 4)), (1, 1), 3)

    def test_input_untouched(self):
        image = np.ones((4, 4, 1))
        mask_patch(image, (1, 1), 3)
        np.testing.assert_array_equal(image, np.ones((4, 4, 1)))


class TestPatchMaskingEval:
    def _model(self):
        rng = np.random.default_rng(3)
        return dense_softmax_model(0.002 * rng.normal(size=(3, 36)), input_shape=(6, 6, 1))

    def test_default_patch_sizes(self):
        """Without an explicit list the protocol sweeps p = 1,3,5,7,9."""
        assert DEFAULT_PATCH_SIZES == (1, 3, 5, 7, 9)
        rng = np.random.default_rng(42)
        model = self._model()
        image = rng.uniform(0, 255, size=(6, 6, 1))
        rows = patch_masking_eval(
            model, image, target_mode="ground_truth", label=1, methods=("lrp", "sglrp")
        )
        assert [r.patch_size for r in rows] == [1, 3, 5, 7, 9, 1, 3, 5, 7, 9]
        assert {r.method for r in rows} == {"lrp", "sglrp"}

    def test_drop_bookkeeping(self):
        """drop = before - after, probabilities in [0,1], drop in [-1,1]."""
        rng = np.random.default_rng(42)
        model = self._model()
        image = rng.uniform(0, 255, size=(6, 6, 1))
        rows = patch_masking_eval(
            model,
            image,
            target_mode="ground_truth",
            label=0,
            methods=("lrp", "clrp", "sglrp", "random"),
            rng=np.random.default_rng(7),
        )
        for r in rows:
            assert 0.0 <= r.prob_before <= 1.0
            assert 0.0 <= r.prob_after <= 1.0
            assert -1.0 <= r.drop <= 1.0
            assert r.drop == r.prob_before - r.prob_after
            assert r.target == 0

    def test_second_probable_targets_runner_up(self):
        rng = np.random.default_rng(42)
        model = self._model()
        image = rng.uniform(0, 255, size=(6, 6, 1))
        trace = forward(model, image)
        runner_up = predict_topk(trace, 2)[1][0]
        rows = patch_masking_eval(
            model, image, target_mode="second_probable", methods=("lrp",)
        )
        assert all(r.target == runner_up for r in rows)

    def test_ground_truth_needs_label(self):
        model = self._model()
        with pytest.raises(DataError):
            patch_masking_eval(
                model, np.zeros((6, 6, 1)), target_mode="ground_truth", methods=("lrp",)
            )

    def test_label_outside_classes_rejected(self):
        with pytest.raises(DataError, match=r"label 3 outside 0..2"):
            patch_masking_eval(self._model(), np.zeros((6, 6, 1)), label=3, methods=("lrp",))

    def test_unknown_target_mode_rejected(self):
        with pytest.raises(DataError, match="unknown target mode 'third_probable'"):
            patch_masking_eval(
                self._model(), np.zeros((6, 6, 1)), target_mode="third_probable", methods=("lrp",)
            )

    def test_random_needs_rng(self):
        model = self._model()
        with pytest.raises(DataError):
            patch_masking_eval(
                model, np.zeros((6, 6, 1)), label=0, methods=("random",)
            )

    def test_no_patch_sizes_gives_no_rows(self):
        model = self._model()
        image = np.random.default_rng(4).uniform(0, 255, size=(6, 6, 1))
        rows = patch_masking_eval(
            model, image, label=0, patch_sizes=(), rng=np.random.default_rng(1)
        )
        assert rows == []

    def test_unknown_or_repeated_method_rejected(self):
        model = self._model()
        image = np.zeros((6, 6, 1))
        for methods in (("lrp", "lrp"), ("random", "sglrp", "random"), ("saliency",)):
            with pytest.raises(DataError):
                patch_masking_eval(
                    model, image, label=0, methods=methods, rng=np.random.default_rng(1)
                )

    def test_rows_match_one_forward_per_occlusion(self):
        """Each row's prob_after is the target probability of its own occluded
        image, although every method's occlusions are classified as one stack."""
        rng = np.random.default_rng(42)
        model = self._model()
        image = rng.uniform(0, 255, size=(6, 6, 1))
        rows = patch_masking_eval(
            model, image, label=2, methods=("clrp", "random"), rng=np.random.default_rng(3)
        )
        assert len(rows) == 2 * len(DEFAULT_PATCH_SIZES)
        for r in rows:
            masked = mask_patch(image, r.point, r.patch_size)
            single = forward(model, masked).probabilities[2]
            assert abs(r.prob_after - single) <= 1e-12

    def test_rows_are_the_full_stacked_forward_bytes_on_cnn32(self):
        """On the benchmark's cnn32 architecture every row's prob_after carries the
        bytes of one full forward over the method's stack of occluded images, in both
        target modes, although the harness recomputes only what each patch reaches;
        and so does a stack masked at the corners and edges."""
        model = cnn32_model(np.random.default_rng(20190812))
        rng = np.random.default_rng(5)
        for index in range(4):
            image = rng.integers(0, 256, size=model.input_shape) - model.preprocessing.means
            mode = ("ground_truth", "second_probable")[index % 2]
            rows = patch_masking_eval(
                model, image, target_mode=mode, label=index, rng=np.random.default_rng(index)
            )
            for method in ("lrp", "clrp", "sglrp", "random"):
                mine = [r for r in rows if r.method == method]
                stack = np.stack([mask_patch(image, r.point, r.patch_size) for r in mine])
                full = forward(model, stack).probabilities[:, mine[0].target]
                assert [r.prob_after.hex() for r in mine] == [p.hex() for p in map(float, full)]
        base = forward(model, image)
        for centre in ((0, 0), (31, 0), (0, 31), (31, 31), (16, 0), (31, 15), (1, 30)):
            stack = np.stack([mask_patch(image, centre, p) for p in DEFAULT_PATCH_SIZES])
            got = forward(model, stack, base=base).probabilities
            assert got.tobytes() == forward(model, stack).probabilities.tobytes()

    def test_one_incremental_forward_per_distinct_point(self, monkeypatch):
        """Where two methods pick the same maximal point (lrp and clrp here), their
        occluded stacks are the same, so the harness forwards it once and gives both
        methods its rows: one incremental forward per distinct point, each row still
        the bytes of a full forward over the method's own stack."""
        model = cnn32_model(np.random.default_rng(20190812))
        image = np.random.default_rng(1).integers(0, 256, size=model.input_shape) - model.preprocessing.means
        incremental = []

        def counting(model, x, base=None):
            incremental.append(base is not None)
            return forward(model, x, base)

        monkeypatch.setattr(evaluate, "forward", counting)
        rows = patch_masking_eval(model, image, label=3, rng=np.random.default_rng(1))
        points = {r.method: r.point for r in rows}
        assert points["lrp"] == points["clrp"] and len(set(points.values())) == 3
        assert incremental.count(True) == 3
        for method in EVAL_METHODS:
            mine = [r for r in rows if r.method == method]
            stack = np.stack([mask_patch(image, r.point, r.patch_size) for r in mine])
            full = forward(model, stack).probabilities[:, 3]
            assert [r.prob_after.hex() for r in mine] == [p.hex() for p in map(float, full)]

    def test_masking_ignored_region_keeps_probability(self):
        """A model wired to the left half of the image cannot react to a patch
        placed in the right half: the drop is zero."""
        w = np.zeros((2, 16))
        flat = np.arange(16).reshape(4, 4)
        w[0, flat[:, :2].reshape(-1)] = 0.01
        w[1, flat[:, :2].reshape(-1)] = 0.005
        model = dense_softmax_model(w, input_shape=(4, 4, 1))
        rng = np.random.default_rng(42)
        image = rng.uniform(0, 255, size=(4, 4, 1))
        before = forward(model, image).probabilities
        masked = mask_patch(image, (3, 2), 1)
        after = forward(model, masked).probabilities
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-6)

    def test_masking_sole_evidence_pixel_gives_mean_prediction(self):
        """Masking the one pixel a model reads reproduces the prediction on an
        image made entirely of the dataset means."""
        w = np.zeros((2, 9))
        w[0, 4] = 0.02  # both classes read only the center pixel (1,1)
        w[1, 4] = 0.01
        model = dense_softmax_model(
            w, input_shape=(3, 3, 1), means=np.array([77.0])
        )
        rng = np.random.default_rng(42)
        image = rng.uniform(0, 255, size=(3, 3, 1)) - model.preprocessing.means
        masked = mask_patch(image, (1, 1), 1)
        after = forward(model, masked).probabilities
        mean_image = np.full((3, 3, 1), 77.0) - model.preprocessing.means
        reference = forward(model, mean_image).probabilities
        np.testing.assert_allclose(after, reference, rtol=0, atol=1e-12)


class TestEnergyThreshold:
    def test_full_energy_admits_all_positives(self):
        """E = 1.0 returns the smallest positive value, so every positive
        pixel passes and no zero does."""
        values = np.array([[4.0, 3.0], [2.0, 1.0]])
        tau = energy_threshold(values, 1.0)
        assert tau == 1.0
        assert int((values >= tau).sum()) == 4

    def test_half_energy_of_four(self):
        """{4,3,2,1} at E=0.5 keeps k=2 values: threshold 3."""
        values = np.array([[4.0, 3.0], [2.0, 1.0]])
        assert energy_threshold(values, 0.5) == 3.0

    def test_tiny_energy_keeps_maximum(self):
        """k never drops below 1, so a tiny E returns the map maximum."""
        values = np.array([[4.0, 3.0], [2.0, 1.0]])
        assert energy_threshold(values, 0.1) == 4.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            values = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(2, 9))))
            if not np.any(values > 0):
                continue
            energy = float(rng.uniform(0.05, 1.0))
            assert energy_threshold(values, energy) == energy_threshold_by_sort(
                values, energy
            )

    def test_monotonicity(self):
        """Raising E can only lower the threshold and grow the admitted set."""
        rng = np.random.default_rng(42)
        values = rng.uniform(-1, 1, size=(10, 10))
        taus = [energy_threshold(values, e) for e in DEFAULT_ENERGIES]
        counts = [int((values >= t).sum()) for t in taus]
        assert all(a >= b for a, b in zip(taus, taus[1:]))
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_no_positive_entries(self):
        with pytest.raises(NoPositiveRelevanceError):
            energy_threshold(np.zeros((3, 3)), 0.5)

    def test_energy_out_of_range(self):
        values = np.ones((2, 2))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ShapeError):
                energy_threshold(values, bad)


class TestPointingGame:
    def test_all_relevance_inside_box(self):
        values = np.zeros((8, 8))
        values[2:5, 2:5] = 1.0
        box = BoundingBox(0, 1, 1, 6, 6)
        for r in pointing_game(values, box):
            assert r.accuracy == 1.0 and r.misses == 0

    def test_all_relevance_outside_box(self):
        values = np.zeros((8, 8))
        values[6:, 6:] = 1.0
        box = BoundingBox(0, 0, 0, 2, 2)
        for r in pointing_game(values, box):
            assert r.accuracy == 0.0 and r.hits == 0

    def test_accuracy_identity_every_row(self):
        """accuracy * (hits + misses) = hits on every emitted result."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            values = rng.uniform(0, 1, size=(10, 10))
            box = BoundingBox(0, 2, 3, 6, 8)
            for r in pointing_game(values, box):
                assert r.accuracy == r.hits / (r.hits + r.misses)
                assert abs(r.accuracy * (r.hits + r.misses) - r.hits) <= 1e-9

    def test_uniform_noise_accuracy_approaches_box_fraction(self):
        """A 10x10 box in a 20x20 uniform map covers 25% of the area; accuracy
        averaged over 1000 seeded maps sits within 0.05 of 0.25 near full
        energy and hits it exactly at E=1.0."""
        rng = np.random.default_rng(42)
        box = BoundingBox(0, 0, 0, 9, 9)
        high_e, full_e = [], []
        for _ in range(1000):
            values = rng.random((20, 20))
            results = pointing_game(values, box, energies=(0.9, 1.0))
            high_e.append(results[0].accuracy)
            full_e.append(results[1].accuracy)
        assert abs(np.mean(high_e) - 0.25) <= 0.05
        assert all(a == 0.25 for a in full_e)

    def test_box_outside_map_rejected(self):
        with pytest.raises(ShapeError):
            pointing_game(np.ones((4, 4)), BoundingBox(0, 0, 0, 5, 5))


    def test_map_rank_validated(self):
        with pytest.raises(ShapeError, match=r"map must be 2-D, got \(4,\)"):
            pointing_game(np.ones(4), BoundingBox(0, 0, 0, 1, 0))


class TestBoundingBox:
    def test_degenerate_rejected(self):
        with pytest.raises(DataError):
            BoundingBox(0, 3, 0, 2, 4)
        with pytest.raises(DataError):
            BoundingBox(0, -1, 0, 2, 4)
        with pytest.raises(DataError):
            BoundingBox(-1, 0, 0, 2, 4)

    def test_clip_partial(self):
        clipped = BoundingBox(0, 18, 17, 25, 26).clip(20, 20)
        assert (clipped.x_max, clipped.y_max) == (19, 19)
        assert (clipped.x_min, clipped.y_min) == (18, 17)

    def test_clip_fully_outside_rejected(self):
        with pytest.raises(DataError):
            BoundingBox(0, 25, 0, 30, 5).clip(20, 20)

    def test_read_bounding_boxes(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_text(
            "# id class x_min y_min x_max y_max\n"
            "img0 1 2 3 10 12\n"
            "\n"
            "img1 0 0 0 5 5  # trailing comment\n"
        )
        boxes = read_bounding_boxes(path)
        assert [b[0] for b in boxes] == ["img0", "img1"]
        assert boxes[0][1] == BoundingBox(1, 2, 3, 10, 12)

    def test_read_bounding_boxes_degenerate_box_names_its_line(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_text("img0 1 2 3 10 12\nimg1 0 5 5 1 1\n")
        with pytest.raises(DataError, match=r":2: degenerate box \(5,5\)..\(1,1\)"):
            read_bounding_boxes(path)

    def test_read_bounding_boxes_field_count(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_text("img0 1 2 3 10\n")
        with pytest.raises(DataError) as err:
            read_bounding_boxes(path)
        assert ":1:" in str(err.value)

    def test_read_bounding_boxes_non_integer(self, tmp_path):
        """A field is ASCII digits after an optional minus, even where int() reads more."""
        path = tmp_path / "boxes.txt"
        for field in ("x", "+3", "0_3", "\uff13"):
            path.write_text(f"img0 1 2 {field} 10 12\n")
            with pytest.raises(DataError) as err:
                read_bounding_boxes(path)
            assert str(err.value) == f"{path}:1: non-integer field"


def cnn32_model(rng) -> NetworkModel:
    """The benchmark's cnn32 architecture with float32-rounded He-scaled weights:
    32x32x3 > conv16 > relu > pool > conv32 > relu > pool > dense64 > relu > dense10."""
    conv = {"kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 1}
    pool = {"kh": 2, "kw": 2, "stride": 2}
    layers = (
        LayerSpec("conv2d", {"in": 3, "out": 16, **conv}),
        LayerSpec("relu"),
        LayerSpec("maxpool", pool),
        LayerSpec("conv2d", {"in": 16, "out": 32, **conv}),
        LayerSpec("relu"),
        LayerSpec("maxpool", pool),
        LayerSpec("flatten"),
        LayerSpec("dense", {"in": 2048, "out": 64, "bias": 1}),
        LayerSpec("relu"),
        LayerSpec("dense", {"in": 64, "out": 10, "bias": 1}),
        LayerSpec("softmax"),
    )
    scales = iter([(27 * 64.0**2, 0.0), (72.0, 0.0), (1024.0, 0.0), (16.0, 4.0)])
    params = []
    for layer in layers:
        if not layer.is_parametric:
            params.append(None)
            continue
        divisor, shift = next(scales)
        weights = rng.standard_normal(layer.weight_shape()) / np.sqrt(divisor)
        bias = shift + 0.05 * rng.standard_normal(layer.params["out"])
        params.append(LayerParams(*(a.astype(np.float32).astype(np.float64) for a in (weights, bias))))
    return NetworkModel(
        input_shape=(32, 32, 3),
        layers=layers,
        params=tuple(params),
        preprocessing=Preprocessing(np.array([118.5, 112.25, 101.75]), pixel_range=(0.0, 255.0)),
    )


def small_dataset(n=6):
    """Images for a 6x6 single-channel three-class dense model."""
    rng = np.random.default_rng(2024)
    model = dense_softmax_model(
        0.002 * np.abs(np.random.default_rng(5).normal(size=(3, 36))),
        input_shape=(6, 6, 1),
    )
    mask_samples, point_samples = [], []
    for i in range(n):
        image = rng.uniform(0, 255, size=(6, 6, 1))
        mask_samples.append(MaskSample(f"img{i}", image, i % 3))
        point_samples.append(
            PointSample(f"img{i}", image, BoundingBox(i % 3, 1, 1, 4, 4))
        )
    return model, mask_samples, point_samples


class TestDatasetDrivers:
    def test_masking_rows_in_sample_order(self):
        model, samples, _ = small_dataset()
        rows = run_masking(model, samples, methods=("lrp",), patch_sizes=(1, 3))
        assert [image_id for image_id, _ in rows] == [
            s.image_id for s in samples for _ in range(2)
        ]

    def test_masking_seeded_rerun_identical(self):
        model, samples, _ = small_dataset()
        kwargs = dict(methods=("lrp", "random"), patch_sizes=(1, 3), seed=99)
        first = run_masking(model, samples, **kwargs)
        second = run_masking(model, samples, **kwargs)
        assert first == second

    def test_masking_random_needs_seed(self):
        model, samples, _ = small_dataset()
        with pytest.raises(DataError):
            run_masking(model, samples, methods=("random",))

    def test_masking_repeated_method_rejected(self):
        """A repeated method would add a second row per image and count it twice
        in the aggregate; an unknown one is rejected even with no samples."""
        model, samples, _ = small_dataset(n=2)
        with pytest.raises(DataError):
            run_masking(model, samples, methods=("lrp", "lrp"), patch_sizes=(1,))
        with pytest.raises(DataError):
            run_masking(model, [], methods=("lrp", "saliency"))

    def test_pointing_random_needs_seed(self):
        model, _, samples = small_dataset(n=1)
        with pytest.raises(DataError, match="random baseline need a seed"):
            run_pointing(model, samples, methods=("lrp", "random"))

    def test_negative_seed_rejected(self):
        """SeedSequence takes no negative entropy: a seed below 0 is a DataError from
        either harness, whatever the methods."""
        model, masks, points = small_dataset(n=1)
        with pytest.raises(DataError, match="seed -1 must be non-negative"):
            run_masking(model, masks, methods=("lrp",), patch_sizes=(1,), seed=-1)
        with pytest.raises(DataError, match="seed -1 must be non-negative"):
            run_pointing(model, points, methods=("lrp", "random"), seed=-1)

    def test_pointing_repeated_method_rejected(self):
        model, _, samples = small_dataset(n=1)
        with pytest.raises(DataError):
            run_pointing(model, samples, methods=("sglrp", "sglrp"))

    def test_pointing_rows_and_identity(self):
        model, _, samples = small_dataset()
        rows = run_pointing(model, samples, methods=("lrp", "sglrp"), seed=1)
        assert len(rows) == len(samples) * 2 * len(DEFAULT_ENERGIES)
        for row in rows:
            if row.result is not None:
                r = row.result
                assert r.accuracy == r.hits / (r.hits + r.misses)

    def test_pointing_seeded_rerun_identical(self):
        model, _, samples = small_dataset()
        kwargs = dict(methods=("lrp", "random"), energies=(0.5, 1.0), seed=31)
        first = run_pointing(model, samples, **kwargs)
        second = run_pointing(model, samples, **kwargs)
        assert first == second

    def test_pointing_box_class_validated(self):
        model, _, _ = small_dataset()
        bad = [PointSample("img0", np.zeros((6, 6, 1)), BoundingBox(7, 0, 0, 2, 2))]
        with pytest.raises(DataError):
            run_pointing(model, bad, methods=("lrp",))

    def test_pointing_zero_map_yields_skipped_rows(self):
        """A class with no positive evidence produces skipped rows, not a crash."""
        w = np.zeros((2, 4))
        w[1, :] = 0.01  # class 0 reads nothing: its target logit is exactly 0
        model = dense_softmax_model(w, input_shape=(2, 2, 1))
        samples = [
            PointSample("imgz", np.full((2, 2, 1), 100.0), BoundingBox(0, 0, 0, 1, 1))
        ]
        rows = run_pointing(model, samples, methods=("lrp",), energies=(0.5, 1.0))
        assert [row.result for row in rows] == [None, None]

    def test_random_map_seeded(self):
        a = random_relevance_map(5, 4, np.random.default_rng(3))
        b = random_relevance_map(5, 4, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (5, 4)
        assert np.all(a > 0) and np.all(a < 1)


class TestReports:
    def test_masking_reports_written(self, tmp_path):
        model, samples, _ = small_dataset()
        rows = run_masking(
            model, samples, methods=("lrp", "random"), patch_sizes=(1, 3), seed=5
        )
        per_image, aggregate = write_masking_reports(rows, tmp_path)
        with per_image.open() as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == len(rows)
        assert set(records[0]) == {
            "image_id",
            "method",
            "patch_size",
            "target",
            "prob_before",
            "prob_after",
            "drop",
            "point_x",
            "point_y",
        }
        assert {r["method"] for r in records} == {"lrp", "random"}

        with aggregate.open() as fh:
            agg_records = list(csv.DictReader(fh))
        for agg in agg_records:
            member_drops = [
                float(r["drop"])
                for r in records
                if r["method"] == agg["method"] and r["patch_size"] == agg["patch_size"]
            ]
            assert int(agg["n"]) == len(member_drops)
            assert abs(float(agg["mean_drop"]) - np.mean(member_drops)) <= 1e-12

    def test_pointing_reports_written(self, tmp_path):
        model, _, samples = small_dataset()
        rows = run_pointing(
            model, samples, methods=("sglrp", "random"), energies=(0.5, 1.0), seed=5
        )
        per_image, aggregate = write_pointing_reports(rows, tmp_path)
        with per_image.open() as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == len(rows)
        assert all(r["status"] == "ok" for r in records)
        with aggregate.open() as fh:
            agg_records = list(csv.DictReader(fh))
        for agg in agg_records:
            members = [
                float(r["accuracy"])
                for r in records
                if r["method"] == agg["method"]
                and float(r["energy"]) == float(agg["energy"])
            ]
            assert int(agg["n"]) == len(members)
            assert abs(float(agg["mean_accuracy"]) - np.mean(members)) <= 1e-12

    def test_skipped_rows_serialized(self, tmp_path):
        w = np.zeros((2, 4))
        w[1, :] = 0.01
        model = dense_softmax_model(w, input_shape=(2, 2, 1))
        samples = [
            PointSample("imgz", np.full((2, 2, 1), 100.0), BoundingBox(0, 0, 0, 1, 1))
        ]
        rows = run_pointing(model, samples, methods=("lrp",), energies=(1.0,))
        per_image, aggregate = write_pointing_reports(rows, tmp_path)
        with per_image.open() as fh:
            records = list(csv.DictReader(fh))
        assert records[0]["status"] == "skipped"
        assert records[0]["hits"] == ""
        with aggregate.open() as fh:
            agg_records = list(csv.DictReader(fh))
        assert agg_records[0]["n"] == "0"
        assert agg_records[0]["mean_accuracy"] == ""

    def test_int_energy_written_as_a_float(self, tmp_path):
        """energies=(1,) writes energy 1.0 in both CSVs, on an ok and a skipped row
        alike: an energy column holds floats whatever number type the caller passed."""
        w = np.zeros((2, 4))
        w[1, :] = 0.01  # class 0 reads nothing: its map is all zero and its rows skipped
        model = dense_softmax_model(w, input_shape=(2, 2, 1))
        image = np.full((2, 2, 1), 100.0)
        samples = [PointSample(f"img{c}", image, BoundingBox(c, 0, 0, 1, 1)) for c in (0, 1)]
        rows = run_pointing(model, samples, methods=("lrp",), energies=(1,))
        per_image, aggregate = [], []
        for path, records in zip(write_pointing_reports(rows, tmp_path), (per_image, aggregate)):
            with path.open() as fh:
                records.extend(csv.DictReader(fh))
        assert [(r["energy"], r["status"]) for r in per_image] == [("1.0", "skipped"), ("1.0", "ok")]
        assert [r["energy"] for r in aggregate] == ["1.0"]

    def test_no_rows_write_the_headers(self, tmp_path):
        masking = write_masking_reports([], tmp_path)
        pointing = write_pointing_reports([], tmp_path)
        assert [p.read_bytes() for p in masking + pointing] == [
            b"image_id,method,patch_size,target,prob_before,prob_after,drop,point_x,point_y\r\n",
            b"method,patch_size,n,mean_prob_before,mean_prob_after,mean_drop\r\n",
            b"image_id,method,energy,tau,hits,misses,accuracy,status\r\n",
            b"method,energy,n,mean_accuracy\r\n",
        ]

    def test_aggregate_groups_first_seen_order(self):
        model, samples, _ = small_dataset(3)
        rows = run_masking(model, samples, methods=("lrp", "sglrp"), patch_sizes=(1, 3))
        groups = aggregate_masking(rows)
        assert [(g["method"], g["patch_size"]) for g in groups] == [
            ("lrp", 1),
            ("lrp", 3),
            ("sglrp", 1),
            ("sglrp", 3),
        ]

    def test_aggregate_pointing_counts(self):
        model, _, samples = small_dataset(3)
        rows = run_pointing(model, samples, methods=("lrp",), energies=(0.5,))
        groups = aggregate_pointing(rows)
        assert groups[0]["n"] == 3
