"""PPM/PGM round-trips, input preparation, and heatmap quantization tests."""

import numpy as np
import pytest

from relprop.errors import ImageFormatError, ShapeError
from relprop.imaging import (
    preprocess,
    read_pgm,
    read_ppm,
    render_heatmap,
    write_pgm,
    write_ppm,
)

from test_model import dense_softmax_model


def rgb_model(height, width, means=(0.0, 0.0, 0.0)):
    """Dense two-class model over an RGB input of the given extent."""
    n = height * width * 3
    return dense_softmax_model(
        np.full((2, n), 0.001),
        input_shape=(height, width, 3),
        means=np.asarray(means, dtype=float),
    )


BAD_RGB = [
    np.full((2, 2, 3), 200.0),
    np.zeros((2, 2), dtype=np.uint8),
    np.zeros((2, 2, 4), dtype=np.uint8),
    np.zeros((0, 2, 3), dtype=np.uint8),
    [[[1, 2, 3]]],
    bytes(12),
]
BAD_RGB_IDS = ["float", "2-D", "4-channel", "empty", "nested-list", "bytes"]


class TestPpmIo:
    def test_single_white_pixel_round_trip(self, tmp_path):
        """Canonical-form file: read then write is byte-identical."""
        path = tmp_path / "white.ppm"
        payload = b"P6\n1 1\n255\n\xff\xff\xff"
        path.write_bytes(payload)
        image = read_ppm(path)
        assert image.dtype == np.uint8
        np.testing.assert_array_equal(image, np.full((1, 1, 3), 255))
        out = tmp_path / "copy.ppm"
        write_ppm(image, out)
        assert out.read_bytes() == payload

    def test_checkerboard_round_trip(self, tmp_path):
        image = np.array([[0, 255], [255, 0]], dtype=np.uint8)[:, :, None].repeat(3, axis=2)
        path = tmp_path / "board.ppm"
        write_ppm(image, path)
        back = read_ppm(path)
        assert back.dtype == np.uint8 and back.shape == (2, 2, 3)
        assert back.tobytes() == bytes([0, 0, 0, 255, 255, 255, 255, 255, 255, 0, 0, 0])

    def test_array_round_trips_to_the_byte(self, tmp_path):
        """A [H,W,3] uint8 array written then read comes back equal, and so does its file."""
        image = np.random.default_rng(42).integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(image, a)
        back = read_ppm(a)
        assert back.dtype == np.uint8 and back.tobytes() == image.tobytes()
        assert back.shape == (5, 7, 3) and back.flags.writeable
        write_ppm(back, b)
        assert a.read_bytes() == b.read_bytes() == b"P6\n7 5\n255\n" + image.tobytes()

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # magic\n# a full comment line\n 2\t1 # extent\n255\n" + b"\x01" * 6)
        image = read_ppm(path)
        assert image.shape == (1, 2, 3)
        assert image.tobytes() == b"\x01" * 6

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 255 255\n")
        with pytest.raises(ImageFormatError):
            read_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n15\n\x0f\x0f\x0f")
        with pytest.raises(ImageFormatError):
            read_ppm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ImageFormatError) as err:
            read_ppm(path)
        assert "truncated" in str(err.value)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "h.ppm"
        path.write_bytes(b"P6\n2 # the height is missing\n")
        with pytest.raises(ImageFormatError, match="truncated header"):
            read_ppm(path)

    def test_missing_separator_after_maxval(self, tmp_path):
        path = tmp_path / "s.ppm"
        path.write_bytes(b"P6 1 1 255")
        with pytest.raises(ImageFormatError):
            read_ppm(path)

    @pytest.mark.parametrize(
        "data, want",
        [
            (b"P6#c\n2 1\n255\n" + b"\x07" * 6, (1, 2, 3)),
            (b"P6\n# c\r2 1\n255\n" + b"\x07" * 6, (1, 2, 3)),
            (b"P6\x0b2\x0c1\x0b255\x0c" + b"\x07" * 6, (1, 2, 3)),
            (b"P6\n2 1\n255#c\n" + b"\x07" * 6, "missing whitespace after maxval"),
            (b"", "truncated header"),
            (b"P6", "truncated header"),
        ],
        ids=["comment-after-magic", "comment-ends-at-cr", "vt-ff-separators", "comment-after-maxval",
             "empty", "magic-only"],
    )
    def test_header_edge_cases(self, tmp_path, data, want):
        """A comment may follow a token with no whitespace and ends at CR or LF, vertical tab
        and form feed separate tokens, and the one byte after the maxval must be whitespace:
        each header gives this shape, or this exact message."""
        path = tmp_path / "e.ppm"
        path.write_bytes(data)
        if isinstance(want, tuple):
            image = read_ppm(path)
            assert image.shape == want and image.tobytes() == b"\x07" * 6
            return
        with pytest.raises(ImageFormatError) as err:
            read_ppm(path)
        assert str(err.value) == f"{path}: {want}"

    @pytest.mark.parametrize("header", [b"1_0 1", b"+4 1", b"4 +1"])
    def test_header_integers_are_ascii_digits(self, tmp_path, header):
        """int() would read `1_0` as 10 and `+4` as 4."""
        path = tmp_path / "d.ppm"
        path.write_bytes(b"P6\n" + header + b"\n255\n" + b"\x00" * 30)
        with pytest.raises(ImageFormatError, match="non-numeric"):
            read_ppm(path)

    def test_non_numeric_token_is_shown_cut_short(self, tmp_path):
        """Samples that follow the maxval with no separator run on in its token; the
        message shows the token's first 20 bytes, then `...`, not the whole payload."""
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n4 4\n255" + b"\x80" * 48)
        with pytest.raises(ImageFormatError) as err:
            read_ppm(path)
        shown = "b'255" + "\\x80" * 17 + "'..."
        assert str(err.value) == f"{path}: non-numeric maxval {shown}"
        assert len(str(err.value)) - len(str(path)) <= 100

    def test_bad_array_rejected(self, tmp_path):
        """Only a non-empty [H,W,3] uint8 array is written; nothing else reaches the file."""
        path = tmp_path / "bad.ppm"
        for samples in BAD_RGB:
            with pytest.raises(ShapeError, match=r"write_ppm: need a non-empty \[H,W,3\] uint8 array, got "):
                write_ppm(samples, path)
        assert not path.exists()


class TestPgmIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        samples = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        path = tmp_path / "map.pgm"
        write_pgm(samples, path)
        np.testing.assert_array_equal(read_pgm(path), samples)

    def test_rewrite_byte_identical(self, tmp_path):
        samples = np.arange(12, dtype=np.uint8).reshape(3, 4)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(samples, a)
        write_pgm(read_pgm(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_dtype_and_rank_validated(self, tmp_path):
        with pytest.raises(ShapeError):
            write_pgm(np.zeros((2, 2)), tmp_path / "f.pgm")
        with pytest.raises(ShapeError):
            write_pgm(np.zeros((2, 2, 1), dtype=np.uint8), tmp_path / "r.pgm")
        for samples in ([[1, 2], [3, 4]], bytes(4)):
            with pytest.raises(ShapeError, match=r"write_pgm: need a 2-D uint8 array, got "):
                write_pgm(samples, tmp_path / "n.pgm")

    def test_color_magic_rejected(self, tmp_path):
        path = tmp_path / "p6.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ImageFormatError):
            read_pgm(path)

    @pytest.mark.parametrize("extent", [b"-2 -3", b"0 4", b"4 0", b"1_0 1"])
    def test_bad_extent_rejected(self, tmp_path, extent):
        """A negative, zero or non-decimal extent is an ImageFormatError, not a numpy
        error or an empty array."""
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n" + extent + b"\n255\n" + b"\x00" * 16)
        with pytest.raises(ImageFormatError):
            read_pgm(path)


class TestPreprocess:
    def test_at_size_zero_means_is_plain_float_copy(self):
        rng = np.random.default_rng(42)
        raw = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
        out = preprocess(raw, rgb_model(4, 4))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, raw.astype(np.float64))

    def test_mean_subtraction_per_channel(self):
        image = np.full((2, 2, 3), 200, dtype=np.uint8)
        out = preprocess(image, rgb_model(2, 2, means=(10.0, 20.0, 30.0)))
        np.testing.assert_array_equal(out[0, 0], [190.0, 180.0, 170.0])

    def test_raw_units_kept_without_subtraction(self):
        image = np.full((2, 2, 3), 200, dtype=np.uint8)
        out = preprocess(
            image, rgb_model(2, 2, means=(10.0, 20.0, 30.0)), subtract_mean=False
        )
        np.testing.assert_array_equal(out, np.full((2, 2, 3), 200.0))

    def test_wide_image_center_cropped(self):
        """A 4x2 image feeding a 2x2 model keeps the middle two columns:
        left offset = (4 - 2) // 2 = 1, so columns 1 and 2 survive."""
        raw = np.zeros((2, 4, 3), dtype=np.uint8)
        raw[:, :, 0] = [[0, 10, 20, 30], [40, 50, 60, 70]]
        out = preprocess(raw, rgb_model(2, 2))
        np.testing.assert_array_equal(out[:, :, 0], [[10.0, 20.0], [50.0, 60.0]])

    @pytest.mark.parametrize(
        "shape, kept", [((5, 2), [[2, 3], [4, 5]]), ((2, 5), [[1, 2], [6, 7]])], ids=["tall", "wide"]
    )
    def test_odd_side_difference_crops_one_less_before(self, shape, kept):
        """A 5x2 or 2x5 image holding 0..9 in row-major order, feeding a 2x2 model: the
        offset is (5 - 2) // 2 = 1, so rows or columns 1 and 2 survive, one cut before
        them and two after."""
        raw = np.zeros((*shape, 3), dtype=np.uint8)
        raw[:, :, 0] = np.arange(10).reshape(shape)
        out = preprocess(raw, rgb_model(2, 2))
        np.testing.assert_array_equal(out[:, :, 0], kept)

    def test_downscale_picks_floor_mapped_rows(self):
        """4x4 down to 2x2 samples source rows/cols (0*4)//2=0 and (1*4)//2=2."""
        raw = np.zeros((4, 4, 3), dtype=np.uint8)
        raw[:, :, 1] = np.arange(16).reshape(4, 4)
        out = preprocess(raw, rgb_model(2, 2))
        np.testing.assert_array_equal(out[:, :, 1], [[0.0, 2.0], [8.0, 10.0]])

    def test_grayscale_model_rejected(self):
        model = dense_softmax_model(np.full((2, 4), 0.001), input_shape=(2, 2, 1))
        with pytest.raises(ShapeError, match="preprocess: model expects 1 channels, PPM input is RGB"):
            preprocess(np.zeros((2, 2, 3), dtype=np.uint8), model)

    @pytest.mark.parametrize("image", BAD_RGB, ids=BAD_RGB_IDS)
    def test_anything_but_a_non_empty_rgb_uint8_array_rejected(self, image):
        """A float, 2-D, 4-channel or empty image, or anything but an array, is a ShapeError,
        not a silently wrong input."""
        with pytest.raises(ShapeError, match=r"preprocess: need a non-empty \[H,W,3\] uint8 array, got "):
            preprocess(image, rgb_model(2, 2))


class TestRenderHeatmap:
    def test_all_zero_renders_black(self):
        out = render_heatmap(np.zeros((3, 3)), np.zeros((3, 3, 2)))
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, np.zeros((3, 3), dtype=np.uint8))

    def test_single_positive_pixel_saturates(self):
        values = np.array([[1.0]])
        raw = np.array([[[1.0]]])
        np.testing.assert_array_equal(render_heatmap(values, raw), [[255]])

    def test_signed_peak_sets_the_scale(self):
        """With raw spanning [-2, 1], the peak magnitude 2 maps value 1 to
        floor(0.5 * 255 + 0.5) = 128."""
        values = np.array([[0.0, 1.0]])
        raw = np.array([[[-2.0], [1.0]]])
        np.testing.assert_array_equal(render_heatmap(values, raw), [[0, 128]])

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        raw = rng.normal(size=(5, 5, 3))
        values = np.maximum(raw, 0.0).sum(axis=2)
        a = render_heatmap(values, raw)
        b = render_heatmap(3.7 * values, 3.7 * raw)
        np.testing.assert_array_equal(a, b)

    def test_values_above_peak_clamp_to_white(self):
        values = np.array([[5.0]])
        raw = np.array([[[1.0]]])
        np.testing.assert_array_equal(render_heatmap(values, raw), [[255]])

    def test_negative_values_clamp_to_black(self):
        values = np.array([[-1.0, 1.0]])
        raw = np.array([[[1.0], [1.0]]])
        np.testing.assert_array_equal(render_heatmap(values, raw), [[0, 255]])

    def test_map_rank_validated(self):
        with pytest.raises(ShapeError):
            render_heatmap(np.zeros(4), np.zeros((2, 2, 1)))

    def test_quantization_round_trips_through_pgm(self, tmp_path):
        rng = np.random.default_rng(42)
        raw = rng.normal(size=(6, 6, 3))
        values = np.maximum(raw, 0.0).sum(axis=2)
        rendered = render_heatmap(values, raw)
        path = tmp_path / "h.pgm"
        write_pgm(rendered, path)
        np.testing.assert_array_equal(read_pgm(path), rendered)
