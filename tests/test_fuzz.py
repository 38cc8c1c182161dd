"""Fuzz tests over the inputs read from files: manifests, image lists, box files,
PPM images and weight blobs.

Each test starts from a valid file and mutates its bytes (replacing, inserting
and deleting bytes, favouring the ones the formats treat specially and bytes
that are not UTF-8). Whatever the bytes, reading the file either succeeds or
raises a RelpropError naming the file, and the CLI exits 0 or 1 with a
`relprop:` message, never with a traceback.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relprop.cli import _read_image_list, main
from relprop.errors import BlobError, DataError, RelpropError
from relprop.evaluate import read_bounding_boxes
from relprop.imaging import read_ppm, write_ppm
from relprop.model import LayerParams, LayerSpec, NetworkModel, Preprocessing, load_model, save_model

FUZZ_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SPECIAL = b"\xff\xfe\xc3\x80\x00#=\n\r \t-+.0123456789eE_"


@st.composite
def mutated(draw, original: bytes) -> bytes:
    """original with 1-4 bytes replaced, inserted or deleted."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from(SPECIAL), st.integers(0, 255)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or at == len(data):
            data.insert(at, byte)
        elif op == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A saved conv > relu > pool > dense model, two 8x8 PPMs, and a list and box file."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(8)
    layers = (
        LayerSpec("conv2d", {"in": 3, "out": 2, "kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 1}),
        LayerSpec("relu"),
        LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2}),
        LayerSpec("flatten"),
        LayerSpec("dense", {"in": 32, "out": 3, "bias": 1}),
        LayerSpec("softmax"),
    )
    params = (
        LayerParams(0.01 * rng.normal(size=(2, 3, 3, 3)), 0.05 * np.ones(2)),
        None,
        None,
        None,
        LayerParams(0.05 * rng.normal(size=(3, 32)), np.zeros(3)),
        None,
    )
    preprocessing = Preprocessing(np.array([9.5, 20.0, 30.25]), (0.0, 255.0))
    model = NetworkModel((8, 8, 3), layers, params, preprocessing)
    save_model(model, root / "model.txt", root / "model.bin")
    for i in range(2):
        write_ppm(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8), root / f"img{i}.ppm")
    texts = {
        "model.txt": (root / "model.txt").read_bytes(),
        "images.txt": b"img0.ppm 0\n# a comment\nimg1.ppm 2\n",
        "boxes.txt": b"img0 0 1 1 5 5\nimg1 2 2 0 6 4  # trailing\n",
    }
    for name, data in texts.items():
        (root / name).write_bytes(data)
    return root, texts


def _exit_code(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check_cli(argv: list[str]) -> None:
    code, err = _exit_code(argv)
    assert code in (0, 1)
    assert code == 0 or err.startswith("relprop: ")


def test_non_utf8_inputs_name_their_file(files):
    """A 0xff byte in any of the three text inputs is a RelpropError naming the
    file, on the API and on the CLI."""
    root, texts = files
    fuzz = root / "nonutf8.txt"
    fuzz.write_bytes(b"img0.ppm 0\n\xffimg1.ppm 1\n")
    for read in (lambda: _read_image_list(fuzz), lambda: read_bounding_boxes(fuzz),
                 lambda: load_model(fuzz, root / "model.bin")):
        with pytest.raises(RelpropError, match="nonutf8.txt: not UTF-8"):
            read()
    model = [str(root / "model.txt"), str(root / "model.bin")]
    out = ["--out-dir", str(root / "out"), "--seed", "1"]
    for argv in (
        ["predict", str(fuzz), model[1], str(root / "img0.ppm")],
        ["mask-eval", *model, str(fuzz), *out],
        ["pointing", *model, str(root / "images.txt"), str(fuzz), *out],
    ):
        code, err = _exit_code(argv)
        assert code == 1 and "nonutf8.txt: not UTF-8" in err


@FUZZ_SETTINGS
@given(st.data())
def test_fuzzed_manifest_loads_or_raises_relprop_error(files, data):
    root, texts = files
    fuzz = root / "fuzz_model.txt"
    fuzz.write_bytes(data.draw(mutated(texts["model.txt"])))
    try:
        load_model(fuzz, root / "model.bin")
    except RelpropError as exc:  # a blob that no longer fits is named by the blob's path
        assert str(fuzz) in str(exc) or str(root / "model.bin") in str(exc)
    _check_cli(["predict", str(fuzz), str(root / "model.bin"), str(root / "img0.ppm")])


@FUZZ_SETTINGS
@given(st.data())
def test_fuzzed_image_list_reads_or_raises_data_error(files, data):
    root, texts = files
    fuzz = root / "fuzz_images.txt"
    fuzz.write_bytes(data.draw(mutated(texts["images.txt"])))
    try:
        _read_image_list(fuzz)
    except DataError as exc:
        assert str(fuzz) in str(exc)
    model = [str(root / "model.txt"), str(root / "model.bin")]
    _check_cli(["mask-eval", *model, str(fuzz), "--out-dir", str(root / "out"), "--seed", "1",
                "--patches", "1,3"])


@FUZZ_SETTINGS
@given(st.data())
def test_fuzzed_box_file_reads_or_raises_data_error(files, data):
    root, texts = files
    fuzz = root / "fuzz_boxes.txt"
    fuzz.write_bytes(data.draw(mutated(texts["boxes.txt"])))
    try:
        read_bounding_boxes(fuzz)
    except DataError as exc:
        assert str(fuzz) in str(exc)
    model = [str(root / "model.txt"), str(root / "model.bin")]
    _check_cli(["pointing", *model, str(root / "images.txt"), str(fuzz),
                "--out-dir", str(root / "out"), "--seed", "1", "--energies", "0.5,1.0"])


@FUZZ_SETTINGS
@given(st.data())
def test_fuzzed_ppm_reads_or_raises_relprop_error(files, data):
    """A 2x2 PPM, so that most mutations land in the header."""
    root, _ = files
    fuzz = root / "fuzz.ppm"
    fuzz.write_bytes(data.draw(mutated(b"P6\n2 2\n255\n" + bytes(range(0, 240, 20)))))
    try:
        read_ppm(fuzz)
    except RelpropError as exc:
        assert str(fuzz) in str(exc)
    _check_cli(["predict", str(root / "model.txt"), str(root / "model.bin"), str(fuzz)])


@FUZZ_SETTINGS
@given(st.data())
def test_fuzzed_blob_loads_or_raises_relprop_error(files, data):
    root, _ = files
    fuzz = root / "fuzz_model.bin"
    fuzz.write_bytes(data.draw(mutated((root / "model.bin").read_bytes())))
    try:
        load_model(root / "model.txt", fuzz)
    except RelpropError:
        codes = (1,)
    else:
        codes = (0, 1)
    argv = ["explain", str(root / "model.txt"), str(fuzz), str(root / "img0.ppm"),
            "--method", "sglrp", "--target", "top", "--out", str(root / "out" / "heat")]
    code, err = _exit_code(argv)
    assert code in codes and (code == 0 or err.startswith("relprop: "))


def test_signalling_nan_blob_is_blob_error(files):
    """A float32 signalling NaN in the blob is a BlobError and exit 1, with no numpy
    warning from the cast to float64 (this suite turns warnings into errors)."""
    root, _ = files
    snan = root / "snan_model.bin"
    snan.write_bytes(b"\x01\x00\xa0\x7f" + (root / "model.bin").read_bytes()[4:])
    with pytest.raises(BlobError, match="non-finite"):
        load_model(root / "model.txt", snan)
    code, err = _exit_code(["predict", str(root / "model.txt"), str(snan), str(root / "img0.ppm")])
    assert code == 1 and err.startswith("relprop: ") and "non-finite" in err
