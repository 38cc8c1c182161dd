"""Acceptance suite: seven release criteria, one recorded verdict each.

Each test prints into the terminal summary as `criterion N (<label>): PASS`
or `FAIL` via the conftest hook. Expected values come from plain-arithmetic
oracles computed inline or from the naive reference implementations in
oracles.py — never from the code under test.
"""

import math
import time

import numpy as np

from relprop.cli import main
from relprop.evaluate import (
    DEFAULT_PATCH_SIZES,
    MaskSample,
    PointSample,
    aggregate_masking,
    aggregate_pointing,
    energy_threshold,
    run_masking,
    run_pointing,
)
from relprop.model import forward, save_model
from relprop.relevance import explain
from relprop.tensor import (
    conv2d_forward,
    dense_forward,
    maxpool_forward,
    pool_winners,
    softmax,
)

from conftest import criterion
from oracles import (
    naive_conv2d,
    naive_dense,
    naive_maxpool,
    naive_softmax,
    naive_zplus_dense,
    softmax_gradient_fd,
    unroll_conv_matrix,
)
from synth import (
    SHARED_EVIDENCE_INPUT,
    UNIFORM_PENALTY_INPUT,
    make_shared_evidence_model,
    make_two_shape_dataset,
    make_two_shape_model,
    make_uniform_penalty_model,
    tensor_to_ppm,
)
from test_relevance import conv_layer, dense_layer, seed_row, trace_for_logits, zplus


@criterion(1, "softmax-gradient seeds")
def test_criterion_1_seed_correctness():
    """1000 random 10-class logit vectors: the gradient-weighted seed equals
    central finite differences of the softmax within 1e-6 per entry, and both
    contrastive seed variants sum to zero within 1e-9. Budget: 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        z = rng.uniform(-8.0, 8.0, size=10)
        target = int(rng.integers(10))
        trace = trace_for_logits(z)
        grad_seed = seed_row("sglrp", trace, target)
        np.testing.assert_allclose(
            grad_seed, softmax_gradient_fd(z, target, step=1e-5), rtol=0, atol=1e-6
        )
        assert abs(grad_seed.sum()) <= 1e-9
        assert abs(seed_row("clrp", trace, target).sum()) <= 1e-9
    assert time.perf_counter() - start < 5.0


@criterion(2, "relevance conservation")
def test_criterion_2_conservation():
    """100 random 3-layer ReLU stacks (widths <= 32, positive weights and
    inputs, so every denominator clears the stability floor): the relevance
    sum is preserved within 1e-8 relative at every layer. Budget: 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(100):
        widths = [int(rng.integers(2, 33)) for _ in range(4)]
        weights = [
            rng.uniform(0.1, 1.0, size=(widths[i + 1], widths[i])) for i in range(3)
        ]
        acts = [rng.uniform(0.5, 1.0, size=widths[0])]
        for w in weights:
            acts.append(np.maximum(w @ acts[-1], 0.0))
        relevance = np.zeros(widths[3])
        relevance[int(rng.integers(widths[3]))] = float(acts[3].max())
        for level in (2, 1, 0):
            back = zplus(relevance, dense_layer(weights[level]), weights[level], acts[level])
            np.testing.assert_allclose(back.sum(), relevance.sum(), rtol=1e-8, atol=0)
            relevance = back
    assert time.perf_counter() - start < 10.0


@criterion(3, "kernel oracle equivalence")
def test_criterion_3_oracle_equivalence():
    """The stride/pad-aware conv redistribution equals the same rule applied
    to the unrolled dense matrix within 1e-8 on 50 random instances up to
    8x8x3, and every forward kernel matches its quadruple-loop oracle within
    1e-10. Budget: 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.integers(0, 2))
        h, w = int(rng.integers(k, 9)), int(rng.integers(k, 9))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        weights = rng.normal(size=(c_out, c_in, k, k))
        activations = rng.uniform(0.0, 1.0, size=(h, w, c_in))
        h_out = (h + 2 * pad - k) // stride + 1
        w_out = (w + 2 * pad - k) // stride + 1
        relevance = rng.uniform(0.0, 1.0, size=(h_out, w_out, c_out))
        fast = zplus(relevance, conv_layer(weights, stride, pad), weights, activations)
        matrix = unroll_conv_matrix(weights, (h, w, c_in), stride=stride, pad=pad)
        slow = naive_zplus_dense(relevance.reshape(-1), matrix, activations.reshape(-1))
        np.testing.assert_allclose(fast, slow.reshape(h, w, c_in), rtol=0, atol=1e-8)

    for _ in range(15):
        h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.integers(0, 2))
        x = rng.normal(size=(h, w, c_in))
        cw = rng.normal(size=(c_out, c_in, k, k))
        cb = rng.normal(size=c_out)
        np.testing.assert_allclose(
            conv2d_forward(x, cw, cb, stride=stride, pad=pad),
            naive_conv2d(x, cw, cb, stride=stride, pad=pad),
            rtol=0,
            atol=1e-10,
        )
        side = int(rng.integers(1, 4)) * 2
        px = rng.normal(size=(side, side, c_in))
        got_vals = maxpool_forward(px, 2, 2, 2)
        got_winners = pool_winners(px, got_vals, 2, 2, 2)
        exp_vals, exp_idx = naive_maxpool(px, 2, 2, 2)
        np.testing.assert_allclose(got_vals, exp_vals, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(got_winners, exp_idx)
        n_in, n_out = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        dw = rng.normal(size=(n_out, n_in))
        db = rng.normal(size=n_out)
        v = rng.normal(size=n_in)
        np.testing.assert_allclose(
            dense_forward(v, dw, db), naive_dense(v, dw, db), rtol=0, atol=1e-10
        )
        logits = rng.uniform(-8.0, 8.0, size=int(rng.integers(2, 12)))
        np.testing.assert_allclose(
            softmax(logits), naive_softmax(logits), rtol=0, atol=1e-10
        )
    assert time.perf_counter() - start < 30.0


@criterion(4, "toy discriminativity")
def test_criterion_4_toy_discriminativity():
    """Two hand-built nets expose the qualitative gap between the methods.

    (a) In the shared-evidence net, one-hot seeding must place its maximal
    input credit on the pixel feeding BOTH logits: the shared hidden path
    carries 0.006 * 150 = 0.9 against 0.004 * 150 = 0.6 on the class-specific
    path, so the explanation for class 0 peaks on evidence class 1 also uses.

    (b) In the uniform-penalty net the target's pixel credit 1.5 meets an
    equal 1.5 uniform penalty down the decoy path and cancels exactly,
    while probability-weighted penalties scale by y_hat products and leave
    y1*(1-y1)/2 - y1*y0 of it standing. Thresholds come from evaluating
    that arithmetic inline."""
    model = make_shared_evidence_model()
    trace = forward(model, SHARED_EVIDENCE_INPUT)
    lrp_map = explain(model, trace, 0, "lrp").values[0]
    expected = np.array([0.004 * 150.0, 0.0, 0.006 * 150.0])
    np.testing.assert_allclose(lrp_map, expected, rtol=0, atol=1e-12)
    assert int(np.argmax(lrp_map)) == 2
    assert lrp_map[2] > lrp_map[0] > 0.0

    model = make_uniform_penalty_model()
    trace = forward(model, UNIFORM_PENALTY_INPUT)
    clrp_x2 = explain(model, trace, 1, "clrp").values[0, 1]
    sglrp_x2 = explain(model, trace, 1, "sglrp").values[0, 1]
    exp_z = [math.exp(0.006 * 100.0), math.exp(0.030 * 100.0), math.exp(0.022 * 100.0)]
    y = [e / sum(exp_z) for e in exp_z]
    expected_sglrp_x2 = y[1] * (1.0 - y[1]) / 2.0 - y[1] * y[0]
    assert abs(clrp_x2) <= 1e-12
    np.testing.assert_allclose(sglrp_x2, expected_sglrp_x2, rtol=0, atol=1e-12)
    assert sglrp_x2 - clrp_x2 > 0.05


@criterion(5, "two-shape experiment margins")
def test_criterion_5_synthetic_two_object():
    """200 synthetic 32x32 two-shape images against the hand-set 6-layer CNN:
    gradient-weighted maps must beat one-hot maps by 0.10 pointing accuracy
    at 80% energy, beat the uniform-noise baseline by 0.30, and deliver at
    least twice the random-center probability drop at p=5. Budget: 5 min."""
    start = time.perf_counter()
    model = make_two_shape_model()
    data = make_two_shape_dataset(200, seed=2718)
    methods = ("lrp", "clrp", "sglrp", "random")

    point_samples = [PointSample(i, image, box) for i, image, _, box in data]
    point_rows = run_pointing(
        model, point_samples, methods=methods, energies=(0.8,), seed=99
    )
    accuracy = {}
    for group in aggregate_pointing(point_rows):
        assert group["n"] == 200
        accuracy[group["method"]] = group["mean_accuracy"]
    assert accuracy["sglrp"] >= accuracy["lrp"] + 0.10
    assert accuracy["sglrp"] >= accuracy["random"] + 0.30

    mask_samples = [MaskSample(i, image, label) for i, image, label, _ in data]
    mask_rows = run_masking(
        model,
        mask_samples,
        target_mode="ground_truth",
        methods=methods,
        patch_sizes=(5,),
        seed=99,
    )
    drop = {}
    for group in aggregate_masking(mask_rows):
        assert group["n"] == 200
        drop[group["method"]] = group["mean_drop"]
    assert drop["sglrp"] > 0.0
    assert drop["sglrp"] >= 2.0 * drop["random"]
    assert time.perf_counter() - start < 300.0


@criterion(6, "protocol fidelity")
def test_criterion_6_protocol_fidelity():
    """Default patch sweep is exactly {1,3,5,7,9}; the full-energy threshold
    admits every positive pixel and nothing else; the accuracy identity
    accuracy * (hits + misses) = hits holds on every emitted row of a real
    default-energy run."""
    assert DEFAULT_PATCH_SIZES == (1, 3, 5, 7, 9)

    rng = np.random.default_rng(606)
    for _ in range(50):
        values = rng.normal(size=(int(rng.integers(2, 12)), int(rng.integers(2, 12))))
        positives = values > 0
        if not positives.any():
            continue
        tau = energy_threshold(values, 1.0)
        np.testing.assert_array_equal(values >= tau, positives)

    model = make_two_shape_model()
    data = make_two_shape_dataset(10, seed=2718)
    samples = [PointSample(i, image, box) for i, image, _, box in data]
    rows = run_pointing(
        model, samples, methods=("lrp", "clrp", "sglrp", "random"), seed=99
    )
    checked = 0
    for row in rows:
        if row.result is None:
            continue
        r = row.result
        assert r.accuracy == r.hits / (r.hits + r.misses)
        assert abs(r.accuracy * (r.hits + r.misses) - r.hits) <= 1e-9
        checked += 1
    assert checked > 0


@criterion(7, "byte-identical reruns")
def test_criterion_7_reproducibility(tmp_path):
    """Two complete command-line harness runs with the same seed write
    byte-identical CSV reports, PGM heatmaps, and raw map dumps."""
    model = make_two_shape_model()
    manifest, weights = tmp_path / "model.txt", tmp_path / "model.bin"
    save_model(model, manifest, weights)
    image_lines, box_lines = [], []
    for image_id, image, label, box in make_two_shape_dataset(6, seed=31415):
        tensor_to_ppm(image, tmp_path / f"{image_id}.ppm")
        image_lines.append(f"{image_id}.ppm {label}")
        box_lines.append(
            f"{image_id} {box.class_index} {box.x_min} {box.y_min} {box.x_max} {box.y_max}"
        )
    (tmp_path / "images.txt").write_text("\n".join(image_lines) + "\n")
    (tmp_path / "boxes.txt").write_text("\n".join(box_lines) + "\n")

    def run_harness(out_dir):
        common = [str(manifest), str(weights)]
        argv = [
            "mask-eval",
            *common,
            str(tmp_path / "images.txt"),
            "--out-dir",
            str(out_dir / "mask"),
            "--seed",
            "17",
        ]
        assert main(argv) == 0
        argv = [
            "pointing",
            *common,
            str(tmp_path / "images.txt"),
            str(tmp_path / "boxes.txt"),
            "--out-dir",
            str(out_dir / "point"),
            "--seed",
            "17",
        ]
        assert main(argv) == 0
        argv = [
            "explain",
            *common,
            str(tmp_path / "img0000.ppm"),
            "--method",
            "sglrp",
            "--target",
            "top",
            "--out",
            str(out_dir / "heat"),
        ]
        assert main(argv) == 0

    def tree_bytes(base):
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    run_harness(tmp_path / "run_a")
    run_harness(tmp_path / "run_b")
    first, second = tree_bytes(tmp_path / "run_a"), tree_bytes(tmp_path / "run_b")
    assert set(first) == set(second)
    assert {"mask/masking.csv", "point/pointing.csv", "heat.pgm", "heat.f32"} <= set(first)
    assert first == second
