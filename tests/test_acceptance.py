"""End-to-end acceptance checks.

Each test prints one `criterion N (name): PASS/FAIL` line with the measured
numbers (run pytest with -s to see them all), and fails the test when the
stated tolerance is missed. Criteria cover path equivalence, round trips,
the residual-offset identity, mapping forms, rotation validity, the metric
suite, the lifting study, windowing arithmetic, and CLI determinism.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from canonpose.camera import (
    Frame,
    Pose3D,
    batch_project,
    batch_screen_normalize,
)
from canonpose.canonical import (
    batch_back_transform,
    batch_canonicalize_2d,
    batch_canonicalize_3d,
    batch_project_centered,
    residual_offset,
)
from canonpose.cli import run
from canonpose.dataset import FramePair, PoseSequence, WindowSpec, window
from canonpose.lift import LiftingStudyConfig, run_study
from canonpose.metrics import mpjpe, p_mpjpe, procrustes_align
from canonpose.skeleton import get_skeleton
from canonpose.synth import SynthConfig, generate_pose_array, random_intrinsics

N_POSES = 10_000
SEED = 2026


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def h36m17():
    return get_skeleton("h36m17")


@pytest.fixture(scope="module")
def big_batch(h36m17):
    return generate_pose_array(SynthConfig(seed=SEED, n_poses=N_POSES), h36m17)


def test_criterion_1_path_equivalence(h36m17):
    start = time.perf_counter()
    points = generate_pose_array(SynthConfig(seed=SEED, n_poses=N_POSES), h36m17)
    assert (points[..., 2] > 0.1).all()
    root = h36m17.root_index
    canonical, _, _ = batch_canonicalize_3d(points, root)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        camera = random_intrinsics(rng)
        via_3d = batch_project_centered(canonical, camera)
        via_2d, _, _ = batch_canonicalize_2d(batch_project(points, camera), camera, root)
        worst = max(worst, float(np.abs(via_3d - via_2d).max()))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-9 and elapsed < 10.0
    _report(
        1,
        "path equivalence",
        passed,
        f"max 3D-path vs 2D-path gap {worst:.3e} px over {N_POSES} poses x 10 cameras, {elapsed:.1f} s",
    )
    assert passed


def test_criterion_2_round_trip(h36m17, big_batch):
    root = h36m17.root_index
    canonical, rotations, _ = batch_canonicalize_3d(big_batch, root)
    relative = canonical - canonical[:, root : root + 1]
    recovered = batch_back_transform(relative, rotations)
    expected = big_batch - big_batch[:, root : root + 1]
    worst = float(np.abs(recovered - expected).max())
    passed = worst < 1e-9
    _report(2, "round trip", passed, f"max recovery error {worst:.3e} m over {N_POSES} poses")
    assert passed


def test_criterion_3_residual_identity(h36m17):
    rng = np.random.default_rng(11)
    camera = random_intrinsics(rng)
    points = generate_pose_array(SynthConfig(seed=SEED + 1, n_poses=1_000), h36m17)
    bases = points - points[:, h36m17.root_index : h36m17.root_index + 1]
    offsets = np.stack(
        [
            rng.uniform(-1.5, 1.5, size=1_000),
            rng.uniform(-1.5, 1.5, size=1_000),
            rng.uniform(2.5, 6.0, size=1_000),
        ],
        axis=-1,
    )
    worst = 0.0
    for base, off in zip(bases, offsets):
        moved = batch_project(base + off, camera)
        on_axis = batch_project(base + np.array([0.0, 0.0, off[2]]), camera)
        expected = np.stack(
            [residual_offset((off[0], off[1], z), camera) for z in base[:, 2] + off[2]]
        )
        worst = max(worst, float(np.abs(moved - on_axis - expected).max()))
    passed = worst < 1e-9
    _report(3, "residual identity", passed, f"max identity error {worst:.3e} px over 1000 pairs")
    assert passed


def test_criterion_4_mapping_forms(h36m17, big_batch):
    root = h36m17.root_index
    canonical, _, _ = batch_canonicalize_3d(big_batch, root)
    rng = np.random.default_rng(13)
    roots_exact = True
    canonical_worst = 0.0
    conventional_worst = 0.0
    for _ in range(3):
        camera = random_intrinsics(rng)
        screen_canon = batch_screen_normalize(batch_project_centered(canonical, camera), camera)
        roots_exact = roots_exact and bool(np.all(screen_canon[:, root] == 0.0))
        # Canonical form: pure proportionality, no offset term.
        ax = np.stack(
            [
                (2.0 * camera.fx / camera.width) * canonical[..., 0] / canonical[..., 2],
                (2.0 * camera.fy / camera.width) * canonical[..., 1] / canonical[..., 2],
            ],
            axis=-1,
        )
        canonical_worst = max(canonical_worst, float(np.abs(screen_canon - ax).max()))
        # Conventional form: same slope plus a constant principal-point offset.
        screen_conv = batch_screen_normalize(batch_project(big_batch, camera), camera)
        offset = np.array(
            [
                (2.0 * camera.cx - camera.width) / camera.width,
                (2.0 * camera.cy - camera.height) / camera.width,
            ]
        )
        ratios = np.stack(
            [
                (2.0 * camera.fx / camera.width) * big_batch[..., 0] / big_batch[..., 2],
                (2.0 * camera.fy / camera.width) * big_batch[..., 1] / big_batch[..., 2],
            ],
            axis=-1,
        )
        conventional_worst = max(conventional_worst, float(np.abs(screen_conv - (ratios + offset)).max()))
    passed = roots_exact and canonical_worst < 1e-9 and conventional_worst < 1e-9
    _report(
        4,
        "mapping forms",
        passed,
        f"roots exact: {roots_exact}, canonical AX gap {canonical_worst:.3e}, "
        f"conventional AX+B gap {conventional_worst:.3e}",
    )
    assert passed


def test_criterion_5_rotation_validity(h36m17, big_batch):
    root = h36m17.root_index
    camera = random_intrinsics(np.random.default_rng(17))
    _, rotations_3d, _ = batch_canonicalize_3d(big_batch, root)
    _, rotations_2d, pelvis = batch_canonicalize_2d(batch_project(big_batch, camera), camera, root)
    worst_orth = worst_det = worst_align = 0.0
    for rotations, vectors in (
        (rotations_3d, big_batch[:, root]),
        (rotations_2d, pelvis),
    ):
        gram = np.einsum("nji,njk->nik", rotations, rotations)
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(3)).max()))
        worst_det = max(worst_det, float(np.abs(np.linalg.det(rotations) - 1.0).max()))
        unit = vectors / np.linalg.norm(vectors, axis=-1, keepdims=True)
        aligned = np.einsum("nij,nj->ni", rotations, unit)
        worst_align = max(worst_align, float(np.abs(aligned - np.array([0.0, 0.0, 1.0])).max()))
    passed = worst_orth < 1e-9 and worst_det < 1e-9 and worst_align < 1e-9
    _report(
        5,
        "rotation validity",
        passed,
        f"max |R'R - I| {worst_orth:.3e}, max |det - 1| {worst_det:.3e}, "
        f"max |R v - e_z| {worst_align:.3e} over both paths",
    )
    assert passed


def _so3_grid_align(pred: np.ndarray, gt: np.ndarray):
    """Exhaustive 1-degree ZYZ Euler sweep of the similarity alignment."""
    p0 = pred - pred.mean(axis=0)
    g0 = gt - gt.mean(axis=0)
    var_p = float(np.sum(p0**2))
    cov = p0.T @ g0

    def rot_z(t):
        c, s = np.cos(t), np.sin(t)
        zero, one = np.zeros_like(t), np.ones_like(t)
        return np.stack(
            [
                np.stack([c, -s, zero], axis=-1),
                np.stack([s, c, zero], axis=-1),
                np.stack([zero, zero, one], axis=-1),
            ],
            axis=-2,
        )

    def rot_y(t):
        c, s = np.cos(t), np.sin(t)
        zero, one = np.zeros_like(t), np.ones_like(t)
        return np.stack(
            [
                np.stack([c, zero, s], axis=-1),
                np.stack([zero, one, zero], axis=-1),
                np.stack([-s, zero, c], axis=-1),
            ],
            axis=-2,
        )

    step = np.deg2rad(1.0)
    alphas = np.arange(360) * step
    betas = np.arange(181) * step
    gammas = np.arange(360) * step
    inner = np.einsum("bij,gjk->bgik", rot_y(betas), np.einsum("gij,jk->gik", rot_z(gammas), cov))
    # trace(Rz(a) @ M) = cos(a) (M00 + M11) + sin(a) (M01 - M10) + M22
    sum_diag = inner[..., 0, 0] + inner[..., 1, 1]
    skew = inner[..., 0, 1] - inner[..., 1, 0]
    rest = inner[..., 2, 2]
    best_trace, best = -np.inf, (0, 0, 0)
    for i, alpha in enumerate(alphas):
        traces = np.cos(alpha) * sum_diag + np.sin(alpha) * skew + rest
        flat = int(np.argmax(traces))
        if traces.flat[flat] > best_trace:
            best_trace = float(traces.flat[flat])
            best = (i, *np.unravel_index(flat, traces.shape))
    i, j, k = best
    rotation = (
        rot_z(alphas[i : i + 1])[0] @ rot_y(betas[j : j + 1])[0] @ rot_z(gammas[k : k + 1])[0]
    )
    scale = best_trace / var_p
    aligned = scale * p0 @ rotation.T + gt.mean(axis=0)
    ssq = float(np.sum((aligned - gt) ** 2))
    mean_dist = float(np.mean(np.linalg.norm(aligned - gt, axis=-1)))
    return ssq, mean_dist


def test_criterion_6_metric_suite():
    rng = np.random.default_rng(19)
    # p_mpjpe never above mpjpe on random pairs.
    order_ok = True
    for _ in range(1_000):
        pred = rng.normal(size=(17, 3))
        gt = rng.normal(size=(17, 3))
        if p_mpjpe(pred, gt) > mpjpe(pred, gt) + 1e-12:
            order_ok = False
            break
    # Exact similarity transforms align to zero.
    sim_worst = 0.0
    for _ in range(100):
        gt = rng.normal(size=(17, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        scale = rng.uniform(0.5, 2.0)
        translation = rng.uniform(-1.0, 1.0, size=3)
        pred = (gt - translation) / scale @ q
        sim_worst = max(sim_worst, p_mpjpe(pred, gt))
    # Four-joint hand case against the exhaustive rotation grid.
    pred = np.array(
        [[0.2, 0.0, 0.1], [-0.1, 0.3, 0.0], [0.0, -0.2, 0.25], [0.15, 0.1, -0.3]]
    )
    gt = np.array(
        [[0.25, -0.05, 0.12], [-0.12, 0.28, 0.05], [0.02, -0.22, 0.2], [0.1, 0.14, -0.28]]
    )
    grid_ssq, grid_mean = _so3_grid_align(pred, gt)
    aligned, transform = procrustes_align(pred, gt)
    closed_ssq = float(np.sum((aligned - gt) ** 2))
    closed_mean = p_mpjpe(pred, gt)
    p0 = pred - pred.mean(axis=0)
    resolution = 0.05 * transform.scale * float(np.linalg.norm(p0, axis=-1).max())
    grid_ok = closed_ssq <= grid_ssq + 1e-12 and abs(closed_mean - grid_mean) <= resolution
    passed = order_ok and sim_worst < 1e-9 and grid_ok
    _report(
        6,
        "metric suite",
        passed,
        f"ordering holds on 1000 pairs: {order_ok}, similarity residual {sim_worst:.3e}, "
        f"closed-form vs 1-degree grid: {closed_mean:.9f} vs {grid_mean:.9f} "
        f"(ssq {closed_ssq:.12f} <= {grid_ssq:.12f})",
    )
    assert passed


def test_criterion_7_lifting_study():
    start = time.perf_counter()
    config = LiftingStudyConfig()
    report = run_study(config)
    control = run_study(
        dataclasses.replace(config, test_root_region=config.train_root_region)
    )
    elapsed = time.perf_counter() - start
    ratio = report.mpjpe_ratio
    control_ratio = control.mpjpe_ratio
    passed = (
        report.canonical.test_mpjpe_mm < report.conventional.test_mpjpe_mm
        and ratio <= 0.9
        and 0.5 <= control_ratio <= 2.0
        and elapsed < 120.0
    )
    _report(
        7,
        "lifting study",
        passed,
        f"canonical {report.canonical.test_mpjpe_mm:.1f} mm vs conventional "
        f"{report.conventional.test_mpjpe_mm:.1f} mm (ratio {ratio:.4f} <= 0.9), "
        f"control ratio {control_ratio:.4f}, {elapsed:.1f} s",
    )
    assert passed


def test_criterion_8_windowing(h36m17):
    def sequence(n):
        points = generate_pose_array(SynthConfig(seed=SEED + 2, n_poses=n), h36m17)
        frames = tuple(
            FramePair(None, Pose3D(points[t], Frame.CAMERA), t) for t in range(n)
        )
        return PoseSequence("S", "act", "cam", 50.0, frames, h36m17)

    spec = WindowSpec(243, 81)
    exact = window(sequence(243), spec, "drop")
    steps = window(sequence(405), spec, "drop")
    starts = [win.frame_numbers()[0] for win in steps]
    padded = window(sequence(100), spec, "repeat-last")
    pad_ok = (
        len(padded) == 1
        and padded[0].frame_numbers()[:100].tolist() == list(range(100))
        and all(number == 99 for number in padded[0].frame_numbers()[100:])
        and padded[0].n_frames == 243
    )
    non_overlap = window(sequence(405), WindowSpec(243, 243), "drop")
    passed = (
        len(exact) == 1
        and len(steps) == 3
        and starts == [0, 81, 162]
        and all(win.n_frames == 243 for win in steps)
        and window(sequence(100), spec, "drop") == []
        and pad_ok
        and len(non_overlap) == 405 // 243
    )
    _report(
        8,
        "windowing",
        passed,
        f"243@81: N=243 -> {len(exact)}, N=405 -> {len(steps)} at {starts}, "
        f"N=100 repeat-last pads to 243: {pad_ok}",
    )
    assert passed


def test_criterion_9_determinism(tmp_path):
    camera = tmp_path / "camera.json"
    camera.write_text(
        json.dumps(
            {"fx": 1100.0, "fy": 1100.0, "cx": 510.0, "cy": 505.0, "width": 1000.0, "height": 1000.0}
        )
    )
    data = tmp_path / "poses.ndjson"
    assert run(["synth", "--output", str(data), "--count", "200", "--camera", str(camera)]) == 0

    canon_outputs = []
    for name, threads in (("c1.ndjson", "1"), ("c2.ndjson", "1"), ("c4.ndjson", "4")):
        out = tmp_path / name
        rc = run(
            [
                "canonicalize",
                "--input",
                str(data),
                "--camera",
                str(camera),
                "--threads",
                threads,
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        canon_outputs.append(out.read_text())
    canon_ok = canon_outputs[0] == canon_outputs[1] == canon_outputs[2]

    study_config = tmp_path / "study.json"
    study_config.write_text(json.dumps({"n_train": 1000, "n_test": 300}))
    study_outputs = []
    for name, threads in (("s1.json", "1"), ("s2.json", "1"), ("s4.json", "4")):
        out = tmp_path / name
        rc = run(
            ["study", "--config", str(study_config), "--threads", threads, "--output", str(out)]
        )
        assert rc == 0
        study_outputs.append(out.read_text())
    study_ok = study_outputs[0] == study_outputs[1] == study_outputs[2]

    passed = canon_ok and study_ok
    _report(
        9,
        "determinism",
        passed,
        f"canonicalize byte-identical across runs and threads: {canon_ok}, "
        f"study byte-identical across runs and threads: {study_ok}",
    )
    assert passed
