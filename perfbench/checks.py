"""Output checks, one function per command, plus their negative controls.

Each check takes a command's output bytes and returns a list of failure
messages (empty when the output is right). The references are the arrays
the inputs were generated from, pushed through canonpose's batch kernels
or through numpy written out here, never through the code path under test.
"""

from __future__ import annotations

import json
import re

import numpy as np

from canonpose.camera import EPS_ROTATION
from canonpose.canonical import batch_canonicalize_3d

from inputs import INTRINSICS, SKELETON, Inputs

TOL_M = 1e-9
TOL_PX = 1e-9
WINDOW_LENGTH = 243
WINDOW_STRIDE = 81
STUDY_RATIO_BOUND = 0.9
# eval prints millimeters with 6 decimals; allow one unit of the last digit.
EVAL_TOL_MM = 1e-6
CENTER = (INTRINSICS.width / 2.0, INTRINSICS.height / 2.0)


def parse_ndjson(data: bytes) -> dict:
    """Group a pose file's records: keys in order, per-key frame counts,
    and stacked joints and canon blocks (None where a file has none)."""
    keys, counts, j2, j3, rot, depth = [], {}, [], [], [], []
    for line in data.decode("utf-8").splitlines():
        obj = json.loads(line)
        if "meta" in obj:
            continue
        key = (obj["subject"], obj["action"], obj["camera"])
        if key not in counts:
            keys.append(key)
            counts[key] = 0
        counts[key] += 1
        j2.append(obj["joints_2d"])
        j3.append(obj["joints_3d"])
        canon = obj.get("canon")
        rot.append(canon["rotation"] if canon else None)
        depth.append(canon["root_depth"] if canon else None)

    def stack(rows, shape):
        if not rows or any(row is None for row in rows):
            return None
        return np.asarray(rows, dtype=np.float64).reshape((len(rows),) + shape)

    n_joints = SKELETON.n_joints
    return {
        "keys": keys,
        "counts": counts,
        "joints_2d": stack(j2, (n_joints, 2)),
        "joints_3d": stack(j3, (n_joints, 3)),
        "rotations": stack(rot, (3, 3)),
        "depths": stack(depth, ()),
    }


def _rotation_errors(rotations: np.ndarray) -> list[str]:
    gram = np.abs(np.einsum("nji,njk->nik", rotations, rotations) - np.eye(3)).max()
    det = np.abs(np.linalg.det(rotations) - 1.0).max()
    if gram > EPS_ROTATION or det > EPS_ROTATION:
        return [f"stored rotation fails EPS_ROTATION: max |R^T R - I| = {gram:.3e}, max |det - 1| = {det:.3e}"]
    return []


def _layout_errors(parsed: dict, inputs: Inputs, what: str) -> list[str]:
    expected = dict(zip(inputs.keys, inputs.lengths))
    if parsed["counts"] != expected or parsed["keys"] != list(inputs.keys):
        return [f"{what}: sequences or frame counts differ from the input"]
    return []


def _root_2d_errors(pixels: np.ndarray, what: str) -> list[str]:
    root = pixels[:, SKELETON.root_index]
    if not (root[:, 0] == CENTER[0]).all() or not (root[:, 1] == CENTER[1]).all():
        worst = np.abs(root - np.asarray(CENTER)).max()
        return [f"{what}: canonical 2D root is not exactly (W/2, H/2) (off by up to {worst:.3e} px)"]
    return []


def check_canonicalize_3d(data: bytes, inputs: Inputs) -> list[str]:
    parsed = parse_ndjson(data)
    errors = _layout_errors(parsed, inputs, "3D path")
    if errors or parsed["joints_3d"] is None or parsed["rotations"] is None or parsed["depths"] is None:
        return errors or ["3D path: output lacks canonical 3D joints or canon blocks"]
    joints, depths = parsed["joints_3d"], parsed["depths"]
    root = joints[:, SKELETON.root_index]
    if not ((root[:, 0] == 0.0) & (root[:, 1] == 0.0) & (root[:, 2] == depths)).all():
        worst = np.abs(root - np.stack([np.zeros_like(depths), np.zeros_like(depths), depths], -1)).max()
        errors.append(f"3D path: canonical root is not exactly (0, 0, depth) (off by up to {worst:.3e} m)")
    errors += _root_2d_errors(parsed["joints_2d"], "3D path")
    errors += _rotation_errors(parsed["rotations"])
    reference = batch_canonicalize_3d(inputs.camera_points, SKELETON.root_index)[0]
    gap = np.abs(joints - reference).max()
    if gap > TOL_M:
        errors.append(f"3D path: canonical joints differ from batch_canonicalize_3d by {gap:.3e} m > {TOL_M}")
    return errors


def check_canonicalize_2d(data: bytes, inputs: Inputs, reference_3d: bytes) -> list[str]:
    """``reference_3d`` is the same pass's 3D-path output."""
    parsed = parse_ndjson(data)
    errors = _layout_errors(parsed, inputs, "2D path")
    if errors or parsed["joints_2d"] is None or parsed["rotations"] is None:
        return errors or ["2D path: output lacks canonical 2D joints or canon blocks"]
    errors += _root_2d_errors(parsed["joints_2d"], "2D path")
    errors += _rotation_errors(parsed["rotations"])
    pixels_3d = parse_ndjson(reference_3d)["joints_2d"]
    if pixels_3d is None or pixels_3d.shape != parsed["joints_2d"].shape:
        return errors + ["2D path: no 3D-path pixels of the same shape to compare with"]
    gap = np.abs(parsed["joints_2d"] - pixels_3d).max()
    if gap > TOL_PX:
        errors.append(f"2D path: pixels differ from the 3D path by {gap:.3e} px > {TOL_PX}")
    return errors


def expected_windows(n: int, length: int = WINDOW_LENGTH, stride: int = WINDOW_STRIDE) -> int:
    """Window count of one n-frame sequence under --pad repeat-last."""
    full = (n - length) // stride + 1 if n >= length else 0
    covered = (full - 1) * stride + length if full else 0
    return full + (1 if covered < n and full * stride < n else 0)


def check_window(data: bytes, inputs: Inputs) -> list[str]:
    parsed = parse_ndjson(data)
    want = sum(expected_windows(n) for n in inputs.lengths)
    got = len(parsed["keys"])
    errors = []
    if got != want:
        errors.append(f"window: {got} windows, stride arithmetic gives {want}")
    short = [key for key in parsed["keys"] if parsed["counts"][key] != WINDOW_LENGTH]
    if short:
        errors.append(f"window: {len(short)} window(s) without {WINDOW_LENGTH} frames, first {short[0]}")
    return errors


def _stats_count_errors(stats: dict, n_frames: int, what: str) -> list[str]:
    n_joints = SKELETON.n_joints
    want = {
        "pelvis_xy_m": n_frames,
        "pelvis_image_px": n_frames,
        "body_orientation": n_frames,
        "joint_scatter_2d_px": n_frames * n_joints,
        "joint_scatter_3d_root_relative_m": n_frames * n_joints,
    }
    errors = []
    for name, count in want.items():
        got = stats[name]["count"] + stats[name]["degenerate_count"]
        if got != count:
            errors.append(f"{what}: {name} counts {got} samples, expected {count}")
    return errors


def check_stats_raw(data: bytes, inputs: Inputs) -> list[str]:
    return _stats_count_errors(json.loads(data), inputs.n_frames, "stats raw")


def check_stats_canon(data: bytes, inputs: Inputs) -> list[str]:
    stats = json.loads(data)
    errors = _stats_count_errors(stats, inputs.n_frames, "stats canonical")
    bounds = stats["pelvis_image_px"].get("bounds")
    if bounds != [[CENTER[0], CENTER[0]], [CENTER[1], CENTER[1]]]:
        errors.append(f"stats canonical: pelvis image bounds {bounds} do not collapse to the image center")
    return errors


def reference_p_mpjpe(pred: np.ndarray, gt: np.ndarray) -> float:
    """P-MPJPE written out from the Umeyama similarity alignment."""
    root = SKELETON.root_index
    pred = pred - pred[:, root : root + 1]
    gt = gt - gt[:, root : root + 1]
    mu_p, mu_g = pred.mean(axis=1, keepdims=True), gt.mean(axis=1, keepdims=True)
    p0, g0 = pred - mu_p, gt - mu_g
    u, s, vt = np.linalg.svd(np.swapaxes(g0, 1, 2) @ p0)
    d = np.ones_like(s)
    d[:, 2] = np.sign(np.linalg.det(u @ vt))
    rot = u @ (d[:, :, None] * vt)
    scale = (s * d).sum(axis=1) / (p0 ** 2).sum(axis=(1, 2))
    aligned = scale[:, None, None] * p0 @ np.swapaxes(rot, 1, 2) + mu_g
    return float(np.linalg.norm(aligned - gt, axis=-1).mean())


def check_eval(data: bytes, inputs: Inputs) -> list[str]:
    match = re.fullmatch(rb"pmpjpe (\S+) mm\n", data)
    if not match:
        return [f"eval: unexpected output {data[:80]!r}"]
    printed = float(match.group(1))
    want = reference_p_mpjpe(inputs.pred_points, inputs.camera_points) * 1000.0
    if abs(printed - want) > EVAL_TOL_MM:
        return [f"eval: printed {printed:.6f} mm, numpy reference gives {want:.6f} mm"]
    return []


def check_study(data: bytes) -> list[str]:
    ratio = json.loads(data)["mpjpe_ratio_canonical_over_conventional"]
    if not ratio <= STUDY_RATIO_BOUND:
        return [f"study: MPJPE ratio {ratio} > {STUDY_RATIO_BOUND}"]
    return []


# ---------------------------------------------------------------------------
# Negative controls: each corrupts one output the way a real defect would
# and must be flagged by the check that guards against it.
# ---------------------------------------------------------------------------


def perturb_root(data: bytes, offset: float = 1e-6) -> bytes:
    """Move the root x of the last record by ``offset`` meters."""
    lines = data.decode("utf-8").split("\n")
    last = max(i for i, line in enumerate(lines) if line and '"meta"' not in line)
    obj = json.loads(lines[last])
    obj["joints_3d"][SKELETON.root_index][0] += offset
    lines[last] = json.dumps(obj)
    return "\n".join(lines).encode("utf-8")


def truncate(data: bytes) -> bytes:
    """Drop the last record, as a writer cut short would."""
    lines = data.rstrip(b"\n").split(b"\n")
    return b"\n".join(lines[:-1]) + b"\n"


def wrong_camera(camera_path: str, out_path: str, shift_px: float = 5.0) -> None:
    """Write a copy of the camera file whose principal point is off by
    ``shift_px``; the 2D path run with it must disagree with the 3D path."""
    with open(camera_path, encoding="utf-8") as fh:
        camera = json.load(fh)
    camera["cx"] += shift_px
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(camera, fh)


def shift_eval(data: bytes, delta_mm: float = 1e-5) -> bytes:
    value = float(data.split()[1])
    return f"pmpjpe {value + delta_mm:.6f} mm\n".encode()


def drop_stats_sample(data: bytes) -> bytes:
    stats = json.loads(data)
    stats["body_orientation"]["count"] -= 1
    return json.dumps(stats).encode()


def raise_study_ratio(data: bytes, ratio: float = 0.91) -> bytes:
    report = json.loads(data)
    report["mpjpe_ratio_canonical_over_conventional"] = ratio
    return json.dumps(report).encode()
