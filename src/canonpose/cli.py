"""Batch command line front end.

One executable, six subcommands: canonicalize, stats, eval, synth, study,
window. All dataset I/O is NDJSON (one record per frame); reports are JSON.
Units at this boundary are millimeters for metrics and pixels for 2D; all
internal math runs in meters.

Exit codes: 0 success, 1 validation error (bad flags or configuration, or
a count too large to allocate), 2 data error (unreadable or inconsistent
input files, geometry failures).
Errors go to stderr; data goes to --output or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import signal
import sys

import numpy as np

from .camera import Frame, batch_project, load_camera_json
from .dataset import (
    DEFAULT_FPS,
    PAD_POLICIES,
    PoseSequence,
    _Columns,
    WindowSpec,
    apply_extrinsics,
    canonicalize_dataset,
    load_sequences,
    serialize_sequences,  # noqa: F401 -- perfbench/spans.py wraps this name
    window,
    write_sequences,
)
from .errors import DataError, _with_indices
from .jsonfmt import dumps
from .lift import LiftingStudyConfig, run_study
from .metrics import mpjpe, p_mpjpe
from .skeleton import available_skeletons, get_skeleton
from .stats import (
    body_orientation_distribution,
    joint_scatter_extent,
    pelvis_position_distribution,
    write_samples_csv,
)
from .synth import SynthConfig, generate_pose_array


class _UsageError(Exception):
    """Flag/configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them to our own
    # validation exit code instead.
    def error(self, message):
        raise _UsageError(message)


def _add_io(parser: argparse.ArgumentParser, input_help: str) -> None:
    parser.add_argument("--input", required=True, help=input_help)
    parser.add_argument("--output", help="output path (default: stdout)")


def _add_skeleton(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--skeleton",
        default="h36m17",
        help=f"skeleton name, one of {', '.join(available_skeletons())} (default: h36m17)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="canonpose", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser(
        "canonicalize",
        help="rewrite a dataset into the canonical camera frame",
        description="Rewrite an NDJSON dataset into the canonical camera frame. The 3d mode "
        "canonicalizes 3D joints and projects canonical 2D from them; the 2d mode maps the "
        "2D joints alone through the plane-induced rotation and leaves any 3D untouched. "
        "When the camera file carries extrinsics (R, t), 3D input is taken as world-frame "
        "and moved into the camera frame first.",
    )
    _add_io(p, "input NDJSON dataset")
    p.add_argument("--camera", required=True, help="camera JSON with fx, fy, cx, cy, width, height (optional R, t)")
    p.add_argument("--mode", choices=("2d", "3d"), default="3d", help="which canonicalization path to run (default: 3d)")
    _add_skeleton(p)
    p.add_argument("--threads", type=int, default=None, help="accepted but ignored: sequences are canonicalized serially")
    p.set_defaults(handler=_cmd_canonicalize)

    p = sub.add_parser(
        "stats",
        help="summarize pelvis position, body orientation, and joint scatter",
        description="Summarize input distributions: pelvis position (camera-space x-y and "
        "image space), body orientation (unit normals from hips and torso), and pooled "
        "joint scatter. Writes one JSON document; --csv additionally dumps raw samples.",
    )
    _add_io(p, "input NDJSON dataset")
    p.add_argument("--camera", help="camera JSON; used to project pelvis image positions when 2D joints are absent")
    _add_skeleton(p)
    p.add_argument("--csv", metavar="DIR", help="also write raw sample CSVs into this directory")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser(
        "eval",
        help="score predictions against ground truth (millimeters)",
        description="Score predicted 3D joints against ground truth, matched by "
        "(subject, action, camera) and frame number. Both sides are root-centered before "
        "scoring; the result is printed in millimeters (internal math is in meters). A "
        "sequence is refused, not scored, when its frame numbers differ between the sides "
        "(same numbers, same order) or when its 3D is in the camera frame on one side and "
        "the canonical frame on the other.",
    )
    p.add_argument("--pred", required=True, help="predictions, NDJSON with joints_3d")
    p.add_argument("--gt", required=True, help="ground truth, NDJSON with joints_3d")
    p.add_argument("--metric", choices=("mpjpe", "pmpjpe"), default="mpjpe", help="error metric (default: mpjpe)")
    _add_skeleton(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser(
        "synth",
        help="generate a synthetic NDJSON dataset",
        description="Generate random camera-space poses as one NDJSON sequence. With "
        "--camera, projected 2D joints are included. Identical seeds and configs give "
        "byte-identical output.",
    )
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--seed", type=int, default=None, help="generator seed, overrides the config seed (default: 0)")
    p.add_argument("--count", type=int, default=100, help="number of poses; a config n_poses wins (default: 100)")
    p.add_argument("--camera", help="camera JSON; adds projected joints_2d to each frame")
    _add_skeleton(p)
    p.add_argument(
        "--config",
        help="JSON file overriding generator fields: seed, n_poses, limb_scale, root_region {low, high}",
    )
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser(
        "study",
        help="run the canonical-vs-conventional lifting comparison",
        description="Train identical linear lifters on conventional and canonical inputs "
        "over synthetic poses, evaluate on out-of-region roots, and report per-arm metrics "
        "(millimeters) plus their MPJPE ratio as JSON. Deterministic for a fixed config.",
    )
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed (default: config value)")
    p.add_argument(
        "--config",
        help="JSON file overriding study fields: train_root_region, test_root_region, "
        "noise_sigma, n_train, n_test, seed, ridge_lambda, camera, limb_scale, skeleton",
    )
    p.add_argument("--threads", type=int, default=None, help="accepted but ignored: the study has no worker pool")
    p.set_defaults(handler=_cmd_study)

    p = sub.add_parser(
        "window",
        help="slice sequences into fixed-length windows",
        description="Slice each sequence into windows of --window-length every "
        "--window-stride frames. Windows become separate sequences whose action names "
        "gain a #w<k> suffix so they stay distinct on reload. The repeat-last policy "
        "pads one final window with copies of the last frame when a tail would "
        "otherwise be dropped.",
    )
    _add_io(p, "input NDJSON dataset")
    p.add_argument("--window-length", type=int, required=True, help="frames per window")
    p.add_argument("--window-stride", type=int, required=True, help="frames between window starts")
    p.add_argument("--pad", choices=PAD_POLICIES, default="drop", help="tail policy (default: drop)")
    _add_skeleton(p)
    p.set_defaults(handler=_cmd_window)

    return parser


def _get_skeleton(name: str):
    return _build(get_skeleton, {"name": name})


def _read_config_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise _UsageError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise _UsageError(f"{path}: cannot read config: {exc.strerror}") from exc
    if not isinstance(config, dict):
        raise _UsageError(f"{path}: config must be a JSON object")
    return config


def _output(path: str | None):
    """The text handle data goes to: ``path`` opened for writing, or stdout.
    Commands open it only after every check on their data has passed."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(text: str, path: str | None) -> None:
    with _output(path) as handle:
        handle.write(text)


def _write_sequences(sequences, path: str | None) -> None:
    with _output(path) as handle:
        write_sequences(sequences, handle)


def _cmd_canonicalize(args) -> int:
    skeleton = _get_skeleton(args.skeleton)
    intrinsics, extrinsics = load_camera_json(args.camera)
    sequences = load_sequences(args.input, skeleton)
    if extrinsics is not None:
        sequences = apply_extrinsics(sequences, extrinsics)
    mode = "3d-path" if args.mode == "3d" else "2d-path"
    result = canonicalize_dataset(sequences, intrinsics, mode)
    _write_sequences(result, args.output)
    return 0


def _cmd_stats(args) -> int:
    skeleton = _get_skeleton(args.skeleton)
    intrinsics = load_camera_json(args.camera)[0] if args.camera else None
    sequences = load_sequences(args.input, skeleton)
    xy, image = pelvis_position_distribution(sequences, intrinsics)
    orientation = body_orientation_distribution(sequences)
    summaries = {
        "pelvis_xy_m": xy,
        "pelvis_image_px": image,
        "body_orientation": orientation,
        "joint_scatter_2d_px": joint_scatter_extent(sequences, "2d"),
        "joint_scatter_3d_root_relative_m": joint_scatter_extent(sequences, "3d-root-relative"),
    }
    # The CSVs are written first, so a run refused for one leaves the report as it was.
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
        for name, summary in summaries.items():
            write_samples_csv(summary, os.path.join(args.csv, f"{name}.csv"))
    _write_text(dumps({k: v.to_dict() for k, v in summaries.items()}) + "\n", args.output)
    return 0


def _stacked_3d(sequences, label: str) -> dict[tuple, tuple[np.ndarray, Frame, list[int]]]:
    """{key: ((T, J, 3) joints, frame tag, frame numbers)} of every sequence
    of a loaded file."""
    stacks = {}
    for seq in sequences:
        joints, present, frame = seq._channel(3)
        if not present.all():
            raise DataError(f"{label}: sequence {seq.key} has frames without 3D joints")
        stacks[seq.key] = joints, frame, seq._take(seq._columns.index).tolist()
    return stacks


def _cmd_eval(args) -> int:
    skeleton = _get_skeleton(args.skeleton)
    pred = _stacked_3d(load_sequences(args.pred, skeleton), "--pred")
    gt = _stacked_3d(load_sequences(args.gt, skeleton), "--gt")
    if not pred:
        raise DataError("--pred holds no sequences")
    missing = [key for key in pred if key not in gt]
    if missing:
        raise DataError(f"prediction sequences missing from ground truth: {sorted(missing)}")
    preds, gts = [], []
    for key, (pred_joints, pred_frame, pred_index) in pred.items():
        gt_joints, gt_frame, gt_index = gt[key]
        if pred_frame is not gt_frame:
            raise DataError(
                f"sequence {key}: --pred 3D is in the '{pred_frame.value}' frame, --gt 3D in the "
                f"'{gt_frame.value}' frame; poses in different frames cannot be scored"
            )
        if pred_joints.shape != gt_joints.shape:
            raise DataError(f"sequence {key}: prediction shape {pred_joints.shape} != ground truth {gt_joints.shape}")
        if pred_index != gt_index:
            at = next(i for i, (p, g) in enumerate(zip(pred_index, gt_index)) if p != g)
            raise DataError(
                f"sequence {key}: at position {at} --pred has frame {pred_index[at]}, --gt frame "
                f"{gt_index[at]}; frames are matched by number"
            )
        preds.append(pred_joints)
        gts.append(gt_joints)
    # Scores are over root-relative poses; absolute placement is not the
    # lifter's job and is removed from both sides identically.
    root = skeleton.root_index
    centered = []
    for label, stacks in (("--pred", preds), ("--gt", gts)):
        joints = np.concatenate(stacks)
        with np.errstate(over="ignore"):
            joints -= joints[:, root : root + 1].copy()
        bad = np.nonzero(~np.isfinite(joints).all(axis=(1, 2)))[0].tolist()
        if bad:
            raise DataError(_with_indices(f"{label}: root-centered joints are not finite in {len(bad)} frame(s)", bad))
        centered.append(joints)
    pred_arr, gt_arr = centered
    metric = mpjpe if args.metric == "mpjpe" else p_mpjpe
    print(f"{args.metric} {metric(pred_arr, gt_arr) * 1000.0:.6f} mm")
    return 0


def _config(cls, args, **under):
    """A ``cls`` from ``under``, then the ``--config`` object, then ``--seed``,
    each overriding the one before. The file's keys are the class's fields;
    a field whose default is a box or a camera is read from an object with
    exactly that class's fields."""
    keys = {field.name: field for field in dataclasses.fields(cls)}
    config = _read_config_json(args.config) if args.config else {}
    unknown = set(config) - set(keys)
    if unknown:
        raise _UsageError(f"{args.config}: unknown {args.subcommand} fields {sorted(unknown)}")
    values = dict(under)
    for key, value in config.items():
        field = keys[key]
        if dataclasses.is_dataclass(field.default):
            names = [inner.name for inner in dataclasses.fields(field.default)]
            if not isinstance(value, dict) or set(value) != set(names):
                raise _UsageError(f"{key} must be an object with keys {', '.join(names)}")
            value = _build(type(field.default), value, f"{key}: ")
        values[key] = value
    if args.seed is not None:
        values["seed"] = args.seed
    return _build(cls, values)


def _build(make, values: dict, where: str = ""):
    """``make(**values)``; a bad value is a usage error, prefixed by ``where``."""
    try:
        return make(**values)
    except (ValueError, TypeError, OverflowError) as exc:
        raise _UsageError(f"{where}{exc}") from exc


def _cmd_synth(args) -> int:
    skeleton = _get_skeleton(args.skeleton)
    synth_config = _config(SynthConfig, args, seed=0, n_poses=args.count)
    points = generate_pose_array(synth_config, skeleton)

    intrinsics = load_camera_json(args.camera)[0] if args.camera else None
    n = len(points)
    present = np.ones(n, dtype=bool)
    pixels, has_2d = (batch_project(points, intrinsics), present) if intrinsics is not None else (None, ~present)
    columns = _Columns(np.arange(n).astype(object), pixels, has_2d, points, present)
    sequence = PoseSequence._of("synth", f"seed{synth_config.seed}", "cam0", DEFAULT_FPS, skeleton, columns)
    _write_sequences([sequence], args.output)
    return 0


def _cmd_study(args) -> int:
    report = run_study(_config(LiftingStudyConfig, args))
    _write_text(report.to_json(), args.output)
    return 0


def _cmd_window(args) -> int:
    skeleton = _get_skeleton(args.skeleton)
    spec = _build(WindowSpec, {"length": args.window_length, "stride": args.window_stride})
    sequences = load_sequences(args.input, skeleton)
    out = []
    for seq in sequences:
        for k, win in enumerate(window(seq, spec, args.pad)):
            name = (win.subject, f"{win.action}#w{k:04d}", win.camera_id)
            out.append(PoseSequence._of(*name, win.fps, win.skeleton, win._columns, win._rows))
    _write_sequences(out, args.output)
    return 0


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, MemoryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ValueError, OSError)) else 1


def main() -> None:
    # A closed pipe downstream ends the process quietly, as it does ``cat``,
    # instead of surfacing as an OSError; run() itself leaves signals alone.
    if hasattr(signal, "SIGPIPE"):  # POSIX only
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # Every object alive here, numpy's and canonpose's import-time objects
    # included, lives until exit; frozen, it is skipped by shutdown's collections.
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
