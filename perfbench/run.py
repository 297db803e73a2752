"""canonpose benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload {prepare,analyze,study} --seed N \
        --seconds S --trace {0,1}

The benchmark builds a ``canonpose`` launcher from ``src/`` (the file the
``canonpose = canonpose.cli:main`` entry point would install), generates the
inputs for ``--seed`` through canonpose's public API, and drives the
executable as child processes in a closed loop: one client runs one command
at a time, each starting after the last one exits. A pass is one run of the
workload's commands; passes repeat until ``--seconds`` have gone by.

Right before each command the benchmark runs ``probe.py``, a fixed job of
the same kind with no canonpose code, and a pass's wall time is scaled by
how long its probes took (see ``normalized``).

``--trace 0`` reports the end-to-end metrics, each the median over the run.
It sets the inputs up three times, once before each third of the timed
passes, and ``setup_s`` is the median of the three. ``--trace 1`` reports
the per-layer split:
per-command wall times of child-process passes, the start-up cost of the
executable, and spans recorded around calls into each module while
``canonpose.cli.run`` runs in this process (see ``spans.py``), plus the
tracing overhead against untraced in-process passes.

Every output is checked (``checks.py``) and must be byte-identical across
the passes of a run; the negative controls must each be flagged. A table of
every metric with its unit and sample count goes to stdout, and the last
line is one JSON object: ``correct``, ``attempted``, ``failed`` (commands
that exited nonzero or failed a check) and ``metrics``.

Work files live in ``.bench_build/`` under the repository root and are
removed when the run ends. See ``COVERAGE.md`` for what each metric should
move and what the checks leave out.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

WORKLOADS = ("prepare", "analyze", "study")
SETUP_REPEATS = 3
STARTUP_PROBES = 5
TRACE_MIN_PASSES = 2
# About probe.py's wall time on a quiet 2-core VM. It only sets the unit of
# the normalized metrics: a pass that took n probes' time reads n * PROBE_S
# seconds.
PROBE_S = 0.25


@dataclass
class Command:
    name: str
    argv: list[str]
    output: str | None  # None: the command writes its result to stdout
    check: object  # (data, inputs, outputs of this pass so far) -> list[str]


@dataclass
class PassResult:
    wall: float
    probe: float = 0.0  # wall time of the probes run right before the commands
    times: dict[str, float] = field(default_factory=dict)
    rss_kb: int = 0
    exit_codes: dict[str, int] = field(default_factory=dict)
    outputs: dict[str, bytes] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


def build() -> Path:
    """Byte-compile the package and write the ``canonpose`` launcher."""
    compileall.compile_dir(str(SRC), quiet=1)
    launcher = BUILD / "bin" / "canonpose"
    launcher.parent.mkdir(parents=True, exist_ok=True)
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from canonpose.cli import main\n"
        "main()\n"
    )
    launcher.chmod(0o755)
    return launcher


def commands(workload: str, inputs, seed: int, out: Path, threads: int) -> list[Command]:
    import checks

    o = {name: str(out / name) for name in (
        "canon3d.ndjson", "canon2d.ndjson", "windows.ndjson", "stats_raw.json", "stats_canon.json", "study.json")}
    threads = str(threads)
    if workload == "prepare":
        return [
            Command("canonicalize_3d", ["canonicalize", "--input", inputs.world, "--camera", inputs.camera,
                                        "--mode", "3d", "--threads", threads, "--output", o["canon3d.ndjson"]],
                    o["canon3d.ndjson"], lambda data, inp, done: checks.check_canonicalize_3d(data, inp)),
            Command("canonicalize_2d", ["canonicalize", "--input", inputs.detections, "--camera", inputs.camera,
                                        "--mode", "2d", "--threads", threads, "--output", o["canon2d.ndjson"]],
                    o["canon2d.ndjson"],
                    lambda data, inp, done: checks.check_canonicalize_2d(data, inp, done["canonicalize_3d"])),
            Command("window", ["window", "--input", o["canon3d.ndjson"], "--window-length", str(checks.WINDOW_LENGTH),
                               "--window-stride", str(checks.WINDOW_STRIDE), "--pad", "repeat-last",
                               "--output", o["windows.ndjson"]],
                    o["windows.ndjson"], lambda data, inp, done: checks.check_window(data, inp)),
        ]
    if workload == "analyze":
        return [
            Command("stats_raw", ["stats", "--input", inputs.raw, "--output", o["stats_raw.json"]],
                    o["stats_raw.json"], lambda data, inp, done: checks.check_stats_raw(data, inp)),
            Command("stats_canon", ["stats", "--input", inputs.canon, "--output", o["stats_canon.json"]],
                    o["stats_canon.json"], lambda data, inp, done: checks.check_stats_canon(data, inp)),
            Command("eval", ["eval", "--pred", inputs.pred, "--gt", inputs.raw, "--metric", "pmpjpe"],
                    None, lambda data, inp, done: checks.check_eval(data, inp)),
        ]
    return [
        Command("study", ["study", "--seed", str(seed), "--output", o["study.json"]],
                o["study.json"], lambda data, inp, done: checks.check_study(data)),
    ]


def frames_in(workload: str, inputs) -> int:
    """Input frames one pass reads; for study, the poses it generates."""
    if workload == "prepare":
        return 3 * inputs.n_frames
    if workload == "analyze":
        return 4 * inputs.n_frames
    from canonpose.lift import LiftingStudyConfig

    config = LiftingStudyConfig()
    return config.n_train + config.n_test


class Canonpose:
    """The built ``canonpose`` executable. Each child is started by
    ``spawner.py``, a small process started before this one grows, so that
    children inherit a small address space (see that file)."""

    def __init__(self, launcher: Path):
        self._launcher = launcher
        self._spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stdout_path: Path, stderr_path: Path) -> dict:
        """Run ``canonpose argv``; its seconds, exit_code and maxrss_kb."""
        return self._spawn([str(self._launcher), *argv], stdout_path, stderr_path)

    def probe(self, stdout_path: Path, stderr_path: Path) -> float:
        """Run ``probe.py``; its wall time as this process sees it."""
        start = time.perf_counter()
        child = self._spawn([str(Path(__file__).with_name("probe.py"))], stdout_path, stderr_path)
        if child["exit_code"] != 0:
            raise RuntimeError(f"probe.py exited {child['exit_code']}")
        return time.perf_counter() - start

    def _spawn(self, argv: list[str], stdout_path: Path, stderr_path: Path) -> dict:
        request = {"argv": [sys.executable, *argv],
                   "stdout": str(stdout_path), "stderr": str(stderr_path), "cwd": str(ROOT)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended early")
        return json.loads(reply)

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()


def read_output(cmd: Command, stdout_path: Path) -> bytes:
    path = cmd.output if cmd.output is not None else stdout_path
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return b""


def remove_outputs(cmds: list[Command]) -> None:
    """Delete the last pass's outputs, so a command that writes nothing
    cannot pass on a stale file."""
    for cmd in cmds:
        if cmd.output is not None:
            Path(cmd.output).unlink(missing_ok=True)


def child_pass(cmds: list[Command], exe: Canonpose, work: Path, keep: bool) -> PassResult:
    result = PassResult(wall=0.0)
    logs = {}
    remove_outputs(cmds)
    for cmd in cmds:
        result.probe += exe.probe(work / "probe.stdout", work / "probe.stderr")
        logs[cmd.name] = (work / f"{cmd.name}.stdout", work / f"{cmd.name}.stderr")
        start = time.perf_counter()
        child = exe.run(cmd.argv, *logs[cmd.name])
        result.wall += time.perf_counter() - start
        result.times[cmd.name] = child["seconds"]
        result.exit_codes[cmd.name] = child["exit_code"]
        result.rss_kb = max(result.rss_kb, child["maxrss_kb"])
    for cmd in cmds:
        data = read_output(cmd, logs[cmd.name][0])
        result.digests[cmd.name] = hashlib.sha256(data).hexdigest()
        if keep:
            result.outputs[cmd.name] = data
        if result.exit_codes[cmd.name] != 0:
            tail = logs[cmd.name][1].read_bytes()[-2000:].decode("utf-8", "replace")
            print(f"command {cmd.name} exited {result.exit_codes[cmd.name]}: {tail}", file=sys.stderr)
    return result


def normalized(result: PassResult) -> float:
    """The pass's wall time at the probes' usual speed, in seconds.

    On a shared machine the wall time of the same pass moves by 20-30%
    between runs a few minutes apart, while its ratio to the wall time of
    the probes run beside it moves by well under 10%.
    """
    return result.wall / (result.probe / len(result.times)) * PROBE_S


def in_process_pass(cmds: list[Command], tracer=None) -> PassResult:
    """Run the commands through ``canonpose.cli.run`` in this process."""
    from canonpose import cli

    result = PassResult(wall=0.0)
    remove_outputs(cmds)
    start = time.perf_counter()
    for cmd in cmds:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            t0 = time.perf_counter()
            code = tracer.call("cli.run", cli.run, cmd.argv) if tracer else cli.run(cmd.argv)
            result.times[cmd.name] = time.perf_counter() - t0
        result.exit_codes[cmd.name] = code
        data = read_output(cmd, None) if cmd.output is not None else buffer.getvalue().encode("utf-8")
        result.digests[cmd.name] = hashlib.sha256(data).hexdigest()
    result.wall = time.perf_counter() - start
    return result


def check_outputs(cmds: list[Command], first: PassResult, inputs) -> dict[str, list[str]]:
    errors = {}
    for cmd in cmds:
        try:
            errors[cmd.name] = cmd.check(first.outputs[cmd.name], inputs, first.outputs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors[cmd.name] = [f"{cmd.name}: output could not be read: {exc!r}"]
    return errors


def count_failures(cmds, passes: list[PassResult], reference: PassResult, errors) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages). A command fails when it exits nonzero,
    fails its check, or writes other bytes than the first pass did."""
    attempted = failed = 0
    messages = []
    for index, result in enumerate(passes):
        for cmd in cmds:
            attempted += 1
            bad = []
            if result.exit_codes[cmd.name] != 0:
                bad.append(f"exit code {result.exit_codes[cmd.name]}")
            if result.digests[cmd.name] != reference.digests[cmd.name]:
                bad.append("output bytes differ from the first pass")
            elif errors[cmd.name]:
                bad.append("output check failed")
            if bad:
                failed += 1
                messages.append(f"pass {index} {cmd.name}: {', '.join(bad)}")
    return attempted, failed, messages


def run_controls(workload: str, first: PassResult, inputs, exe: Canonpose, work: Path) -> dict[str, bool]:
    """Corrupt outputs the way real defects would; True means flagged."""
    import checks

    out = first.outputs
    if workload == "prepare":
        camera = work / "wrong_camera.json"
        checks.wrong_camera(inputs.camera, str(camera))
        wrong = work / "wrong_camera_2d.ndjson"
        argv = ["canonicalize", "--input", inputs.detections, "--camera", str(camera), "--mode", "2d",
                "--threads", "1", "--output", str(wrong)]
        code = exe.run(argv, work / "control.stdout", work / "control.stderr")["exit_code"]
        wrong_flagged = code != 0 or bool(checks.check_canonicalize_2d(wrong.read_bytes(), inputs, out["canonicalize_3d"]))
        return {
            "root_off_by_1e-6": bool(checks.check_canonicalize_3d(checks.perturb_root(out["canonicalize_3d"]), inputs)),
            "wrong_camera_2d_path": wrong_flagged,
            "truncated_window_file": bool(checks.check_window(checks.truncate(out["window"]), inputs)),
        }
    if workload == "analyze":
        return {
            "stats_sample_missing": bool(checks.check_stats_raw(checks.drop_stats_sample(out["stats_raw"]), inputs)),
            "eval_off_by_1e-5_mm": bool(checks.check_eval(checks.shift_eval(out["eval"]), inputs)),
        }
    return {"study_ratio_0.91": bool(checks.check_study(checks.raise_study_ratio(out["study"])))}


def print_table(rows: list[tuple[str, list[float], str]]) -> None:
    print(f"{'metric':44s} {'median':>14s} {'min':>14s} {'max':>14s} {'n':>4s}  unit")
    for name, values, unit in rows:
        print(f"{name:44s} {statistics.median(values):14.6g} {min(values):14.6g} {max(values):14.6g} "
              f"{len(values):4d}  {unit}")


def timed_passes(passes: list[PassResult], cmds, exe: Canonpose, work, until: float, min_new: int) -> None:
    """Append at least ``min_new`` passes, and more until the passes,
    probes included, add up to ``until`` seconds."""
    for _ in range(min_new):
        passes.append(child_pass(cmds, exe, work, keep=not passes))
    while sum(p.wall + p.probe for p in passes) < until:
        passes.append(child_pass(cmds, exe, work, keep=False))


def end_to_end(args, cmds, inputs, set_up, setup_times, exe, work):
    passes = []
    for phase in range(SETUP_REPEATS):
        if phase:
            # Set-ups between the timed phases spread the passes over the
            # whole run, so one slow spell of a shared machine weighs less.
            set_up()
        timed_passes(passes, cmds, exe, work, args.seconds * (phase + 1) / SETUP_REPEATS, 1)
    n_frames = frames_in(args.workload, inputs)
    rows = [
        ("setup_s", setup_times, "s"),
        ("wall_norm_s", [normalized(p) for p in passes], "s"),
        ("frames_per_norm_s", [n_frames / normalized(p) for p in passes], "1/s"),
        ("peak_rss_mb", [p.rss_kb * 1024 / 1e6 for p in passes], "MB"),
        ("wall_s", [p.wall for p in passes], "s"),
        ("frames_per_s", [n_frames / p.wall for p in passes], "1/s"),
        ("probe_s", [p.probe / len(cmds) for p in passes], "s"),
    ]
    rows += [(f"cmd.{cmd.name}_s", [p.times[cmd.name] for p in passes], "s") for cmd in cmds]
    metrics = {name: {"value": statistics.median(values), "unit": unit} for name, values, unit in rows[:4]}
    return passes, rows, metrics


def per_layer(args, cmds, single_threaded, exe, work):
    """``single_threaded`` are ``cmds`` with ``canonicalize --threads 1``:
    on pool threads a span's wall time would include waiting for the
    interpreter lock while the other worker builds per-frame objects, so
    the kernels would be charged for work they do not do."""
    import spans

    startup = []
    for _ in range(STARTUP_PROBES):
        child = exe.run(["--help"], work / "help.stdout", work / "help.stderr")
        if child["exit_code"] != 0:
            raise RuntimeError(f"canonpose --help exited {child['exit_code']}")
        startup.append(child["seconds"])

    child = []
    timed_passes(child, cmds, exe, work, args.seconds / 2, TRACE_MIN_PASSES)
    plain, traced, summaries, gaps = [], [], [], []
    start = time.perf_counter()
    while len(traced) < TRACE_MIN_PASSES or time.perf_counter() - start < args.seconds / 2:
        plain.append(in_process_pass(single_threaded))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(in_process_pass(single_threaded, tracer))
        finally:
            tracer.uninstall()
        summaries.append(spans.summarize(tracer.spans))
        gaps.append(spans.unaccounted(tracer.spans))

    def layer(name, key):
        return [s[name][key] for s in summaries]

    def rate(name, key, scale=1.0):
        return [s[name].get(key, 0) / scale / s[name]["s"] if s[name]["s"] > 0 else 0.0 for s in summaries]

    rows = [("cli.startup_s", startup, "s")]
    known = {cmd.name for cmd in cmds}
    for name in ("canonicalize_3d", "canonicalize_2d", "window", "stats_raw", "stats_canon", "eval", "study"):
        rows.append((f"cmd.{name}_s", [p.times[name] for p in child] if name in known else [0.0], "s"))
    for name in spans.SPAN_NAMES:
        rows.append((f"{name}.s", layer(name, "s"), "s"))
        rows.append((f"{name}.calls", layer(name, "calls"), "count"))
    for name in ("cli.run", "dataset.canonicalize_dataset", "lift.run_study"):
        rows.append((f"{name}.self_s", layer(name, "self_s"), "s"))
    rows += [
        ("dataset.canonicalize_dataset.kernel_share",
         [1.0 - s["self_s"] / s["s"] if s["s"] > 0 else 0.0
          for s in (x["dataset.canonicalize_dataset"] for x in summaries)], "ratio"),
        ("dataset.serialize_sequences.mb_per_s", rate("dataset.serialize_sequences", "bytes", 1e6), "MB/s"),
        ("dataset.load_sequences.frames_per_s", rate("dataset.load_sequences", "frames"), "1/s"),
        ("dataset.load_sequences.mb_per_s", rate("dataset.load_sequences", "bytes", 1e6), "MB/s"),
        ("synth.generate_pose_array.poses_per_s", rate("synth.generate_pose_array", "poses"), "1/s"),
        ("trace.overhead_s", [statistics.median([p.wall for p in traced]) - statistics.median([p.wall for p in plain])], "s"),
    ]
    print(f"trace: {len(traced)} traced and {len(plain)} untraced in-process passes; "
          f"largest |cli.run - (self + children)| = {max(gaps):.3e} s")
    for cmd in cmds:
        print(f"  in-process cli.run {cmd.name}: traced {statistics.median(p.times[cmd.name] for p in traced):.4f} s, "
              f"untraced {statistics.median(p.times[cmd.name] for p in plain):.4f} s")
    metrics = {name: {"value": statistics.median(values), "unit": unit} for name, values, unit in rows}
    in_process = plain + traced
    return child, in_process, rows, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "canonpose" / "cli.py").is_file():
        print(f"error: no canonpose sources under {SRC}", file=sys.stderr)
        return 2
    exe = Canonpose(build())
    sys.path.insert(0, str(SRC))
    import inputs as inputs_mod

    work = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []

        def set_up():
            start = time.perf_counter()
            built = inputs_mod.build_inputs(args.seed, str(work / "inputs"))
            setup_times.append(time.perf_counter() - start)
            return built

        inputs = set_up()
        # The default pool size on a 2-core machine, and never above the cores.
        cmds = commands(args.workload, inputs, args.seed, work / "outputs", min(2, os.cpu_count() or 1))
        (work / "outputs").mkdir()
        # Warm the page cache for the interpreter and numpy before timing.
        exe.run(["--help"], work / "help.stdout", work / "help.stderr")

        if args.trace == 0:
            passes, rows, metrics = end_to_end(args, cmds, inputs, set_up, setup_times, exe, work)
            extra = []
        else:
            single = commands(args.workload, inputs, args.seed, work / "outputs", 1)
            passes, extra, rows, metrics = per_layer(args, cmds, single, exe, work)
        first = passes[0]
        errors = check_outputs(cmds, first, inputs)
        attempted, failed, messages = count_failures(cmds, passes + extra, first, errors)
        controls = run_controls(args.workload, first, inputs, exe, work)
    finally:
        exe.close()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {inputs.n_frames} frames in "
          f"{len(inputs.lengths)} sequences, {len(passes)} child-process passes")
    print_table(rows)
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} commands)")
    for cmd in cmds:
        print(f"output {cmd.name}: sha256 {first.digests[cmd.name]}, {len(first.outputs[cmd.name])} bytes")
    for message in [m for errs in errors.values() for m in errs] + messages:
        print(f"FAIL {message}")
    for name, flagged in controls.items():
        print(f"control {name}: {'flagged' if flagged else 'NOT FLAGGED'}")
    correct = failed == 0 and all(controls.values()) and not any(errors.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
