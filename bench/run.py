"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload rescore --seed 1 --seconds 50 --trace 0

Run from the root of a crossview checkout: the benchmark imports the
package from ``src/`` and writes its scratch files under ``.bench_runs/``,
which it removes again.  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, and the result carries the per-layer metrics of the traced
rounds.  The line before the result describes the run (rounds, thread
pinning, load average, versions, any problems found).

Times are best-of-N: every command line of a round is timed on its own,
and a round's time is the sum of each command's fastest run.  Other
tenants of a shared host only ever slow a command down, and short
commands repeated through the run catch the host's quiet moments.  Each
operation runs pinned to one of the CPUs the process may use, taking
them in turn from round to round, because a shared host slows one CPU
while it leaves the other alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per numeric library; nproc is small and the benchmark
# measures one process doing one thing at a time.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_PROBES = 9
MIN_ROUNDS = 3  # the first plain, one traced with --trace 1
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import crossview; print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description="crossview benchmark")
    p.add_argument("--workload", required=True, choices=("rescore", "plan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Time to import crossview in a fresh interpreter, as a CLI user pays it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def _setup_child(workload, inputs: Path, send) -> None:
    start = time.perf_counter()
    workload.setup(inputs)
    send.send(time.perf_counter() - start)


def setup_seconds(workload, inputs: Path) -> float:
    """Time to write one set of inputs.

    The set-up runs in a forked child, so its memory stays out of this
    process's peak RSS, which then covers the timed operations only.
    """
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_setup_child, args=(workload, inputs, send))
    child.start()
    send.close()
    try:
        seconds = receive.recv()
    except EOFError:
        seconds = None
    child.join()
    if seconds is None or child.exitcode != 0:
        raise RuntimeError(f"set-up of {inputs} exited {child.exitcode}")
    return seconds


def tree_digests(root: Path) -> dict[str, str]:
    digests = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            with p.open("rb") as f:
                digests[str(p.relative_to(root))] = hashlib.file_digest(f, "sha256").hexdigest()
    return digests


def data_artifacts(out: Path) -> list[Path]:
    return [p for p in sorted(out.rglob("*")) if p.is_file() and p.suffix != ".manifest"]


def run_op(cli, op, problems: list[str]) -> list[float] | None:
    """Run an operation's command lines in order and time each one.

    Returns the seconds of each command, or None if one exits non-zero.
    """
    seconds = []
    for argv in op.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(list(argv))
            seconds.append(time.perf_counter() - start)
        if code != 0:
            problems.append(f"{op.label}: crossview {argv[0]} exited {code}: "
                            f"{err.getvalue().strip()[-300:]}")
            return None
    return seconds


def best_of(rounds: list[tuple[bool, dict]], traced: bool) -> float:
    """Best-of-N time of one round: each command's fastest run, summed."""
    best: dict = {}
    for was_traced, commands in rounds:
        if was_traced == traced:
            for key, seconds in commands.items():
                best[key] = min(seconds, best.get(key, seconds))
    return sum(best.values())


def measure(workload, work: Path, seconds: float, trace: bool) -> tuple[dict, dict]:
    from crossview import cli

    from tracer import Tracer, layer_metrics

    problems: list[str] = []
    setups = []
    for i in range(SETUP_REPEATS):
        inputs = work / f"in{i}"
        inputs.mkdir(parents=True)
        setups.append(setup_seconds(workload, inputs))
    imports = [import_seconds() for _ in range(IMPORT_PROBES)]
    inputs = work / "in0"
    first_inputs = tree_digests(inputs)
    for i in range(1, SETUP_REPEATS):
        if tree_digests(work / f"in{i}") != first_inputs:
            problems.append(f"set-up {i} wrote different inputs than set-up 0")

    # Round 0 writes the outputs that the checks read once every round is
    # done, so the checks' memory does not count in peak RSS.  Later rounds write
    # elsewhere and must reproduce round 0 byte for byte.  Every round is
    # timed; round 0 pays for cold caches, which best-of-N leaves out.
    # With tracing, rounds alternate plain and traced from round 2 on; the
    # tracer's wrappers are in place during traced rounds only.
    checked, out = work / "checked", work / "out"
    cpus = sorted(os.sched_getaffinity(0))
    tracer = Tracer() if trace else None
    rounds: list[tuple[bool, dict]] = []  # (traced, {(op, command): seconds})
    attempted = failed = 0
    digests = None
    while True:
        target = out if rounds else checked
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        ops = workload.ops(inputs, target)
        traced = tracer is not None and len(rounds) % 2 == 0 and len(rounds) > 0
        if traced:
            tracer.install()
        commands = {}
        try:
            for i, op in enumerate(ops):
                attempted += 1
                os.sched_setaffinity(0, {cpus[(len(rounds) + i) % len(cpus)]})
                command_s = run_op(cli, op, problems)
                if command_s is None:
                    failed += 1
                else:
                    commands.update({(i, j): t for j, t in enumerate(command_s)})
        finally:
            os.sched_setaffinity(0, cpus)
            if traced:
                tracer.uninstall()
        rounds.append((traced, commands))
        round_digests = {k: v for k, v in tree_digests(target).items()
                         if not k.endswith(".manifest")}
        if digests is None:
            digests = round_digests
        elif round_digests != digests:
            changed = sorted(k for k in set(digests) | set(round_digests)
                             if digests.get(k) != round_digests.get(k))
            problems.append(f"round {len(rounds) - 1}: artifacts differ from round 0: "
                            f"{changed[:5]}")
        # Stop at the round boundary nearest to --seconds of timed work.
        totals = [sum(c.values()) for _, c in rounds]
        if len(rounds) >= MIN_ROUNDS and sum(totals) + statistics.median(totals) / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    artifact_bytes = sum(p.stat().st_size for p in data_artifacts(checked))
    check_start = time.perf_counter()
    try:
        problems += workload.check(inputs, checked)
    except Exception as exc:  # a missing or malformed output is a finding
        problems.append(f"checks could not read the outputs: {exc!r}")
    check_s = time.perf_counter() - check_start

    wall = best_of(rounds, traced=False)
    info = {
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "commands_per_round": len(rounds[0][1]),
        "round_s": [round(sum(c.values()), 4) for _, c in rounds],
        "best_of_round_s": round(wall, 4),
        "setup_runs_s": [round(t, 4) for t in setups],
        "import_probes_s": [round(t, 4) for t in imports],
        "check_s": round(check_s, 3),
        "problems": problems[:20],
    }
    if tracer:
        traced_walls = [sum(c.values()) for traced, c in rounds if traced]
        overhead = best_of(rounds, traced=True) - wall
        metrics = layer_metrics(tracer, len(traced_walls), overhead)
        self_total = sum(tracer.self_time.values()) / len(traced_walls)
        info["span_cost_s"] = tracer.span_cost
        info["traced_wall_s"] = statistics.mean(traced_walls)
        info["self_time_share_of_traced_wall"] = self_total / statistics.mean(traced_walls)
    else:
        metrics = {
            "setup_s": (statistics.median(setups) + statistics.median(imports), "s"),
            "wall_s": (wall, "s"),
            "frames_per_s": (workload.frames_per_round / wall, "frames/s"),
            "artifact_mb": (artifact_bytes / 1e6, "MB"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PINNED:  # before NumPy loads
        os.environ[var] = "1"
    if not (SRC / "crossview" / "__init__.py").is_file():
        print(f"error: no crossview sources at {SRC}; run from a crossview checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import crossview
    from workloads import WORKLOADS

    if Path(crossview.__file__).resolve().parent != (SRC / "crossview").resolve():
        print(f"error: imported crossview from {crossview.__file__}, not {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    work = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        result, info = measure(workload, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in PINNED},
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
