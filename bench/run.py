#!/usr/bin/env python3
"""The dflab benchmark.  Run it from the repository root:

    python3 bench/run.py --workload search --seed 0 --seconds 30 --trace 0

--trace 0 runs real `python -m dflab` processes in a closed loop with one
client: each invocation starts when the previous one has exited.  It first
times the workload's set-up command against an empty cache directory
several times, then repeats whole passes over the workload's command list
until the passes have taken --seconds, and prints the end-to-end metrics.

--trace 1 runs the traced in-process replay (tracing.py) and prints the
per-layer metrics, each with the end-to-end metric it should move.  It
does a fixed amount of work, so --seconds does not apply.

Every output is judged by the correctness gate in workloads.py.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Scratch files, caches and the span dump go to .bench_work/.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
MAX_REPORTED_PROBLEMS = 20


def child_env(cache_dir: Path) -> dict:
    """Environment of a dflab process: this checkout's sources, a private cache."""
    return dict(os.environ, PYTHONPATH=str(SRC), DFLAB_CACHE_DIR=str(cache_dir))


def spawn(args, env) -> tuple:
    """Run `python <args>` to completion: (wall s, exit code, ru_maxrss KiB, stdout)."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        argv = [sys.executable, *args]
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            argv,
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, out_path.read_bytes()


def environment() -> dict:
    """Record the machine and the thread count `--threads 0` resolves to."""
    import numpy
    import dflab
    from dflab.cli import CommandConfig

    if Path(dflab.__file__).resolve().parent != SRC / "dflab":
        raise SystemExit(f"bench: imported dflab from {dflab.__file__}, not from {SRC}")
    cpus = len(os.sched_getaffinity(0))
    threads = CommandConfig(cache_dir=WORK).effective_threads()
    if threads > cpus:
        raise SystemExit(
            f"bench: --threads 0 resolves to {threads} threads but only {cpus} CPUs are "
            "available to this process; refusing to measure an oversubscribed machine"
        )
    return {
        "nproc": cpus,
        "os_cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads_auto": threads,
        "cache_bytes": {"exact": 32 + 4 * (wl.EXACT_LIMIT + 1), "cli-short": 32 + 4 * (wl.BIG_LIMIT + 1)},
    }


def tail(samples) -> tuple:
    """(value, percentile, n, beyond): the highest percentile with >= 10 samples beyond it.

    Below 110 samples that percentile would fall under p90, and with a few
    long commands per pass it would land on a different command each time
    the pass count changed.  Then nearest-rank p90 is reported instead,
    with the number of samples beyond it.
    """
    s = sorted(samples)
    i = max(len(s) - 11, math.ceil(0.9 * len(s)) - 1)
    return s[i], 100.0 * (i + 1) / len(s), len(s), len(s) - 1 - i


def measure(name: str, seed: int, seconds: float) -> tuple:
    setup_cmd, cmds = wl.workload(name, seed)
    gate = wl.Gate()
    cache = WORK / name / "cache"
    env = child_env(cache)
    judged = []

    def invoke(cmd):
        wall, code, rss, stdout = spawn(["-m", "dflab", *cmd], env)
        judged.append((cmd, code, stdout))
        return wall, rss

    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(cache, ignore_errors=True)
        setup_times.append(invoke(setup_cmd)[0])

    pass_walls, samples, rss = [], [], []
    while not pass_walls or sum(pass_walls) < seconds:
        t0 = time.perf_counter()
        for cmd in cmds:
            wall, kib = invoke(cmd)
            samples.append(wall)
            rss.append(kib)
        pass_walls.append(time.perf_counter() - t0)

    for cmd, code, stdout in judged:
        gate.judge(cmd, code, stdout)
    tail_value, tail_pct, n, beyond = tail(samples)
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "cmd_p50_s": statistics.median(samples),
        "cmd_tail_s": tail_value,
        "peak_rss_mb": max(rss) / 1024,
        "setup_s": statistics.median(setup_times),
    }
    notes = [
        f"passes {len(pass_walls)} of {len(cmds)} commands: " + " ".join(f"{w:.3f}" for w in pass_walls),
        "setup " + " ".join(f"{w:.3f}" for w in setup_times),
        f"cmd_tail_s is p{tail_pct:.1f} of {n} invocations, {beyond} beyond it",
    ]
    return metrics, gate, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dflab" / "__init__.py").is_file():
        print(f"bench: no dflab sources at {SRC}; run from a dflab checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(dict(env, workload=args.workload, seed=args.seed, trace=args.trace)))

    if args.trace:
        import tracing

        metrics, gate, tracer = tracing.run(args.seed, WORK, spawn, child_env)
        units = {d["name"]: d["unit"] for d in declared}
        tracer.dump(
            WORK / f"trace-{args.workload}.json",
            {
                "seed": args.seed,
                "env": env,
                "metrics": {
                    k: {"value": v, "unit": units.get(k), "moves": tracing.MOVES.get(k)}
                    for k, v in metrics.items()
                },
            },
        )
        notes = [f"{k} = {v:.6g} {units.get(k)}  moves {tracing.MOVES.get(k)}" for k, v in metrics.items()]
    else:
        metrics, gate, notes = measure(args.workload, args.seed, args.seconds)

    names = [d["name"] for d in declared]
    if sorted(metrics) != sorted(names):
        print(
            f"bench: measured metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    for line in notes:
        print(line)
    print(f"fail_ratio {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:.4g}")
    for p in gate.problems[:MAX_REPORTED_PROBLEMS]:
        print(f"bench: FAIL {p}", file=sys.stderr)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
