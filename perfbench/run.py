"""volmin benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-c3 --seed 0 --seconds 36 --trace 0

Run from the root of a checkout that holds `src/volmin` (pure Python, so
nothing is built). Workloads, metrics and bounds are declared in
`BENCHMARK.json`; `perfbench/workloads.py` turns the seed into configs.

With `--trace 0` the workload runs untraced and the end-to-end metrics are
reported: `wall_ref` (median over passes of the time spent in the
workload's CLI commands, each pass divided by the time of the reference
kernel run around it; see reference.py), `setup_s` (median over several
fresh interpreters of the time to import volmin and write the configs)
and `peak_rss_mb` (maximum RSS of the workload process). The pass times
in seconds are printed, not gated: on a small shared machine they follow
the neighbours' load. With `--trace 1` untraced and traced passes
alternate and the per-layer metrics of the traced passes are reported,
with the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
Exit status: 0 when every command succeeded and every check passed, 1 when
one did not, 2 when the checkout holds no volmin source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# Fresh interpreters timed for setup_s, besides the workload process itself.
SETUP_SAMPLES = 6
# Everything, set-up included, ends within this many seconds.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    p = argparse.ArgumentParser(description="Run one volmin benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not 0 < args.seconds <= 60:
        p.error("--seconds must lie in (0, 60]")
    return args


def worker_env() -> dict[str, str]:
    """The workload process's environment: VOLMIN_THREADS unset, so sweeps
    run sequentially, and one BLAS thread. The workload is one Python thread
    issuing small products; a second BLAS thread only spins on the other
    core of a small shared machine and makes wall time track the
    neighbours' load."""
    env = dict(os.environ)
    env.pop("VOLMIN_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _start_worker(args, work: Path, env, setup_only: bool):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--work", str(work),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(math.ceil(p / 100 * n) - 1, 0)
    return p, sorted(values)[rank]


def _declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _recorded_digest(workload: str, seed: int) -> str | None:
    with open(HERE / "baseline.json", encoding="utf-8") as fh:
        record = json.load(fh)
    return record["digests"].get(workload, {}).get(str(seed))


def measure(args, work: Path) -> tuple[list[float], dict]:
    """Set-up samples, spread before and after the workload process so they
    sample the machine at both ends of the run, and the workload process's
    own result."""
    begin = time.perf_counter()
    env = worker_env()
    setup = []

    def setup_sample(k: int) -> None:
        proc, ready = _start_worker(args, work / f"setup{k}", env, setup_only=True)
        _finish(proc, 30.0)
        setup.append(ready)

    for k in range(SETUP_SAMPLES // 2):
        setup_sample(k)
    proc, ready = _start_worker(args, work, env, setup_only=False)
    setup.append(ready)
    out = _finish(proc, DEADLINE_S - 10.0 - (time.perf_counter() - begin))
    for k in range(SETUP_SAMPLES // 2, SETUP_SAMPLES):
        setup_sample(k)
    return setup, json.loads(out.strip().splitlines()[-1])


# Units of per-layer metrics that count work rather than time it; they
# must read the same on every traced pass of one seed.
EXACT_UNITS = ("count", "1/step", "ratio", "B")


def _layer_summary(layers: list[dict], units: dict[str, str], problems: list[str]) -> dict:
    """Mean over traced passes; counts must agree between passes."""
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if units.get(name) in EXACT_UNITS and len(set(values)) > 1:
            problems.append(f"count {name} differs between traced passes: {values}")
        out[name] = statistics.fmean(values)
    return out


def summarize(args, setup: list[float], res: dict, ops) -> tuple[dict, list[str]]:
    """Print the human-readable report; return the metrics and the
    problems found."""
    problems = [res["failure"]] if res["failure"] else []
    plain = res["passes"]["plain"]
    traced = res["passes"].get("traced", [])
    digests = sorted({p["digest"] for p in plain + traced})
    if len(digests) > 1:
        problems.append("artifacts differ between passes of one seed")
    if not plain or (args.trace and not traced):
        problems.append("no complete pass")

    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in res["environment"].items()))
    if digests:
        recorded = _recorded_digest(args.workload, args.seed)
        verdict = ("no recorded digest for this seed" if recorded is None
                   else "matches the recorded seed-commit digest" if digests == [recorded]
                   else "DIFFERS from the recorded seed-commit digest")
        print(f"  artifact digest (sha256, manifest.txt excluded): {digests[0]} ({verdict})")
        for key, values in sorted((plain + traced)[0]["quality"].items()):
            print(f"  quality {key} = {statistics.fmean(values)!r} "
                  f"(mean of {len(values)}, unit 1)")
    if plain:
        wall = [p["wall_s"] for p in plain]
        tail = tail_percentile(wall)
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile under 11 samples"
        print(f"  wall_s per pass: median {statistics.median(wall):.4f} s, {tail_text}, "
              f"n={len(wall)}: " + ", ".join(f"{w:.4f}" for w in wall))
        rel = [p["wall_s"] / p["ref_s"] for p in plain]
        tail = tail_percentile(rel)
        tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "no tail percentile under 11 samples"
        print(f"  wall_ref per pass: median {statistics.median(rel):.4f} ref, {tail_text}, "
              f"n={len(rel)}; reference kernel median "
              f"{statistics.median(p['ref_s'] for p in plain):.4f} s")
        print("  cpu_s per pass: " + ", ".join(f"{p['cpu_s']:.4f}" for p in plain))
        for i, op in enumerate(ops):
            secs = [p["op_seconds"][i] for p in plain]
            print(f"    {op.command} {op.out}: median {statistics.median(secs):.4f} s")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")

    declared = _declared("per_layer" if args.trace else "end_to_end")
    metrics: dict[str, float] = {}
    if not problems and args.trace == 0:
        metrics = {
            "wall_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    elif not problems:
        metrics = _layer_summary(res["layers"], declared, problems)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain)
        )
        print(f"  tracing overhead: {metrics['trace.overhead_s']!r} s per pass "
              f"(traced minus untraced median wall_s; not subtracted)")
    if metrics and set(metrics) != set(declared):
        problems.append(f"metrics {sorted(set(metrics) ^ set(declared))} "
                        f"do not match BENCHMARK.json")
    width = max(map(len, declared))
    for name in declared:
        if name in metrics:
            print(f"  {name:<{width}} {metrics[name]!r} {declared[name]}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(f"  operations: {res['failed']} failed of {res['attempted']} attempted")
    return {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()
            if k in declared}, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "volmin" / "cli.py").is_file():
        print(f"perfbench: no volmin source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup, res = measure(args, work)
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, problems = summarize(args, setup, res, workloads.build(args.workload, args.seed))
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
