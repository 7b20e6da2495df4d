"""One workload process: import volmin, write the configs, run passes.

Started by run.py in a fresh interpreter. It prints `ready` once volmin is
imported and the configs are written (run.py times set-up up to that
line), then, unless `--setup-only`, runs passes of the workload's CLI
commands in-process through `volmin.cli.main` until the time budget is
spent, checks every command's outputs, and prints one JSON line with the
measurements.

A pass runs every command of the workload once, into a fresh directory.
The reference kernel (reference.py) runs before the first pass and after
every pass; each pass records the mean of the two kernel times around it.
In trace mode untraced and traced passes alternate, so that the tracing
overhead is the difference of their medians.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import reference
import workloads
import tracer as tracing


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def tree_digest(top: Path) -> str:
    """SHA-256 over every file under `top` except manifest.txt (the one
    artifact that records wall time): relative path, then content digest."""
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        if path.name == "manifest.txt":
            continue
        h.update(path.relative_to(top).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class OpFailed(Exception):
    """A command exited nonzero, raised, or left wrong outputs; `ran` is
    how many commands of the pass ran, the failing one included."""

    def __init__(self, message: str, ran: int):
        super().__init__(message)
        self.ran = ran


def run_pass(ops, configs: dict, pass_dir: Path, call) -> dict:
    """Run every command once into `pass_dir`; check each one's outputs
    after it returns (outside the timed region)."""
    seconds = []
    cpu_seconds = []
    quality: dict[str, list[float]] = {}
    for ran, op in enumerate(ops, start=1):
        out = pass_dir / op.out
        argv = [op.command, "--config", str(configs[op.exp.name]), "--out", str(out)]
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            rc = call(op, argv)
        except Exception as exc:  # a traceback from the program is a failed command
            traceback.print_exc()
            raise OpFailed(f"{op.command} raised {type(exc).__name__}: {exc}", ran) from None
        seconds.append(time.perf_counter() - start)
        cpu_seconds.append(time.process_time() - cpu_start)
        if rc != 0:
            raise OpFailed(f"{op.command} exited with {rc}", ran)
        try:
            workloads.check(op, out, quality)
        except (workloads.CheckFailed, OSError, ValueError) as exc:
            raise OpFailed(f"{op.command}: {exc}", ran) from None
    digest = tree_digest(pass_dir)
    shutil.rmtree(pass_dir)
    return {
        "op_seconds": seconds,
        "wall_s": sum(seconds),
        "cpu_s": sum(cpu_seconds),
        "digest": digest,
        "quality": quality,
    }


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "VOLMIN_THREADS": os.environ.get("VOLMIN_THREADS", "unset"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(args.root / "src"))
    modules = {name: importlib.import_module(f"volmin.{name}") for name in tracing.LAYERS}
    cli = modules["cli"]
    ops = workloads.build(args.workload, args.seed)
    args.work.mkdir(parents=True, exist_ok=True)
    configs = {}
    for op in ops:
        path = args.work / f"{op.exp.name}.cfg"
        if op.exp.name not in configs:
            path.write_text(op.exp.config_text(), encoding="utf-8")
            configs[op.exp.name] = path
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer(modules)
    layers: list[dict] = []

    def plain_pass(pass_dir: Path) -> dict:
        return run_pass(ops, configs, pass_dir, lambda op, argv: cli.main(argv))

    def traced_pass(pass_dir: Path) -> dict:
        tracer.reset()
        tracer.install()
        try:
            result = run_pass(
                ops, configs, pass_dir,
                lambda op, argv: tracer.span(f"cli.{op.command}", cli.main, argv),
            )
        finally:
            tracer.uninstall()
        selfs = tracing.self_times(tracer)
        tracing.check_accounting(tracer, selfs)
        layers.append(tracing.layer_metrics(tracer, selfs))
        return result

    runners = {"plain": plain_pass, "traced": traced_pass}
    modes = ("plain", "traced") if args.trace else ("plain",)
    passes = {mode: [] for mode in modes}
    attempted = failed = 0
    failure = None
    start = time.perf_counter()
    ref_before = reference.run_kernel()
    k = 0
    while failure is None:
        round_start = time.perf_counter()
        for mode in modes:
            k += 1
            try:
                result = runners[mode](args.work / f"pass{k}")
            except OpFailed as exc:
                # Commands after the failing one in this pass did not run.
                attempted += exc.ran
                failed += 1
                failure = str(exc)
                break
            except tracing.SpanError as exc:
                attempted += len(ops)
                failure = f"trace: {exc}"
                break
            attempted += len(ops)
            ref_after = reference.run_kernel()
            result["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            passes[mode].append(result)
        # Start another round only if it should end within the budget.
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    if layers:
        tracer.write_spans(args.work / "spans.tsv")

    print(json.dumps({
        "passes": passes,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "failure": failure,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
