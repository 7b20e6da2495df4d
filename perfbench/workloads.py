"""The benchmark's workloads and the checks on every command's outputs.

Each workload is a list of `volmin` CLI commands over configs generated
from the workload seed; the program sees only those configs and an
`--out` directory. Why each workload exists, and which layers it exercises
and bypasses, is stated in BENCHMARK.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Inputs shrunk from the shipped defaults (n = 20000, 150 epochs) so that
# one pass takes about a second: a run then holds dozens of passes, each
# divided by the reference kernel timed next to it, and their median holds
# still on a shared machine whose speed drifts. Everything else is the
# shipped default.
SWEEP_N = 3000
SWEEP_EPOCHS = 6
STAGED_N = 3000
STAGED_EPOCHS = 12
SCATTER_N_C3 = 4000
SCATTER_N_C10 = 400

# Geometry defaults the scatter report must echo.
RAYS = 512
WITNESS_TRIALS = 10_000


@dataclass(frozen=True)
class Experiment:
    """One generated config: simplex data, edge-scattered, cap 0.9."""

    name: str
    classes: int
    n: int
    noise: str
    rate: float
    seeds: tuple[int, ...]
    methods: tuple[str, ...] = ("volmin", "anchor-max")
    epochs: int | None = None

    def config_text(self) -> str:
        lines = [
            "data.generator = simplex",
            f"data.classes = {self.classes}",
            f"data.n = {self.n}",
            "data.profile = edge-scattered",
            "data.cap = 0.9",
            f"noise.kind = {self.noise}",
            f"noise.rate = {self.rate}",
            "estimators.methods = " + ", ".join(self.methods),
        ]
        if self.epochs is not None:
            lines.append(f"train.epochs = {self.epochs}")
        lines.append("trials.seeds = " + ", ".join(str(s) for s in self.seeds))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI command: `volmin <command> --config <exp>.cfg --out <pass>/<out>`."""

    command: str
    exp: Experiment
    out: str


def build(workload: str, seed: int) -> tuple[Op, ...]:
    """The commands of `workload` for workload seed `seed`."""
    if workload == "sweep-c3":
        pair = Experiment("pair", 3, SWEEP_N, "pair", 0.45, (seed, seed + 1), epochs=SWEEP_EPOCHS)
        sym = Experiment(
            "symmetric", 3, SWEEP_N, "symmetric", 0.5, (seed, seed + 1), epochs=SWEEP_EPOCHS
        )
        return (Op("sweep", pair, "pair"), Op("sweep", sym, "symmetric"))
    if workload == "staged-c10":
        exp = Experiment(
            "c10", 10, STAGED_N, "symmetric", 0.4, (seed,), methods=("volmin",),
            epochs=STAGED_EPOCHS,
        )
        return tuple(Op(c, exp, "staged") for c in ("generate", "corrupt", "train-volmin"))
    if workload == "scatter":
        c3 = Experiment("c3", 3, SCATTER_N_C3, "pair", 0.45, (seed,))
        c10 = Experiment("c10", 10, SCATTER_N_C10, "symmetric", 0.4, (seed,))
        return tuple(
            Op(c, exp, exp.name)
            for exp in (c3, c10)
            for c in ("generate", "corrupt", "check-scattered")
        )
    raise KeyError(workload)


WORKLOADS = ("sweep-c3", "staged-c10", "scatter")


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    """An output of a command is missing or wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _read_matrix(path: Path, classes: int) -> np.ndarray:
    _require(path.is_file(), f"missing {path.name}")
    t = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    _require(t.shape == (classes, classes), f"{path.name}: shape {t.shape}")
    _require(bool(np.isfinite(t).all()), f"{path.name}: non-finite entry")
    _require(
        bool((np.abs(t.sum(axis=0) - 1.0) <= 1e-9).all()),
        f"{path.name}: a column does not sum to 1",
    )
    return t


def _volmin_transition(path: Path, classes: int) -> np.ndarray:
    t = _read_matrix(path, classes)
    off = t - np.diag(np.full(classes, np.inf))
    _require(
        bool((np.diag(t) > off.max(axis=0)).all()),
        f"{path.name}: diagonal not strictly largest in its column",
    )
    return t


def _estimation_error(t_true: np.ndarray, t_est: np.ndarray) -> float:
    return float(np.abs(t_true - t_est).sum() / np.abs(t_true).sum())


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _present(out: Path, names) -> None:
    for name in names:
        _require((out / name).is_file(), f"missing {out.name}/{name}")


def _check_dataset(out: Path, stem: str, exp: Experiment) -> None:
    _present(out, (f"{stem}.csv", f"{stem}.posterior.csv"))
    _require(
        _line_count(out / f"{stem}.csv") == exp.n + 1,
        f"{stem}.csv does not hold {exp.n} rows",
    )


def _check_history(path: Path, epochs: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(not any(l.startswith("# aborted") for l in lines), f"{path.name}: aborted")
    _require(len(lines) == epochs + 1, f"{path.name}: {len(lines) - 1} epochs")


def _check_volmin_trial(out: Path, exp: Experiment) -> float:
    """Checks one volmin run's artifacts; returns its estimation error."""
    _present(out, ("history.csv", "transition_weights.txt", "classifier.txt"))
    _check_history(out / "history.csv", exp.epochs)
    t_true = _read_matrix(out / "true_transition.txt", exp.classes)
    t_est = _volmin_transition(out / "estimated_transition.txt", exp.classes)
    return _estimation_error(t_true, t_est)


def _check_sweep(out: Path, exp: Experiment, quality: dict) -> None:
    _present(out, ("sweep.csv",))
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    _require(
        lines[0] == "method,seed,est_error,test_accuracy,posterior_linf",
        "sweep.csv: bad header",
    )
    rows = [line.split(",") for line in lines[1:]]
    want = [(m, str(s)) for m in exp.methods for s in exp.seeds]
    want += [(m, "mean±std") for m in exp.methods]
    _require([(r[0], r[1]) for r in rows] == want, "sweep.csv: wrong (method, seed) rows")
    for method, seed_text, est, acc, linf in rows[: len(exp.methods) * len(exp.seeds)]:
        trial = out / f"seed_{seed_text}"
        _check_dataset(trial, "dataset", exp)
        _check_dataset(trial, "dataset_noisy", exp)
        if method == "volmin":
            err = _check_volmin_trial(trial, exp)
            key = f"est_error_volmin_{exp.noise}"
            quality.setdefault("posterior_linf_volmin", []).append(float(linf))
        else:
            _present(trial, ("classifier_noisy.txt", "error_report.txt"))
            name = method.replace("-", "_")
            key = f"est_error_{name}"
            t_true = _read_matrix(trial / "true_transition.txt", exp.classes)
            t_est = _read_matrix(trial / f"estimated_transition_{name}.txt", exp.classes)
            err = _estimation_error(t_true, t_est)
            _require(linf == "", f"sweep.csv: {method} has a posterior_linf")
        _require(
            math.isclose(float(est), err, rel_tol=1e-12),
            f"sweep.csv: {method} seed {seed_text} est_error {est} != {err!r}",
        )
        _require(0.0 <= float(acc) <= 1.0, f"sweep.csv: accuracy {acc}")
        quality.setdefault(key, []).append(err)


_REPORT_KEYS = (
    "classes", "columns", "rays_used", "coverage_tol", "coverage_pass_fraction",
    "coverage_verdict", "witness_trials", "witness_tol", "rotation_witness_found",
    "anchor_delta", "per_class_max", "anchor_verdict", "scattered_verdict",
)


def _flag(report: dict, key: str) -> bool:
    _require(report[key] in ("true", "false"), f"scatter_report.txt: {key}={report[key]}")
    return report[key] == "true"


def _check_scatter_report(out: Path, exp: Experiment, quality: dict) -> None:
    _present(out, ("scatter_report.txt",))
    report = {}
    for line in (out / "scatter_report.txt").read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        _require(bool(sep), f"scatter_report.txt: unparsable line {line!r}")
        report[key] = value
    missing = [k for k in _REPORT_KEYS if k not in report]
    _require(not missing, f"scatter_report.txt: missing {missing}")
    _require(int(report["classes"]) == exp.classes, "scatter_report.txt: classes")
    _require(int(report["columns"]) == exp.n, "scatter_report.txt: columns")
    _require(int(report["rays_used"]) == RAYS, "scatter_report.txt: rays_used")
    _require(int(report["witness_trials"]) == WITNESS_TRIALS, "scatter_report.txt: trials")
    _require(
        len(report["per_class_max"].split(",")) == exp.classes,
        "scatter_report.txt: per_class_max",
    )
    fraction = float(report["coverage_pass_fraction"])
    _require(0.0 <= fraction <= 1.0, "scatter_report.txt: coverage_pass_fraction")
    coverage = _flag(report, "coverage_verdict")
    witness = _flag(report, "rotation_witness_found")
    _flag(report, "anchor_verdict")
    _require(coverage == (fraction == 1.0), "scatter_report.txt: coverage_verdict")
    _require(
        _flag(report, "scattered_verdict") == (coverage and not witness),
        "scatter_report.txt: scattered_verdict",
    )
    _require(
        (out / "witness_q.txt").is_file() == witness,
        "witness_q.txt present iff a witness was found",
    )
    quality.setdefault(f"coverage_pass_fraction_c{exp.classes}", []).append(fraction)


def check(op: Op, out: Path, quality: dict) -> None:
    """Raise CheckFailed unless `op`'s artifacts in `out` are complete and
    valid; append the quality numbers they carry to `quality`."""
    exp = op.exp
    _present(out, ("config.txt", "manifest.txt"))
    _require(
        (out / "config.txt").read_text(encoding="utf-8") == exp.config_text(),
        "config.txt differs from the config given",
    )
    if op.command == "generate":
        _check_dataset(out, "dataset", exp)
    elif op.command == "corrupt":
        _check_dataset(out, "dataset_noisy", exp)
        _read_matrix(out / "true_transition.txt", exp.classes)
    elif op.command == "check-scattered":
        _check_scatter_report(out, exp, quality)
    elif op.command == "train-volmin":
        err = _check_volmin_trial(out, exp)
        quality.setdefault(f"est_error_volmin_{exp.noise}", []).append(err)
    elif op.command == "sweep":
        _check_sweep(out, exp, quality)
    else:
        raise KeyError(op.command)
