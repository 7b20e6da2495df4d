"""Command-line harness: `volmin <command> --config <path> [--out <dir>] [--seed <n>]`.

Commands
  generate         write a synthetic (or re-read CSV) dataset to the output dir
  corrupt          apply the configured label noise; writes the true transition
  check-scattered  geometry report on the dataset's clean posteriors
  train-volmin     joint classifier + transition training on the noisy dataset
  estimate-anchor  anchor-point baseline estimates from a plainly trained model
  sweep            full pipeline per seed, merged into one aggregate CSV

Every command copies the config verbatim to `<out>/config.txt` and writes a
`manifest.txt` recording the inputs consumed (with SHA-256 digests), the
seeds, library versions, and wall time. All other outputs are deterministic
functions of the config, so re-running a command reproduces them byte for
byte; manifest.txt is the one exception, since it records wall time.

Exit codes: 0 success, 2 config error (including missing upstream
artifacts and malformed dataset CSVs), 3 numerical failure (non-finite
training abort or a singular matrix). The environment variable
VOLMIN_THREADS caps how many sweep trials run in parallel; unset or 1 means
sequential.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import (
    __version__,
    config,
    data,
    estimators,
    fileio,
    geometry,
    linalg,
    model,
    noise,
    trainer,
)


class MissingArtifactError(FileNotFoundError):
    """An input file a previous pipeline stage should have produced is absent."""


class NumericalFailure(RuntimeError):
    """Training aborted on non-finite values or a singular transition."""


# ---------------------------------------------------------------------------
# dataset construction shared by generate and sweep


def _build_dataset(cfg: config.ExperimentConfig, seed: int) -> data.Dataset:
    d = cfg.values["data"]
    classes = d["classes"]
    if d["generator"] == "simplex":
        ds = data.gen_simplex_feature(
            classes, d["n"], d["profile"], cap=d["cap"], seed=seed
        )
    elif d["generator"] == "gaussian":
        dim = d["d"] or classes
        if d["means_path"]:
            means = linalg.read_matrix_text(d["means_path"])
            if means.shape != (classes, dim):
                raise config.ConfigError(
                    f"data.means_path: expected a {classes}x{dim} matrix, got "
                    f"{means.shape[0]}x{means.shape[1]}"
                )
        else:
            means = 2.5 * np.eye(classes, dim)
        ds = data.gen_gaussian_mixture(classes, dim, means, d["n"], seed=seed)
    else:  # csv
        ds = data.read_csv(d["path"], classes=classes)
    if d["remove_anchor_fraction"] > 0.0:
        if ds.clean_posterior is None:
            raise config.ConfigError(
                "data.remove_anchor_fraction needs a clean posterior; the input "
                "CSV has no sibling posterior file"
            )
        ds = data.remove_anchor_candidates(ds, d["remove_anchor_fraction"])
    return ds


def _read_required(path: Path, producer: str) -> data.Dataset:
    if not path.exists():
        raise MissingArtifactError(
            f"missing upstream artifact {path}; run `volmin {producer}` with the "
            f"same config first"
        )
    return data.read_csv(path)


def _read_true_transition(out_dir: Path) -> np.ndarray | None:
    path = out_dir / "true_transition.txt"
    if path.exists():
        return linalg.read_matrix_text(path)
    return None


def _splits(cfg, ds_noisy, seed, with_test):
    """val (and optionally test) carved off per the configured fraction.

    The test split is taken first, so the train/val pool never sees it; both
    splits are deterministic in the seed."""
    vf = cfg.get("train", "val_fraction")
    test_set = None
    pool = ds_noisy
    if with_test:
        pool, test_set = data.split(ds_noisy, vf, seed=seed)
    train_set, val_set = data.split(pool, vf, seed=seed)
    return train_set, val_set, test_set


def _check_trained(res: trainer.TrainResult, label: str) -> trainer.TrainResult:
    if res.aborted is not None:
        raise NumericalFailure(f"{label}: {res.aborted}")
    return res


# ---------------------------------------------------------------------------
# evaluation helpers


def _corrected_accuracy(params, t_est, test_set) -> float | None:
    """Clean-label accuracy of the corrected scores T_est^{-1} g(x); None when
    the estimate is singular, so it has no inverse to correct with."""
    try:
        t_inv = linalg.inverse_transpose(t_est)
    except linalg.SingularMatrixError:
        return None
    scores = model.forward_batch(params, test_set.x) @ t_inv
    return float((scores.argmax(axis=1) == test_set.y_clean).mean())


def _posterior_linf(params, test_set) -> float | None:
    if test_set.clean_posterior is None:
        return None
    h = model.forward_batch(params, test_set.x)
    return float(np.abs(h - test_set.clean_posterior).max(axis=1).mean())


def _anchor_methods(cfg) -> tuple[str, ...]:
    return tuple(m for m in cfg.get("estimators", "methods") if m.startswith("anchor-"))


def _estimate_anchor_transition(method: str, cfg, params, xs) -> np.ndarray:
    if method == "anchor-max":
        return estimators.anchor_estimate_max(params, xs)
    return estimators.anchor_estimate_percentile(params, xs, cfg.get("estimators", "alpha"))


# ---------------------------------------------------------------------------
# commands; each returns the list of input files it consumed (for the manifest)


def cmd_generate(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    seed = cfg.seeds[0]
    ds = _build_dataset(cfg, seed)
    data.write_csv(out_dir / "dataset.csv", ds)
    d = cfg.values["data"]
    inputs = []
    if d["generator"] == "csv":
        inputs.append(Path(d["path"]))
    if d["generator"] == "gaussian" and d["means_path"]:
        inputs.append(Path(d["means_path"]))
    return inputs


def cmd_corrupt(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    seed = cfg.seeds[0]
    src = out_dir / "dataset.csv"
    ds = _read_required(src, "generate")
    t_true = noise.build_transition(cfg.noise_spec())
    ds = ds.with_noisy(noise.corrupt_labels(ds.y_clean, t_true, seed=seed))
    if cfg.get("data", "balance"):
        ds = data.balanced_undersample(ds, seed=seed)
    data.write_csv(out_dir / "dataset_noisy.csv", ds)
    linalg.write_matrix_text(
        out_dir / "true_transition.txt", t_true, comment="true noise transition"
    )
    inputs = [src]
    if cfg.get("noise", "matrix_path"):
        inputs.append(Path(cfg.get("noise", "matrix_path")))
    return inputs


def cmd_check_scattered(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    seed = cfg.seeds[0]
    src = out_dir / "dataset_noisy.csv"
    if not src.exists():
        src = out_dir / "dataset.csv"
    ds = _read_required(src, "generate")
    if ds.clean_posterior is None:
        raise MissingArtifactError(
            f"{src} has no sibling posterior file; the scattering checks need "
            f"the clean posteriors"
        )
    g = cfg.values["geometry"]
    report = geometry.analyze_scattering(
        ds.clean_posterior.T,
        rays=g["rays"],
        trials=g["trials"],
        seed=seed,
        coverage_tol=g["coverage_tol"],
        witness_tol=g["witness_tol"],
        anchor_delta=g["anchor_delta"],
    )
    fileio.atomic_write_text(out_dir / "scatter_report.txt", report.to_text())
    if report.rotation_witness is not None:
        linalg.write_matrix_text(
            out_dir / "witness_q.txt",
            report.rotation_witness,
            comment="orthogonal non-permutation witness Q with Q^T H >= 0",
        )
    return [src]


def cmd_train_volmin(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    seed = cfg.seeds[0]
    src = out_dir / "dataset_noisy.csv"
    ds = _read_required(src, "corrupt")
    t_true = _read_true_transition(out_dir)
    train_set, val_set, _ = _splits(cfg, ds, seed, with_test=False)
    res = _check_trained(
        trainer.train(train_set, val_set, cfg.train_config(seed), true_transition=t_true),
        "train-volmin",
    )
    _write_volmin_artifacts(out_dir, res, t_true)
    inputs = [src]
    if t_true is not None:
        inputs.append(out_dir / "true_transition.txt")
    return inputs


def _write_volmin_artifacts(trial_dir: Path, res: trainer.TrainResult, t_true) -> None:
    fileio.atomic_write_text(trial_dir / "history.csv", res.history.to_csv())
    comment = "estimated transition (joint training)"
    if t_true is not None:
        err = noise.estimation_error(t_true, res.transition)
        comment += f"; estimation_error = {err!r}"
    linalg.write_matrix_text(trial_dir / "estimated_transition.txt", res.transition, comment)
    if res.transition_weights is not None:
        linalg.write_matrix_text(
            trial_dir / "transition_weights.txt",
            res.transition_weights,
            comment=f"off-diagonal gate weights at selected epoch {res.best_epoch}",
        )
    model.save_classifier(trial_dir / "classifier.txt", res.params)


def cmd_estimate_anchor(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    seed = cfg.seeds[0]
    src = out_dir / "dataset_noisy.csv"
    ds = _read_required(src, "corrupt")
    t_true = _read_true_transition(out_dir)
    train_set, val_set, _ = _splits(cfg, ds, seed, with_test=False)
    gres = _check_trained(
        estimators.fit_noisy_posterior(train_set, val_set, cfg.train_config(seed)),
        "estimate-anchor",
    )
    _write_anchor_artifacts(cfg, out_dir, gres, train_set.x, t_true)
    inputs = [src]
    if t_true is not None:
        inputs.append(out_dir / "true_transition.txt")
    return inputs


def _write_anchor_artifacts(cfg, trial_dir: Path, gres, xs, t_true) -> None:
    model.save_classifier(trial_dir / "classifier_noisy.txt", gres.params)
    methods = _anchor_methods(cfg)
    if not methods:
        raise config.ConfigError(
            "estimators.methods lists no anchor estimator; nothing to do"
        )
    report = []
    for method in methods:
        t_est = _estimate_anchor_transition(method, cfg, gres.params, xs)
        if t_true is not None:
            err_text = repr(noise.estimation_error(t_true, t_est))
        else:
            err_text = "n/a (true transition unknown)"
        name = method.replace("-", "_")
        linalg.write_matrix_text(
            trial_dir / f"estimated_transition_{name}.txt",
            t_est,
            comment=f"{method} estimate; estimation_error = {err_text}",
        )
        report.append(f"{method} estimation_error = {err_text}")
    fileio.atomic_write_text(trial_dir / "error_report.txt", "\n".join(report) + "\n")


# ---------------------------------------------------------------------------
# sweep


def _run_trial(cfg: config.ExperimentConfig, seed: int, trial_dir_text: str) -> list[dict]:
    """One full pipeline pass for one seed; returns aggregate rows."""
    trial_dir = Path(trial_dir_text)
    trial_dir.mkdir(parents=True, exist_ok=True)
    ds = _build_dataset(cfg, seed)
    data.write_csv(trial_dir / "dataset.csv", ds)
    t_true = noise.build_transition(cfg.noise_spec())
    ds = ds.with_noisy(noise.corrupt_labels(ds.y_clean, t_true, seed=seed))
    if cfg.get("data", "balance"):
        ds = data.balanced_undersample(ds, seed=seed)
    data.write_csv(trial_dir / "dataset_noisy.csv", ds)
    linalg.write_matrix_text(
        trial_dir / "true_transition.txt", t_true, comment="true noise transition"
    )
    train_set, val_set, test_set = _splits(cfg, ds, seed, with_test=True)

    rows = []
    methods = cfg.get("estimators", "methods")
    if "volmin" in methods:
        res = _check_trained(
            trainer.train(
                train_set, val_set, cfg.train_config(seed), true_transition=t_true
            ),
            f"seed {seed} volmin",
        )
        _write_volmin_artifacts(trial_dir, res, t_true)
        rows.append(
            {
                "method": "volmin",
                "seed": seed,
                "est_error": noise.estimation_error(t_true, res.transition),
                "test_accuracy": trainer.accuracy(
                    res.params, test_set.x, test_set.y_clean
                ),
                "posterior_linf": _posterior_linf(res.params, test_set),
            }
        )
    anchor_methods = _anchor_methods(cfg)
    if anchor_methods:
        gres = _check_trained(
            estimators.fit_noisy_posterior(train_set, val_set, cfg.train_config(seed)),
            f"seed {seed} noisy-posterior fit",
        )
        _write_anchor_artifacts(cfg, trial_dir, gres, train_set.x, t_true)
        for method in anchor_methods:
            t_est = _estimate_anchor_transition(method, cfg, gres.params, train_set.x)
            rows.append(
                {
                    "method": method,
                    "seed": seed,
                    "est_error": noise.estimation_error(t_true, t_est),
                    "test_accuracy": _corrected_accuracy(gres.params, t_est, test_set),
                    "posterior_linf": None,
                }
            )
    return rows


def _worker_count(n_trials: int) -> int:
    raw = os.environ.get("VOLMIN_THREADS", "")
    if not raw:
        return 1
    try:
        value = int(raw, 10)
    except ValueError:
        value = 0
    if value < 1:
        raise config.ConfigError(
            f"VOLMIN_THREADS must be a positive integer, got {raw!r}"
        )
    return min(value, n_trials)


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def _summary_cell(values: list) -> str:
    present = [v for v in values if v is not None]
    if not present:
        return ""
    mean = float(np.mean(present))
    std = float(np.std(present, ddof=1)) if len(present) > 1 else 0.0
    return f"{mean!r}±{std!r}"


def sweep_csv_text(rows_by_seed: dict[int, list[dict]], cfg) -> str:
    """Merge per-seed rows in config seed order, then one mean±std summary
    row per method."""
    lines = ["method,seed,est_error,test_accuracy,posterior_linf"]
    by_method: dict[str, list[dict]] = {m: [] for m in cfg.get("estimators", "methods")}
    for seed in cfg.seeds:
        for row in rows_by_seed[seed]:
            by_method[row["method"]].append(row)
    for method, rows in by_method.items():
        for row in rows:
            lines.append(
                f"{method},{row['seed']},{_cell(row['est_error'])},"
                f"{_cell(row['test_accuracy'])},{_cell(row['posterior_linf'])}"
            )
    for method, rows in by_method.items():
        lines.append(
            f"{method},mean±std,"
            f"{_summary_cell([r['est_error'] for r in rows])},"
            f"{_summary_cell([r['test_accuracy'] for r in rows])},"
            f"{_summary_cell([r['posterior_linf'] for r in rows])}"
        )
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    seeds = cfg.seeds
    trial_dirs = {s: out_dir / f"seed_{s}" for s in seeds}
    workers = _worker_count(len(seeds))
    rows_by_seed: dict[int, list[dict]] = {}
    if workers == 1:
        for s in seeds:
            rows_by_seed[s] = _run_trial(cfg, s, str(trial_dirs[s]))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                s: pool.submit(_run_trial, cfg, s, str(trial_dirs[s])) for s in seeds
            }
            for s in seeds:
                rows_by_seed[s] = futures[s].result()
    fileio.atomic_write_text(out_dir / "sweep.csv", sweep_csv_text(rows_by_seed, cfg))
    d = cfg.values["data"]
    inputs = []
    if d["generator"] == "csv":
        inputs.append(Path(d["path"]))
    return inputs


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "generate": cmd_generate,
    "corrupt": cmd_corrupt,
    "check-scattered": cmd_check_scattered,
    "train-volmin": cmd_train_volmin,
    "estimate-anchor": cmd_estimate_anchor,
    "sweep": cmd_sweep,
}


def _apply_overrides(cfg, out: str | None, seed: int | None):
    values = {section: dict(keys) for section, keys in cfg.values.items()}
    if out is not None:
        values["output"]["dir"] = out
    if seed is not None:
        values["trials"]["seeds"] = (seed,)
    return config.ExperimentConfig(values=values, raw=cfg.raw, source=cfg.source)


def _write_manifest(out_dir: Path, command: str, cfg, inputs: list[Path], wall: float):
    lines = [
        f"command = {command}",
        f"config_source = {cfg.source}",
        f"config_sha256 = {fileio.sha256_of_file(out_dir / 'config.txt')}",
        f"out_dir = {out_dir}",
        "seeds = " + ",".join(str(s) for s in cfg.seeds),
    ]
    for path in inputs:
        lines.append(f"input.{path.name} = {fileio.sha256_of_file(path)}")
    lines += [
        f"python = {platform.python_version()}",
        f"numpy = {np.__version__}",
        f"volmin = {__version__}",
        f"wall_time_seconds = {wall:.3f}",
    ]
    fileio.atomic_write_text(out_dir / "manifest.txt", "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volmin",
        description="Label-noise experiments: transition-matrix volume minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "generate": "write the configured dataset to the output directory",
        "corrupt": "apply label noise; writes dataset_noisy.csv and the true transition",
        "check-scattered": "geometry report on the dataset's clean posteriors",
        "train-volmin": "joint classifier + transition training on the noisy dataset",
        "estimate-anchor": "anchor-point baseline estimates and error report",
        "sweep": "full pipeline per seed, merged into sweep.csv",
    }
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int, help="single seed (overrides trials.seeds)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(config.load_config(args.config), args.out, args.seed)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        fileio.atomic_write_text(out_dir / "config.txt", cfg.raw)
        start = time.perf_counter()
        inputs = args.fn(cfg, out_dir)
        _write_manifest(out_dir, args.command, cfg, inputs, time.perf_counter() - start)
    except config.ConfigError as exc:
        print(f"volmin: config error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifactError as exc:
        print(f"volmin: {exc}", file=sys.stderr)
        return 2
    except data.CsvError as exc:
        print(f"volmin: bad csv: {exc}", file=sys.stderr)
        return 2
    except (linalg.SingularMatrixError, FloatingPointError, NumericalFailure) as exc:
        print(f"volmin: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
