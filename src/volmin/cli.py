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

Exit codes: 0 success, 2 config error (including missing, unreadable or
malformed upstream artifacts and dataset CSVs, missing or malformed files
that config keys name, an output directory that cannot be created, empty
splits, and a class left empty under data.balance), 3 numerical failure (a
training run's non-finite loss or weights or singular transition; the
message names the seed and the run, as in `seed 0 volmin: ...`). The
environment variable VOLMIN_THREADS sets how many processes a sweep runs
on, each training one contiguous chunk of the seeds; unset or 1 means one
process for all of them. Either way the seeds of a chunk whose splits have
equal sizes train in lockstep (`trainer.train`), and every output is the
same byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import platform
import sys
import time
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


class ArtifactError(Exception):
    """An input file a previous pipeline stage should have produced is absent,
    unreadable or malformed."""


class NumericalFailure(RuntimeError):
    """A training run met non-finite values or a singular transition."""


# ---------------------------------------------------------------------------
# pipeline stages, shared by the staged commands and sweep


@contextlib.contextmanager
def _reading(key: str, path):
    """Reading the file config key `key` names: a missing, unreadable or
    malformed file is a config error that names the key and the file."""
    try:
        yield
    except OSError as exc:
        raise config.ConfigError(f"{key}: cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise config.ConfigError(f"{key}: {exc}") from None


def _data_inputs(cfg: config.ExperimentConfig) -> list[Path]:
    """The data files `_generate` reads, for the manifest."""
    d = cfg.values["data"]
    if d["generator"] == "csv":
        return [Path(d["path"])]
    if d["generator"] == "gaussian" and d["means_path"]:
        return [Path(d["means_path"])]
    return []


def _noise_inputs(cfg: config.ExperimentConfig) -> list[Path]:
    """The transition file `_corrupt` reads, for the manifest."""
    spec = cfg.noise_spec()
    return [Path(spec.matrix_path)] if spec.kind == "custom" else []


def _generate(cfg: config.ExperimentConfig, seed: int, out_dir: Path) -> data.Dataset:
    """Build the configured dataset; writes dataset.csv."""
    d = cfg.values["data"]
    classes = d["classes"]
    if d["generator"] == "simplex":
        ds = data.gen_simplex_feature(
            classes, d["n"], d["profile"], cap=d["cap"], seed=seed
        )
    elif d["generator"] == "gaussian":
        dim = d["d"] or classes
        if d["means_path"]:
            with _reading("data.means_path", d["means_path"]):
                means = linalg.read_matrix_text(d["means_path"])
            if means.shape != (classes, dim):
                raise config.ConfigError(
                    f"data.means_path: {d['means_path']}: expected a {classes}x{dim} "
                    f"matrix, got {means.shape[0]}x{means.shape[1]}"
                )
        else:
            means = 2.5 * np.eye(classes, dim)
        ds = data.gen_gaussian_mixture(classes, dim, means, d["n"], seed=seed)
    else:  # csv
        with _reading("data.path", d["path"]):
            ds = data.read_csv(d["path"], classes)
    if d["remove_anchor_fraction"] > 0.0:
        if ds.clean_posterior is None:
            raise config.ConfigError(
                "data.remove_anchor_fraction needs a clean posterior; the input "
                "CSV has no sibling posterior file"
            )
        ds = data.remove_anchor_candidates(ds, d["remove_anchor_fraction"])
    data.write_csv(out_dir / "dataset.csv", ds)
    return ds


def _corrupt(
    cfg: config.ExperimentConfig, seed: int, out_dir: Path, ds: data.Dataset
) -> tuple[data.Dataset, np.ndarray]:
    """Corrupt the labels with the configured noise, then balance; writes
    dataset_noisy.csv and true_transition.txt."""
    spec = cfg.noise_spec()
    key = "noise.matrix_path" if spec.kind == "custom" else "noise.rate"
    with _reading(key, spec.matrix_path):
        t_true = noise.build_transition(spec)
    ds = ds.with_noisy(noise.corrupt_labels(ds.y_clean, t_true, seed=seed))
    if cfg.get("data", "balance"):
        try:
            ds = data.balanced_undersample(ds, seed=seed)
        except ValueError as exc:
            raise config.ConfigError(f"data.balance = true: {exc}") from None
    data.write_csv(out_dir / "dataset_noisy.csv", ds)
    linalg.write_matrix_text(
        out_dir / "true_transition.txt", t_true, comment="true noise transition"
    )
    return ds, t_true


def _splits(cfg, ds_noisy, seed, with_test):
    """val (and optionally test) carved off per the configured fraction.

    The test split is taken first, so the train/val pool never sees it; both
    splits are deterministic in the seed. An empty split is a config error:
    anchor removal and balancing shrink the data after the config is read,
    so only here is its size known."""
    vf = cfg.get("train", "val_fraction")
    test_set = None
    pool = ds_noisy
    if with_test:
        pool, test_set = data.split(ds_noisy, vf, seed=seed)
    train_set, val_set = data.split(pool, vf, seed=seed)
    for name, part in (("train", train_set), ("validation", val_set), ("test", test_set)):
        if part is not None and part.n == 0:
            raise config.ConfigError(
                f"the {name} split is empty: {ds_noisy.n} samples split by "
                f"train.val_fraction = {vf!r}; raise data.n"
            )
    return train_set, val_set, test_set


def _checked(label: str, res):
    """A lockstep trial's result; a trial that failed numerically raises
    NumericalFailure naming training run `label`."""
    if isinstance(res, Exception):
        raise NumericalFailure(f"{label}: {res}")
    return res


def _write_volmin(out_dir, res: trainer.TrainResult, t_true) -> None:
    """Writes history.csv, estimated_transition.txt, transition_weights.txt
    and classifier.txt."""
    fileio.atomic_write_text(out_dir / "history.csv", res.history.to_csv())
    comment = "estimated transition (joint training)"
    if t_true is not None:
        err = noise.estimation_error(t_true, res.transition)
        comment += f"; estimation_error = {err!r}"
    linalg.write_matrix_text(out_dir / "estimated_transition.txt", res.transition, comment)
    if res.transition_weights is not None:
        linalg.write_matrix_text(
            out_dir / "transition_weights.txt",
            res.transition_weights,
            comment=f"off-diagonal gate weights at selected epoch {res.best_epoch}",
        )
    model.save_classifier(out_dir / "classifier.txt", res.params)


def _anchor_methods(cfg) -> tuple[str, ...]:
    return tuple(m for m in cfg.get("estimators", "methods") if m in estimators.TWO_STAGE)


def _estimate_anchor(
    cfg, out_dir, params, train_set, t_true
) -> dict[str, np.ndarray]:
    """Estimate T from the noisy-posterior fit `params` with each configured
    anchor method; writes classifier_noisy.txt, one
    estimated_transition_<method>.txt each and error_report.txt. Returns the
    estimates by method."""
    model.save_classifier(out_dir / "classifier_noisy.txt", params)
    p = model.forward_batch(params, train_set.x)
    opts = cfg.values["estimators"]
    estimates, report = {}, []
    for method in _anchor_methods(cfg):
        t_est = estimators.TWO_STAGE[method](p, opts)
        if t_true is not None:
            err_text = repr(noise.estimation_error(t_true, t_est))
        else:
            err_text = "n/a (true transition unknown)"
        linalg.write_matrix_text(
            out_dir / f"estimated_transition_{method.replace('-', '_')}.txt",
            t_est,
            comment=f"{method} estimate; estimation_error = {err_text}",
        )
        report.append(f"{method} estimation_error = {err_text}")
        estimates[method] = t_est
    fileio.atomic_write_text(out_dir / "error_report.txt", "\n".join(report) + "\n")
    return estimates


# ---------------------------------------------------------------------------
# evaluation helpers


def _corrected_accuracy(h, t_est, test_set) -> float | None:
    """Clean-label accuracy of the corrected scores T_est^{-1} g(x), given
    h = g(test_set.x); None when the estimate is singular, so it has no
    inverse to correct with."""
    try:
        t_inv = linalg.inverse_transpose(t_est)
    except linalg.SingularMatrixError:
        return None
    return float(((h @ t_inv).argmax(axis=1) == test_set.y_clean).mean())


def _posterior_linf(h, test_set) -> float | None:
    if test_set.clean_posterior is None:
        return None
    return float(np.abs(h - test_set.clean_posterior).max(axis=1).mean())


# ---------------------------------------------------------------------------
# commands; each returns the list of input files it consumed (for the manifest)


def _read_required(cfg, path: Path, producer: str) -> data.Dataset:
    if not path.exists():
        raise ArtifactError(
            f"missing upstream artifact {path}; run `volmin {producer}` with the "
            f"same config first"
        )
    try:
        return data.read_csv(path, cfg.get("data", "classes"))
    except OSError as exc:
        raise ArtifactError(f"cannot read {exc.filename}: {exc.strerror}") from None


def _noisy_splits(cfg, out_dir: Path):
    """The staged train and validation splits of dataset_noisy.csv, the true
    transition when corrupt wrote one, and the files read."""
    src = out_dir / "dataset_noisy.csv"
    train_set, val_set, _ = _splits(
        cfg, _read_required(cfg, src, "corrupt"), cfg.seeds[0], with_test=False
    )
    t_path = out_dir / "true_transition.txt"
    if not t_path.exists():
        return train_set, val_set, None, [src]
    try:
        t_true = linalg.read_matrix_text(t_path)
    except OSError as exc:
        raise ArtifactError(f"cannot read {t_path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ArtifactError(f"malformed upstream artifact: {exc}") from None
    classes = cfg.get("data", "classes")
    if t_true.shape != (classes, classes):
        rows, cols = t_true.shape
        raise ArtifactError(
            f"malformed upstream artifact: {t_path}: expected a {classes}x{classes} "
            f"matrix for data.classes = {classes}, got {rows}x{cols}"
        )
    return train_set, val_set, t_true, [src, t_path]


def cmd_generate(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    _generate(cfg, cfg.seeds[0], out_dir)
    return _data_inputs(cfg)


def cmd_corrupt(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    src = out_dir / "dataset.csv"
    _corrupt(cfg, cfg.seeds[0], out_dir, _read_required(cfg, src, "generate"))
    return [src, *_noise_inputs(cfg)]


def cmd_check_scattered(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    src = out_dir / "dataset_noisy.csv"
    if not src.exists():
        src = out_dir / "dataset.csv"
    ds = _read_required(cfg, src, "generate")
    if ds.clean_posterior is None:
        raise ArtifactError(
            f"{src} has no sibling posterior file; the scattering checks need "
            f"the clean posteriors"
        )
    report = geometry.analyze_scattering(
        ds.clean_posterior.T, seed=cfg.seeds[0], **cfg.values["geometry"]
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
    train_set, val_set, t_true, inputs = _noisy_splits(cfg, out_dir)
    seed = cfg.seeds[0]
    (res,) = trainer.train(
        [train_set], [val_set], [cfg.train_config(seed)], true_transition=[t_true]
    )
    _write_volmin(out_dir, _checked(f"seed {seed} volmin", res), t_true)
    return inputs


def cmd_estimate_anchor(cfg: config.ExperimentConfig, out_dir: Path) -> list[Path]:
    if not _anchor_methods(cfg):
        raise config.ConfigError(
            "estimators.methods lists no anchor estimator; nothing to do"
        )
    train_set, val_set, t_true, inputs = _noisy_splits(cfg, out_dir)
    seed = cfg.seeds[0]
    (res,) = estimators.fit_noisy_posterior(
        [train_set], [val_set], [cfg.train_config(seed)]
    )
    params = _checked(f"seed {seed} noisy-posterior fit", res).params
    _estimate_anchor(cfg, out_dir, params, train_set, t_true)
    return inputs


# ---------------------------------------------------------------------------
# sweep


def _run_trials(cfg: config.ExperimentConfig, seeds, trial_dirs) -> dict[int, list[dict]]:
    """The full pipeline for each seed, in `trial_dirs[seed]`; returns each
    seed's aggregate rows.

    Every seed is set up first (generate, corrupt, split). The seeds whose
    training and validation splits have equal sizes (`data.balance` and
    anchor removal make them differ) then train in lockstep: one
    `trainer.train` call for their volmin runs, then one for their noisy
    fits. Last, each seed's files and rows are written in seed order.
    Failures surface as a one-seed-at-a-time pass meets them: the lowest
    seed first, and a seed's set-up before its volmin run before its fit.
    Nothing of a failed run is written, and a failed set-up stops the
    set-up of the seeds after it."""
    trials, setup_failure = [], None
    for seed in seeds:
        trial_dir = trial_dirs[seed]
        try:
            try:
                trial_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise config.ConfigError(f"cannot create {trial_dir}: {exc.strerror}") from None
            ds, t_true = _corrupt(cfg, seed, trial_dir, _generate(cfg, seed, trial_dir))
            splits = _splits(cfg, ds, seed, with_test=True)
        except config.ConfigError as exc:
            setup_failure = exc
            break
        trials.append((seed, trial_dir, t_true, *splits))
    groups: dict[tuple[int, int], list] = {}
    for trial in trials:
        groups.setdefault((trial[3].n, trial[4].n), []).append(trial)
    volmin, fits = {}, {}
    for group in groups.values():
        group_seeds, _, t_trues, train_sets, val_sets, _ = map(list, zip(*group))
        configs = [cfg.train_config(s) for s in group_seeds]
        if "volmin" in cfg.get("estimators", "methods"):
            results = trainer.train(train_sets, val_sets, configs, true_transition=t_trues)
            volmin.update(zip(group_seeds, results))
        if _anchor_methods(cfg):
            results = estimators.fit_noisy_posterior(train_sets, val_sets, configs)
            fits.update(zip(group_seeds, results))

    rows_by_seed = {}
    for seed, trial_dir, t_true, train_set, _, test_set in trials:
        rows = rows_by_seed[seed] = []
        if seed in volmin:
            res = _checked(f"seed {seed} volmin", volmin[seed])
            _write_volmin(trial_dir, res, t_true)
            h = model.forward_batch(res.params, test_set.x)
            rows.append(
                {
                    "method": "volmin",
                    "seed": seed,
                    "est_error": noise.estimation_error(t_true, res.transition),
                    "test_accuracy": float((h.argmax(axis=1) == test_set.y_clean).mean()),
                    "posterior_linf": _posterior_linf(h, test_set),
                }
            )
        if seed in fits:
            params = _checked(f"seed {seed} noisy-posterior fit", fits[seed]).params
            estimates = _estimate_anchor(cfg, trial_dir, params, train_set, t_true)
            h = model.forward_batch(params, test_set.x)
            for method, t_est in estimates.items():
                rows.append(
                    {
                        "method": method,
                        "seed": seed,
                        "est_error": noise.estimation_error(t_true, t_est),
                        "test_accuracy": _corrected_accuracy(h, t_est, test_set),
                        "posterior_linf": None,
                    }
                )
    if setup_failure is not None:
        raise setup_failure
    return rows_by_seed


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
    if workers == 1:
        rows_by_seed = _run_trials(cfg, seeds, trial_dirs)
    else:
        # Imported here: the process pool pulls in multiprocessing and
        # socket, which a sequential sweep never needs.
        from concurrent.futures import ProcessPoolExecutor

        # One contiguous chunk of seeds per worker, the larger chunks first;
        # the first failing chunk holds the first failure in seed order.
        size, extra = divmod(len(seeds), workers)
        chunks = [
            seeds[w * size + min(w, extra) : (w + 1) * size + min(w + 1, extra)]
            for w in range(workers)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_trials, cfg, c, trial_dirs) for c in chunks]
            rows_by_seed = {}
            for future in futures:
                rows_by_seed.update(future.result())
    fileio.atomic_write_text(out_dir / "sweep.csv", sweep_csv_text(rows_by_seed, cfg))
    return [*_data_inputs(cfg), *_noise_inputs(cfg)]


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
        if seed < 0:
            raise config.ConfigError(f"--seed must be non-negative, got {seed}")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `main` call and reused by
    later calls in the same process; never at import."""
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
    args = _parser().parse_args(argv)
    try:
        cfg = _apply_overrides(config.load_config(args.config), args.out, args.seed)
        out_dir = Path(cfg.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            key = "output.dir" if args.out is None else "--out"
            raise config.ConfigError(f"{key}: cannot create {out_dir}: {exc.strerror}")
        fileio.atomic_write_text(out_dir / "config.txt", cfg.raw)
        start = time.perf_counter()
        inputs = args.fn(cfg, out_dir)
        _write_manifest(out_dir, args.command, cfg, inputs, time.perf_counter() - start)
    except config.ConfigError as exc:
        print(f"volmin: config error: {exc}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
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
