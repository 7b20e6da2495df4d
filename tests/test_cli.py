"""Command-line harness tests: pipeline artifacts, exit codes, the sweep
aggregate, re-run determinism, parallel parity, and the two documented
end-to-end examples (identity noise, anchor-free ordering)."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from volmin import cli, data, estimators, linalg, model, trainer

TINY = """\
data.generator = simplex
data.classes = 3
data.n = 400
data.profile = corner-rich
data.cap = 1.0
noise.kind = symmetric
noise.rate = 0.2
train.epochs = 4
train.batch_size = 64
train.hidden = 8
geometry.rays = 64
geometry.trials = 300
trials.seeds = 0
"""


# Astronomically large classifier steps overflow the weights within the
# first epoch, in the joint run and in the noisy-posterior fit's warm-up.
BLOWUP = TINY.replace("train.hidden = 8", "train.hidden = ").replace(
    "train.epochs = 4",
    "train.epochs = 2\ntrain.classifier_lr = 2e154\n"
    "train.classifier_weight_decay = 1e154",
)


def write_cfg(tmp_path, text, name="exp.cfg", out="out"):
    text = text + f"output.dir = {tmp_path / out}\n"
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines]


def mean_of(path, method):
    for parts in read_rows(path):
        if parts[0] == method and parts[1] == "mean±std":
            return float(parts[2].split("±")[0])
    raise AssertionError(f"no summary row for {method} in {path}")


class TestPipeline:
    def test_generate_corrupt_train_estimate(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "out"

        assert run("generate", "--config", cfg) == 0
        assert (out / "dataset.csv").exists()
        assert (out / "manifest.txt").exists()
        # the config is copied verbatim
        assert (out / "config.txt").read_text(encoding="utf-8") == cfg.read_text(
            encoding="utf-8"
        )

        assert run("corrupt", "--config", cfg) == 0
        assert (out / "dataset_noisy.csv").exists()
        t_true = linalg.read_matrix_text(out / "true_transition.txt")
        np.testing.assert_allclose(np.diag(t_true), 0.8)

        assert run("train-volmin", "--config", cfg) == 0
        for name in ("history.csv", "estimated_transition.txt",
                     "transition_weights.txt", "classifier.txt"):
            assert (out / name).exists(), name
        est = linalg.read_matrix_text(out / "estimated_transition.txt")
        np.testing.assert_allclose(est.sum(axis=0), 1.0, atol=1e-12)

        assert run("estimate-anchor", "--config", cfg) == 0
        assert (out / "classifier_noisy.txt").exists()
        assert (out / "estimated_transition_anchor_max.txt").exists()
        report = (out / "error_report.txt").read_text(encoding="utf-8")
        assert "anchor-max estimation_error = " in report

    def test_manifest_contents(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "out"
        run("generate", "--config", cfg)
        assert run("corrupt", "--config", cfg) == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert "command = corrupt\n" in manifest
        assert f"config_source = {cfg}\n" in manifest
        assert "seeds = 0\n" in manifest
        assert "input.dataset.csv = " in manifest
        assert "wall_time_seconds = " in manifest

    def test_check_scattered_reports(self, tmp_path):
        # corner-rich cap=1.0 has anchors; edge-scattered cap=0.9 does not,
        # yet stays sufficiently scattered.
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "out"
        run("generate", "--config", cfg)
        assert run("check-scattered", "--config", cfg) == 0
        report = (out / "scatter_report.txt").read_text(encoding="utf-8")
        assert "anchor_verdict=true" in report

        edge = TINY.replace("profile = corner-rich", "profile = edge-scattered")
        edge = edge.replace("cap = 1.0", "cap = 0.9")
        cfg2 = write_cfg(tmp_path, edge, name="edge.cfg", out="out_edge")
        run("generate", "--config", cfg2)
        assert run("check-scattered", "--config", cfg2) == 0
        report = (tmp_path / "out_edge" / "scatter_report.txt").read_text(
            encoding="utf-8"
        )
        assert "coverage_verdict=true" in report
        assert "anchor_verdict=false" in report
        assert "scattered_verdict=true" in report

    @pytest.mark.parametrize(
        "classes, n, noise, rate, digest",
        [
            (3, 4000, "pair", 0.45,
             "58024ac4b9b2dba4e604541437723d2713e0fc73103c564a1d8f60ab635b502b"),
            (10, 400, "symmetric", 0.4,
             "c89e2e2129e940f4cfdb6ae464d6e0de7f0b6a70025e26ee3bb02aa61b6e19f4"),
        ],
    )
    def test_scatter_benchmark_report_is_pinned(self, tmp_path, classes, n, noise, rate, digest):
        # The configs of the benchmark's `scatter` workload at seed 0. The
        # sha256 of each report was taken before the witness search skipped
        # any QR; a faster search must write the same bytes.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "data.generator = simplex\n"
            f"data.classes = {classes}\n"
            f"data.n = {n}\n"
            "data.profile = edge-scattered\n"
            "data.cap = 0.9\n"
            f"noise.kind = {noise}\n"
            f"noise.rate = {rate}\n"
            "estimators.methods = volmin, anchor-max\n"
            "trials.seeds = 0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        for command in ("generate", "corrupt", "check-scattered"):
            assert run(command, "--config", cfg, "--out", out) == 0
        report = (out / "scatter_report.txt").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest


class TestExitCodes:
    def test_missing_upstream_artifact(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY)
        assert run("train-volmin", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "missing upstream artifact" in err
        assert "dataset_noisy.csv" in err
        assert "run `volmin corrupt` with the same config first" in err

    def test_corrupt_names_generate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY)
        assert run("corrupt", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "dataset.csv" in err and "volmin generate" in err

    def test_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "data.bogus = 1\n", name="bad.cfg")
        assert run("generate", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "bad.cfg:1: unknown key 'bogus'" in err

    def test_unreadable_config(self, tmp_path, capsys):
        assert run("generate", "--config", tmp_path / "absent.cfg") == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_numerical_failure(self, tmp_path, capsys):
        # The trainer raises on the overflow and the CLI maps that to exit 3.
        cfg = write_cfg(tmp_path, BLOWUP, name="blowup.cfg")
        run("generate", "--config", cfg)
        run("corrupt", "--config", cfg)
        assert run("train-volmin", "--config", cfg) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "non-finite" in err
        assert not (tmp_path / "out" / "history.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_numerical_failure_crosses_the_process_pool(
        self, tmp_path, capsys, monkeypatch
    ):
        # The failure is raised in a sweep trial, so with VOLMIN_THREADS = 2
        # it must pickle back from the worker process with its message.
        cfg = write_cfg(tmp_path, BLOWUP.replace("trials.seeds = 0", "trials.seeds = 0, 1"))
        errs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VOLMIN_THREADS", threads)
            assert run("sweep", "--config", cfg, "--out", tmp_path / threads) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("volmin: numerical failure: seed 0 volmin: non-finite ")
        assert "Traceback" not in errs[0]
        monkeypatch.delenv("VOLMIN_THREADS")
        assert run("generate", "--config", cfg) == 0
        assert run("corrupt", "--config", cfg) == 0
        capsys.readouterr()
        assert run("estimate-anchor", "--config", cfg) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "volmin: numerical failure: seed 0 noisy-posterior fit: non-finite "
        )
        assert not (tmp_path / "out" / "classifier_noisy.txt").exists()

    @pytest.mark.parametrize(
        "command, make, message",
        [
            ("corrupt", "dataset.csv", "cannot read {out}/dataset.csv: Is a directory"),
            ("corrupt", "dataset.posterior.csv",
             "cannot read {out}/dataset.posterior.csv: Is a directory"),
            ("check-scattered", "dataset.posterior.csv",
             "cannot read {out}/dataset.posterior.csv: Is a directory"),
        ],
        ids=["dataset", "posterior", "scatter-posterior"],
    )
    def test_upstream_artifact_is_a_directory(self, tmp_path, capsys, command, make, message):
        # The OS refuses the file (IsADirectoryError); the message names the
        # file it refused, which may be the posterior sibling.
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "out"
        if make == "dataset.csv":
            (out / make).mkdir(parents=True)
        else:
            assert run("generate", "--config", cfg) == 0
            (out / make).unlink()
            (out / make).mkdir()
        capsys.readouterr()
        assert run(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err == f"volmin: {message.replace('{out}', str(out))}\n"
        assert not (out / "dataset_noisy.csv").exists()

    @pytest.mark.parametrize("where", ["config", "override"])
    @pytest.mark.parametrize(
        "target, reason",
        [("outfile", "File exists"), ("outfile/sub", "Not a directory")],
        ids=["file", "under-a-file"],
    )
    def test_output_dir_cannot_be_created(self, tmp_path, capsys, where, target, reason):
        (tmp_path / "outfile").write_text("", encoding="utf-8")
        out = tmp_path / target
        if where == "config":
            cfg = write_cfg(tmp_path, TINY, out=target)
            argv, key = (), "output.dir"
        else:
            cfg = write_cfg(tmp_path, TINY)
            argv, key = ("--out", out), "--out"
        assert run("generate", "--config", cfg, *argv) == 2
        err = capsys.readouterr().err
        assert err == (
            f"volmin: config error: {key}: cannot create {out}: {reason}\n"
        )

    def test_seed_dir_cannot_be_created(self, tmp_path, capsys):
        # A file where seed 0's directory goes: its set-up fails, which
        # stops the set-up of seed 1, and nothing trains.
        cfg = write_cfg(tmp_path, TINY.replace("trials.seeds = 0", "trials.seeds = 0, 1"))
        out = tmp_path / "out"
        out.mkdir()
        (out / "seed_0").write_text("", encoding="utf-8")
        assert run("sweep", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err == f"volmin: config error: cannot create {out / 'seed_0'}: File exists\n"
        assert "Traceback" not in err
        assert not (out / "seed_1").exists() and not (out / "sweep.csv").exists()

    def test_anchor_command_needs_anchor_method(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY + "estimators.methods = volmin\n")
        run("generate", "--config", cfg)
        run("corrupt", "--config", cfg)
        assert run("estimate-anchor", "--config", cfg) == 2
        assert "no anchor estimator" in capsys.readouterr().err
        # refused before the noisy-posterior fit trains anything
        assert not (tmp_path / "out" / "classifier_noisy.txt").exists()

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("dataset.csv", None, "dataset.csv:7: bad float 'oops'"),
            ("dataset.csv", "", "dataset.csv:1: empty file"),
            ("dataset.posterior.csv", "", "dataset.posterior.csv:1: empty file"),
        ],
    )
    def test_malformed_dataset_csv(self, tmp_path, capsys, name, text, message):
        cfg = write_cfg(tmp_path, TINY)
        assert run("generate", "--config", cfg) == 0
        path = tmp_path / "out" / name
        if text is None:
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[6] = "oops" + lines[6][lines[6].index(","):]
            text = "\n".join(lines) + "\n"
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run("corrupt", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "source, message",
        [
            ("dataset.csv", "bad csv: {dir}/out/dataset.csv:5: not UTF-8 text"),
            ("dataset.posterior.csv",
             "bad csv: {dir}/out/dataset.posterior.csv:5: not UTF-8 text"),
            ("data.path", "config error: data.path: {dir}/out/dataset.csv:5: not UTF-8 text"),
        ],
        ids=["dataset", "posterior", "data-path"],
    )
    def test_non_utf8_dataset_byte(self, tmp_path, capsys, source, message):
        # A stray 0xff byte used to end in a UnicodeDecodeError traceback.
        cfg = write_cfg(tmp_path, TINY)
        assert run("generate", "--config", cfg) == 0
        path = tmp_path / "out" / ("dataset.csv" if source == "data.path" else source)
        lines = path.read_bytes().split(b"\n")
        lines[4] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        command = "corrupt"
        if source == "data.path":
            text = TINY.replace("data.generator = simplex", "data.generator = csv")
            cfg = write_cfg(tmp_path, text + f"data.path = {path}\n", out="user")
            command = "generate"
        capsys.readouterr()
        assert run(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert message.replace("{dir}", str(tmp_path)) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "dataset_noisy.csv").exists()

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_non_utf8_config_byte(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, TINY)
        cfg.write_bytes(cfg.read_bytes().replace(b"corner-rich", b"corner\xffrich"))
        assert run(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"config error: {cfg}:4: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_malformed_user_csv(self, tmp_path, capsys):
        src = tmp_path / "mine.csv"
        src.write_text("x0,x1,y_clean\n0.5,0.5,1\n0.5,0.5,one\n", encoding="utf-8")
        cfg = write_cfg(
            tmp_path,
            TINY.replace("data.generator = simplex", "data.generator = csv")
            + f"data.path = {src}\n",
        )
        assert run("generate", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "mine.csv:3: bad label" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "dataset, posterior, message",
        [
            (
                "x0,x1,y_clean\n0.5,0.5,1\n0.5,0.5,3\n",
                None,
                "data.path: mine.csv:3: y_clean label 3 is outside [0, 3) for "
                "data.classes = 3",
            ),
            (
                "x0,x1,x2,y_clean\n0.5,0.5,0.0,1\n",
                "p0,p1\n0.5,0.5\n",
                "data.path: mine.posterior.csv:1: 2 posterior columns, expected 3 "
                "for data.classes = 3",
            ),
        ],
        ids=["label-out-of-range", "posterior-width"],
    )
    def test_user_csv_names_the_file_and_line_at_fault(
        self, tmp_path, capsys, dataset, posterior, message
    ):
        src = tmp_path / "mine.csv"
        src.write_text(dataset, encoding="utf-8")
        if posterior is not None:
            (tmp_path / "mine.posterior.csv").write_text(posterior, encoding="utf-8")
        cfg = write_cfg(
            tmp_path,
            TINY.replace("data.generator = simplex", "data.generator = csv")
            + f"data.path = {src}\n",
        )
        assert run("generate", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert message in err.replace(str(tmp_path) + os.sep, "")
        assert "Traceback" not in err

    def test_staged_csv_without_the_last_class(self, tmp_path):
        # The class count is data.classes, not the largest label read back:
        # no sample of class 2 (and no noise to flip one in) still gives 3x3
        # estimates, as sweep does.
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(200, 2))
        rows = [f"{a!r},{b!r},{int(a > b)}" for a, b in x.tolist()]
        src = tmp_path / "mine.csv"
        src.write_text("x0,x1,y_clean\n" + "\n".join(rows) + "\n", encoding="utf-8")
        text = TINY.replace("data.generator = simplex", "data.generator = csv")
        text = text.replace("noise.rate = 0.2", "noise.rate = 0.0")
        cfg = write_cfg(tmp_path, text + f"data.path = {src}\n")
        for command in ("generate", "corrupt", "train-volmin", "estimate-anchor"):
            assert run(command, "--config", cfg) == 0, command
        out = tmp_path / "out"
        for name in ("estimated_transition.txt", "estimated_transition_anchor_max.txt"):
            assert linalg.read_matrix_text(out / name).shape == (3, 3)

    @pytest.mark.parametrize(
        "command, lines, files, message",
        [
            (
                "corrupt",
                ["noise.kind = custom", "noise.matrix_path = {dir}/t.txt"],
                {"t.txt": "0.3,0.4,0.3\n0.4,0.3,0.3\n0.3,0.3,0.4\n"},
                "noise.matrix_path: {dir}/t.txt: transition is not diagonally dominant",
            ),
            (
                "corrupt",
                ["noise.kind = custom", "noise.matrix_path = {dir}/absent.txt"],
                {},
                "noise.matrix_path: cannot read {dir}/absent.txt",
            ),
            (
                "corrupt",
                ["noise.rate = 0.9"],
                {},
                "noise.rate: symmetric rate must lie in",
            ),
            (
                "generate",
                ["data.generator = gaussian", "data.means_path = {dir}/means.txt"],
                {"means.txt": "2.5,0,0\n0,oops,0\n0,0,2.5\n"},
                "data.means_path: {dir}/means.txt:2: bad float 'oops'",
            ),
            (
                "generate",
                ["data.generator = gaussian", "data.means_path = {dir}/absent.txt"],
                {},
                "data.means_path: cannot read {dir}/absent.txt",
            ),
            (
                "generate",
                ["data.generator = csv", "data.path = {dir}/absent.csv"],
                {},
                "data.path: cannot read {dir}/absent.csv",
            ),
        ],
        ids=["non-dominant-matrix", "missing-matrix", "rate-out-of-range",
             "bad-means-row", "missing-means", "missing-csv"],
    )
    def test_bad_input_file(self, tmp_path, capsys, command, lines, files, message):
        # A file a config key names is read in one place, which generate
        # (data.means_path, data.path) or corrupt (noise.matrix_path) shares
        # with sweep.
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        keys = {line.split(" = ")[0] for line in lines}
        kept = [line for line in TINY.splitlines() if line.split(" = ")[0] not in keys]
        text = "\n".join(kept + lines) + "\n"
        cfg = write_cfg(tmp_path, text.replace("{dir}", str(tmp_path)))
        message = message.replace("{dir}", str(tmp_path))
        if command == "corrupt":
            assert run("generate", "--config", cfg) == 0
        for argv in ((command,), ("sweep", "--out", tmp_path / "sweep")):
            capsys.readouterr()
            assert run(*argv, "--config", cfg) == 2
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, lines, message",
        [
            ("check-scattered", ["geometry.anchor_delta = 2"],
             "exp.cfg:14: bad value for geometry.anchor_delta: must be in [0, 1], got 2.0"),
            ("sweep", ["data.generator = gaussian", "data.d = -1"],
             "exp.cfg:14: bad value for data.d: must be >= 0, got -1"),
        ],
        ids=["anchor-delta-above-one", "gaussian-negative-d"],
    )
    def test_out_of_range_value(self, tmp_path, capsys, command, lines, message):
        # Both used to pass the config and end in a traceback from the stage
        # that uses the key, check-scattered only after its whole search.
        keys = {line.split(" = ")[0] for line in lines}
        kept = [line for line in TINY.splitlines() if line.split(" = ")[0] not in keys]
        cfg = write_cfg(tmp_path, "\n".join(kept + lines) + "\n")
        assert run(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("geometry.witness_tol = -1",
             "exp.cfg:14: bad value for geometry.witness_tol: must be >= 0, got -1.0"),
            ("geometry.coverage_tol = 0",
             "exp.cfg:14: bad value for geometry.coverage_tol: must be > 0, got 0.0"),
        ],
        ids=["witness-tol-negative", "coverage-tol-zero"],
    )
    def test_bad_scatter_tolerance_writes_no_report(self, tmp_path, capsys, line, message):
        # Each used to write a wrong report and exit 0: a negative witness_tol
        # hid the rotation witness, a zero coverage_tol failed every ray.
        cfg = write_cfg(tmp_path, TINY + line + "\n")
        assert run("check-scattered", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert message in err
        assert not (tmp_path / "out" / "scatter_report.txt").exists()

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("check-scattered", "geometry.coverage_tol = nan",
             "exp.cfg:14: bad value for geometry.coverage_tol: expected a finite"),
            ("train-volmin", "train.lam = nan",
             "exp.cfg:14: bad value for train.lam: expected a finite"),
        ],
        ids=["coverage-tol-nan", "lam-nan"],
    )
    def test_non_finite_value(self, tmp_path, capsys, command, line, message):
        # coverage_tol = nan used to write a failing verdict and exit 0;
        # lam = nan trained until the loss went non-finite and exited 3.
        cfg = write_cfg(tmp_path, TINY + line + "\n")
        assert run(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (
                TINY.replace("trials.seeds = 0", "trials.seeds = -1"),
                (),
                "exp.cfg:13: bad value for trials.seeds: must be non-negative, got -1",
            ),
            (TINY, ("--seed", -3), "config error: --seed must be non-negative, got -3"),
        ],
        ids=["config", "override"],
    )
    def test_negative_seed(self, tmp_path, capsys, text, argv, message):
        # numpy refuses a negative seed deep inside the generator; the
        # config check catches it first, and a negative --seed is blamed on
        # the command line, not the config file.
        cfg = write_cfg(tmp_path, text)
        assert run("generate", "--config", cfg, *argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_empty_split(self, tmp_path, capsys, monkeypatch):
        # Four samples leave the validation and test splits empty: each gets
        # round(0.1 * n) = 0 samples.
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        cfg = write_cfg(tmp_path, TINY.replace("data.n = 400", "data.n = 4"))
        assert run("sweep", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "config error: the validation split is empty" in err
        assert "data.n" in err and "train.val_fraction" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_balance_with_empty_class(self, tmp_path, capsys, monkeypatch):
        # Two samples cannot cover three noisy classes, so balancing by
        # undersampling has nothing to keep.
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        text = TINY.replace("data.n = 400", "data.n = 2") + "data.balance = true\n"
        cfg = write_cfg(tmp_path, text)
        assert run("sweep", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert re.search(r"config error: data\.balance = true: .* class \d has no", err)
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["train-volmin", "estimate-anchor"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2,oops\n", "true_transition.txt:1: bad float 'oops'"),
            (
                "0.8,0.2\n0.2,0.8\n",
                "true_transition.txt: expected a 3x3 matrix for data.classes = 3, "
                "got 2x2",
            ),
        ],
        ids=["unparseable", "wrong-shape"],
    )
    def test_malformed_true_transition(self, tmp_path, capsys, command, text, message):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "out"
        assert run("generate", "--config", cfg) == 0
        assert run("corrupt", "--config", cfg) == 0
        (out / "true_transition.txt").write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "malformed upstream artifact" in err and message in err
        assert "Traceback" not in err
        # refused before anything trains
        assert not list(out.glob("classifier*.txt"))

    def test_bad_threads_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VOLMIN_THREADS", "zero")
        cfg = write_cfg(tmp_path, TINY)
        assert run("sweep", "--config", cfg) == 2
        assert "VOLMIN_THREADS" in capsys.readouterr().err


SWEEP = """\
data.generator = simplex
data.classes = 3
data.n = 300
data.profile = corner-rich
data.cap = 1.0
noise.kind = symmetric
noise.rate = 0.2
train.epochs = 3
train.batch_size = 64
train.hidden = 8
estimators.methods = volmin, anchor-max, anchor-percentile
trials.seeds = 0, 1
"""


class TestSweep:
    def test_aggregate_structure(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        cfg = write_cfg(tmp_path, SWEEP)
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg) == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0] == ["method", "seed", "est_error", "test_accuracy",
                           "posterior_linf"]
        # per-seed rows grouped by method in config order, seeds in order
        body = [(r[0], r[1]) for r in rows[1:7]]
        assert body == [
            ("volmin", "0"), ("volmin", "1"),
            ("anchor-max", "0"), ("anchor-max", "1"),
            ("anchor-percentile", "0"), ("anchor-percentile", "1"),
        ]
        tail = [(r[0], r[1]) for r in rows[7:]]
        assert tail == [
            ("volmin", "mean±std"),
            ("anchor-max", "mean±std"),
            ("anchor-percentile", "mean±std"),
        ]
        # anchor rows leave the posterior column empty
        assert rows[3][4] == ""
        for s in (0, 1):
            assert (out / f"seed_{s}" / "estimated_transition.txt").exists()
            assert (out / f"seed_{s}" / "error_report.txt").exists()

    def test_rerun_is_byte_identical_except_manifest(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        cfg = write_cfg(tmp_path, SWEEP)
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg) == 0
        snapshot = {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.txt"
        }
        assert run("sweep", "--config", cfg) == 0
        after = {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.txt"
        }
        assert snapshot == after

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        # every output but manifest.txt (wall time, out_dir) is byte-identical
        cfg = write_cfg(tmp_path, SWEEP)
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        assert run("sweep", "--config", cfg, "--out", tmp_path / "out_a") == 0
        monkeypatch.setenv("VOLMIN_THREADS", "2")
        assert run("sweep", "--config", cfg, "--out", tmp_path / "out_b") == 0

        def outputs(out):
            return {
                p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "manifest.txt"
            }

        a = outputs(tmp_path / "out_a")
        assert Path("sweep.csv") in a and Path("seed_1", "history.csv") in a
        assert a == outputs(tmp_path / "out_b")

    def test_lockstep_groups_and_chunks_match_single_seed_sweeps(
        self, tmp_path, monkeypatch
    ):
        # Balanced, seeds 22 and 24 keep 285 rows and seed 23 keeps 264, so
        # one process trains two lockstep groups, {22, 24} and {23}; two
        # workers take the chunks {22, 23} and {24}. Each seed's files are
        # those of a sweep of that seed alone.
        seeds = (22, 23, 24)
        cfg = write_cfg(
            tmp_path, SWEEP.replace("trials.seeds = 0, 1", "trials.seeds = 22, 23, 24")
            + "data.balance = true\n"
        )

        def files(seed_dir):
            return {
                p.relative_to(seed_dir): p.read_bytes()
                for p in sorted(seed_dir.rglob("*"))
                if p.is_file() and p.name != "manifest.txt"
            }

        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        alone = {}
        for s in seeds:
            assert run("sweep", "--config", cfg, "--out", tmp_path / f"s{s}", "--seed", s) == 0
            alone[s] = files(tmp_path / f"s{s}" / f"seed_{s}")
        rows = [len(alone[s][Path("dataset_noisy.csv")].splitlines()) for s in seeds]
        assert rows[0] == rows[2] != rows[1]
        stacks, train = [], trainer.train

        def spy(train_sets, *args, **kwargs):
            stacks.append(len(train_sets))
            return train(train_sets, *args, **kwargs)

        monkeypatch.setattr(trainer, "train", spy)
        for threads in (None, "2"):
            if threads is not None:
                monkeypatch.setenv("VOLMIN_THREADS", threads)
            out = tmp_path / f"threads_{threads}"
            assert run("sweep", "--config", cfg, "--out", out) == 0
            for s in seeds:
                assert files(out / f"seed_{s}") == alone[s], (threads, s)
            if threads is None:
                # volmin, then the noisy fit, of group {22, 24}, then of {23}
                assert stacks == [2, 2, 1, 1]

    def test_singular_anchor_estimate_leaves_accuracy_empty(
        self, tmp_path, monkeypatch
    ):
        # At seed 31 the barely trained noisy-posterior fit puts two classes'
        # maxima on one training point, so an anchor estimate is singular: it
        # keeps its error and matrix file, but has no corrected accuracy.
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        cfg = write_cfg(tmp_path, SWEEP)
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--seed", "31") == 0
        rows = {r[0]: r for r in read_rows(out / "sweep.csv")[1:] if r[1] == "31"}
        singular = [m for m, r in rows.items() if r[3] == ""]
        assert singular and all(m.startswith("anchor-") for m in singular)
        for method in singular:
            assert float(rows[method][2]) >= 0.0
            name = method.replace("-", "_")
            matrix = linalg.read_matrix_text(
                out / "seed_31" / f"estimated_transition_{name}.txt"
            )
            assert np.linalg.matrix_rank(matrix) < matrix.shape[0]
        assert rows["volmin"][3] != ""

    def test_overflowing_inverse_leaves_accuracy_empty(self):
        # A subnormal pivot: LAPACK's inverse overflows instead of failing.
        params = model.init_classifier(2, (), 2, seed=0)
        test_set = data.gen_simplex_feature(2, 20, "corner-rich", seed=0)
        t_est = np.diag([1e-310, 1.0])
        h = model.forward_batch(params, test_set.x)
        assert cli._corrected_accuracy(h, t_est, test_set) is None


class TestSinglePipeline:
    """The staged commands and a sweep trial run the same stage functions."""

    def test_trial_files_match_generate_then_corrupt(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        for balance in ("false", "true"):
            cfg = write_cfg(tmp_path, SWEEP + f"data.balance = {balance}\n")
            staged, swept = tmp_path / f"staged_{balance}", tmp_path / f"swept_{balance}"
            assert run("generate", "--config", cfg, "--out", staged, "--seed", 3) == 0
            assert run("corrupt", "--config", cfg, "--out", staged, "--seed", 3) == 0
            assert run("sweep", "--config", cfg, "--out", swept, "--seed", 3) == 0
            for name in ("dataset.csv", "dataset.posterior.csv", "dataset_noisy.csv",
                         "dataset_noisy.posterior.csv", "true_transition.txt"):
                got = (swept / "seed_3" / name).read_bytes()
                assert (staged / name).read_bytes() == got, (balance, name)

    def test_each_anchor_estimate_computed_once(self, tmp_path, monkeypatch):
        # Both anchor methods read one forward pass of the noisy-posterior
        # fit over the training rows.
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        fits, train_xs, train_forwards = [], [], []
        original_fit, original_splits = estimators.fit_noisy_posterior, cli._splits
        original_forward = model.forward_batch

        def fit(*args, **kwargs):
            res = original_fit(*args, **kwargs)
            fits.extend(r.params for r in res)  # one lockstep call, both seeds
            return res

        def splits(*args, **kwargs):
            out = original_splits(*args, **kwargs)
            train_xs.append(out[0].x)
            return out

        def forward(params, x):
            train_forwards.extend(p is params and t is x for p, t in zip(fits, train_xs))
            return original_forward(params, x)

        monkeypatch.setattr(estimators, "fit_noisy_posterior", fit)
        monkeypatch.setattr(cli, "_splits", splits)
        monkeypatch.setattr(model, "forward_batch", forward)
        calls = {}
        for name in ("anchor_estimate_max", "anchor_estimate_percentile"):
            original = getattr(estimators, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(estimators, name, counted)
        cfg = write_cfg(tmp_path, SWEEP)
        assert run("sweep", "--config", cfg) == 0
        # two seeds, one call per anchor method and seed
        assert calls == {"anchor_estimate_max": 2, "anchor_estimate_percentile": 2}
        assert len(fits) == 2 and sum(train_forwards) == 2

    def test_test_set_forwarded_once_per_model(self, tmp_path, monkeypatch):
        # One trial forwards the volmin classifier and the noisy-posterior
        # fit over the test set once each; both anchor methods share the fit's.
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        test_xs, calls = [], []
        original_splits, original_forward = cli._splits, model.forward_batch

        def splits(*args, **kwargs):
            out = original_splits(*args, **kwargs)
            test_xs.append(out[2].x)
            return out

        def forward(params, x):
            calls.extend(x is t for t in test_xs)
            return original_forward(params, x)

        monkeypatch.setattr(cli, "_splits", splits)
        monkeypatch.setattr(model, "forward_batch", forward)
        cfg = write_cfg(tmp_path, SWEEP)
        assert run("sweep", "--config", cfg, "--seed", 3) == 0
        assert len(test_xs) == 1
        assert sum(calls) == 2

    @pytest.mark.parametrize("balance, per_trial", [(False, 1), (True, 2)])
    def test_x_rows_formatted_once_per_written_dataset(
        self, tmp_path, monkeypatch, balance, per_trial
    ):
        # dataset_noisy.csv reuses dataset.csv's row text, and the simplex
        # posterior reuses x's; a balanced subset is formatted afresh. Matrix
        # files and checkpoints, far smaller than a dataset, are not counted.
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        calls = []
        original = linalg.format_rows

        def counted(a):
            if a.shape[0] > 100:
                calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(linalg, "format_rows", counted)
        cfg = write_cfg(tmp_path, SWEEP + ("data.balance = true\n" if balance else ""))
        assert run("sweep", "--config", cfg) == 0
        assert len(calls) == 2 * per_trial  # two seeds

    def test_manifest_lists_the_files_read(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        (tmp_path / "means.txt").write_text("2.5,0,0\n0,2.5,0\n0,0,2.5\n")
        (tmp_path / "t.txt").write_text("0.8,0.1,0.1\n0.1,0.8,0.1\n0.1,0.1,0.8\n")
        text = TINY.replace("data.generator = simplex", "data.generator = gaussian")
        text += f"data.means_path = {tmp_path / 'means.txt'}\n"
        custom = text.replace("noise.kind = symmetric", "noise.kind = custom")
        custom += f"noise.matrix_path = {tmp_path / 't.txt'}\n"
        out = tmp_path / "out"

        def manifest_inputs(command, cfg_text):
            cfg = write_cfg(tmp_path, cfg_text)
            assert run(command, "--config", cfg) == 0
            lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
            return [ln.split(" = ")[0] for ln in lines if ln.startswith("input.")]

        assert manifest_inputs("generate", custom) == ["input.means.txt"]
        assert manifest_inputs("corrupt", custom) == ["input.dataset.csv", "input.t.txt"]
        assert manifest_inputs("sweep", custom) == ["input.means.txt", "input.t.txt"]
        # a matrix file that the noise kind does not read is not an input
        unread = text + f"noise.matrix_path = {tmp_path / 'absent.txt'}\n"
        assert manifest_inputs("corrupt", unread) == ["input.dataset.csv"]


class TestOverrides:
    def test_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        cfg = write_cfg(tmp_path, SWEEP)
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--seed", "7") == 0
        assert (out / "seed_7").is_dir()
        assert not (out / "seed_0").exists()
        seeds = {r[1] for r in read_rows(out / "sweep.csv")[1:] if r[1] != "mean±std"}
        assert seeds == {"7"}
        assert "seeds = 7\n" in (out / "manifest.txt").read_text(encoding="utf-8")

    def test_out_override(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        other = tmp_path / "elsewhere"
        assert run("generate", "--config", cfg, "--out", other) == 0
        assert (other / "dataset.csv").exists()
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_parser_built_on_first_call_and_reused(self, tmp_path):
        # importing the CLI builds no parser; the one built on the first
        # call serves the next, and each call's overrides stay its own
        proc = subprocess.run(
            [sys.executable, "-c",
             "from volmin import cli; print(cli._parser.cache_info().currsize)"],
            capture_output=True, text=True,
        )
        assert proc.stdout == "0\n", proc.stderr
        cfg = write_cfg(tmp_path, TINY)
        assert run("generate", "--config", cfg, "--seed", "1", "--out", tmp_path / "a") == 0
        assert run("generate", "--config", cfg) == 0
        assert "seeds = 1\n" in (tmp_path / "a" / "manifest.txt").read_text(encoding="utf-8")
        assert "seeds = 0\n" in (tmp_path / "out" / "manifest.txt").read_text(encoding="utf-8")


class TestDocumentedExamples:
    def test_identity_noise_recovers_identity(self, tmp_path, monkeypatch):
        # Corrupting with the identity (rate 0) leaves labels clean; the
        # sweep's estimated transition should be the identity to within 0.02
        # estimation error. Every off-diagonal gate must travel toward 0;
        # the natural-gradient transition steps keep moving there at a
        # learning rate of 0.1 (the plain gradient, which stalls in the
        # sigmoid tail, needed 2.0).
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        text = "\n".join(
            [
                "data.generator = simplex",
                "data.classes = 3",
                "data.n = 3000",
                "data.profile = edge-scattered",
                "data.cap = 0.9",
                "noise.kind = symmetric",
                "noise.rate = 0.0",
                "train.epochs = 150",
                "train.batch_size = 128",
                "train.hidden = 16",
                "train.transition_lr = 0.1",
                "estimators.methods = volmin",
                "trials.seeds = 0",
                "",
            ]
        )
        cfg = write_cfg(tmp_path, text, name="ident.cfg")
        assert run("sweep", "--config", cfg) == 0
        assert mean_of(tmp_path / "out" / "sweep.csv", "volmin") < 0.02

    def test_anchor_free_ordering(self, tmp_path, monkeypatch):
        # No anchors by construction (cap 0.9) plus the removal preset: the
        # joint estimator must beat the anchor-point baseline on mean
        # estimation error.
        monkeypatch.delenv("VOLMIN_THREADS", raising=False)
        text = "\n".join(
            [
                "data.generator = simplex",
                "data.classes = 3",
                "data.n = 4000",
                "data.profile = edge-scattered",
                "data.cap = 0.9",
                "data.remove_anchor_fraction = 0.1",
                "noise.kind = symmetric",
                "noise.rate = 0.3",
                "train.epochs = 150",
                "train.batch_size = 128",
                "train.hidden = 16",
                "train.transition_lr = 0.15",
                "estimators.methods = volmin, anchor-max",
                "trials.seeds = 0, 1",
                "",
            ]
        )
        cfg = write_cfg(tmp_path, text, name="na.cfg")
        assert run("sweep", "--config", cfg) == 0
        sweep = tmp_path / "out" / "sweep.csv"
        assert mean_of(sweep, "volmin") < mean_of(sweep, "anchor-max")
