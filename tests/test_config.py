"""Config parsing tests: protocol-constant defaults, the line format,
line-numbered rejections, each key's range, cross-field validation, the
typed views, and the README's key table."""

import inspect
import re
from pathlib import Path

import pytest

from volmin import config, geometry, trainer


class TestDefaults:
    def test_protocol_constants(self):
        # The load-bearing defaults: volume weight, validation fraction,
        # and the five-seed repetition protocol.
        cfg = config.default_config()
        assert cfg.get("train", "lam") == 1e-4
        assert trainer.DEFAULT_VOLUME_WEIGHT == 1e-4
        assert cfg.get("train", "val_fraction") == 0.1
        assert cfg.seeds == (0, 1, 2, 3, 4)

    def test_train_defaults(self):
        cfg = config.default_config()
        t = cfg.values["train"]
        assert t["epochs"] == 150
        assert t["batch_size"] == 128
        assert t["hidden"] == (32,)
        assert t["classifier_lr"] == 1e-2
        assert t["classifier_momentum"] == 0.9
        assert t["classifier_weight_decay"] == 1e-3
        assert t["transition_lr"] == 1e-2
        assert t["lr_schedule"] == ()
        assert t["selection_metric"] == "noisy-val-loss"

    def test_data_and_estimator_defaults(self):
        cfg = config.default_config()
        assert cfg.get("data", "generator") == "simplex"
        assert cfg.get("data", "classes") == 3
        assert cfg.get("data", "n") == 20000
        assert cfg.get("data", "profile") == "edge-scattered"
        assert cfg.get("data", "cap") == 1.0
        assert cfg.get("estimators", "methods") == ("volmin", "anchor-max")
        assert cfg.get("estimators", "alpha") == 3.0
        assert cfg.get("geometry", "anchor_delta") == 0.05
        assert cfg.out_dir == "out"

    def test_empty_document_equals_defaults(self):
        assert config.parse_config("").values == config.default_config().values

    def test_geometry_defaults_are_analyze_scattering_defaults(self):
        params = inspect.signature(geometry.analyze_scattering).parameters
        g = config.default_config().values["geometry"]
        assert g == {key: params[key].default for key in g}


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        cfg = config.parse_config("# comment\n\n  \ndata.classes = 4\n")
        assert cfg.get("data", "classes") == 4

    def test_value_types(self):
        text = "\n".join(
            [
                "data.classes = 5",
                "data.cap = 0.9",
                "data.balance = true",
                "noise.kind = pair",
                "train.hidden = 64, 32",
                "train.lr_schedule = 30:10, 60:2",
                "estimators.methods = volmin, anchor-percentile",
                "trials.seeds = 7,8",
            ]
        )
        cfg = config.parse_config(text)
        assert cfg.get("data", "classes") == 5
        assert cfg.get("data", "cap") == 0.9
        assert cfg.get("data", "balance") is True
        assert cfg.get("noise", "kind") == "pair"
        assert cfg.get("train", "hidden") == (64, 32)
        assert cfg.get("train", "lr_schedule") == ((30, 10.0), (60, 2.0))
        assert cfg.get("estimators", "methods") == ("volmin", "anchor-percentile")
        assert cfg.seeds == (7, 8)

    def test_empty_hidden_means_linear_model(self):
        cfg = config.parse_config("train.hidden = \n")
        assert cfg.get("train", "hidden") == ()

    def test_raw_text_preserved_verbatim(self):
        text = "# keep me\ndata.classes = 4\n"
        assert config.parse_config(text).raw == text

    def test_whitespace_around_tokens(self):
        cfg = config.parse_config("   data.classes   =    4   ")
        assert cfg.get("data", "classes") == 4


class TestRejections:
    def test_missing_equals(self):
        with pytest.raises(config.ConfigError, match=r"<text>:2: expected `section\.key = value`"):
            config.parse_config("data.classes = 3\ndata.n 50\n")

    def test_undotted_name(self):
        with pytest.raises(config.ConfigError, match=r"<text>:1: expected a dotted"):
            config.parse_config("classes = 3\n")

    def test_unknown_section(self):
        with pytest.raises(config.ConfigError, match=r"<text>:1: unknown section 'model'"):
            config.parse_config("model.hidden = 32\n")

    def test_unknown_key(self):
        with pytest.raises(config.ConfigError, match=r"<text>:1: unknown key 'bogus' in section 'data'"):
            config.parse_config("data.bogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(config.ConfigError, match=r"<text>:3: duplicate key data\.classes"):
            config.parse_config("data.classes = 3\n\ndata.classes = 4\n")

    @pytest.mark.parametrize(
        "text",
        ["data.n = 5\x0c\ndata.classes = 1\n", "data.n = 5\x0b\x85\u2028\ndata.classes = 1\n",
         "data.n = 5\rdata.classes = 1\r", "data.n = 5\r\ndata.classes = 1\r\n"],
        ids=["form-feed", "other-separators", "cr", "crlf"],
    )
    def test_line_numbers_count_newlines_only(self, text):
        # Only LF, CRLF and CR end a line, as in an editor; str.splitlines
        # also breaks at form feed and put this error on line 3.
        with pytest.raises(config.ConfigError, match=r"^x\.cfg:2: bad value for data\.classes"):
            config.parse_config(text, "x.cfg")

    def test_bad_int(self):
        with pytest.raises(config.ConfigError, match=r"<text>:1: bad value for data\.classes"):
            config.parse_config("data.classes = many\n")

    def test_bad_bool(self):
        with pytest.raises(config.ConfigError, match="expected true or false"):
            config.parse_config("data.balance = yes\n")

    def test_bad_choice(self):
        with pytest.raises(config.ConfigError, match="expected one of"):
            config.parse_config("noise.kind = flip\n")

    def test_bad_schedule_entry(self):
        with pytest.raises(config.ConfigError, match="is not epoch:divisor"):
            config.parse_config("train.lr_schedule = 30\n")

    def test_unknown_method(self):
        with pytest.raises(config.ConfigError, match="unknown method 'blended'"):
            config.parse_config("estimators.methods = blended\n")

    def test_repeated_method(self):
        with pytest.raises(config.ConfigError, match="listed twice"):
            config.parse_config("estimators.methods = volmin, volmin\n")

    @pytest.mark.parametrize(
        "line",
        [
            "geometry.coverage_tol = nan",
            "train.lam = nan",
            "data.cap = inf",
            "estimators.alpha = -inf",
            "train.lr_schedule = 30:10,60:inf",
        ],
    )
    def test_non_finite_float(self, line):
        # nan passes every range check (each comparison is false), so it
        # used to reach the stage that reads the key.
        key = line.split(" = ")[0].replace(".", r"\.")
        with pytest.raises(
            config.ConfigError,
            match=rf"<text>:2: bad value for {key}: expected a finite number, got '-?(nan|inf)'$",
        ):
            config.parse_config("data.classes = 3\n" + line + "\n")


class TestCrossValidation:
    def test_transition_momentum_range(self):
        with pytest.raises(config.ConfigError, match="train.transition_momentum"):
            config.parse_config("train.transition_momentum = 1.0\n")

    def test_csv_requires_path(self):
        with pytest.raises(config.ConfigError, match=r"data\.generator = csv requires data\.path"):
            config.parse_config("data.generator = csv\n")

    def test_custom_noise_requires_matrix(self):
        with pytest.raises(config.ConfigError, match=r"noise\.kind = custom requires"):
            config.parse_config("noise.kind = custom\n")

    def test_classes_lower_bound(self):
        with pytest.raises(config.ConfigError, match=r"data\.classes: must be >= 2, got 1$"):
            config.parse_config("data.classes = 1\n")

    def test_cap_range(self):
        with pytest.raises(config.ConfigError, match=r"data\.cap: must be in \(0, 1\], got 1\.5$"):
            config.parse_config("data.cap = 1.5\n")

    def test_simplex_cap_exceeds_uniform(self):
        # The simplex generator caps the largest posterior entry, which is
        # at least 1/classes; gaussian and csv data ignore the cap.
        with pytest.raises(config.ConfigError, match=r"cap must exceed 1/data.classes = 1/3"):
            config.parse_config("data.cap = 0.3\n")
        with pytest.raises(config.ConfigError, match=r"1/data.classes = 1/2"):
            config.parse_config("data.classes = 2\ndata.cap = 0.5\n")
        cfg = config.parse_config("data.classes = 4\ndata.cap = 0.3\n")
        assert cfg.get("data", "cap") == 0.3
        config.parse_config("data.generator = gaussian\ndata.cap = 0.3\n")

    def test_remove_anchor_fraction_range(self):
        with pytest.raises(
            config.ConfigError, match=r"remove_anchor_fraction: must be in \[0, 1\), got 1\.0$"
        ):
            config.parse_config("data.remove_anchor_fraction = 1.0\n")

    def test_val_fraction_range(self):
        with pytest.raises(
            config.ConfigError, match=r"val_fraction: must be in \(0, 1\), got 0\.0$"
        ):
            config.parse_config("train.val_fraction = 0\n")

    def test_epochs_positive(self):
        with pytest.raises(config.ConfigError, match=r"train\.epochs: must be >= 1, got 0$"):
            config.parse_config("train.epochs = 0\n")

    def test_alpha_range(self):
        with pytest.raises(config.ConfigError, match=r"alpha: must be in \(0, 100\), got 100\.0$"):
            config.parse_config("estimators.alpha = 100\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("train.hidden = 0", r"train\.hidden: must list at most two positive widths, got 0$"),
            ("train.hidden = 4,4,4", r"train\.hidden: .* got 4,4,4$"),
            ("train.lr_schedule = 1:0",
             r"train\.lr_schedule: divisors must be positive, got '1:0'$"),
            ("geometry.rays = 0", r"geometry\.rays: must be >= 1, got 0$"),
            ("geometry.trials = 0", r"geometry\.trials: must be >= 1, got 0$"),
            ("geometry.anchor_delta = 2",
             r"geometry\.anchor_delta: must be in \[0, 1\], got 2\.0$"),
            ("data.generator = gaussian\ndata.d = -1",
             r"<text>:2: bad value for data\.d: must be >= 0, got -1$"),
        ],
        ids=["hidden-zero", "hidden-three-layers", "schedule-zero-divisor",
             "rays-zero", "trials-zero", "anchor-delta-above-one", "gaussian-negative-d"],
    )
    def test_ranges_the_pipeline_enforces(self, line, message):
        # Each of these used to pass the config and crash inside the stage
        # that uses the key (model init, the learning-rate schedule, the
        # scattering checks, the gaussian generator).
        with pytest.raises(config.ConfigError, match=message):
            config.parse_config(line + "\n")

    def test_seeds_nonempty(self):
        with pytest.raises(config.ConfigError, match="at least one seed"):
            config.parse_config("trials.seeds = \n")

    def test_seeds_unique(self):
        with pytest.raises(config.ConfigError, match="repeated seed"):
            config.parse_config("trials.seeds = 1, 1\n")

    def test_seeds_non_negative(self):
        with pytest.raises(
            config.ConfigError,
            match=r"^<text>:1: bad value for trials\.seeds: must be non-negative, got -1$",
        ):
            config.parse_config("trials.seeds = 0, -1\n")

    def test_constructed_config_is_validated(self):
        # A config built from overridden values passes the same cross-key checks.
        values = config.default_config().values
        values["data"]["generator"] = "csv"
        with pytest.raises(config.ConfigError, match="exp.cfg: data.generator = csv requires"):
            config.ExperimentConfig(values=values, source="exp.cfg")


# One out-of-range value per key whose schema entry owns a range, and the
# rule its message states.
KEY_RANGES = [
    ("data.classes", "1", "must be >= 2, got 1"),
    ("data.n", "0", "must be >= 1, got 0"),
    ("data.d", "-1", "must be >= 0, got -1"),
    ("data.cap", "0", "must be in (0, 1], got 0.0"),
    ("data.remove_anchor_fraction", "-0.1", "must be in [0, 1), got -0.1"),
    ("train.epochs", "0", "must be >= 1, got 0"),
    ("train.batch_size", "-4", "must be >= 1, got -4"),
    ("train.hidden", "8, 0", "must list at most two positive widths, got 8, 0"),
    ("train.classifier_momentum", "5", "must be in [0, 1), got 5.0"),
    ("train.transition_momentum", "-0.5", "must be in [0, 1), got -0.5"),
    ("train.lr_schedule", "5:2, 9:-1", "divisors must be positive, got '9:-1'"),
    ("train.val_fraction", "1", "must be in (0, 1), got 1.0"),
    ("estimators.alpha", "0", "must be in (0, 100), got 0.0"),
    ("geometry.rays", "0", "must be >= 1, got 0"),
    ("geometry.trials", "-2", "must be >= 1, got -2"),
    ("geometry.coverage_tol", "0", "must be > 0, got 0.0"),
    ("geometry.witness_tol", "-1", "must be >= 0, got -1.0"),
    ("geometry.anchor_delta", "-0.5", "must be in [0, 1], got -0.5"),
    ("trials.seeds", "3, 3", "must not list a repeated seed, got 3,3"),
]


class TestKeyRanges:
    @pytest.mark.parametrize("key, value, rule", KEY_RANGES, ids=[k for k, _, _ in KEY_RANGES])
    def test_out_of_range_names_file_line_and_key(self, tmp_path, key, value, rule):
        p = tmp_path / "exp.cfg"
        p.write_text(f"# ranges\noutput.dir = out\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(config.ConfigError) as err:
            config.load_config(p)
        assert str(err.value) == f"{p}:3: bad value for {key}: {rule}"

    @pytest.mark.parametrize(
        "line",
        [
            "data.cap = 1",
            "data.remove_anchor_fraction = 0",
            "data.d = 0",
            "train.classifier_momentum = 0",
            "train.transition_momentum = 0",
            "geometry.coverage_tol = 1e-300",
            "geometry.witness_tol = 0",
            "geometry.anchor_delta = 0",
            "geometry.anchor_delta = 1",
            "trials.seeds = 0",
        ],
    )
    def test_closed_ends_and_open_neighbours_accepted(self, line):
        key, _, value = line.partition(" = ")
        section, _, name = key.partition(".")
        parse, _ = config.SCHEMA[section][name]
        assert config.parse_config(line + "\n").get(section, name) == parse(value)


class TestTypedViews:
    def test_noise_spec_mapping(self):
        cfg = config.parse_config("noise.kind = pair\nnoise.rate = 0.45\ndata.classes = 3\n")
        spec = cfg.noise_spec()
        assert spec.kind == "pair"
        assert spec.classes == 3
        assert spec.rate == 0.45
        assert spec.matrix_path is None

    def test_train_config_mapping(self):
        text = "\n".join(
            [
                "train.lam = 0.001",
                "train.epochs = 12",
                "train.batch_size = 64",
                "train.hidden = 8,4",
                "train.classifier_lr = 0.2",
                "train.classifier_momentum = 0.5",
                "train.classifier_weight_decay = 0.01",
                "train.transition_lr = 0.05",
                "train.transition_momentum = 0.3",
                "train.lr_schedule = 6:10",
                "train.selection_metric = noisy-val-accuracy",
            ]
        )
        tc = config.parse_config(text).train_config(seed=9)
        assert tc.lam == 0.001
        assert tc.epochs == 12
        assert tc.batch_size == 64
        assert tc.seed == 9
        assert tc.hidden == (8, 4)
        assert tc.classifier_opt.kind == "sgd"
        assert tc.classifier_opt.lr == 0.2
        assert tc.classifier_opt.momentum == 0.5
        assert tc.classifier_opt.weight_decay == 0.01
        assert tc.transition_opt.kind == "sgd"
        assert tc.transition_opt.lr == 0.05
        assert tc.transition_opt.weight_decay == 0.0
        assert tc.transition_opt.momentum == 0.3
        assert tc.lr_schedule == ((6, 10.0),)
        assert tc.selection_metric == "noisy-val-accuracy"

    def test_default_train_config_matches_trainer_defaults(self):
        tc = config.default_config().train_config(seed=0)
        dt = trainer.TrainConfig()
        assert tc == dt


class TestLoadConfig:
    def test_loads_file_and_reports_path_in_errors(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("data.classes = 4\n", encoding="utf-8")
        cfg = config.load_config(p)
        assert cfg.get("data", "classes") == 4
        assert cfg.source == str(p)

        bad = tmp_path / "bad.cfg"
        bad.write_text("data.bogus = 1\n", encoding="utf-8")
        with pytest.raises(config.ConfigError, match="bad.cfg:1: unknown key"):
            config.load_config(bad)

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_bytes(b"data.classes = 4\r\n# caf\xff\r\n")
        with pytest.raises(config.ConfigError, match=r"exp\.cfg:2: not UTF-8 text$"):
            config.load_config(p)

    def test_non_utf8_byte_line_counts_cr_line_ends(self, tmp_path):
        # A lone CR ends a line, as parse_config counts lines.
        p = tmp_path / "exp.cfg"
        p.write_bytes(b"data.classes = 4\rdata.n = 50\r# caf\xff\r")
        with pytest.raises(config.ConfigError, match=r"exp\.cfg:3: not UTF-8 text$"):
            config.load_config(p)

    def test_crlf_text_kept_as_read(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_bytes(b"data.classes = 4\r\ndata.n = 50\r\n")
        cfg = config.load_config(p)
        assert cfg.raw == "data.classes = 4\ndata.n = 50\n"
        assert cfg.get("data", "n") == 50

    def test_missing_file(self, tmp_path):
        with pytest.raises(config.ConfigError, match="cannot read config"):
            config.load_config(tmp_path / "absent.cfg")


class TestReadmeKeyTable:
    def test_every_key_once_with_its_default(self):
        # The README's config table is the user's reference: each schema key
        # appears once, and its default cell parses to the schema default.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        rows = [
            [cell.strip() for cell in line.split("|")[1:-1]]
            for line in readme.read_text(encoding="utf-8").splitlines()
            if re.match(r"\| [a-z]+\.[a-z_]+ \|", line)
        ]
        keys = [f"{section}.{key}" for section, names in config.SCHEMA.items() for key in names]
        assert sorted(row[0] for row in rows) == sorted(keys)
        for name, default_cell, *_ in rows:
            section, _, key = name.partition(".")
            parse, default = config.SCHEMA[section][key]
            assert parse(default_cell) == default, name
