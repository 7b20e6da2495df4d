"""Config parsing tests: protocol-constant defaults, the line format,
line-numbered rejections, cross-field validation, and the typed views."""

import inspect

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
        with pytest.raises(config.ConfigError, match="classes must be >= 2"):
            config.parse_config("data.classes = 1\n")

    def test_cap_range(self):
        with pytest.raises(config.ConfigError, match=r"cap must be in \(0, 1\]"):
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
        with pytest.raises(config.ConfigError, match=r"remove_anchor_fraction must be in"):
            config.parse_config("data.remove_anchor_fraction = 1.0\n")

    def test_val_fraction_range(self):
        with pytest.raises(config.ConfigError, match=r"val_fraction must be in \(0, 1\)"):
            config.parse_config("train.val_fraction = 0\n")

    def test_epochs_positive(self):
        with pytest.raises(config.ConfigError, match="must be positive"):
            config.parse_config("train.epochs = 0\n")

    def test_alpha_range(self):
        with pytest.raises(config.ConfigError, match=r"alpha must be in \(0, 100\)"):
            config.parse_config("estimators.alpha = 100\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("train.hidden = 0", r"train\.hidden must list at most two positive widths, got 0$"),
            ("train.hidden = 4,4,4", r"train\.hidden .* got 4,4,4$"),
            ("train.lr_schedule = 1:0", r"train\.lr_schedule divisors must be positive"),
            ("geometry.rays = 0", r"geometry\.rays and geometry\.trials must be positive"),
            ("geometry.trials = 0", r"geometry\.rays and geometry\.trials must be positive"),
            ("geometry.anchor_delta = 2", r"geometry\.anchor_delta must be in \[0, 1\], got 2\.0$"),
            ("data.generator = gaussian\ndata.d = -1", r"data\.d must be >= 0, got -1$"),
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

    def test_missing_file(self, tmp_path):
        with pytest.raises(config.ConfigError, match="cannot read config"):
            config.load_config(tmp_path / "absent.cfg")
