"""Experiment configuration: a line-oriented `section.key = value` format.

The format is deliberately minimal so that a config diff reads like a
protocol diff. Rules:

  - blank lines and lines starting with `#` are ignored
  - every other line must be `section.key = value`
  - every (section, key) pair must appear in the schema below; unknown
    sections or keys are errors, as are duplicate assignments
  - values are parsed per key: int, float, bool (true/false), string,
    a choice from a fixed set, a comma-separated int list, or an
    epoch:divisor schedule such as `30:10,60:10`
  - each key's parser checks its range (`data.classes` >= 2, ...) as its
    line is parsed; only the three rules that span keys (csv needs
    `data.path`, custom noise `noise.matrix_path`, simplex `data.cap` >
    1/`data.classes`) are checked on the whole document, without a line

Sections: `data` (what to generate or load), `noise` (label corruption),
`train` (joint training hyperparameters), `estimators` (which transition
estimators a sweep compares and the percentile level), `geometry`
(scattering-check sizes and tolerances), `trials` (seed list), and
`output` (directory). Every key has a default, so the empty document is a
valid config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import data, estimators, fileio, geometry, noise, trainer

DEFAULT_SEEDS = (0, 1, 2, 3, 4)

GENERATORS = ("simplex", "gaussian", "csv")
METHODS = ("volmin", *estimators.TWO_STAGE)


class ConfigError(ValueError):
    """Raised for any malformed or out-of-schema config content."""


def _int(text: str) -> int:
    return int(text, 10)


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _choice(*options: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {text!r}")
        return text

    return parse


def _ranged(parse, low, high=math.inf, ends="[]"):
    """`parse`, then require low <= value <= high; a `(` or `)` in `ends`
    makes that end open."""
    rule = f"in {ends[0]}{low:g}, {high:g}{ends[1]}"
    if high == math.inf:
        rule = (">" if ends[0] == "(" else ">=") + f" {low:g}"

    def parse_in_range(text: str):
        value = parse(text)
        above = value > low if ends[0] == "(" else value >= low
        below = value < high if ends[1] == ")" else value <= high
        if not (above and below):
            raise ValueError(f"must be {rule}, got {value!r}")
        return value

    return parse_in_range


def _int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(part.strip(), 10) for part in text.split(","))


def _widths(text: str) -> tuple[int, ...]:
    widths = _int_list(text)
    if len(widths) > 2 or any(w < 1 for w in widths):
        raise ValueError(f"must list at most two positive widths, got {text}")
    return widths


def _seeds(text: str) -> tuple[int, ...]:
    seeds = _int_list(text)
    if not seeds:
        raise ValueError("must list at least one seed")
    if min(seeds) < 0:
        raise ValueError(f"must be non-negative, got {min(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"must not list a repeated seed, got {','.join(map(str, seeds))}")
    return seeds


def _method_list(text: str) -> tuple[str, ...]:
    if not text:
        raise ValueError("need at least one method")
    out = []
    for part in text.split(","):
        name = part.strip()
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {', '.join(METHODS)}")
        if name in out:
            raise ValueError(f"method {name!r} listed twice")
        out.append(name)
    return tuple(out)


def _schedule(text: str) -> tuple[tuple[int, float], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        epoch_text, _, div_text = part.strip().partition(":")
        if not div_text:
            raise ValueError(f"schedule entry {part.strip()!r} is not epoch:divisor")
        divisor = _float(div_text)
        if not divisor > 0.0:
            raise ValueError(f"divisors must be positive, got {part.strip()!r}")
        out.append((int(epoch_text, 10), divisor))
    return tuple(out)


# The training protocol's defaults, which the `train` section reads.
_TRAIN = trainer.TrainConfig()

# Schema: section -> key -> (parser, default). Each parser checks its key's
# range; defaults are the protocol constants.
SCHEMA = {
    "data": {
        "generator": (_choice(*GENERATORS), "simplex"),
        "classes": (_ranged(_int, 2), 3),
        "n": (_ranged(_int, 1), 20000),
        "profile": (_choice(*data.SIMPLEX_PROFILES), "edge-scattered"),
        "cap": (_ranged(_float, 0, 1, "(]"), 1.0),
        "remove_anchor_fraction": (_ranged(_float, 0, 1, "[)"), 0.0),
        "balance": (_bool, False),
        "d": (_ranged(_int, 0), 0),  # gaussian feature dim; 0 means "same as classes"
        "means_path": (str, ""),
        "path": (str, ""),  # CSV input for generator = csv
    },
    "noise": {
        "kind": (_choice(*noise.NOISE_KINDS), "symmetric"),
        "rate": (_float, 0.0),
        "matrix_path": (str, ""),
    },
    "train": {
        "lam": (_ranged(_float, 0), _TRAIN.lam),
        "epochs": (_ranged(_int, 1), _TRAIN.epochs),
        "batch_size": (_ranged(_int, 1), _TRAIN.batch_size),
        "hidden": (_widths, _TRAIN.hidden),
        "classifier_lr": (_ranged(_float, 0), _TRAIN.classifier_opt.lr),
        "classifier_momentum": (_ranged(_float, 0, 1, "[)"), _TRAIN.classifier_opt.momentum),
        "classifier_weight_decay": (_ranged(_float, 0), _TRAIN.classifier_opt.weight_decay),
        "transition_lr": (_ranged(_float, 0), _TRAIN.transition_opt.lr),
        "transition_momentum": (_ranged(_float, 0, 1, "[)"), _TRAIN.transition_opt.momentum),
        "lr_schedule": (_schedule, _TRAIN.lr_schedule),
        "selection_metric": (_choice(*trainer.SELECTION_METRICS), _TRAIN.selection_metric),
        "val_fraction": (_ranged(_float, 0, 1, "()"), 0.1),
    },
    "estimators": {
        "methods": (_method_list, _method_list("volmin, anchor-max")),
        "alpha": (_ranged(_float, 0, 100, "()"), 3.0),
    },
    "geometry": {
        "rays": (_ranged(_int, 1), geometry.DEFAULT_RAY_COUNT),
        "trials": (_ranged(_int, 1), geometry.DEFAULT_WITNESS_TRIALS),
        "coverage_tol": (_ranged(_float, 0, ends="(]"), geometry.DEFAULT_COVERAGE_TOL),
        "witness_tol": (_ranged(_float, 0), geometry.DEFAULT_WITNESS_TOL),
        "anchor_delta": (_ranged(_float, 0, 1), geometry.DEFAULT_ANCHOR_DELTA),
    },
    "trials": {
        "seeds": (_seeds, DEFAULT_SEEDS),
    },
    "output": {
        "dir": (str, "out"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, schema-complete config plus the raw text it came from. The
    cross-key rules are checked on construction, so values overridden after
    parsing pass them too; each key's own range is its parser's."""

    values: dict
    raw: str = ""
    source: str = "<text>"

    def __post_init__(self):
        _cross_validate(self.values, self.source)

    def get(self, section: str, key: str):
        return self.values[section][key]

    # -- typed views used by the commands ---------------------------------

    def noise_spec(self) -> noise.NoiseSpec:
        return noise.NoiseSpec(
            kind=self.get("noise", "kind"),
            classes=self.get("data", "classes"),
            rate=self.get("noise", "rate"),
            matrix_path=self.get("noise", "matrix_path") or None,
        )

    def train_config(self, seed: int) -> trainer.TrainConfig:
        t = self.values["train"]
        return trainer.TrainConfig(
            lam=t["lam"],
            epochs=t["epochs"],
            batch_size=t["batch_size"],
            seed=seed,
            hidden=t["hidden"],
            classifier_opt=trainer.sgd(
                t["classifier_lr"],
                momentum=t["classifier_momentum"],
                weight_decay=t["classifier_weight_decay"],
            ),
            transition_opt=trainer.sgd(
                t["transition_lr"], momentum=t["transition_momentum"]
            ),
            lr_schedule=t["lr_schedule"],
            selection_metric=t["selection_metric"],
        )

    @property
    def seeds(self) -> tuple[int, ...]:
        return self.get("trials", "seeds")

    @property
    def out_dir(self) -> str:
        return self.get("output", "dir")


def _cross_validate(values: dict, source: str) -> None:
    """Constraints that span keys; reported without line numbers because
    they concern the document as a whole."""
    d = values["data"]
    if d["generator"] == "csv" and not d["path"]:
        raise ConfigError(f"{source}: data.generator = csv requires data.path")
    if d["generator"] == "simplex" and d["cap"] <= 1.0 / d["classes"]:
        raise ConfigError(
            f"{source}: data.cap must exceed 1/data.classes = 1/{d['classes']} for "
            f"the simplex generator, got {d['cap']!r}"
        )
    if values["noise"]["kind"] == "custom" and not values["noise"]["matrix_path"]:
        raise ConfigError(f"{source}: noise.kind = custom requires noise.matrix_path")


def parse_config(text: str, source: str = "<text>") -> ExperimentConfig:
    """Parse and fully validate a config document. Unknown sections or keys,
    duplicate assignments, and malformed values are all rejected with the
    offending line number."""
    values = {section: dict() for section in SCHEMA}
    seen = set()
    # Lines end at LF, CRLF or CR only (str.splitlines also breaks at form feed).
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        name, eq, value_text = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"{source}:{lineno}: expected `section.key = value`")
        section, dot, key = name.partition(".")
        if not dot or not section or not key:
            raise ConfigError(
                f"{source}:{lineno}: expected a dotted `section.key` name, got {name!r}"
            )
        if section not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown section {section!r}")
        if key not in SCHEMA[section]:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r} in section {section!r}"
            )
        if (section, key) in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {section}.{key}")
        seen.add((section, key))
        parse, _ = SCHEMA[section][key]
        try:
            values[section][key] = parse(value_text)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {section}.{key}: {exc}")
    for section, keys in SCHEMA.items():
        for key, (_, default) in keys.items():
            values[section].setdefault(key, default)
    return ExperimentConfig(values=values, raw=text, source=source)


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = fileio.read_text(p, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}")
    return parse_config(text, source=str(p))


def default_config() -> ExperimentConfig:
    """The all-defaults config; equivalent to parsing an empty document."""
    return parse_config("")
