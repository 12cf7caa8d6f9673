"""Flat key=value run configuration with dotted sections.

One file drives a whole run: ``model.*`` is the architecture, ``train.*``
the optimization loop, ``eval.*`` the window protocol, ``synth.*`` the
corpus build.  Unknown keys are rejected so a typo can never silently fall
back to a default, and the fully resolved config renders back into the same
format, which is what every command echoes into its output directory.
"""

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .eval import TASKS
from .model import ModelConfig
from .train import TrainConfig


@dataclass(frozen=True)
class EvalSettings:
    """Sliding-window protocol constants.

    A zero means "derive from the model": window becomes the model's context
    length, horizon its forecast length, stride the horizon.  With the
    default architecture that resolves to the canonical 1024/128/128.
    """

    window: int = 0
    horizon: int = 0
    stride: int = 0
    task: str = "forecast"

    def __post_init__(self):
        for name in ("window", "horizon", "stride"):
            if getattr(self, name) < 0:
                raise ConfigError(f"eval.{name} must be >= 0 (0 = derive from the model)")
        if self.task not in TASKS:
            raise ConfigError(f"eval.task must be one of {TASKS}, got {self.task!r}")

    def resolve(self, model_config: ModelConfig) -> tuple:
        """Concrete (window, horizon, stride) for a given architecture."""
        w = self.window or model_config.context_length
        h = self.horizon or model_config.l_pred
        s = self.stride or h
        return w, h, s


@dataclass(frozen=True)
class SynthSettings:
    seed: int = 0
    variants_per_entry: int = 16

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("synth.seed must be non-negative")
        if self.variants_per_entry < 1:
            raise ConfigError("synth.variants_per_entry must be positive")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    eval: EvalSettings
    synth: SynthSettings

    def flat(self) -> dict:
        out = {}
        for section in _SECTIONS:
            obj = getattr(self, section)
            for f in fields(obj):
                out[f"{section}.{f.name}"] = getattr(obj, f.name)
        return out


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "eval": EvalSettings, "synth": SynthSettings}


def default_flat() -> dict:
    out = {}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            out[f"{section}.{f.name}"] = f.default
    return out


def _coerce(key: str, raw, default) -> object:
    """Parse a raw string by the type of the field's default value."""
    if not isinstance(raw, str):
        return raw  # already typed (programmatic override)
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {type(default).__name__}") from None
    return raw


def build_run_config(*overrides: dict) -> RunConfig:
    """Defaults, updated by each override map in turn (later wins).

    Keys are dotted (``model.d_model``); values may be raw strings (from a
    file or the command line) or already-typed values.  Unknown keys raise.
    """
    flat = default_flat()
    for layer in overrides:
        for key, raw in layer.items():
            if key not in flat:
                raise ConfigError(f"unknown config key {key!r}")
            flat[key] = _coerce(key, raw, flat[key])
    kwargs = {section: {} for section in _SECTIONS}
    for key, value in flat.items():
        section, _, name = key.partition(".")
        kwargs[section][name] = value
    return RunConfig(
        model=ModelConfig(**kwargs["model"]),
        train=TrainConfig(**kwargs["train"]),
        eval=EvalSettings(**kwargs["eval"]),
        synth=SynthSettings(**kwargs["synth"]),
    )


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; ``#`` starts a comment; blanks ignored."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, eq, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ConfigError(f"{path.name}:{lineno}: expected 'key = value', got {line!r}")
        if key in out:
            raise ConfigError(f"{path.name}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def render_config(config: RunConfig) -> str:
    """The resolved config in the same format the parser reads."""
    lines = ["# resolved run configuration (re-runnable via --config)"]
    section_of = lambda k: k.partition(".")[0]
    flat = config.flat()
    current = None
    for key in sorted(flat, key=lambda k: (section_of(k), k)):
        if section_of(key) != current:
            current = section_of(key)
            lines.append("")
        lines.append(f"{key} = {flat[key]}")
    return "\n".join(lines) + "\n"
