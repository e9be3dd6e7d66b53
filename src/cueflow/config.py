"""Pipeline configuration: typed settings plus a strict INI-style file format.

Files use ``configparser`` sections ``[io]``, ``[embedding]``, ``[model]``,
``[detector]``, ``[aggregate]``, and optionally ``[synth]``.  Every key maps
one-to-one onto a field of its section's dataclass, which holds the key's
type, default and checks; unknown sections or keys are hard errors so typos
never silently fall back to defaults.  Command-line overrides take the
form ``section.key=value``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path

from .detector import DetectorConfig
from .errors import ConfigError
from .models import MLP_GAUSSIAN, VAR_LINEAR, TrainConfig
from .te import ENTROPY_DIFF, LOGLIK_RATIO, SRC2TGT, TGT2SRC

DIRECTION_CHOICES = ("both", SRC2TGT, TGT2SRC)
MODEL_KINDS = (VAR_LINEAR, MLP_GAUSSIAN)
TE_MODE_CHOICES = (ENTROPY_DIFF, LOGLIK_RATIO)
SYNTH_KINDS = ("cue_scenario", "var1")


@dataclass(frozen=True)
class IoConfig:
    target_channels: tuple[str, ...]
    source_channels: tuple[str, ...]
    resample_hz: float
    directions: str = "both"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.target_channels or not self.source_channels:
            raise ConfigError("target_channels and source_channels must be non-empty")
        if set(self.target_channels) & set(self.source_channels):
            raise ConfigError("target and source channels overlap")
        if not (math.isfinite(self.resample_hz) and self.resample_hz > 0):
            raise ConfigError(
                f"[io] resample_hz must be positive and finite, got {self.resample_hz}"
            )
        if self.directions not in DIRECTION_CHOICES:
            raise ConfigError(
                f"directions must be one of {DIRECTION_CHOICES}, got {self.directions!r}"
            )

    @property
    def direction_list(self) -> tuple[str, ...]:
        return (SRC2TGT, TGT2SRC) if self.directions == "both" else (self.directions,)


@dataclass(frozen=True)
class EmbeddingConfig:
    d: int
    delta_s: float


@dataclass(frozen=True)
class ModelConfig:
    kind: str = VAR_LINEAR
    te_mode: str = ENTROPY_DIFF
    hidden: tuple[int, ...] = (64, 64)
    epochs: int = 200
    learning_rate: float = 1e-3
    batch_size: int = 256

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.te_mode not in TE_MODE_CHOICES:
            raise ConfigError(
                f"te_mode must be one of {TE_MODE_CHOICES}, got {self.te_mode!r}"
            )
        if not self.epochs >= 1:
            raise ConfigError(f"[model] epochs must be at least 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"[model] learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not self.batch_size >= 1:
            raise ConfigError(f"[model] batch_size must be at least 1, got {self.batch_size}")
        if not self.hidden or min(self.hidden) < 1:
            raise ConfigError(
                f"[model] hidden needs at least one layer width, each at least 1, "
                f"got {self.hidden}"
            )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, learning_rate=self.learning_rate,
                           batch_size=self.batch_size, seed=seed)


@dataclass(frozen=True)
class DetectorSettings:
    """Detector knobs minus the sample step, which follows from resample_hz."""

    alpha: float
    beta: float
    gamma: float = 3.0
    hp_cutoff_hz: float = 1.0
    skip_warmup: bool = True

    def to_config(self, dt: float) -> DetectorConfig:
        return DetectorConfig(alpha=self.alpha, beta=self.beta, dt=dt,
                              gamma=self.gamma, hp_cutoff_hz=self.hp_cutoff_hz,
                              skip_warmup=self.skip_warmup)


@dataclass(frozen=True)
class AggregateConfig:
    bin_dt: float | None = 1.0
    cell_size_m: float | None = None
    position_channels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("bin_dt", "cell_size_m"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ConfigError(f"[aggregate] {name} must be positive and finite, got {v}")
        if self.position_channels is not None and len(self.position_channels) != 2:
            raise ConfigError("[aggregate] position_channels needs exactly 2 names")


@dataclass(frozen=True)
class SynthSettings:
    """Parsed ``[synth]`` section; interpreted by the synth/oracle commands."""

    kind: str
    n_trials: int = 1
    seed: int = 0
    # cue_scenario fields
    duration_s: float = 20.0
    cue_times: tuple[float, ...] = ()
    response_delay_s: float = 0.15
    amplitude: float = 1.0
    noise_sigma: float = 0.2
    rate_hz: float = 10.0
    # var1 fields (row-major 2x2 matrices)
    a: tuple[float, ...] = (0.5, 0.5, 0.0, 0.0)
    q: tuple[float, ...] = (1.0, 0.0, 0.0, 1.0)
    n: int = 10000
    dt: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in SYNTH_KINDS:
            raise ConfigError(f"synth kind must be one of {SYNTH_KINDS}, got {self.kind!r}")
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if len(self.a) != 4 or len(self.q) != 4:
            raise ConfigError("[synth] a and q must each hold 4 numbers (row-major 2x2)")


@dataclass(frozen=True, kw_only=True)
class PipelineConfig:
    # One field per section, in the order sections are parsed and their
    # errors reported; kw_only lets a required section follow an optional one.
    io: IoConfig
    embedding: EmbeddingConfig
    model: ModelConfig = field(default_factory=ModelConfig)
    detector: DetectorSettings
    aggregate: AggregateConfig = field(default_factory=AggregateConfig)

    @property
    def dt(self) -> float:
        """Post-resampling sample step in seconds."""
        return 1.0 / self.io.resample_hz


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Each section's dataclass is its schema: the section's keys are the class's
# fields, a key is required when its field has no default, and the field's
# annotation picks the reader below.  A reader raises ValueError on bad text.
_SECTIONS = {"io": IoConfig, "embedding": EmbeddingConfig, "model": ModelConfig,
             "detector": DetectorSettings, "aggregate": AggregateConfig,
             "synth": SynthSettings}


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _list(item):
    return lambda raw: tuple(item(s.strip()) for s in raw.split(",") if s.strip())


# Field annotation, as written ("X | None" reads as X) -> (reader, what it expects).
_READERS = {
    "str": (str, "text"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (_bool, "a boolean"),
    "tuple[str, ...]": (_list(str), "comma-separated names"),
    "tuple[int, ...]": (_list(int), "comma-separated integers"),
    "tuple[float, ...]": (_list(float), "comma-separated numbers"),
}


def _reader(f: Field):
    return _READERS[f.type.removesuffix(" | None")]


def _required(f: Field) -> bool:
    return f.default is MISSING and f.default_factory is MISSING


def _keys(section: str) -> set[str]:
    return {f.name for f in fields(_SECTIONS[section])}


def _build(section: str, items: dict[str, str]):
    """The section's dataclass from its raw items; absent keys take field defaults."""
    values = {}
    for f in fields(_SECTIONS[section]):
        raw = items.get(f.name, "").strip()
        if not raw:  # an empty value counts as absent
            if _required(f):
                raise ConfigError(f"missing required key [{section}] {f.name}")
            continue
        read, expected = _reader(f)
        try:
            values[f.name] = read(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {f.name}: expected {expected}, "
                              f"got {raw!r}") from None
    return _SECTIONS[section](**values)


def _parse_sections(text: str, origin: str) -> dict[str, dict[str, str]]:
    # No header can name a section "\n", so [DEFAULT] parses as an ordinary
    # section and is rejected below, instead of being copied into every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n",
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # preserve key case
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"{origin}: unknown section [{name}]")
        items = dict(parser.items(name))
        unknown = sorted(set(items) - _keys(name))
        if unknown:
            raise ConfigError(f"{origin}: unknown keys in [{name}]: {unknown}")
        sections[name] = items
    return sections


def _apply_overrides(sections: dict[str, dict[str, str]], overrides) -> None:
    for item in overrides or ():
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        sec_name, key = target.split(".", 1)
        sec_name, key = sec_name.strip(), key.strip()
        if sec_name not in _SECTIONS:
            raise ConfigError(f"override {item!r}: unknown section [{sec_name}]")
        if key not in _keys(sec_name):
            raise ConfigError(f"override {item!r}: unknown key {key!r} in [{sec_name}]")
        sections.setdefault(sec_name, {})[key] = value.strip()


def parse_config_text(text: str, origin: str = "<config>",
                      overrides=None) -> tuple[PipelineConfig, SynthSettings | None]:
    """Parse config text into (pipeline config, synth settings or None)."""
    sections = _parse_sections(text, origin)
    _apply_overrides(sections, overrides)
    for f in fields(PipelineConfig):
        if _required(f) and f.name not in sections:
            raise ConfigError(f"{origin}: missing required section [{f.name}]")
    cfg = PipelineConfig(**{f.name: _build(f.name, sections.get(f.name, {}))
                            for f in fields(PipelineConfig)})
    synth = _build("synth", sections["synth"]) if "synth" in sections else None
    return cfg, synth


def load_config(path, overrides=None) -> tuple[PipelineConfig, SynthSettings | None]:
    """Parse a config file; see :func:`parse_config_text`."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, origin=str(path), overrides=overrides)
