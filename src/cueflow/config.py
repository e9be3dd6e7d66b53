"""Pipeline configuration: typed settings plus a strict INI-style file format.

Files use ``configparser`` sections ``[io]``, ``[embedding]``, ``[model]``,
``[detector]``, ``[aggregate]``, and optionally ``[synth]``.  Every key maps
one-to-one onto a field of its section's dataclass, which holds the key's
type, default and checks; unknown sections or keys, and a ``[synth]`` key
its ``kind`` does not read, are hard errors so no setting is silently
ignored.  The ``[embedding]`` and ``[detector]`` sections are the stage
types themselves, :class:`~cueflow.embedding.EmbeddingSpec` and
:class:`~cueflow.detector.DetectorConfig`, and ``fit_mlp`` reads the
``[model]`` section's :class:`ModelConfig`.  Command-line overrides take the
form ``section.key=value``.  Every rule is checked when the config is
built: each section's own when it is, and the three that need the sample
step ``1/resample_hz`` when :class:`PipelineConfig` joins the sections.  So
a config that exists is one the pipeline accepts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path

from .detector import DetectorConfig
from .embedding import EmbeddingSpec
from .errors import ConfigError
from .models import MLP_GAUSSIAN, VAR_LINEAR
from .te import LOGLIK_RATIO, SRC2TGT, TE_MODES, TGT2SRC

DIRECTION_CHOICES = ("both", SRC2TGT, TGT2SRC)
MODEL_KINDS = (VAR_LINEAR, MLP_GAUSSIAN)
# The [synth] kinds and the keys that one kind reads; the other refuses them.
_SYNTH_KIND_KEYS = {"cue_scenario": ("duration_s", "cue_times", "response_delay_s",
                                     "amplitude", "noise_sigma", "rate_hz"),
                    "var1": ("a", "q", "n", "dt")}
SYNTH_KINDS = tuple(_SYNTH_KIND_KEYS)
# How far, relative to the larger of the two, delta_s may lie from a whole
# number of sample steps.
_LAG_RTOL = 1e-9


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
        for key in ("target_channels", "source_channels"):
            names = getattr(self, key)
            if len(set(names)) != len(names):
                raise ConfigError(f"[io] {key} names a channel twice: {names}")
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
        if self.seed < 0:
            raise ConfigError(f"[io] seed must be non-negative, got {self.seed}")

    @property
    def direction_list(self) -> tuple[str, ...]:
        return (SRC2TGT, TGT2SRC) if self.directions == "both" else (self.directions,)


@dataclass(frozen=True)
class ModelConfig:
    kind: str = VAR_LINEAR
    te_mode: str = LOGLIK_RATIO
    hidden: tuple[int, ...] = (64, 64)
    epochs: int = 200

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.te_mode not in TE_MODES:
            raise ConfigError(
                f"te_mode must be one of {TE_MODES}, got {self.te_mode!r}"
            )
        if not self.epochs >= 1:
            raise ConfigError(f"[model] epochs must be at least 1, got {self.epochs}")
        if not self.hidden or min(self.hidden) < 1:
            raise ConfigError(
                f"[model] hidden needs at least one layer width, each at least 1, "
                f"got {self.hidden}"
            )


@dataclass(frozen=True)
class AggregateConfig:
    bin_dt: float = 1.0
    cell_size_m: float | None = None
    position_channels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("bin_dt", "cell_size_m"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ConfigError(f"[aggregate] {name} must be positive and finite, got {v}")
        if self.position_channels is not None and len(set(self.position_channels)) != 2:
            raise ConfigError("[aggregate] position_channels needs exactly 2 names, "
                              f"each once, got {self.position_channels}")
        # Either key alone would ask for a spatial grid that run cannot build.
        if (self.cell_size_m is None) != (self.position_channels is None):
            raise ConfigError("[aggregate] cell_size_m and position_channels "
                              "must be set together, or neither")


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
        if self.seed < 0:
            raise ConfigError(f"[synth] seed must be non-negative, got {self.seed}")
        if len(self.a) != 4 or len(self.q) != 4:
            raise ConfigError("[synth] a and q must each hold 4 numbers (row-major 2x2)")


@dataclass(frozen=True, kw_only=True)
class PipelineConfig:
    """The sections the pipeline reads.  Each checks its own keys; the rules
    that need the sample step (``1/resample_hz``) are checked here, so a
    config that builds, from a file, ``--set`` or code, is one every stage
    accepts."""

    # One field per section, in the order sections are parsed and their
    # errors reported; kw_only lets a required section follow an optional one.
    io: IoConfig
    embedding: EmbeddingSpec
    model: ModelConfig = field(default_factory=ModelConfig)
    detector: DetectorConfig
    aggregate: AggregateConfig = field(default_factory=AggregateConfig)

    def __post_init__(self) -> None:
        dt = self.dt
        # A bin finer than one sample holds nothing a sample-wide bin does
        # not, and bounds the histogram at one bin per analysed sample.
        bin_dt = self.aggregate.bin_dt
        if bin_dt < dt:
            raise ConfigError(
                f"[aggregate] bin_dt must be at least one sample "
                f"(1/resample_hz = {dt!r} s), got {bin_dt!r}"
            )
        # The lags are whole samples; a ratio too large for round() is none.
        delta_s = self.embedding.delta_s
        ratio = delta_s / dt
        stride = round(ratio) if math.isfinite(ratio) else 0
        if stride < 1 or abs(stride * dt - delta_s) > _LAG_RTOL * max(delta_s, dt):
            raise ConfigError(
                f"[embedding] delta_s={delta_s} is not an integer multiple of dt={dt}"
            )
        nyquist = 0.5 / dt
        if self.detector.hp_cutoff_hz >= nyquist:
            raise ConfigError(f"[detector] hp_cutoff_hz={self.detector.hp_cutoff_hz} "
                              f"must be below Nyquist {nyquist}")

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
_SECTIONS = {"io": IoConfig, "embedding": EmbeddingSpec, "model": ModelConfig,
             "detector": DetectorConfig, "aggregate": AggregateConfig,
             "synth": SynthSettings}


def _list(item):
    return lambda raw: tuple(item(s.strip()) for s in raw.split(",") if s.strip())


# Field annotation, as written ("X | None" reads as X) -> (reader, what it expects).
_READERS = {
    "str": (str, "text"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
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
    foreign = synth and [k for kind, keys in _SYNTH_KIND_KEYS.items() if kind != synth.kind
                         for k in keys if sections["synth"].get(k, "").strip()]
    if foreign:
        raise ConfigError(f"[synth] kind {synth.kind} does not read keys {foreign}")
    return cfg, synth


def load_config(path, overrides=None) -> tuple[PipelineConfig, SynthSettings | None]:
    """Parse a config file; see :func:`parse_config_text`."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, origin=str(path), overrides=overrides)
