"""Pipeline configuration: typed settings plus a strict INI-style file format.

Files use ``configparser`` sections ``[io]``, ``[embedding]``, ``[model]``,
``[detector]``, ``[aggregate]``, and optionally ``[synth]``.  Every key maps
one-to-one onto a config field; unknown sections or keys are hard errors so
typos never silently fall back to defaults.  Command-line overrides take the
form ``section.key=value``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .detector import DetectorConfig
from .errors import ConfigError
from .models import MLP_GAUSSIAN, VAR_LINEAR, TrainConfig
from .te import ENTROPY_DIFF, LOGLIK_RATIO, SRC2TGT, TGT2SRC

DIRECTION_CHOICES = ("both", SRC2TGT, TGT2SRC)
MODEL_KINDS = (VAR_LINEAR, MLP_GAUSSIAN)
TE_MODE_CHOICES = (ENTROPY_DIFF, LOGLIK_RATIO)
SYNTH_KINDS = ("cue_scenario", "var1")

_KNOWN_KEYS = {
    "io": {"target_channels", "source_channels", "resample_hz", "directions", "seed"},
    "embedding": {"d", "delta_s"},
    "model": {"kind", "te_mode", "hidden", "epochs", "learning_rate", "batch_size"},
    "detector": {"alpha", "beta", "gamma", "hp_cutoff_hz", "skip_warmup"},
    "aggregate": {"bin_dt", "cell_size_m", "position_channels"},
    "synth": {"kind", "n_trials", "seed", "duration_s", "cue_times",
              "response_delay_s", "amplitude", "noise_sigma", "rate_hz",
              "a", "q", "n", "dt"},
}


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
        if not self.resample_hz > 0:
            raise ConfigError(f"resample_hz must be positive, got {self.resample_hz}")
        if self.directions not in DIRECTION_CHOICES:
            raise ConfigError(
                f"directions must be one of {DIRECTION_CHOICES}, got {self.directions!r}"
            )

    @property
    def direction_list(self) -> tuple[str, ...]:
        return (SRC2TGT, TGT2SRC) if self.directions == "both" else (self.directions,)


@dataclass(frozen=True)
class EmbeddingConfig:
    d: int = 4
    delta_s: float = 0.1


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

    alpha: float = 0.01
    beta: float = 0.05
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
    position_channels: tuple[str, str] | None = None


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


@dataclass(frozen=True)
class PipelineConfig:
    io: IoConfig
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    detector: DetectorSettings = field(default_factory=DetectorSettings)
    aggregate: AggregateConfig = field(default_factory=AggregateConfig)

    @property
    def dt(self) -> float:
        """Post-resampling sample step in seconds."""
        return 1.0 / self.io.resample_hz


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(s) for s in _str_list(raw))
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected comma-separated numbers, "
                          f"got {raw!r}") from None


def _int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in _str_list(raw))
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected comma-separated integers, "
                          f"got {raw!r}") from None


class _Section:
    """One parsed section with typed, error-annotated accessors."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items

    def _raw(self, key: str, default=None, required: bool = False):
        if key in self.items and self.items[key].strip() != "":
            return self.items[key].strip()
        if required:
            raise ConfigError(f"missing required key [{self.name}] {key}")
        return default

    def get_str(self, key, default=None, required=False):
        return self._raw(key, default, required)

    def get_float(self, key, default=None, required=False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected a number, got {raw!r}") from None

    def get_int(self, key, default=None, required=False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected an integer, got {raw!r}") from None

    def get_bool(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key}: expected a boolean, got {raw!r}")


def _parse_sections(text: str, origin: str) -> dict[str, _Section]:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # preserve key case
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"{origin}: unknown section [{name}]")
        items = dict(parser.items(name))
        unknown = sorted(set(items) - _KNOWN_KEYS[name])
        if unknown:
            raise ConfigError(f"{origin}: unknown keys in [{name}]: {unknown}")
        sections[name] = _Section(name, items)
    return sections


def _apply_overrides(sections: dict[str, _Section], overrides) -> None:
    for item in overrides or ():
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        sec_name, key = target.split(".", 1)
        sec_name, key = sec_name.strip(), key.strip()
        if sec_name not in _KNOWN_KEYS:
            raise ConfigError(f"override {item!r}: unknown section [{sec_name}]")
        if key not in _KNOWN_KEYS[sec_name]:
            raise ConfigError(f"override {item!r}: unknown key {key!r} in [{sec_name}]")
        sections.setdefault(sec_name, _Section(sec_name, {})).items[key] = value.strip()


def parse_config_text(text: str, origin: str = "<config>",
                      overrides=None) -> tuple[PipelineConfig, SynthSettings | None]:
    """Parse config text into (pipeline config, synth settings or None)."""
    sections = _parse_sections(text, origin)
    _apply_overrides(sections, overrides)
    for required in ("io", "embedding", "detector"):
        if required not in sections:
            raise ConfigError(f"{origin}: missing required section [{required}]")
    io_s = sections["io"]
    emb_s = sections["embedding"]
    mdl_s = sections.get("model", _Section("model", {}))
    det_s = sections.get("detector", _Section("detector", {}))
    agg_s = sections.get("aggregate", _Section("aggregate", {}))

    io = IoConfig(
        target_channels=_str_list(io_s.get_str("target_channels", required=True)),
        source_channels=_str_list(io_s.get_str("source_channels", required=True)),
        resample_hz=io_s.get_float("resample_hz", required=True),
        directions=io_s.get_str("directions", "both"),
        seed=io_s.get_int("seed", 0),
    )
    embedding = EmbeddingConfig(
        d=emb_s.get_int("d", required=True),
        delta_s=emb_s.get_float("delta_s", required=True),
    )
    hidden_raw = mdl_s.get_str("hidden")
    model = ModelConfig(
        kind=mdl_s.get_str("kind", VAR_LINEAR),
        te_mode=mdl_s.get_str("te_mode", ENTROPY_DIFF),
        hidden=_int_list("model", "hidden", hidden_raw) if hidden_raw else (64, 64),
        epochs=mdl_s.get_int("epochs", 200),
        learning_rate=mdl_s.get_float("learning_rate", 1e-3),
        batch_size=mdl_s.get_int("batch_size", 256),
    )
    detector = DetectorSettings(
        alpha=det_s.get_float("alpha", required=True),
        beta=det_s.get_float("beta", required=True),
        gamma=det_s.get_float("gamma", 3.0),
        hp_cutoff_hz=det_s.get_float("hp_cutoff_hz", 1.0),
        skip_warmup=det_s.get_bool("skip_warmup", True),
    )
    pos_raw = agg_s.get_str("position_channels")
    pos = _str_list(pos_raw) if pos_raw else None
    if pos is not None and len(pos) != 2:
        raise ConfigError("[aggregate] position_channels needs exactly 2 names")
    aggregate = AggregateConfig(
        bin_dt=agg_s.get_float("bin_dt", 1.0),
        cell_size_m=agg_s.get_float("cell_size_m", None),
        position_channels=pos,
    )
    synth = None
    if "synth" in sections:
        syn_s = sections["synth"]
        cue_raw = syn_s.get_str("cue_times")
        synth = SynthSettings(
            kind=syn_s.get_str("kind", required=True),
            n_trials=syn_s.get_int("n_trials", 1),
            seed=syn_s.get_int("seed", 0),
            duration_s=syn_s.get_float("duration_s", 20.0),
            cue_times=_float_list("synth", "cue_times", cue_raw) if cue_raw else (),
            response_delay_s=syn_s.get_float("response_delay_s", 0.15),
            amplitude=syn_s.get_float("amplitude", 1.0),
            noise_sigma=syn_s.get_float("noise_sigma", 0.2),
            rate_hz=syn_s.get_float("rate_hz", 10.0),
            a=_float_list("synth", "a", syn_s.get_str("a", "0.5, 0.5, 0.0, 0.0")),
            q=_float_list("synth", "q", syn_s.get_str("q", "1.0, 0.0, 0.0, 1.0")),
            n=syn_s.get_int("n", 10000),
            dt=syn_s.get_float("dt", 0.01),
        )
        if len(synth.a) != 4 or len(synth.q) != 4:
            raise ConfigError("[synth] a and q must each hold 4 numbers (row-major 2x2)")
    return PipelineConfig(io=io, embedding=embedding, model=model,
                          detector=detector, aggregate=aggregate), synth


def load_config(path, overrides=None) -> tuple[PipelineConfig, SynthSettings | None]:
    """Parse a config file; see :func:`parse_config_text`."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, origin=str(path), overrides=overrides)
