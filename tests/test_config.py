"""Tests for the INI config format: parsing, validation, overrides."""

import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from cueflow.config import (
    _SECTIONS,
    AggregateConfig,
    DetectorSettings,
    IoConfig,
    ModelConfig,
    SynthSettings,
    _reader,
    load_config,
    parse_config_text,
)
from cueflow.errors import ConfigError
from cueflow.te import SRC2TGT, TGT2SRC

BASE = """\
[io]
target_channels = follower_vx, follower_vy
source_channels = leader_vx, leader_vy
resample_hz = 115

[embedding]
d = 4
delta_s = 0.1

[detector]
alpha = 0.005
beta = 0.01
"""


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        """A file with only the required keys parses to documented defaults."""
        cfg, synth = parse_config_text(BASE)
        assert synth is None
        assert cfg.io.target_channels == ("follower_vx", "follower_vy")
        assert cfg.io.source_channels == ("leader_vx", "leader_vy")
        assert cfg.io.resample_hz == 115.0
        assert cfg.io.directions == "both"
        assert cfg.io.seed == 0
        assert cfg.embedding.d == 4
        assert cfg.embedding.delta_s == 0.1
        assert cfg.model.kind == "var_linear"
        assert cfg.model.te_mode == "entropy_diff"
        assert cfg.model.hidden == (64, 64)
        assert cfg.model.epochs == 200
        assert cfg.detector.alpha == 0.005
        assert cfg.detector.gamma == 3.0
        assert cfg.detector.hp_cutoff_hz == 1.0
        assert cfg.detector.skip_warmup is True
        assert cfg.aggregate.bin_dt == 1.0
        assert cfg.aggregate.cell_size_m is None
        assert cfg.aggregate.position_channels is None

    def test_every_key_round_trips(self):
        text = """\
[io]
target_channels = x
source_channels = y
resample_hz = 100
directions = src2tgt
seed = 7

[embedding]
d = 2
delta_s = 0.01

[model]
kind = mlp_gaussian
te_mode = loglik_ratio
hidden = 32, 16
epochs = 50
learning_rate = 0.01
batch_size = 64

[detector]
alpha = 0.01
beta = 0.05
gamma = 2.5
hp_cutoff_hz = 0.5
skip_warmup = no

[aggregate]
bin_dt = 0.5
cell_size_m = 0.25
position_channels = px, py
"""
        cfg, _ = parse_config_text(text)
        assert cfg.io.directions == "src2tgt"
        assert cfg.io.seed == 7
        assert cfg.model.kind == "mlp_gaussian"
        assert cfg.model.te_mode == "loglik_ratio"
        assert cfg.model.hidden == (32, 16)
        assert cfg.model.epochs == 50
        assert cfg.model.learning_rate == 0.01
        assert cfg.model.batch_size == 64
        assert cfg.detector.gamma == 2.5
        assert cfg.detector.skip_warmup is False
        assert cfg.aggregate.bin_dt == 0.5
        assert cfg.aggregate.cell_size_m == 0.25
        assert cfg.aggregate.position_channels == ("px", "py")

    def test_inline_comments_are_stripped(self):
        text = BASE.replace("resample_hz = 115", "resample_hz = 115  # samples/s")
        cfg, _ = parse_config_text(text)
        assert cfg.io.resample_hz == 115.0

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text(BASE + "\n[typo]\nx = 1\n")

    @pytest.mark.parametrize("default", ["[DEFAULT]\ngamma = 2.0\n", "[DEFAULT]\n"])
    def test_default_section_rejected(self, default):
        """configparser would copy [DEFAULT] keys into every section."""
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            parse_config_text(default + "\n" + BASE)

    def test_unknown_key_rejected(self):
        text = BASE.replace("resample_hz = 115", "resample_hz = 115\nresample = 115")
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config_text(text)

    def test_missing_required_section(self):
        text = BASE.split("[detector]")[0]
        with pytest.raises(ConfigError, match=r"missing required section \[detector\]"):
            parse_config_text(text)

    def test_missing_required_key(self):
        text = BASE.replace("beta = 0.01\n", "")
        with pytest.raises(ConfigError, match=r"missing required key \[detector\] beta"):
            parse_config_text(text)

    def test_empty_value_counts_as_missing(self):
        text = BASE.replace("alpha = 0.005", "alpha =")
        with pytest.raises(ConfigError, match=r"missing required key \[detector\] alpha"):
            parse_config_text(text)

    def test_non_numeric_float_rejected(self):
        text = BASE.replace("resample_hz = 115", "resample_hz = fast")
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config_text(text)

    def test_non_integer_rejected(self):
        text = BASE.replace("d = 4", "d = 4.5")
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config_text(text)

    def test_bad_boolean_rejected(self):
        text = BASE + "skip_warmup = maybe\n"
        with pytest.raises(ConfigError, match="expected a boolean"):
            parse_config_text(text)

    def test_malformed_file_reports_origin(self):
        with pytest.raises(ConfigError, match="demo.ini"):
            parse_config_text("alpha = 1\n", origin="demo.ini")

    def test_unknown_direction_rejected(self):
        text = BASE.replace("resample_hz = 115",
                            "resample_hz = 115\ndirections = sideways")
        with pytest.raises(ConfigError, match="directions must be one of"):
            parse_config_text(text)

    def test_overlapping_channels_rejected(self):
        text = BASE.replace("source_channels = leader_vx, leader_vy",
                            "source_channels = follower_vx")
        with pytest.raises(ConfigError, match="overlap"):
            parse_config_text(text)

    def test_unknown_model_kind_rejected(self):
        text = BASE + "\n[model]\nkind = tree\n"
        with pytest.raises(ConfigError, match="model kind must be one of"):
            parse_config_text(text)

    def test_position_channels_need_exactly_two(self):
        text = BASE + "\n[aggregate]\nposition_channels = px\n"
        with pytest.raises(ConfigError, match="exactly 2"):
            parse_config_text(text)


class TestOverrides:
    def test_override_replaces_file_value(self):
        cfg, _ = parse_config_text(BASE, overrides=["detector.alpha=0.02"])
        assert cfg.detector.alpha == 0.02

    def test_override_fills_absent_section(self):
        cfg, _ = parse_config_text(BASE, overrides=["model.kind=mlp_gaussian"])
        assert cfg.model.kind == "mlp_gaussian"

    def test_override_can_enable_synth(self):
        _, synth = parse_config_text(BASE, overrides=["synth.kind=var1"])
        assert synth is not None
        assert synth.kind == "var1"
        assert synth.n == 10000

    def test_later_override_wins(self):
        cfg, _ = parse_config_text(
            BASE, overrides=["detector.gamma=2.0", "detector.gamma=4.0"])
        assert cfg.detector.gamma == 4.0

    def test_override_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_config_text(BASE, overrides=["detector.alpha"])

    def test_override_without_dot_rejected(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_config_text(BASE, overrides=["alpha=0.5"])

    def test_override_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text(BASE, overrides=["typo.alpha=0.5"])

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(BASE, overrides=["detector.typo=0.5"])


class TestSynthSection:
    def test_cue_scenario_fields(self):
        text = BASE + """
[synth]
kind = cue_scenario
n_trials = 5
seed = 3
duration_s = 30
cue_times = 2.0, 5.5
response_delay_s = 0.05
amplitude = 1.5
noise_sigma = 0.1
rate_hz = 20
"""
        _, synth = parse_config_text(text)
        assert synth.kind == "cue_scenario"
        assert synth.n_trials == 5
        assert synth.seed == 3
        assert synth.duration_s == 30.0
        assert synth.cue_times == (2.0, 5.5)
        assert synth.response_delay_s == 0.05
        assert synth.amplitude == 1.5
        assert synth.noise_sigma == 0.1
        assert synth.rate_hz == 20.0

    def test_var1_fields(self):
        text = BASE + """
[synth]
kind = var1
a = 0.5, 0.25, 0.0, 0.9
q = 1.0, 0.1, 0.1, 1.0
n = 5000
dt = 0.02
"""
        _, synth = parse_config_text(text)
        assert synth.kind == "var1"
        assert synth.a == (0.5, 0.25, 0.0, 0.9)
        assert synth.q == (1.0, 0.1, 0.1, 1.0)
        assert synth.n == 5000
        assert synth.dt == 0.02

    def test_matrices_need_four_entries(self):
        text = BASE + "\n[synth]\nkind = var1\na = 0.5, 0.5\n"
        with pytest.raises(ConfigError, match="4 numbers"):
            parse_config_text(text)

    def test_kind_is_required(self):
        text = BASE + "\n[synth]\nn_trials = 2\n"
        with pytest.raises(ConfigError, match=r"missing required key \[synth\] kind"):
            parse_config_text(text)

    def test_unknown_kind_rejected(self):
        text = BASE + "\n[synth]\nkind = waves\n"
        with pytest.raises(ConfigError, match="synth kind must be one of"):
            parse_config_text(text)

    def test_n_trials_must_be_positive(self):
        text = BASE + "\n[synth]\nkind = var1\nn_trials = 0\n"
        with pytest.raises(ConfigError, match="n_trials"):
            parse_config_text(text)

    def test_bad_cue_times_rejected(self):
        text = BASE + "\n[synth]\nkind = cue_scenario\ncue_times = 2.0, soon\n"
        with pytest.raises(ConfigError, match="comma-separated numbers"):
            parse_config_text(text)


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(BASE)
        cfg, synth = load_config(path)
        assert cfg.io.resample_hz == 115.0
        assert synth is None

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.ini")

    def test_file_errors_carry_the_path(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text(BASE + "\n[typo]\nx = 1\n")
        with pytest.raises(ConfigError, match="broken.ini"):
            load_config(path)


class TestDerivedSettings:
    def test_dt_follows_resample_rate(self):
        cfg, _ = parse_config_text(BASE)
        assert cfg.dt == pytest.approx(1.0 / 115.0, rel=1e-15)
        cfg200, _ = parse_config_text(BASE.replace("resample_hz = 115",
                                                   "resample_hz = 200"))
        assert cfg200.dt == 0.005

    def test_direction_list_expands_both(self):
        cfg, _ = parse_config_text(BASE)
        assert cfg.io.direction_list == (SRC2TGT, TGT2SRC)
        one, _ = parse_config_text(BASE, overrides=["io.directions=tgt2src"])
        assert one.io.direction_list == (TGT2SRC,)

    def test_train_config_carries_seed(self):
        model = ModelConfig(kind="mlp_gaussian", epochs=7,
                            learning_rate=0.5, batch_size=32)
        tc = model.train_config(seed=9)
        assert (tc.epochs, tc.learning_rate, tc.batch_size, tc.seed) == (7, 0.5, 32, 9)

    def test_detector_settings_build_configs(self):
        settings = DetectorSettings(alpha=0.01, beta=0.05, gamma=2.0)
        det = settings.to_config(dt=0.005)
        assert det.dt == 0.005
        assert (det.alpha, det.beta, det.gamma) == (0.01, 0.05, 2.0)
        assert det.skip_warmup is True

    @pytest.mark.parametrize("key, bad", [
        ("epochs", "0"),
        ("learning_rate", "-1"),
        ("learning_rate", "nan"),
        ("learning_rate", "inf"),
        ("batch_size", "0"),
        ("hidden", "0"),
        ("hidden", "32, 0"),
    ])
    def test_model_numbers_are_validated(self, key, bad):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(BASE, overrides=[f"model.{key}={bad}"])

    def test_model_needs_a_hidden_layer(self):
        with pytest.raises(ConfigError, match="hidden"):
            ModelConfig(kind="mlp_gaussian", hidden=())

    def test_io_requires_positive_rate(self):
        with pytest.raises(ConfigError, match="resample_hz"):
            IoConfig(target_channels=("x",), source_channels=("y",),
                     resample_hz=0.0)

    @pytest.mark.parametrize("override", [
        "io.resample_hz=inf", "io.resample_hz=nan",
        "aggregate.bin_dt=0", "aggregate.bin_dt=-1", "aggregate.bin_dt=inf",
        "aggregate.cell_size_m=0", "aggregate.cell_size_m=nan",
    ])
    def test_rates_and_sizes_must_be_positive_and_finite(self, override):
        section, key = override.split("=")[0].split(".")
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} ")):
            parse_config_text(BASE, overrides=[override])


class TestSchema:
    """Each section's dataclass is its schema; any text is parsed or refused."""

    KEYS = [f"{section}.{f.name}" for section, cls in _SECTIONS.items()
            for f in fields(cls)]

    def test_every_field_has_a_reader(self):
        for section, cls in _SECTIONS.items():
            for f in fields(cls):
                try:
                    _reader(f)
                except KeyError:
                    pytest.fail(f"[{section}] {f.name}: no reader for {f.type!r}")

    def test_configs_built_in_code_get_the_file_checks(self):
        with pytest.raises(ConfigError, match="exactly 2"):
            AggregateConfig(position_channels=("px",))
        with pytest.raises(ConfigError, match="4 numbers"):
            SynthSettings(kind="var1", a=(0.5, 0.5))

    @given(st.text())
    def test_arbitrary_text_raises_only_config_errors(self, text):
        try:
            parse_config_text(text)
        except ConfigError:
            pass

    @pytest.mark.parametrize("key", KEYS)
    @settings(max_examples=30)
    @given(value=st.text())
    def test_arbitrary_override_raises_only_config_errors(self, key, value):
        # With a [synth] section present, every key's value is read.
        try:
            parse_config_text(BASE, overrides=["synth.kind=var1", f"{key}={value}"])
        except ConfigError:
            pass
