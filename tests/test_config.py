"""Tests for the INI config format: parsing, validation, overrides."""

import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cueflow.config import (
    _SECTIONS,
    _SYNTH_KIND_KEYS,
    AggregateConfig,
    IoConfig,
    ModelConfig,
    PipelineConfig,
    SynthSettings,
    _reader,
    _required,
    load_config,
    parse_config_text,
)
from cueflow.detector import DetectorConfig
from cueflow.embedding import EmbeddingSpec
from cueflow.errors import ConfigError
from cueflow.models import AUGMENTED, BASELINE, fit_var
from cueflow.pipeline import fit_models, prepare_trials
from cueflow.te import SRC2TGT, TGT2SRC

from conftest import var1_trial, var1_trial_set

BASE = """\
[io]
target_channels = follower_vx, follower_vy
source_channels = leader_vx, leader_vy
resample_hz = 115

[embedding]
d = 4
delta_s = 0.1391304347826087

[detector]
alpha = 0.005
beta = 0.01
"""

# One target and one source channel at the 100 Hz of conftest's VAR(1) trials,
# fitted in one direction.
VAR1_INI = """\
[io]
target_channels = x
source_channels = y
resample_hz = 100
directions = src2tgt

[embedding]
d = 1
delta_s = 0.01

[detector]
alpha = 0.01
beta = 0.05
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
        assert cfg.embedding.delta_s == 0.1391304347826087
        assert cfg.model.kind == "var_linear"
        assert cfg.model.te_mode == "loglik_ratio"
        assert cfg.model.hidden == (64, 64)
        assert cfg.model.epochs == 200
        assert cfg.detector.alpha == 0.005
        assert cfg.detector.gamma == 3.0
        assert cfg.detector.hp_cutoff_hz == 1.0
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

[detector]
alpha = 0.01
beta = 0.05
gamma = 2.5
hp_cutoff_hz = 0.5

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
        assert cfg.detector.gamma == 2.5
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
        # One channel twice would lay every cue along the grid's diagonal.
        with pytest.raises(ConfigError, match="exactly 2 names, each once"):
            parse_config_text(text.replace("= px", "= px, px"))


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

    @pytest.mark.parametrize("kind, given, refused", [
        ("cue_scenario", "a = 0.9, 0.9, 0.9, 0.9\nn = 5\n", ["a", "n"]),
        ("var1", "duration_s = 30\nrate_hz = 20\n", ["duration_s", "rate_hz"]),
    ])
    def test_the_other_kinds_keys_are_refused(self, kind, given, refused):
        """A key the chosen kind does not read would be ignored, so it is
        refused, whether it comes from the file or from an override."""
        message = re.escape(f"[synth] kind {kind} does not read keys {refused}")
        with pytest.raises(ConfigError, match=message):
            parse_config_text(BASE + f"\n[synth]\nkind = {kind}\n{given}")
        with pytest.raises(ConfigError, match=message):
            parse_config_text(BASE + f"\n[synth]\nkind = {kind}\n", overrides=[
                f"synth.{line.replace(' ', '')}" for line in given.splitlines()])

    def test_flipping_the_kind_refuses_the_keys_of_the_file(self):
        text = BASE + "\n[synth]\nkind = cue_scenario\nduration_s = 30\n"
        with pytest.raises(ConfigError, match=re.escape(
                "[synth] kind var1 does not read keys ['duration_s']")):
            parse_config_text(text, overrides=["synth.kind=var1"])

    def test_an_empty_value_of_the_other_kind_counts_as_absent(self):
        text = BASE + "\n[synth]\nkind = cue_scenario\na =\n"
        _, synth = parse_config_text(text, overrides=["synth.n="])
        assert (synth.kind, synth.a, synth.n) == ("cue_scenario", (0.5, 0.5, 0.0, 0.0), 10000)

    def test_every_synth_key_is_shared_or_read_by_one_kind(self):
        by_kind = [set(keys) for keys in _SYNTH_KIND_KEYS.values()]
        assert not set.intersection(*by_kind)
        assert ({f.name for f in fields(SynthSettings)}
                == set.union({"kind", "n_trials", "seed"}, *by_kind))

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
                                                   "resample_hz = 200"),
                                      overrides=["embedding.delta_s=0.1"])
        assert cfg200.dt == 0.005

    def test_direction_list_expands_both(self):
        cfg, _ = parse_config_text(BASE)
        assert cfg.io.direction_list == (SRC2TGT, TGT2SRC)
        one, _ = parse_config_text(BASE, overrides=["io.directions=tgt2src"])
        assert one.io.direction_list == (TGT2SRC,)

    def test_train_config_carries_seed(self, monkeypatch):
        """The parsed [model] section is what fit_mlp reads, and each fit of
        the pair gets its seed from [io] seed."""
        import cueflow.pipeline as pipeline_module

        cfg, _ = parse_config_text(VAR1_INI, overrides=[
            "io.seed=9", "model.kind=mlp_gaussian", "model.epochs=7"])
        assert cfg.model.epochs == 7
        calls = []

        def recording(ds, conditioning, model, seed):
            calls.append((conditioning, model, seed))
            return fit_var(ds, conditioning)

        monkeypatch.setattr(pipeline_module, "fit_mlp", recording)
        trial, _ = var1_trial("t000", seed=3, n=200)
        fit_models(prepare_trials(var1_trial_set(trial), cfg), cfg)
        assert calls == [(BASELINE, cfg.model, 9), (AUGMENTED, cfg.model, 10)]

    def test_detector_settings_build_configs(self):
        """[embedding] and [detector] parse straight into the stage types,
        which take the sample step from the whole config."""
        cfg, _ = parse_config_text(BASE.replace("resample_hz = 115", "resample_hz = 200"),
                                   overrides=["embedding.delta_s=0.1", "detector.alpha=0.01",
                                              "detector.beta=0.05", "detector.gamma=2.0"])
        assert cfg.detector == DetectorConfig(alpha=0.01, beta=0.05, gamma=2.0)
        assert cfg.embedding == EmbeddingSpec(d=4, delta_s=0.1)
        assert cfg.dt == 0.005
        assert cfg.embedding.stride(cfg.dt) == 20

    @pytest.mark.parametrize("key, bad", [
        ("epochs", "0"),
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

    @pytest.mark.parametrize("section", ["io", "synth"])
    def test_seeds_must_be_non_negative(self, section):
        """numpy's generators take no negative seed, so the parse rejects it."""
        text = BASE + "\n[synth]\nkind = cue_scenario\n"
        cfg, synth = parse_config_text(text, overrides=[f"{section}.seed=0"])
        assert (cfg.io.seed, synth.seed) == (0, 0)
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] seed ")):
            parse_config_text(text, overrides=[f"{section}.seed=-1"])

    def test_bins_are_at_least_one_sample_wide(self):
        """1/115 s is the sample step of BASE; a bin of exactly one sample is
        the finest allowed, so the histogram has at most one bin per sample."""
        cfg, _ = parse_config_text(BASE, overrides=[f"aggregate.bin_dt={1 / 115!r}"])
        assert cfg.aggregate.bin_dt == cfg.dt
        for bin_dt in ("0.0086", "1e-300"):
            with pytest.raises(ConfigError, match=re.escape("[aggregate] bin_dt ")):
                parse_config_text(BASE, overrides=[f"aggregate.bin_dt={bin_dt}"])


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

    def test_readme_table_names_every_key_and_marks_the_required_ones(self):
        """The README's config table lists each section's keys, a key as
        required exactly when its field has no default.  A key's row text
        outside parentheses names it in backticks; the keys before
        ``(required`` are the required ones.  ``[synth]`` lists only its
        ``kind`` and calls the rest its generator fields."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, re.MULTILINE))
        assert rows.keys() == _SECTIONS.keys()

        def names(text):
            return set(re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", text)))

        for section, cls in _SECTIONS.items():
            row, keys = rows[section], {f.name for f in fields(cls)}
            required = {f.name for f in fields(cls) if _required(f)}
            if section == "synth":
                row, generators, _ = row.partition(" plus generator fields")
                assert generators
                keys = required
            head, marker, _ = row.partition("(required")
            assert names(row) == keys, section
            assert (names(head) if marker else set()) == required, section

    def test_configs_built_in_code_get_the_file_checks(self):
        with pytest.raises(ConfigError, match="exactly 2"):
            AggregateConfig(position_channels=("px",))
        with pytest.raises(ConfigError, match="4 numbers"):
            SynthSettings(kind="var1", a=(0.5, 0.5))

    @pytest.mark.parametrize("embedding, detector, named", [
        (dict(d=4, delta_s=0.1), dict(alpha=0.01, beta=0.05, gamma=-1.0),
         "[detector] gamma must be positive"),
        (dict(d=4, delta_s=0.1), dict(alpha=0.01, beta=0.05, hp_cutoff_hz=100.0),
         "[detector] hp_cutoff_hz=100.0 must be below Nyquist"),
        (dict(d=4, delta_s=0.1234), dict(alpha=0.01, beta=0.05),
         "[embedding] delta_s=0.1234 is not an integer multiple"),
        (dict(d=4, delta_s=1e308), dict(alpha=0.01, beta=0.05),
         "[embedding] delta_s=1e+308 is not an integer multiple"),
    ])
    def test_pipeline_config_built_in_code_checks_its_sample_step_rules(
            self, embedding, detector, named):
        """The rules that need 1/resample_hz hold for a config built in
        code as for a parsed one: it does not build."""
        io = IoConfig(target_channels=("x",), source_channels=("y",), resample_hz=200.0)
        with pytest.raises(ConfigError, match=re.escape(named)):
            PipelineConfig(io=io, embedding=EmbeddingSpec(**embedding),
                           detector=DetectorConfig(**detector))

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
