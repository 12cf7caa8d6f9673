"""Run-configuration layering, file parsing, and echo round-trips."""

import pytest

from patchcast.config import (
    EvalSettings,
    SynthSettings,
    build_run_config,
    default_flat,
    parse_config_file,
    render_config,
)
from patchcast.errors import ConfigError
from patchcast.model import ModelConfig


class TestDefaults:
    def test_default_build_matches_dataclass_defaults(self):
        rc = build_run_config()
        assert rc.model == ModelConfig()
        assert rc.train.steps == 2000
        assert rc.eval == EvalSettings()
        assert rc.synth == SynthSettings()

    def test_flat_covers_all_sections(self):
        flat = default_flat()
        assert len(flat) == 23
        assert {k.partition(".")[0] for k in flat} == {"model", "train", "eval", "synth"}
        assert flat["model.d_model"] == 128
        assert flat["train.lr"] == 1e-3

    def test_canonical_eval_geometry(self):
        # zeros derive from the default architecture: 1024-sample context,
        # 128-sample horizon, stride equal to the horizon
        rc = build_run_config()
        assert rc.eval.resolve(rc.model) == (1024, 128, 128)

    def test_explicit_geometry_passes_through(self):
        assert EvalSettings(window=64, horizon=16, stride=8).resolve(ModelConfig()) == (64, 16, 8)

    def test_stride_defaults_to_resolved_horizon(self):
        assert EvalSettings(horizon=32).resolve(ModelConfig()) == (1024, 32, 32)


class TestValidation:
    def test_negative_eval_geometry_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            EvalSettings(window=-1)

    def test_bad_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            EvalSettings(task="classify")

    def test_synth_guards(self):
        with pytest.raises(ConfigError, match="seed"):
            SynthSettings(seed=-1)
        with pytest.raises(ConfigError, match="variants_per_entry"):
            SynthSettings(variants_per_entry=0)

    def test_section_validation_applies_through_build(self):
        # d_model=30 does not divide by the default 4 heads
        with pytest.raises(ConfigError, match="n_heads"):
            build_run_config({"model.d_model": "30"})


class TestLayering:
    def test_later_layer_wins(self):
        rc = build_run_config({"model.d_model": "64"}, {"model.d_model": "32"})
        assert rc.model.d_model == 32

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_run_config({"model.dmodel": "64"})

    def test_string_values_coerced_by_field_type(self):
        rc = build_run_config({"train.lr": "2e-4", "train.steps": "50", "eval.task": "reconstruct"})
        assert rc.train.lr == 2e-4 and isinstance(rc.train.lr, float)
        assert rc.train.steps == 50 and isinstance(rc.train.steps, int)
        assert rc.eval.task == "reconstruct"

    def test_typed_values_pass_through(self):
        rc = build_run_config({"model.n_layers": 3, "train.lr": 0.5})
        assert rc.model.n_layers == 3
        assert rc.train.lr == 0.5

    def test_unparseable_number_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            build_run_config({"train.steps": "fifty"})
        with pytest.raises(ConfigError, match="cannot parse"):
            build_run_config({"train.steps": "1.5"})  # int field, float string


class TestConfigFile:
    def test_parse_basics(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# a comment\n"
            "\n"
            "model.d_model = 64   # trailing comment\n"
            "  train.steps=7\n"
        )
        assert parse_config_file(p) == {"model.d_model": "64", "train.steps": "7"}

    def test_missing_equals_names_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("model.d_model = 64\njust words\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            parse_config_file(p)

    def test_empty_value_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("model.d_model =\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.lr = 0.1\ntrain.lr = 0.2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg")


class TestRenderRoundtrip:
    def test_rendered_config_rebuilds_identically(self, tmp_path):
        rc = build_run_config(
            {"model.d_model": "16", "model.n_heads": "2", "train.lr": "3e-4",
             "eval.horizon": "16", "synth.variants_per_entry": "2"}
        )
        text = render_config(rc)
        assert text.startswith("#")
        echo = tmp_path / "echo.cfg"
        echo.write_text(text, encoding="utf-8")
        assert build_run_config(parse_config_file(echo)) == rc

    def test_render_is_sorted_within_sections(self):
        lines = [l for l in render_config(build_run_config()).splitlines() if "=" in l]
        keys = [l.split("=")[0].strip() for l in lines]
        assert keys == sorted(keys, key=lambda k: (k.partition(".")[0], k))
