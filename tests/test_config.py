"""Tests for config parsing, presets, and field-path error reporting."""

import json
import math

import pytest

from pvsmooth.cli import main
from pvsmooth.config import BATTERY_PRESETS, load_preset, load_run_config
from pvsmooth.errors import ConfigError


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestDefaults:
    def test_empty_config_fills_everything(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, {}))
        assert cfg.weather_synth is not None
        assert cfg.weather_synth.days == 3
        assert cfg.battery.name == "NaS"
        assert cfg.diesel.fuel_per_kwh == 0.5
        assert cfg.econ.discount_rate == 0.05
        assert cfg.constraints.fluctuation_limit == 150.0
        assert cfg.cases == ("A", "B", "C", "D", "baseline")
        assert len(cfg.battery_candidates) == 4

    def test_output_dir_relative_to_config(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, {"output_dir": "results"}))
        assert cfg.output_dir == tmp_path / "results"

    def test_weather_file_relative_to_config(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, {"weather": {"file": "w.csv"}}))
        assert cfg.weather_file == (tmp_path / "w.csv").resolve()
        assert cfg.weather_synth is None


class TestPresets:
    def test_all_battery_presets_load(self):
        for name in BATTERY_PRESETS:
            data = load_preset(name)
            assert data["eff_power"] == 0.85
            assert data["soc_min_fraction"] == 0.10

    def test_nas_is_the_costliest_per_kw(self):
        caps = {n: load_preset(n)["capital_power"] for n in BATTERY_PRESETS}
        assert caps["table1_liion"] > caps["table1_nas"] > caps["table1_nicd"]

    def test_unknown_preset_lists_the_bundled_ones(self):
        with pytest.raises(ConfigError, match="table1_nas"):
            load_preset("table9_unobtainium")

    def test_battery_by_preset_name(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, {"battery": "table1_la"}))
        assert cfg.battery.name == "Lead-Acid"
        assert cfg.battery.lifetime_years == 2.0

    def test_inline_battery_spec(self, tmp_path):
        spec = load_preset("table1_nas")
        spec["capital_power"] = 900.0
        cfg = load_run_config(write_config(tmp_path, {"battery": spec}))
        assert cfg.battery.capital_power == 900.0

    def test_inline_diesel_spec(self, tmp_path):
        spec = load_preset("table3_diesel")
        spec["fuel_price"] = 2.0
        cfg = load_run_config(write_config(tmp_path, {"diesel": spec}))
        assert cfg.diesel.fuel_price == 2.0
        assert cfg.diesel.capital == spec["capital"]


class TestFieldPathErrors:
    def test_negative_fluctuation_limit_names_the_field(self, tmp_path):
        path = write_config(tmp_path, {"constraints": {"fluctuation_limit": -5}})
        with pytest.raises(ConfigError, match="constraints.*fluctuation_limit"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "section,key",
        [
            ("econ", "engery_price"),
            # the step comes from the weather trace, the tolerances are constants
            ("constraints", "step_hours"),
            # one cost model: present worth with discounted revenue and fuel
            ("constraints", "undiscounted_diesel_costs"),
            ("constraints", "om_full_horizon"),
            # a fraction pins the first-step energy, null leaves it free
            ("constraints", "initial_soc_mode"),
            # every case ends the horizon at least as full as it started
            ("constraints", "cyclic_soc"),
        ],
    )
    def test_unknown_section_key(self, tmp_path, section, key):
        path = write_config(tmp_path, {section: {key: 1.0}})
        with pytest.raises(ConfigError, match=f"{section}.{key}: unknown field"):
            load_run_config(path)

    # the iteration limit is a constant too, so no solver section is left
    @pytest.mark.parametrize("key", ["max_iterations", "refactor_interval"])
    def test_solver_section_exits_2(self, tmp_path, key, capsys):
        path = write_config(tmp_path, {"solver": {key: 1}})
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "config error: solver: unknown field\n"

    def test_cyclic_soc_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"constraints": {"cyclic_soc": True}})
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "config error: constraints.cyclic_soc: unknown field\n"

    @pytest.mark.parametrize(
        "key,value",
        [
            ("days", 0),
            ("days", 2.5),
            ("days", True),
            ("variability", 2),
            ("seed", "x"),
            ("seed", -1),
        ],
    )
    def test_bad_synthetic_weather_exits_2(self, tmp_path, key, value, capsys):
        path = write_config(tmp_path, {"weather": {"synthetic": {key: value}}})
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: weather.synthetic: {key} must be")

    # json loads true as a bool, and a bool is an int, so true would run as a
    # 1-year horizon, a 1 kW grid cap or an efficiency of 1.0
    @pytest.mark.parametrize(
        "section,key",
        [("econ", "horizon_years"), ("constraints", "grid_cap"), ("diesel", "efficiency")],
    )
    def test_boolean_number_exits_2(self, tmp_path, section, key, capsys):
        path = write_config(tmp_path, {section: {key: True}})
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}: {key} must be ")

    @pytest.mark.parametrize("value", [1.5, -0.1, "half"])
    def test_initial_soc_fraction_out_of_range_exits_2(self, tmp_path, value, capsys):
        path = write_config(tmp_path, {"constraints": {"initial_soc_fraction": value}})
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: constraints: initial_soc_fraction must be in [0, 1] "
            f"or null, got {value!r}\n"
        )

    # "inf" is a string here, and JSON reads the number 1e999 as infinity
    @pytest.mark.parametrize("raw", ['"inf"', "1e999"])
    def test_infinite_annualization_names_the_field(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text('{"constraints": {"annualization": %s}}' % raw)
        with pytest.raises(ConfigError, match="constraints: annualization must be"):
            load_run_config(path)

    # JSON reads NaN, Infinity and 1e999; past the config load such a number
    # stops the run as an LP coefficient or bound that names no field
    @pytest.mark.parametrize(
        "section,raw,message",
        [
            ("econ", '{"discount_rate": 1e999}', "discount_rate must be a finite number, got inf"),
            ("diesel", '{"fuel_price": NaN}', "fuel_price must be a finite number, got nan"),
            ("diesel", '{"emission_charge_total": Infinity}',
             "emission_charge_total must be a finite number, got inf"),
            ("plant", '{"noct": NaN}', "noct must be a finite number, got nan"),
            ("constraints", '{"grid_cap": -Infinity}', "grid_cap must be a finite number, got -inf"),
            ("constraints", '{"fluctuation_limit": NaN}',
             "fluctuation_limit must be a finite number, got nan"),
            ("battery", json.dumps(dict(load_preset("table1_nas"), lifetime_years=math.inf)),
             "lifetime_years must be a finite number, got inf"),
        ],
        ids=["discount_rate", "fuel_price", "emission_charge_total", "noct", "grid_cap",
             "fluctuation_limit", "lifetime_years"],
    )
    def test_non_finite_number_exits_2(self, tmp_path, section, raw, message, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"weather": {"synthetic": {"days": 1}}, "%s": %s}' % (section, raw))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {section}: {message}\n"

    def test_non_finite_candidate_names_its_place(self, tmp_path, capsys):
        spec = dict(load_preset("table1_liion"), capital_energy=math.nan)
        doc = {"weather": {"synthetic": {"days": 1}}, "battery_candidates": ["table1_nas", spec]}
        path = write_config(tmp_path, doc)
        assert main(["battery-select", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: battery_candidates[1]: capital_energy must be a finite number, "
            "got nan\n"
        )

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="wether"):
            load_run_config(write_config(tmp_path, {"wether": {}}))

    def test_unknown_case(self, tmp_path):
        with pytest.raises(ConfigError, match="cases"):
            load_run_config(write_config(tmp_path, {"cases": ["A", "Z"]}))

    def test_empty_cases(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one case"):
            load_run_config(write_config(tmp_path, {"cases": []}))

    def test_invalid_json_reports_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([], "top level must be an object"),
            ({"plant": 3}, "plant: expected an object, got int"),
            ({"weather": {"rain": {}}}, "weather.rain: unknown weather source"),
            ({"battery_candidates": []}, "battery_candidates: expected a non-empty list"),
            ({"output_dir": 5}, "output_dir: expected a path string, got 5"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, doc, message, capsys):
        path = write_config(tmp_path, doc)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1

    def test_two_weather_sources_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"weather": {"file": "w.csv", "synthetic": {}}}
        )
        with pytest.raises(ConfigError, match="exactly one"):
            load_run_config(path)


class TestCoercions:
    def test_inf_strings_accepted_for_limits(self, tmp_path):
        path = write_config(
            tmp_path, {"constraints": {"fluctuation_limit": "inf"}}
        )
        cfg = load_run_config(path)
        assert cfg.constraints.fluctuation_limit == math.inf

    # JSON reads 1e999 as infinity, which means no limit as "inf" does
    @pytest.mark.parametrize("key", ["fluctuation_limit", "grid_cap"])
    def test_overflowing_number_is_no_limit(self, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text('{"constraints": {"%s": 1e999}}' % key)
        assert getattr(load_run_config(path).constraints, key) == math.inf

    def test_other_strings_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"constraints": {"fluctuation_limit": "lots"}}
        )
        with pytest.raises(ConfigError, match="fluctuation_limit"):
            load_run_config(path)

    def test_case_list_deduplicated_in_order(self, tmp_path):
        path = write_config(tmp_path, {"cases": ["B", "A", "B"]})
        assert load_run_config(path).cases == ("B", "A")

    @pytest.mark.parametrize("value", [None, 0.0, 0.5, 1])
    def test_initial_soc_fraction_loads(self, tmp_path, value):
        path = write_config(tmp_path, {"constraints": {"initial_soc_fraction": value}})
        assert load_run_config(path).constraints.initial_soc_fraction == value


class TestEncoding:
    """A config is read as UTF-8, whatever the locale, after an optional
    byte-order mark such as Windows Notepad may write."""

    def test_byte_order_mark_reads_like_the_plain_file(self, tmp_path):
        doc = {
            "weather": {"synthetic": {"days": 1}},
            "battery": {**load_preset("table1_la"), "name": "Blei-Säure"},
        }
        text = json.dumps(doc, ensure_ascii=False).encode("utf-8")
        plain = tmp_path / "plain.json"
        plain.write_bytes(text)
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_run_config(bom) == load_run_config(plain)
        assert load_run_config(bom).battery.name == "Blei-Säure"
        assert main(["export-mps", str(bom), "--case", "A"]) == 0

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
    def test_non_utf8_byte_exits_2(self, tmp_path, mark, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(mark + '{\n  "battery": {"name": "Café"}\n}\n'.encode("latin-1"))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: non-UTF-8 byte 0xe9 on line 2\n"
        )
