from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import fields, replace

import pytest

from dinersim.config_io import (
    ConfigFormatError,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from dinersim.model import (
    BackendConfig,
    BackendModeError,
    ConfigError,
    ConfigValidationError,
    DEFAULT_MENU,
    DilemmaConditionError,
    GroupRound,
    GroupSpec,
    ImitationOutcome,
    IterationRecord,
    MealChoice,
    MenuConfig,
    PartitionError,
    PunishmentEvent,
    PunishmentLevel,
    PunishmentMode,
    PunishmentParams,
    Strategy,
    census_of,
    dilemma_condition_holds,
    paper_preset,
    parse_punishment_setting,
    validate_config,
)

from conftest import make_config


def violations_of(exc_info) -> list:
    return exc_info.value.violations


class TestValidateConfig:
    def test_default_eight_agent_config_is_valid(self):
        config = make_config([["M", "P", "E", "R1"], ["M", "M", "P", "R1"]])
        assert validate_config(config) is config  # idempotent, returned unchanged
        assert validate_config(validate_config(config)) is config

    def test_dilemma_condition_default_menu(self):
        # (30-10)/4 = 5 < 10 < 20
        assert dilemma_condition_holds(DEFAULT_MENU, 4)

    def test_dilemma_condition_violated(self):
        # premium value jump 28 is not below the cost jump 20
        config = make_config([["M", "P", "E", "R1"]])
        config = replace(config, menu=MenuConfig(10, 12, 30, 40))
        with pytest.raises(ConfigValidationError) as exc_info:
            validate_config(config)
        assert any(isinstance(v, DilemmaConditionError) for v in violations_of(exc_info))

    def test_partition_error_on_overlap_and_omission(self):
        config = make_config([["M", "P", "E", "R1"], ["M", "M", "P", "R1"]])
        bad_groups = (
            GroupSpec("g1", ("a1", "a2", "a3", "a4")),
            GroupSpec("g2", ("a4", "a5", "a6", "a7")),  # a4 duplicated, a8 missing
        )
        config = replace(config, groups=bad_groups)
        with pytest.raises(ConfigValidationError) as exc_info:
            validate_config(config)
        partition = [v for v in violations_of(exc_info) if isinstance(v, PartitionError)]
        assert partition
        assert "a4" in str(partition[0]) and "a8" in str(partition[0])

    def test_backend_mode_error_for_oracle_with_backend_decided(self):
        config = make_config([["M", "P", "E", "R1"]], p=None)
        with pytest.raises(ConfigValidationError) as exc_info:
            validate_config(config)
        assert any(isinstance(v, BackendModeError) for v in violations_of(exc_info))

    def test_all_violations_reported_together(self):
        config = make_config([["M", "P", "E", "R1"], ["M", "M", "P", "R1"]])
        config = replace(
            config,
            menu=MenuConfig(10, 12, 30, 40),
            groups=(config.groups[0], GroupSpec("g2", ("a4", "a5", "a6", "a7"))),
            iterations=-1,
        )
        with pytest.raises(ConfigValidationError) as exc_info:
            validate_config(config)
        kinds = {type(v) for v in violations_of(exc_info)}
        assert PartitionError in kinds and DilemmaConditionError in kinds

    def test_group_location_count_mismatch(self):
        config = make_config([["M", "P", "E", "R1"]])
        config = replace(config, locations=("pub", "cafe"))
        with pytest.raises(ConfigValidationError):
            validate_config(config)

    def test_warns_when_p_below_k(self):
        config = make_config([["M", "P", "E", "R1"]], p=0.5, k=1.0)
        with pytest.warns(UserWarning, match="usually costlier"):
            validate_config(config)

    @pytest.mark.parametrize("field", [
        "menu.budget_cost", "menu.premium_value", "imitation.beta",
        "backend.temperature", "backend.top_p", "backend.timeout", "backend.backoff_base",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, field, value):
        config = make_config([["M", "P", "E", "R1"]])
        section, name = field.split(".")
        config = replace(config, **{section: replace(getattr(config, section), **{name: value})})
        with pytest.raises(ConfigValidationError, match=field):
            validate_config(config)

    @pytest.mark.parametrize("name, value", [
        ("timeout", 0.0),
        ("timeout", -1.0),
        ("backoff_base", -0.5),
        ("transport_retries", -1),
        ("repair_retries", -1),
        ("max_concurrency", 0),
    ])
    def test_out_of_range_backend_settings_rejected(self, name, value):
        config = make_config([["M", "P", "E", "R1"]])
        config = replace(config, backend=replace(config.backend, **{name: value}))
        with pytest.raises(ConfigValidationError, match=f"backend.{name} must be"):
            validate_config(config)

    def test_empty_ids_and_names_rejected(self):
        config = make_config([["M", "P", "E", "R1"]])
        config = replace(
            config,
            agents=(replace(config.agents[0], name=""),) + config.agents[1:],
            groups=(replace(config.groups[0], group_id=""),),
        )
        with pytest.raises(ConfigValidationError) as exc_info:
            validate_config(config)
        messages = " ".join(str(v) for v in violations_of(exc_info))
        assert "name must be non-empty" in messages
        assert "group_id must be non-empty" in messages

    def test_p_equal_k_does_not_warn(self):
        import warnings

        config = make_config([["M", "P", "E", "R1"]], p=1.0, k=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_config(config)


class TestPaperPreset:
    def test_combination_one_census_and_punishment(self):
        config = paper_preset(1, "6:1", seed=3)
        census = census_of(a.strategy for a in config.agents)
        assert census == {
            Strategy.MORALIST: 3,
            Strategy.COOPERATOR_PUNISHER: 2,
            Strategy.EASY_GOING_COOPERATOR: 1,
            Strategy.RELUCTANT_COOPERATOR: 2,
        }
        assert config.punishment == PunishmentParams(mode=PunishmentMode.EXPLICIT, p=6.0, k=1.0)
        assert config.iterations == 10
        assert config.locations == ("pub", "cafe")
        assert config.imitation.beta == 1.0

    def test_combination_two_census(self):
        config = paper_preset(2, "3:1", seed=3)
        census = census_of(a.strategy for a in config.agents)
        assert census == {
            Strategy.RELUCTANT_COOPERATOR: 3,
            Strategy.MORALIST: 2,
            Strategy.COOPERATOR_PUNISHER: 2,
            Strategy.EASY_GOING_COOPERATOR: 1,
        }
        assert config.punishment.p == 3.0 and config.punishment.k == 1.0

    def test_group_rosters_match_combinations(self):
        config = paper_preset(1, "6:1", seed=0)
        by_id = {a.agent_id: a.strategy.value for a in config.agents}
        assert [by_id[m] for m in config.groups[0].members] == ["M", "P", "E", "R1"]
        assert [by_id[m] for m in config.groups[1].members] == ["M", "M", "P", "R1"]
        config = paper_preset(2, "3:1", seed=0)
        by_id = {a.agent_id: a.strategy.value for a in config.agents}
        assert [by_id[m] for m in config.groups[0].members] == ["R1", "R1", "E", "M"]
        assert [by_id[m] for m in config.groups[1].members] == ["R1", "P", "P", "M"]

    def test_unspecified_punishment_maps_to_backend_decided(self):
        config = paper_preset(1, None, seed=3)
        assert config.punishment.mode is PunishmentMode.BACKEND_DECIDED
        assert config.punishment.p is None and config.punishment.k is None

    def test_presets_validate_with_llm_backend(self):
        for combination in (1, 2):
            for punishment in (None, "3:1", "6:1"):
                config = paper_preset(combination, punishment, seed=1)
                assert config.backend.kind == "llm"
                validate_config(config)

    def test_backend_decided_preset_rejected_with_oracle(self):
        config = paper_preset(1, None, seed=1, backend=BackendConfig(kind="oracle"))
        with pytest.raises(ConfigValidationError):
            validate_config(config)

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            paper_preset(3, "6:1", seed=1)

    def test_punishment_setting_parsing(self):
        assert parse_punishment_setting("6:1") == PunishmentParams(
            mode=PunishmentMode.EXPLICIT, p=6.0, k=1.0
        )
        assert parse_punishment_setting(None).mode is PunishmentMode.BACKEND_DECIDED
        with pytest.raises(ConfigError):
            parse_punishment_setting("six-to-one")


# sha256 prefix of the saved file and run id for every preset variant, as
# written by the hand-written serialiser this codec replaced.
SAVED_PRESET_DIGESTS = {
    "c1-none-default": ("b8e2005d6a1831fb", "7581c3eaf3-s7"),
    "c1-none-oracle": ("716c8203e6a95590", "60ca2f14cc-s7"),
    "c1-none-llm": ("a788c119cde46a2f", "b37e2d3b95-s7"),
    "c1-3:1-default": ("9233f3d7db6405e9", "d75f407648-s7"),
    "c1-3:1-oracle": ("7da817868fbaee18", "3327f64bcf-s7"),
    "c1-3:1-llm": ("5a67a2bcb970c3af", "9d1737ad67-s7"),
    "c1-6:1-default": ("10ed36e5523e40a1", "61decf22c3-s7"),
    "c1-6:1-oracle": ("d6faf30723f7db8b", "6139137d88-s7"),
    "c1-6:1-llm": ("7802b9f13e90a9ca", "cc6b47719e-s7"),
    "c2-none-default": ("12f0562c077604aa", "98e625fdde-s7"),
    "c2-none-oracle": ("423bfeeb4ac22faf", "3edc9d9175-s7"),
    "c2-none-llm": ("486108767152a8db", "b7c020b20d-s7"),
    "c2-3:1-default": ("fe2d71457c4597d4", "adacd82d50-s7"),
    "c2-3:1-oracle": ("cb49a56301ca2369", "30a873be68-s7"),
    "c2-3:1-llm": ("659885ab317a05d2", "5c925d5397-s7"),
    "c2-6:1-default": ("9316d213c1cbb0c1", "f298aba49f-s7"),
    "c2-6:1-oracle": ("9973821717309d7e", "7a6c4eb1dc-s7"),
    "c2-6:1-llm": ("68e182305944f75e", "8f5cd8a743-s7"),
}

NON_DEFAULT_LLM = BackendConfig(
    kind="llm", temperature=0.7, top_p=0.5, timeout=12.5, transport_retries=5,
    repair_retries=1, backoff_base=0.5, max_concurrency=8, error_policy="abstain",
    template_dir="prompts",
)


class TestConfigSerialization:
    def test_saved_presets_are_byte_identical_to_recorded_digests(self, tmp_path):
        from dinersim.runner import run_id_for

        backends = {"default": None, "oracle": BackendConfig(kind="oracle"), "llm": NON_DEFAULT_LLM}
        got = {}
        for combination in (1, 2):
            for punishment in (None, "3:1", "6:1"):
                for label, backend in backends.items():
                    name = f"c{combination}-{punishment or 'none'}-{label}"
                    config = paper_preset(combination, punishment, seed=7, backend=backend)
                    path = tmp_path / "config.json"
                    save_config(config, path)
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                    got[name] = (digest, run_id_for(config))
        assert got == SAVED_PRESET_DIGESTS

    @pytest.mark.parametrize("path, value, where", [
        (("backend", "max_concurrency"), "abc", "config.backend.max_concurrency"),
        (("groups", 0, "members"), [1, 2], "config.groups[0].members[0]"),
        (("iterations",), True, "config.iterations"),
        (("iterations",), 10.0, "config.iterations"),
        (("menu", "budget_cost"), "10", "config.menu.budget_cost"),
        (("imitation", "beta"), False, "config.imitation.beta"),
        (("agents", 0, "lifestyle"), None, "config.agents[0].lifestyle"),
        (("backend", "template_dir"), 3, "config.backend.template_dir"),
        (("punishment", "mode"), "sometimes", "config.punishment.mode"),
        (("agents",), {"a1": "M"}, "config.agents"),
        (("menu",), [10, 12, 30, 22], "config.menu"),
    ])
    def test_wrong_typed_value_names_its_path(self, path, value, where):
        data = config_to_dict(paper_preset(1, "6:1", seed=1))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigFormatError, match=re.escape(where)):
            config_from_dict(data)

    @pytest.mark.parametrize("path, where", [
        (("agents", 0, "name"), "config.agents[0].name"),
        (("agents", 1, "agent_id"), "config.agents[1].agent_id"),
        (("groups", 0, "members", 2), "config.groups[0].members[2]"),
        (("backend", "kind"), "config.backend.kind"),
    ])
    def test_string_that_cannot_be_utf8_names_its_path(self, path, where):
        # json.loads('"\\ud800"') is a lone surrogate: valid JSON, but no
        # event log could hold it.
        data = config_to_dict(paper_preset(1, "6:1", seed=1))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = json.loads('"x\\ud800"')
        with pytest.raises(ConfigFormatError, match=re.escape(where) + ".*UTF-8"):
            config_from_dict(data)

    def test_missing_required_key_names_its_path(self):
        data = config_to_dict(paper_preset(1, "6:1", seed=1))
        del data["agents"][2]["strategy"]
        with pytest.raises(ConfigFormatError, match=re.escape("config.agents[2].strategy")):
            config_from_dict(data)

    def test_keys_with_defaults_may_be_omitted(self):
        data = config_to_dict(paper_preset(1, "6:1", seed=1))
        del data["punishment"]["mode"]
        data["backend"] = {}
        data["imitation"] = {}
        config = config_from_dict(data)
        assert config.punishment.mode is PunishmentMode.EXPLICIT
        assert config.backend == BackendConfig()
        assert config.imitation.beta == 1.0

    def test_integer_json_numbers_load_as_floats(self):
        data = config_to_dict(paper_preset(1, "6:1", seed=1))
        data["punishment"]["p"] = 6
        data["menu"]["budget_cost"] = 10
        config = config_from_dict(data)
        assert config == paper_preset(1, "6:1", seed=1)
        assert type(config.punishment.p) is float
        assert config_to_dict(config)["menu"]["budget_cost"] == 10.0


    @pytest.mark.parametrize("punishment", [None, "3:1", "6:1"])
    @pytest.mark.parametrize("combination", [1, 2])
    def test_round_trip_equality(self, combination, punishment):
        config = paper_preset(combination, punishment, seed=99)
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_oracle_backend(self):
        config = paper_preset(1, "6:1", seed=4, backend=BackendConfig(kind="oracle"))
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_preserves_nondefault_backend_settings(self):
        config = paper_preset(1, "6:1", seed=4, backend=NON_DEFAULT_LLM)
        assert config_from_dict(config_to_dict(config)) == config

    def test_file_round_trip(self, tmp_path):
        config = paper_preset(2, "6:1", seed=123)
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_unknown_top_level_key_is_hard_error(self):
        data = config_to_dict(paper_preset(1, "6:1", seed=1))
        data["sauce"] = "secret"
        with pytest.raises(ConfigFormatError, match="sauce"):
            config_from_dict(data)

    def test_unknown_nested_key_is_hard_error(self):
        data = config_to_dict(paper_preset(1, "6:1", seed=1))
        data["menu"]["dessert_cost"] = 5
        with pytest.raises(ConfigFormatError, match="dessert_cost"):
            config_from_dict(data)

    def test_bad_strategy_label_rejected(self):
        data = config_to_dict(paper_preset(1, "6:1", seed=1))
        data["agents"][0]["strategy"] = "Q"
        with pytest.raises(ConfigFormatError, match="strategy"):
            config_from_dict(data)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigFormatError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_non_json_config_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("iterations: 10\n")
        with pytest.raises(ConfigFormatError, match="not valid JSON"):
            load_config(path)

    def test_strategy_labels_are_canonical(self):
        assert [s.value for s in Strategy] == ["P", "R1", "E", "M"]
        data = config_to_dict(paper_preset(1, "6:1", seed=1))
        labels = {a["strategy"] for a in data["agents"]}
        assert labels <= {"P", "R1", "E", "M"}
        json.dumps(data)  # fully JSON-serializable


_EVENT = PunishmentEvent(1, "a1", "a2", PunishmentLevel.DEFECTION, 1.0, 6.0)
_OUTCOME = ImitationOutcome("a1", "a2", 1.5, 0.8, 0.25, True)
_GROUP = GroupRound(
    "g1", "pub", {"a1": MealChoice.BUDGET, "a2": MealChoice.PREMIUM}, 40.0,
    {"a1": -8.0, "a2": 2.0}, (_EVENT,), {"a1": -9.0, "a2": -4.0},
)
_RECORD = IterationRecord(1, (_GROUP,), (_OUTCOME,), census_of([Strategy.MORALIST] * 2))


class TestRunRecords:
    """The run records are slotted, compare by value and are unhashable."""

    @pytest.mark.parametrize("record, name, other", [
        (_EVENT, "cost_to_target", 3.0),
        (_OUTCOME, "adopted", False),
        (_GROUP, "punishment_events", ()),
        (_RECORD, "imitation_outcomes", ()),
    ], ids=["PunishmentEvent", "ImitationOutcome", "GroupRound", "IterationRecord"])
    def test_slotted_value_record(self, record, name, other):
        cls = type(record)
        assert vars(cls)["__slots__"] == tuple(f.name for f in fields(cls))
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.undeclared = 1
        copy = replace(record)
        assert copy == record and copy is not record
        assert replace(record, **{name: other}) != record
        assert repr(record).startswith(f"{cls.__name__}(")
        with pytest.raises(TypeError):
            hash(record)
