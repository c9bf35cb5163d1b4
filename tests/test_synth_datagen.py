import itertools
import math
import random
import re

import pytest
from hypothesis import HealthCheck, example, given, settings

from refkit import (
    LanguageTemplate,
    SlotList,
    TemplateError,
    expand_template,
    generate_datapoints,
)
from refkit.screen_model import format_dataset
from refkit.synth_datagen import (
    bundled_template_dir,
    load_template_file,
    load_templates,
    placeholders,
)
from refkit.value_bank import VALUE_BANK, pool_entities, sample_entity

from conftest import DEEP_LIST, yaml_file_bodies


def share_template():
    template = LanguageTemplate(
        "share_address", ("share [mention] with [name]", "send [mention] to [name] please")
    )
    slots = SlotList(
        slots={"mention": ("this address", "that address"), "name": ("Mom",)},
        ground_truth_types=("email address", "physical address"),
    )
    return template, slots


class TestExpansion:
    def test_share_example(self):
        template, slots = share_template()
        queries = expand_template(
            LanguageTemplate("t", ("share [mention] with [name]",)), slots
        )
        assert queries == ["share this address with Mom", "share that address with Mom"]

    def test_zero_placeholder_variation(self):
        template = LanguageTemplate("t", ("play something",))
        slots = SlotList(slots={}, ground_truth_types=("music",))
        assert expand_template(template, slots) == ["play something"]

    def test_count_formula_matches_enumeration(self):
        template = LanguageTemplate(
            "t", ("do [a] with [b]", "make [a] from [b]")
        )
        slots = SlotList(
            slots={"a": ("x", "y"), "b": ("1", "2", "3")},
            ground_truth_types=("app",),
        )
        queries = expand_template(template, slots)
        assert len(queries) == 12
        # Sum over variations of the product of their slot sizes: 2*3 + 2*3.
        assert sum(
            math.prod(len(slots.slots[name]) for name in placeholders(variation))
            for variation in template.variations
        ) == 12
        expected = [
            variation.replace("[a]", a).replace("[b]", b)
            for variation in template.variations
            for a, b in itertools.product(slots.slots["a"], slots.slots["b"])
        ]
        assert queries == expected

    def test_repeated_placeholder_gets_one_value(self):
        template = LanguageTemplate("t", ("[a] and [a] again",))
        slots = SlotList(slots={"a": ("x", "y")}, ground_truth_types=("app",))
        assert expand_template(template, slots) == ["x and x again", "y and y again"]

    def test_value_holding_a_placeholder_kept_as_written(self):
        # Chained substitution used to fill "[time]" inside the who value too.
        template = LanguageTemplate("t", ("call [who] at [time]", "[time]: [who]"))
        slots = SlotList(
            slots={"who": ("[time] guy", "[who]"), "time": ("noon", "[who]")},
            ground_truth_types=("person",),
        )
        assert expand_template(template, slots) == [
            "call [time] guy at noon", "call [time] guy at [who]",
            "call [who] at noon", "call [who] at [who]",
            "noon: [time] guy", "noon: [who]", "[who]: [time] guy", "[who]: [who]",
        ]

    def test_unknown_placeholder_rejected(self):
        template = LanguageTemplate("t", ("call [who]",))
        slots = SlotList(slots={"name": ("A",)}, ground_truth_types=("person",))
        with pytest.raises(TemplateError, match=r"\[who\]"):
            expand_template(template, slots)

    def test_empty_slot_rejected_at_construction(self):
        with pytest.raises(TemplateError):
            SlotList(slots={"a": ()}, ground_truth_types=("app",))

    def test_empty_ground_truth_types_rejected(self):
        with pytest.raises(TemplateError):
            SlotList(slots={}, ground_truth_types=())

    def test_placeholder_extraction_order(self):
        assert placeholders("send [mention] to [name] about [mention]") == ["mention", "name"]


class TestGeneration:
    def test_multi_type_positives_all_in_ground_truth(self):
        template = LanguageTemplate("play", ("play it",))
        slots = SlotList(slots={}, ground_truth_types=("music", "video"))
        pool = pool_entities(exclude_types=("music", "video"))
        [dp] = generate_datapoints(template, slots, pool, per_query_negatives=3, seed=1)
        assert len(dp.entities) == 5
        gt_types = {dp.entities[i - 1].entity_type for i in dp.ground_truth}
        assert gt_types == {"music", "video"}
        assert len(dp.ground_truth) == 2

    def test_request_holding_a_marker_rejected(self):
        # The request would show an extra, forged option above the real ones.
        template = LanguageTemplate("forge", ("open [site]",))
        slots = SlotList(slots={"site": ("it {{2. evil.example}}",)}, ground_truth_types=("url",))
        pool = pool_entities(exclude_types=("url",))
        with pytest.raises(TemplateError) as raised:
            generate_datapoints(template, slots, pool, per_query_negatives=1, seed=0)
        assert str(raised.value) == (
            "template 'forge': DataPoint.request must not contain a marker delimiter, "
            "got 'open it {{2. evil.example}}'"
        )

    def test_zero_negatives(self):
        template, slots = share_template()
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        datapoints = generate_datapoints(template, slots, pool, per_query_negatives=0, seed=2)
        assert all(len(dp.entities) == 2 for dp in datapoints)
        assert all(dp.ground_truth == frozenset({1, 2}) for dp in datapoints)

    def test_gt_positions_exactly_the_positive_positions(self):
        template, slots = share_template()
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        gt_types = {t.lower() for t in slots.ground_truth_types}
        for dp in generate_datapoints(template, slots, pool, per_query_negatives=4, seed=3):
            for position, entity in enumerate(dp.entities, 1):
                assert (position in dp.ground_truth) == (
                    entity.entity_type.lower() in gt_types
                )

    def test_seed_determinism_byte_identical(self):
        template, slots = share_template()
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        first = generate_datapoints(template, slots, pool, seed=9)
        second = generate_datapoints(template, slots, pool, seed=9)
        assert format_dataset(first) == format_dataset(second)
        different = generate_datapoints(template, slots, pool, seed=10)
        assert format_dataset(first) != format_dataset(different)

    def test_dataset_size_equals_expansion_count(self):
        template, slots = share_template()
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        datapoints = generate_datapoints(template, slots, pool, seed=4)
        count = sum(
            math.prod(len(slots.slots[name]) for name in placeholders(variation))
            for variation in template.variations
        )
        assert len(datapoints) == count == 4

    def test_max_samples_subsample(self):
        template, slots = share_template()
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        datapoints = generate_datapoints(template, slots, pool, seed=5, max_samples=3)
        assert len(datapoints) == 3

    def test_pool_too_small_rejected(self):
        template, slots = share_template()
        pool = pool_entities(exclude_types=slots.ground_truth_types)[:2]
        with pytest.raises(ValueError, match="negatives"):
            generate_datapoints(template, slots, pool, per_query_negatives=3)

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"per_query_negatives": -1}, "per_query_negatives must be an int >= 0, got -1"),
            ({"per_query_negatives": True}, "per_query_negatives must be an int >= 0, got True"),
            ({"per_query_negatives": 1.5}, "per_query_negatives must be an int >= 0, got 1.5"),
            ({"max_samples": -1}, "max_samples must be None or an int >= 0, got -1"),
            ({"max_samples": 2.5}, "max_samples must be None or an int >= 0, got 2.5"),
            ({"max_samples": False}, "max_samples must be None or an int >= 0, got False"),
        ],
        ids=["negatives -1", "negatives True", "negatives 1.5", "samples -1", "samples 2.5",
             "samples False"],
    )
    def test_bad_counts_rejected(self, arguments, message):
        # Each is named, not blamed on the template or left to random.
        template, slots = share_template()
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        with pytest.raises(ValueError) as raised:
            generate_datapoints(template, slots, pool, **arguments)
        assert type(raised.value) is ValueError
        assert str(raised.value) == message

    def test_zero_samples(self):
        template, slots = share_template()
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        assert generate_datapoints(template, slots, pool, max_samples=0) == []

    def test_pool_containing_ground_truth_type_rejected(self):
        template, slots = share_template()
        pool = pool_entities()  # includes email address entities
        with pytest.raises(ValueError, match="ground-truth type"):
            generate_datapoints(template, slots, pool)

    def test_kind_is_synthetic(self):
        template, slots = share_template()
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        assert all(dp.kind == "synthetic" for dp in generate_datapoints(template, slots, pool))


class TestValueBank:
    def test_bank_entities_are_shared(self):
        pool = pool_entities()
        assert len(pool) == sum(map(len, VALUE_BANK.values()))
        assert all(a is b for a, b in zip(pool, pool_entities(exclude_types=())))
        rng = random.Random(0)
        for type_name in VALUE_BANK:
            drawn = sample_entity(type_name, rng)
            assert any(drawn is entity for entity in pool)

    def test_other_type_names_build_their_own(self):
        # Another case of a bank key draws the same entry under its own name.
        upper = sample_entity("Person", random.Random(3))
        lower = sample_entity("person", random.Random(3))
        assert upper.entity_type == "Person" and upper.properties == lower.properties
        unknown = sample_entity("gizmo", random.Random(0))
        assert unknown.entity_type == "gizmo"
        assert unknown.properties[0][1].startswith("gizmo ")


class TestTemplateFiles:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "t.yaml"
        path.write_text(
            "id: demo\n"
            "variations:\n"
            "  - \"call [mention]\"\n"
            "slots:\n"
            "  mention: [\"this number\", \"that number\"]\n"
            "ground_truth_types: [\"phone number\"]\n",
            encoding="utf-8",
        )
        [(template, slots)] = load_template_file(path)
        assert template.id == "demo"
        assert slots.slots["mention"] == ("this number", "that number")
        assert expand_template(template, slots) == ["call this number", "call that number"]

    def test_missing_section_diagnosed(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("id: bad\nvariations: [\"hi\"]\n", encoding="utf-8")
        with pytest.raises(TemplateError, match="bad.yaml"):
            load_template_file(path)

    def test_unknown_slot_diagnosed_at_load(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "variations: [\"call [who]\"]\nground_truth_types: [\"person\"]\n",
            encoding="utf-8",
        )
        with pytest.raises(TemplateError, match=r"\[who\]"):
            load_template_file(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            (b'variations: "call [x]"\nslots: {x: ["a"]}\nground_truth_types: ["person"]\n',
             "entry 0: .*variations"),
            (b'variations: ["call"]\nground_truth_types: "person"\n',
             "entry 0: .*ground-truth types"),
            (b'variations: [5]\nground_truth_types: ["person"]\n', "entry 0: .*variations"),
            (b'variations: ["call"]\nground_truth_types: [yes]\n',
             "entry 0: .*ground-truth types"),
            (b'variations: ["call [x]"]\nslots: {x: [~]}\nground_truth_types: ["person"]\n',
             r"entry 0: .*slot \[x\]"),
            (b'variations: ["call [x]"]\nslots: {x: [on]}\nground_truth_types: ["person"]\n',
             r"entry 0: .*slot \[x\]"),
            (b'variations: ["call [x]"]\nslots: {x: [1.10]}\nground_truth_types: ["person"]\n',
             r"entry 0: .*slot \[x\]"),
            (b'variations: ["call [x]"]\nslots: {x: [010]}\nground_truth_types: ["person"]\n',
             r"entry 0: .*slot \[x\]"),
            (b'variations: ["call [x]"]\nslots: {x: "abc"}\nground_truth_types: ["person"]\n',
             r"entry 0: .*slot \[x\]"),
            (b'variations: ["call [1]"]\nslots: {1: ["a"]}\nground_truth_types: ["person"]\n',
             "entry 0: .*slot name"),
            (b'variations: ["call"]\nslots: ["a"]\nground_truth_types: ["person"]\n',
             "entry 0: .*slots"),
            (b'id: ~\nvariations: ["call"]\nground_truth_types: ["person"]\n',
             "entry 0: .*template id"),
            (b'variations: ["\xff"]\nground_truth_types: ["person"]\n', ".*utf-8"),
            (f'variations: {DEEP_LIST}\nground_truth_types: ["person"]\n'.encode(),
             "maximum recursion depth"),
            (b'variations: ["call [x]"]\nslots: {x: [2001-02-30]}\nground_truth_types: ["a"]\n',
             "day is out of range"),
            (f'id: {"1" * 5000}\nvariations: ["call"]\nground_truth_types: ["a"]\n'.encode(),
             "Exceeds the limit"),
        ],
        ids=["variations-string", "types-string", "variation-int", "type-bool",
             "value-null", "value-bool", "value-float", "value-octal", "values-string",
             "slot-name-int", "slots-list", "id-null", "bad-utf8", "nested-5000-deep",
             "impossible-date", "int-of-5000-digits"],
    )
    def test_non_string_fields_rejected(self, tmp_path, body, message):
        # Each of these used to be converted: a string iterated into one-letter
        # entries, ~ into "None", on into "True", 1.10 into "1.1", 010 into "8";
        # undecodable bytes escaped as a UnicodeDecodeError, the last three
        # as a RecursionError or a plain ValueError.
        path = tmp_path / "bad.yaml"
        path.write_bytes(body)
        with pytest.raises(TemplateError, match=f"bad.yaml: {message}"):
            load_template_file(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            (b'variations: ["hi"]\nslot: {x: ["a"]}\nground_truth_types: ["person"]\n',
             "entry 0: template entry has unknown key 'slot'"),
            (b'- variations: ["hi"]\n  ground_truth_types: ["app"]\n'
             b'- variations: ["hi"]\n  ground_truth_types: ["app"]\n  name: x\n',
             "entry 1: template entry has unknown key 'name'"),
        ],
        ids=["slot", "second-entry"],
    )
    def test_unknown_keys_rejected(self, tmp_path, body, message):
        # The misspelled slots: used to load as an entry with empty slots.
        path = tmp_path / "bad.yaml"
        path.write_bytes(body)
        with pytest.raises(TemplateError, match=f"^{re.escape(str(path))}: {message} \\(accepted: "):
            load_template_file(path)

    # The 5,000-deep example takes the parser past the default deadline.
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(yaml_file_bodies(("id", "variations", "slots", "ground_truth_types")))
    @example(f"variations: {DEEP_LIST}\n".encode())
    def test_any_file_loads_or_gives_a_located_error(self, tmp_path, body):
        path = tmp_path / "fuzz.yaml"
        path.write_bytes(body)
        try:
            load_template_file(path)
        except TemplateError as exc:
            assert str(exc).startswith(f"{path}: ")

    def test_bundled_templates_load_and_cover_500(self):
        pairs = load_templates(bundled_template_dir())
        assert len(pairs) >= 5
        total = sum(
            math.prod(len(slots.slots[name]) for name in placeholders(variation))
            for template, slots in pairs
            for variation in template.variations
        )
        assert total >= 500

    def test_directory_loading_sorted(self, tmp_path):
        for name in ("b.yaml", "a.yaml"):
            (tmp_path / name).write_text(
                f"id: {name[0]}\nvariations: [\"hi\"]\nground_truth_types: [\"app\"]\n",
                encoding="utf-8",
            )
        pairs = load_templates(tmp_path)
        assert [t.id for t, _ in pairs] == ["a", "b"]
