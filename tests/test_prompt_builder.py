import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from refkit import (
    BBox,
    Entity,
    INSTRUCTION,
    OnscreenParse,
    Placement,
    ScreenObject,
    build_conversational_prompt,
    build_onscreen_prompt,
    encode_screen,
    prompt_for_datapoint,
    shuffle_entities,
)
from refkit.entity_textualizer import DEFAULT_RULES, FieldSpec, RuleRegistry, TextualizationRule
from refkit.prompt_builder import options_to_original

from conftest import REALTOR_PARSE_TEXT

BUSINESS_LIST_PROMPT = (
    "Select which among the following entities, if any, are required to "
    "understand the user request below. Output 0 if none of the entities "
    "are relevant.\n"
    "\n"
    "User request: Call the one on Rainbow St\n"
    "User Entities:\n"
    "0. None\n"
    "1. Type: Local Business | Name: Walgreens | Address: 225 Rainbow St, San Jose CA 94088\n"
    "2. Type: Local Business | Name: CVS | Address: 105 E El Camino Real, Sunnyvale, CA 94087\n"
    "3. Type: Local Business | Name: Qwark | Address: 1287 Hammerwood Ave, Sunnyvale, CA\n"
    "Relevant entity:"
)

SCREEN_PROMPT = (
    "Select which among the following entities, if any, are required to "
    "understand the user request below. Output 0 if none of the entities "
    "are relevant.\n"
    "\n"
    "User request: Save the phone number at the bottom-right\n"
    "Screen:\n" + REALTOR_PARSE_TEXT + "\n"
    "Relevant entity:"
)


def labeled_business_registry():
    labeled = TextualizationRule(
        "local business",
        "Local Business",
        fields=(FieldSpec("Name", True), FieldSpec("Address", True)),
    )
    return RuleRegistry(
        [rule for rule in DEFAULT_RULES if rule.type_name != "local business"] + [labeled]
    )


def make_entities(n):
    return tuple(Entity("person", (("name", f"p{i}"),)) for i in range(n))


class TestShuffle:
    def test_single_entity_identity(self):
        entities = make_entities(1)
        for seed in (0, 1, 99):
            shuffled, index_map = shuffle_entities(entities, seed)
            assert shuffled == entities
            assert index_map == (1,)

    def test_seed_determinism(self):
        entities = make_entities(5)
        first = shuffle_entities(entities, seed=42)
        second = shuffle_entities(entities, seed=42)
        assert first == second

    def test_none_seed_keeps_order(self):
        entities = make_entities(6)
        shuffled, index_map = shuffle_entities(entities, None)
        assert shuffled == entities
        assert index_map == tuple(range(1, 7))

    def test_index_map_is_permutation(self):
        entities = make_entities(8)
        shuffled, index_map = shuffle_entities(entities, seed=3)
        assert sorted(index_map) == list(range(1, 9))
        assert shuffled == tuple(entities[i - 1] for i in index_map)

    def test_ground_truth_remap_round_trip(self):
        entities = make_entities(7)
        prompt = build_conversational_prompt("call them", entities, seed=13)
        gt = frozenset({2, 5})
        options = {prompt.to_option(i) for i in gt}
        assert options_to_original(options, prompt.index_map) == gt

    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_remap_round_trip_property(self, seed, n):
        rng = random.Random(seed)
        prompt = build_conversational_prompt("call them", make_entities(n), seed=seed)
        gt = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
        options = {prompt.to_option(i) for i in gt}
        assert options_to_original(options, prompt.index_map) == gt


class TestConversationalPrompt:
    def test_business_list_golden(self, rainbow):
        prompt = build_conversational_prompt(
            rainbow.request,
            rainbow.entities,
            seed=None,
            registry=labeled_business_registry(),
        )
        assert prompt.text == BUSINESS_LIST_PROMPT
        assert prompt.index_map == (1, 2, 3)
        assert prompt.variant == "conversational"

    def test_single_entity_options(self):
        prompt = build_conversational_prompt("call her", make_entities(1), seed=5)
        lines = prompt.text.splitlines()
        numbered = [l for l in lines if l[:1].isdigit()]
        assert numbered[0] == "0. None"
        assert len(numbered) == 2 and numbered[1].startswith("1. ")

    def test_alarm_datapoint_options(self, alarms):
        prompt = build_conversational_prompt(alarms.request, alarms.entities, seed=7)
        options = [l for l in prompt.text.splitlines() if l[:1].isdigit() and not l.startswith("0")]
        assert len(options) == 4
        assert all("Type: Alarm | " in line for line in options)

    def test_empty_entities_rejected(self):
        with pytest.raises(ValueError):
            build_conversational_prompt("hello", ())

    def test_instruction_always_present(self, alarms):
        prompt = build_conversational_prompt(alarms.request, alarms.entities, seed=1)
        assert prompt.text.startswith(INSTRUCTION + "\n\n")

    def test_shuffled_options_follow_index_map(self):
        entities = make_entities(6)
        prompt = build_conversational_prompt("pick one", entities, seed=11)
        lines = prompt.text.splitlines()
        for option, original in enumerate(prompt.index_map, 1):
            assert lines[4 + option] == f"{option}. Type: Person | p{original - 1}"


class TestOnscreenPrompt:
    def test_realtor_golden(self, realtor):
        parse = encode_screen(realtor.screen, realtor.entities)
        prompt = build_onscreen_prompt(realtor.request, parse)
        assert prompt.text == SCREEN_PROMPT
        assert prompt.index_map == (1, 2)
        assert prompt.variant == "onscreen"

    def test_no_none_option_line(self, realtor):
        parse = encode_screen(realtor.screen, realtor.entities)
        prompt = build_onscreen_prompt(realtor.request, parse)
        assert "0. None" not in prompt.text
        assert "Output 0" in prompt.text

    def test_single_marker(self):
        entity = Entity(
            "phone number",
            (("value", "555 0100"),),
            display_text="555 0100",
            placement=Placement(BBox(0, 0, 30, 10)),
        )
        parse = encode_screen([ScreenObject("Call us", BBox(0, 20, 30, 10))], [entity])
        prompt = build_onscreen_prompt("save it", parse)
        assert prompt.text.count("{{") == 1
        assert "{{1. 555 0100}}" in prompt.text

    def test_markerless_parse_rejected(self):
        with pytest.raises(ValueError):
            build_onscreen_prompt("save it", OnscreenParse("just text", ()))

    def test_prompt_length_linear_in_object_count(self):
        def prompt_length(k):
            objects = [
                ScreenObject(f"word{i:03d}", BBox(0, 30.0 * i, 40, 10)) for i in range(k)
            ]
            entity = Entity(
                "general text",
                (),
                display_text="target",
                placement=Placement(BBox(0, 30.0 * k, 40, 10)),
            )
            parse = encode_screen(objects, [entity])
            return len(build_onscreen_prompt("find it", parse).text)

        lengths = {k: prompt_length(k) for k in (20, 40, 80)}
        assert lengths[40] / lengths[20] < 2.5
        assert lengths[80] / lengths[40] < 2.5


class TestDatapointDispatch:
    def test_onscreen_kind(self, realtor):
        prompt = prompt_for_datapoint(realtor)
        assert prompt.variant == "onscreen"
        assert prompt.index_map == (1, 2)

    def test_conversational_kind(self, rainbow):
        prompt = prompt_for_datapoint(rainbow, seed=9)
        assert prompt.variant == "conversational"
        assert sorted(prompt.index_map) == [1, 2, 3]

    def test_onscreen_numbering_never_shuffled(self, realtor):
        maps = {prompt_for_datapoint(realtor, seed=s).index_map for s in range(10)}
        assert maps == {(1, 2)}
