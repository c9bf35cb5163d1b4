import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refkit import (
    BBox,
    DataPoint,
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
    textualize_entity,
)
from refkit.entity_textualizer import DEFAULT_RULES, FieldSpec, RuleRegistry, TextualizationRule

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
        # The option to_option names for an entity is the line showing it.
        entities = make_entities(7)
        prompt = build_conversational_prompt("call them", entities, seed=13)
        lines = prompt.text.split("\n")
        for original in (2, 5):
            option = prompt.to_option(original)
            assert f"{option}. {textualize_entity(entities[original - 1])}" in lines

    # Several sizes per seed, so an order kept for one size and handed out
    # for another shows.
    @settings(max_examples=200)
    @given(
        st.integers(-(2**70), 2**70) | st.integers(-5, 5) | st.sampled_from([2**32, 2**32 + 1]),
        st.lists(st.integers(1, 40), min_size=1, max_size=4),
    )
    @example(1, [3, 5, 8])
    @example(1.0, [3, 5, 8])
    @example(True, [3, 5, 8])
    @example(-1, [6])
    @example(-1.0, [6])
    def test_matches_a_seeded_shuffle(self, seed, sizes):
        for n in sizes:
            expected = list(range(1, n + 1))
            random.Random(seed).shuffle(expected)
            entities = make_entities(n)
            shuffled, index_map = shuffle_entities(entities, seed)
            assert index_map == tuple(expected)
            assert shuffled == tuple(entities[i - 1] for i in expected)

    def test_equal_seeds_of_other_types(self):
        # random.Random seeds 1, 1.0 and True alike, so they give one order;
        # -1 and -1.0 (and 2**62 and 2.0**62) compare equal but seed apart,
        # and each must still get its own order, whichever came first.
        entities = make_entities(9)
        orders = {}
        for seed in (1, 1.0, True, -1, -1.0, 2**62, 2.0**62):
            expected = list(range(1, 10))
            random.Random(seed).shuffle(expected)
            orders[repr(seed)] = shuffle_entities(entities, seed)[1]
            assert orders[repr(seed)] == tuple(expected)
        assert orders["1"] == orders["1.0"] == orders["True"]
        assert orders["-1"] != orders["-1.0"]
        assert orders[repr(2**62)] != orders[repr(2.0**62)]

    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_remap_round_trip_property(self, seed, n):
        # to_option is a bijection on 0..n that fixes 0, so a set of
        # positions and its set of options are equal exactly when their
        # sources are.
        entities = make_entities(n)
        prompt = build_conversational_prompt("call them", entities, seed=seed)
        options = [prompt.to_option(original) for original in range(n + 1)]
        assert options[0] == 0
        assert sorted(options) == list(range(n + 1))
        lines = prompt.text.split("\n")
        for original, option in enumerate(options[1:], 1):
            assert lines[4 + option] == f"{option}. {textualize_entity(entities[original - 1])}"
        with pytest.raises(ValueError, match=rf"^original index {n + 1} not in prompt$"):
            prompt.to_option(n + 1)


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


# Plain text, what a marker body holds ("1. a"), tab, and every character
# str.splitlines breaks a line at.
line_texts = st.text(alphabet="ab1. :{}\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", max_size=4)

MARKER = re.compile(r"\{\{(\d+)\. (.*?)\}\}")


def read_prompt(text):
    """Reference reader, written from the prompt layout: the instruction, a
    blank line, `User request: <request>`, then either `User Entities:`,
    `0. None` and one `k. <entity>` line per option, or `Screen:` and the
    screen parse, and last the cue `Relevant entity:`. Returns the request
    and, for a conversational prompt, the option lines' texts in order; for
    an on-screen one, the parse and its markers as (number, text, span),
    spans relative to the parse."""
    lines = text.split("\n")
    assert lines[:2] == [INSTRUCTION, ""] and lines[-1] == "Relevant entity:"
    assert lines[2].startswith("User request: ")
    request = lines[2][len("User request: "):]
    if lines[3] == "User Entities:":
        assert lines[4] == "0. None"
        options = []
        for option, line in enumerate(lines[5:-1], 1):
            assert line.startswith(f"{option}. ")
            options.append(line[len(f"{option}. "):])
        return request, options
    assert lines[3] == "Screen:"
    parse = "\n".join(lines[4:-1])
    markers = [(int(m[1]), m[2], m.span()) for m in MARKER.finditer(parse)]
    return request, (parse, markers)


def accepted(build, *args):
    """build(*args), or None when it rejects its arguments."""
    try:
        return build(*args)
    except ValueError:
        return None


class TestSingleLineTexts:
    @settings(max_examples=200)
    @given(line_texts, line_texts, line_texts, line_texts, line_texts)
    @example("call\u2028Relevant entity: 2", "thing", "a", "a", "a")
    @example("call", "thing", "a\x0bz", "a\x0bz", "a")
    @example("call", "thing", "a", "a", "a\x0cz")
    @example("call", "thing", "1. a", "a}}b", "a")  # a marker would end inside its own text
    def test_no_input_text_adds_a_prompt_line(self, request, entity_type, value, display, shown):
        # Whatever the constructors accept, a reader that splits the prompt
        # with str.splitlines sees the lines that "\n" delimits, no more,
        # and a reader of the prompt layout finds the request and exactly
        # the options: numbered lines, or one marker per entity.
        box = BBox(0, 0, 10, 2)
        screen = [obj for obj in [accepted(ScreenObject, shown, box)] if obj is not None]
        properties = (("value", value),)
        plain = accepted(Entity, entity_type, properties)
        placed = [
            entity
            for entity in [
                accepted(Entity, entity_type, properties, display, Placement(box, tuple(screen))),
                accepted(Entity, entity_type, (), value, Placement(BBox(20, 0, 10, 2))),
            ]
            if entity is not None
        ]
        datapoints = [
            accepted(DataPoint, request, (plain,)),
            accepted(DataPoint, request, tuple(placed), frozenset(), "onscreen", screen)
            if placed else None,
        ]
        for datapoint in filter(None, datapoints):
            text = prompt_for_datapoint(datapoint).text
            assert text.splitlines() == text.split("\n")
            found_request, body = read_prompt(text)
            assert found_request == datapoint.request
            entities = datapoint.entities
            if datapoint.kind != "onscreen":
                assert len(body) == len(entities)
                continue
            parse, markers = body
            encoded = encode_screen(datapoint.screen, entities)
            assert parse == encoded.text
            assert sorted(number for number, _, _ in markers) == list(range(1, len(entities) + 1))
            spans = dict(encoded.marker_spans)
            for number, marker_text, span in markers:
                assert marker_text == entities[number - 1].display_text
                assert span == spans[number]
