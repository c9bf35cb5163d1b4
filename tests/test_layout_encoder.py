import random
import statistics
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refkit import (
    BBox,
    EncoderConfig,
    Entity,
    Placement,
    Screen,
    ScreenObject,
    bbox_center,
    encode_clusters,
    encode_screen,
)
from refkit.layout_encoder import marker_text

from conftest import REALTOR_GRAB_TEXT, REALTOR_PARSE_TEXT, realtor_datapoint


def obj(text: str, left: float, top: float, w: float = 10, h: float = 2) -> ScreenObject:
    return ScreenObject(text, BBox(left, top, w, h))


def obj_at_center(text: str, cx: float, cy: float) -> ScreenObject:
    return ScreenObject(text, BBox(cx - 5, cy - 1, 10, 2))


def random_objects(rng: random.Random, n: int) -> list[ScreenObject]:
    """n objects at random boxes, each with its own text t{i}."""
    return [
        ScreenObject(
            f"t{i}",
            BBox(rng.uniform(0, 400), rng.uniform(0, 800), rng.uniform(0, 60), rng.uniform(0, 30)),
        )
        for i in range(n)
    ]


def lines_of(text: str) -> list[list[str]]:
    """The rendered texts of each line of a parse; no lines for no text."""
    return [line.split("\t") for line in text.split("\n")] if text else []


def encoded_lines(screen, margin=None) -> list[list[str]]:
    """The lines of the entity-free parse of screen."""
    return lines_of(encode_screen(screen, [], EncoderConfig(margin=margin)).text)


def reading_order(objects):
    """Objects sorted by (center y, center x), ties kept in input order."""
    return sorted(objects, key=lambda o: (bbox_center(o.box).y, bbox_center(o.box).x))


def reference_group_levels(sorted_objects, margin):
    """Independent anchor sweep: slice off the prefix within margin of the
    first remaining object's center, repeat.

    "Within" is "not farther than": when two centers overflow to inf, their
    distance is NaN, and such an object joins the current level.
    """
    remaining = list(sorted_objects)
    levels = []
    while remaining:
        anchor = bbox_center(remaining[0].box).y
        taken = [remaining.pop(0)]
        while remaining and not abs(bbox_center(remaining[0].box).y - anchor) > margin:
            taken.append(remaining.pop(0))
        levels.append((anchor, taken))
    return levels


class TestCollect:
    def test_single_entity_empty_screen(self):
        entity = Entity(
            "phone number",
            (("value", "555-1234"),),
            display_text="555-1234",
            placement=Placement(BBox(0, 0, 10, 2)),
        )
        parse = encode_screen([], [entity])
        assert parse.text == "{{1. 555-1234}}"
        assert parse.marker_spans == ((1, (0, len(parse.text))),)

    def test_realtor_fixture_objects(self):
        dp = realtor_datapoint()
        parse = encode_screen(dp.screen, dp.entities)
        rendered = [text for line in lines_of(parse.text) for text in line]
        assert len(rendered) == 11
        assert [index for index, _ in parse.marker_spans] == [1, 2]
        # The raw phone strings were replaced by their markers.
        assert "(206) 198 1999" not in rendered

    def test_duplicate_surrounding_object_appears_once(self):
        shared = ScreenObject("Header", BBox(0, 0, 50, 10))
        entities = [
            Entity(
                "phone number",
                (("value", str(i)),),
                display_text=str(i),
                placement=Placement(BBox(i * 100, 50, 40, 10), (shared,)),
            )
            for i in (1, 2)
        ]
        parse = encode_screen([], entities)
        assert [text for line in lines_of(parse.text) for text in line].count("Header") == 1

    def test_dedup_matches_naive_union(self):
        rng = random.Random(3)
        for _ in range(30):
            screen = [
                ScreenObject(f"s{rng.randint(0, 5)}", BBox(rng.randint(0, 3) * 10, rng.randint(0, 3) * 10, 8, 4))
                for _ in range(rng.randint(0, 6))
            ]
            entities = []
            for i in range(rng.randint(1, 3)):
                surrounding = tuple(rng.sample(screen, rng.randint(0, len(screen))))
                entities.append(
                    Entity(
                        "general text",
                        (),
                        display_text=f"e{i}",
                        placement=Placement(BBox(500 + i * 20, 500, 10, 4), surrounding),
                    )
                )
            parse = encode_screen(screen, entities)
            rendered = Counter(text for line in lines_of(parse.text) for text in line)
            plain = {(o.text, o.box) for o in screen} | {
                (o.text, o.box) for e in entities for o in e.placement.surrounding
            }
            markers = Counter(marker_text(i, e.display_text) for i, e in enumerate(entities, 1))
            assert rendered == Counter(text for text, _ in plain) + markers

    def test_entity_without_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            encode_screen([], [Entity("person", (("name", "A"),))])

    def test_grab_variant_uses_raw_text(self):
        dp = realtor_datapoint()
        config = EncoderConfig(inject_markers=False)
        parse = encode_screen(dp.screen, dp.entities, config)
        assert parse.marker_spans == ()
        rendered = {text for line in lines_of(parse.text) for text in line}
        assert "(206) 198 1999" in rendered and "(206) 198 1699" in rendered


class TestSort:
    def test_rows_order(self):
        objects = [obj_at_center("a", 5, 1), obj_at_center("b", 2, 1), obj_at_center("c", 4, 9)]
        assert encoded_lines(objects, margin=0) == [["b", "a"], ["c"]]

    def test_identical_centers_keep_input_order(self):
        first = obj("x", 0, 0)
        second = obj("y", 0, 0)
        assert encoded_lines([first, second]) == [["x", "y"]]
        assert encoded_lines([second, first]) == [["y", "x"]]

    def test_matches_lexicographic_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            objects = random_objects(rng, 50)
            expected = [
                o.text
                for _, _, _, o in sorted(
                    (bbox_center(o.box).y, bbox_center(o.box).x, i, o)
                    for i, o in enumerate(objects)
                )
            ]
            assert [text for line in encoded_lines(objects) for text in line] == expected

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_oracle_property(self, seed, n):
        rng = random.Random(seed)
        objects = random_objects(rng, n)
        expected = [
            o.text
            for _, _, _, o in sorted(
                (bbox_center(o.box).y, bbox_center(o.box).x, i, o)
                for i, o in enumerate(objects)
            )
        ]
        assert [text for line in encoded_lines(objects) for text in line] == expected


class TestGroup:
    def test_clear_gap(self):
        objects = [obj_at_center("a", 0, 10), obj_at_center("b", 5, 10.5), obj_at_center("c", 0, 30)]
        assert encoded_lines(objects, margin=1) == [["a", "b"], ["c"]]

    def test_no_chaining_past_anchor_margin(self):
        objects = [obj_at_center(t, 0, y) for t, y in (("a", 10), ("b", 11), ("c", 12))]
        assert encoded_lines(objects, margin=1) == [["a", "b"], ["c"]]

    def test_zero_margin_splits_distinct_rows(self):
        objects = [obj_at_center(t, 0, y) for t, y in (("a", 1), ("b", 2), ("c", 3))]
        assert encoded_lines(objects, margin=0) == [["a"], ["b"], ["c"]]

    def test_members_satisfy_margin_invariant(self):
        rng = random.Random(5)
        objects = random_objects(rng, 40)
        boxes = {o.text: o.box for o in objects}
        margin = 12.0
        for line in encoded_lines(objects, margin):
            anchor = bbox_center(boxes[line[0]]).y
            for text in line:
                assert abs(bbox_center(boxes[text]).y - anchor) <= margin

    def test_matches_reference_sweep(self):
        rng = random.Random(17)
        for _ in range(100):
            objects = random_objects(rng, rng.randint(0, 50))
            margin = rng.choice([0.0, rng.uniform(0, 40)])
            expected = reference_group_levels(reading_order(objects), margin)
            assert encoded_lines(objects, margin) == [
                [o.text for o in members] for _, members in expected
            ]

    def test_partition_and_reading_order(self):
        rng = random.Random(23)
        objects = random_objects(rng, 50)
        boxes = {o.text: o.box for o in objects}
        lines = encoded_lines(objects, 15.0)
        assert [text for line in lines for text in line] == [o.text for o in reading_order(objects)]
        anchors = [bbox_center(boxes[line[0]]).y for line in lines]
        assert anchors == sorted(anchors)


class TestRender:
    def test_two_level_example(self):
        phones = ("(206) 198 1999", "(206) 198 1699")
        entities = [
            Entity("phone number", (("value", phone),), display_text=phone, placement=Placement(box))
            for phone, box in zip(phones, (BBox(40, 390, 120, 20), BBox(240, 390, 120, 20)))
        ]
        parse = encode_screen([obj("Contact Us", 100, 240, h=20)], entities)
        assert parse.text == "Contact Us\n{{1. (206) 198 1999}}\t{{2. (206) 198 1699}}"
        expected_spans = {1: "{{1. (206) 198 1999}}", 2: "{{2. (206) 198 1699}}"}
        assert [i for i, _ in parse.marker_spans] == [1, 2]
        for index, (start, end) in parse.marker_spans:
            assert parse.text[start:end] == expected_spans[index]

    def test_empty_levels(self):
        parse = encode_screen([], [])
        assert parse.text == ""
        assert parse.marker_spans == ()

    def test_separator_counts(self):
        rng = random.Random(2)
        for _ in range(25):
            objects = random_objects(rng, rng.randint(1, 30))
            margin = rng.uniform(0, 30)
            levels = reference_group_levels(reading_order(objects), margin)
            text = encode_screen(objects, [], EncoderConfig(margin=margin)).text
            assert text.count("\n") == len(levels) - 1
            assert text.count("\t") == sum(len(members) - 1 for _, members in levels)


class TestEncodeScreen:
    def test_realtor_golden(self, realtor):
        parse = encode_screen(realtor.screen, realtor.entities)
        assert parse.text == REALTOR_PARSE_TEXT
        assert parse.text.splitlines()[-1] == "{{1. (206) 198 1999}}\t{{2. (206) 198 1699}}"

    def test_realtor_grab_layout(self, realtor):
        parse = encode_screen(
            realtor.screen, realtor.entities, EncoderConfig(inject_markers=False)
        )
        assert parse.text == REALTOR_GRAB_TEXT
        assert parse.marker_spans == ()

    def test_single_entity(self):
        entity = Entity(
            "url",
            (("value", "NY.gov"),),
            display_text="NY.gov",
            placement=Placement(BBox(5, 5, 30, 8)),
        )
        parse = encode_screen([], [entity])
        assert parse.text == "{{1. NY.gov}}"

    def test_marker_completeness_and_determinism(self, realtor):
        first = encode_screen(realtor.screen, realtor.entities)
        second = encode_screen(realtor.screen, realtor.entities)
        assert first == second
        indexes = sorted(i for i, _ in first.marker_spans)
        assert indexes == list(range(1, len(realtor.entities) + 1))
        for index, (start, end) in first.marker_spans:
            assert first.text[start:end].startswith("{{" + str(index) + ". ")
            assert first.text[start:end].endswith("}}")

    def test_translation_invariance(self, realtor):
        def shift(box, dx, dy):
            return BBox(box.left + dx, box.top + dy, box.width, box.height)

        dx, dy = 137.5, -42.25
        screen = [ScreenObject(o.text, shift(o.box, dx, dy)) for o in realtor.screen]
        entities = [
            Entity(
                e.entity_type,
                e.properties,
                display_text=e.display_text,
                placement=Placement(
                    shift(e.placement.box, dx, dy),
                    tuple(ScreenObject(o.text, shift(o.box, dx, dy)) for o in e.placement.surrounding),
                ),
            )
            for e in realtor.entities
        ]
        assert encode_screen(screen, entities).text == REALTOR_PARSE_TEXT

    def test_default_margin_is_half_median_height(self):
        # Center ys 5, 15 and 15.5; the median height 20 makes the margin 10.
        objects = [obj("a", 0, 0, h=10), obj("b", 20, 5, h=20), obj("c", 40, -4.5, h=40)]
        assert encoded_lines(objects) == [["a", "b"], ["c"]]
        assert encoded_lines(objects, margin=10.0) == [["a", "b"], ["c"]]
        assert encoded_lines(objects, margin=9.5) == [["a"], ["b", "c"]]
        assert encoded_lines(objects, margin=10.5) == [["a", "b", "c"]]


class Item(NamedTuple):
    """One rendered object of `reference_encode`."""

    text: str
    box: BBox
    entity_index: int | None


def reference_encode(screen, entities, config):
    """The encoding from first principles: the screen and surrounding objects
    deduplicated by (text, box), those at an entity's box dropped and the
    markers appended; centers from bbox_center, a stable sort, the reference
    sweep and a render that writes one piece at a time."""
    entity_boxes = {entity.placement.box for entity in entities}
    seen = set()
    items = []
    for o in [*screen, *(o for entity in entities for o in entity.placement.surrounding)]:
        if (o.text, o.box) not in seen and o.box not in entity_boxes:
            seen.add((o.text, o.box))
            items.append(Item(o.text, o.box, None))
    for index, entity in enumerate(entities, 1):
        if config.inject_markers:
            items.append(Item("{{" + f"{index}. {entity.display_text}" + "}}", entity.placement.box, index))
        else:
            items.append(Item(entity.display_text, entity.placement.box, None))
    if config.margin is not None:
        margin = config.margin
    else:
        margin = 0.5 * statistics.median([item.box.height for item in items]) if items else 0.0
    text, spans = "", []
    for number, (_, members) in enumerate(reference_group_levels(reading_order(items), margin)):
        if number:
            text += "\n"
        for position, member in enumerate(members):
            if position:
                text += "\t"
            if member.entity_index is not None:
                spans.append((member.entity_index, (len(text), len(text) + len(member.text))))
            text += member.text
    return text, tuple(spans)


# Coordinates near the float limit: a center of such a box can overflow to
# inf (extents are never negative, so never to -inf).
HUGE = (1.7e308, 1e308)
# Mostly few distinct values, so centers tie, boxes repeat and heights are 0;
# sometimes any float, whose center may round; sometimes a negative zero or
# a value near the float limit.
grid = st.integers(0, 6).map(lambda k: k * 2.5)
extents = grid | st.floats(0, 50) | st.sampled_from((-0.0, *HUGE))
positions = (
    grid
    | grid.map(lambda value: -value)
    | st.floats(-50, 50)
    | st.sampled_from((-0.0, *HUGE, *(-value for value in HUGE)))
)
grid_boxes = st.builds(BBox, positions, positions, extents, extents) | st.builds(
    BBox, positions, st.sampled_from(HUGE), extents, st.sampled_from(HUGE)
)
grid_objects = st.builds(ScreenObject, st.sampled_from(["a", "b", "cd"]), grid_boxes)


@st.composite
def grid_scenes(draw):
    screen = draw(st.lists(grid_objects, max_size=25))
    entities = []
    for number in range(draw(st.integers(0, 4))):
        surrounding = draw(st.lists(st.sampled_from(screen), max_size=4)) if screen else []
        box = draw(st.sampled_from([o.box for o in screen]) | grid_boxes if screen else grid_boxes)
        entities.append(
            Entity("general text", (), display_text=f"e{number}", placement=Placement(box, surrounding))
        )
    config = EncoderConfig(
        margin=draw(st.none() | st.just(0.0) | st.floats(0, 10)),
        inject_markers=draw(st.booleans()),
    )
    return screen, entities, config


class TestReferenceEquivalence:
    @given(grid_scenes())
    def test_matches_reference_encoding(self, scene):
        screen, entities, config = scene
        parse = encode_screen(screen, entities, config)
        assert (parse.text, parse.marker_spans) == reference_encode(screen, entities, config)
        if config.inject_markers:
            assert [index for index, _ in sorted(parse.marker_spans)] == list(
                range(1, len(entities) + 1)
            )
            for index, (start, end) in parse.marker_spans:
                display = entities[index - 1].display_text
                assert parse.text[start:end] == marker_text(index, display)


    def test_large_seeded_scene_matches_reference(self):
        # About 2,000 objects on few distinct coordinates, so many centers
        # tie; a few sit at entity boxes or repeat through surroundings.
        rng = random.Random(2000)

        def box():
            return BBox(
                rng.randrange(-20, 40) * 2.5,
                rng.randrange(-20, 200) * 2.5,
                rng.randrange(0, 8) * 5.0,
                rng.choice((0.0, 10.0, 15.0, 20.0)),
            )

        screen = [ScreenObject(f"o{rng.randrange(300)}", box()) for _ in range(2000)]
        entities = [
            Entity(
                "general text",
                (),
                display_text=f"e{number}",
                placement=Placement(
                    rng.choice(screen).box if number % 2 else box(),
                    tuple(rng.sample(screen, 5)),
                ),
            )
            for number in range(12)
        ]
        for config in (
            EncoderConfig(),
            EncoderConfig(margin=0.0),
            EncoderConfig(margin=7.5, inject_markers=False),
        ):
            parse = encode_screen(screen, entities, config)
            assert parse.text.count("\n") > 50
            assert (parse.text, parse.marker_spans) == reference_encode(screen, entities, config)


# Float fields, as a Screen holds them, on few values so boxes repeat.
float_grid = st.sampled_from([0.0, -0.0, 2.5, 5.0, 7.5, -2.5])
float_boxes = st.builds(BBox, float_grid, float_grid, st.sampled_from([0.0, 2.5, 10.0]),
                        st.sampled_from([0.0, 2.0, 5.0]))


@st.composite
def column_scenes(draw):
    """A screen whose texts are all distinct or drawn from two, now and then
    with an object repeated; entities whose surroundings mix screen objects,
    objects with a screen text at another box, new ones and int-box copies;
    entity boxes that are sometimes a screen object's."""
    count = draw(st.integers(0, 12))
    if draw(st.booleans()):
        texts = [f"t{i}" for i in range(count)]
    else:
        texts = draw(st.lists(st.sampled_from(["a", "b"]), min_size=count, max_size=count))
    screen = [ScreenObject(text, draw(float_boxes)) for text in texts]
    if screen and draw(st.booleans()):
        screen.insert(draw(st.integers(0, len(screen))), draw(st.sampled_from(screen)))
    private = st.builds(ScreenObject, st.sampled_from([*texts, "p"]) if texts else st.just("p"),
                        float_boxes)
    entities = []
    for number in range(draw(st.integers(0, 3))):
        surrounding = draw(st.lists(st.sampled_from(screen), max_size=3)) if screen else []
        surrounding += draw(st.lists(private, max_size=2))
        if screen and draw(st.booleans()):
            text, box = draw(st.sampled_from(screen))
            surrounding.append(ScreenObject(text, BBox(*map(int, box))))
        box = draw(st.sampled_from([o.box for o in screen]) | float_boxes if screen else float_boxes)
        placement = Placement(box, tuple(draw(st.permutations(surrounding))))
        entities.append(Entity("general text", (), f"e{number}", placement))
    config = EncoderConfig(margin=draw(st.none() | st.just(2.5)), inject_markers=draw(st.booleans()))
    return screen, entities, config


def assert_screen_and_tuple_encode_alike(screen, entities, config):
    columns = Screen(screen)
    rows = tuple(columns)
    parse = encode_screen(columns, entities, config)
    assert parse == encode_screen(rows, entities, config)
    assert (parse.text, parse.marker_spans) == reference_encode(rows, entities, config)
    for eps, min_pts in ((None, 1), (2.5, 1), (None, 2)):
        assert encode_clusters(columns, entities, eps, min_pts) == (
            encode_clusters(rows, entities, eps, min_pts)
        )


class TestColumnReader:
    """Both encoders read a Screen's columns and any other sequence's objects
    through one reader, so the two must give the same output."""

    @settings(max_examples=300, deadline=None)
    @given(column_scenes())
    def test_screen_and_its_tuple_encode_alike(self, scene):
        assert_screen_and_tuple_encode_alike(*scene)

    def test_duplicates_and_objects_at_an_entity_box(self):
        header = ScreenObject("Header", BBox(0.0, 0.0, 50.0, 10.0))
        phone = ScreenObject("555 0100", BBox(0.0, 20.0, 40.0, 10.0))
        moved = ScreenObject("Header", BBox(60.0, 0.0, 50.0, 10.0))
        screen = [header, phone, ScreenObject("Footer", BBox(0.0, 40.0, 50.0, 10.0)), header]
        entities = [
            Entity("phone number", (), "555 0100", Placement(phone.box, (header, moved))),
            Entity("general text", (), "Footer", Placement(BBox(0.0, 40.0, 50.0, 10.0))),
        ]
        config = EncoderConfig()
        assert encode_screen(Screen(screen), entities, config).text == (
            "Header\tHeader\n{{1. 555 0100}}\n{{2. Footer}}"
        )
        assert_screen_and_tuple_encode_alike(screen, entities, config)
        # The same screen without its repeated object.
        assert_screen_and_tuple_encode_alike(screen[:3], entities, config)


class TestConfigValidation:
    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(margin=-1)

    def test_nan_margin_rejected(self):
        # NaN is not < 0, yet no center is ever more than NaN apart, so it
        # would put every object on one line.
        with pytest.raises(ValueError, match="margin"):
            EncoderConfig(margin=float("nan"))
