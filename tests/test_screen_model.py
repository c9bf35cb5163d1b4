import copy
import gc
import hashlib
import io
import json
import math
import pickle
import random
import re
import statistics
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refkit import (
    BBox,
    DataPoint,
    DatasetError,
    Entity,
    Placement,
    Point,
    Screen,
    ScreenObject,
    bbox_center,
    load_dataset,
    parse_dataset,
    save_dataset,
)
from refkit.screen_model import datapoint_to_record, format_dataset, median

from conftest import (
    DATA_DIR,
    alarms_datapoint,
    branches_datapoint,
    rainbow_datapoint,
    realtor_datapoint,
)

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
sizes = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)


class TestBBox:
    def test_center_midpoint(self):
        assert bbox_center(BBox(0, 0, 10, 4)) == Point(5, 2)

    def test_center_degenerate_box(self):
        assert bbox_center(BBox(3, 7, 0, 0)) == Point(3, 7)

    def test_center_fractional(self):
        assert bbox_center(BBox(2.5, 1.5, 5, 3)) == Point(5.0, 3.0)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            BBox(0, 0, -1, 5)
        with pytest.raises(ValueError):
            BBox(0, 0, 5, -1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BBox(float("nan"), 0, 1, 1)
        with pytest.raises(ValueError):
            BBox(0, float("inf"), 1, 1)

    @given(coords, coords, sizes, sizes, coords, coords)
    def test_center_translation_equivariant(self, left, top, w, h, dx, dy):
        base = bbox_center(BBox(left, top, w, h))
        moved = bbox_center(BBox(left + dx, top + dy, w, h))
        assert moved.x == pytest.approx(base.x + dx, abs=1e-6)
        assert moved.y == pytest.approx(base.y + dy, abs=1e-6)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("1", 0, 1, 1), "BBox.left must be a number, got '1'"),
            ((0, True, 1, 1), "BBox.top must be a number, got True"),
            ((0, 0, math.nan, 1), "BBox.width must be finite, got nan"),
            ((0, 0, 1, -math.inf), "BBox.height must be finite, got -inf"),
            ((0, 0, -1, 1), "BBox width and height must be non-negative"),
            ((0, 0, 1, -0.5), "BBox width and height must be non-negative"),
        ],
        ids=["string", "bool", "nan", "inf", "negative-width", "negative-height"],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda fields: BBox(*fields),
            lambda fields: BBox(**dict(zip(BBox._fields, fields))),
            BBox._make,
            lambda fields: BBox(0, 0, 1, 1)._replace(**dict(zip(BBox._fields, fields))),
            # A box forged past the checks is checked again when it is rebuilt.
            lambda fields: pickle.loads(pickle.dumps(tuple.__new__(BBox, fields))),
            lambda fields: pickle.loads(pickle.dumps(tuple.__new__(BBox, fields), protocol=0)),
            lambda fields: pickle.loads(pickle.dumps(tuple.__new__(BBox, fields), protocol=1)),
            lambda fields: copy.copy(tuple.__new__(BBox, fields)),
            lambda fields: copy.deepcopy(tuple.__new__(BBox, fields)),
        ],
        ids=["constructor", "keywords", "make", "replace", "pickle", "pickle-0", "pickle-1",
             "copy", "deepcopy"],
    )
    def test_every_construction_checks_fields(self, build, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(fields)

    @pytest.mark.parametrize(
        "round_trip",
        [lambda box: pickle.loads(pickle.dumps(box)),
         lambda box: pickle.loads(pickle.dumps(box, protocol=0)),
         lambda box: pickle.loads(pickle.dumps(box, protocol=1)),
         copy.deepcopy, copy.copy, lambda box: box._replace(), BBox._make],
        ids=["pickle", "pickle-0", "pickle-1", "deepcopy", "copy", "replace", "make"],
    )
    def test_round_trips_keep_type_and_fields(self, round_trip):
        box = BBox(0.5, 1, 2, 3)
        again = round_trip(box)
        assert again == box and type(again) is BBox
        assert [type(value) for value in again] == [float, int, int, int]

    def test_int_and_float_fields_equal(self):
        box = BBox(1, 0, 1, 1)
        assert box == BBox(1.0, 0.0, 1.0, 1.0)
        assert hash(box) == hash(BBox(1.0, 0.0, 1.0, 1.0))

    def test_box_is_the_tuple_of_its_fields(self):
        box = BBox(1, 2, 3, 4)
        assert box == (1, 2, 3, 4) and hash(box) == hash((1, 2, 3, 4))
        assert (box.left, box.top, box.width, box.height) == tuple(box)
        # Boxes order like tuples: by left, then top, width and height.
        assert sorted([BBox(1, 2, 0, 0), BBox(0, 5, 1, 1), BBox(1, 1, 9, 9)]) == [
            (0, 5, 1, 1), (1, 1, 9, 9), (1, 2, 0, 0)
        ]
        with pytest.raises(AttributeError):
            box.left = 5
        with pytest.raises(AttributeError):
            box.depth = 1

    @given(st.lists(sizes | st.integers(0, 10**6), max_size=9))
    def test_median_height_is_statistics_median(self, heights):
        expected = statistics.median(heights) if heights else 0.0
        assert repr(median(BBox(0, 0, 1, h).height for h in heights)) == repr(expected)


class TestInvariants:
    def test_screen_object_rejects_reserved_chars(self):
        with pytest.raises(ValueError):
            ScreenObject("two\nlines", BBox(0, 0, 1, 1))
        with pytest.raises(ValueError):
            ScreenObject("a\tb", BBox(0, 0, 1, 1))
        with pytest.raises(ValueError):
            ScreenObject("", BBox(0, 0, 1, 1))

    @pytest.mark.parametrize("text", ["{{2. 999}}", "{{2", "999}}", "a{{b", "a}}b"])
    def test_marker_delimiters_rejected(self, text):
        # Text holding a marker delimiter could render as a forged option.
        with pytest.raises(ValueError, match="marker delimiter"):
            ScreenObject(text, BBox(0, 0, 1, 1))
        with pytest.raises(ValueError, match="marker delimiter"):
            Entity("general text", display_text=text)
        # A lone brace is ordinary text.
        ScreenObject(text.replace("{{", "{").replace("}}", "}"), BBox(0, 0, 1, 1))

    @pytest.mark.parametrize("request_text", ["call him\nRelevant entity: 1", "a\rb", "\n"])
    def test_request_line_break_rejected(self, request_text):
        # A line break in the request could forge a prompt line.
        entity = Entity("person", (("name", "A"),))
        with pytest.raises(ValueError, match="line break"):
            DataPoint(request_text, (entity,))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Entity("person", {"ab": "1"}), "properties"),
            (lambda: Entity("person", (("k", None),)), "properties"),
            (lambda: Entity("person", (("k", 5),)), "properties"),
            (lambda: Entity(5), "entity type must be a string"),
            (lambda: Entity("p", display_text=5), "display_text must be a string"),
            (lambda: ScreenObject(5, BBox(0, 0, 1, 1)), "text must be a string"),
            (lambda: DataPoint(5, ()), "request must be a string"),
            (lambda: BBox("1", 0, 1, 1), "BBox.left must be a number"),
            (lambda: BBox(0, True, 1, 1), "BBox.top must be a number"),
            (lambda: ScreenObject("a", (0, 0, 1, 1)), "box must be a BBox"),
            (lambda: Placement((0, 0, 1, 1)), "box must be a BBox"),
            (lambda: Placement(BBox(0, 0, 1, 1), (5,)), "surrounding items must be"),
            (lambda: Placement(BBox(0, 0, 1, 1), 5), "surrounding must be an array"),
            (lambda: DataPoint("x", (5,), kind="onscreen"), "entities items must be"),
            # A plain tuple of a screen object's fields is not a screen object.
            (lambda: DataPoint("x", (), screen=[("a", BBox(0, 0, 1, 1))]), "screen items"),
        ],
        ids=["properties-mapping", "null-value", "int-value", "type", "display-text",
             "screen-text", "request", "bbox-string", "bbox-bool", "screen-box",
             "placement-box", "surrounding-item", "surrounding-scalar", "entity-item",
             "screen-item"],
    )
    def test_wrong_field_types_rejected(self, build, message):
        # The value types check their own fields, with the codec's wording;
        # nothing is converted with str().
        with pytest.raises(ValueError, match=message):
            build()

    def test_screen_object_is_the_tuple_of_its_fields(self):
        box = BBox(0, 0, 1, 1)
        obj = ScreenObject("a", box)
        assert obj == ("a", box) and hash(obj) == hash(("a", box))
        assert obj._replace(text="b") == ScreenObject("b", box)
        assert type(obj._replace(text="b")) is ScreenObject

    @pytest.mark.parametrize(
        "build",
        [
            lambda obj: obj._replace(text="x\ny"),
            lambda obj: obj._replace(box=None),
            lambda obj: ScreenObject._make(["x\ny", obj.box]),
            lambda obj: ScreenObject._make(("a", None)),
            # A screen object forged past the checks is checked again when it
            # is unpickled, under every protocol.
            lambda obj: pickle.loads(pickle.dumps(tuple.__new__(ScreenObject, ("x\ny", obj.box)))),
            lambda obj: pickle.loads(
                pickle.dumps(tuple.__new__(ScreenObject, ("x\ny", obj.box)), protocol=0)
            ),
            lambda obj: pickle.loads(
                pickle.dumps(tuple.__new__(ScreenObject, ("x\ny", obj.box)), protocol=1)
            ),
        ],
        ids=["replace-text", "replace-box", "make-text", "make-box", "pickle", "pickle-0",
             "pickle-1"],
    )
    def test_replace_and_make_check_fields(self, build):
        with pytest.raises(ValueError):
            build(ScreenObject("a", BBox(0, 0, 1, 1)))

    @pytest.mark.parametrize(
        "round_trip",
        [lambda obj: pickle.loads(pickle.dumps(obj)),
         lambda obj: pickle.loads(pickle.dumps(obj, protocol=0)),
         lambda obj: pickle.loads(pickle.dumps(obj, protocol=1)),
         copy.deepcopy, copy.copy],
        ids=["pickle", "pickle-0", "pickle-1", "deepcopy", "copy"],
    )
    def test_screen_object_round_trips(self, round_trip):
        obj = ScreenObject("a", BBox(0.5, 1, 2, 3))
        again = round_trip(obj)
        assert again == obj and type(again) is ScreenObject

    def test_entity_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            Entity("person", (("name", "A"), ("name", "B")))

    def test_placement_requires_display_text(self):
        with pytest.raises(ValueError):
            Entity("person", placement=Placement(BBox(0, 0, 1, 1)))

    def test_ground_truth_bounds(self):
        entity = Entity("person", (("name", "A"),))
        with pytest.raises(ValueError):
            DataPoint("hi", (entity,), ground_truth={2})
        with pytest.raises(ValueError):
            DataPoint("hi", (entity,), ground_truth={0})
        with pytest.raises(ValueError):
            DataPoint("hi", (entity,), ground_truth={True})

    def test_onscreen_requires_placements(self):
        entity = Entity("person", (("name", "A"),))
        with pytest.raises(ValueError):
            DataPoint("hi", (entity,), kind="onscreen")

    def test_unknown_kind_rejected(self):
        entity = Entity("person", (("name", "A"),))
        with pytest.raises(ValueError):
            DataPoint("hi", (entity,), kind="background")

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda text: ScreenObject(text, BBox(0, 0, 1, 1)), "ScreenObject.text"),
            (lambda text: Entity(text), "Entity.entity_type"),
            (lambda text: Entity("p", ((text, "v"),)), "Entity property key"),
            (lambda text: Entity("p", (("k", text),)), "Entity property value"),
            (lambda text: Entity("p", display_text=text), "Entity.display_text"),
            (lambda text: DataPoint(text, ()), "DataPoint.request"),
        ],
        ids=["screen-text", "type", "property-key", "property-value", "display-text",
             "request"],
    )
    @pytest.mark.parametrize("text", ["call \ud800 now", "\udfff", "é\udc80", "\ud83d\ude00"])
    def test_lone_surrogates_rejected(self, build, field, text):
        # UTF-8 cannot encode a surrogate, even two that would make a pair.
        with pytest.raises(ValueError, match=f"^{field} must not hold a lone surrogate, got "):
            build(text)
        build("\U0001f600 café")


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def well_shaped_or_any(strategy):
    """Mostly a value of the expected shape, so records get past the first
    check often enough to reach the deeper ones; otherwise arbitrary JSON."""
    return st.one_of(strategy, strategy, strategy, json_values)


# Integers past the float range must be rejected, not raise OverflowError.
json_numbers = st.integers() | st.integers(10**300, 10**400) | st.floats()
json_boxes = well_shaped_or_any(st.lists(json_numbers, min_size=4, max_size=4))
json_objects = well_shaped_or_any(
    st.fixed_dictionaries({"text": well_shaped_or_any(st.text(min_size=1)), "box": json_boxes})
)
json_entities = well_shaped_or_any(
    st.fixed_dictionaries(
        {"type": well_shaped_or_any(st.sampled_from(["person", "url"]))},
        optional={
            "properties": well_shaped_or_any(
                st.lists(st.lists(st.text(max_size=4), max_size=3), max_size=3)
            ),
            "display_text": well_shaped_or_any(st.text(max_size=8)),
            "box": json_boxes,
            "surrounding": well_shaped_or_any(st.lists(json_objects, max_size=3)),
        },
    )
)
json_records = st.lists(
    well_shaped_or_any(
        st.fixed_dictionaries(
            {
                "request": well_shaped_or_any(st.text()),
                "kind": well_shaped_or_any(st.sampled_from(["conversational", "onscreen"])),
                "entities": well_shaped_or_any(st.lists(json_entities, max_size=3)),
                "ground_truth": well_shaped_or_any(st.lists(st.integers(0, 4), max_size=3)),
            },
            optional={"screen": well_shaped_or_any(st.lists(json_objects, max_size=3))},
        )
    ),
    min_size=1,
    max_size=3,
)


# Box numbers and texts at the edges of the codec's unchecked path: signed
# zeros, NaN, infinities, pairs of fields whose sum overflows, ints past the
# float range, bools, strings, wrong lengths, and texts the constructor refuses.
edge_numbers = (
    st.sampled_from([0.0, -0.0, 1.5, -1.5, 1e308, -1e308, math.nan, math.inf, -math.inf])
    | st.floats()
    | st.integers()
    | st.integers(10**308, 10**400)
    | st.booleans()
    | st.text(max_size=2)
)
edge_boxes = (
    st.lists(edge_numbers, min_size=4, max_size=4)
    | st.lists(edge_numbers, max_size=6)
    | json_values
)
edge_texts = (
    st.text(alphabet="ab\n\t{}", max_size=5)
    | st.text()
    | json_values
)


def checked_box(value: object) -> BBox:
    """The box the constructor path makes of a decoded JSON value."""
    if (
        type(value) is not list
        or len(value) != 4
        or any(type(number) not in (int, float) for number in value)
    ):
        raise ValueError(f"box must be an array of 4 numbers, got {value!r}")
    return BBox(*map(float, value))


def onscreen_record() -> dict:
    return {
        "request": "open it",
        "kind": "onscreen",
        "entities": [
            {
                "type": "url",
                "properties": [["value", "a.example"]],
                "display_text": "a.example",
                "box": [0, 0, 10, 2],
                "surrounding": [{"text": "visit", "box": [0, 3, 5, 2]}],
            }
        ],
        "screen": [{"text": "a.example", "box": [0, 0, 10, 2]}],
        "ground_truth": [1],
    }


def good_then_bad(path: tuple, value: object) -> str:
    """Two dataset lines: a valid on-screen record, then one with value at path."""
    bad = onscreen_record()
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(onscreen_record()) + "\n" + json.dumps(bad)


class TestDatasetCodec:
    def test_single_record(self):
        record = {
            "request": "call the second one",
            "kind": "conversational",
            "entities": [
                {"type": "phone number", "properties": [["value", "555 0100"]]},
                {"type": "phone number", "properties": [["value", "555 0101"]]},
                {"type": "person", "properties": [["name", "Ana"]]},
            ],
            "ground_truth": [1],
        }
        [dp] = parse_dataset(json.dumps(record))
        assert dp.ground_truth == frozenset({1})
        assert len(dp.entities) == 3
        assert dp.entities[2].properties == (("name", "Ana"),)

    def test_ground_truth_out_of_range_names_line(self):
        record = {
            "request": "x",
            "kind": "conversational",
            "entities": [{"type": "person", "properties": [["name", "A"]]}] * 3,
            "ground_truth": [4],
        }
        text = "\n".join([json.dumps(record)] * 2)
        with pytest.raises(DatasetError, match="line 1"):
            parse_dataset(text)

    def test_malformed_json_names_line(self):
        good = json.dumps(
            {
                "request": "x",
                "kind": "conversational",
                "entities": [{"type": "person", "properties": []}],
                "ground_truth": [],
            }
        )
        with pytest.raises(DatasetError, match="line 2"):
            parse_dataset(good + "\n{not json}\n")

    def test_missing_field_rejected(self):
        with pytest.raises(DatasetError, match="ground_truth"):
            parse_dataset('{"request": "x", "kind": "conversational", "entities": []}')

    def test_round_trip_fixture_datapoints(self):
        originals = [
            realtor_datapoint(),
            branches_datapoint(),
            rainbow_datapoint(),
            alarms_datapoint(),
        ]
        assert parse_dataset(format_dataset(originals)) == originals

    def test_round_trip_random_datapoints(self):
        rng = random.Random(7)
        datapoints = []
        for _ in range(25):
            n = rng.randint(1, 6)
            entities = tuple(
                Entity(
                    rng.choice(["person", "app", "setting"]),
                    (("name", f"v{rng.randint(0, 99)}"),),
                )
                for _ in range(n)
            )
            gt = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            datapoints.append(DataPoint(f"req {rng.random()}", entities, gt, "synthetic"))
        assert parse_dataset(format_dataset(datapoints)) == datapoints

    # SHA-256 of format_dataset(parse_dataset(x)). Integer box numbers come
    # back as floats, so inputs holding them are not re-serialised unchanged.
    ROUND_TRIP_DIGESTS = {
        "alarms.jsonl": "9bc7e34bd7e4b1270ffae2583f78b8a3baab5cf27ae0936019f2412780fb713a",
        "branch_clusters.jsonl": "c3dfba5ae5efd751ddfc6321dff4e9b9fcc9c209e1e79ba048d694dda8f32dc2",
        "rainbow.jsonl": "7021e3f174c6a1588742114af0875c31815472428e86116cb26c55c665f40dc6",
        "realtor_screen.jsonl": "0e3640eb00b99dd7611d4bdfa11d46d9f6ecc35ec92100c03c2e55635a2b3b26",
    }
    # (input, output) digests for benchmarks/gen.py's seed-1 datasets.
    BENCHMARK_ROUND_TRIP_DIGESTS = {
        "screen-e2e": (
            "c77fe101b6d2f74e44b51c8a8ed066ccf96b67aebbf10c86ad5ba991752525c3",
            "c77fe101b6d2f74e44b51c8a8ed066ccf96b67aebbf10c86ad5ba991752525c3",
        ),
        "cluster-encode": (
            "a6c3445a352d58b2592c2278129e411690859cb823158f53a1a7f09bf8008ca5",
            "2abf324dc7b013e7134a05f0a19ff46cbcbf5f7e375dbf7ef204aa37542e066b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_DIGESTS))
    def test_re_serialised_fixture_bytes(self, name):
        text = (DATA_DIR / name).read_text(encoding="utf-8")
        again = format_dataset(parse_dataset(text)).encode("utf-8")
        assert hashlib.sha256(again).hexdigest() == self.ROUND_TRIP_DIGESTS[name]

    @pytest.mark.parametrize("workload", sorted(BENCHMARK_ROUND_TRIP_DIGESTS))
    def test_re_serialised_benchmark_bytes(self, workload, benchmark_input):
        data = benchmark_input(workload)
        source, expected = self.BENCHMARK_ROUND_TRIP_DIGESTS[workload]
        assert hashlib.sha256(data).hexdigest() == source, "the generator's output changed"
        again = format_dataset(parse_dataset(data)).encode("utf-8")
        assert hashlib.sha256(again).hexdigest() == expected

    def test_save_and_load_paths_and_streams(self, tmp_path):
        datapoints = [realtor_datapoint(), rainbow_datapoint(), alarms_datapoint()]
        path = tmp_path / "ds.jsonl"
        save_dataset(str(path), datapoints)
        assert path.read_bytes() == format_dataset(datapoints).encode("utf-8")
        assert load_dataset(str(path)) == datapoints
        buffer = io.StringIO()
        save_dataset(buffer, iter(datapoints))
        assert buffer.getvalue() == format_dataset(datapoints)
        assert load_dataset(io.StringIO(buffer.getvalue())) == datapoints

    def test_shipped_fixtures_match_builders(self):
        pairs = [
            ("realtor_screen.jsonl", realtor_datapoint()),
            ("branch_clusters.jsonl", branches_datapoint()),
            ("rainbow.jsonl", rainbow_datapoint()),
            ("alarms.jsonl", alarms_datapoint()),
        ]
        for name, expected in pairs:
            assert load_dataset(str(DATA_DIR / name)) == [expected], name

    @pytest.mark.parametrize(
        "properties", [{"ab": "1"}, ["ab"], [["a"]], [["a", "b", "c"]], "ab"]
    )
    def test_properties_must_be_pairs(self, properties):
        record = {
            "request": "x",
            "kind": "conversational",
            "entities": [{"type": "person", "properties": properties}],
            "ground_truth": [],
        }
        good = json.dumps({**record, "entities": [{"type": "person", "properties": []}]})
        with pytest.raises(DatasetError, match="line 2: .*properties"):
            parse_dataset(good + "\n" + json.dumps(record))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("request",), 5, "request must be a string"),
            (("entities",), 5, "entities must be an array"),
            (("screen",), 5, "screen must be an array"),
            (("entities", 0, "type"), 5, "entity type must be a string"),
            (("entities", 0, "properties", 0), ["value", None], "properties"),
            (("entities", 0, "properties", 0), [1, "x"], "properties"),
            (("entities", 0, "display_text"), [1], "display_text must be a string"),
            (("entities", 0, "box"), ["1", True, 2, 3], "box must be"),
            (("entities", 0, "box"), [0, True, 2, 3], "box must be"),
            (("entities", 0, "box"), [0, None, 2, 3], "box must be"),
            (("entities", 0, "surrounding"), {"text": "a"}, "surrounding must be an array"),
            (("entities", 0, "surrounding", 0, "text"), None, "text must be a string"),
            (("screen", 0, "text"), 7, "text must be a string"),
            (("screen", 0, "box", 3), "3", "box must be"),
        ],
        ids=[
            "request", "entities", "screen", "type", "null-value", "int-key",
            "display-text", "string-coord", "bool-coord", "null-coord",
            "surrounding", "surrounding-text", "screen-text", "screen-string-coord",
        ],
    )
    def test_wrong_json_types_rejected(self, path, value, message):
        # Each of these used to be coerced (5 -> "5", null -> "None",
        # "1" -> 1.0, true -> 1.0) or to fail with a Python type error.
        with pytest.raises(DatasetError, match=f"line 2: .*{message}"):
            parse_dataset(good_then_bad(path, value))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("request",), "call him\nRelevant entity: 1", "line break"),
            (("request",), "call him\r", "line break"),
            (("screen", 0, "text"), "{{2. 999}}", "marker delimiter"),
            (("entities", 0, "surrounding", 0, "text"), "see }}", "marker delimiter"),
            (("entities", 0, "display_text"), "{{1. a.example", "marker delimiter"),
        ],
        ids=["request-newline", "request-return", "screen-marker", "surrounding-marker",
             "display-marker"],
    )
    def test_forging_text_rejected(self, path, value, message):
        with pytest.raises(DatasetError, match=f"line 2: .*{message}"):
            parse_dataset(good_then_bad(path, value))

    @pytest.mark.parametrize(
        "path",
        [("request",), ("entities", 0, "type"), ("entities", 0, "display_text"),
         ("entities", 0, "properties", 0, 0), ("entities", 0, "properties", 0, 1),
         ("entities", 0, "surrounding", 0, "text"), ("screen", 0, "text")],
        ids=["request", "type", "display-text", "property-key", "property-value",
             "surrounding-text", "screen-text"],
    )
    @pytest.mark.parametrize("text", ["call \ud800 now", "a\udc80"], ids=["high", "low"])
    def test_lone_surrogate_escapes_rejected(self, path, text):
        # json.dumps writes the surrogate as a \ud800 escape, which json.loads
        # reads back as a lone surrogate; an ASCII-only screen text still
        # takes the constructor's check.
        line = good_then_bad(path, text)
        assert "\\ud800" in line or "\\udc80" in line
        with pytest.raises(DatasetError, match=r"^line 2: .* must not hold a lone surrogate"):
            parse_dataset(line)
        # An escaped surrogate pair is one character, which is fine.
        [_, dp] = parse_dataset(good_then_bad(path, "a\U0001f600"))
        assert "a\U0001f600" in json.dumps(datapoint_to_record(dp), ensure_ascii=False)

    @pytest.mark.parametrize("blank", ["", " ", "\t", "\r", " \t\r "])
    def test_json_whitespace_lines_skipped(self, blank):
        good = json.dumps(onscreen_record())
        assert len(parse_dataset(f"{good}\n{blank}\n{good}\n{blank}")) == 2

    @pytest.mark.parametrize(
        "blank", ["\x0c", "\x1c", "\xa0", "\x85", "\u2028", " \x0b "],
        ids=["form-feed", "file-separator", "no-break-space", "next-line",
             "line-separator", "vertical-tab"],
    )
    def test_other_whitespace_lines_rejected(self, blank):
        # str.strip() would call these lines blank; JSON does not.
        good = json.dumps(onscreen_record())
        with pytest.raises(DatasetError, match=r"^line 2: Expecting value"):
            parse_dataset(f"{good}\n{blank}\n{good}")

    def test_bool_ground_truth_rejected(self):
        record = {
            "request": "x",
            "kind": "conversational",
            "entities": [{"type": "person", "properties": [["name", "A"]]}],
            "ground_truth": [True],
        }
        with pytest.raises(DatasetError, match="line 1: ground_truth"):
            parse_dataset(json.dumps(record))

    @pytest.mark.parametrize(
        "line",
        [
            '{"request": "x", "kind": "onscreen", "ground_truth": [], "entities": '
            '[{"type": "url", "display_text": "a", "box": [1%s, 0, 1, 1]}]}' % ("0" * 400),
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["huge-number", "deep-nesting"],
    )
    def test_pathological_json_names_line(self, line):
        with pytest.raises(DatasetError, match="line 1"):
            parse_dataset(line)

    def test_invalid_utf8_names_line(self):
        good = json.dumps(onscreen_record()).encode("utf-8")
        bad = good.replace(b"open it", b"open \xff it")
        with pytest.raises(DatasetError, match="line 2: 'utf-8' codec"):
            parse_dataset(good + b"\n" + bad)
        # Lines are checked in order: a bad record before the bad bytes is named.
        with pytest.raises(DatasetError, match="line 1: Expecting"):
            parse_dataset(b"{\n" + bad)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separators_round_trip(self, tmp_path, separator):
        entity = Entity("general text", (("value", f"a{separator}b"),))
        datapoints = [
            DataPoint(f"say{separator}this", (entity,), frozenset({1}), "synthetic"),
            rainbow_datapoint(),
        ]
        path = tmp_path / "ds.jsonl"
        save_dataset(str(path), datapoints)
        assert load_dataset(str(path)) == datapoints

    @settings(max_examples=200)
    @given(json_records)
    def test_arbitrary_records_raise_only_dataset_error(self, records):
        text = "\n".join(json.dumps(record) for record in records)
        try:
            parse_dataset(text)
        except DatasetError:
            pass

    @settings(max_examples=300)
    @given(edge_texts, edge_boxes)
    @example("a", [0.0, -0.0, -0.0, 0.0])
    @example("a", [math.nan, 0.0, 1.0, 1.0])
    @example("a", [0.0, 0.0, math.nan, 1.0])
    @example("a", [0.0, math.inf, 1.0, 1.0])
    @example("a", [-math.inf, 0.0, 1.0, 1.0])
    @example("a", [0.0, 0.0, math.inf, 1.0])
    @example("a", [1e308, 1e308, 0.0, 0.0])
    @example("a", [0.0, 0.0, 1e308, 1e308])
    @example("a", [-1e308, 0.0, 0.0, -1e308])
    @example("a", [10**400, 0.0, 1.0, 1.0])
    @example("a", [1, 2, 3, 4])
    @example("a", [0.0, 0.0, -1.0, 1.0])
    @example("a", [True, 0.0, 1.0, 1.0])
    @example("a", ["1", 0.0, 1.0, 1.0])
    @example("a", [0.0, 1.0, 1.0])
    @example("a", [0.0, 1.0, 1.0, 1.0, 1.0])
    @example("", [0.0, 0.0, 1.0, 1.0])
    @example("a\nb", [0.0, 0.0, 1.0, 1.0])
    @example("a\tb", [0.0, 0.0, 1.0, 1.0])
    @example("a{{b", [0.0, 0.0, 1.0, 1.0])
    @example("a}}b", [0.0, 0.0, 1.0, 1.0])
    @example(5, [0.0, 0.0, 1.0, 1.0])
    def test_decoded_objects_match_the_constructors(self, text, box):
        # The codec builds well-formed floats and texts without the
        # constructors; it must give what they give, value, type and sign of
        # zero alike, and reject what they reject with their message.
        obj = {"text": text, "box": box}
        record = {
            "request": "r",
            "kind": "onscreen",
            "entities": [{"type": "t", "display_text": "d", "box": box, "surrounding": [obj]}],
            "screen": [obj],
            "ground_truth": [],
        }
        try:
            expected_box = checked_box(box)
            expected = ScreenObject(text, expected_box)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(DatasetError, match=f"^{re.escape(f'line 1: {exc}')}$"):
                parse_dataset(json.dumps(record))
            return
        [dp] = parse_dataset(json.dumps(record))
        decoded = (dp.entities[0].placement.box, dp.entities[0].placement.surrounding[0],
                   dp.screen[0])
        assert decoded == (expected_box, expected, expected)
        assert [type(value) for value in decoded] == [BBox, ScreenObject, ScreenObject]
        for decoded_box in (decoded[0], decoded[1].box, decoded[2].box):
            assert list(map(repr, decoded_box)) == list(map(repr, expected_box))

    def test_surrounding_without_box_rejected(self):
        entity = {"type": "url", "display_text": "a",
                  "surrounding": [{"text": "b", "box": [0, 0, 1, 1]}]}
        with pytest.raises(
            DatasetError, match=r"^line 2: entity has surrounding objects but no box$"
        ):
            parse_dataset(good_then_bad(("entities", 0), entity))
        # The entity's own fields are checked first, as before.
        with pytest.raises(DatasetError, match=r"^line 2: entity type must be a string, got 5$"):
            parse_dataset(good_then_bad(("entities", 0), dict(entity, type=5)))

    def test_record_shape(self):
        record = datapoint_to_record(realtor_datapoint())
        assert set(record) == {"request", "kind", "entities", "screen", "ground_truth"}
        assert record["ground_truth"] == [1, 2]
        first = record["entities"][0]
        assert first["box"] == [40, 390, 120, 20]
        assert all(set(o) == {"text", "box"} for o in record["screen"])


def synthetic_rows(seeds: range) -> list[DataPoint]:
    """The bundled templates' datapoints, one expansion per seed."""
    from refkit import generate_datapoints, load_templates
    from refkit.synth_datagen import bundled_template_dir
    from refkit.value_bank import pool_entities

    rows = []
    for seed in seeds:
        for offset, (template, slots) in enumerate(load_templates(bundled_template_dir())):
            pool = pool_entities(exclude_types=slots.ground_truth_types)
            rows.extend(generate_datapoints(template, slots, pool, seed=seed + offset))
    return rows


def traced_peak(call) -> tuple:
    """call's result, the bytes it still holds allocated and its peak, traced."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def load_outcomes(data: bytes, tmp_path) -> list:
    """What each way of loading data gives: datapoints or the error message.

    Valid UTF-8 is also read as text, whole and through a text stream that
    keeps line endings as they are (newline="").
    """
    path = tmp_path / "ds.jsonl"
    path.write_bytes(data)
    loads = [
        lambda: load_dataset(str(path)),
        lambda: load_dataset(io.BytesIO(data)),
        lambda: parse_dataset(data),
    ]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        loads.append(lambda: parse_dataset(text))
        loads.append(lambda: load_dataset(io.TextIOWrapper(io.BytesIO(data), "utf-8", newline="")))
    outcomes = []
    for load in loads:
        try:
            outcomes.append(load())
        except DatasetError as exc:
            outcomes.append(str(exc))
    return outcomes


ONSCREEN_LINE = json.dumps(onscreen_record()).encode("utf-8")
RAINBOW_LINE = json.dumps(datapoint_to_record(rainbow_datapoint()), ensure_ascii=False).encode()


class TestStreamingCodec:
    def test_save_holds_one_record(self, tmp_path):
        rows = synthetic_rows(range(5))
        longest = max(map(len, format_dataset(rows).encode("utf-8").splitlines()))
        assert len(rows) > 3000
        _, _, peak = traced_peak(lambda: save_dataset(str(tmp_path / "ds.jsonl"), rows))
        # Holding the whole file, as a payload built first does, takes megabytes.
        assert peak < 64 * 1024 + 16 * longest

    def test_load_holds_one_record_beyond_its_result(self, tmp_path):
        record = onscreen_record()
        path = tmp_path / "ds.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(200):
                record["screen"] = [
                    {"text": f"item {index}-{j}", "box": [j * 1.5, index * 2.5, 1.0, 2.0]}
                    for j in range(index % 7 * 20)
                ]
                handle.write(json.dumps(record) + "\n")
        data = path.read_bytes()
        longest = max(map(len, data.splitlines()))
        assert len(data) > 50 * longest
        for load in (lambda: load_dataset(str(path)), lambda: load_dataset(io.BytesIO(data))):
            datapoints, current, peak = traced_peak(load)
            assert len(datapoints) == 200
            # Reading the whole file first holds it twice: as bytes and split.
            assert peak - current < 64 * 1024 + 8 * longest

    @pytest.mark.parametrize(
        "data, expected",
        [
            (ONSCREEN_LINE + b"\r\n" + RAINBOW_LINE + b"\r\n", 2),
            (ONSCREEN_LINE + b"\n" + RAINBOW_LINE, 2),
            (b"\n \t\n" + ONSCREEN_LINE + b"\n\r\n\n" + RAINBOW_LINE + b"\n\n", 2),
            (RAINBOW_LINE.replace(b"Rainbow", "Rain\u2028bow\u2029".encode()) + b"\n"
             + RAINBOW_LINE.replace(b"Rainbow", "Rain\x85bow".encode()), 2),
            (ONSCREEN_LINE.replace(b", ", b",\r ").replace(b": ", b":\r") + b"\r", 1),
            (ONSCREEN_LINE + b"\n\n" + ONSCREEN_LINE.replace(b"open it", b"open \xff it"),
             "line 3: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
            (ONSCREEN_LINE + b'\n{"request": "\xe2\x82\n' + ONSCREEN_LINE,
             "line 2: 'utf-8' codec can't decode bytes in position 13-14: unexpected end of data"),
            (ONSCREEN_LINE + b"\r\n{not json}\r\n",
             "line 2: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            (ONSCREEN_LINE + b'\n{"request": \n' + ONSCREEN_LINE,
             "line 2: Expecting value: line 1 column 13 (char 12)"),
        ],
        ids=["crlf", "no-final-newline", "blank-lines", "unicode-separators",
             "lone-cr-between-tokens", "invalid-utf8", "truncated-utf8", "malformed-json",
             "truncated-json"],
    )
    def test_every_load_path_agrees(self, data, expected, tmp_path):
        outcomes = load_outcomes(data, tmp_path)
        if isinstance(expected, str):
            assert outcomes == [expected] * len(outcomes)
        else:
            assert len(outcomes[0]) == expected
            assert all(outcome == outcomes[0] for outcome in outcomes)
        assert len(outcomes) == (3 if b"\xff" in data or b"\xe2\x82" in data else 5)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([
        ONSCREEN_LINE, RAINBOW_LINE, b"", b" \t\r", b"\r", b"\x0c", b"{", b"\xff", b"\xc3",
        ONSCREEN_LINE.replace(b", ", b",\r"), RAINBOW_LINE + b"\r",
    ]), max_size=5), st.booleans())
    def test_every_load_path_agrees_on_any_lines(self, tmp_path_factory, lines, final):
        data = b"\n".join(lines) + (b"\n" if final else b"")
        outcomes = load_outcomes(data, tmp_path_factory.mktemp("lines"))
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_failing_source_leaves_earlier_records(self, tmp_path):
        datapoints = [realtor_datapoint(), rainbow_datapoint(), alarms_datapoint()]

        def failing_after_two():
            yield from datapoints[:2]
            raise RuntimeError("source failed")

        path = tmp_path / "ds.jsonl"
        buffer = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in (str(path), buffer):
                with pytest.raises(RuntimeError, match="source failed"):
                    save_dataset(target, failing_after_two())
            gc.collect()
        assert path.read_bytes() == format_dataset(datapoints[:2]).encode("utf-8")
        assert buffer.getvalue() == format_dataset(datapoints[:2])
        assert load_dataset(str(path)) == datapoints[:2]


def conversational_lines(*entity_lists: list) -> str:
    """One conversational record per list of entity records."""
    return "".join(
        json.dumps({"request": "r", "kind": "conversational", "entities": entities,
                    "ground_truth": []}) + "\n"
        for entities in entity_lists
    )


class TestEntitySharing:
    def test_equal_records_share_one_entity(self):
        person = {"type": "person", "properties": [["name", "Ana"]]}
        named = dict(person, display_text="Ana")
        first, second = parse_dataset(
            conversational_lines([person, named], [dict(person), dict(named), person])
        )
        assert first.entities[0] is second.entities[0] is second.entities[2]
        assert first.entities[1] is second.entities[1]
        # Records that differ in display_text are distinct entities.
        assert first.entities[0] != first.entities[1]

    def test_property_order_distinguishes_records(self):
        ab = {"type": "t", "properties": [["a", "1"], ["b", "2"]]}
        ba = {"type": "t", "properties": [["b", "2"], ["a", "1"]]}
        first, second = parse_dataset(conversational_lines([ab], [ba]))
        assert first.entities[0] is not second.entities[0]
        assert first.entities[0].properties == (("a", "1"), ("b", "2"))
        assert second.entities[0].properties == (("b", "2"), ("a", "1"))

    def test_onscreen_records_not_shared(self):
        first, second = parse_dataset(good_then_bad(("request",), "open it"))
        assert first.entities[0] == second.entities[0]
        assert first.entities[0] is not second.entities[0]

    def test_nothing_shared_between_calls(self):
        text = conversational_lines([{"type": "person", "properties": [["name", "Ana"]]}])
        assert parse_dataset(text)[0].entities[0] is not parse_dataset(text)[0].entities[0]

    @pytest.mark.parametrize(
        "entity, message",
        [
            ({"type": "t", "properties": ["ab"]},
             "properties must be [key, value] pairs of strings, got ['ab']"),
            ({"type": "t", "properties": [{"a": "1", "b": "2"}]},
             "properties must be [key, value] pairs of strings, got [{'a': '1', 'b': '2'}]"),
            ({"type": "t", "properties": {"a": "b"}},
             "properties must be an array of pairs, got {'a': 'b'}"),
            ({"type": "t", "properties": [["a", ["b"]]]},
             "properties must be [key, value] pairs of strings, got [['a', ['b']]]"),
            ({"type": 5, "properties": [["a", "b"]]}, "entity type must be a string, got 5"),
            ({"type": ["t"], "properties": [["a", "b"]]},
             "entity type must be a string, got ['t']"),
            ({"type": "t", "display_text": ["x"], "properties": [["a", "b"]]},
             "display_text must be a string, got ['x']"),
        ],
        ids=["pair-string", "pair-object", "properties-object", "nested-value", "int-type",
             "array-type", "array-display-text"],
    )
    def test_shared_entity_never_stands_for_a_bad_record(self, entity, message):
        # Each bad record reads, or hashes, like the valid one before it.
        valid = {"type": "t", "properties": [["a", "b"]]}
        with pytest.raises(DatasetError, match=f"^{re.escape(f'line 2: {message}')}$"):
            parse_dataset(conversational_lines([valid], [entity]))

    def test_one_build_per_distinct_record(self, monkeypatch):
        from refkit import generate_datapoints, load_templates
        from refkit.synth_datagen import bundled_template_dir
        from refkit.value_bank import pool_entities

        rows = []
        for seed, (template, slots) in enumerate(load_templates(bundled_template_dir())):
            pool = pool_entities(exclude_types=slots.ground_truth_types)
            rows.extend(generate_datapoints(template, slots, pool, seed=seed, max_samples=20))
        text = format_dataset(rows)
        records = [entity for line in text.splitlines() for entity in json.loads(line)["entities"]]
        distinct = {json.dumps(entity) for entity in records}
        builds = 0
        check = Entity.__post_init__

        def counting(entity):
            nonlocal builds
            builds += 1
            check(entity)

        monkeypatch.setattr(Entity, "__post_init__", counting)
        assert parse_dataset(text) == rows
        assert len(records) > 4 * len(distinct)
        assert 0 < builds <= len(distinct)


# --- Screen: texts plus one array of box fields --------------------------------

screen_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\t{}"),
    min_size=1,
    max_size=6,
) | st.sampled_from(["a", "b", "a b", "{a}", "é"])
screen_boxes = st.builds(
    BBox,
    st.sampled_from([0.0, -0.0, 1.5, -2.0]) | coords,
    st.sampled_from([0.0, -0.0, 1.5, -2.0]) | coords,
    st.sampled_from([0.0, -0.0, 2.0]) | sizes,
    st.sampled_from([0.0, -0.0, 2.0]) | sizes,
)
screen_object_lists = st.lists(st.builds(ScreenObject, screen_texts, screen_boxes), max_size=8)


def field_reprs(objects) -> list:
    """Each object's text and the repr of each box field, so -0.0 differs from 0.0."""
    return [(obj.text, [repr(value) for value in obj.box]) for obj in objects]


class TestScreen:
    @given(screen_object_lists)
    def test_equals_and_hashes_like_its_tuple(self, objects):
        screen = Screen(objects)
        expected = tuple(objects)
        assert screen == expected and expected == screen and not screen != expected
        assert hash(screen) == hash(expected)
        assert screen == Screen(expected) and hash(screen) == hash(Screen(expected))
        assert len(screen) == len(expected)
        assert bool(screen) is bool(expected)
        assert field_reprs(screen) == field_reprs(expected)
        assert [type(obj) for obj in screen] == [ScreenObject] * len(expected)
        assert all(type(obj.box) is BBox for obj in screen)
        # Like a tuple, it equals no other sequence type and no longer tuple.
        assert screen != list(expected)
        assert screen != expected + (ScreenObject("x", BBox(0.0, 0.0, 0.0, 0.0)),)
        if expected:
            assert screen != expected[1:] and screen != Screen(expected[:-1])

    @given(screen_object_lists, st.data())
    def test_indices_and_slices_act_as_on_the_tuple(self, objects, data):
        screen = Screen(objects)
        expected = tuple(objects)
        n = len(expected)
        for index in range(-n - 2, n + 2):
            if -n <= index < n:
                assert screen[index] == expected[index]
                assert field_reprs([screen[index]]) == field_reprs([expected[index]])
            else:
                with pytest.raises(IndexError):
                    screen[index]
        with pytest.raises(TypeError):
            screen["0"]
        part = data.draw(st.slices(n + 2))
        assert type(screen[part]) is Screen
        assert screen[part] == expected[part]
        assert field_reprs(screen[part]) == field_reprs(expected[part])

    @given(screen_object_lists)
    def test_pickles_and_copies(self, objects):
        screen = Screen(objects)
        copies = [pickle.loads(pickle.dumps(screen, protocol)) for protocol in range(6)]
        copies += [copy.copy(screen), copy.deepcopy(screen)]
        for other in copies:
            assert type(other) is Screen
            assert other == screen and field_reprs(other) == field_reprs(screen)

    def test_is_immutable(self):
        screen = Screen([ScreenObject("a", BBox(0.0, 0.0, 1.0, 1.0))])
        with pytest.raises(AttributeError):
            screen._texts = ("b",)
        with pytest.raises(AttributeError):
            del screen._fields
        with pytest.raises(AttributeError):
            screen.extra = 1

    def test_holds_only_screen_objects(self):
        with pytest.raises(ValueError, match="screen items must be ScreenObject"):
            Screen([("a", BBox(0, 0, 1, 1))])

    def test_int_fields_read_back_as_floats(self):
        [obj] = Screen([ScreenObject("a", BBox(1, 2, 3, 4))])
        assert obj == ("a", (1, 2, 3, 4))
        assert [repr(value) for value in obj.box] == ["1.0", "2.0", "3.0", "4.0"]

    @settings(max_examples=50)
    @given(screen_object_lists)
    def test_decoded_datapoint_equals_the_one_built_in_memory(self, objects):
        near = ScreenObject("near", BBox(0.5, 2.5, 1.0, 1.0))
        entity = Entity("url", (("value", "a"),), "a", Placement(BBox(0.0, 0.0, 1.0, 2.0), (near,)))
        built = DataPoint("open it", (entity,), frozenset({1}), "onscreen", screen=objects)
        assert type(built.screen) is tuple
        [decoded] = parse_dataset(format_dataset([built]))
        assert type(decoded.screen) is Screen
        assert decoded == built and built == decoded
        assert hash(decoded) == hash(built)
        assert field_reprs(decoded.screen) == field_reprs(built.screen)
        assert format_dataset([decoded]) == format_dataset([built])


def screen_line(*entries) -> str:
    """A valid on-screen record, then one whose screen holds entries after a valid one."""
    good = {"text": "ok", "box": [0.0, 1.0, 2.0, 3.0]}
    bad = onscreen_record()
    bad["screen"] = [good, *entries]
    return json.dumps(onscreen_record()) + "\n" + json.dumps(bad)


# The messages the codec gave for these entries before screens were held as
# columns; each must stay byte for byte the same.
MALFORMED_SCREEN_ENTRIES = {
    "non-object": (5, "line 2: screen object must be an object, got 5"),
    "array-entry": (
        ["a", [0.0, 0.0, 1.0, 1.0]],
        "line 2: screen object must be an object, got ['a', [0.0, 0.0, 1.0, 1.0]]",
    ),
    "missing-text": ({"box": [0.0, 0.0, 1.0, 1.0]}, "line 2: 'text'"),
    "missing-box": ({"text": "a"}, "line 2: 'box'"),
    "empty-text": ({"text": "", "box": [0.0, 0.0, 1.0, 1.0]},
                   "line 2: ScreenObject.text must be non-empty"),
    "newline": ({"text": "a\nb", "box": [0.0, 0.0, 1.0, 1.0]},
                "line 2: ScreenObject.text must not contain newline or tab"),
    "tab": ({"text": "a\tb", "box": [0.0, 0.0, 1.0, 1.0]},
            "line 2: ScreenObject.text must not contain newline or tab"),
    "open-marker": ({"text": "a{{b", "box": [0.0, 0.0, 1.0, 1.0]},
                    "line 2: ScreenObject.text must not contain a marker delimiter, got 'a{{b'"),
    "close-marker": ({"text": "a}}b", "box": [0.0, 0.0, 1.0, 1.0]},
                     "line 2: ScreenObject.text must not contain a marker delimiter, got 'a}}b'"),
    "int-text": ({"text": 7, "box": [0.0, 0.0, 1.0, 1.0]},
                 "line 2: screen object text must be a string, got 7"),
    "lone-surrogate": ({"text": "a\ud800", "box": [0.0, 0.0, 1.0, 1.0]},
                       "line 2: ScreenObject.text must not hold a lone surrogate, got 'a\\ud800'"),
    "bool-field": ({"text": "a", "box": [0.0, True, 1.0, 1.0]},
                   "line 2: box must be an array of 4 numbers, got [0.0, True, 1.0, 1.0]"),
    "nan-field": ({"text": "a", "box": [0.0, 0.0, math.nan, 1.0]},
                  "line 2: BBox.width must be finite, got nan"),
    "infinite-field": ({"text": "a", "box": [math.inf, 0.0, 1.0, 1.0]},
                       "line 2: BBox.left must be finite, got inf"),
    "negative-size": ({"text": "a", "box": [0.0, 0.0, 1.0, -1.0]},
                      "line 2: BBox width and height must be non-negative"),
    "three-fields": ({"text": "a", "box": [0.0, 0.0, 1.0]},
                     "line 2: box must be an array of 4 numbers, got [0.0, 0.0, 1.0]"),
    "bad-box-before-bad-text": ({"text": "", "box": [0.0, 0.0, 1.0]},
                                "line 2: box must be an array of 4 numbers, got [0.0, 0.0, 1.0]"),
    "huge-int": ({"text": "a", "box": [10**400, 0, 1, 1]},
                 "line 2: int too large to convert to float"),
}

# Entries off the fast path that are valid, and the fields they load as.
VALID_SCREEN_ENTRIES = {
    "non-ascii": ({"text": "café", "box": [0.0, 0.0, 1.0, 1.0]}, ("café", [0.0, 0.0, 1.0, 1.0])),
    "int-fields": ({"text": "a", "box": [1, 2, 3, 4]}, ("a", [1.0, 2.0, 3.0, 4.0])),
    "overflowing-sum": (
        {"text": "a", "box": [1e308, 1e308, 0.0, 0.0]}, ("a", [1e308, 1e308, 0.0, 0.0])
    ),
}


class TestScreenCodec:
    @pytest.mark.parametrize(
        "entry, message", MALFORMED_SCREEN_ENTRIES.values(), ids=MALFORMED_SCREEN_ENTRIES
    )
    def test_malformed_entries_keep_their_messages(self, entry, message):
        with pytest.raises(DatasetError) as raised:
            parse_dataset(screen_line(entry))
        assert str(raised.value) == message
        # Surrounding objects are decoded by the same checked loop.
        bad = onscreen_record()
        bad["entities"][0]["surrounding"] = [entry]
        with pytest.raises(DatasetError) as raised:
            parse_dataset(json.dumps(onscreen_record()) + "\n" + json.dumps(bad))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "entry, fields", VALID_SCREEN_ENTRIES.values(), ids=VALID_SCREEN_ENTRIES
    )
    def test_valid_entries_load_as_floats(self, entry, fields):
        [_, datapoint] = parse_dataset(screen_line(entry))
        assert type(datapoint.screen) is Screen
        text, box = datapoint.screen[1]
        assert (text, [repr(value) for value in box]) == (fields[0], list(map(repr, fields[1])))
        # Written back, the fields are floats.
        record = json.loads(format_dataset([datapoint]))
        assert record["screen"][1] == {"text": fields[0], "box": fields[1]}
        assert all(type(value) is float for value in record["screen"][1]["box"])

    def test_in_memory_int_box_is_written_as_ints(self):
        screen = [ScreenObject("a", BBox(1, 2, 3, 4)), ScreenObject("b", BBox(0.5, 2, 3, 4))]
        datapoint = DataPoint("open it", realtor_datapoint().entities, frozenset(), "onscreen",
                              screen=screen)
        assert type(datapoint.screen) is tuple
        line = format_dataset([datapoint])
        assert '{"text": "a", "box": [1, 2, 3, 4]}' in line
        assert '{"text": "b", "box": [0.5, 2, 3, 4]}' in line

    def test_large_screen_adds_few_tracked_objects(self):
        # One ScreenObject and one BBox per object, as tuple subclasses, are
        # never untracked by the cyclic collector: 20,000 tracked objects.
        record = onscreen_record()
        record["screen"] = [
            {"text": f"item {j}", "box": [j * 1.5, 2.5, 1.0, 2.0]} for j in range(10_000)
        ]
        line = json.dumps(record)
        gc.collect()
        before = len(gc.get_objects())
        [datapoint] = parse_dataset(line)
        added = len(gc.get_objects()) - before
        assert len(datapoint.screen) == 10_000
        assert added < 50
