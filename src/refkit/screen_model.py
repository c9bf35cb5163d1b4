"""Core value types for screens, entities, and datasets.

Everything here is an immutable value object: construct once, share freely
across threads. Geometry uses abstract screen units with the origin at the
top-left corner and y growing downward, matching screenshot conventions.
"""
from __future__ import annotations

import io
import json
import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from os import PathLike
from typing import IO, Iterable, Iterator, NamedTuple

KINDS = ("conversational", "synthetic", "onscreen")

# Most entries one memo holds. The renderings' and seeded draws' lru_caches
# drop the least recently used past it, as `re` bounds its compile cache;
# the dataset writer's entity texts start over.
MAX_MEMO = 4096


class DatasetError(ValueError):
    """Raised when a dataset stream cannot be parsed or validated."""


class Point(NamedTuple):
    x: float
    y: float


def _require_utf8(text: str, field: str) -> None:
    """ValueError when text holds a lone surrogate, which UTF-8 cannot encode.

    json.loads makes one of a "\\ud800" escape, and PyYAML of a template's;
    such a text would fail only when it is written out. ASCII text, the
    common case, is passed after one `isascii` scan.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{field} must not hold a lone surrogate, got {text!r}") from None


# Numbers as BBox holds them; bool, though a subclass of int, is not one.
_NUMBER_TYPES = frozenset((int, float))


class _BBoxFields(NamedTuple):
    left: float
    top: float
    width: float
    height: float


class BBox(_BBoxFields):
    """Axis-aligned box: (left, top) corner plus non-negative extent.

    Each field is a finite float or an int a float holds exactly, since a
    Screen holds box fields as floats. A tuple of (left, top, width,
    height): it equals the plain 4-tuple of its fields and orders like one.
    Every way of making one (the constructor, `_make`, `_replace`,
    unpickling, copying) makes the checks below. No decode path builds one:
    the codec checks each decoded box with `_box_fields`.
    """

    __slots__ = ()

    def __new__(cls, left: float, top: float, width: float, height: float) -> BBox:
        for name, value in zip(cls._fields, (left, top, width, height)):
            if type(value) not in _NUMBER_TYPES:
                raise ValueError(f"BBox.{name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:
                # The int is not shown: CPython refuses to make text of one
                # longer than 4,300 digits.
                raise ValueError(
                    f"BBox.{name} must be finite, got an int past the float range"
                ) from None
            if not finite:
                raise ValueError(f"BBox.{name} must be finite, got {value!r}")
            if float(value) != value:  # as above, the int is not shown
                raise ValueError(
                    f"BBox.{name} must be an int a float holds exactly, got one it would round"
                )
        if width < 0 or height < 0:
            raise ValueError("BBox width and height must be non-negative")
        return tuple.__new__(cls, (left, top, width, height))

    @classmethod
    def _make(cls, iterable: Iterable) -> BBox:
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        # Pickle protocols 0 and 1 would otherwise rebuild through
        # tuple.__new__, skipping the checks.
        return type(self), tuple(self)


def bbox_center(box: BBox) -> Point:
    """Center point of a bounding box."""
    return Point(box.left + box.width / 2, box.top + box.height / 2)


# The characters str.splitlines breaks a line at: one in a text on a prompt
# line could forge the lines after it.
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _check_line(text: str, field: str, shown: bool) -> None:
    """ValueError, naming field, unless text may sit on one prompt line.

    No text may hold a line break, a lone surrogate, or the `{{` or `}}`
    that delimit an entity marker, and a shown one (screen or display text)
    no tab. No printable character is a line break, a tab or a surrogate.
    """
    if not text.isprintable():
        _require_utf8(text, field)
        if shown and ("\n" in text or "\t" in text):
            raise ValueError(f"{field} must not contain newline or tab")
        if not _LINE_BREAKS.isdisjoint(text):
            raise ValueError(f"{field} must not contain a line break, got {text!r}")
    if "{{" in text or "}}" in text:
        raise ValueError(f"{field} must not contain a marker delimiter, got {text!r}")


def _check_screen_text(text: object) -> None:
    """ValueError, naming what is wrong, unless text may be a ScreenObject's."""
    if type(text) is not str:
        raise ValueError(f"screen object text must be a string, got {text!r}")
    if not text:
        raise ValueError("ScreenObject.text must be non-empty")
    _check_line(text, "ScreenObject.text", shown=True)


class _ScreenObjectFields(NamedTuple):
    text: str
    box: BBox


class ScreenObject(_ScreenObjectFields):
    """A non-entity text element on the screen.

    A tuple of (text, box), so building, hashing and comparing one runs at
    tuple speed; it equals the plain tuple of its fields. Every way of
    making one (the constructor, `_make`, `_replace`, unpickling, copying)
    makes the checks below.

    Tabs and line breaks (any character str.splitlines breaks at) are
    rejected rather than escaped: newline and tab separate the rendered
    parse, and any line break could forge prompt lines. So are the `{{` and
    `}}` that delimit entity markers, which would let screen text pass for a
    numbered option; Entity.display_text, which may not end in `}` either,
    and DataPoint.request are held to the same rule. Every
    text field of ScreenObject, Entity and DataPoint must be UTF-8 encodable.
    """

    __slots__ = ()

    def __new__(cls, text: str, box: BBox) -> ScreenObject:
        _check_screen_text(text)
        if type(box) is not BBox:
            raise ValueError(f"screen object box must be a BBox, got {box!r}")
        return tuple.__new__(cls, (text, box))

    @classmethod
    def _make(cls, iterable: Iterable) -> ScreenObject:
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        # As BBox.__reduce__: every pickle protocol rebuilds through __new__.
        return type(self), tuple(self)


def _checked_object(text: str, box: Iterable[float]) -> ScreenObject:
    """The ScreenObject of a text and four box fields that are already checked."""
    return tuple.__new__(ScreenObject, (text, tuple.__new__(BBox, box)))


def _items_of(values: Iterable, item_type: type, field: str) -> tuple:
    """values as a tuple, when each item is exactly an item_type; else ValueError."""
    try:
        items = tuple(values)
    except TypeError:
        raise ValueError(f"{field} must be an array, got {values!r}") from None
    if not {item_type}.issuperset(map(type, items)):
        bad = next(item for item in items if type(item) is not item_type)
        raise ValueError(f"{field} items must be {item_type.__name__}, got {bad!r}")
    return items


class Screen(Sequence):
    """An immutable sequence of ScreenObjects held as columns.

    A tuple of the texts and one array('d') of the box fields, four per
    object (left, top, width, height), in the manner of the Apache Arrow
    columnar format: per object it holds one text reference and 32 bytes,
    and no object the cyclic garbage collector tracks. Indexing (negative
    indices too) and iteration build ScreenObjects on demand, and a slice is
    a Screen. A Screen equals, and hashes like, the tuple of its objects;
    it pickles through that tuple, so unpickling makes the constructor's
    checks. Box fields are held as floats, so an int field reads back as the
    equal float. Every DataPoint.screen and Placement.surrounding is one;
    the encoders read its columns through `object_columns`.
    """

    __slots__ = ("_texts", "_fields")

    def __new__(cls, objects: Iterable[ScreenObject] = ()) -> Screen:
        return _as_screen(objects, "screen")

    @classmethod
    def _of(cls, texts: tuple[str, ...], fields: array) -> Screen:
        """A Screen over columns already checked: 4 * len(texts) box fields."""
        screen = object.__new__(cls)
        object.__setattr__(screen, "_texts", texts)
        object.__setattr__(screen, "_fields", fields)
        return screen

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Screen is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Screen is immutable: cannot delete {name!r}")

    def __len__(self) -> int:
        return len(self._texts)

    def __getitem__(self, index):
        texts, fields = self._texts, self._fields
        if isinstance(index, slice):
            positions = range(len(texts))[index]
            part = chain.from_iterable(fields[4 * at : 4 * at + 4] for at in positions)
            return Screen._of(texts[index], array("d", part))
        text = texts[index]  # raises for an index a tuple would refuse
        at = 4 * (operator.index(index) % len(texts))
        return _checked_object(text, fields[at : at + 4])

    def __iter__(self) -> Iterator[ScreenObject]:
        fields = self._fields
        for at, text in enumerate(self._texts):
            yield _checked_object(text, fields[4 * at : 4 * at + 4])

    def __eq__(self, other: object) -> bool:
        if type(other) is Screen:
            return self._texts == other._texts and self._fields == other._fields
        if isinstance(other, tuple):
            return len(other) == len(self._texts) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Screen({tuple(self)!r})"

    def __reduce__(self) -> tuple:
        return Screen, (tuple(self),)


def _as_screen(objects: Iterable[ScreenObject], field: str) -> Screen:
    """objects as a Screen, a Screen as it is; ValueError, naming field,
    unless each item is exactly a ScreenObject."""
    if type(objects) is Screen:
        return objects
    objects = _items_of(objects, ScreenObject, field)
    return Screen._of(
        tuple([obj[0] for obj in objects]),
        array("d", chain.from_iterable([obj[1] for obj in objects])),
    )


def _joined(screens: Iterable[Screen]) -> Screen:
    """The Screen of the objects of each of screens in turn, joined in C."""
    texts: list[str] = []
    fields = array("d")
    for screen in screens:
        texts += screen._texts
        fields += screen._fields
    return Screen._of(tuple(texts), fields)


def object_columns(objects: Sequence[ScreenObject]) -> tuple[Sequence, ...]:
    """The texts and the left, top, width and height fields of objects, as
    five parallel sequences: the text tuple and four strided slices of the
    box array of `Screen(objects)`, each taken in C.

    The one column reader of the encoders and the codec's writer.
    """
    screen = Screen(objects)
    fields = screen._fields
    return screen._texts, fields[0::4], fields[1::4], fields[2::4], fields[3::4]


@dataclass(frozen=True)
class Placement:
    """Where an entity sits on screen and the text elements around it."""

    box: BBox
    surrounding: Screen = ()  # any iterable of ScreenObjects, held as a Screen

    def __post_init__(self) -> None:
        if type(self.box) is not BBox:
            raise ValueError(f"placement box must be a BBox, got {self.box!r}")
        object.__setattr__(self, "surrounding", _as_screen(self.surrounding, "surrounding"))


@dataclass(frozen=True)
class Entity:
    """A candidate referent: a type name, ordered properties, optional placement.

    Type names are open-ended; unknown names are allowed so unseen domains
    can flow through the pipeline. Properties are an ordered key/value list
    (not a map) so downstream textualization is deterministic.
    """

    entity_type: str
    properties: tuple[tuple[str, str], ...] = ()
    display_text: str | None = None
    placement: Placement | None = None

    def __post_init__(self) -> None:
        if type(self.entity_type) is not str:
            raise ValueError(f"entity type must be a string, got {self.entity_type!r}")
        if not self.entity_type:
            raise ValueError("Entity.entity_type must be non-empty")
        _require_utf8(self.entity_type, "Entity.entity_type")
        properties = self.properties
        if type(properties) not in (tuple, list):
            raise ValueError(f"properties must be an array of pairs, got {properties!r}")
        for pair in properties:
            if (
                type(pair) not in (tuple, list)
                or len(pair) != 2
                or type(pair[0]) is not str
                or type(pair[1]) is not str
            ):
                raise ValueError(
                    f"properties must be [key, value] pairs of strings, got {properties!r}"
                )
            _require_utf8(pair[0], "Entity property key")
            _require_utf8(pair[1], "Entity property value")
        properties = tuple(map(tuple, properties))
        object.__setattr__(self, "properties", properties)
        if len(dict(properties)) != len(properties):
            raise ValueError("Entity property keys must be unique")
        if self.placement is not None and self.display_text is None:
            raise ValueError("an entity with a placement requires display_text")
        text = self.display_text
        if text is not None:
            if type(text) is not str:
                raise ValueError(f"display_text must be a string, got {text!r}")
            _check_line(text, "Entity.display_text", shown=True)
            # Its marker would end in "}}}": a reader stopping at the first
            # "}}" would drop the last character.
            if text.endswith("}"):
                raise ValueError(f"Entity.display_text must not end in '}}', got {text!r}")


@dataclass(frozen=True)
class DataPoint:
    """One labeled example: a request, candidate entities, and the answer set.

    ground_truth holds 1-based positions into `entities`; empty means no
    entity is relevant. `screen` carries the full-screen text objects for
    on-screen datapoints: any iterable of ScreenObjects, held as a Screen
    (a Screen is kept as it is). The request is one line of the prompt, so
    a line break or a marker delimiter in it (as in ScreenObject text; a tab
    is allowed) is rejected: it could forge the lines or options that follow.
    """

    request: str
    entities: tuple[Entity, ...]
    ground_truth: frozenset[int] = frozenset()
    kind: str = "conversational"
    screen: Screen | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", _items_of(self.entities, Entity, "entities"))
        if self.screen is not None:
            object.__setattr__(self, "screen", _as_screen(self.screen, "screen"))
        if type(self.request) is not str:
            raise ValueError(f"request must be a string, got {self.request!r}")
        _check_line(self.request, "DataPoint.request", shown=False)
        if self.kind not in KINDS:
            raise ValueError(f"unknown datapoint kind {self.kind!r}")
        n = len(self.entities)
        for index in self.ground_truth:
            if type(index) is not int or not 1 <= index <= n:
                raise ValueError(f"ground_truth index {index!r} out of range 1..{n}")
        object.__setattr__(self, "ground_truth", frozenset(self.ground_truth))
        if self.kind == "onscreen":
            for position, entity in enumerate(self.entities, 1):
                if entity.placement is None:
                    raise ValueError(
                        f"onscreen datapoint: entity {position} has no placement"
                    )


def median(values: Iterable[float]) -> float:
    """The middle value, or the mean of the two middle ones for an even
    count, as `statistics.median` computes it; 0.0 when there are none."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def _reject_unknown_keys(
    mapping: dict, accepted: tuple[str, ...], what: str, error: type[ValueError]
) -> None:
    """error, naming what and the first key of mapping not in accepted, so
    that a misspelled key is not dropped without a word. The codec, template
    files and rules files all check their mappings with it."""
    if frozenset(accepted).issuperset(mapping):
        return
    key = next(key for key in mapping if key not in accepted)
    raise error(f"{what} has unknown key {key!r} (accepted: {', '.join(accepted)})")


def _read_yaml(path: str | PathLike, error: type[ValueError]) -> object:
    """The value of the YAML file at path, read whole as UTF-8.

    A syntax error, invalid UTF-8, nesting too deep to build, or a scalar
    that cannot be constructed (the date 2001-02-30) raises error naming the
    file.
    """
    # Imported here, not at module level, so commands that read no YAML
    # start without loading the parser.
    import yaml

    try:
        with open(path, encoding="utf-8") as handle:
            return yaml.safe_load(handle.read())
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from exc


# --- JSONL dataset codec ---------------------------------------------------

# The keys each JSON object of a record may hold, in the order they are
# written; the sets are checked first, inline, as every object is decoded.
_RECORD_KEYS = ("request", "kind", "entities", "screen", "ground_truth")
_ENTITY_KEYS = ("type", "properties", "display_text", "box", "surrounding")
_OBJECT_KEYS = ("text", "box")
_RECORD_KEY_SET = frozenset(_RECORD_KEYS)
_ENTITY_KEY_SET = frozenset(_ENTITY_KEYS)


def _expect(value: object, field: str) -> list:
    """value itself when it is a JSON array, else ValueError."""
    if type(value) is not list:
        raise ValueError(f"{field} must be an array, got {value!r}")
    return value


def _box_from_json(value: object) -> BBox:
    """The box a decoded JSON value holds, its fields made floats once BBox
    has checked them: the checked path of `_box_fields`, which explains a
    refusal."""
    if (
        type(value) is not list
        or len(value) != 4
        or not _NUMBER_TYPES.issuperset(map(type, value))
    ):
        raise ValueError(f"box must be an array of 4 numbers, got {value!r}")
    # Each checked int field is one a float holds exactly: its float is equal.
    return tuple.__new__(BBox, map(float, BBox(*value)))


def _box_fields(value: object) -> Sequence[float]:
    """The four float fields of the box a decoded JSON value holds: the one
    box test of the codec, taken by every entity's and screen object's box.

    Four floats with non-negative sizes and a finite sum already make a
    valid box: a NaN fails `>= 0` or makes the sum NaN, and an infinity
    makes it non-finite. Ints (not bools) are made floats first and held to
    the same test only when the floats equal them. Anything else takes
    _box_from_json's checked path.
    """
    if type(value) is list and len(value) == 4:
        fields = value
        left, top, width, height = value
        if not (
            type(left) is float
            and type(top) is float
            and type(width) is float
            and type(height) is float
        ):
            if not _NUMBER_TYPES.issuperset(map(type, value)):
                return _box_from_json(value)
            try:
                fields = [float(left), float(top), float(width), float(height)]
            except OverflowError:  # an int past the float range
                return _box_from_json(value)
            if fields != value:  # an int a float would round
                return _box_from_json(value)
            left, top, width, height = fields
        if width >= 0.0 and height >= 0.0 and math.isfinite(left + top + width + height):
            return fields
    return _box_from_json(value)


def _objects_to_json(objects: Screen) -> list[dict]:
    """The JSON values of objects, each box field written as a float."""
    return [
        {"text": text, "box": [left, top, width, height]}
        for text, left, top, width, height in zip(*object_columns(objects))
    ]


def _objects_from_json(value: object, field: str) -> Screen:
    """The Screen of a decoded JSON array of screen objects, each text and
    box checked once, as ScreenObject checks them. A bad box is named before
    a bad text.
    """
    texts = []
    boxes = []
    for entry in _expect(value, field):
        if not isinstance(entry, dict):
            raise ValueError(f"screen object must be an object, got {entry!r}")
        if len(entry) != 2:  # two keys, both required, hold no unknown one
            _reject_unknown_keys(entry, _OBJECT_KEYS, "screen object", ValueError)
        text = entry["text"]
        boxes.append(_box_fields(entry["box"]))
        _check_screen_text(text)
        texts.append(text)
    return Screen._of(tuple(texts), array("d", list(chain.from_iterable(boxes))))


def _entity_to_json(entity: Entity) -> dict:
    record: dict = {
        "type": entity.entity_type,
        "properties": [[k, v] for k, v in entity.properties],
    }
    if entity.display_text is not None:
        record["display_text"] = entity.display_text
    if entity.placement is not None:
        record["box"] = list(entity.placement.box)
        record["surrounding"] = _objects_to_json(entity.placement.surrounding)
    return record


def _entity_from_json(value: object, shared: dict) -> Entity:
    """The entity a record holds; equal placement-free records share one.

    `shared` maps the content of each placement-free record decoded so far to
    its Entity. A key is built only when `properties` is an array of arrays,
    the shape of a valid record, so its equality is the equality of the JSON
    values: a string or object in place of a pair never matches a valid pair.
    """
    if not isinstance(value, dict):
        raise ValueError(f"entity must be an object, got {value!r}")
    if not _ENTITY_KEY_SET.issuperset(value):
        _reject_unknown_keys(value, _ENTITY_KEYS, "entity", ValueError)
    placement = key = None
    if "box" in value:
        placement = Placement(
            box=tuple.__new__(BBox, _box_fields(value["box"])),
            surrounding=_objects_from_json(value.get("surrounding", []), "surrounding"),
        )
    entity_type = value["type"]
    properties = value.get("properties", ())
    display_text = value.get("display_text")
    if placement is None and "surrounding" in value:
        Entity(entity_type, properties, display_text)  # its own errors come first
        raise ValueError("entity has surrounding objects but no box")
    if (
        placement is None
        and type(properties) is list
        and {list}.issuperset(map(type, properties))
    ):
        key = (entity_type, display_text, tuple(map(tuple, properties)))
        try:
            entity = shared.get(key)
        except TypeError:  # an array or object field, which Entity rejects
            entity = key = None
        if entity is not None:
            return entity
    entity = Entity(entity_type, properties, display_text, placement)
    if key is not None:
        shared[key] = entity
    return entity


def datapoint_to_record(datapoint: DataPoint) -> dict:
    record: dict = {
        "request": datapoint.request,
        "kind": datapoint.kind,
        "entities": [_entity_to_json(e) for e in datapoint.entities],
    }
    if datapoint.screen is not None:
        record["screen"] = _objects_to_json(datapoint.screen)
    record["ground_truth"] = sorted(datapoint.ground_truth)
    return record


def datapoint_from_record(record: object, shared: dict) -> DataPoint:
    """The datapoint a decoded record holds; `shared` as in _entity_from_json."""
    if not isinstance(record, dict):
        raise ValueError(f"record must be an object, got {record!r}")
    if not _RECORD_KEY_SET.issuperset(record):
        _reject_unknown_keys(record, _RECORD_KEYS, "record", ValueError)
    for key in ("request", "kind", "entities", "ground_truth"):
        if key not in record:
            raise ValueError(f"record missing required field {key!r}")
    return DataPoint(
        request=record["request"],
        entities=tuple(
            _entity_from_json(e, shared) for e in _expect(record["entities"], "entities")
        ),
        ground_truth=_expect(record["ground_truth"], "ground_truth"),
        kind=record["kind"],
        screen=_objects_from_json(record["screen"], "screen") if "screen" in record else None,
    )


# json.dumps(value, ensure_ascii=False), with its encoder built once.
_dumps = json.JSONEncoder(ensure_ascii=False).encode
_string = json.encoder.encode_basestring


def _dataset_lines(datapoints: Iterable[DataPoint]) -> Iterator[str]:
    """Each datapoint's record as one JSONL line, made as it is asked for.

    A line is json.dumps(datapoint_to_record(datapoint), ensure_ascii=False)
    built from its parts, so each placement-free entity's JSON is made once
    per call: `written` maps such an Entity to its text, as `shared` maps
    records to entities when decoding, and starts over past MAX_MEMO
    entries. Equal placement-free entities hold equal strings, so they are
    written alike; an entity with a placement is written afresh, since
    equal boxes may be written differently (0.0 and -0.0, 1 and 1.0).
    """
    written: dict = {}
    for datapoint in datapoints:
        entities = []
        for entity in datapoint.entities:
            if entity.placement is not None:
                entities.append(_dumps(_entity_to_json(entity)))
                continue
            text = written.get(entity)
            if text is None:
                if len(written) >= MAX_MEMO:
                    written.clear()
                text = written[entity] = _dumps(_entity_to_json(entity))
            entities.append(text)
        screen = datapoint.screen
        ground_truth = ", ".join(map(int.__repr__, sorted(datapoint.ground_truth)))
        yield "".join((
            '{"request": ', _string(datapoint.request),
            ', "kind": ', _string(datapoint.kind),
            ', "entities": [', ", ".join(entities), "]",
            "" if screen is None else ', "screen": ' + _dumps(_objects_to_json(screen)),
            ', "ground_truth": [', ground_truth, "]}\n",
        ))


def _parse_lines(lines: Iterable[str | bytes]) -> list[DataPoint]:
    """The datapoints of JSONL lines, each text or UTF-8 bytes, read in turn.

    A line may end in the "\\n" it was split at. Only JSON whitespace (space,
    tab, CR, LF) makes a line blank; any other line is a record.
    """
    datapoints = []
    shared: dict = {}
    for line_number, line in enumerate(lines, 1):
        try:
            if isinstance(line, bytes):
                line = line.removesuffix(b"\n").decode("utf-8")
            if not line.strip(" \t\r\n"):
                continue
            record = json.loads(line)
            datapoints.append(datapoint_from_record(record, shared))
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise DatasetError(f"line {line_number}: {exc}") from exc
    return datapoints


def format_dataset(datapoints: Iterable[DataPoint]) -> str:
    """Serialize datapoints to the line-delimited JSON dataset format.

    Each line is json.dumps(datapoint_to_record(dp), ensure_ascii=False)
    plus "\n". Within the call each distinct entity without a placement is
    encoded once, up to MAX_MEMO texts held at a time.
    """
    return "".join(_dataset_lines(datapoints))


def parse_dataset(text: str | bytes) -> list[DataPoint]:
    """Parse line-delimited JSON records into validated DataPoints.

    Raises DatasetError naming the 1-based line number of the first bad record.
    Records are split at "\n" only: format_dataset writes U+2028, U+2029 and
    U+0085 unescaped, and str.splitlines() would break a record at them.
    Bytes are decoded line by line, so invalid UTF-8 is named by its line.

    Equal placement-free entity records within one call decode to one shared
    Entity, which is immutable: a synthetic dataset names a few entities many
    times. Whether two entities are the same object is not part of the
    format; nothing is shared between calls.
    """
    return _parse_lines(text.split(b"\n" if isinstance(text, bytes) else "\n"))


def load_dataset(source: str | IO) -> list[DataPoint]:
    """Load a dataset from a file path or an open text/binary stream.

    A path or buffered binary stream is read one line at a time, so beyond
    the datapoints only the record being decoded is held; the result and
    errors are parse_dataset's. Any other stream is read whole: iterating a
    text stream opened with newline="" would split a record at a lone CR,
    which JSON allows between tokens. A text stream must be opened with
    newline="": open(path, encoding="utf-8") turns such a CR into a record
    break. A path or a binary stream has no such limit.
    """
    if isinstance(source, io.BufferedIOBase):
        return _parse_lines(source)
    if hasattr(source, "read"):
        return parse_dataset(source.read())
    with open(source, "rb") as handle:
        return _parse_lines(handle)


def save_dataset(target: str | IO, datapoints: Iterable[DataPoint]) -> None:
    """Write datapoints to a file path or an open text stream.

    Records are encoded and written one at a time, as format_dataset
    encodes them, so only one record's JSON is held, plus the JSON text of
    at most MAX_MEMO distinct placement-free entities, each encoded once.
    If `datapoints` raises part-way, the records before it stay written (a
    path's file is closed first).
    """
    if hasattr(target, "write"):
        target.writelines(_dataset_lines(datapoints))
        return
    with open(target, "w", encoding="utf-8") as handle:
        handle.writelines(_dataset_lines(datapoints))
