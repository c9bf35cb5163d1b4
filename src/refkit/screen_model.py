"""Core value types for screens, entities, and datasets.

Everything here is an immutable value object: construct once, share freely
across threads. Geometry uses abstract screen units with the origin at the
top-left corner and y growing downward, matching screenshot conventions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import median
from typing import IO, Iterable, NamedTuple

KINDS = ("conversational", "synthetic", "onscreen")


class DatasetError(ValueError):
    """Raised when a dataset stream cannot be parsed or validated."""


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: (left, top) corner plus non-negative extent."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self) -> None:
        isfinite = math.isfinite
        if not (
            isfinite(self.left)
            and isfinite(self.top)
            and isfinite(self.width)
            and isfinite(self.height)
        ):
            for name in ("left", "top", "width", "height"):
                value = getattr(self, name)
                if not isfinite(value):
                    raise ValueError(f"BBox.{name} must be finite, got {value!r}")
        if self.width < 0 or self.height < 0:
            raise ValueError("BBox width and height must be non-negative")


def bbox_center(box: BBox) -> Point:
    """Center point of a bounding box."""
    return Point(box.left + box.width / 2, box.top + box.height / 2)


@dataclass(frozen=True)
class ScreenObject:
    """A non-entity text element on the screen.

    Newlines and tabs are rejected rather than escaped: they are the layout
    separators of the rendered parse, and allowing them would make the
    output ambiguous. So are the `{{` and `}}` that delimit entity markers,
    which would let screen text pass for a numbered option.
    """

    text: str
    box: BBox

    def __post_init__(self) -> None:
        text = self.text
        if type(text) is not str:
            raise ValueError(f"screen object text must be a string, got {text!r}")
        if not text:
            raise ValueError("ScreenObject.text must be non-empty")
        if "\n" in text or "\t" in text:
            raise ValueError("ScreenObject.text must not contain newline or tab")
        if "{{" in text or "}}" in text:
            raise ValueError(
                f"ScreenObject.text must not contain a marker delimiter, got {text!r}"
            )


@dataclass(frozen=True)
class Placement:
    """Where an entity sits on screen and the text elements around it."""

    box: BBox
    surrounding: tuple[ScreenObject, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "surrounding", tuple(self.surrounding))


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
            if "\n" in text or "\t" in text:
                raise ValueError("Entity.display_text must not contain newline or tab")
            if "{{" in text or "}}" in text:
                raise ValueError(
                    f"Entity.display_text must not contain a marker delimiter, got {text!r}"
                )


@dataclass(frozen=True)
class DataPoint:
    """One labeled example: a request, candidate entities, and the answer set.

    ground_truth holds 1-based positions into `entities`; empty means no
    entity is relevant. `screen` carries the full-screen text objects for
    on-screen datapoints. The request is one line of the prompt, so line
    breaks in it are rejected: they could forge the lines that follow it.
    """

    request: str
    entities: tuple[Entity, ...]
    ground_truth: frozenset[int] = frozenset()
    kind: str = "conversational"
    screen: tuple[ScreenObject, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", tuple(self.entities))
        if self.screen is not None:
            object.__setattr__(self, "screen", tuple(self.screen))
        if type(self.request) is not str:
            raise ValueError(f"request must be a string, got {self.request!r}")
        if "\n" in self.request or "\r" in self.request:
            raise ValueError(
                f"DataPoint.request must not contain a line break, got {self.request!r}"
            )
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


def unique_objects(*groups: Iterable[ScreenObject]) -> list[ScreenObject]:
    """The objects of all groups in order, deduplicated by (text, box)."""
    return list(dict.fromkeys(obj for group in groups for obj in group))


def median_height(objects: Iterable) -> float:
    """Median `box.height` of the objects; 0.0 when there are none."""
    heights = [obj.box.height for obj in objects]
    return median(heights) if heights else 0.0


# --- JSONL dataset codec ---------------------------------------------------

def _expect(value: object, field: str) -> list:
    """value itself when it is a JSON array, else ValueError."""
    if type(value) is not list:
        raise ValueError(f"{field} must be an array, got {value!r}")
    return value


def _box_to_json(box: BBox) -> list[float]:
    return [box.left, box.top, box.width, box.height]


# What JSON numbers decode to; bool, though a subclass of int, is not one.
_JSON_NUMBER_TYPES = frozenset((int, float))


def _box_from_json(value: object) -> BBox:
    if (
        type(value) is not list
        or len(value) != 4
        or not _JSON_NUMBER_TYPES.issuperset(map(type, value))
    ):
        raise ValueError(f"box must be an array of 4 numbers, got {value!r}")
    return BBox(*map(float, value))


def _object_to_json(obj: ScreenObject) -> dict:
    return {"text": obj.text, "box": _box_to_json(obj.box)}


def _object_from_json(value: object) -> ScreenObject:
    if not isinstance(value, dict):
        raise ValueError(f"screen object must be an object, got {value!r}")
    return ScreenObject(text=value["text"], box=_box_from_json(value["box"]))


def _entity_to_json(entity: Entity) -> dict:
    record: dict = {
        "type": entity.entity_type,
        "properties": [[k, v] for k, v in entity.properties],
    }
    if entity.display_text is not None:
        record["display_text"] = entity.display_text
    if entity.placement is not None:
        record["box"] = _box_to_json(entity.placement.box)
        record["surrounding"] = [_object_to_json(o) for o in entity.placement.surrounding]
    return record


def _entity_from_json(value: object) -> Entity:
    if not isinstance(value, dict):
        raise ValueError(f"entity must be an object, got {value!r}")
    placement = None
    if "box" in value:
        placement = Placement(
            box=_box_from_json(value["box"]),
            surrounding=tuple(
                _object_from_json(o)
                for o in _expect(value.get("surrounding", []), "surrounding")
            ),
        )
    return Entity(
        entity_type=value["type"],
        properties=value.get("properties", ()),
        display_text=value.get("display_text"),
        placement=placement,
    )


def datapoint_to_record(datapoint: DataPoint) -> dict:
    record: dict = {
        "request": datapoint.request,
        "kind": datapoint.kind,
        "entities": [_entity_to_json(e) for e in datapoint.entities],
    }
    if datapoint.screen is not None:
        record["screen"] = [_object_to_json(o) for o in datapoint.screen]
    record["ground_truth"] = sorted(datapoint.ground_truth)
    return record


def datapoint_from_record(record: object) -> DataPoint:
    if not isinstance(record, dict):
        raise ValueError(f"record must be an object, got {record!r}")
    for key in ("request", "kind", "entities", "ground_truth"):
        if key not in record:
            raise ValueError(f"record missing required field {key!r}")
    screen = None
    if "screen" in record:
        screen = tuple(_object_from_json(o) for o in _expect(record["screen"], "screen"))
    return DataPoint(
        request=record["request"],
        entities=tuple(
            _entity_from_json(e) for e in _expect(record["entities"], "entities")
        ),
        ground_truth=_expect(record["ground_truth"], "ground_truth"),
        kind=record["kind"],
        screen=screen,
    )


def format_dataset(datapoints: Iterable[DataPoint]) -> str:
    """Serialize datapoints to the line-delimited JSON dataset format."""
    lines = [
        json.dumps(datapoint_to_record(dp), ensure_ascii=False) for dp in datapoints
    ]
    return "".join(line + "\n" for line in lines)


def parse_dataset(text: str | bytes) -> list[DataPoint]:
    """Parse line-delimited JSON records into validated DataPoints.

    Raises DatasetError naming the 1-based line number of the first bad record.
    Records are split at "\n" only: format_dataset writes U+2028, U+2029 and
    U+0085 unescaped, and str.splitlines() would break a record at them.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    datapoints = []
    for line_number, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            datapoints.append(datapoint_from_record(record))
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise DatasetError(f"line {line_number}: {exc}") from exc
    return datapoints


def load_dataset(source: str | IO) -> list[DataPoint]:
    """Load a dataset from a file path or an open text/binary stream."""
    if hasattr(source, "read"):
        return parse_dataset(source.read())
    with open(source, "rb") as handle:
        return parse_dataset(handle.read())


def save_dataset(target: str | IO, datapoints: Iterable[DataPoint]) -> None:
    """Write datapoints to a file path or an open text stream."""
    payload = format_dataset(datapoints)
    if hasattr(target, "write"):
        target.write(payload)
        return
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(payload)
