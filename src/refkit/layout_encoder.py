"""Serialize a screen plus indexed entities into a plain-text layout parse.

The pipeline is collect -> sort -> group -> render: gather every text box,
order them top-to-bottom then left-to-right, partition into visual lines by
a vertical margin, and join objects on one line with a tab and lines with a
newline so the output text preserves the relative spatial arrangement.
Entities are injected into the object set as numbered `{{i. text}}` markers
so a downstream model can name them by index. The separators and the marker
form are fixed; only the margin and the marker injection are configurable.

Each stage is one pass over the objects and the only implementation of its
step; `encode_screen` just chains them. Objects travel as `PlacedObject`
tuples, and the sort and the grouping compute box centres inline with the
same float expressions as `bbox_center`, so the order and the lines are
exactly those the geometry helpers define.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .screen_model import BBox, Entity, ScreenObject, median_height, unique_objects

SAME_LINE_SEPARATOR = "\t"
LINE_SEPARATOR = "\n"


@dataclass(frozen=True)
class EncoderConfig:
    """The two settings of the layout parse.

    margin=None derives the same-line tolerance from the screen itself
    (half the median object height). inject_markers=False leaves the raw
    entity text in place instead of numbered markers, which reproduces the
    plain screen-grab variant of the encoding. The rest is fixed: a tab
    between objects on one line, a newline between lines, and markers of the
    form `{{i. text}}`.
    """

    margin: float | None = None
    inject_markers: bool = True

    def __post_init__(self) -> None:
        if self.margin is not None and self.margin < 0:
            raise ValueError("margin must be >= 0")


class PlacedObject(NamedTuple):
    """A text box queued for rendering; entity_index marks injected markers."""

    text: str
    box: BBox
    entity_index: int | None = None


@dataclass(frozen=True)
class Level:
    """One rendered line: objects whose centers lie within margin of the anchor."""

    anchor_center_y: float
    members: tuple[PlacedObject, ...]


@dataclass(frozen=True)
class OnscreenParse:
    """The rendered screen text plus where each entity marker landed in it.

    marker_spans maps each entity index to the (start, end) slice of `text`
    covering its full `{{i. display_text}}` marker.
    """

    text: str
    marker_spans: tuple[tuple[int, tuple[int, int]], ...] = ()


def marker_text(index: int, display_text: str) -> str:
    return f"{{{{{index}. {display_text}}}}}"


def collect_objects(
    screen: Sequence[ScreenObject],
    entities: Sequence[Entity],
    config: EncoderConfig | None = None,
) -> list[PlacedObject]:
    """Union the screen and surrounding objects, then inject entity markers.

    Plain objects are deduplicated by (text, box) in first-seen order. Any
    plain object sitting at an entity's own box is dropped and replaced by
    that entity's marker (or its raw display text when markers are off), so
    an entity never appears twice in the parse.
    """
    config = config or EncoderConfig()
    for position, entity in enumerate(entities, 1):
        if entity.placement is None:
            raise ValueError(f"entity {position} has no placement")

    plain = unique_objects(screen, *(entity.placement.surrounding for entity in entities))
    entity_boxes = {entity.placement.box for entity in entities}
    collected = [
        PlacedObject(obj.text, obj.box)
        for obj in plain
        if obj.box not in entity_boxes
    ]
    for index, entity in enumerate(entities, 1):
        if config.inject_markers:
            collected.append(
                PlacedObject(
                    marker_text(index, entity.display_text),
                    entity.placement.box,
                    entity_index=index,
                )
            )
        else:
            collected.append(PlacedObject(entity.display_text, entity.placement.box))
    return collected


def sort_objects(objects: Iterable[PlacedObject]) -> list[PlacedObject]:
    """Order objects top-to-bottom, breaking center-y ties left-to-right.

    One stable sort keyed on the center (y, x), so the order is lexicographic
    (center_y, center_x, input position). The key is `bbox_center` reversed,
    spelled out with the same float expressions.
    """
    return sorted(objects, key=_center_yx)


def _center_yx(obj: PlacedObject) -> tuple[float, float]:
    box = obj.box
    return box.top + box.height / 2, box.left + box.width / 2


def group_levels(sorted_objects: Sequence[PlacedObject], margin: float) -> list[Level]:
    """Partition sorted objects into visual lines by a greedy anchor sweep.

    The first unassigned object anchors a level; each following object joins
    while its center-y is within `margin` of the anchor, otherwise it opens
    the next level. Membership does not chain: an object just inside the
    margin does not stretch the level to fit objects beyond it.
    """
    levels: list[Level] = []
    anchor_y: float | None = None
    members: list[PlacedObject] = []
    for obj in sorted_objects:
        box = obj.box
        center_y = box.top + box.height / 2  # bbox_center(box).y
        if anchor_y is None or abs(center_y - anchor_y) > margin:
            if members:
                levels.append(Level(anchor_y, tuple(members)))
            anchor_y = center_y
            members = [obj]
        else:
            members.append(obj)
    if members:
        levels.append(Level(anchor_y, tuple(members)))
    return levels


def render_parse(levels: Sequence[Level]) -> OnscreenParse:
    """Join level members with a tab and levels with a newline, recording the
    span of every member that has an entity_index.

    Each level is joined in one call; offsets are walked only on levels
    that hold such a member.
    """
    lines: list[str] = []
    spans: list[tuple[int, tuple[int, int]]] = []
    offset = 0
    for level in levels:
        members = level.members
        line = SAME_LINE_SEPARATOR.join([obj.text for obj in members])
        if any(obj.entity_index is not None for obj in members):
            start = offset
            for text, _, entity_index in members:
                if entity_index is not None:
                    spans.append((entity_index, (start, start + len(text))))
                start += len(text) + len(SAME_LINE_SEPARATOR)
        lines.append(line)
        offset += len(line) + len(LINE_SEPARATOR)
    return OnscreenParse(LINE_SEPARATOR.join(lines), tuple(spans))


def default_margin(objects: Sequence[PlacedObject]) -> float:
    """Scale-free same-line tolerance: half the median object height."""
    return 0.5 * median_height(objects)


def encode_screen(
    screen: Sequence[ScreenObject],
    entities: Sequence[Entity],
    config: EncoderConfig | None = None,
) -> OnscreenParse:
    """Full encoding: collect, sort, group by margin, render."""
    config = config or EncoderConfig()
    objects = collect_objects(screen, entities, config)
    margin = config.margin if config.margin is not None else default_margin(objects)
    levels = group_levels(sort_objects(objects), margin)
    return render_parse(levels)
