"""Serialize a screen plus indexed entities into a plain-text layout parse.

`encode_screen` collects every text box, orders them top-to-bottom then
left-to-right, partitions them into visual lines by a vertical margin, and
joins objects on one line with a tab and lines with a newline so the output
text preserves the relative spatial arrangement. Entities are injected into
the object set as numbered `{{i. text}}` markers so a downstream model can
name them by index. The separators and the marker form are fixed; only the
margin and the marker injection are configurable.

Each step is a private function over parallel lists: the texts, the box
fields as four columns (read through `object_columns` from the screen and
from each surrounding, every one a Screen, so none is unpacked into
objects), the box centres (each computed once, with the same float
expressions as `bbox_center`) and the reading order as a list of positions.
So encoding a screen builds a few lists and one string per line rather than
objects per text box.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import add, not_, truediv
from typing import Sequence

from .screen_model import _NUMBER_TYPES, Entity, ScreenObject, _joined, median, object_columns

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
        margin = self.margin
        # Exact types, as BBox checks its fields: a bool is not a number
        # here. Written so that NaN, which compares false both ways, fails too.
        if margin is not None and (type(margin) not in _NUMBER_TYPES or not margin >= 0):
            raise ValueError(f"margin must be None or a number >= 0, got {margin!r}")
        if type(self.inject_markers) is not bool:
            raise ValueError(f"inject_markers must be a bool, got {self.inject_markers!r}")


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


def _collect(
    screen: Sequence[ScreenObject], entities: Sequence[Entity], inject_markers: bool
) -> tuple[list[list], int]:
    """The columns to render: texts, lefts, tops, widths and heights, as
    parallel lists, plus the position of the first entity marker (the list
    length when there is none).

    Plain objects come first, deduplicated by (text, box) in first-seen
    order, without those sitting at an entity's own box; then one entry per
    entity, in entity order, so the entry at position p >= first_marker is
    the marker of entity p - first_marker + 1.
    """
    for position, entity in enumerate(entities, 1):
        if entity.placement is None:
            raise ValueError(f"entity {position} has no placement")

    # Keys (text, left, top, width, height) of the screen's objects, then of
    # the surrounding ones, every surrounding joined into one Screen.
    columns = [list(column) for column in object_columns(screen)]
    keys = dict.fromkeys(zip(*columns))
    if len(keys) < len(columns[0]):  # the screen repeats an object
        columns = [list(column) for column in zip(*keys)]
    on_screen = len(keys)
    around = _joined(entity.placement.surrounding for entity in entities)
    for key in zip(*object_columns(around)):
        keys[key] = None
    for column, values in zip(columns, zip(*islice(keys, on_screen, None))):
        column.extend(values)
    boxes = [entity.placement.box for entity in entities]
    entity_boxes = set(boxes)
    at_entity = list(map(entity_boxes.__contains__, zip(*columns[1:])))
    if any(at_entity):
        columns = [list(compress(column, map(not_, at_entity))) for column in columns]
    texts = columns[0]
    first_marker = len(texts) if inject_markers else len(texts) + len(entities)
    displays = [entity.display_text for entity in entities]
    if inject_markers:
        displays = [marker_text(index, text) for index, text in enumerate(displays, 1)]
    texts.extend(displays)
    for column, values in zip(columns[1:], zip(*boxes)):
        column.extend(values)
    return columns, first_marker


def _centers(
    lefts: Sequence[float], tops: Sequence[float], widths: Sequence[float], heights: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Each box's center x and center y, as `bbox_center` computes them."""
    center_xs = list(map(add, lefts, map(truediv, widths, repeat(2))))
    center_ys = list(map(add, tops, map(truediv, heights, repeat(2))))
    return center_xs, center_ys


def _reading_order(center_xs: list[float], center_ys: list[float]) -> list[int]:
    """Positions sorted by (center_y, center_x, position).

    Two stable sorts of plain positions on float keys: by center x, then by
    center y, which keeps the x order (and then the input order) within
    equal y.
    """
    order = sorted(range(len(center_ys)), key=center_xs.__getitem__)
    order.sort(key=center_ys.__getitem__)
    return order


def _group(
    order: list[int], center_ys: Sequence[float], margin: float, first_marker: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """Split the positions `order` lists in reading order into visual lines.

    Greedy anchor sweep: the first unassigned position anchors a level and
    each following one joins while its center y is within `margin` of the
    anchor, so membership does not chain past the anchor's margin. Returns
    the reading position where each level starts and the (reading position,
    entity index) of every position at or past first_marker.
    """
    starts: list[int] = []
    marks: list[tuple[int, int]] = []
    anchor = None
    for rank, position in enumerate(order):
        center_y = center_ys[position]
        if anchor is None or abs(center_y - anchor) > margin:
            starts.append(rank)
            anchor = center_y
        if position >= first_marker:
            marks.append((rank, position - first_marker + 1))
    return starts, marks


def _render(
    texts: Sequence[str], starts: list[int], marks: Sequence[tuple[int, int]]
) -> OnscreenParse:
    """Join the texts (in reading order) of each level with a tab and the
    levels with a newline; marks gives the (reading position, entity index)
    of each member whose span to record, in reading order."""
    ends = starts[1:]
    ends.append(len(texts))
    lines = [SAME_LINE_SEPARATOR.join(texts[start:end]) for start, end in zip(starts, ends)]
    spans = []
    # Every text but the last is followed by one separator, a tab or a
    # newline, both one character long.
    offset = cursor = 0
    for rank, entity_index in marks:
        # offset is where the text at reading position cursor starts.
        offset += sum(map(len, texts[cursor:rank])) + rank - cursor
        cursor = rank
        spans.append((entity_index, (offset, offset + len(texts[rank]))))
    return OnscreenParse(LINE_SEPARATOR.join(lines), tuple(spans))


def encode_screen(
    screen: Sequence[ScreenObject],
    entities: Sequence[Entity],
    config: EncoderConfig | None = None,
) -> OnscreenParse:
    """Full encoding: collect, sort, group by margin, render."""
    config = config or EncoderConfig()
    (texts, *fields), first_marker = _collect(screen, entities, config.inject_markers)
    center_xs, center_ys = _centers(*fields)
    margin = config.margin if config.margin is not None else 0.5 * median(fields[3])
    order = _reading_order(center_xs, center_ys)
    starts, marks = _group(order, center_ys, margin, first_marker)
    return _render(list(map(texts.__getitem__, order)), starts, marks)
