"""Expected outputs for the benchmark's correctness gates, computed without refkit.

The generator step uses these functions to record what refkit must produce
for each input it writes, so the gates catch a change in refkit's output and
not only a run that disagrees with itself. Everything here works on the
JSONL dataset records (plain dicts), never on refkit objects.

- Conversational prompts follow the numbered-option format with the
  seeded shuffle and the built-in textualization rules.
- On-screen parses come from how the generator built each screen: it knows
  which visual line every object sits on, so only the order inside the
  whole screen is computed here.
- Cluster contexts come from how the generator laid out each scene: it
  knows which group every object belongs to.
"""
from __future__ import annotations

import hashlib
import json
import random
import zlib

INSTRUCTION = (
    "Select which among the following entities, if any, are required to "
    "understand the user request below. Output 0 if none of the entities "
    "are relevant."
)

_TYPE_JOIN = " | "

# type name -> (display name, ((property key, labeled), ...), field separator)
RULES = {
    "alarm": ("Alarm", (("time", True), ("label", True), ("status", True)), "; "),
    "app": ("App", (("name", False),), _TYPE_JOIN),
    "book": ("Book", (), _TYPE_JOIN),
    "date time": ("DateTime", (("month", False), ("day", False), ("year", False)), _TYPE_JOIN),
    "email address": ("EmailAddress", (("value", False),), _TYPE_JOIN),
    "flight number": ("FlightNumber", (), _TYPE_JOIN),
    "general text": ("GeneralText", (), _TYPE_JOIN),
    "home device": ("UserEntity", (("name", False),), _TYPE_JOIN),
    "home room": ("UserEntity", (("name", False),), _TYPE_JOIN),
    "local business": (
        "LocalBusiness",
        (("PostalAddress", True), ("name", False), ("list_position", True)),
        _TYPE_JOIN,
    ),
    "media album": ("MediaItem", (("MediaItemType", True), ("title", False)), _TYPE_JOIN),
    "package": ("Package", (), _TYPE_JOIN),
    "painting": ("Painting", (), _TYPE_JOIN),
    "person": ("Person", (("name", False),), _TYPE_JOIN),
    "phone number": ("PhoneNumber", (("value", False),), _TYPE_JOIN),
    "photo": ("Photo", (), _TYPE_JOIN),
    "physical address": ("PostalAddress", (("GeographicArea", True),), _TYPE_JOIN),
    "plant animal": ("PlantAnimal", (), _TYPE_JOIN),
    "setting": ("Setting", (("value", False),), _TYPE_JOIN),
    "tracking number": ("TrackingNumber", (), _TYPE_JOIN),
    "url": ("Uri", (("value", False),), _TYPE_JOIN),
}


def _clean(value: str) -> str:
    return value.replace("\n", " ").replace("\t", " ").replace("\r", " ")


def _camel(type_name: str) -> str:
    return "".join(word[:1].upper() + word[1:] for word in type_name.split())


def textualize(entity: dict) -> str:
    """One entity record as its "Type: Name | fields" prompt line."""
    properties = entity.get("properties", [])
    rule = RULES.get(entity["type"].lower())
    if rule is None:
        name, parts, separator = _camel(entity["type"]), [_clean(v) for _, v in properties], _TYPE_JOIN
    else:
        name, fields, separator = rule
        values = dict(properties)
        parts = [
            f"{key}: {_clean(values[key])}" if labeled else _clean(values[key])
            for key, labeled in fields
            if key in values
        ]
    tag = f"Type: {name}"
    return tag + _TYPE_JOIN + separator.join(parts) if parts else tag


def item_seed(run_seed: int, record: dict) -> int:
    digest = zlib.crc32(f"{record['kind']}:{record['request']}".encode("utf-8"))
    return digest ^ (run_seed * 0x85EBCA6B & 0xFFFFFFFF)


def conversational_prompt(record: dict, run_seed: int) -> tuple[str, list[int]]:
    """Prompt text and option -> original index map for a non-screen record."""
    entities = record["entities"]
    order = list(range(1, len(entities) + 1))
    random.Random(item_seed(run_seed, record)).shuffle(order)
    lines = [INSTRUCTION, "", f"User request: {record['request']}", "User Entities:", "0. None"]
    lines.extend(f"{option}. {textualize(entities[i - 1])}" for option, i in enumerate(order, 1))
    lines.append("Relevant entity:")
    return "\n".join(lines), order


def screen_parse(placed: list[tuple[float, float, int, str]]) -> str:
    """Layout text from (center_y, center_x, line, text) tuples.

    The generator assigns every object its visual line; objects render in
    (center_y, center_x) order, tab-joined within a line, one line per row.
    """
    rows: list[list[str]] = []
    current = None
    for _, _, line, text in sorted(placed):
        if line != current:
            rows.append([])
            current = line
        rows[-1].append(text)
    return "\n".join("\t".join(row) for row in rows)


def onscreen_prompt(request: str, parse: str) -> str:
    return "\n".join([INSTRUCTION, "", f"User request: {request}", "Screen:", parse, "Relevant entity:"])


def jsonl_line(record: dict) -> bytes:
    """A record serialised the way the refkit commands write JSONL."""
    return (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")


def line_digest(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()[:16]
