"""Synthetic dataset generation from language templates and slot lists.

A template holds query variations with "[slot]" placeholders; its slot list
holds the values for each placeholder plus the entity types the filled-in
mention resolves to. Expansion takes the full Cartesian product of slot
values per variation; generation attaches one positive entity per
ground-truth type and a seeded sample of typed negatives, then shuffles.
"""
from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .screen_model import DataPoint, Entity
from .value_bank import sample_entity

PLACEHOLDER_RE = re.compile(r"\[([^\[\]]+)\]")


class TemplateError(ValueError):
    """Raised for malformed templates or slot lists."""


def _is_string_list(value: object) -> bool:
    """True for a tuple or list of strings; nothing else is converted to one."""
    return type(value) in (tuple, list) and all(type(item) is str for item in value)


@dataclass(frozen=True)
class LanguageTemplate:
    """Query variations sharing one slot list."""

    id: str
    variations: tuple[str, ...]

    def __post_init__(self) -> None:
        if type(self.id) is not str or not self.id:
            raise TemplateError(f"template id must be a non-empty string, got {self.id!r}")
        if not _is_string_list(self.variations):
            raise TemplateError(
                f"template {self.id!r}: variations must be a list of strings, "
                f"got {self.variations!r}"
            )
        object.__setattr__(self, "variations", tuple(self.variations))
        if not self.variations:
            raise TemplateError(f"template {self.id!r} has no variations")


@dataclass(frozen=True)
class SlotList:
    """Values for each placeholder plus the types the mention resolves to."""

    slots: dict[str, tuple[str, ...]]
    ground_truth_types: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.slots, dict):
            raise TemplateError(f"slots must map names to value lists, got {self.slots!r}")
        for name, values in self.slots.items():
            if type(name) is not str:
                raise TemplateError(f"slot name must be a string, got {name!r}")
            if not _is_string_list(values):
                raise TemplateError(
                    f"slot [{name}] values must be a list of strings, got {values!r}"
                )
            if not values:
                raise TemplateError(f"slot [{name}] has no values")
        object.__setattr__(
            self, "slots", {name: tuple(values) for name, values in self.slots.items()}
        )
        if not _is_string_list(self.ground_truth_types):
            raise TemplateError(
                "ground-truth types must be a list of strings, "
                f"got {self.ground_truth_types!r}"
            )
        object.__setattr__(self, "ground_truth_types", tuple(self.ground_truth_types))
        if not self.ground_truth_types:
            raise TemplateError("slot list needs at least one ground-truth type")


def placeholders(variation: str) -> list[str]:
    """Distinct placeholder names in first-occurrence order."""
    seen: list[str] = []
    for name in PLACEHOLDER_RE.findall(variation):
        if name not in seen:
            seen.append(name)
    return seen


def check_placeholders(template: LanguageTemplate, slots: SlotList) -> None:
    """Raise TemplateError at the first placeholder the slot list does not define."""
    for variation in template.variations:
        for name in placeholders(variation):
            if name not in slots.slots:
                raise TemplateError(
                    f"template {template.id!r}: variation {variation!r} uses "
                    f"unknown slot [{name}]"
                )


def expand_template(template: LanguageTemplate, slots: SlotList) -> list[str]:
    """Substitute every combination of slot values into every variation.

    A placeholder appearing twice in one variation receives the same value
    in both positions.
    """
    check_placeholders(template, slots)
    queries: list[str] = []
    for variation in template.variations:
        names = placeholders(variation)
        if not names:
            queries.append(variation)
            continue
        for combo in itertools.product(*(slots.slots[name] for name in names)):
            query = variation
            for name, value in zip(names, combo):
                query = query.replace(f"[{name}]", value)
            queries.append(query)
    return queries


def generate_datapoints(
    template: LanguageTemplate,
    slots: SlotList,
    negative_pool: Sequence[Entity],
    per_query_negatives: int = 3,
    seed: int = 0,
    max_samples: int | None = None,
) -> list[DataPoint]:
    """Expand the template and label each query with positives and negatives.

    Every query gets one positive entity per ground-truth type plus
    per_query_negatives entities sampled without replacement from the pool;
    the combined list is shuffled and ground_truth set to the positives'
    positions. Deterministic for a fixed seed. max_samples caps the expansion
    with a uniform seeded subsample that preserves expansion order. A query
    or ground-truth type that DataPoint or Entity rejects, such as one holding
    a line break or a lone surrogate, raises TemplateError naming the template.
    """
    gt_types = {t.lower() for t in slots.ground_truth_types}
    pool = list(negative_pool)
    for entity in pool:
        if entity.entity_type.lower() in gt_types:
            raise ValueError(
                f"negative pool contains ground-truth type {entity.entity_type!r}"
            )
    if per_query_negatives > len(pool):
        raise ValueError(
            f"pool of {len(pool)} cannot supply {per_query_negatives} negatives"
        )

    queries = expand_template(template, slots)
    rng = random.Random(seed)
    if max_samples is not None and len(queries) > max_samples:
        keep = sorted(rng.sample(range(len(queries)), max_samples))
        queries = [queries[i] for i in keep]

    datapoints = []
    for query in queries:
        try:
            entities = [sample_entity(t, rng) for t in slots.ground_truth_types]
            entities.extend(rng.sample(pool, per_query_negatives))
            rng.shuffle(entities)
            ground_truth = frozenset(
                position
                for position, entity in enumerate(entities, 1)
                if entity.entity_type.lower() in gt_types
            )
            datapoint = DataPoint(
                request=query,
                entities=tuple(entities),
                ground_truth=ground_truth,
                kind="synthetic",
            )
        except ValueError as exc:
            raise TemplateError(f"template {template.id!r}: {exc}") from exc
        datapoints.append(datapoint)
    return datapoints


# --- template files ----------------------------------------------------------

_TEMPLATE_KEYS = ("id", "variations", "slots", "ground_truth_types")


def _pair_from_mapping(entry: object, fallback_id: str) -> tuple[LanguageTemplate, SlotList]:
    if not isinstance(entry, dict):
        raise TemplateError(f"template entry must be a mapping, got {entry!r}")
    for key in entry:
        # A misspelled section would otherwise be dropped without a word.
        if key not in _TEMPLATE_KEYS:
            raise TemplateError(
                f"template entry has unknown key {key!r} "
                f"(accepted: {', '.join(_TEMPLATE_KEYS)})"
            )
    try:
        variations = entry["variations"]
        slot_values = entry.get("slots", {})
        gt_types = entry["ground_truth_types"]
    except KeyError as exc:
        raise TemplateError(f"template entry missing section {exc}") from exc
    template = LanguageTemplate(id=entry.get("id", fallback_id), variations=variations)
    slots = SlotList(slots=slot_values, ground_truth_types=gt_types)
    # Surface bad placeholders at load time, not mid-generation.
    check_placeholders(template, slots)
    return template, slots


def load_template_file(path: str | Path) -> list[tuple[LanguageTemplate, SlotList]]:
    """Parse one YAML template file into (template, slot list) pairs.

    A file holds a single template mapping or a list of them, each with
    sections: variations, slots, ground_truth_types, and an optional id
    (defaults to the file stem). Any other key is a TemplateError.
    """
    # Imported here, not at module level, so commands that read no YAML
    # start without loading the parser.
    import yaml

    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise TemplateError(f"{path}: {exc}") from exc
    entries = data if isinstance(data, list) else [data]
    pairs = []
    for position, entry in enumerate(entries):
        fallback = path.stem if len(entries) == 1 else f"{path.stem}-{position}"
        try:
            pairs.append(_pair_from_mapping(entry, fallback))
        except TemplateError as exc:
            raise TemplateError(f"{path}: entry {position}: {exc}") from exc
    return pairs


def load_templates(path: str | Path) -> list[tuple[LanguageTemplate, SlotList]]:
    """Load a template file, or every *.yaml file in a directory (sorted)."""
    path = Path(path)
    if path.is_dir():
        pairs = []
        for child in sorted(path.glob("*.yaml")):
            pairs.extend(load_template_file(child))
        return pairs
    return load_template_file(path)


def bundled_template_dir() -> Path:
    """Directory of the template files shipped with the package."""
    return Path(__file__).parent / "templates"
