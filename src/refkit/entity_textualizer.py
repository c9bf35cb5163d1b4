"""Render entities as the single-line type-tagged strings used in prompts.

Every entity becomes "Type: <Name>" optionally followed by " | " and its
fields. A rule decides which properties to emit, whether each is labeled
("key: value") or bare ("value"), and what separator joins the fields --
most types use " | ", a few join their fields with "; ". Types without a
rule fall back to a generic rendering of all property values, which is what
lets entirely new domains flow through prompts without code changes.
"""
from __future__ import annotations

from dataclasses import dataclass

import yaml

from .screen_model import Entity

_TYPE_JOIN = " | "


class RuleError(ValueError):
    """Raised for a malformed rule or rules file."""


class RuleConflictError(RuleError):
    """Raised when registering a rule name that already exists."""


def camel_case(type_name: str) -> str:
    """"plant animal" -> "PlantAnimal"; inner capitalization is preserved."""
    return "".join(word[:1].upper() + word[1:] for word in type_name.split())


def _clean(value: str) -> str:
    # Rendered lines must stay single-line: prompts are newline-delimited.
    return value.replace("\n", " ").replace("\t", " ").replace("\r", " ")


@dataclass(frozen=True)
class FieldSpec:
    """One property to emit: bare value by default, "key: value" when labeled."""

    key: str
    labeled: bool = False

    def __post_init__(self) -> None:
        if type(self.key) is not str:
            raise RuleError(f"field key must be a string, got {self.key!r}")
        if type(self.labeled) is not bool:
            raise RuleError(
                f"field {self.key!r}: labeled must be true or false, got {self.labeled!r}"
            )


@dataclass(frozen=True)
class TextualizationRule:
    """How one entity type renders.

    alias is the emitted display name (defaults to the camel-cased type
    name); field_separator joins the rendered fields with each other, while
    the type tag itself is always joined to the fields by " | ".
    """

    type_name: str
    alias: str | None = None
    fields: tuple[FieldSpec, ...] = ()
    field_separator: str = _TYPE_JOIN

    def __post_init__(self) -> None:
        name = self.type_name
        if type(name) is not str or not name:
            raise RuleError(f"rule type must be a non-empty string, got {name!r}")
        if self.alias is not None and type(self.alias) is not str:
            raise RuleError(f"rule {name!r}: alias must be a string, got {self.alias!r}")
        if type(self.fields) not in (tuple, list) or not all(
            type(spec) is FieldSpec for spec in self.fields
        ):
            raise RuleError(
                f"rule {name!r}: fields must be a list of FieldSpec, got {self.fields!r}"
            )
        if type(self.field_separator) is not str:
            raise RuleError(
                f"rule {name!r}: field_separator must be a string, "
                f"got {self.field_separator!r}"
            )
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def display_name(self) -> str:
        return self.alias if self.alias is not None else camel_case(self.type_name)


def _tagged(name: str, parts: list[str], separator: str = _TYPE_JOIN) -> str:
    """"Type: <name>", then " | " and the parts joined by separator, if any."""
    tag = f"Type: {name}"
    if not parts:
        return tag
    return tag + _TYPE_JOIN + separator.join(parts)


class RuleRegistry:
    """Lookup from lowercase entity type name to its textualization rule.

    Intended usage is build-then-read: populate during startup, then treat
    as immutable so concurrent readers need no locking. Use copy() to derive
    a modified registry.
    """

    def __init__(self, rules: tuple[TextualizationRule, ...] | list[TextualizationRule] = ()):
        self._rules: dict[str, TextualizationRule] = {}
        for rule in rules:
            self.register(rule)

    def register(self, rule: TextualizationRule, overwrite: bool = False) -> None:
        key = rule.type_name.lower()
        if key in self._rules and not overwrite:
            raise RuleConflictError(f"rule for {rule.type_name!r} already registered")
        self._rules[key] = rule

    def rule_for(self, type_name: str) -> TextualizationRule | None:
        return self._rules.get(type_name.lower())

    def textualize(self, entity: Entity) -> str:
        rule = self.rule_for(entity.entity_type)
        if rule is None:
            parts = [_clean(value) for _, value in entity.properties]
            return _tagged(camel_case(entity.entity_type), parts)
        properties = dict(entity.properties)
        parts = []
        for spec in rule.fields:
            if spec.key not in properties:
                continue
            value = _clean(properties[spec.key])
            parts.append(f"{spec.key}: {value}" if spec.labeled else value)
        return _tagged(rule.display_name, parts, rule.field_separator)

    def copy(self) -> "RuleRegistry":
        clone = RuleRegistry()
        clone._rules = dict(self._rules)
        return clone

    def __len__(self) -> int:
        return len(self._rules)


DEFAULT_RULES: tuple[TextualizationRule, ...] = (
    TextualizationRule(
        "alarm",
        "Alarm",
        fields=(FieldSpec("time", True), FieldSpec("label", True), FieldSpec("status", True)),
        field_separator="; ",
    ),
    TextualizationRule("app", "App", fields=(FieldSpec("name"),)),
    TextualizationRule("book", "Book"),
    TextualizationRule(
        "date time",
        "DateTime",
        fields=(FieldSpec("month"), FieldSpec("day"), FieldSpec("year")),
    ),
    TextualizationRule("email address", "EmailAddress", fields=(FieldSpec("value"),)),
    TextualizationRule("flight number", "FlightNumber"),
    TextualizationRule("general text", "GeneralText"),
    TextualizationRule("home device", "UserEntity", fields=(FieldSpec("name"),)),
    TextualizationRule("home room", "UserEntity", fields=(FieldSpec("name"),)),
    TextualizationRule(
        "local business",
        "LocalBusiness",
        fields=(FieldSpec("PostalAddress", True), FieldSpec("name"), FieldSpec("list_position", True)),
    ),
    TextualizationRule(
        "media album",
        "MediaItem",
        fields=(FieldSpec("MediaItemType", True), FieldSpec("title")),
    ),
    TextualizationRule("package", "Package"),
    TextualizationRule("painting", "Painting"),
    TextualizationRule("person", "Person", fields=(FieldSpec("name"),)),
    TextualizationRule("phone number", "PhoneNumber", fields=(FieldSpec("value"),)),
    TextualizationRule("photo", "Photo"),
    TextualizationRule(
        "physical address", "PostalAddress", fields=(FieldSpec("GeographicArea", True),)
    ),
    TextualizationRule("plant animal", "PlantAnimal"),
    TextualizationRule("setting", "Setting", fields=(FieldSpec("value"),)),
    TextualizationRule("tracking number", "TrackingNumber"),
    TextualizationRule("url", "Uri", fields=(FieldSpec("value"),)),
)

_DEFAULT_REGISTRY = RuleRegistry(DEFAULT_RULES)


def default_registry() -> RuleRegistry:
    """The built-in rule set. Treat as read-only; copy() before extending."""
    return _DEFAULT_REGISTRY


def textualize_entity(entity: Entity, registry: RuleRegistry | None = None) -> str:
    """Render one entity with the given registry (default rules when omitted)."""
    return (registry or _DEFAULT_REGISTRY).textualize(entity)


def _rule_from_mapping(entry: object) -> TextualizationRule:
    if not isinstance(entry, dict):
        raise RuleError(f"rule entry must be a mapping, got {entry!r}")
    if "type" not in entry:
        raise RuleError(f"rule entry missing 'type': {entry!r}")
    fields = entry.get("fields", [])
    if type(fields) is not list:
        raise RuleError(f"fields must be a list, got {fields!r}")
    specs = []
    for field in fields:
        if isinstance(field, str):
            specs.append(FieldSpec(field))
        elif isinstance(field, dict) and "key" in field:
            specs.append(FieldSpec(field["key"], field.get("labeled", False)))
        else:
            raise RuleError(f"field must be a key or a {{key, labeled}} mapping, got {field!r}")
    return TextualizationRule(
        type_name=entry["type"],
        alias=entry.get("alias"),
        fields=tuple(specs),
        field_separator=entry.get("field_separator", _TYPE_JOIN),
    )


def load_rules(path: str, base: RuleRegistry | None = None) -> RuleRegistry:
    """Build a registry from a YAML rules file.

    The file holds a list of rule entries, a mapping with a "rules" key
    holding that list, or a single rule entry. Each entry has: type, alias?,
    field_separator?, fields? (strings or {key, labeled} mappings). Values
    are not converted: a YAML number or yes/no where a string belongs is an
    error. When `base` is given, its rules are copied in first and file
    entries may override them. Every fault raises RuleError naming the file
    and, where there is one, the 0-based entry.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise RuleError(f"{path}: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("rules", [data])
    if data is None:
        data = []
    if not isinstance(data, list):
        raise RuleError(f"{path}: rules file must hold a list of rule entries, got {data!r}")
    registry = base.copy() if base is not None else RuleRegistry()
    for position, entry in enumerate(data):
        try:
            registry.register(_rule_from_mapping(entry), overwrite=base is not None)
        except RuleError as exc:
            raise type(exc)(f"{path}: entry {position}: {exc}") from exc
    return registry
