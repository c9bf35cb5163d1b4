"""Render entities as the single-line type-tagged strings used in prompts.

Every entity becomes "Type: <Name>" optionally followed by " | " and its
fields. A rule decides which properties to emit, whether each is labeled
("key: value") or bare ("value"), and what separator joins the fields --
most types use " | ", a few join their fields with "; ". Types without a
rule fall back to a generic rendering of all property values, which is what
lets entirely new domains flow through prompts without code changes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .screen_model import _LINE_BREAKS, MAX_MEMO, Entity, _read_yaml, _reject_unknown_keys

_TYPE_JOIN = " | "


class RuleError(ValueError):
    """Raised for a malformed rule or rules file."""


class RuleConflictError(RuleError):
    """Raised when two rules name the same entity type."""


def camel_case(type_name: str) -> str:
    """"plant animal" -> "PlantAnimal"; inner capitalization is preserved."""
    return "".join(word[:1].upper() + word[1:] for word in type_name.split())


_SPACED = str.maketrans(dict.fromkeys([*_LINE_BREAKS, "\t"], " "))


def _clean(value: str) -> str:
    # Rendered lines must stay single-line: prompts are newline-delimited. A
    # printable value holds no line break or tab; translate costs far more.
    return value if value.isprintable() else value.translate(_SPACED)


def _require_single_line(what: str, text: str) -> None:
    """RuleError if text holds a character _clean spaces out of values: a rule
    string is emitted as given, so one would break or forge a prompt line."""
    if _clean(text) != text:
        raise RuleError(f"{what} must not contain a line break or tab, got {text!r}")


@dataclass(frozen=True)
class FieldSpec:
    """One property to emit: bare value by default, "key: value" when labeled."""

    key: str
    labeled: bool = False

    def __post_init__(self) -> None:
        if type(self.key) is not str:
            raise RuleError(f"field key must be a string, got {self.key!r}")
        _require_single_line("field key", self.key)
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
        if self.alias is not None:
            _require_single_line(f"rule {name!r}: alias", self.alias)
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
        _require_single_line(f"rule {name!r}: field_separator", self.field_separator)
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


def _add_rule(rules: dict[str, TextualizationRule], rule: TextualizationRule) -> None:
    """File rule under its lowercase type; RuleConflictError if one is there."""
    key = rule.type_name.lower()
    if key in rules:
        raise RuleConflictError(f"rule for {rule.type_name!r} already registered")
    rules[key] = rule


class RuleRegistry:
    """Lookup from lowercase entity type name to its textualization rule.

    Immutable: the rules are fixed at construction, and two rules for one
    type (compared case-insensitively) are a RuleConflictError, so a registry
    can be shared across threads without locking. To extend a rule set, build
    a new registry, e.g. from DEFAULT_RULES with the types you replace left
    out, or load a rules file over a base with load_rules().

    textualize() remembers the string it rendered for each (entity_type,
    properties), the only entity fields it reads, in an lru_cache of up to
    MAX_MEMO entries.
    """

    def __init__(self, rules: tuple[TextualizationRule, ...] | list[TextualizationRule] = ()):
        self._rules: dict[str, TextualizationRule] = {}
        for rule in rules:
            _add_rule(self._rules, rule)
        self._memo = functools.lru_cache(maxsize=MAX_MEMO)(self._render)

    def rule_for(self, type_name: str) -> TextualizationRule | None:
        return self._rules.get(type_name.lower())

    def textualize(self, entity: Entity) -> str:
        return self._memo(entity.entity_type, entity.properties)

    def _render(self, entity_type: str, properties: tuple[tuple[str, str], ...]) -> str:
        rule = self.rule_for(entity_type)
        if rule is None:
            parts = [_clean(value) for _, value in properties]
            return _tagged(camel_case(entity_type), parts)
        values = dict(properties)
        parts = []
        for spec in rule.fields:
            if spec.key not in values:
                continue
            value = _clean(values[spec.key])
            parts.append(f"{spec.key}: {value}" if spec.labeled else value)
        return _tagged(rule.display_name, parts, rule.field_separator)

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
    """The built-in rule set, one registry shared by every caller."""
    return _DEFAULT_REGISTRY


def textualize_entity(entity: Entity, registry: RuleRegistry | None = None) -> str:
    """Render one entity with the given registry (default rules when omitted)."""
    return (_DEFAULT_REGISTRY if registry is None else registry).textualize(entity)


_RULE_KEYS = ("type", "alias", "field_separator", "fields")
_FIELD_KEYS = ("key", "labeled")


def _rule_from_mapping(entry: object) -> TextualizationRule:
    if not isinstance(entry, dict):
        raise RuleError(f"rule entry must be a mapping, got {entry!r}")
    _reject_unknown_keys(entry, _RULE_KEYS, "rule", RuleError)
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
            _reject_unknown_keys(field, _FIELD_KEYS, "field mapping", RuleError)
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
    field_separator?, fields? (strings or {key, labeled} mappings), and no
    other key, so a misspelled key is an error. Values are not converted: a
    YAML number or yes/no where a string belongs is an error, and so is a
    line break or tab in an alias, field_separator or field key. Two entries
    for one type are a RuleConflictError. When `base` is given, the result
    holds its rules for the types the file does not name, plus the file's
    rules; `base` itself is unchanged. Every fault raises RuleError naming
    the file and, where there is one, the 0-based entry.
    """
    data = _read_yaml(path, RuleError)
    if isinstance(data, dict) and "rules" in data:
        _reject_unknown_keys(data, ("rules",), f"{path}: top-level mapping", RuleError)
        data = data["rules"]
    elif isinstance(data, dict):
        data = [data]
    if data is None:
        data = []
    if not isinstance(data, list):
        raise RuleError(f"{path}: rules file must hold a list of rule entries, got {data!r}")
    named: dict[str, TextualizationRule] = {}
    for position, entry in enumerate(data):
        try:
            _add_rule(named, _rule_from_mapping(entry))
        except RuleError as exc:
            raise type(exc)(f"{path}: entry {position}: {exc}") from exc
    rules = {} if base is None else dict(base._rules)
    rules.update(named)
    return RuleRegistry(tuple(rules.values()))
