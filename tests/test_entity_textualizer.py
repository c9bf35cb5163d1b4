import os
import random
import re
import sys
import threading

import pytest

from refkit import (
    Entity,
    FieldSpec,
    RuleConflictError,
    RuleError,
    RuleRegistry,
    TextualizationRule,
    build_conversational_prompt,
    default_registry,
    load_rules,
    textualize_entity,
)
from refkit.entity_textualizer import DEFAULT_RULES, MAX_MEMO, camel_case
from refkit.value_bank import pool_entities

# One row per supported type: the entity's properties and the exact string
# it must render to.
REPRESENTATION_CORPUS = [
    (
        "alarm",
        (("time", "08:06 PM"), ("label", "brush hair"), ("status", "Off")),
        "Type: Alarm | time: 08:06 PM; label: brush hair; status: Off",
    ),
    ("app", (("name", "clock"),), "Type: App | clock"),
    ("book", (), "Type: Book"),
    (
        "date time",
        (("month", "1"), ("day", "1"), ("year", "2021")),
        "Type: DateTime | 1 | 1 | 2021",
    ),
    (
        "email address",
        (("value", "membership@ipsa.org"),),
        "Type: EmailAddress | membership@ipsa.org",
    ),
    ("flight number", (), "Type: FlightNumber"),
    ("general text", (), "Type: GeneralText"),
    ("home device", (("name", "heater"),), "Type: UserEntity | heater"),
    ("home room", (("name", "Db Bedroom"),), "Type: UserEntity | Db Bedroom"),
    (
        "local business",
        (
            ("PostalAddress", "15 Broad St, Albany 31701"),
            ("name", "Ameris Bank"),
            ("list_position", "13"),
        ),
        "Type: LocalBusiness | PostalAddress: 15 Broad St, Albany 31701 | Ameris Bank | list_position: 13",
    ),
    (
        "media album",
        (("MediaItemType", "MediaItemType_Album"), ("title", "Mellon Collie")),
        "Type: MediaItem | MediaItemType: MediaItemType_Album | Mellon Collie",
    ),
    ("package", (), "Type: Package"),
    ("painting", (), "Type: Painting"),
    ("person", (("name", "Sebastian"),), "Type: Person | Sebastian"),
    ("phone number", (("value", "955 545 060"),), "Type: PhoneNumber | 955 545 060"),
    ("photo", (), "Type: Photo"),
    (
        "physical address",
        (("GeographicArea", "814 Elmwood Ave, NY, 14222"),),
        "Type: PostalAddress | GeographicArea: 814 Elmwood Ave, NY, 14222",
    ),
    ("plant animal", (), "Type: PlantAnimal"),
    ("setting", (("value", "dark mode"),), "Type: Setting | dark mode"),
    ("tracking number", (), "Type: TrackingNumber"),
    ("url", (("value", "NY.gov"),), "Type: Uri | NY.gov"),
]


class TestRepresentationCorpus:
    @pytest.mark.parametrize("type_name,properties,expected", REPRESENTATION_CORPUS)
    def test_byte_exact(self, type_name, properties, expected):
        assert textualize_entity(Entity(type_name, properties)) == expected

    def test_corpus_covers_21_types_injectively(self):
        rendered = [
            textualize_entity(Entity(t, props)) for t, props, _ in REPRESENTATION_CORPUS
        ]
        assert len(rendered) == 21
        assert len(set(rendered)) == 21

    def test_no_reserved_characters_in_output(self):
        entity = Entity("person", (("name", "two\nline\tname"),))
        output = textualize_entity(entity)
        assert "\n" not in output and "\t" not in output

    def test_deterministic(self):
        entity = Entity("alarm", (("time", "07:00 AM"), ("label", "run"), ("status", "On")))
        assert textualize_entity(entity) == textualize_entity(entity)

    def test_missing_rule_keys_are_skipped(self):
        entity = Entity("alarm", (("label", "open laptop"),))
        assert textualize_entity(entity) == "Type: Alarm | label: open laptop"


class TestGenericRule:
    def test_unknown_type_with_value(self):
        assert textualize_entity(Entity("gadget", (("value", "whatsit"),))) == "Type: Gadget | whatsit"

    def test_unknown_type_bare(self):
        assert textualize_entity(Entity("widget")) == "Type: Widget"

    def test_unknown_type_all_properties_in_order(self):
        entity = Entity("robot", (("model", "R2"), ("color", "blue")))
        assert textualize_entity(entity) == "Type: Robot | R2 | blue"

    def test_camel_casing(self):
        assert camel_case("plant animal") == "PlantAnimal"
        assert camel_case("gadget") == "Gadget"
        assert camel_case("home AV receiver") == "HomeAVReceiver"


class TestRegistry:
    def test_register_and_use(self):
        registry = RuleRegistry(
            [TextualizationRule("setting", "Setting", fields=(FieldSpec("value"),))]
        )
        entity = Entity("setting", (("value", "dark mode"),))
        assert registry.textualize(entity) == "Type: Setting | dark mode"

    def test_duplicate_registration_conflicts(self):
        rule = TextualizationRule("setting", "Setting")
        with pytest.raises(RuleConflictError, match="^rule for 'setting' already registered$"):
            RuleRegistry([rule, rule])
        # Types compare case-insensitively, as lookups do.
        with pytest.raises(RuleConflictError, match="^rule for 'Setting' already registered$"):
            RuleRegistry([rule, TextualizationRule("Setting", "Config")])

    def test_registry_cannot_be_changed(self):
        for name in ("register", "copy"):
            assert not hasattr(RuleRegistry, name)
            assert not hasattr(default_registry(), name)

    def test_lookup_is_case_insensitive(self):
        entity = Entity("Phone Number", (("value", "555 0100"),))
        assert textualize_entity(entity) == "Type: PhoneNumber | 555 0100"

    def test_default_registry_size(self):
        assert len(default_registry()) == 21

    def test_empty_registry_is_not_replaced_by_defaults(self, tmp_path):
        alarm = Entity("alarm", REPRESENTATION_CORPUS[0][1])
        generic = "Type: Alarm | 08:06 PM | brush hair | Off"
        assert textualize_entity(alarm, RuleRegistry()) == generic
        prompt = build_conversational_prompt("wake me", [alarm], registry=RuleRegistry())
        assert f"\n1. {generic}\n" in prompt.text
        path = tmp_path / "rules.yaml"
        path.write_text("", encoding="utf-8")
        assert textualize_entity(alarm, load_rules(str(path))) == generic


class TestMemo:
    def test_memo_is_bounded(self):
        registry = RuleRegistry()
        for i in range(MAX_MEMO + 100):
            entity = Entity("gadget", (("value", f"v{i}"),))
            assert registry.textualize(entity) == f"Type: Gadget | v{i}"
        info = registry._memo.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (MAX_MEMO, MAX_MEMO, MAX_MEMO + 100)
        # The oldest renderings were dropped and render again correctly.
        assert registry.textualize(Entity("gadget", (("value", "v0"),))) == "Type: Gadget | v0"
        assert registry._memo.cache_info().misses == MAX_MEMO + 101
        # A repeated entity is a hit; it is rendered once.
        assert registry.textualize(Entity("gadget", (("value", "v0"),))) == "Type: Gadget | v0"
        assert registry._memo.cache_info().hits == 1

    def test_concurrent_readers_get_correct_strings(self, monkeypatch):
        # A small bound makes the threads also race to drop entries.
        monkeypatch.setattr("refkit.entity_textualizer.MAX_MEMO", 16)
        entities = pool_entities() + [
            Entity(t, props) for t, props, _ in REPRESENTATION_CORPUS
        ] + [Entity("gadget", (("value", f"v{i}"),)) for i in range(20)]
        expected = [RuleRegistry(DEFAULT_RULES).textualize(e) for e in entities]
        registry = RuleRegistry(DEFAULT_RULES)
        wrong = []

        def read(seed):
            order = list(range(len(entities)))
            random.Random(seed).shuffle(order)
            for _ in range(20):
                for i in order:
                    if registry.textualize(entities[i]) != expected[i]:
                        wrong.append(i)

        threads = [
            threading.Thread(target=read, args=(seed,))
            for seed in range(2 * (os.cpu_count() or 1) + 2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert registry._memo.cache_info().currsize <= 16


class TestRulesFile:
    def test_load_rules_yaml(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text(
            "- type: local business\n"
            "  alias: Local Business\n"
            "  fields:\n"
            "    - {key: Name, labeled: true}\n"
            "    - {key: Address, labeled: true}\n"
            "- type: sticker\n"
            "  fields:\n"
            "    - caption\n",
            encoding="utf-8",
        )
        registry = load_rules(str(path), base=default_registry())
        business = Entity(
            "local business",
            (("Name", "Walgreens"), ("Address", "225 Rainbow St, San Jose CA 94088")),
        )
        assert registry.textualize(business) == (
            "Type: Local Business | Name: Walgreens | Address: 225 Rainbow St, San Jose CA 94088"
        )
        sticker = Entity("sticker", (("caption", "thumbs up"),))
        assert registry.textualize(sticker) == "Type: Sticker | thumbs up"
        # Base registry rules still apply for untouched types.
        assert registry.textualize(Entity("book")) == "Type: Book"

    def test_load_rules_without_base_rejects_duplicates(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("- type: a\n- type: a\n", encoding="utf-8")
        with pytest.raises(RuleConflictError):
            load_rules(str(path))

    def test_custom_field_separator(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text(
            "rules:\n"
            "  - type: timer\n"
            "    field_separator: '; '\n"
            "    fields:\n"
            "      - {key: duration, labeled: true}\n"
            "      - {key: label, labeled: true}\n",
            encoding="utf-8",
        )
        registry = load_rules(str(path))
        entity = Entity("timer", (("duration", "10m"), ("label", "tea")))
        assert registry.textualize(entity) == "Type: Timer | duration: 10m; label: tea"

    def test_single_rule_mapping(self, tmp_path):
        # A file holding one rule mapping, without a rules: key, is one entry.
        path = tmp_path / "rules.yaml"
        path.write_text("type: person\nalias: Human\n", encoding="utf-8")
        registry = load_rules(str(path), base=default_registry())
        assert registry.textualize(Entity("person", (("name", "Ana"),))) == "Type: Human"

    def test_duplicate_rule_located(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("- type: a\n- type: a\n", encoding="utf-8")
        with pytest.raises(RuleConflictError, match="rules.yaml: entry 1: "):
            load_rules(str(path))

    @pytest.mark.parametrize("base", [None, default_registry()], ids=["no-base", "base"])
    def test_in_file_duplicate_located_with_or_without_base(self, tmp_path, base):
        # With a base, the second entry used to replace the first silently.
        path = tmp_path / "dup.yaml"
        path.write_text(
            "- {type: person, alias: First}\n- {type: Person, alias: Second}\n",
            encoding="utf-8",
        )
        message = f"^{re.escape(str(path))}: entry 1: rule for 'Person' already registered$"
        with pytest.raises(RuleConflictError, match=message):
            load_rules(str(path), base=base)

    def test_loading_over_a_base_leaves_it_unchanged(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text(
            "- {type: person, alias: Contact}\n- {type: gadget, alias: Thing}\n",
            encoding="utf-8",
        )
        base = default_registry()
        registry = load_rules(str(path), base=base)
        assert len(registry) == len(base) + 1
        person = Entity("person", (("name", "Ana"),))
        assert registry.textualize(person) == "Type: Contact"
        assert registry.textualize(Entity("gadget")) == "Type: Thing"
        assert default_registry() is base and len(base) == 21
        for entity_type, properties, expected in REPRESENTATION_CORPUS:
            assert textualize_entity(Entity(entity_type, properties)) == expected
        assert textualize_entity(Entity("gadget")) == "Type: Gadget"

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"- 5\n", "entry 0: .*mapping"),
            (b"- type: a\n  fields: [5]\n", "entry 0: .*field"),
            (b"- type: a\n- type: b\n  fields: name\n", "entry 1: .*fields"),
            (b"- type: a\n  fields: [{key: name, labeled: 'no'}]\n", "entry 0: .*labeled"),
            (b"- type: a\n  fields: [{labeled: true}]\n", "entry 0: .*key"),
            (b"- alias: A\n", "entry 0: .*type"),
            (b"- type: 5\n", "entry 0: .*type"),
            (b"- type: a\n  alias: 5\n", "entry 0: .*alias"),
            (b"- type: a\n  field_separator: 5\n", "entry 0: .*field_separator"),
            (b'- type: person\n  alias: "Person\\n9. Type: Injected"\n',
             "entry 0: rule 'person': alias must not contain a line break or tab"),
            (b'- type: a\n- type: b\n  field_separator: "\\n"\n',
             "entry 1: rule 'b': field_separator must not contain a line break"),
            (b'- type: a\n  fields: ["name\\nX"]\n', "entry 0: field key must not contain"),
            (b'- type: a\n  fields: [{key: "a\\rb", labeled: true}]\n',
             "entry 0: field key must not contain"),
            (b"rules: 5\n", ".*list of rule entries"),
            (b"- type: [a\n", ""),
            (b"- type: \xff\n", ".*utf-8"),
        ],
        ids=["entry-int", "field-int", "fields-string", "labeled-string", "field-no-key",
             "no-type", "type-int", "alias-int", "separator-int", "alias-newline",
             "separator-newline", "key-newline", "key-cr", "rules-int",
             "malformed-yaml", "bad-utf8"],
    )
    def test_malformed_rules_located(self, tmp_path, body, message):
        # These used to escape as AttributeError, TypeError, a yaml error or a
        # decode error, or to be converted: "name" into four one-letter
        # fields, "no" into True.
        path = tmp_path / "rules.yaml"
        path.write_bytes(body)
        with pytest.raises(RuleError, match=f"rules.yaml: {message}"):
            load_rules(str(path), base=default_registry())

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"- type: alarm\n  feilds: [time]\n", "entry 0: rule has unknown key 'feilds'"),
            (b"type: person\naliass: Human\n", "entry 0: rule has unknown key 'aliass'"),
            (b"- type: a\n- type: alarm\n  fields: [{key: name, labelled: true}]\n",
             "entry 1: field mapping has unknown key 'labelled'"),
            (b"rules: [{type: a}]\nalias: A\n", "top-level mapping has unknown key 'alias'"),
        ],
        ids=["rule-key", "single-rule-key", "field-key", "top-level-key"],
    )
    def test_unknown_keys_rejected(self, tmp_path, body, message):
        # Each of these used to be dropped: the alarm rendered as "Type:
        # Alarm", the field unlabelled, the alias ignored.
        path = tmp_path / "rules.yaml"
        path.write_bytes(body)
        with pytest.raises(RuleError, match=f"^{re.escape(str(path))}: {message} \\(accepted: "):
            load_rules(str(path), base=default_registry())

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FieldSpec(5),
            lambda: FieldSpec("name", "no"),
            lambda: TextualizationRule(5),
            lambda: TextualizationRule("a", alias=5),
            lambda: TextualizationRule("a", fields="name"),
            lambda: TextualizationRule("a", fields=("name",)),
            lambda: TextualizationRule("a", field_separator=None),
            lambda: FieldSpec("name\nX"),
            lambda: TextualizationRule("a", alias="A\tB"),
            lambda: TextualizationRule("a", alias="A\r"),
            lambda: TextualizationRule("a", field_separator="\n"),
        ],
        ids=["key", "labeled", "type", "alias", "fields-string", "field-string",
             "separator", "key-newline", "alias-tab", "alias-cr", "separator-newline"],
    )
    def test_rule_field_types_rejected(self, build):
        with pytest.raises(RuleError):
            build()

    @pytest.mark.parametrize("char", ["\u2028", "\x0b"], ids=["line-separator", "vertical-tab"])
    def test_every_line_break_rejected_in_rule_strings(self, tmp_path, char):
        # str.splitlines breaks a prompt line at these as at "\n".
        message = "must not contain a line break or tab, got "
        with pytest.raises(RuleError, match=f"^rule 'person': alias {message}"):
            TextualizationRule("person", alias=f"P{char}Relevant entity: 1")
        with pytest.raises(RuleError, match=f"^rule 'a': field_separator {message}"):
            TextualizationRule("a", field_separator=f";{char}")
        with pytest.raises(RuleError, match=f"^field key {message}"):
            FieldSpec(f"name{char}")
        path = tmp_path / "rules.yaml"
        path.write_text(f'- type: person\n  alias: "P\\u{ord(char):04x}1"\n', encoding="utf-8")
        with pytest.raises(RuleError, match=f"entry 0: rule 'person': alias {message}"):
            load_rules(str(path))

    @pytest.mark.parametrize("char", list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029\t"))
    def test_line_breaks_in_values_become_spaces(self, char):
        entity = Entity("person", (("name", f"Ann{char}Lee"),))
        assert textualize_entity(entity) == "Type: Person | Ann Lee"
        assert textualize_entity(Entity("gadget", (("a", f"{char}x"),))) == "Type: Gadget |  x"
