import pytest

from refkit import (
    Entity,
    FieldSpec,
    RuleConflictError,
    RuleError,
    RuleRegistry,
    TextualizationRule,
    default_registry,
    load_rules,
    textualize_entity,
)
from refkit.entity_textualizer import camel_case

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
        registry = RuleRegistry()
        registry.register(TextualizationRule("setting", "Setting", fields=(FieldSpec("value"),)))
        entity = Entity("setting", (("value", "dark mode"),))
        assert registry.textualize(entity) == "Type: Setting | dark mode"

    def test_duplicate_registration_conflicts(self):
        registry = RuleRegistry()
        rule = TextualizationRule("setting", "Setting")
        registry.register(rule)
        with pytest.raises(RuleConflictError):
            registry.register(rule)
        registry.register(TextualizationRule("setting", "Config"), overwrite=True)
        assert registry.rule_for("setting").alias == "Config"

    def test_copy_isolates_default_registry(self):
        copied = default_registry().copy()
        copied.register(
            TextualizationRule("person", "Contact", fields=(FieldSpec("name"),)),
            overwrite=True,
        )
        entity = Entity("person", (("name", "Ana"),))
        assert copied.textualize(entity) == "Type: Contact | Ana"
        assert textualize_entity(entity) == "Type: Person | Ana"

    def test_lookup_is_case_insensitive(self):
        entity = Entity("Phone Number", (("value", "555 0100"),))
        assert textualize_entity(entity) == "Type: PhoneNumber | 555 0100"

    def test_default_registry_size(self):
        assert len(default_registry()) == 21


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
            (b"rules: 5\n", ".*list of rule entries"),
            (b"- type: [a\n", ""),
            (b"- type: \xff\n", ".*utf-8"),
        ],
        ids=["entry-int", "field-int", "fields-string", "labeled-string", "field-no-key",
             "no-type", "type-int", "alias-int", "separator-int", "rules-int",
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
        "build",
        [
            lambda: FieldSpec(5),
            lambda: FieldSpec("name", "no"),
            lambda: TextualizationRule(5),
            lambda: TextualizationRule("a", alias=5),
            lambda: TextualizationRule("a", fields="name"),
            lambda: TextualizationRule("a", fields=("name",)),
            lambda: TextualizationRule("a", field_separator=None),
        ],
        ids=["key", "labeled", "type", "alias", "fields-string", "field-string",
             "separator"],
    )
    def test_rule_field_types_rejected(self, build):
        with pytest.raises(RuleError):
            build()
