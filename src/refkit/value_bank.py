"""Bundled property values used to materialize synthetic entities.

Queries produced from templates only pin down entity *types*; the surface
form of each entity (the actual address, number, name, ...) comes from this
bank. Types absent from the bank fall back to a deterministic placeholder
value so unknown domains still generate usable datapoints.
"""
from __future__ import annotations

import random
from typing import Iterable

from .screen_model import Entity

Props = tuple[tuple[str, str], ...]

VALUE_BANK: dict[str, tuple[Props, ...]] = {
    "email address": (
        (("value", "membership@ipsa.org"),),
        (("value", "ann.lee@example.com"),),
        (("value", "support@northwind.io"),),
        (("value", "booking@hotelmira.com"),),
        (("value", "omar.diaz@campus.edu"),),
    ),
    "physical address": (
        (("GeographicArea", "814 Elmwood Ave, NY, 14222"),),
        (("GeographicArea", "225 Rainbow St, San Jose CA 94088"),),
        (("GeographicArea", "5520 Roy St, Seattle 98109"),),
        (("GeographicArea", "77 Garden Row, Austin TX 78701"),),
        (("GeographicArea", "19 Harbor Lane, Portland ME 04101"),),
    ),
    "phone number": (
        (("value", "955 545 060"),),
        (("value", "(206) 198 1999"),),
        (("value", "(401) 774 2310"),),
        (("value", "901.969.3120"),),
        (("value", "+44 20 7946 0958"),),
    ),
    "person": (
        (("name", "Sebastian"),),
        (("name", "Priya"),),
        (("name", "Marisol"),),
        (("name", "Kenji"),),
        (("name", "Aoife"),),
    ),
    "alarm": (
        (("time", "08:06 PM"), ("label", "brush hair"), ("status", "Off")),
        (("time", "06:30 AM"), ("label", "stretch"), ("status", "On")),
        (("time", "09:15 PM"), ("label", "water plants"), ("status", "On")),
        (("time", "07:45 AM"), ("label", "pack lunch"), ("status", "Off")),
        (("time", "10:00 PM"), ("label", "wind down"), ("status", "On")),
    ),
    "setting": (
        (("value", "dark mode"),),
        (("value", "do not disturb"),),
        (("value", "screen brightness"),),
        (("value", "wifi"),),
        (("value", "focus filter"),),
    ),
    "app": (
        (("name", "clock"),),
        (("name", "maps"),),
        (("name", "calendar"),),
        (("name", "notes"),),
        (("name", "weather"),),
    ),
    "url": (
        (("value", "NY.gov"),),
        (("value", "cvspharmacies.com/usa"),),
        (("value", "openrecipes.net/granola"),),
        (("value", "transit.example.org"),),
        (("value", "docs.pkgindex.dev"),),
    ),
    "media album": (
        (("MediaItemType", "MediaItemType_Album"), ("title", "Mellon Collie")),
        (("MediaItemType", "MediaItemType_Album"), ("title", "Blue Train")),
        (("MediaItemType", "MediaItemType_Album"), ("title", "Homogenic")),
        (("MediaItemType", "MediaItemType_Album"), ("title", "Kind of Blue")),
        (("MediaItemType", "MediaItemType_Album"), ("title", "Abbey Road")),
    ),
    "music": (
        (("title", "Clair de Lune"),),
        (("title", "So What"),),
        (("title", "Redbone"),),
        (("title", "Holocene"),),
        (("title", "Teardrop"),),
    ),
    "video": (
        (("title", "How to whittle a spoon"),),
        (("title", "Northern lights timelapse"),),
        (("title", "Sourdough basics"),),
        (("title", "Trail repair vlog"),),
        (("title", "City at dawn"),),
    ),
    "local business": (
        (("PostalAddress", "15 Broad St, Albany 31701"), ("name", "Ameris Bank"), ("list_position", "13")),
        (("PostalAddress", "105 E El Camino Real, Sunnyvale, CA 94087"), ("name", "CVS"), ("list_position", "2")),
        (("PostalAddress", "1287 Hammerwood Ave, Sunnyvale, CA"), ("name", "Qwark"), ("list_position", "3")),
        (("PostalAddress", "2209 1st Ave, Seattle 98121"), ("name", "Belltown Deli"), ("list_position", "7")),
        (("PostalAddress", "40 Pine Pl, Denver CO 80202"), ("name", "Summit Books"), ("list_position", "5")),
    ),
    "home device": (
        (("name", "heater"),),
        (("name", "porch light"),),
        (("name", "thermostat"),),
        (("name", "bedroom fan"),),
        (("name", "garage door"),),
    ),
    "date time": (
        (("month", "1"), ("day", "1"), ("year", "2021")),
        (("month", "4"), ("day", "18"), ("year", "2023")),
        (("month", "11"), ("day", "2"), ("year", "2022")),
        (("month", "7"), ("day", "30"), ("year", "2024")),
        (("month", "2"), ("day", "15"), ("year", "2023")),
    ),
    "book": (
        (("title", "The Dispossessed"),),
        (("title", "Invisible Cities"),),
        (("title", "Middlemarch"),),
        (("title", "Kindred"),),
        (("title", "The Overstory"),),
    ),
    "photo": (
        (("caption", "beach sunset"),),
        (("caption", "birthday cake"),),
        (("caption", "hiking trail"),),
        (("caption", "family dinner"),),
        (("caption", "first snow"),),
    ),
}

_FALLBACK_SUFFIXES = ("one", "two", "three", "four", "five")

# Each bank entry as an Entity, built once: entities are immutable, so every
# datapoint that draws an entry can hold the same one.
_BANK_ENTITIES: dict[str, tuple[Entity, ...]] = {
    type_name: tuple(Entity(type_name, props) for props in entries)
    for type_name, entries in VALUE_BANK.items()
}


def bank_values(type_name: str) -> tuple[Props, ...]:
    """Property sets available for a type, with a placeholder fallback."""
    values = VALUE_BANK.get(type_name.lower())
    if values is not None:
        return values
    return tuple(
        (("value", f"{type_name} {suffix}"),) for suffix in _FALLBACK_SUFFIXES
    )


def sample_entity(type_name: str, rng: random.Random) -> Entity:
    """Draw one entity of the given type from the bank.

    A type name that is a bank key returns the bank's shared Entity; any
    other name (another case of a key, or a type the bank lacks) builds a
    new one. Both make the same single `rng.choice` over the same number of
    entries, so the draw does not depend on which.
    """
    entities = _BANK_ENTITIES.get(type_name)
    if entities is not None:
        return rng.choice(entities)
    return Entity(type_name, rng.choice(bank_values(type_name)))


def pool_entities(exclude_types: Iterable[str] = ()) -> list[Entity]:
    """Every bank entity whose type is not excluded, in stable bank order.

    This is the stock negative pool: exclude a template's ground-truth types
    and everything left is a safe distractor. The entities are the bank's
    shared instances, the ones sample_entity draws from.
    """
    excluded = {t.lower() for t in exclude_types}
    pool = []
    for type_name, entities in _BANK_ENTITIES.items():
        if type_name not in excluded:
            pool.extend(entities)
    return pool
