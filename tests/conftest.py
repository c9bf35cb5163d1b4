"""Shared fixtures: the golden scenes used across encoder and prompt tests.

The JSONL files under tests/data/ are the shipped form of these same
datapoints; test_screen_model guards that the two stay in sync. The
benchmark's seeded inputs are available too, through `benchmark_input`.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from refkit import BBox, DataPoint, Entity, Placement, ScreenObject

DATA_DIR = Path(__file__).parent / "data"
REPO_DIR = Path(__file__).parent.parent

# Rendered form of the realtor screen: eight lines, phone markers on the last.
REALTOR_PARSE_TEXT = (
    "Your New home!\n"
    "Steven Realtors Inc.\n"
    "Trusted by over 5 million\n"
    "Proud homeowners\n"
    "Contact Us\n"
    "Monday -\tSaturday -\n"
    "Friday\tSunday\n"
    "{{1. (206) 198 1999}}\t{{2. (206) 198 1699}}"
)

REALTOR_GRAB_TEXT = REALTOR_PARSE_TEXT.replace(
    "{{1. (206) 198 1999}}", "(206) 198 1999"
).replace("{{2. (206) 198 1699}}", "(206) 198 1699")


def realtor_screen_objects() -> list[ScreenObject]:
    return [
        ScreenObject("Your New home!", BBox(100, 40, 200, 20)),
        ScreenObject("Steven Realtors Inc.", BBox(100, 90, 200, 20)),
        ScreenObject("Trusted by over 5 million", BBox(100, 140, 200, 20)),
        ScreenObject("Proud homeowners", BBox(100, 190, 200, 20)),
        ScreenObject("Contact Us", BBox(100, 240, 200, 20)),
        ScreenObject("Monday -", BBox(60, 290, 80, 20)),
        ScreenObject("Saturday -", BBox(260, 290, 90, 20)),
        ScreenObject("Friday", BBox(60, 340, 60, 20)),
        ScreenObject("Sunday", BBox(260, 340, 70, 20)),
        ScreenObject("(206) 198 1999", BBox(40, 390, 120, 20)),
        ScreenObject("(206) 198 1699", BBox(240, 390, 120, 20)),
    ]


def realtor_datapoint() -> DataPoint:
    screen = realtor_screen_objects()
    nearby_left = (screen[4], screen[5], screen[7])   # Contact Us, Monday -, Friday
    nearby_right = (screen[4], screen[6], screen[8])  # Contact Us, Saturday -, Sunday
    entities = (
        Entity(
            "phone number",
            (("value", "(206) 198 1999"),),
            display_text="(206) 198 1999",
            placement=Placement(BBox(40, 390, 120, 20), nearby_left),
        ),
        Entity(
            "phone number",
            (("value", "(206) 198 1699"),),
            display_text="(206) 198 1699",
            placement=Placement(BBox(240, 390, 120, 20), nearby_right),
        ),
    )
    return DataPoint(
        request="Save the phone number at the bottom-right",
        entities=entities,
        ground_truth=frozenset({1, 2}),
        kind="onscreen",
        screen=tuple(screen),
    )


def branches_screen_objects() -> list[ScreenObject]:
    # Two well-separated groups: a Queen Anne block and a Belltown block.
    return [
        ScreenObject("Queen Anne", BBox(40, 80, 100, 20)),
        ScreenObject("5520 Roy St, Seattle 98109", BBox(40, 110, 220, 20)),
        ScreenObject("(206) 380 4699", BBox(40, 140, 130, 20)),
        ScreenObject("Belltown", BBox(40, 380, 90, 20)),
        ScreenObject("2209 1st Ave S, Seattle 98121", BBox(40, 410, 230, 20)),
        ScreenObject("(206) 380 4898", BBox(40, 440, 130, 20)),
    ]


def branches_datapoint() -> DataPoint:
    screen = branches_screen_objects()
    surrounding = tuple(screen)
    specs = [
        ("physical address", "GeographicArea", "5520 Roy St, Seattle 98109", BBox(40, 110, 220, 20)),
        ("phone number", "value", "(206) 380 4699", BBox(40, 140, 130, 20)),
        ("phone number", "value", "(206) 380 4898", BBox(40, 440, 130, 20)),
        ("physical address", "GeographicArea", "2209 1st Ave S, Seattle 98121", BBox(40, 410, 230, 20)),
    ]
    entities = tuple(
        Entity(
            type_name,
            ((key, text),),
            display_text=text,
            placement=Placement(box, surrounding),
        )
        for type_name, key, text, box in specs
    )
    return DataPoint(
        request="Get me directions to the branch in Queen Anne",
        entities=entities,
        ground_truth=frozenset({1}),
        kind="onscreen",
        screen=tuple(screen),
    )


def rainbow_datapoint() -> DataPoint:
    entities = (
        Entity(
            "local business",
            (("Name", "Walgreens"), ("Address", "225 Rainbow St, San Jose CA 94088")),
        ),
        Entity(
            "local business",
            (("Name", "CVS"), ("Address", "105 E El Camino Real, Sunnyvale, CA 94087")),
        ),
        Entity(
            "local business",
            (("Name", "Qwark"), ("Address", "1287 Hammerwood Ave, Sunnyvale, CA")),
        ),
    )
    return DataPoint(
        request="Call the one on Rainbow St",
        entities=entities,
        ground_truth=frozenset({1}),
        kind="conversational",
    )


def alarms_datapoint() -> DataPoint:
    labels = ("open laptop", "text Lauren to shower", "pick up didi", "forget this")
    entities = tuple(Entity("alarm", (("label", label),)) for label in labels)
    return DataPoint(
        request="Switch off the one reminding me to pick up didi.",
        entities=entities,
        ground_truth=frozenset({3}),
        kind="conversational",
    )


@pytest.fixture
def realtor():
    return realtor_datapoint()


@pytest.fixture
def branches():
    return branches_datapoint()


@pytest.fixture
def rainbow():
    return rainbow_datapoint()


@pytest.fixture
def alarms():
    return alarms_datapoint()


@pytest.fixture(scope="session")
def benchmark_input(tmp_path_factory):
    """The dataset bytes benchmarks/gen.py writes for a workload at seed 1."""
    made: dict[str, bytes] = {}

    def dataset(workload: str) -> bytes:
        if workload not in made:
            out = tmp_path_factory.mktemp(workload)
            subprocess.run(
                [sys.executable, str(REPO_DIR / "benchmarks" / "gen.py"),
                 "--workload", workload, "--seed", "1",
                 "--src", str(REPO_DIR / "src"), "--out", str(out)],
                check=True, capture_output=True,
            )
            made[workload] = (out / "dataset.jsonl").read_bytes()
        return made[workload]

    return dataset
