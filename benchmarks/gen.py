"""Generate one workload's inputs and expected outputs from a seed.

Runs as its own process before the measured one, so the measured process's
memory and set-up figures cover refkit and not this generator:

    python3 benchmarks/gen.py --workload screen-e2e --seed 3 --size full \
        --src src --out <dir>

It writes <dir>/spec.json (sizes and expected digests, for synth-e2e also
the committed digests of the generator's runs), plus, depending on
the workload, <dir>/dataset.jsonl and <dir>/answers.json (the loopback
server's prompt -> answer table). Sizes are fixed per workload and the seed
only moves contents, so runs with different seeds do comparable work.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import reference

WORKLOADS = ("synth-e2e", "screen-e2e", "cluster-encode", "remote-eval")

SIZES = {
    "full": {
        "synth_runs": 16,
        "synth_max_samples": None,
        "screens": 200,
        "screen_tail": 4,
        "tail_objects": 10_000,
        "scenes": 16,
        "remote_synthetic": 270,
        "remote_onscreen": 30,
    },
    "tiny": {
        "synth_runs": 1,
        "synth_max_samples": 4,
        "screens": 12,
        "screen_tail": 1,
        "tail_objects": 300,
        "scenes": 4,
        "remote_synthetic": 36,
        "remote_onscreen": 4,
    },
}

# Share of remote replies answered with HTTP 503 (rounded to whole rows).
REMOTE_FAULT_SHARE = 0.02

# Distinct `refkit generate` runs that synthetic rows are drawn from.
SYNTH_POOL = 128
SYNTH_DIGESTS = Path(__file__).resolve().with_name("synth_digests.json")

_WORDS = (
    "Home", "Search", "Settings", "Profile", "Inbox", "Open", "Share", "Cart",
    "Price", "Reviews", "Hours", "Menu", "Details", "Photos", "Directions",
    "Save", "Call", "Website", "Tickets", "Schedule", "Updates", "Offers",
)
_ENTITY_TYPES = ("phone number", "email address", "physical address", "url", "date time")


def synth_generate_seeds(seed: int, runs: int) -> list[int]:
    """Base seeds of the `refkit generate` runs that make up synth-e2e.

    Each run adds the template's offset to its base seed, as the command
    does, so bases are spaced 100 apart to keep every template seed unique.
    Bases come from a pool of SYNTH_POOL runs whose saved datasets have
    committed digests (synth_digests.json), so the generator's output is
    checked against fixed values rather than against itself.
    """
    return [((seed * 16 + k) % SYNTH_POOL) * 100 for k in range(runs)]


def synth_digests(size: str, bases: list[int]) -> list[list]:
    """[rows, SHA-256] of the dataset each of the `bases` runs saves, as
    committed in synth_digests.json."""
    table = json.loads(SYNTH_DIGESTS.read_text(encoding="utf-8"))[size]
    return [table[str(base)] for base in bases]


def bad_synth_rows(data: bytes, runs: list[list]) -> int:
    """Rows of a saved synth-e2e dataset that differ from the committed runs:
    every row of a run whose bytes do not hash to its digest, plus any row
    past the last run."""
    lines = data.splitlines(keepends=True)
    bad = at = 0
    for rows, digest in runs:
        if hashlib.sha256(b"".join(lines[at:at + rows])).hexdigest() != digest:
            bad += rows
        at += rows
    return bad + max(0, len(lines) - at)


def _digests(lines: list[bytes]) -> dict:
    return {
        "sha256": hashlib.sha256(b"".join(lines)).hexdigest(),
        "items": [reference.line_digest(line) for line in lines],
    }


def _box(left: float, top: float, width: float, height: float) -> list[float]:
    return [round(left, 1), round(top, 1), float(width), float(height)]


def _center(box: list[float]) -> tuple[float, float]:
    # Same arithmetic as the encoders, so centres compare exactly.
    return box[1] + box[3] / 2, box[0] + box[2] / 2


def _objects_in(record: dict) -> int:
    surrounding = sum(len(e.get("surrounding", [])) for e in record["entities"])
    return len(record.get("screen", [])) + len(record["entities"]) + surrounding


# --- on-screen datapoints ------------------------------------------------------

def make_screen(rng: random.Random, index: int, n_objects: int, n_entities: int) -> tuple[dict, str]:
    """One screen laid out in rows of five cells, with its expected parse.

    Row centres are 40 units apart and each object's centre is jittered by up
    to 3 units, while heights are 16-24, so every row is one visual line
    under the default margin (half the median height) and the line grouping
    has to compare centres rather than read equal values.
    """
    cols = 5
    total = n_objects + n_entities
    entity_cells = rng.sample(range(total), n_entities)
    entity_at = {cell: position for position, cell in enumerate(entity_cells, 1)}
    boxes = []
    for cell in range(total):
        row, col = divmod(cell, cols)
        height = rng.choice((16, 20, 24))
        center_y = 100 + row * 40 + rng.uniform(-3, 3)
        boxes.append(_box(col * 150 + rng.uniform(0, 20), center_y - height / 2, 120, height))

    screen = []
    placed = []
    object_at = {}
    for cell in range(total):
        if cell in entity_at:
            continue
        text = f"{rng.choice(_WORDS)} {index}-{cell}"
        object_at[cell] = {"text": text, "box": boxes[cell]}
        screen.append(object_at[cell])
        placed.append((*_center(boxes[cell]), cell // cols, text))

    entities = []
    for position, cell in enumerate(entity_cells, 1):
        entity_type = rng.choice(_ENTITY_TYPES)
        display = f"{entity_type.split()[0]} {index}.{position}"
        neighbours = [object_at[c] for c in (cell - 1, cell + 1, cell - cols, cell + cols) if c in object_at]
        entities.append({
            "type": entity_type,
            "properties": [["value", display]],
            "display_text": display,
            "box": boxes[cell],
            "surrounding": neighbours,
        })
        placed.append((*_center(boxes[cell]), cell // cols, f"{{{{{position}. {display}}}}}"))

    roll = rng.random()
    if roll < 0.1:
        ground_truth = []
    else:
        ground_truth = sorted(rng.sample(range(1, n_entities + 1), 1 if roll < 0.7 else 2))
    record = {
        "request": f"open the {rng.choice(_WORDS).lower()} item on screen {index}",
        "kind": "onscreen",
        "entities": entities,
        "screen": screen,
        "ground_truth": ground_truth,
    }
    return record, reference.onscreen_prompt(record["request"], reference.screen_parse(placed))


def screen_records(rng: random.Random, sizes: dict) -> tuple[list[dict], list[str]]:
    """Phone-sized screens of 20-200 objects (log-spaced) plus a 10^4 tail."""
    body = sizes["screens"] - sizes["screen_tail"]
    shapes = [(round(10 ** (1.3 + (j + 0.5) / body)), 2 + j % 9) for j in range(body)]
    shapes += [(sizes["tail_objects"], 2 + j % 9) for j in range(sizes["screen_tail"])]
    rng.shuffle(shapes)
    pairs = [make_screen(rng, i, n, e) for i, (n, e) in enumerate(shapes)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def prompt_lines(prompts: list[str], maps: list[list[int]]) -> list[bytes]:
    return [
        reference.jsonl_line({"id": i, "prompt": text, "index_map": index_map})
        for i, (text, index_map) in enumerate(zip(prompts, maps))
    ]


# --- cluster scenes --------------------------------------------------------------

def make_scene(rng: random.Random, index: int, n_objects: int, n_entities: int, shared: bool) -> tuple[dict, list[dict]]:
    """A scene of well-separated object groups, with its expected contexts.

    Inside a group neighbouring boxes are 6-10 units apart, below the
    derived eps (the median height, 20); groups are 150+ units apart, so
    each group is one cluster. Every entity sits next to its group and its
    own text is on screen there, so the token filter removes it from its own
    context. With `shared`, every surrounding list is a subset of the screen
    and all entities cluster the same object set; otherwise each entity also
    has private off-screen neighbours attached to its group.
    """
    cols, width, height = 5, 50.0, 20.0
    n_groups = max(2, n_objects // 25)
    members = n_objects - n_entities
    counts = [members // n_groups + (g < members % n_groups) for g in range(n_groups)]
    entity_group = [rng.randrange(n_groups) for _ in range(n_entities)]

    def box_at(g: int, row: int, col: int) -> list[float]:
        return _box((g % 4) * 500 + col * 60, (g // 4) * 500 + row * 26, width, height)

    group_of: dict[str, int] = {}
    screen = []
    group_members: list[list[dict]] = []
    for g, count in enumerate(counts):
        objs = [{"text": f"w{index}-{g}-{j}", "box": box_at(g, *divmod(j, cols))} for j in range(count)]
        group_members.append(objs)
        screen.extend(objs)
    next_slot = list(counts)
    entities = []
    for position, g in enumerate(entity_group, 1):
        display = f"+1-555-{index:03d}{position:02d}"
        box = box_at(g, *divmod(next_slot[g], cols))
        next_slot[g] += 1
        screen.append({"text": display, "box": box})
        if shared:
            surrounding = rng.sample(group_members[g], 3)
        else:
            private = [
                {"text": f"p{index}-{position}-{r}", "box": box_at(g, r, cols)}
                for r in range(1 + rng.randrange(min(3, counts[g] // cols)))
            ]
            surrounding = private + rng.sample(group_members[g], 2)
            for obj in private:
                group_of[obj["text"]] = g
        entities.append({
            "type": "phone number",
            "properties": [["value", display]],
            "display_text": display,
            "box": box,
            "surrounding": surrounding,
        })
    for g, objs in enumerate(group_members):
        for obj in objs:
            group_of[obj["text"]] = g
    for entity, g in zip(entities, entity_group):
        group_of[entity["display_text"]] = g
    rng.shuffle(screen)

    expected = []
    for position, (entity, g) in enumerate(zip(entities, entity_group), 1):
        seen = set()
        context = []
        own_tokens = set(entity["display_text"].lower().split())
        for obj in entity["surrounding"] + screen:
            key = (obj["text"], tuple(obj["box"]))
            if key in seen:
                continue
            seen.add(key)
            if group_of[obj["text"]] == g and not own_tokens & set(obj["text"].lower().split()):
                context.append(obj["text"])
        top, left = _center(entity["box"])
        expected.append({
            "index": position,
            "surrounding_objects": context,
            "distance_from_top": top,
            "distance_from_left": left,
        })
    record = {
        "request": f"call the number in scene {index}",
        "kind": "onscreen",
        "entities": entities,
        "screen": screen,
        "ground_truth": [1],
    }
    return record, expected


def scene_records(rng: random.Random, sizes: dict) -> tuple[list[dict], list[bytes]]:
    """Scenes of 50-200 objects and 3-10 entities, half with shared object sets."""
    count = sizes["scenes"]
    shapes = [
        (50 + round(150 * (j + 0.5) / count), 3 + (5 * j) % 8, (j // 2) % 2 == 0)
        for j in range(count)
    ]
    rng.shuffle(shapes)
    records, lines = [], []
    for i, (n, e, shared) in enumerate(shapes):
        record, expected = make_scene(rng, i, n, e, shared)
        records.append(record)
        lines.append(reference.jsonl_line({"id": i, "entities": expected}))
    return records, lines


# --- synthetic rows (generated by refkit) ----------------------------------------

def synthetic_dataset(seeds: list[int], max_samples: int | None) -> str:
    """The dataset `refkit generate` saves, one command per base seed."""
    from refkit import generate_datapoints, load_templates, save_dataset
    from refkit.synth_datagen import bundled_template_dir
    from refkit.value_bank import pool_entities

    pairs = load_templates(bundled_template_dir())
    datapoints = []
    for base in seeds:
        for offset, (template, slots) in enumerate(pairs):
            pool = pool_entities(exclude_types=slots.ground_truth_types)
            datapoints.extend(
                generate_datapoints(template, slots, pool, 3, seed=base + offset, max_samples=max_samples)
            )
    buffer = io.StringIO()
    save_dataset(buffer, datapoints)
    return buffer.getvalue()


def synthetic_records(seeds: list[int], max_samples: int | None) -> list[dict]:
    """The rows of `synthetic_dataset`, as JSON records."""
    return [json.loads(line) for line in synthetic_dataset(seeds, max_samples).splitlines()]


def _answer(rng: random.Random, options: list[int]) -> str:
    """Resolver text naming `options` in shuffled order, sometimes stuttering."""
    if not options:
        return "0"
    options = list(options)
    rng.shuffle(options)
    if rng.random() < 0.3:
        options.append(rng.choice(options))
    return rng.choice((", ", " ", " and ")).join(str(o) for o in options)


# --- workloads -------------------------------------------------------------------

def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    sizes = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    spec: dict = {"workload": workload, "seed": seed, "size": size}
    records: list[dict] = []

    if workload == "synth-e2e":
        seeds = synth_generate_seeds(seed, sizes["synth_runs"])
        records = synthetic_records(seeds, sizes["synth_max_samples"])
        prompts = [reference.conversational_prompt(r, seed) for r in records]
        spec["generate_seeds"] = seeds
        spec["max_samples"] = sizes["synth_max_samples"]
        spec["synth_digests"] = synth_digests(size, seeds)
        spec["prompts"] = _digests(prompt_lines([p[0] for p in prompts], [p[1] for p in prompts]))
    elif workload == "screen-e2e":
        records, texts = screen_records(rng, sizes)
        maps = [list(range(1, len(r["entities"]) + 1)) for r in records]
        spec["prompts"] = _digests(prompt_lines(texts, maps))
    elif workload == "cluster-encode":
        records, lines = scene_records(rng, sizes)
        spec["contexts"] = _digests(lines)
    elif workload == "remote-eval":
        synthetic = synthetic_records(synth_generate_seeds(seed, 1), None)
        records = [synthetic[i] for i in sorted(rng.sample(range(len(synthetic)), sizes["remote_synthetic"]))]
        onscreen = [
            make_screen(rng, i, rng.randint(10, 30), rng.randint(2, 4))
            for i in range(sizes["remote_onscreen"])
        ]
        rows = []
        for record in records:
            text, index_map = reference.conversational_prompt(record, seed)
            rows.append((record, text, sorted(index_map.index(g) + 1 for g in record["ground_truth"])))
        rows += [(record, text, record["ground_truth"]) for record, text in onscreen]
        rng.shuffle(rows)
        faulty = set(rng.sample(range(len(rows)), round(REMOTE_FAULT_SHARE * len(rows))))
        answers = {
            hashlib.sha256(text.encode("utf-8")).hexdigest(): [_answer(rng, options), i in faulty]
            for i, (_, text, options) in enumerate(rows)
        }
        if len(answers) != len(rows):
            raise ValueError("remote-eval prompts must be unique to be answered from a table")
        records = [record for record, _, _ in rows]
        (out / "answers.json").write_text(json.dumps(answers), encoding="utf-8")
        spec["expected_failures"] = sum(fault for _, fault in answers.values())
    else:
        raise ValueError(f"unknown workload {workload!r}")

    spec["items"] = len(records)
    spec["objects"] = sum(_objects_in(r) for r in records)
    if workload == "synth-e2e":
        spec["expected_correct"] = len(records)
    else:
        dataset = b"".join(reference.jsonl_line(r) for r in records)
        (out / "dataset.jsonl").write_bytes(dataset)
        spec["bytes"] = len(dataset)
        if workload != "cluster-encode":
            spec["expected_correct"] = len(records) - spec.get("expected_failures", 0)
    (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--src", required=True, help="directory holding the refkit package")
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    generate(args.workload, args.seed, args.size, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
