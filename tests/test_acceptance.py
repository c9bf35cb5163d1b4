"""Acceptance checks for the whole pipeline.

Each test verifies one exit criterion end to end and prints a single
PASS/FAIL line (visible with `pytest -s` or on failure). Run with:

    pytest tests/test_acceptance.py -v -s
"""
import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from refkit import (
    BBox,
    ConstantResolver,
    EncoderConfig,
    Entity,
    OracleResolver,
    Placement,
    RemoteResolver,
    ScreenObject,
    bbox_center,
    encode_clusters,
    encode_screen,
    evaluate_dataset,
    generate_datapoints,
    parse_prediction,
    score,
)
from refkit.synth_datagen import bundled_template_dir, load_templates
from refkit.value_bank import pool_entities

from conftest import REALTOR_PARSE_TEXT, rainbow_datapoint, realtor_datapoint
from test_layout_encoder import reading_order, reference_group_levels


def _verdict(number: int, name: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] criterion {number}: {name}")
    assert not problems, f"criterion {number} ({name}): " + "; ".join(problems)


def _bundled_dataset(seed: int = 0):
    datapoints = []
    for offset, (template, slots) in enumerate(load_templates(bundled_template_dir())):
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        datapoints.extend(
            generate_datapoints(template, slots, pool, per_query_negatives=3, seed=seed + offset)
        )
    return datapoints


def test_criterion_1_golden_parse_reproduction():
    problems = []
    started = time.perf_counter()
    dp = realtor_datapoint()
    parse = encode_screen(dp.screen, dp.entities)
    elapsed = time.perf_counter() - started
    lines = parse.text.split("\n")
    if lines[-1] != "{{1. (206) 198 1999}}\t{{2. (206) 198 1699}}":
        problems.append(f"final line was {lines[-1]!r}")
    if set(lines) != set(REALTOR_PARSE_TEXT.split("\n")):
        problems.append("line set differs from the golden parse")
    if parse.text != REALTOR_PARSE_TEXT:
        problems.append("full text differs from the golden parse")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s (limit 1s)")
    _verdict(1, "golden parse reproduction", problems)


def test_criterion_2_entity_representations_byte_exact():
    from test_entity_textualizer import REPRESENTATION_CORPUS
    from refkit import textualize_entity

    problems = []
    started = time.perf_counter()
    if len(REPRESENTATION_CORPUS) != 21:
        problems.append(f"corpus holds {len(REPRESENTATION_CORPUS)} rows, expected 21")
    for type_name, properties, expected in REPRESENTATION_CORPUS:
        actual = textualize_entity(Entity(type_name, properties))
        if actual != expected:
            problems.append(f"{type_name}: {actual!r} != {expected!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s (limit 1s)")
    _verdict(2, "entity representations byte-exact (21 rows)", problems)


def test_criterion_3_grouping_oracle_equivalence():
    problems = []
    rng = random.Random(2024)
    started = time.perf_counter()
    for case in range(1000):
        count = rng.randint(0, 50)
        # Each object's text o{i} is unique, so every rendered line maps back
        # to its objects.
        screen = [
            ScreenObject(
                f"o{i}",
                BBox(rng.uniform(0, 500), rng.uniform(0, 900), rng.uniform(0, 80), rng.uniform(0, 40)),
            )
            for i in range(count)
        ]
        by_text = {o.text: o for o in screen}
        margin = rng.choice([0.0, rng.uniform(0, 5), rng.uniform(0, 60)])
        text = encode_screen(screen, [], EncoderConfig(margin=margin)).text
        lines = [[by_text[t] for t in line.split("\t")] for line in text.split("\n")] if text else []
        levels = [(bbox_center(line[0].box).y, line) for line in lines]
        objects = reading_order(screen)
        if levels != reference_group_levels(objects, margin):
            problems.append(f"case {case}: disagrees with reference sweep")
            break
        if [o for line in lines for o in line] != objects:
            problems.append(f"case {case}: not a reading-order partition")
            break
        for anchor, members in levels:
            if any(abs(bbox_center(o.box).y - anchor) > margin for o in members):
                problems.append(f"case {case}: member outside anchor margin")
                break
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s (limit 10s)")
    _verdict(3, "level grouping matches brute-force sweep (1000 screens)", problems)


def test_criterion_4_scoring_protocol():
    problems = []
    rng = random.Random(404)
    violations = 0
    for _ in range(10_000):
        n = rng.randint(1, 10)
        gt_size = rng.randint(0, min(5, n))
        gt = set(rng.sample(range(1, n + 1), gt_size))
        target = gt or {0}

        # Any permutation with duplicated tokens must score exactly like the
        # canonical rendering.
        tokens = list(target)
        rng.shuffle(tokens)
        tokens += [rng.choice(tokens) for _ in range(rng.randint(0, 3))]
        rendered = ", ".join(str(t) for t in tokens)
        baseline = score(parse_prediction(", ".join(map(str, sorted(target))), n), gt)
        if not baseline or not score(parse_prediction(rendered, n), gt):
            violations += 1
            continue

        # Partial answers are always incorrect.
        if len(target - {0}) >= 2:
            partial = sorted(target)[:-1]
            if score(parse_prediction(", ".join(map(str, partial)), n), gt):
                violations += 1
                continue

        # Mixing 0 with a real option is always invalid.
        mixed = parse_prediction(f"0, {rng.randint(1, n)}", n)
        if mixed.valid or score(mixed, gt):
            violations += 1
    if violations:
        problems.append(f"{violations} violations in 10000 cases")
    _verdict(4, "order-free set scoring (10000 cases, zero violations)", problems)


def test_criterion_5_end_to_end_oracle_run():
    problems = []
    started = time.perf_counter()
    datapoints = _bundled_dataset(seed=0)
    if len(datapoints) < 500:
        problems.append(f"only {len(datapoints)} datapoints generated (need >= 500)")
    if not all(dp.ground_truth for dp in datapoints):
        problems.append("expected every synthetic datapoint to have ground truth")
    oracle_report = evaluate_dataset(datapoints, OracleResolver(seed=1), seed=11)
    if oracle_report.accuracy != 1.0:
        problems.append(f"oracle accuracy {oracle_report.accuracy} != 1.0")
    stub_report = evaluate_dataset(datapoints, ConstantResolver("0"), seed=11)
    if stub_report.accuracy != 0.0:
        problems.append(f"always-0 stub accuracy {stub_report.accuracy} != 0.0")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.2f}s (limit 30s)")
    _verdict(
        5,
        f"end-to-end oracle run over {len(datapoints)} generated datapoints",
        problems,
    )


def test_criterion_6_shuffle_consistency():
    problems = []
    datapoints = _bundled_dataset(seed=3)[:200] + [realtor_datapoint(), rainbow_datapoint()]
    accuracies = []
    for seed in range(10):
        report = evaluate_dataset(datapoints, OracleResolver(seed=seed), seed=seed)
        accuracies.append(report.accuracy)
    if set(accuracies) != {1.0}:
        problems.append(f"accuracies varied across shuffle seeds: {accuracies}")
    _verdict(6, "accuracy invariant under 10 shuffle seeds (all 1.000)", problems)


class _ZeroHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        json.loads(self.rfile.read(length))
        payload = json.dumps({"text": "0"}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_criterion_7_report_shape_and_encoder_growth():
    problems = []
    print(
        "note: published fine-tuned-model accuracies are out of scope at desk "
        "scale (they need trained 80M-3B parameter resolvers and private "
        "annotated data); this criterion checks the report shape against a "
        "live endpoint and the encoder growth trend instead."
    )

    # Report in the model-rows x dataset-kind-columns shape, from a live endpoint.
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ZeroHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/resolve"
        datapoints = [rainbow_datapoint(), realtor_datapoint()] + _bundled_dataset(seed=5)[:20]
        report = evaluate_dataset(
            datapoints, RemoteResolver(endpoint), seed=2, dataset_name="live-endpoint"
        )
    finally:
        server.shutdown()
        server.server_close()
    table = report.table()
    lines = table.splitlines()
    if len(lines) != 2:
        problems.append(f"table has {len(lines)} lines, expected header + row")
    if lines[0].split() != ["Model", "Conv", "Synth", "Screen"]:
        problems.append(f"unexpected header {lines[0]!r}")
    if not lines[1].startswith("live-endpoint"):
        problems.append(f"row should carry the run name, got {lines[1]!r}")
    if report.transport_failures:
        problems.append("live endpoint calls failed")

    # Per-entity cluster context grows super-linearly with cluster size;
    # the injected parse stays linear.
    def scene(k):
        objects = [ScreenObject(f"w{i:03d}", BBox(30.0 * i, 0, 20, 10)) for i in range(k)]
        entities = [
            Entity("general text", (), display_text=o.text, placement=Placement(o.box, tuple(objects)))
            for o in objects
        ]
        return objects, entities

    cluster_lengths = {}
    parse_lengths = {}
    for k in (8, 16, 32):
        objects, entities = scene(k)
        encodings = encode_clusters(objects, entities, eps=15)
        cluster_lengths[k] = sum(len("; ".join(e.surrounding_prompt)) for e in encodings)
        parse_lengths[k] = len(encode_screen(objects, entities).text)
    for small, large in ((8, 16), (16, 32)):
        cluster_ratio = cluster_lengths[large] / cluster_lengths[small]
        parse_ratio = parse_lengths[large] / parse_lengths[small]
        if cluster_ratio <= 3.0:
            problems.append(f"cluster growth {small}->{large} only {cluster_ratio:.2f}x")
        if parse_ratio >= 2.5:
            problems.append(f"parse growth {small}->{large} is {parse_ratio:.2f}x")
    print(
        "encoding growth per doubling: cluster "
        f"{cluster_lengths[16] / cluster_lengths[8]:.2f}x / "
        f"{cluster_lengths[32] / cluster_lengths[16]:.2f}x, parse "
        f"{parse_lengths[16] / parse_lengths[8]:.2f}x / "
        f"{parse_lengths[32] / parse_lengths[16]:.2f}x"
    )
    _verdict(7, "report shape from live endpoint + encoder growth trend", problems)
