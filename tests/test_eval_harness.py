import json
import random
import re
import threading
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from refkit import (
    BBox,
    ConstantResolver,
    DataPoint,
    EncoderConfig,
    Entity,
    EvaluationError,
    load_dataset,
    OracleResolver,
    Placement,
    Prediction,
    RemoteResolver,
    ResolverError,
    evaluate_dataset,
    generate_datapoints,
    parse_prediction,
    prompt_for_datapoint,
    ScreenObject,
    score,
)
from refkit.eval_harness import DUPLICATE_RATE, item_seed
from refkit.synth_datagen import LanguageTemplate, SlotList
from refkit.value_bank import pool_entities

from conftest import DATA_DIR, alarms_datapoint, rainbow_datapoint, realtor_datapoint


def small_synthetic_set(n_queries: int = 10, seed: int = 0):
    mentions = tuple(f"number {i}" for i in range(n_queries))
    template = LanguageTemplate("calls", ("call [mention]",))
    slots = SlotList(slots={"mention": mentions}, ground_truth_types=("phone number",))
    pool = pool_entities(exclude_types=("phone number",))
    return generate_datapoints(template, slots, pool, per_query_negatives=3, seed=seed)


class TestParsePrediction:
    def test_multiple_indices(self):
        prediction = parse_prediction("4, 8, 7", n=9)
        assert prediction.indices == frozenset({4, 7, 8})
        assert prediction.valid

    def test_successive_duplicate_collapses(self):
        prediction = parse_prediction("2 2", n=5)
        assert prediction.indices == frozenset({2})
        assert prediction.valid

    def test_zero_mixed_with_others_invalid(self):
        prediction = parse_prediction("0, 3", n=5)
        assert prediction.indices == frozenset({0, 3})
        assert not prediction.valid

    def test_zero_alone_valid(self):
        assert parse_prediction("0", n=5).valid

    def test_out_of_range_invalid(self):
        assert not parse_prediction("10", n=9).valid

    def test_negative_invalid(self):
        assert not parse_prediction("-1", n=9).valid

    def test_no_integers_invalid(self):
        prediction = parse_prediction("none of these", n=3)
        assert prediction.indices == frozenset()
        assert not prediction.valid

    def test_noise_around_integers_tolerated(self):
        assert parse_prediction("Options: 1 and 3.", n=5).indices == frozenset({1, 3})

    def test_idempotent_on_canonical_rendering(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(1, 10)
            raw = ", ".join(str(rng.randint(-2, n + 2)) for _ in range(rng.randint(0, 6)))
            first = parse_prediction(raw, n)
            canonical = ", ".join(str(i) for i in sorted(first.indices))
            second = parse_prediction(canonical, n) if canonical else first
            assert second.indices == first.indices
            assert second.valid == first.valid

    def test_leading_zeros(self):
        prediction = parse_prediction("007, -0", n=9)
        assert prediction.indices == frozenset({7, 0})
        assert parse_prediction("007", n=9).valid

    @pytest.mark.parametrize(
        "raw, indices",
        [("\u0663", set()), ("\uff13", set()), ("\u0966\u0663", set()), ("1\u0663", {1})],
        ids=["arabic-indic", "fullwidth", "devanagari", "ascii-then-arabic-indic"],
    )
    def test_only_ascii_digits_read(self, raw, indices):
        # int() reads any Unicode decimal digit, but an option number is ASCII:
        # "\u0663" (Arabic-Indic three) and "\uff13" (fullwidth three) are not option 3.
        prediction = parse_prediction(raw, n=9)
        assert prediction.indices == frozenset(indices)
        assert prediction.valid == bool(indices)

    @pytest.mark.parametrize(
        "raw",
        ["1" * 5000, "2, " + "0" * 4000 + "1" * 5000, "-" + "9" * 10**5],
        ids=["ones", "zero-padded", "negative"],
    )
    def test_digit_run_past_int_limit_invalid(self, raw):
        # CPython's int() refuses strings of more than 4300 digits.
        prediction = parse_prediction(raw, n=9)
        assert not prediction.valid

    @given(
        st.lists(st.text() | st.integers(0, 6000).map(lambda k: "7" * k)).map("".join),
        st.integers(1, 10**6),
    )
    def test_any_text_parses(self, raw, n):
        prediction = parse_prediction(raw, n)
        assert isinstance(prediction, Prediction) and prediction.raw == raw
        if prediction.valid:
            assert prediction.indices and all(0 <= i <= n for i in prediction.indices)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            parse_prediction("1", n=0)


class TestScore:
    def test_any_order_accepted(self):
        assert score(parse_prediction("4, 8, 7", n=9), {8, 7, 4})

    def test_partial_match_incorrect(self):
        assert not score(parse_prediction("1", n=4), {1, 2})

    def test_superset_incorrect(self):
        assert not score(parse_prediction("1, 2, 3", n=4), {1, 2})

    def test_none_case(self):
        assert score(parse_prediction("0", n=3), set())
        assert not score(parse_prediction("1", n=3), set())

    def test_invalid_never_correct(self):
        assert not score(parse_prediction("0, 1", n=3), {1})
        assert not score(Prediction(frozenset({1}), "1", valid=False), {1})

    def test_duplicated_tokens_still_correct(self):
        assert score(parse_prediction("2, 1, 1", n=3), {1, 2})


class TestOracleResolver:
    def test_emits_ground_truth_in_prompt_space(self):
        oracle = OracleResolver(seed=3)
        for dp in (rainbow_datapoint(), alarms_datapoint(), realtor_datapoint()):
            prompt = prompt_for_datapoint(dp, seed=11)
            raw = oracle.resolve(prompt, dp)
            prediction = parse_prediction(raw, len(dp.entities))
            assert prediction.valid
            assert prediction.indices == {prompt.to_option(i) for i in dp.ground_truth}

    def test_none_case_emits_zero(self):
        dp = rainbow_datapoint()
        empty_gt = type(dp)(dp.request, dp.entities, frozenset(), dp.kind)
        prompt = prompt_for_datapoint(empty_gt, seed=1)
        assert OracleResolver().resolve(prompt, empty_gt) == "0"

    def test_output_independent_of_call_order(self):
        oracle = OracleResolver(seed=5)
        dp = alarms_datapoint()
        prompt = prompt_for_datapoint(dp, seed=2)
        first = oracle.resolve(prompt, dp)
        oracle.resolve(prompt_for_datapoint(rainbow_datapoint(), seed=2), rainbow_datapoint())
        assert oracle.resolve(prompt, dp) == first

    def test_sometimes_duplicates(self):
        dp = alarms_datapoint()
        prompt = prompt_for_datapoint(dp, seed=4)
        option = str(prompt.to_option(3))
        answers = {OracleResolver(seed=seed).resolve(prompt, dp) for seed in range(50)}
        assert answers == {option, f"{option}, {option}"}

    # Several ground truths share each request, so a draw kept for one
    # option count and handed out for another shows.
    @settings(max_examples=200)
    @given(
        seed=st.integers(-(2**40), 2**40),
        request=st.sampled_from(["call a", "call b"]) | st.text("ab é\"", max_size=6),
        prompt_seed=st.none() | st.integers(0, 99),
        n=st.integers(1, 12),
        data=st.data(),
    )
    def test_matches_drawing_on_the_options(self, seed, request, prompt_seed, n, data):
        entities = tuple(Entity("person", (("name", f"p{i}"),)) for i in range(n))
        oracle = OracleResolver(seed=seed)
        truths = data.draw(st.lists(st.sets(st.integers(1, n)), min_size=1, max_size=4))
        for truth in truths:
            dp = DataPoint(request, entities, frozenset(truth), "synthetic")
            prompt = prompt_for_datapoint(dp, seed=prompt_seed)
            expected = reference_oracle_answer(seed, prompt, dp)
            assert oracle.resolve(prompt, dp) == expected

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", True, None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an int, got {re.escape(repr(seed))}$"):
            OracleResolver(seed=seed)


def reference_oracle_answer(seed, prompt, datapoint) -> str:
    """OracleResolver.resolve as it once drew: on the options themselves."""
    if not datapoint.ground_truth:
        return "0"
    key = zlib.crc32(datapoint.request.encode("utf-8")) ^ (seed * 0x9E3779B1)
    rng = random.Random(key)
    options = sorted(prompt.to_option(i) for i in datapoint.ground_truth)
    rng.shuffle(options)
    if rng.random() < DUPLICATE_RATE:
        options.append(rng.choice(options))
    return ", ".join(str(option) for option in options)


class FlakyResolver:
    """Fails on every datapoint whose request is marked, else answers 0."""

    def __init__(self, fail_marker: str):
        self.fail_marker = fail_marker

    def resolve(self, prompt, datapoint):
        if self.fail_marker in datapoint.request:
            raise ResolverError("boom")
        return "0"


class CountingResolver:
    """Counts its calls and answers 0."""

    def __init__(self):
        self.calls = 0

    def resolve(self, prompt, datapoint):
        self.calls += 1
        return "0"


class TestEvaluateDataset:
    def test_oracle_full_accuracy(self):
        datapoints = small_synthetic_set()
        report = evaluate_dataset(datapoints, OracleResolver(seed=1), seed=7)
        assert report.accuracy == 1.0
        assert report.correct == report.total == len(datapoints)
        assert report.invalid == 0

    def test_zero_stub_zero_accuracy(self):
        datapoints = small_synthetic_set()
        assert all(dp.ground_truth for dp in datapoints)
        report = evaluate_dataset(datapoints, ConstantResolver("0"), seed=7)
        assert report.accuracy == 0.0

    def test_order_invariance(self):
        datapoints = small_synthetic_set()
        resolver = OracleResolver(seed=2)
        baseline = evaluate_dataset(datapoints, resolver, seed=3, dataset_name="run")
        shuffled = list(datapoints)
        random.Random(8).shuffle(shuffled)
        permuted = evaluate_dataset(shuffled, resolver, seed=3, dataset_name="run")
        assert permuted.accuracy == baseline.accuracy
        assert permuted.to_json_dict() == baseline.to_json_dict()

    def test_mixed_kinds_breakdown(self):
        datapoints = [rainbow_datapoint(), alarms_datapoint(), realtor_datapoint()]
        datapoints += small_synthetic_set(4)
        report = evaluate_dataset(datapoints, OracleResolver(), seed=1)
        assert report.kind_stats("conversational").total == 2
        assert report.kind_stats("onscreen").total == 1
        assert report.kind_stats("synthetic").total == 4
        assert report.accuracy == 1.0

    def test_transport_failures_counted_not_fatal(self):
        datapoints = small_synthetic_set(20)
        marker = datapoints[0].request
        report = evaluate_dataset(datapoints, FlakyResolver(marker), seed=0)
        assert report.transport_failures == 1
        assert report.total == 20

    def test_too_many_failures_is_run_error(self):
        datapoints = small_synthetic_set(10)
        with pytest.raises(EvaluationError):
            evaluate_dataset(datapoints, FlakyResolver("call"), seed=0)

    def test_threaded_matches_sequential(self):
        datapoints = small_synthetic_set(12)
        resolver = OracleResolver(seed=4)
        sequential = evaluate_dataset(datapoints, resolver, seed=5)
        threaded = evaluate_dataset(datapoints, resolver, seed=5, max_workers=4)
        assert threaded.to_json_dict() == sequential.to_json_dict()

    def test_digit_run_past_int_limit_counted_invalid(self):
        datapoints = load_dataset(str(DATA_DIR / "alarms.jsonl"))
        report = evaluate_dataset(datapoints, ConstantResolver("1" * 5000), seed=0)
        assert report.total == report.invalid == len(datapoints)
        assert report.correct == 0

    def test_invalid_rate_reported(self):
        datapoints = small_synthetic_set(5)
        report = evaluate_dataset(datapoints, ConstantResolver("banana"), seed=0)
        assert report.invalid == 5
        assert report.accuracy == 0.0

    @pytest.mark.parametrize("max_workers", [0, -3, True, "2", 2.0, None])
    def test_max_workers_must_be_a_positive_int(self, max_workers):
        resolver = CountingResolver()
        with pytest.raises(
            ValueError,
            match=rf"^max_workers must be an int >= 1, got {re.escape(repr(max_workers))}$",
        ):
            evaluate_dataset(small_synthetic_set(2), resolver, max_workers=max_workers)
        assert resolver.calls == 0

    @pytest.mark.parametrize("seed", [1.5, "0", None, True])
    def test_seed_must_be_an_int(self, seed):
        resolver = CountingResolver()
        with pytest.raises(ValueError, match=rf"^seed must be an int, got {re.escape(repr(seed))}$"):
            evaluate_dataset(small_synthetic_set(2), resolver, seed=seed)
        assert resolver.calls == 0

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_entity_less_item_rejected_before_any_call(self, max_workers):
        datapoints = small_synthetic_set(4)
        datapoints.insert(2, DataPoint("nothing to pick", (), kind="synthetic"))
        resolver = CountingResolver()
        with pytest.raises(
            EvaluationError, match=r"^item 2: no candidate entities; a prompt needs at least one$"
        ):
            evaluate_dataset(datapoints, resolver, max_workers=max_workers)
        assert resolver.calls == 0

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_onscreen_item_without_markers_rejected_before_any_call(self, max_workers):
        datapoints = small_synthetic_set(4)
        datapoints.insert(2, realtor_datapoint())
        resolver = CountingResolver()
        with pytest.raises(
            EvaluationError,
            match=r"^item 2: an on-screen prompt needs entity markers, "
            r"but the encoder config turns them off$",
        ):
            evaluate_dataset(
                datapoints,
                resolver,
                config=EncoderConfig(inject_markers=False),
                max_workers=max_workers,
            )
        assert resolver.calls == 0


@st.composite
def scored_items(draw):
    """A datapoint, conversational or on-screen, an evaluation seed, and a
    raw answer: the right options, the right positions (which a shuffle
    moves), or any integers, with repeats, 0, negatives and numbers past
    the option count."""
    n = draw(st.integers(1, 8))
    truth = frozenset(draw(st.sets(st.integers(1, n))))
    request = draw(st.sampled_from(["call it", "open that"]) | st.text("ab é", max_size=5))
    if draw(st.booleans()):
        entities = tuple(Entity("person", (("name", f"p{i}"),)) for i in range(n))
        kind = draw(st.sampled_from(["conversational", "synthetic"]))
        datapoint = DataPoint(request, entities, truth, kind)
    else:
        entities = tuple(
            Entity("url", (("value", f"u{i}"),), f"u{i}", Placement(BBox(0, 3 * i, 10, 2)))
            for i in range(n)
        )
        screen = (ScreenObject("header", BBox(0, -3, 10, 2)),)
        datapoint = DataPoint(request, entities, truth, "onscreen", screen)
    seed = draw(st.integers(-(2**40), 2**40))
    prompt = prompt_for_datapoint(datapoint, seed=item_seed(seed, datapoint))
    options = sorted(map(prompt.to_option, truth)) or [0]
    tokens = draw(
        st.permutations(options)
        | st.permutations(sorted(truth) or [0])
        | st.lists(st.integers(-2, n + 2), max_size=5)
    )
    tokens = tokens + draw(st.lists(st.sampled_from(tokens), max_size=2)) if tokens else tokens
    raw = draw(st.sampled_from([", ", " ", "\n"])).join(map(str, tokens))
    return datapoint, seed, raw


def reference_outcome(datapoint, seed, raw) -> tuple[int, int]:
    """(correct, invalid) as scored in entity positions: each option of a
    valid prediction mapped back through the prompt's index map."""
    prompt = prompt_for_datapoint(datapoint, seed=item_seed(seed, datapoint))
    prediction = parse_prediction(raw, len(datapoint.entities))
    if not prediction.valid:
        return 0, 1
    positions = {prompt.index_map[o - 1] if o else 0 for o in prediction.indices}
    return int(positions == (datapoint.ground_truth or {0})), 0


class TestScoringInOptionNumbers:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(scored_items())
    def test_same_outcome_as_scoring_in_entity_positions(self, item):
        datapoint, seed, raw = item
        report = evaluate_dataset([datapoint], ConstantResolver(raw), seed=seed)
        assert (report.correct, report.invalid) == reference_outcome(datapoint, seed, raw)


class TestReportShape:
    def test_table_layout(self):
        datapoints = [rainbow_datapoint(), realtor_datapoint()] + small_synthetic_set(3)
        report = evaluate_dataset(
            datapoints, OracleResolver(), seed=0, dataset_name="oracle-run"
        )
        table = report.table()
        header, row = table.splitlines()
        assert header.split() == ["Model", "Conv", "Synth", "Screen"]
        assert row.split() == ["oracle-run", "100.0", "100.0", "100.0"]

    def test_table_missing_kind_dash(self):
        report = evaluate_dataset(small_synthetic_set(2), OracleResolver(), seed=0)
        row = report.table().splitlines()[1]
        assert row.split() == ["dataset", "-", "100.0", "-"]

    def test_json_dict_fields(self):
        report = evaluate_dataset(small_synthetic_set(2), OracleResolver(), seed=0)
        payload = report.to_json_dict()
        assert payload["total"] == 2
        assert payload["accuracy"] == 1.0
        assert payload["per_kind"]["synthetic"]["correct"] == 2


class _Handler(BaseHTTPRequestHandler):
    # The reply as a JSON value, or as raw bytes sent unchanged.
    reply: object = {"text": "0"}
    status: int = 200

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        assert "prompt" in body and "max_tokens" in body
        payload = self.reply
        if not isinstance(payload, bytes):
            payload = json.dumps(payload).encode("utf-8")
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/resolve"
    server.shutdown()
    server.server_close()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
json_replies = json_values | st.fixed_dictionaries({"text": json_values})


class TestRemoteResolver:
    def test_round_trip(self, http_endpoint):
        resolver = RemoteResolver(http_endpoint, auth_token="secret")
        dp = rainbow_datapoint()
        prompt = prompt_for_datapoint(dp, seed=0)
        assert resolver.resolve(prompt, dp) == "0"

    def test_connection_refused_is_resolver_error(self):
        resolver = RemoteResolver("http://127.0.0.1:1/resolve", timeout=0.2)
        dp = rainbow_datapoint()
        prompt = prompt_for_datapoint(dp, seed=0)
        with pytest.raises(ResolverError):
            resolver.resolve(prompt, dp)

    def test_http_error_is_resolver_error(self, http_endpoint):
        _Handler.status = 500
        try:
            resolver = RemoteResolver(http_endpoint)
            dp = rainbow_datapoint()
            with pytest.raises(ResolverError):
                resolver.resolve(prompt_for_datapoint(dp, seed=0), dp)
        finally:
            _Handler.status = 200

    def test_non_object_reply_is_resolver_error(self, http_endpoint):
        _Handler.reply = [1]
        try:
            resolver = RemoteResolver(http_endpoint)
            dp = rainbow_datapoint()
            with pytest.raises(ResolverError, match="JSON object"):
                resolver.resolve(prompt_for_datapoint(dp, seed=0), dp)
            # Every reply failing is a run error, not a TypeError from one item.
            with pytest.raises(EvaluationError):
                evaluate_dataset(small_synthetic_set(4), resolver, seed=0)
        finally:
            _Handler.reply = {"text": "0"}

    @pytest.mark.parametrize(
        "reply, message",
        [
            ({"text": ["1"]}, "not a string"),
            ({"text": None}, "not a string"),
            ({"text": 1}, "not a string"),
            (b'{"text": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "recursion"),
        ],
        ids=["list", "null", "number", "deep-nesting"],
    )
    def test_malformed_text_is_resolver_error(self, http_endpoint, reply, message):
        _Handler.reply = reply
        try:
            resolver = RemoteResolver(http_endpoint)
            dp = rainbow_datapoint()
            with pytest.raises(ResolverError, match=message):
                resolver.resolve(prompt_for_datapoint(dp, seed=0), dp)
            # Counted as transport failures, never scored.
            with pytest.raises(EvaluationError, match="4/4"):
                evaluate_dataset(small_synthetic_set(4), resolver, seed=0)
        finally:
            _Handler.reply = {"text": "0"}

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(json_replies)
    def test_any_reply_is_text_or_resolver_error(self, http_endpoint, reply):
        # The server is shared by all examples; only the reply changes.
        _Handler.reply = reply
        try:
            resolver = RemoteResolver(http_endpoint)
            dp = rainbow_datapoint()
            prompt = prompt_for_datapoint(dp, seed=0)
            if isinstance(reply, dict) and type(reply.get("text")) is str:
                assert resolver.resolve(prompt, dp) == reply["text"]
            else:
                with pytest.raises(ResolverError):
                    resolver.resolve(prompt, dp)
        finally:
            _Handler.reply = {"text": "0"}

    def test_evaluate_against_live_endpoint(self, http_endpoint):
        datapoints = small_synthetic_set(4)
        report = evaluate_dataset(
            datapoints, RemoteResolver(http_endpoint), seed=0, dataset_name="remote"
        )
        assert report.total == 4
        assert report.transport_failures == 0
