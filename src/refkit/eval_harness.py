"""Parse resolver output, score it against ground truth, aggregate accuracy.

A prediction is the set of integers extracted from the raw model output; it
is valid only when the indices exist, none are negative, and 0 (the "none
of these" answer) does not co-occur with real options. Scoring is exact set
match, so the resolver may list the relevant entities in any order and may
stutter duplicates. Invalid output never raises: it counts as incorrect and
feeds the separately reported invalid rate.
"""
from __future__ import annotations

import random
import re
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .entity_textualizer import RuleRegistry
from .layout_encoder import EncoderConfig
from .prompt_builder import Prompt, options_to_original, prompt_for_datapoint
from .screen_model import DataPoint

# An integer token: its sign, and its digits without leading zeros ("0" for zero).
# Digits are ASCII only; int() would also read other scripts' decimal digits.
_INT_RE = re.compile(r"(-?)0*(\d+)", re.ASCII)

_KIND_COLUMNS = (("Conv", "conversational"), ("Synth", "synthetic"), ("Screen", "onscreen"))

# A run fails when more than this share of its items could not be resolved.
MAX_FAILURE_RATE = 0.10


class ResolverError(RuntimeError):
    """A resolver could not produce output for a prompt (transport failure)."""


class EvaluationError(RuntimeError):
    """The run as a whole failed: an item cannot be prompted, or too many
    transport failures."""


@dataclass(frozen=True)
class Prediction:
    """Deduplicated index set extracted from raw resolver output."""

    indices: frozenset[int]
    raw: str
    valid: bool


def parse_prediction(raw: str, n: int) -> Prediction:
    """Extract integer tokens from raw output and validate them against n options.

    Tokens are runs of ASCII digits 0-9, so "\u0663" or "\uff13" names no
    option. Duplicates collapse into a set. The prediction is invalid when no
    integer is present, any index is negative or exceeds n, or 0 appears
    alongside other indices. Invalidity is data, not an error.

    A token with more significant digits than n can never name an option.
    Tokens up to one digit longer than n still enter the set, so near misses
    such as 10 of 9 options are kept; a longer one makes the prediction
    invalid without being converted, so a run of thousands of digits costs
    no int() call (CPython refuses those past 4300 digits).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    max_digits = len(str(n)) + 1
    indices = set()
    too_long = False
    for sign, digits in _INT_RE.findall(raw):
        if len(digits) > max_digits:
            too_long = True
        else:
            indices.add(-int(digits) if sign else int(digits))
    valid = bool(indices) and not too_long
    if any(i < 0 or i > n for i in indices):
        valid = False
    if 0 in indices and len(indices) > 1:
        valid = False
    return Prediction(frozenset(indices), raw, valid)


def score(prediction: Prediction, ground_truth: Iterable[int]) -> bool:
    """Exact, order-free set match; empty ground truth means the answer is {0}."""
    target = frozenset(ground_truth) or frozenset({0})
    return prediction.valid and prediction.indices == target


# --- resolvers ---------------------------------------------------------------

class Resolver(Protocol):
    """Turns a prompt into raw output text.

    The datapoint is passed alongside the prompt purely so test doubles can
    answer from ground truth; real resolvers should ignore it.
    """

    def resolve(self, prompt: Prompt, datapoint: DataPoint) -> str: ...


class ConstantResolver:
    """Always answers the same string; the "0" stub is the degenerate baseline."""

    def __init__(self, text: str = "0"):
        self.text = text

    def resolve(self, prompt: Prompt, datapoint: DataPoint) -> str:
        return self.text


class OracleResolver:
    """Answers from the datapoint's ground truth, in prompt coordinates.

    The indices come back shuffled and occasionally with one repeated, to
    exercise the order-free scoring and dedup paths. Output depends only on
    (seed, datapoint), never on call order, so the resolver behaves
    statelessly under any evaluation schedule.
    """

    def __init__(self, seed: int = 0, duplicate_rate: float = 0.5):
        self.seed = seed
        self.duplicate_rate = duplicate_rate

    def resolve(self, prompt: Prompt, datapoint: DataPoint) -> str:
        if not datapoint.ground_truth:
            return "0"
        key = zlib.crc32(datapoint.request.encode("utf-8")) ^ (self.seed * 0x9E3779B1)
        rng = random.Random(key)
        options = sorted(prompt.to_option(i) for i in datapoint.ground_truth)
        rng.shuffle(options)
        if self.duplicate_rate and rng.random() < self.duplicate_rate:
            options.append(rng.choice(options))
        return ", ".join(str(option) for option in options)


class RemoteResolver:
    """HTTP client for a hosted resolver.

    Sends POST {"prompt": ..., "max_tokens": ...} and expects {"text": ...}.
    Each prompt gets exactly one generation: no retries, so the reported
    accuracy is attributable to single calls.
    """

    def __init__(
        self,
        endpoint: str,
        auth_token: str | None = None,
        timeout: float = 30.0,
        max_tokens: int = 16,
    ):
        self.endpoint = endpoint
        self.auth_token = auth_token
        self.timeout = timeout
        self.max_tokens = max_tokens

    def resolve(self, prompt: Prompt, datapoint: DataPoint) -> str:
        # Imported on first use, so a run that never calls out loads no HTTP
        # stack; before the try, so its except clause can always name it.
        import requests

        headers = {}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        try:
            response = requests.post(
                self.endpoint,
                json={"prompt": prompt.text, "max_tokens": self.max_tokens},
                headers=headers,
                timeout=self.timeout,
            )
            response.raise_for_status()
            body = response.json()
            if not isinstance(body, dict):
                raise ValueError(f"reply is not a JSON object: {body!r:.80}")
            text = body["text"]
            if type(text) is not str:
                raise ValueError(f"reply text is not a string: {text!r:.80}")
            return text
        except (requests.RequestException, ValueError, KeyError, RecursionError) as exc:
            raise ResolverError(f"resolver request failed: {exc}") from exc


# --- dataset evaluation --------------------------------------------------------

@dataclass(frozen=True)
class KindStats:
    total: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


@dataclass(frozen=True)
class AccuracyReport:
    """Aggregate scores for one dataset run, with a per-kind breakdown."""

    dataset: str
    total: int
    correct: int
    invalid: int
    transport_failures: int
    per_kind: tuple[tuple[str, KindStats], ...]

    @property
    def accuracy(self) -> float:
        return KindStats(self.total, self.correct).accuracy

    def kind_stats(self, kind: str) -> KindStats:
        return dict(self.per_kind).get(kind, KindStats())

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "total": self.total,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "invalid": self.invalid,
            "transport_failures": self.transport_failures,
            "per_kind": {
                kind: {
                    "total": stats.total,
                    "correct": stats.correct,
                    "accuracy": stats.accuracy,
                }
                for kind, stats in self.per_kind
            },
        }

    def table(self) -> str:
        """Plain-text accuracy table: one row per run, one column per dataset kind."""
        columns = [label for label, _ in _KIND_COLUMNS]
        cells = []
        for _, kind in _KIND_COLUMNS:
            stats = self.kind_stats(kind)
            cells.append(f"{100 * stats.accuracy:.1f}" if stats.total else "-")
        name_width = max(len("Model"), len(self.dataset))
        header = "Model".ljust(name_width) + "".join(c.rjust(8) for c in columns)
        row = self.dataset.ljust(name_width) + "".join(c.rjust(8) for c in cells)
        return header + "\n" + row


def item_seed(run_seed: int, datapoint: DataPoint) -> int:
    """Per-datapoint shuffle seed derived from content, not position, so a
    permuted dataset yields identical prompts per item."""
    digest = zlib.crc32(f"{datapoint.kind}:{datapoint.request}".encode("utf-8"))
    return digest ^ (run_seed * 0x85EBCA6B & 0xFFFFFFFF)


def evaluate_dataset(
    datapoints: Sequence[DataPoint],
    resolver: Resolver,
    config: EncoderConfig | None = None,
    seed: int = 0,
    dataset_name: str = "dataset",
    registry: RuleRegistry | None = None,
    max_workers: int = 1,
) -> AccuracyReport:
    """Prompt, resolve, parse, and score every datapoint.

    Transport failures mark the item incorrect and the run continues; the
    run itself fails only when more than MAX_FAILURE_RATE of items could not
    be resolved. With max_workers > 1 resolver calls fan out over a thread
    pool; aggregation is order-independent either way. Every prompt needs a
    candidate entity, and an on-screen prompt needs entity markers, so an
    item without one, or an on-screen item under a config that turns markers
    off, fails the run before the first resolver call; items are numbered
    from 0.
    """
    datapoints = list(datapoints)
    markers_off = config is not None and not config.inject_markers
    for position, datapoint in enumerate(datapoints):
        if not datapoint.entities:
            raise EvaluationError(
                f"item {position}: no candidate entities; a prompt needs at least one"
            )
        if markers_off and datapoint.kind == "onscreen":
            raise EvaluationError(
                f"item {position}: an on-screen prompt needs entity markers, "
                "but the encoder config turns them off"
            )

    def evaluate_item(datapoint: DataPoint) -> tuple[str, str]:
        prompt = prompt_for_datapoint(
            datapoint, seed=item_seed(seed, datapoint), config=config, registry=registry
        )
        try:
            raw = resolver.resolve(prompt, datapoint)
        except ResolverError:
            return datapoint.kind, "failed"
        prediction = parse_prediction(raw, len(datapoint.entities))
        if prediction.valid:
            prediction = Prediction(
                options_to_original(prediction.indices, prompt.index_map),
                prediction.raw,
                True,
            )
        if score(prediction, datapoint.ground_truth):
            return datapoint.kind, "correct"
        return datapoint.kind, "wrong" if prediction.valid else "invalid"

    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            outcomes = list(pool.map(evaluate_item, datapoints))
    else:
        outcomes = [evaluate_item(dp) for dp in datapoints]

    # (kind, outcome) -> items; an item's outcome is correct, wrong, invalid or failed.
    tally = Counter(outcomes)

    def count(kind: str | None = None, outcome: str | None = None) -> int:
        """Items of the kind with the outcome; None matches any."""
        return sum(
            n for (k, o), n in tally.items() if kind in (None, k) and outcome in (None, o)
        )

    total = len(outcomes)
    failures = count(outcome="failed")
    if total and failures > MAX_FAILURE_RATE * total:
        raise EvaluationError(
            f"{failures}/{total} resolver calls failed (> {MAX_FAILURE_RATE:.0%})"
        )
    per_kind = tuple(
        (kind, KindStats(count(kind), count(kind, "correct")))
        for kind in sorted({kind for kind, _ in tally})
    )
    return AccuracyReport(
        dataset=dataset_name,
        total=total,
        correct=count(outcome="correct"),
        invalid=count(outcome="invalid"),
        transport_failures=failures,
        per_kind=per_kind,
    )
