"""Assemble the multiple-choice prompts fed to a resolver.

Conversational prompts enumerate textualized entities as numbered options
(with "0. None" for the no-answer case) in a seeded shuffle; on-screen
prompts embed the rendered layout parse, whose injected markers already
carry the option numbers. Every prompt records the mapping from option
number to original entity position; `Prompt.to_option` translates ground
truth into the option numbers a resolver answers in.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence

from .entity_textualizer import RuleRegistry, textualize_entity
from .layout_encoder import EncoderConfig, OnscreenParse, encode_screen
from .screen_model import MAX_MEMO, DataPoint, Entity

INSTRUCTION = (
    "Select which among the following entities, if any, are required to "
    "understand the user request below. Output 0 if none of the entities "
    "are relevant."
)


@dataclass(frozen=True)
class Prompt:
    """Prompt text plus the option-number -> original-entity-position map."""

    text: str
    index_map: tuple[int, ...]
    variant: str

    def to_option(self, original: int) -> int:
        """Translate an original entity position to its prompt option number."""
        if original == 0:
            return 0
        try:
            return self.index_map.index(original) + 1
        except ValueError:
            raise ValueError(f"original index {original} not in prompt") from None


def shuffle_entities(
    entities: Sequence[Entity], seed: int | None
) -> tuple[tuple[Entity, ...], tuple[int, ...]]:
    """Seeded permutation of the entity list; seed=None keeps input order.

    The returned index_map gives, for each prompt position (1-based), the
    original 1-based entity position. The order is random.Random(seed)'s
    shuffle of 1..n, drawn once per distinct (seed, n) and kept in an
    lru_cache of up to MAX_MEMO entries.
    """
    entities = tuple(entities)
    if seed is None:
        order = tuple(range(1, len(entities) + 1))
    else:
        order = _permutation(seed, len(entities))
    return tuple(entities[i - 1] for i in order), order


# typed=True: equal seeds of different types may seed differently.
# random.Random seeds an int by its absolute value and any other number by
# its hash, so 1, 1.0 and True agree, but -1 and -1.0, or 2**62 and
# 2.0**62, do not; the untyped cache would hand one the other's order.
@functools.lru_cache(maxsize=MAX_MEMO, typed=True)
def _permutation(seed, n: int) -> tuple[int, ...]:
    """The MT19937 shuffle of 1..n under seed; synthetic data repeats seeds."""
    order = list(range(1, n + 1))
    random.Random(seed).shuffle(order)
    return tuple(order)


def _prompt_text(request: str, body: Sequence[str]) -> str:
    """The instruction, the request, the variant's body lines, the answer cue."""
    return "\n".join((INSTRUCTION, "", f"User request: {request}", *body, "Relevant entity:"))


def build_conversational_prompt(
    request: str,
    entities: Sequence[Entity],
    seed: int | None = None,
    registry: RuleRegistry | None = None,
) -> Prompt:
    """Numbered-option prompt over shuffled, textualized entities."""
    entities = tuple(entities)
    if not entities:
        raise ValueError("a prompt needs at least one candidate entity")
    shuffled, index_map = shuffle_entities(entities, seed)
    lines = ["User Entities:", "0. None"]
    lines.extend(
        f"{option}. {textualize_entity(entity, registry)}"
        for option, entity in enumerate(shuffled, 1)
    )
    return Prompt(_prompt_text(request, lines), index_map, "conversational")


def build_onscreen_prompt(request: str, parse: OnscreenParse) -> Prompt:
    """Prompt embedding the layout parse; marker numbers are the options.

    On-screen options are positional on the screen, so there is no shuffle
    and the index map is the identity. The "0. None" option line is omitted
    but the instruction still allows answering 0.
    """
    n = len(parse.marker_spans)
    if n == 0:
        raise ValueError("onscreen prompt needs a parse with entity markers")
    text = _prompt_text(request, ("Screen:", parse.text))
    return Prompt(text, tuple(range(1, n + 1)), "onscreen")


def prompt_for_datapoint(
    datapoint: DataPoint,
    seed: int | None = None,
    config: EncoderConfig | None = None,
    registry: RuleRegistry | None = None,
) -> Prompt:
    """Build the right prompt variant for a datapoint's kind."""
    if datapoint.kind == "onscreen":
        parse = encode_screen(datapoint.screen or (), datapoint.entities, config)
        return build_onscreen_prompt(datapoint.request, parse)
    return build_conversational_prompt(
        datapoint.request, datapoint.entities, seed=seed, registry=registry
    )
