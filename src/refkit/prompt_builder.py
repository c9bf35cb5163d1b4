"""Assemble the multiple-choice prompts fed to a resolver.

Conversational prompts enumerate textualized entities as numbered options
(with "0. None" for the no-answer case) in a seeded shuffle; on-screen
prompts embed the rendered layout parse, whose injected markers already
carry the option numbers. Every prompt records the mapping from option
number back to the original entity position so predictions and ground
truth can be translated either way.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .entity_textualizer import RuleRegistry, textualize_entity
from .layout_encoder import EncoderConfig, OnscreenParse, encode_screen
from .screen_model import DataPoint, Entity

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
    original 1-based entity position.
    """
    entities = tuple(entities)
    order = list(range(1, len(entities) + 1))
    if seed is not None:
        random.Random(seed).shuffle(order)
    return tuple(entities[i - 1] for i in order), tuple(order)


def options_to_original(options: Iterable[int], index_map: Sequence[int]) -> frozenset[int]:
    """Map prompt option numbers back to original positions; 0 passes through."""
    result = set()
    for option in options:
        if option == 0:
            result.add(0)
        else:
            result.add(index_map[option - 1])
    return frozenset(result)


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
