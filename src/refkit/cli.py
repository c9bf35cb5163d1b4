"""Command-line surface: encode screens, generate data, emit prompts, evaluate.

All commands read and write line-delimited JSON and are deterministic for a
given (input files, flags, seed). Exit status reflects operational failure
only -- a 0% accuracy run still exits 0.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .cluster_encoder import encode_clusters
from .entity_textualizer import default_registry, load_rules
from .eval_harness import (
    ConstantResolver,
    EvaluationError,
    OracleResolver,
    RemoteResolver,
    evaluate_dataset,
    item_seed,
)
from .layout_encoder import EncoderConfig, encode_screen
from .prompt_builder import prompt_for_datapoint
from .screen_model import DataPoint, DatasetError, load_dataset, save_dataset
from .synth_datagen import bundled_template_dir, generate_datapoints, load_templates
from .value_bank import pool_entities

AUTH_TOKEN_ENV = "REFKIT_RESOLVER_TOKEN"


def _open_output(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _registry(args: argparse.Namespace):
    if getattr(args, "rules", None):
        return load_rules(args.rules, base=default_registry())
    return default_registry()


def _check_encode_flags(args: argparse.Namespace) -> None:
    """A usage error for a flag the chosen strategy would ignore."""
    cluster = args.strategy == "cluster"
    for flag, value, used in (
        ("--eps", args.eps, cluster),
        ("--min-pts", args.min_pts, cluster),
        ("--margin", args.margin, not cluster),
    ):
        if value is not None and not used:
            args.usage_error(f"argument {flag}: not used by --strategy {args.strategy}")


def cmd_encode(args: argparse.Namespace) -> int:
    _check_encode_flags(args)
    datapoints = load_dataset(args.input)
    config = EncoderConfig(margin=args.margin, inject_markers=args.strategy != "grab")
    skipped = 0
    with _open_output(args.output) as out:
        for record_id, datapoint in enumerate(datapoints):
            if datapoint.kind != "onscreen":
                skipped += 1
                continue
            if args.strategy == "cluster":
                encodings = encode_clusters(
                    datapoint.screen or (),
                    datapoint.entities,
                    eps=args.eps,
                    min_pts=1 if args.min_pts is None else args.min_pts,
                )
                record = {
                    "id": record_id,
                    "entities": [
                        {
                            "index": enc.entity_index,
                            "surrounding_objects": list(enc.surrounding_prompt),
                            "distance_from_top": enc.distance_from_top,
                            "distance_from_left": enc.distance_from_left,
                        }
                        for enc in encodings
                    ],
                }
            else:
                parse = encode_screen(datapoint.screen or (), datapoint.entities, config)
                record = {"id": record_id, "parse_text": parse.text}
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    if skipped:
        print(f"warning: skipped {skipped} non-onscreen datapoint(s)", file=sys.stderr)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    source = args.input if args.input else bundled_template_dir()
    pairs = load_templates(source)
    if not pairs:
        print(f"error: no templates found under {source}", file=sys.stderr)
        return 1
    datapoints = []
    for offset, (template, slots) in enumerate(pairs):
        pool = pool_entities(exclude_types=slots.ground_truth_types)
        datapoints.extend(
            generate_datapoints(
                template,
                slots,
                pool,
                per_query_negatives=args.negatives,
                seed=args.seed + offset,
                max_samples=args.max_samples,
            )
        )
    save_dataset(args.output, datapoints)
    print(f"generated {len(datapoints)} datapoints from {len(pairs)} template(s)")
    return 0


def _load_promptable(path: str) -> list[DataPoint]:
    """The dataset at `path`, checked whole before any prompt is built.

    Every prompt needs at least one candidate entity, so a record without
    any is a DatasetError. Records are numbered from 0, as the `id` of
    `prompt`'s output numbers them.
    """
    datapoints = load_dataset(path)
    for record_id, datapoint in enumerate(datapoints):
        if not datapoint.entities:
            raise DatasetError(
                f"record {record_id}: no candidate entities; a prompt needs at least one"
            )
    return datapoints


def cmd_prompt(args: argparse.Namespace) -> int:
    datapoints = _load_promptable(args.input)
    config = EncoderConfig(margin=args.margin)
    registry = _registry(args)
    with _open_output(args.output) as out:
        for record_id, datapoint in enumerate(datapoints):
            prompt = prompt_for_datapoint(
                datapoint,
                seed=item_seed(args.seed, datapoint),
                config=config,
                registry=registry,
            )
            record = {
                "id": record_id,
                "prompt": prompt.text,
                "index_map": list(prompt.index_map),
            }
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.oracle:
        resolver = OracleResolver(seed=args.seed)
    elif args.stub is not None:
        resolver = ConstantResolver(args.stub)
    elif args.endpoint:
        resolver = RemoteResolver(
            args.endpoint, auth_token=os.environ.get(AUTH_TOKEN_ENV)
        )
    else:
        print("error: pass --oracle, --stub, or --endpoint", file=sys.stderr)
        return 1
    datapoints = _load_promptable(args.input)
    try:
        report = evaluate_dataset(
            datapoints,
            resolver,
            config=EncoderConfig(margin=args.margin),
            seed=args.seed,
            dataset_name=args.name,
            registry=_registry(args),
            max_workers=args.workers,
        )
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.table())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2)
            handle.write("\n")
    return 0


def _checked(convert, holds, requirement: str):
    """An argparse type: `convert` the flag's text, then require `holds`.

    argparse reports a failure as a usage error that names the flag, so a bad
    number stops at the command line instead of deep inside a library call.
    """

    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = convert.__name__
    return parse


# Each test is written so that NaN, which compares false both ways, fails it.
_non_negative_float = _checked(float, lambda value: value >= 0, ">= 0")
_positive_float = _checked(float, lambda value: value > 0, "> 0")
_non_negative_int = _checked(int, lambda value: value >= 0, ">= 0")
_positive_int = _checked(int, lambda value: value >= 1, ">= 1")


def _add_margin_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--margin",
        type=_non_negative_float,
        default=None,
        help="same-line tolerance in screen units (default: half median height)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refkit",
        description="Screen serialization, prompts, synthetic data, and scoring "
        "for multiple-choice reference resolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="render onscreen datapoints to text")
    encode.add_argument("--input", required=True, help="dataset JSONL file")
    encode.add_argument("--output", default=None, help="output JSONL file (default: stdout)")
    encode.add_argument(
        "--strategy",
        choices=("injected", "grab", "cluster"),
        default="injected",
        help="screen encoding strategy (default: injected markers)",
    )
    _add_margin_flag(encode)
    # No numeric defaults here, so _check_encode_flags sees which were given.
    encode.add_argument("--eps", type=_positive_float, default=None, help="cluster distance threshold")
    encode.add_argument("--min-pts", type=_positive_int, default=None, help="cluster density minimum (default: 1)")
    encode.set_defaults(func=cmd_encode, usage_error=encode.error)

    generate = sub.add_parser("generate", help="expand templates into a labeled dataset")
    generate.add_argument(
        "--input", default=None, help="template YAML file or directory (default: bundled)"
    )
    generate.add_argument("--output", required=True, help="dataset JSONL file to write")
    generate.add_argument("--negatives", type=_non_negative_int, default=3, help="negatives per query")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--max-samples", type=_non_negative_int, default=None, help="cap the expansion per template"
    )
    generate.set_defaults(func=cmd_generate)

    prompt = sub.add_parser("prompt", help="emit resolver prompts for a dataset")
    prompt.add_argument("--input", required=True, help="dataset JSONL file")
    prompt.add_argument("--output", default=None, help="output JSONL file (default: stdout)")
    prompt.add_argument("--seed", type=int, default=0)
    prompt.add_argument("--rules", default=None, help="extra textualization rules YAML")
    _add_margin_flag(prompt)
    prompt.set_defaults(func=cmd_prompt)

    evaluate = sub.add_parser("evaluate", help="score a resolver over a dataset")
    evaluate.add_argument("--input", required=True, help="dataset JSONL file")
    evaluate.add_argument("--output", default=None, help="write the report JSON here")
    # One resolver per run: naming two is a usage error, not a silent choice.
    resolver = evaluate.add_mutually_exclusive_group()
    resolver.add_argument("--endpoint", default=None, help="resolver HTTP endpoint")
    resolver.add_argument(
        "--oracle", action="store_true", help="use the ground-truth oracle resolver"
    )
    resolver.add_argument(
        "--stub", default=None, help="use a constant resolver answering this string"
    )
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--name", default="run", help="row label for the report")
    evaluate.add_argument("--rules", default=None, help="extra textualization rules YAML")
    evaluate.add_argument("--workers", type=_positive_int, default=1, help="parallel resolver calls")
    _add_margin_flag(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
