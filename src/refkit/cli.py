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
from .entity_textualizer import RuleError, default_registry, load_rules
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
from .screen_model import DatasetError, load_dataset, save_dataset
from .synth_datagen import (
    TemplateError,
    bundled_template_dir,
    generate_datapoints,
    load_templates,
)
from .value_bank import pool_entities

AUTH_TOKEN_ENV = "REFKIT_RESOLVER_TOKEN"


def _open_output(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _encoder_config(args: argparse.Namespace) -> EncoderConfig:
    return EncoderConfig(
        margin=args.margin, inject_markers=(args.strategy != "grab")
    )


def _registry(args: argparse.Namespace):
    if getattr(args, "rules", None):
        return load_rules(args.rules, base=default_registry())
    return default_registry()


def cmd_encode(args: argparse.Namespace) -> int:
    datapoints = load_dataset(args.input)
    config = _encoder_config(args)
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
                    min_pts=args.min_pts,
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


def _require_injected(args: argparse.Namespace) -> bool:
    # Prompts need numbered markers; only the injected strategy produces them.
    if args.strategy != "injected":
        print(
            f"error: --strategy {args.strategy} is encode-only; prompts require "
            "injected markers",
            file=sys.stderr,
        )
        return False
    return True


def cmd_prompt(args: argparse.Namespace) -> int:
    if not _require_injected(args):
        return 1
    datapoints = load_dataset(args.input)
    config = _encoder_config(args)
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
    if not _require_injected(args):
        return 1
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
    datapoints = load_dataset(args.input)
    try:
        report = evaluate_dataset(
            datapoints,
            resolver,
            config=_encoder_config(args),
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


def _add_encoder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        choices=("injected", "grab", "cluster"),
        default="injected",
        help="screen encoding strategy (default: injected markers)",
    )
    parser.add_argument(
        "--margin",
        type=float,
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
    _add_encoder_flags(encode)
    encode.add_argument("--eps", type=float, default=None, help="cluster distance threshold")
    encode.add_argument("--min-pts", type=int, default=1, help="cluster density minimum")
    encode.set_defaults(func=cmd_encode)

    generate = sub.add_parser("generate", help="expand templates into a labeled dataset")
    generate.add_argument(
        "--input", default=None, help="template YAML file or directory (default: bundled)"
    )
    generate.add_argument("--output", required=True, help="dataset JSONL file to write")
    generate.add_argument("--negatives", type=int, default=3, help="negatives per query")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--max-samples", type=int, default=None, help="cap the expansion per template"
    )
    generate.set_defaults(func=cmd_generate)

    prompt = sub.add_parser("prompt", help="emit resolver prompts for a dataset")
    prompt.add_argument("--input", required=True, help="dataset JSONL file")
    prompt.add_argument("--output", default=None, help="output JSONL file (default: stdout)")
    prompt.add_argument("--seed", type=int, default=0)
    prompt.add_argument("--rules", default=None, help="extra textualization rules YAML")
    _add_encoder_flags(prompt)
    prompt.set_defaults(func=cmd_prompt)

    evaluate = sub.add_parser("evaluate", help="score a resolver over a dataset")
    evaluate.add_argument("--input", required=True, help="dataset JSONL file")
    evaluate.add_argument("--output", default=None, help="write the report JSON here")
    evaluate.add_argument("--endpoint", default=None, help="resolver HTTP endpoint")
    evaluate.add_argument(
        "--oracle", action="store_true", help="use the ground-truth oracle resolver"
    )
    evaluate.add_argument(
        "--stub", default=None, help="use a constant resolver answering this string"
    )
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--name", default="run", help="row label for the report")
    evaluate.add_argument("--rules", default=None, help="extra textualization rules YAML")
    evaluate.add_argument("--workers", type=int, default=1, help="parallel resolver calls")
    _add_encoder_flags(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, TemplateError, RuleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
