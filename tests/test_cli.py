import json

import pytest

from refkit import load_dataset
from refkit.cli import main

from conftest import DATA_DIR, DEEP_LIST, REALTOR_GRAB_TEXT, REALTOR_PARSE_TEXT

REALTOR = str(DATA_DIR / "realtor_screen.jsonl")
BRANCHES = str(DATA_DIR / "branch_clusters.jsonl")
RAINBOW = str(DATA_DIR / "rainbow.jsonl")
RAINBOW_RULES = str(DATA_DIR / "rainbow_rules.yaml")


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestEncode:
    def test_injected_golden(self, tmp_path):
        out = tmp_path / "parses.jsonl"
        assert main(["encode", "--input", REALTOR, "--output", str(out)]) == 0
        [record] = read_jsonl(out)
        assert record == {"id": 0, "parse_text": REALTOR_PARSE_TEXT}

    def test_grab_strategy(self, tmp_path):
        out = tmp_path / "parses.jsonl"
        code = main(
            ["encode", "--input", REALTOR, "--output", str(out), "--strategy", "grab"]
        )
        assert code == 0
        [record] = read_jsonl(out)
        assert record["parse_text"] == REALTOR_GRAB_TEXT

    def test_cluster_strategy_surroundings(self, tmp_path):
        out = tmp_path / "clusters.jsonl"
        code = main(
            [
                "encode",
                "--input", BRANCHES,
                "--output", str(out),
                "--strategy", "cluster",
                "--eps", "15",
            ]
        )
        assert code == 0
        [record] = read_jsonl(out)
        by_index = {e["index"]: e for e in record["entities"]}
        assert by_index[1]["surrounding_objects"] == ["Queen Anne", "(206) 380 4699"]
        assert by_index[4]["surrounding_objects"] == ["Belltown", "(206) 380 4898"]
        assert by_index[1]["distance_from_top"] == 120.0

    def test_empty_input_empty_output(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["encode", "--input", str(src), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_non_onscreen_skipped_with_warning(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["encode", "--input", RAINBOW, "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""
        assert "skipped 1" in capsys.readouterr().err

    def test_missing_input_fails(self, tmp_path, capsys):
        assert main(["encode", "--input", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err


class TestGenerate:
    def test_bundled_templates(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        assert main(["generate", "--output", str(out), "--seed", "3"]) == 0
        message = capsys.readouterr().out
        datapoints = load_dataset(str(out))
        assert f"generated {len(datapoints)} datapoints" in message
        assert len(datapoints) >= 500
        assert all(dp.kind == "synthetic" for dp in datapoints)

    def test_deterministic_reruns(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        template = tmp_path / "t.yaml"
        template.write_text(
            "variations: [\"call [m]\"]\n"
            "slots: {m: [\"this\", \"that\"]}\n"
            "ground_truth_types: [\"phone number\"]\n",
            encoding="utf-8",
        )
        for out in (first, second):
            code = main(
                ["generate", "--input", str(template), "--output", str(out), "--seed", "5"]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_template_diagnosed(self, tmp_path, capsys):
        template = tmp_path / "bad.yaml"
        template.write_text(
            "variations: [\"call [who]\"]\nground_truth_types: [\"person\"]\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--input", str(template), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[who]" in err and "bad.yaml" in err

    def test_line_break_in_request_diagnosed(self, tmp_path, capsys):
        # A slot value with a line break would forge a line of the prompt.
        template = tmp_path / "forged.yaml"
        template.write_text(
            'variations: ["call [who]"]\n'
            'slots: {who: ["him\\nRelevant entity: 1"]}\n'
            'ground_truth_types: ["phone number"]\n',
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--input", str(template), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "forged" in err and "line break" in err
        assert not out.exists()

    def test_string_for_list_diagnosed(self, tmp_path, capsys):
        # A string where a list belongs used to expand letter by letter.
        template = tmp_path / "loose.yaml"
        template.write_text(
            'variations: ["call him"]\nground_truth_types: "person"\n', encoding="utf-8"
        )
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--input", str(template), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "loose.yaml: entry 0" in err and "ground-truth types" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "template, message",
        [
            ('variations: ["call \\ud800 [who]"]\nslots: {who: ["him"]}\n'
             'ground_truth_types: ["person"]\n', "DataPoint.request"),
            ('variations: ["call [who]"]\nslots: {who: ["\\udc80"]}\n'
             'ground_truth_types: ["person"]\n', "DataPoint.request"),
            ('variations: ["call [who]"]\nslots: {who: ["him"]}\n'
             'ground_truth_types: ["per\\ud800son"]\n', "Entity.entity_type"),
        ],
        ids=["variation", "slot-value", "ground-truth-type"],
    )
    def test_lone_surrogate_diagnosed(self, template, message, tmp_path, capsys):
        # YAML reads a "\ud800" escape as a lone surrogate, which no dataset
        # file can hold.
        path = tmp_path / "lone.yaml"
        path.write_text(template, encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--input", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: template 'lone': ")
        assert f"{message} must not hold a lone surrogate" in err
        assert not out.exists()


class TestPrompt:
    def test_business_list_prompt_with_rules(self, tmp_path):
        out = tmp_path / "prompts.jsonl"
        code = main(
            [
                "prompt",
                "--input", RAINBOW,
                "--output", str(out),
                "--rules", RAINBOW_RULES,
            ]
        )
        assert code == 0
        [record] = read_jsonl(out)
        assert "Type: Local Business | Name: Walgreens | Address:" in record["prompt"]
        assert sorted(record["index_map"]) == [1, 2, 3]

    def test_malformed_rules_diagnosed(self, tmp_path, capsys):
        rules = tmp_path / "bad_rules.yaml"
        rules.write_text("- type: a\n  fields: [5]\n", encoding="utf-8")
        out = tmp_path / "prompts.jsonl"
        code = main(
            ["prompt", "--input", RAINBOW, "--output", str(out), "--rules", str(rules)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad_rules.yaml: entry 0" in err

    def test_invalid_utf8_diagnosed(self, tmp_path, capsys):
        with open(RAINBOW, "rb") as handle:
            good = handle.read().rstrip(b"\n")
        dataset = tmp_path / "bad.jsonl"
        dataset.write_bytes(good + b"\n" + good.replace(b'"request": "', b'"request": "\xff', 1))
        code = main(["prompt", "--input", str(dataset), "--output", str(tmp_path / "p.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2" in err and "utf-8" in err

    def test_lone_surrogate_diagnosed(self, tmp_path, capsys):
        dataset = tmp_path / "lone.jsonl"
        dataset.write_text(
            '{"request": "call \\ud800 now", "kind": "conversational", "entities": '
            '[{"type": "person", "properties": [["name", "A"]]}], "ground_truth": [1]}\n',
            encoding="utf-8",
        )
        code = main(["prompt", "--input", str(dataset), "--output", str(tmp_path / "p.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: DataPoint.request must not hold a lone surrogate")

    def test_onscreen_prompt_contains_parse(self, tmp_path):
        out = tmp_path / "prompts.jsonl"
        assert main(["prompt", "--input", REALTOR, "--output", str(out)]) == 0
        [record] = read_jsonl(out)
        assert REALTOR_PARSE_TEXT in record["prompt"]
        assert record["index_map"] == [1, 2]

    def test_seed_determinism(self, tmp_path):
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main(["prompt", "--input", RAINBOW, "--output", str(out), "--seed", "9"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestEvaluate:
    def test_oracle_run(self, tmp_path, capsys):
        dataset = tmp_path / "synth.jsonl"
        assert main(["generate", "--output", str(dataset), "--seed", "1"]) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--input", str(dataset),
                "--oracle",
                "--output", str(report_path),
                "--name", "oracle-run",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "Model" in table and "oracle-run" in table
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["accuracy"] == 1.0

    def test_zero_stub_still_exits_zero(self, tmp_path, capsys):
        code = main(["evaluate", "--input", RAINBOW, "--stub", "0"])
        assert code == 0
        assert "0.0" in capsys.readouterr().out

    def test_requires_a_resolver(self, capsys):
        assert main(["evaluate", "--input", RAINBOW]) == 1
        assert "oracle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "first, second",
        [
            (["--oracle"], ["--endpoint", "http://127.0.0.1:1/"]),
            (["--stub", "0"], ["--endpoint", "http://127.0.0.1:1/"]),
            (["--oracle"], ["--stub", "0"]),
        ],
        ids=["oracle-endpoint", "stub-endpoint", "oracle-stub"],
    )
    def test_two_resolvers_is_a_usage_error(self, first, second, tmp_path, capsys):
        # Taking the first flag found used to score the oracle at 100%.
        report = tmp_path / "report.json"
        with pytest.raises(SystemExit) as stopped:
            main(["evaluate", "--input", RAINBOW, "--output", str(report), *first, *second])
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert first[0] in err and second[0] in err and "not allowed" in err
        assert not report.exists()


NO_ENTITIES = {
    "conversational": {
        "request": "Call it", "kind": "conversational", "entities": [], "ground_truth": []
    },
    "onscreen": {
        "request": "Tap it", "kind": "onscreen", "entities": [], "ground_truth": [],
        "screen": [{"text": "Hello", "box": [0, 0, 10, 10]}],
    },
}


@pytest.mark.parametrize("kind", sorted(NO_ENTITIES))
@pytest.mark.parametrize("command", [["prompt"], ["evaluate", "--oracle"]], ids=lambda c: c[0])
def test_record_without_entities_is_diagnosed(kind, command, tmp_path, capsys):
    # Such a record loads, and building its prompt used to end in a traceback.
    with open(RAINBOW, encoding="utf-8") as handle:
        good = handle.read()
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(good + json.dumps(NO_ENTITIES[kind]) + "\n", encoding="utf-8")
    out = tmp_path / "out.json"
    assert main([*command, "--input", str(dataset), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: record 1: ") and "entities" in err
    assert not out.exists()


def test_encode_keeps_screen_only_records(tmp_path):
    dataset = tmp_path / "screen.jsonl"
    dataset.write_text(json.dumps(NO_ENTITIES["onscreen"]) + "\n", encoding="utf-8")
    out = tmp_path / "parses.jsonl"
    assert main(["encode", "--input", str(dataset), "--output", str(out)]) == 0
    assert read_jsonl(out) == [{"id": 0, "parse_text": "Hello"}]


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def usage_error(argv, capsys) -> str:
    """The stderr of a run that must stop with a usage error (exit 2)."""
    with pytest.raises(SystemExit) as stopped:
        main(argv)
    assert stopped.value.code == 2
    return capsys.readouterr().err


class TestStrategyValidation:
    # --strategy is an encode flag; prompts always need injected markers.
    def test_prompt_rejects_grab(self, capsys):
        err = usage_error(["prompt", "--input", REALTOR, "--strategy", "grab"], capsys)
        assert "unrecognized arguments: --strategy grab" in err

    def test_evaluate_rejects_cluster(self, capsys):
        err = usage_error(["evaluate", "--input", REALTOR, "--oracle", "--strategy", "cluster"], capsys)
        assert "unrecognized arguments: --strategy cluster" in err

    @pytest.mark.parametrize(
        "strategy, flag, value",
        [
            ([], "--eps", "15"),
            (["--strategy", "grab"], "--eps", "15"),
            ([], "--min-pts", "2"),
            (["--strategy", "injected"], "--min-pts", "1"),
            (["--strategy", "cluster"], "--margin", "3"),
        ],
    )
    def test_encode_rejects_flag_its_strategy_ignores(self, strategy, flag, value, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        argv = ["encode", "--input", BRANCHES, "--output", str(out), *strategy, flag, value]
        err = usage_error(argv, capsys)
        assert f"argument {flag}: not used by --strategy" in err
        assert not out.exists()



CLUSTER = ["encode", "--input", BRANCHES, "--strategy", "cluster"]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["encode", "--input", REALTOR], "--margin", "-1"),
        (["encode", "--input", REALTOR], "--margin", "nan"),
        (["prompt", "--input", REALTOR], "--margin", "nan"),
        (CLUSTER, "--eps", "nan"),
        (CLUSTER, "--eps", "-1"),
        (CLUSTER, "--eps", "0"),
        (CLUSTER, "--min-pts", "0"),
        (["generate", "--output", "{out}"], "--negatives", "-1"),
        (["generate", "--output", "{out}"], "--max-samples", "-1"),
        (["evaluate", "--input", RAINBOW, "--oracle"], "--workers", "0"),
        (["evaluate", "--input", RAINBOW, "--oracle"], "--workers", "two"),
    ],
    ids=lambda param: param[0] if isinstance(param, list) else param,
)
def test_bad_numeric_flag_is_a_usage_error(command, flag, value, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    with pytest.raises(SystemExit) as stopped:
        main([arg.format(out=out) for arg in command] + [flag, value])
    assert stopped.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, message",
    [
        ("negatives", "pool of 75 cannot supply 1000 negatives"),
        ("deep-template", "deep.yaml: "),
        ("deep-rules", "deep.yaml: "),
    ],
)
def test_refusal_is_an_error_line_not_a_traceback(name, message, tmp_path, capsys):
    # A plain ValueError from the library, and a RecursionError from the YAML
    # parser, used to escape main and end the command in a traceback.
    out = str(tmp_path / "out")
    deep = tmp_path / "deep.yaml"
    if name == "deep-template":
        deep.write_text(f'variations: {DEEP_LIST}\nground_truth_types: ["person"]\n', encoding="utf-8")
    else:
        deep.write_text(f"- type: a\n  fields: {DEEP_LIST}\n", encoding="utf-8")
    argv = {
        "negatives": ["generate", "--output", out, "--negatives", "1000"],
        "deep-template": ["generate", "--input", str(deep), "--output", out],
        "deep-rules": ["prompt", "--input", RAINBOW, "--output", out, "--rules", str(deep)],
    }[name]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
