"""CLI subcommands, overrides, and exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
from collections import Counter

import pytest

from concernminer.cli import main
from concernminer.errors import ValidationError
from concernminer.hypotheses import builtin_domain_mh, hypothesis_set_to_dict, save_hypothesis_set
from concernminer.nli import MockNliBackend, load_matrix
from concernminer.pipeline import (
    ANNOTATION_STATE_FILE,
    EXTRACTED_FILE,
    LLM_FAILURES_FILE,
    MANIFEST_FILE,
    NLI_CACHE_FILE,
    PSEUDO_LABELS_FILE,
    QUEUE_FILE,
    VOTES_FILE,
)

from httpserver import KeepAliveHandler, serve
from synth import build_extraction_fixture, build_labeled_fixture, extraction_config, selection_config, write_weak_table


@pytest.fixture()
def extraction_setup(tmp_path):
    data_dir = tmp_path / "data"
    ledger = build_extraction_fixture(data_dir, n_privacy=8, n_benign_low=22, n_high=3, n_yes=4)
    raw = extraction_config(data_dir, tmp_path / "run")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    return ledger, config_path, tmp_path / "run"


def test_missing_config_is_validation_error(tmp_path, capsys):
    assert main(["extract", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_ingest(extraction_setup, capsys):
    _, config_path, workdir = extraction_setup
    assert main(["ingest", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "unlabeled: 33 reviews ingested" in out
    assert (workdir / "corpus_unlabeled.jsonl").exists()


def test_stage_commands_compose(extraction_setup, capsys):
    ledger, config_path, workdir = extraction_setup
    assert main(["nli-score", "--config", str(config_path)]) == 0
    assert main(["nli-label", "--config", str(config_path)]) == 0
    assert main(["llm-classify", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert f"scored {ledger.rating_filtered} reviews x 21 hypotheses" in out
    assert f"maybe-privacy: {ledger.maybe_privacy}" in out
    assert f"yes={ledger.llm_yes} no={ledger.llm_no} failed=0" in out
    # Run in order, the stage commands write what extract writes, and the
    # score matrix besides, which only nli-score writes.
    whole = workdir.parent / "whole"
    assert main(["extract", "--config", str(config_path), "--workdir", str(whole)]) == 0
    assert len(list(workdir.glob("matrix_*.bin"))) == 1 and not list(whole.glob("matrix_*"))
    names = [NLI_CACHE_FILE, PSEUDO_LABELS_FILE, VOTES_FILE, LLM_FAILURES_FILE]
    for name in names:
        assert (workdir / name).read_bytes() == (whole / name).read_bytes(), name


def test_nli_label_after_extract_alone_exits_2_and_keeps_the_pseudo_labels(extraction_setup, capsys):
    _, config_path, workdir = extraction_setup
    assert main(["extract", "--config", str(config_path)]) == 0
    pseudo_labels = (workdir / PSEUDO_LABELS_FILE).read_bytes()
    capsys.readouterr()
    assert main(["nli-label", "--config", str(config_path)]) == 2
    assert "run nli-score first" in capsys.readouterr().err
    assert (workdir / PSEUDO_LABELS_FILE).read_bytes() == pseudo_labels


@pytest.mark.parametrize("cell", [1.5, float("nan")], ids=["above-1", "nan"])
def test_matrix_cell_outside_0_1_exits_2(extraction_setup, capsys, cell):
    _, config_path, workdir = extraction_setup
    assert main(["nli-score", "--config", str(config_path)]) == 0
    (path,) = workdir.glob("matrix_*.bin")
    blob = path.read_bytes()
    at = blob.index(b"\n") + 1 + 4 * 3  # the fourth cell: min and max pass over a NaN after the first
    path.write_bytes(blob[:at] + struct.pack("<f", cell) + blob[at + 4 :])
    with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
        load_matrix(path)
    capsys.readouterr()

    assert main(["nli-label", "--config", str(config_path)]) == 2
    assert "score grid contains values outside [0, 1]" in capsys.readouterr().err
    assert not (workdir / PSEUDO_LABELS_FILE).exists()


def test_llm_classify_ignores_votes_of_demoted_reviews(extraction_setup, capsys):
    ledger, config_path, workdir = extraction_setup
    for command in ("nli-score", "nli-label", "llm-classify"):
        assert main([command, "--config", str(config_path)]) == 0
    pseudo_path = workdir / PSEUDO_LABELS_FILE
    demoted = {ledger.yes_ids[0], ledger.no_ids[0]}
    rows = [json.loads(line) for line in pseudo_path.read_text().splitlines()]
    for row in rows:
        if row["review_id"] in demoted:
            row["label"] = "maybe-not-privacy"
    pseudo_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    (workdir / LLM_FAILURES_FILE).unlink()
    capsys.readouterr()

    assert main(["llm-classify", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    maybe = ledger.maybe_privacy - 2
    assert f"classified {maybe} maybe-privacy reviews: yes={ledger.llm_yes - 1} no={ledger.llm_no - 1} failed=0" in out
    assert (workdir / LLM_FAILURES_FILE).read_text() == ""


def test_llm_classify_refuses_pseudo_labels_of_the_other_corpus(extraction_setup, capsys):
    ledger, config_path, workdir = extraction_setup
    unlabeled = config_path.parent / "data" / "reviews.csv"
    labeled = unlabeled.with_name("labeled.csv")  # the same reviews under other ids
    labeled.write_text(unlabeled.read_text().replace("\nr", "\nL"))
    raw = json.loads(config_path.read_text())
    raw["corpus"]["labeled"] = str(labeled)
    config_path.write_text(json.dumps(raw))
    assert main(["nli-score", "--config", str(config_path), "--role", "labeled"]) == 0
    assert main(["nli-label", "--config", str(config_path)]) == 0
    capsys.readouterr()

    assert main(["llm-classify", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"labels none of the {ledger.rating_filtered} unlabeled reviews" in err
    assert "run nli-score --role unlabeled and nli-label first" in err
    assert not (workdir / VOTES_FILE).exists() and not (workdir / LLM_FAILURES_FILE).exists()

    assert main(["llm-classify", "--config", str(config_path), "--role", "labeled"]) == 0
    assert f"classified {ledger.maybe_privacy} maybe-privacy reviews" in capsys.readouterr().out


@pytest.mark.parametrize("command, previous", [("nli-label", "nli-score"), ("llm-classify", "nli-label")])
def test_stage_command_needs_previous_stage_output(extraction_setup, capsys, command, previous):
    _, config_path, _ = extraction_setup
    assert main([command, "--config", str(config_path)]) == 2
    assert f"run {previous} first" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    ["ingest", "nli-score", "nli-label", "llm-classify", "evaluate", "select", "extract", "annotate", "export"],
)
def test_zero_max_inflight_rejected_at_config_load(extraction_setup, capsys, command):
    _, config_path, workdir = extraction_setup
    extra = ["--output", str(workdir.parent / "out.csv")] if command == "export" else []
    assert main([command, "--config", str(config_path), "--max-inflight", "0", *extra]) == 2
    assert "max_inflight must be >= 1" in capsys.readouterr().err
    assert not workdir.exists()


def test_extract_then_annotate_then_export(extraction_setup, tmp_path, capsys):
    ledger, config_path, workdir = extraction_setup
    assert main(["extract", "--config", str(config_path)]) == 0
    assert (workdir / MANIFEST_FILE).exists()
    assert (workdir / QUEUE_FILE).exists()

    responses = {
        annotator: {rid: "privacy" for rid in ledger.yes_ids}
        for annotator in ("lead", "ann-b", "ann-c", "ann-d")
    }
    responses_path = tmp_path / "responses.json"
    responses_path.write_text(json.dumps(responses))
    assert main(["annotate", "--config", str(config_path), "--responses", str(responses_path)]) == 0

    out_path = tmp_path / "dataset.csv"
    assert main(["export", "--config", str(config_path), "--output", str(out_path)]) == 0
    output = capsys.readouterr().out
    assert f"confirmed={ledger.llm_yes}" in output
    assert f"exported {ledger.llm_yes}" in output
    assert out_path.exists()


@pytest.fixture()
def selection_setup(tmp_path):
    build_labeled_fixture(
        tmp_path / "labeled.csv",
        n_pos_strong=20,
        n_pos_benign=4,
        n_neg_strong=6,
        n_neg_weak=4,
        n_neg_benign=30,
    )
    weak = write_weak_table(tmp_path / "weak.json")
    raw = selection_config(tmp_path / "labeled.csv", tmp_path / "run", weak)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    return config_path


def test_select_and_evaluate(selection_setup, tmp_path, capsys):
    config_path = selection_setup
    assert main(["select", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "best: mock-nli-a + mh-domain-21" in out

    assert main(["evaluate", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "nli: P=" in out
    metrics_payload = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics_payload["nli"]["tp"] == 20


def test_repeated_nli_backend_name_exits_2_before_any_workdir_write(selection_setup, capsys):
    config_path = selection_setup
    raw = json.loads(config_path.read_text())
    for backend in raw["nli"]["backends"]:  # the default trigger table, then the weak one
        backend["name"] = "same"
    config_path.write_text(json.dumps(raw))

    assert main(["select", "--config", str(config_path)]) == 2
    assert "NLI backend names must be unique; repeated: same" in capsys.readouterr().err
    assert not (config_path.parent / "run").exists()


def test_nli_backend_names_sharing_a_matrix_file_slug_exit_2_before_any_workdir_write(selection_setup, capsys):
    config_path = selection_setup
    raw = json.loads(config_path.read_text())
    for backend, name in zip(raw["nli"]["backends"], ("m a", "m/a")):  # both would write matrix_m-a_<hash>.bin
        backend["name"] = name
    config_path.write_text(json.dumps(raw))

    assert main(["select", "--config", str(config_path)]) == 2
    assert "NLI backend names 'm a' and 'm/a' share the matrix file name slug" in capsys.readouterr().err
    assert not (config_path.parent / "run").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda raw: raw["nli"]["backends"][0].update(endpoint="http://127.0.0.1:9/nli", response_fields=["a"]),
            "response_fields must be an object or null, not ['a']",
        ),
        (lambda raw: raw["nli"]["backends"][0].update(mock_table=5), "mock_table must be a string or null, not 5"),
        (lambda raw: raw.update(annotators="alice"), "annotators must be a list of strings, not 'alice'"),
        (lambda raw: raw.update(annotators=["lead", 2]), "annotators must be a list of strings, not ['lead', 2]"),
        (
            lambda raw: raw["nli"]["backends"][0].update(endpoint="http://127.0.0.1:9/nli", response_fields={"entailment": 5}),
            "response_fields['entailment'] must be a non-empty string, not 5",
        ),
        (
            lambda raw: raw["nli"]["backends"][0].update(response_fields={"entailment": ""}),
            "response_fields['entailment'] must be a non-empty string, not ''",
        ),
        (
            lambda raw: raw["nli"]["backends"][0].update(
                endpoint="http://127.0.0.1:9/nli", response_fields={"entailement": "entail"}
            ),
            "response_fields key 'entailement' is not one of entailment, neutral, contradiction",
        ),
        (lambda raw: raw["corpus"].update(format="xml"), "corpus.format must be 'csv', 'jsonl' or absent, not 'xml'"),
        (lambda raw: raw["llm"].update(sampling={"num_samples": True}), "num_samples must be an integer, not True"),
        (lambda raw: raw["llm"].update(sampling={"num_samples": 5.5}), "num_samples must be an integer, not 5.5"),
        (lambda raw: raw["llm"].update(sampling={"temperature": True}), "temperature must be a number, not True"),
        (lambda raw: raw["nli"]["backends"][0].update(max_inflight=1.9), "max_inflight must be an integer, not 1.9"),
        (lambda raw: raw["llm"]["backend"].update(max_retries=True), "max_retries must be an integer, not True"),
        (lambda raw: raw["llm"]["backend"].update(timeout="30"), "timeout must be a number, not '30'"),
        (lambda raw: raw.update(seed=1.5), "seed must be an integer, not 1.5"),
        (lambda raw: raw["corpus"].update(rating_min=1.9), "rating_min must be an integer, not 1.9"),
        (lambda raw: raw["nli"]["backends"][0].update(name=5), "name must be a string, not 5"),
        (lambda raw: raw.update(workdir=True), "workdir must be a string, not True"),
        (lambda raw: raw["hypotheses"].update(extraction=5), "hypotheses.extraction must be a string, not 5"),
        (lambda raw: raw["corpus"].update(unlabeled=5), "unlabeled must be a string or null, not 5"),
        (lambda raw: raw["llm"].update(script=["a.json"]), "script must be a string or null, not ['a.json']"),
    ],
    ids=[
        "response_fields-list",
        "mock_table-int",
        "annotators-string",
        "annotators-non-string-item",
        "response_fields-int-value",
        "response_fields-empty-value",
        "response_fields-unknown-key",
        "corpus_format-xml",
        "num_samples-true",
        "num_samples-fraction",
        "temperature-true",
        "max_inflight-fraction",
        "max_retries-true",
        "timeout-string",
        "seed-fraction",
        "rating_min-fraction",
        "backend_name-int",
        "workdir-true",
        "hypotheses_ref-int",
        "unlabeled-int",
        "script-list",
    ],
)
def test_config_field_of_the_wrong_json_type_exits_2_before_any_workdir_write(
    extraction_setup, tmp_path, capsys, edit, message
):
    _, config_path, workdir = extraction_setup
    raw = json.loads(config_path.read_text())
    edit(raw)
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps(raw))

    assert main(["extract", "--config", str(bad_config)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert f"error: {bad_config}: " in err
    assert not workdir.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: json.dumps(dict(raw, seed=1.5)), "seed must be an integer, not 1.5"),
        (lambda raw: json.dumps(dict(raw, corpus=dict(raw["corpus"], rating_min=4, rating_max=2))), "invalid rating bounds (4, 2)"),
        (lambda raw: json.dumps(dict(raw, nli=[raw["nli"]])), "'list' object has no attribute 'get'"),
        (lambda raw: json.dumps(raw)[:-1], "JSONDecodeError("),  # not a config error: its type is named, as before
    ],
    ids=["wrong-type", "validation", "wrong-shape", "not-json"],
)
def test_config_error_prints_its_message_not_a_repr(extraction_setup, tmp_path, capsys, edit, message):
    _, config_path, workdir = extraction_setup
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(edit(json.loads(config_path.read_text())))

    assert main(["extract", "--config", str(bad_config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad_config}: {message}") and "ValidationError" not in err and "malformed config" not in err
    assert err.count("\n") == 1
    assert not workdir.exists()


def test_evaluate_leaves_a_torn_vote_file_as_it_is(selection_setup, tmp_path, capsys):
    config_path = selection_setup
    assert main(["select", "--config", str(config_path)]) == 0
    assert main(["llm-classify", "--config", str(config_path), "--role", "labeled"]) == 0
    votes = tmp_path / "votes_copy.jsonl"
    votes.write_bytes((tmp_path / "run" / VOTES_FILE).read_bytes()[:-15])
    before = votes.read_bytes()
    capsys.readouterr()

    assert main(["evaluate", "--config", str(config_path), "--votes", str(votes)]) == 2
    assert f"error: {votes}:{len(before.splitlines())}: corrupt line" in capsys.readouterr().err
    assert votes.read_bytes() == before


def test_pseudo_labels_in_the_previous_shape_feed_llm_classify_and_evaluate_alike(selection_setup, tmp_path):
    """Earlier versions wrote ``threshold`` and ``triggered`` on every row, null and empty where no clause fired."""
    config_path = selection_setup
    assert main(["select", "--config", str(config_path)]) == 0
    workdir, previous = tmp_path / "run", tmp_path / "previous"
    shutil.copytree(workdir, previous)
    lines = (previous / PSEUDO_LABELS_FILE).read_text().splitlines()
    records = [{"threshold": None, "triggered": []} | json.loads(line) for line in lines]
    assert 0 < sum("threshold" not in line for line in lines) < len(lines)
    (previous / PSEUDO_LABELS_FILE).write_text("".join(json.dumps(record, sort_keys=True) + "\n" for record in records))

    for run in (workdir, previous):
        common = ["--config", str(config_path), "--workdir", str(run)]
        assert main(["llm-classify", *common, "--role", "labeled"]) == 0
        assert main(["evaluate", *common, "--pseudo", str(run / PSEUDO_LABELS_FILE)]) == 0
    for name in (VOTES_FILE, LLM_FAILURES_FILE, "metrics.json"):
        assert (previous / name).read_bytes() == (workdir / name).read_bytes(), name


@pytest.mark.parametrize("flag", ["--pseudo", "--votes"])
def test_evaluate_named_file_must_exist(selection_setup, tmp_path, capsys, flag):
    config_path = selection_setup
    assert main(["select", "--config", str(config_path)]) == 0
    assert main(["evaluate", "--config", str(config_path)]) == 0
    workdir = tmp_path / "run"
    before = snapshot(workdir)
    missing = tmp_path / "missing.jsonl"
    capsys.readouterr()

    assert main(["evaluate", "--config", str(config_path), flag, str(missing)]) == 2
    assert f"error: {missing}:" in capsys.readouterr().err
    assert snapshot(workdir) == before


def test_evaluate_writes_labeled_rejects_into_the_workdir(selection_setup, tmp_path):
    config_path = selection_setup
    labeled = tmp_path / "labeled.csv"
    with labeled.open("a") as handle:
        handle.write("bad-row,app,google_play,9,a rating out of range,1,\n")
    assert main(["evaluate", "--config", str(config_path)]) == 0
    assert not (tmp_path / "labeled.csv.rejects.jsonl").exists()
    rejects = (tmp_path / "run" / "rejects_labeled.jsonl").read_text().splitlines()
    assert len(rejects) == 1


def snapshot(workdir):
    """Bytes and modification time of every workdir file, so a rewrite with
    the same bytes also shows."""
    return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "command, bad",
    [
        ("extract", "hypotheses"),
        ("extract", "mock_table"),
        ("extract", "script"),
        ("select", "hypotheses"),
        ("select", "mock_table"),
        ("nli-score", "hypotheses"),
        ("nli-score", "mock_table"),
        ("llm-classify", "hypotheses"),
        ("llm-classify", "script"),
    ],
)
def test_bad_input_file_exits_2_before_any_workdir_write(extraction_setup, tmp_path, capsys, command, bad):
    _, config_path, workdir = extraction_setup
    raw = json.loads(config_path.read_text())
    raw["corpus"]["labeled"] = raw["corpus"]["unlabeled"]
    if command == "llm-classify":
        assert main(["nli-score", "--config", str(config_path)]) == 0
        assert main(["nli-label", "--config", str(config_path)]) == 0
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    if bad == "hypotheses":
        raw["hypotheses"] = {"generic": str(garbage), "domain": str(garbage), "extraction": str(garbage)}
    elif bad == "mock_table":
        raw["nli"]["backends"][0]["mock_table"] = str(garbage)
    else:
        raw["llm"]["script"] = str(garbage)
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps(raw))
    before = snapshot(workdir) if workdir.exists() else None
    capsys.readouterr()

    assert main([command, "--config", str(bad_config)]) == 2
    assert f"error: {garbage}:" in capsys.readouterr().err
    assert (snapshot(workdir) if workdir.exists() else None) == before


def _set_file(edit):
    raw = hypothesis_set_to_dict(builtin_domain_mh())
    edit(raw)
    return raw


@pytest.mark.parametrize(
    "kind, content, message",
    [
        ("hypotheses", _set_file(lambda raw: raw["hypotheses"][2].update(id=3.7)), "hypothesis id must be an integer, not 3.7"),
        ("hypotheses", _set_file(lambda raw: raw["hypotheses"][0].update(id=True)), "hypothesis id must be an integer, not True"),
        ("hypotheses", _set_file(lambda raw: raw["hypotheses"][0].update(text=5)), "hypothesis text must be a string, not 5"),
        (
            "hypotheses",
            _set_file(lambda raw: raw["heuristics"].update(positive_rules=[["0.85", 1]])),
            "positive rule threshold must be a number, not '0.85'",
        ),
        (
            "hypotheses",
            _set_file(lambda raw: raw["heuristics"].update(positive_rules=[[0.85, 1.9]])),
            "positive rule min_count must be an integer, not 1.9",
        ),
        (
            "hypotheses",
            _set_file(lambda raw: raw["heuristics"].update(positive_rules=[[0.85]])),
            "positive rule must be [threshold, min_count], not [0.85]",
        ),
        (
            "hypotheses",
            _set_file(lambda raw: raw["heuristics"].update(positive_rules=[[0.85, 1, 2]])),
            "positive rule must be [threshold, min_count], not [0.85, 1, 2]",
        ),
        (
            "hypotheses",
            _set_file(lambda raw: raw["heuristics"].update(positive_rules=[0.85])),
            "positive rule must be [threshold, min_count], not 0.85",
        ),
        (
            "hypotheses",
            _set_file(lambda raw: raw["heuristics"].update(negative_rule=[0.4, 0.9])),
            "negative_rule must be null or [threshold], not [0.4, 0.9]",
        ),
        ("hypotheses", _set_file(lambda raw: raw["heuristics"].update(negative_rule=0.4)), "negative_rule must be null or [threshold], not 0.4"),
        ("hypotheses", _set_file(lambda raw: raw["heuristics"].update(negative_rule=[])), "negative_rule must be null or [threshold], not []"),
        (
            "hypotheses",
            _set_file(lambda raw: raw["heuristics"].update(negative_rule=["0.4"])),
            "negative_rule threshold must be a number, not '0.4'",
        ),
        ("mock_table", [["data trackers", "12", 0.92]], "trigger ids must be a list, not '12'"),
        ("mock_table", [["data trackers", [14.9], 0.92]], "trigger id must be an integer, not 14.9"),
        ("script", {"r1": "yes"}, "the responses to 'r1' must be a list, not 'yes'"),
    ],
    ids=[
        "set-id-fraction",
        "set-id-true",
        "set-text-int",
        "set-threshold-string",
        "set-min_count-fraction",
        "set-positive-rule-one-value",
        "set-positive-rule-three-values",
        "set-positive-rule-number",
        "set-negative-rule-two-values",
        "set-negative-rule-number",
        "set-negative-rule-empty",
        "set-negative-threshold-string",
        "table-ids-string",
        "table-id-fraction",
        "script-responses-string",
    ],
)
def test_user_file_value_of_the_wrong_json_type_exits_2_before_any_workdir_write(
    extraction_setup, tmp_path, capsys, kind, content, message
):
    _, config_path, workdir = extraction_setup
    raw = json.loads(config_path.read_text())
    user_file = tmp_path / f"{kind}.json"
    user_file.write_text(json.dumps(content))
    if kind == "hypotheses":
        raw["hypotheses"]["extraction"] = str(user_file)
    elif kind == "mock_table":
        raw["nli"]["backends"][0]["mock_table"] = str(user_file)
    else:
        raw["llm"]["script"] = str(user_file)
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps(raw))

    assert main(["extract", "--config", str(bad_config)]) == 2
    assert capsys.readouterr().err == f"error: {user_file}: {message}\n"
    assert not workdir.exists()


@pytest.mark.parametrize("earlier_session", [False, True], ids=["no-state", "state"])
def test_responses_label_out_of_contract_exits_2_before_the_session(extraction_setup, tmp_path, capsys, earlier_session):
    """A ``--responses`` label other than privacy, non_privacy or skip exits
    2 naming the file when it is read: no annotation state is created, and
    an existing one is left byte for byte."""
    _, config_path, workdir = extraction_setup
    assert main(["extract", "--config", str(config_path)]) == 0
    ids = [json.loads(line)["id"] for line in (workdir / QUEUE_FILE).read_text().splitlines()]
    if earlier_session:
        first = tmp_path / "first.json"
        first.write_text(json.dumps({"lead": dict.fromkeys(ids[:2], "privacy")}))
        assert main(["annotate", "--config", str(config_path), "--responses", str(first)]) == 0
        assert (workdir / ANNOTATION_STATE_FILE).exists()
    before = snapshot(workdir)
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps({"lead": dict.fromkeys(ids, "privacy"), "ann-b": {ids[0]: "yes"}}))
    capsys.readouterr()

    assert main(["annotate", "--config", str(config_path), "--responses", str(responses)]) == 2
    message = f"the label of 'ann-b' for {ids[0]!r} must be privacy, non_privacy or skip, not 'yes'"
    assert capsys.readouterr().err == f"error: {responses}: {message}\n"
    assert snapshot(workdir) == before
    assert (workdir / ANNOTATION_STATE_FILE).exists() == earlier_session


@pytest.mark.parametrize("flag, backend", [("--nli-endpoint", "mock-nli-a"), ("--llm-endpoint", "mock-llm")])
def test_bad_endpoint_exits_2_before_any_workdir_write(extraction_setup, capsys, flag, backend):
    _, config_path, workdir = extraction_setup
    assert main(["nli-score", "--config", str(config_path)]) == 0
    before = snapshot(workdir)
    capsys.readouterr()

    assert main(["extract", "--config", str(config_path), flag, "localhost:8000/nli"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"backend {backend!r}: endpoint must be" in err
    assert snapshot(workdir) == before


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
def test_non_finite_temperature_exits_2_before_any_workdir_write(extraction_setup, tmp_path, capsys, temperature):
    _, config_path, workdir = extraction_setup
    raw = json.loads(config_path.read_text())
    raw["llm"].setdefault("sampling", {})["temperature"] = temperature
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps(raw))

    assert main(["extract", "--config", str(bad_config)]) == 2
    assert "temperature must be a finite number" in capsys.readouterr().err
    assert not workdir.exists()


@pytest.mark.parametrize(
    "block, key, value, message",
    [
        ("nli", "timeout", float("nan"), "timeout must be a finite number > 0"),
        ("llm", "timeout", float("inf"), "timeout must be a finite number > 0"),
        ("nli", "timeout", 1e10, "timeout must be a finite number > 0 and <= 86400"),  # too large for a socket
        ("nli", "max_retries", float("inf"), "max_retries must be an integer, not inf"),
        ("llm", "max_inflight", float("inf"), "max_inflight must be an integer, not inf"),
    ],
    ids=["nli-timeout-nan", "llm-timeout-inf", "nli-timeout-1e10", "nli-max_retries-inf", "llm-max_inflight-inf"],
)
def test_non_finite_backend_setting_exits_2_before_any_workdir_write(
    extraction_setup, tmp_path, capsys, block, key, value, message
):
    _, config_path, workdir = extraction_setup
    raw = json.loads(config_path.read_text())
    backend = raw["nli"]["backends"][0] if block == "nli" else raw["llm"]["backend"]
    backend.update({"endpoint": "http://127.0.0.1:9/" + block, key: value})
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps(raw))

    assert main(["extract", "--config", str(bad_config)]) == 2
    assert message in capsys.readouterr().err
    assert not workdir.exists()


def test_closed_stdout_exits_quietly(extraction_setup, tmp_path, monkeypatch, capsys):
    _, config_path, _ = extraction_setup
    with open(tmp_path / "stdout", "w") as target:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["extract", "--config", str(config_path)]) == 1
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_seed_override_changes_digest(extraction_setup):
    _, config_path, workdir = extraction_setup
    assert main(["extract", "--config", str(config_path)]) == 0
    digest_a = json.loads((workdir / MANIFEST_FILE).read_text())["config_digest"]
    assert main(["extract", "--config", str(config_path), "--seed", "99", "--workdir", str(workdir.parent / "run2")]) == 0
    digest_b = json.loads((workdir.parent / "run2" / MANIFEST_FILE).read_text())["config_digest"]
    assert digest_a != digest_b


def test_relative_workdir_flag_is_taken_from_the_current_directory(extraction_setup, tmp_path, monkeypatch):
    _, config_path, _ = extraction_setup
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["extract", "--config", str(config_path), "--workdir", "out"]) == 0
    assert (cwd / "out" / MANIFEST_FILE).exists()
    assert not (config_path.parent / "out").exists()
    # A relative ``workdir`` key in the config file is taken from the config's directory.
    raw = json.loads(config_path.read_text())
    raw["workdir"] = "keyed"
    config_path.write_text(json.dumps(raw))
    assert main(["extract", "--config", str(config_path)]) == 0
    assert (config_path.parent / "keyed" / MANIFEST_FILE).exists()
    assert not (cwd / "keyed").exists()


def test_relative_hypotheses_flag_is_taken_from_the_current_directory(extraction_setup, tmp_path, monkeypatch):
    _, config_path, workdir = extraction_setup
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    save_hypothesis_set(builtin_domain_mh(), cwd / "myset.json")
    (config_path.parent / "myset.json").write_text("not a hypothesis set")  # the config's directory is not read
    monkeypatch.chdir(cwd)
    assert main(["extract", "--config", str(config_path), "--hypotheses", "myset.json"]) == 0
    from_cwd = json.loads((workdir / MANIFEST_FILE).read_text())
    assert from_cwd["hypothesis_set"]["version_hash"] == builtin_domain_mh().version_hash
    # A builtin: reference is not a path and stays as it is.
    assert main(["extract", "--config", str(config_path), "--hypotheses", "builtin:domain-mh"]) == 0
    assert json.loads((workdir / MANIFEST_FILE).read_text())["hypothesis_set"] == from_cwd["hypothesis_set"]


def test_backend_failure_without_progress_exits_3(extraction_setup, capsys):
    _, config_path, _ = extraction_setup
    code = main(
        [
            "extract",
            "--config",
            str(config_path),
            "--nli-endpoint",
            "http://127.0.0.1:9/nli",  # closed port: connection refused immediately
            "--workdir",
            str(config_path.parent / "run3"),
        ]
    )
    assert code == 3
    assert "backend error" in capsys.readouterr().err


def test_backend_failure_with_progress_exits_4(extraction_setup, capsys):
    _, config_path, _ = extraction_setup

    def respond(path, payload, n):
        if n <= 30:
            return 200, {"entailment": 0.1, "neutral": 0.6, "contradiction": 0.3}
        return 500, {"error": "quota exhausted"}

    with serve(respond) as (_, url):
        raw = json.loads(config_path.read_text())
        raw["nli"]["backends"][0]["endpoint"] = url
        raw["nli"]["backends"][0]["max_retries"] = 0
        raw["nli"]["backends"][0]["max_inflight"] = 1
        raw["workdir"] = str(config_path.parent / "run4")
        flaky_config = config_path.parent / "flaky.json"
        flaky_config.write_text(json.dumps(raw))
        code = main(["extract", "--config", str(flaky_config)])
    assert code == 4
    err = capsys.readouterr().err
    assert "rerun to resume" in err
    cache = config_path.parent / "run4" / "nli_cache.jsonl"
    assert cache.exists() and cache.read_text().strip()


@pytest.mark.parametrize("max_inflight", [1, 3])
def test_extract_resumes_through_wire_faults_to_the_outputs_of_a_clean_run(extraction_setup, capsys, max_inflight):
    _, config_path, _ = extraction_setup
    hypotheses = {h.text: h for h in builtin_domain_mh().hypotheses}
    scorer = MockNliBackend(seed=7)
    faults: dict = {}  # (path, request number on that path) -> the response that replaces the answer
    requests, answered, streak = Counter(), Counter(), Counter()
    wasted = 0  # well-formed answers to the LLM for a review whose vote then failed

    def respond(path, payload, n):  # the server calls it under its lock, one request at a time
        nonlocal wasted
        requests[path] += 1
        text = payload["premise"] if path == "/nli" else payload["messages"][1]["content"]
        if fault := faults.get((path, requests[path])):
            wasted += streak.pop(text, 0)
            return fault
        answered[path] += 1
        if path == "/nli":
            score = scorer.score_pair(text, hypotheses[payload["hypothesis"]])
            return 200, {"entailment": score.entail, "neutral": score.neutral, "contradiction": score.contradict}
        streak[text] = (streak[text] + 1) % 5  # a review's vote is complete at its fifth sample
        content = "yes" if hashlib.sha256(text.encode()).digest()[0] % 2 else "no"
        return 200, {"choices": [{"message": {"content": content}}]}

    with serve(respond, KeepAliveHandler) as (_, url):
        raw = json.loads(config_path.read_text())
        raw["nli"]["backends"][0].update(endpoint=url + "nli", max_retries=0, max_inflight=max_inflight)
        raw["llm"]["backend"].update(endpoint=url + "llm", max_retries=0, max_inflight=max_inflight)
        config_path.write_text(json.dumps(raw))
        clean, faulty = config_path.parent / "clean", config_path.parent / "faulty"
        assert main(["extract", "--config", str(config_path), "--workdir", str(clean)]) == 0
        clean_answers = dict(answered)
        for counter in (requests, answered, streak):
            counter.clear()
        messages = ("HTTP 503", "HTTP 429", "rejected with HTTP 400, not retried", "malformed")
        replies = ((503, {"error": "busy"}), (429, {"error": "slow down"}), (400, {"error": "bad"}), (200, b"<html>"))
        faults.update({("/nli", n): reply for n, reply in zip((1, 150, 300, 450), replies)})
        faults.update({("/llm", n): reply for n, reply in zip((3, 9, 16, 22), replies)})
        capsys.readouterr()

        nli_errors, llm_reasons = [], []
        for _ in range(len(faults) + 1):
            code = main(["extract", "--config", str(config_path), "--workdir", str(faulty)])
            assert code in (0, 3, 4)
            if code:
                nli_errors.append(capsys.readouterr().err)
                continue
            capsys.readouterr()
            llm_reasons += [json.loads(line)["reason"] for line in (faulty / LLM_FAILURES_FILE).read_text().splitlines()]
            if json.loads((faulty / MANIFEST_FILE).read_text())["counts"]["llm_failed"] == 0:
                break
        else:
            pytest.fail("extract did not finish within one round per fault and one more")
        scored = requests["/nli"]
        for workdir in (clean, faulty):
            assert main(["nli-score", "--config", str(config_path), "--workdir", str(workdir)]) == 0
        assert requests["/nli"] == scored  # each cache holds every cell

    # Each NLI fault ends one round, in the order they were served; each LLM
    # fault fails one review, and the reasons list the reviews in input order.
    assert len(nli_errors) == 4 and all(message in err for message, err in zip(messages, nli_errors))
    assert sorted(next(m for m in messages if m in reason) for reason in llm_reasons) == sorted(messages)
    (matrix,) = (p.name for p in clean.glob("matrix_*.bin"))  # of each cache, as nli-score wrote it
    for name in (MANIFEST_FILE, matrix, PSEUDO_LABELS_FILE, EXTRACTED_FILE, QUEUE_FILE):
        assert (faulty / name).read_bytes() == (clean / name).read_bytes(), name
    assert json.loads((clean / MANIFEST_FILE).read_text())["counts"]["llm_yes"] > 0
    assert answered["/llm"] == clean_answers["/llm"] + wasted
    if max_inflight == 1:
        assert answered["/nli"] == clean_answers["/nli"]
    else:  # a row scored ahead of the failing one is lost with it: at most 2 * max_inflight rows in flight
        assert answered["/nli"] <= clean_answers["/nli"] + 4 * 2 * max_inflight * 21


def test_export_requires_prior_stages(extraction_setup, capsys):
    _, config_path, _ = extraction_setup
    assert main(["export", "--config", str(config_path), "--output", "out.csv"]) == 2


def test_console_script_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "concernminer.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    for command in ("ingest", "nli-score", "extract", "annotate", "export"):
        assert command in result.stdout
