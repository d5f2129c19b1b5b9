"""CLI subcommands, overrides, and exit codes."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import struct
from base64 import b64decode, b64encode
from collections import Counter

import pytest

from concernminer._jsonl import Log, write_json
from concernminer.cli import main
from concernminer.config import load_config
from concernminer.hypotheses import (
    builtin_domain_mh,
    builtin_generic,
    hypothesis_set_to_dict,
    resolve_hypothesis_set,
)
from concernminer.llm.backends import MockLlmBackend
from concernminer.nli.backends import MockNliBackend
from concernminer.nli.scoring import ScoreCache, score_corpus
from concernminer.pipeline import (
    ANNOTATION_REPORT_FILE,
    ANNOTATION_STATE_FILE,
    EXTRACTED_FILE,
    LLM_FAILURES_FILE,
    MANIFEST_FILE,
    NLI_CACHE_FILE,
    PSEUDO_LABELS_FILE,
    SELECTION_REPORT_FILE,
    VOTES_FILE,
    prepare_corpus,
)

from httpserver import KeepAliveHandler, serve
from synth import build_extraction_fixture, build_labeled_fixture, extraction_config, selection_config, write_weak_table


def make_extraction(tmp_path):
    """An unlabeled corpus and its extraction config in ``tmp_path``: the ledger, the config path, the workdir."""
    data_dir = tmp_path / "data"
    ledger = build_extraction_fixture(data_dir, n_privacy=8, n_benign_low=22, n_high=3, n_yes=4)
    raw = extraction_config(data_dir, tmp_path / "run")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    return ledger, config_path, tmp_path / "run"


@pytest.fixture()
def extraction_setup(tmp_path):
    return make_extraction(tmp_path)


def cached_matrix(config_path, workdir):
    """The extraction set's score matrix of the unlabeled corpus, every cell read from the workdir's cache."""
    config = load_config(config_path, {"workdir": str(workdir)})
    hset = resolve_hypothesis_set(config.hypothesis_refs["extraction"], config.base_dir)
    _, _, corpus = prepare_corpus(config, "unlabeled")
    with ScoreCache(workdir / NLI_CACHE_FILE) as cache:
        return score_corpus(config.nli_backends[0].name, corpus, hset, cache=cache, max_inflight=1)


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
    # pseudo-labels that nli-label writes over extract's workdir; no command
    # writes a score matrix.
    whole = workdir.parent / "whole"
    assert main(["extract", "--config", str(config_path), "--workdir", str(whole)]) == 0
    assert not (whole / PSEUDO_LABELS_FILE).exists()
    assert main(["nli-label", "--config", str(config_path), "--workdir", str(whole)]) == 0
    assert not list(workdir.glob("matrix_*")) and not list(whole.glob("matrix_*"))
    names = [NLI_CACHE_FILE, PSEUDO_LABELS_FILE, VOTES_FILE, LLM_FAILURES_FILE, "rejects_unlabeled.jsonl"]
    for name in names:
        assert (workdir / name).read_bytes() == (whole / name).read_bytes(), name


def test_nli_label_after_extract_alone_labels_from_the_cache_with_no_backend(extraction_setup, capsys, monkeypatch):
    ledger, config_path, workdir = extraction_setup
    assert main(["extract", "--config", str(config_path)]) == 0
    cache = (workdir / NLI_CACHE_FILE).read_bytes()
    assert not (workdir / PSEUDO_LABELS_FILE).exists()

    def no_backend(*args, **kwargs):
        raise AssertionError("nli-label built a backend")

    monkeypatch.setattr("concernminer.cli.make_nli_backend", no_backend)
    monkeypatch.setattr("concernminer.pipeline.make_nli_backend", no_backend)
    assert main(["nli-label", "--config", str(config_path)]) == 0
    assert (workdir / NLI_CACHE_FILE).read_bytes() == cache
    # The labels are the ones extract classified and the provenance it wrote.
    labels = {r["review_id"]: r for r in map(json.loads, (workdir / PSEUDO_LABELS_FILE).read_text().splitlines())}
    maybe = {rid for rid, r in labels.items() if r["label"] == "maybe-privacy"}
    assert len(labels) == ledger.rating_filtered and len(maybe) == ledger.maybe_privacy
    assert maybe == {json.loads(line)["review_id"] for line in (workdir / VOTES_FILE).read_text().splitlines()}
    for record in map(json.loads, (workdir / EXTRACTED_FILE).read_text().splitlines()):
        label = labels[record["id"]]
        assert record["provenance"]["nli"] == {"threshold": label["threshold"], "triggered": label["triggered"]}


@pytest.mark.parametrize("cell", [1.5, float("nan")], ids=["above-1", "nan"])
def test_score_cell_outside_0_1_exits_2(extraction_setup, capsys, cell):
    _, config_path, workdir = extraction_setup
    assert main(["nli-score", "--config", str(config_path)]) == 0
    cache = workdir / NLI_CACHE_FILE
    first, *rest = cache.read_text().splitlines(keepends=True)
    record = json.loads(first)
    cells = b64decode(record["f32"])
    # The fourth cell: min and max pass over a NaN after the first.
    record["f32"] = b64encode(cells[:12] + struct.pack("<f", cell) + cells[16:]).decode("ascii")
    cache.write_text(json.dumps(record, sort_keys=True) + "\n" + "".join(rest))
    capsys.readouterr()

    assert main(["nli-label", "--config", str(config_path)]) == 2
    assert f"{cache}:1: corrupt log line: score grid contains values outside [0, 1]" in capsys.readouterr().err
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
    assert main(["nli-label", "--config", str(config_path), "--role", "labeled"]) == 0
    capsys.readouterr()

    assert main(["llm-classify", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"labels none of the {ledger.rating_filtered} unlabeled reviews" in err
    assert "run nli-score --role unlabeled and nli-label --role unlabeled first" in err
    assert not (workdir / VOTES_FILE).exists() and not (workdir / LLM_FAILURES_FILE).exists()

    assert main(["llm-classify", "--config", str(config_path), "--role", "labeled"]) == 0
    assert f"classified {ledger.maybe_privacy} maybe-privacy reviews" in capsys.readouterr().out


def test_llm_classify_over_pseudo_labels_of_some_reviews_classifies_only_those(extraction_setup, capsys, caplog):
    """A pseudo-label file that labels only some reviews of the role is used, with a warning that counts the
    labeled ones: only their maybe-privacy reviews are classified."""
    ledger, config_path, workdir = extraction_setup
    for command in ("nli-score", "nli-label"):
        assert main([command, "--config", str(config_path)]) == 0
    pseudo_path = workdir / PSEUDO_LABELS_FILE
    kept = [json.loads(line) for line in lines_of(pseudo_path)[::2]]  # every other review
    pseudo_path.write_text("".join(json.dumps(record) + "\n" for record in kept))
    maybe = [record["review_id"] for record in kept if record["label"] == "maybe-privacy"]
    assert 0 < len(maybe) < ledger.maybe_privacy
    capsys.readouterr()

    with caplog.at_level(logging.WARNING):
        assert main(["llm-classify", "--config", str(config_path)]) == 0
    assert f"{pseudo_path} labels {len(kept)} of the {ledger.rating_filtered} unlabeled reviews" in caplog.text
    assert f"classified {len(maybe)} maybe-privacy reviews" in capsys.readouterr().out
    assert [json.loads(line)["review_id"] for line in lines_of(workdir / VOTES_FILE)] == maybe


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


@pytest.mark.parametrize("flag", [True, False], ids=["flag", "file"])
def test_max_inflight_above_the_bound_rejected_at_config_load(extraction_setup, tmp_path, capsys, flag):
    """Fails at config load, so no worker thread is started; the bound itself loads."""
    _, config_path, workdir = extraction_setup
    if flag:
        argv = ["--config", str(config_path), "--max-inflight", "257"]
    else:
        raw = json.loads(config_path.read_text())
        raw["nli"]["backends"][0]["max_inflight"] = 257
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        argv = ["--config", str(tmp_path / "bad.json")]
    assert main(["extract", *argv]) == 2
    assert "max_inflight must be >= 1 and <= 256" in capsys.readouterr().err
    assert not workdir.exists()
    assert load_config(config_path, {"max_inflight": 256}).llm_backend.max_inflight == 256


def test_extract_rerun_keeps_the_human_counts_of_the_annotation_state(extraction_setup, tmp_path, capsys):
    ledger, config_path, workdir = extraction_setup
    assert main(["extract", "--config", str(config_path)]) == 0
    responses_path = tmp_path / "responses.json"
    responses_path.write_text(json.dumps({a: dict.fromkeys(ledger.yes_ids, "privacy") for a in ("lead", "ann-b", "ann-c", "ann-d")}))
    assert main(["annotate", "--config", str(config_path), "--responses", str(responses_path)]) == 0
    annotated = (workdir / MANIFEST_FILE).read_bytes()
    assert json.loads(annotated)["counts"]["human_confirmed"] == ledger.llm_yes
    state = workdir / ANNOTATION_STATE_FILE
    stamp = (state.stat().st_size, state.stat().st_mtime_ns)

    assert main(["extract", "--config", str(config_path)]) == 0
    assert (workdir / MANIFEST_FILE).read_bytes() == annotated
    assert (state.stat().st_size, state.stat().st_mtime_ns) == stamp


def test_unresolved_disagreements_warn_in_annotate_and_not_in_a_later_extract(extraction_setup, tmp_path, caplog):
    ledger, config_path, workdir = extraction_setup
    raw = json.loads(config_path.read_text())
    raw["annotators"] = ["lead", "ann-b"]  # no third identity to break a tie
    config_path.write_text(json.dumps(raw))
    assert main(["extract", "--config", str(config_path)]) == 0
    responses_path = tmp_path / "responses.json"
    split = ledger.yes_ids[:2]  # the two annotators disagree on these, and agree on the rest
    responses = {
        "lead": dict.fromkeys(ledger.yes_ids, "privacy"),
        "ann-b": {rid: "non_privacy" if rid in split else "privacy" for rid in ledger.yes_ids},
    }
    responses_path.write_text(json.dumps(responses))

    def warnings():
        return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING and "third annotator" in r.getMessage()]

    with caplog.at_level(logging.WARNING):
        assert main(["annotate", "--config", str(config_path), "--responses", str(responses_path)]) == 0
        assert sorted(warnings()) == sorted(f"no third annotator available for {rid}; leaving unresolved" for rid in split)
        annotated = {name: (workdir / name).read_bytes() for name in (MANIFEST_FILE, ANNOTATION_STATE_FILE)}
        assert json.loads(annotated[MANIFEST_FILE])["counts"]["human_confirmed"] == ledger.llm_yes - len(split)
        caplog.clear()
        assert main(["extract", "--config", str(config_path)]) == 0
        assert warnings() == []
    assert {name: (workdir / name).read_bytes() for name in annotated} == annotated


def test_extract_then_annotate_then_export(extraction_setup, tmp_path, capsys):
    ledger, config_path, workdir = extraction_setup
    assert main(["extract", "--config", str(config_path)]) == 0
    assert (workdir / MANIFEST_FILE).exists()
    assert (workdir / EXTRACTED_FILE).exists()

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


def make_selection(tmp_path):
    """A labeled corpus, a weak trigger table and their selection config in ``tmp_path``; returns the config path."""
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


@pytest.fixture()
def selection_setup(tmp_path):
    return make_selection(tmp_path)


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


def test_select_then_extract_then_evaluate_keeps_selects_pseudo_labels(selection_setup, tmp_path, capsys):
    """Step 1 and step 3 of the study in one workdir: extract keeps its labels of the unlabeled corpus in
    memory, so evaluate still scores select's labels, and the vote log of the unlabeled reviews alone,
    read by default, adds no LLM stage."""
    config_path = selection_setup
    build_extraction_fixture(tmp_path / "data", n_privacy=4, n_benign_low=6, n_high=1, n_yes=2)
    unlabeled = tmp_path / "data" / "reviews.csv"
    unlabeled.write_text(unlabeled.read_text().replace("\nr", "\nu"))  # ids apart from the gold reviews'
    raw = json.loads(config_path.read_text())
    raw["corpus"]["unlabeled"] = str(unlabeled)
    config_path.write_text(json.dumps(raw))
    workdir = tmp_path / "run"
    assert main(["select", "--config", str(config_path)]) == 0
    assert main(["evaluate", "--config", str(config_path)]) == 0
    selected = {name: (workdir / name).read_bytes() for name in (PSEUDO_LABELS_FILE, "metrics.json")}
    (workdir / "metrics.json").unlink()

    assert main(["extract", "--config", str(config_path)]) == 0
    assert (workdir / VOTES_FILE).exists()
    assert main(["evaluate", "--config", str(config_path)]) == 0
    assert {name: (workdir / name).read_bytes() for name in selected} == selected
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path), "--votes", str(workdir / VOTES_FILE)]) == 2
    assert "no overlap between gold labels and vote records" in capsys.readouterr().err


def test_extract_leaves_a_pseudo_label_file_as_it_is(extraction_setup):
    _, config_path, workdir = extraction_setup
    workdir.mkdir()
    pseudo = workdir / PSEUDO_LABELS_FILE
    pseudo.write_text("not a pseudo-label\n")  # extract neither reads nor rewrites it
    os.utime(pseudo, ns=(10**18, 10**18))
    assert main(["extract", "--config", str(config_path)]) == 0
    assert pseudo.read_text() == "not a pseudo-label\n" and pseudo.stat().st_mtime_ns == 10**18
    assert (workdir / EXTRACTED_FILE).exists()


def test_repeated_nli_backend_name_exits_2_before_any_workdir_write(selection_setup, capsys):
    config_path = selection_setup
    raw = json.loads(config_path.read_text())
    for backend in raw["nli"]["backends"]:  # the default trigger table, then the weak one
        backend["name"] = "same"
    config_path.write_text(json.dumps(raw))

    assert main(["select", "--config", str(config_path)]) == 2
    assert "NLI backend names must be unique; repeated: same" in capsys.readouterr().err
    assert not (config_path.parent / "run").exists()


def test_nli_backend_names_sharing_a_file_name_slug_are_both_scored(selection_setup, tmp_path):
    config_path = selection_setup
    raw = json.loads(config_path.read_text())
    for backend, name in zip(raw["nli"]["backends"], ("m a", "m/a")):  # one file-name form, m-a; no command writes a matrix file
        backend["name"] = name
    config_path.write_text(json.dumps(raw))

    assert main(["select", "--config", str(config_path)]) == 0
    report = json.loads((tmp_path / "run" / SELECTION_REPORT_FILE).read_text())
    assert sorted(c["id"] for c in report["models"]["candidates"]) == ["m a", "m/a"]
    scored = Counter(r["backend"] for r in Log(tmp_path / "run" / NLI_CACHE_FILE, ("backend", "set_hash")).read())
    assert scored["m a"] > 0 and scored["m/a"] > 0
    assert not list((tmp_path / "run").glob("matrix_*"))


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda raw: raw["nli"]["backends"][0].update(endpoint="http://127.0.0.1:9/nli", response_fields=["a"]),
            "response_fields must be an object or null, not ['a']",
        ),
        (lambda raw: raw["nli"]["backends"][0].update(mock_table=5), "mock_table must be a string or null, not 5"),
        (lambda raw: raw.update(annotators="alice"), "annotators must be a list, not 'alice'"),
        (lambda raw: raw.update(annotators=["lead", 2]), "annotator must be a string, not 2"),
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
        (lambda raw: raw.update(corpus=[]), "corpus must be an object, not []"),
        (lambda raw: raw.update(nli="mock"), "nli must be an object, not 'mock'"),
        (lambda raw: raw.update(llm=[]), "llm must be an object, not []"),
        (lambda raw: raw.update(hypotheses=["builtin:generic"]), "hypotheses must be an object, not ['builtin:generic']"),
        (lambda raw: raw["nli"].update(backends={"name": "m"}), "nli.backends must be a list, not {'name': 'm'}"),
        (lambda raw: raw["nli"].update(backends=[["m"]]), "nli.backends[0] must be an object, not ['m']"),
        (lambda raw: raw["llm"].update(backend="mock"), "llm.backend must be an object, not 'mock'"),
        (lambda raw: raw["llm"].update(sampling=[3]), "llm.sampling must be an object, not [3]"),
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
        "corpus-list",
        "nli-string",
        "llm-list",
        "hypotheses-list",
        "backends-object",
        "backend-list",
        "llm_backend-string",
        "sampling-list",
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
    "edit, flags, message",
    [
        (lambda raw: json.dumps(dict(raw, seed=1.5)), [], "seed must be an integer, not 1.5"),
        (lambda raw: json.dumps(dict(raw, corpus=dict(raw["corpus"], rating_min=4, rating_max=2))), [], "invalid rating bounds (4, 2)"),
        (lambda raw: json.dumps(dict(raw, nli=[raw["nli"]])), [], "nli must be an object, not [{"),
        (lambda raw: json.dumps(raw)[:-1], [], "JSONDecodeError("),  # not a config error: its type is named, as before
        # A flag is set on the parsed config, so the shape of the block it sets is checked first.
        (lambda raw: json.dumps(dict(raw, llm=[])), ["--max-inflight", "2"], "llm must be an object, not []"),
        (lambda raw: json.dumps(dict(raw, llm=[])), ["--llm-endpoint", "mock"], "llm must be an object, not []"),
        (
            lambda raw: json.dumps(dict(raw, nli={"backends": {"name": "m"}})),
            ["--max-inflight", "2"],
            "nli.backends must be a list, not {'name': 'm'}",
        ),
        (
            lambda raw: json.dumps(dict(raw, nli={"backends": {"name": "m"}})),
            ["--nli-endpoint", "mock"],
            "nli.backends must be a list, not {'name': 'm'}",
        ),
        (lambda raw: json.dumps(dict(raw, annotators=["you", "ann-b", "you"])), [], "annotators must be unique; repeated: you"),
        # A key no block knows is refused, naming it, not ignored.
        (lambda raw: json.dumps(dict(raw, notes="x")), [], "config has no key 'notes'; its keys are seed, workdir,"),
        (lambda raw: json.dumps(dict(raw, corpus=dict(raw["corpus"], unlabelled="x"))), [], "corpus has no key 'unlabelled'"),
        (
            lambda raw: json.dumps(dict(raw, hypotheses={"extration": "builtin:generic"})),
            [],
            "hypotheses has no key 'extration'; its keys are generic, domain, extraction",
        ),
        (lambda raw: json.dumps(dict(raw, nli=dict(raw["nli"], backend={}))), [], "nli has no key 'backend'; its keys are backends"),
        (
            lambda raw: json.dumps(dict(raw, nli={"backends": [dict(raw["nli"]["backends"][0], max_inflite=2)]})),
            ["--max-inflight", "2"],
            "nli.backends[0] has no key 'max_inflite'",
        ),
        (lambda raw: json.dumps(dict(raw, llm=dict(raw["llm"], scripts="x"))), [], "llm has no key 'scripts'"),
        (lambda raw: json.dumps(dict(raw, llm=dict(raw["llm"], backend={"model": "x"}))), [], "llm.backend has no key 'model'"),
        (
            lambda raw: json.dumps(dict(raw, llm=dict(raw["llm"], sampling={"num_sample": 3}))),
            [],
            "llm.sampling has no key 'num_sample'; its keys are temperature, top_p, num_samples, max_response_tokens",
        ),
    ],
    ids=[
        "wrong-type",
        "validation",
        "wrong-shape",
        "not-json",
        "llm-list-max-inflight",
        "llm-list-llm-endpoint",
        "backends-object-max-inflight",
        "backends-object-nli-endpoint",
        "annotator-repeated",
        "unknown-top-level-key",
        "unknown-corpus-key",
        "unknown-hypotheses-key",
        "unknown-nli-key",
        "unknown-nli-backend-key",
        "unknown-llm-key",
        "unknown-llm-backend-key",
        "unknown-sampling-key",
    ],
)
def test_config_error_prints_its_message_not_a_repr(extraction_setup, tmp_path, capsys, edit, flags, message):
    _, config_path, workdir = extraction_setup
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(edit(json.loads(config_path.read_text())))

    assert main(["extract", "--config", str(bad_config), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad_config}: {message}") and "ValidationError" not in err and "malformed config" not in err
    assert err.count("\n") == 1
    assert not workdir.exists()


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


def test_manifest_names_what_the_outputs_depend_on(extraction_setup, tmp_path, monkeypatch):
    """The digest and run id stay the same for a transport limit, a written-out
    default and a checkout copied elsewhere; a setting of the run changes them."""
    _, config_path, _ = extraction_setup
    raw = json.loads(config_path.read_text())
    del raw["seed"]
    raw["corpus"]["unlabeled"], raw["llm"]["script"] = "data/reviews.csv", "data/llm_script.json"
    config_path.write_text(json.dumps(raw))

    def manifest(config, *flags):
        workdir = tmp_path / f"w{len(list(tmp_path.glob('w*')))}"
        assert main(["extract", "--config", str(config), "--workdir", str(workdir), *flags]) == 0
        return (workdir / MANIFEST_FILE).read_bytes()

    plain = manifest(config_path)
    assert manifest(config_path, "--max-inflight", "2") == plain
    defaults = tmp_path / "defaults.json"
    written = dict(raw, seed=0, nli={"backends": [dict(raw["nli"]["backends"][0], timeout=30.0, max_retries=5)]})
    defaults.write_text(json.dumps(written))
    assert manifest(defaults) == plain
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "data", copy / "data")
    shutil.copy(config_path, copy / "config.json")
    assert manifest(copy / "config.json") == plain

    digest = load_config(config_path).digest
    assert load_config(config_path, {"seed": 99}).digest != digest
    assert load_config(config_path, {"llm_endpoint": "http://127.0.0.1:9/llm"}).digest != digest
    rating = tmp_path / "rating.json"
    rating.write_text(json.dumps(dict(raw, corpus=dict(raw["corpus"], rating_max=3))))
    assert load_config(rating).digest != digest
    # A set file named by the flag from the config's directory digests as the same file named in the config.
    write_json(tmp_path / "x.json", hypothesis_set_to_dict(builtin_domain_mh()))
    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps(dict(raw, hypotheses={"extraction": "x.json"})))
    monkeypatch.chdir(tmp_path)
    assert load_config(config_path, {"hypotheses": "x.json"}).digest == load_config(keyed).digest != digest


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
    write_json(cwd / "myset.json", hypothesis_set_to_dict(builtin_domain_mh()))
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
            assert main(["nli-label", "--config", str(config_path), "--workdir", str(workdir)]) == 0
        assert requests["/nli"] == scored  # each cache holds every cell

    # Each NLI fault ends one round, in the order they were served; each LLM
    # fault fails one review, and the reasons list the reviews in input order.
    assert len(nli_errors) == 4 and all(message in err for message, err in zip(messages, nli_errors))
    assert sorted(next(m for m in messages if m in reason) for reason in llm_reasons) == sorted(messages)
    for name in (MANIFEST_FILE, PSEUDO_LABELS_FILE, EXTRACTED_FILE):
        assert (faulty / name).read_bytes() == (clean / name).read_bytes(), name
    assert cached_matrix(config_path, faulty).scores.tobytes() == cached_matrix(config_path, clean).scores.tobytes()
    assert json.loads((clean / MANIFEST_FILE).read_text())["counts"]["llm_yes"] > 0
    assert answered["/llm"] == clean_answers["/llm"] + wasted
    if max_inflight == 1:
        assert answered["/nli"] == clean_answers["/nli"]
    else:  # a row scored ahead of the failing one is lost with it: at most 2 * max_inflight rows in flight
        assert answered["/nli"] <= clean_answers["/nli"] + 4 * 2 * max_inflight * 21


# Every command reads and checks all its inputs before its first write: one
# row per command and input it reads (corpus, cache, vote log, annotation
# state, pseudo-labels, set file, mock table, script, responses, and the
# workdir files annotate and export read), missing, damaged or mismatched.


class Prepared:
    """The fixture of one row: a config over a synthetic corpus (``extraction`` or ``selection``) in
    ``tmp_path``, and the commands that make its workdir, each of which must succeed."""

    def __init__(self, tmp_path, kind):
        self.tmp_path, self.workdir = tmp_path, tmp_path / "run"
        self.config_path = make_extraction(tmp_path)[1] if kind == "extraction" else make_selection(tmp_path)

    def run(self, command, *args):
        assert main([command, "--config", str(self.config_path), *args]) == 0

    def edit(self, change):
        """Apply ``change`` to the config file's JSON."""
        raw = json.loads(self.config_path.read_text())
        change(raw)
        self.config_path.write_text(json.dumps(raw))

    def responses(self, script=None):
        """A ``--responses`` file of ``script``, by default every annotator saying privacy to every extracted review."""
        if script is None:
            ids = [json.loads(line)["id"] for line in lines_of(self.workdir / EXTRACTED_FILE)]
            script = {annotator: dict.fromkeys(ids, "privacy") for annotator in ("lead", "ann-b", "ann-c", "ann-d")}
        path = self.tmp_path / "responses.json"
        path.write_text(json.dumps(script))
        return path


def lines_of(path):
    return path.read_text().splitlines(keepends=True)


def garbage_line(path, number):
    """Replace line ``number`` (from 1) of ``path`` with one that is not JSON."""
    lines = lines_of(path)
    lines[number - 1] = "{garbage\n"
    path.write_text("".join(lines))


def cut(path, n=20):
    """Cut the last ``n`` bytes off ``path``, as an outside edit or a copy cut short would."""
    path.write_bytes(path.read_bytes()[:-n])


def corrupt_line(path):
    """What stderr names for the last line of ``path``, which :func:`cut` left without its end."""
    return f"error: {path}:" + (f"{len(lines_of(path))}: corrupt line" if path.suffix == ".jsonl" else "")


BAD_INPUTS = []


def rows(kind, *variants):
    """Add one row of the table per variant (a string, or a tuple of the arguments after the fixture), or one
    row with no variant; ``prepare(fixture, *variant)`` returns the command's arguments, the path (or key) its
    stderr names, and the message."""

    def register(prepare):
        for variant in [(v,) if isinstance(v, str) else v for v in variants] or [()]:
            BAD_INPUTS.append(pytest.param(kind, prepare, variant, id="-".join([prepare.__name__, *variant])))
        return prepare

    return register


@rows("extraction", "extract", "ingest", "select", "ingest-with-labeled-present")
def missing_corpus(w, case):
    missing = w.tmp_path / "missing.csv"

    def change(raw):
        present = raw["corpus"]["unlabeled"]
        raw["corpus"] = {"labeled": str(missing), "unlabeled": str(missing)}
        if case == "ingest-with-labeled-present":  # ingest reads the labeled corpus first, yet writes nothing
            raw["corpus"]["labeled"] = present

    w.edit(change)
    return [case.split("-")[0]], missing, f"error: no such file: {missing}\n"


@rows("extraction", "extract", "ingest", "nli-score")
def corpus_not_matching_the_schema(w, command):
    corpus = w.tmp_path / "bad.csv"
    corpus.write_text("id,app,store,rating,text\na,app,other,9,rated nine\nb,app,other,1,fine\nc,app,other,,no rating\n")
    w.edit(lambda raw: raw.update(corpus={"unlabeled": str(corpus)}))
    reason = "rating 9 outside [1, 5]"
    return [command], corpus, f"error: {corpus}: 2 of 3 records rejected, the first on line 2: {reason}; file does not match the schema\n"


@rows("extraction", "ingest", "extract", "select", "evaluate")
def no_corpus_path(w, command):
    """The config names no corpus that the command reads (the extraction config names no labeled one)."""
    w.edit(lambda raw: raw["corpus"].pop("unlabeled"))
    key = {"ingest": "corpus.labeled or corpus.unlabeled", "extract": "corpus.unlabeled"}.get(command, "corpus.labeled")
    return [command], key, f"error: config has no {key} path\n"


@rows(
    "extraction",
    *[(command, bad) for command in ("extract", "select", "nli-score") for bad in ("hypotheses", "mock_table")],
    ("extract", "script"), ("llm-classify", "hypotheses"), ("llm-classify", "script"),
)
def input_file_not_json(w, command, bad):
    """A set file, mock table or LLM script that is not JSON."""
    if command == "llm-classify":
        w.run("nli-score")
        w.run("nli-label")
    garbage = w.tmp_path / "garbage.json"
    garbage.write_text("{not json")

    def change(raw):
        raw["corpus"]["labeled"] = raw["corpus"]["unlabeled"]
        if bad == "hypotheses":
            raw["hypotheses"] = {"generic": str(garbage), "domain": str(garbage), "extraction": str(garbage)}
        elif bad == "mock_table":
            raw["nli"]["backends"][0]["mock_table"] = str(garbage)
        else:
            raw["llm"]["script"] = str(garbage)

    w.edit(change)
    return [command], garbage, f"error: {garbage}:"


@rows(
    "extraction",
    *[(command, "builtin:nope") for command in ("extract", "nli-score", "nli-label", "llm-classify")],
    ("extract", "builtin:domain_mh"),  # once a second name of builtin:domain-mh, which digested differently
)
def unknown_builtin_set(w, command, ref):
    (w.tmp_path / ref).write_text("{}")  # a builtin: reference is never a path
    known = "builtin:generic and builtin:domain-mh"
    return [command, "--hypotheses", ref], ref, f"error: unknown hypothesis set '{ref}'; the built-in sets are {known}\n"


@rows("extraction", "nothing", "extract", "extract-without-rejects", "torn")
def nli_label_with_an_uncached_cell(w, before):
    cache = w.workdir / NLI_CACHE_FILE
    if before == "nothing":  # no cache: nli-label stops before it reads the corpus
        return ["nli-label"], cache, f"error: no NLI scores at {cache}; run nli-score first\n"
    w.run("extract")
    w.run("nli-label")
    lines = lines_of(cache)
    if before == "torn":  # the last review's row is torn: skipped with a warning, and left as it is
        cut(cache, 10)
    else:
        cache.write_text("".join(lines[:-1]))  # the last review's row is lost
    if before == "extract-without-rejects":  # a deleted report stays deleted
        (w.workdir / "rejects_unlabeled.jsonl").unlink()
    review_id, set_hash = json.loads(lines[-1])["review_id"], json.loads(lines[0])["set_hash"]
    message = f"error: {cache}: no mock-nli-a score of review {review_id!r} on set {set_hash}; run nli-score first"
    return ["nli-label"], cache, message if before == "torn" else message + "\n"  # the warning comes first


@rows("extraction", "extract", "nli-score")
@rows("selection", "select")
def corrupt_cache_line(w, command):
    """A damaged cache line, read before the rejects report (or anything else) is written."""
    w.run("select" if command == "select" else "extract")
    if command == "nli-score":
        w.run("nli-label")
        (w.workdir / "rejects_unlabeled.jsonl").unlink()
    cache = w.workdir / NLI_CACHE_FILE
    garbage_line(cache, 2)
    return [command], cache, f"{cache}:2: corrupt log line"


@rows("extraction")
def corrupt_vote_line_behind_a_short_cache(w):
    """The vote log is read before the rows that the cache lost are scored again."""
    w.run("extract")
    cache, votes = w.workdir / NLI_CACHE_FILE, w.workdir / VOTES_FILE
    cache.write_text("".join(lines_of(cache)[:5]))
    garbage_line(votes, 2)
    return ["extract"], votes, f"{votes}:2: corrupt log line"


@rows("extraction")
@rows("extraction", "torn-votes")
def corrupt_annotation_state_line(w, votes=None):
    """extract reads the annotation state before its first write, to keep the human counts; the torn last line
    of a vote log read before it is left as it is."""
    w.run("extract")
    w.run("annotate", "--responses", str(w.responses()))
    state = w.workdir / ANNOTATION_STATE_FILE
    if votes:
        cut(w.workdir / VOTES_FILE, 10)
    garbage_line(state, 2)
    return ["extract"], state, f"{state}:2: corrupt log line"


@rows("extraction", "missing", "other-reviews", "cut")
def llm_classify_pseudo_labels(w, damage):
    pseudo = w.workdir / PSEUDO_LABELS_FILE
    if damage == "missing":
        return ["llm-classify"], pseudo, f"error: no pseudo-labels at {pseudo}; run nli-label first\n"
    w.run("extract")
    w.run("nli-label")
    if damage == "cut":
        cut(pseudo)
        return ["llm-classify"], pseudo, corrupt_line(pseudo)
    records = [json.loads(line) for line in lines_of(pseudo)]
    pseudo.write_text("".join(json.dumps(dict(r, review_id="other-" + r["review_id"])) + "\n" for r in records))
    (w.workdir / "rejects_unlabeled.jsonl").unlink()
    return ["llm-classify"], pseudo, f"labels none of the {len(records)} unlabeled reviews"


@rows("extraction")
def annotate_before_extract(w):
    extracted = w.workdir / EXTRACTED_FILE
    return ["annotate", "--responses", str(w.responses({}))], extracted, f"error: no extracted reviews at {extracted}; run extraction first\n"


@rows("extraction", MANIFEST_FILE, EXTRACTED_FILE, (EXTRACTED_FILE, "without-manifest"), "responses")
def annotate_cut_input(w, name, without_manifest=None):
    w.run("extract")
    responses = w.responses()
    if without_manifest:
        (w.workdir / MANIFEST_FILE).unlink()
    path = responses if name == "responses" else w.workdir / name
    cut(path)
    return ["annotate", "--responses", str(responses)], path, corrupt_line(path)


@rows("extraction")
def annotate_queue_short_of_the_manifest(w):
    w.run("extract")
    responses, queue = w.responses(), w.workdir / EXTRACTED_FILE
    lines = lines_of(queue)
    queue.write_text("".join(lines[:-1]))  # well-formed, one review short
    return ["annotate", "--responses", str(responses)], queue, f"{queue} holds {len(lines) - 1} reviews but {w.workdir / MANIFEST_FILE} counts {len(lines)}"


@rows("extraction", "no-state", "state")
def annotate_response_label_out_of_contract(w, earlier):
    """A label other than privacy, non_privacy or skip is refused when the file is read: no annotation state is
    created, and an existing one is left as it is."""
    w.run("extract")
    ids = [json.loads(line)["id"] for line in lines_of(w.workdir / EXTRACTED_FILE)]
    if earlier == "state":
        w.run("annotate", "--responses", str(w.responses({"lead": dict.fromkeys(ids[:2], "privacy")})))
        assert (w.workdir / ANNOTATION_STATE_FILE).exists()
    responses = w.responses({"lead": dict.fromkeys(ids, "privacy"), "ann-b": {ids[0]: "yes"}})
    message = f"the label of 'ann-b' for {ids[0]!r} must be privacy, non_privacy or skip, not 'yes'"
    return ["annotate", "--responses", str(responses)], responses, f"error: {responses}: {message}\n"


@rows("extraction")
def export_before_extract(w):
    extracted = w.workdir / EXTRACTED_FILE
    return ["export", "--output", str(w.tmp_path / "out.csv")], extracted, f"error: no extracted reviews at {extracted}; run extraction first\n"


@rows("extraction", EXTRACTED_FILE, ANNOTATION_REPORT_FILE)
def export_cut_input(w, name):
    w.run("extract")
    w.run("annotate", "--responses", str(w.responses()))
    cut(w.workdir / name)
    return ["export", "--output", str(w.tmp_path / "export.csv")], w.workdir / name, corrupt_line(w.workdir / name)


@rows("extraction", "csv", "jsonl")
def export_into_a_missing_directory(w, fmt):
    w.run("extract")
    w.run("annotate", "--responses", str(w.responses()))
    out = w.tmp_path / "nodir" / f"x.{fmt}"
    return ["export", "--output", str(out), "--format", fmt], out, f"error: cannot write {out}: no directory {out.parent}\n"


@rows("selection", "pseudo-missing", "votes-missing", "pseudo-review-id-list", "pseudo-review-id-number")
def evaluate_named_file(w, case):
    """A file named on the command line must exist, and a pseudo-label in it must name its review by a string."""
    w.run("select")
    w.run("evaluate")
    named = w.tmp_path / "named.jsonl"
    flag = "--votes" if case.startswith("votes") else "--pseudo"
    review_id = {"pseudo-review-id-list": ["x"], "pseudo-review-id-number": 5}.get(case)
    if review_id is None:
        return ["evaluate", flag, str(named)], named, f"error: {named}:"
    named.write_text(json.dumps({"review_id": review_id, "label": "maybe-not-privacy"}) + "\n")
    return ["evaluate", flag, str(named)], named, f"error: {named}:1: corrupt line: review_id must be a string, not {review_id!r}\n"


@rows("selection")
def evaluate_pseudo_labels_missing_a_gold_review(w):
    w.run("select")
    lines = lines_of(w.workdir / PSEUDO_LABELS_FILE)
    named = w.tmp_path / "named.jsonl"
    named.write_text("".join(lines[:3] + lines[4:]))
    missing = json.loads(lines[3])["review_id"]
    return ["evaluate", "--pseudo", str(named)], named, f"error: {named}: no pseudo-label of gold review {missing!r}\n"


@rows("selection")
def evaluate_torn_vote_file(w):
    """evaluate reads a vote log strictly, as a whole file: a torn last line is damage, and is not repaired."""
    w.run("select")
    w.run("llm-classify", "--role", "labeled")
    votes = w.tmp_path / "votes_copy.jsonl"
    votes.write_bytes((w.workdir / VOTES_FILE).read_bytes()[:-15])
    return ["evaluate", "--votes", str(votes)], votes, f"error: {votes}:{len(lines_of(votes))}: corrupt line"


@rows("extraction")
def export_before_annotate(w):
    w.run("extract")
    report = w.workdir / ANNOTATION_REPORT_FILE
    return ["export", "--output", str(w.tmp_path / "out.csv")], report, f"error: no annotation report at {report}; run annotation first\n"


@rows("extraction")
def annotate_with_a_one_name_roster(w):
    w.run("extract")
    responses = w.responses()
    w.edit(lambda raw: raw.update(annotators=["lead"]))
    return ["annotate", "--responses", str(responses)], "annotators", "error: config must list at least two annotators\n"


@rows("extraction")
def annotate_manifest_missing_a_stage_count(w):
    w.run("extract")
    responses, manifest = w.responses(), w.workdir / MANIFEST_FILE
    raw = json.loads(manifest.read_text())
    del raw["counts"]["human_rejected"]
    manifest.write_text(json.dumps(raw))
    return ["annotate", "--responses", str(responses)], manifest, f"error: {manifest}: manifest missing stage counts: ['human_rejected']\n"


@rows("selection", "select", "evaluate")
def labeled_corpus_without_a_gold_label(w, command):
    corpus = w.tmp_path / "ungraded.csv"
    corpus.write_text("id,app,store,rating,text\na,app,other,1,they sold my personal information\nb,app,other,2,fine\n")
    w.edit(lambda raw: raw["corpus"].update(labeled=str(corpus)))
    return [command], corpus, f"error: {corpus}: labeled corpus contains no gold labels\n"


@rows("extraction")
def csv_without_an_id_column(w):
    corpus = w.tmp_path / "no_id.csv"
    corpus.write_text("app,store,rating,text\napp,other,1,no id\n")
    w.edit(lambda raw: raw.update(corpus={"unlabeled": str(corpus)}))
    return ["extract"], corpus, f"error: {corpus}: missing CSV header with an 'id' column\n"


@rows("extraction", "negative-rule-above-1", "no-hypotheses")
def set_file_value_out_of_range(w, case):
    """A set file whose values have the right JSON types but no meaning."""
    edit, message = {
        "negative-rule-above-1": (lambda raw: raw["heuristics"].update(negative_rule=[1.5]), "negative threshold 1.5 outside (0, 1)"),
        "no-hypotheses": (lambda raw: raw.update(hypotheses=[]), "hypothesis set must not be empty"),
    }[case]
    path = w.tmp_path / "set.json"
    path.write_text(json.dumps(_set_file(edit)))
    return ["extract", "--hypotheses", str(path)], path, f"error: {path}: {message}\n"


@rows("extraction", "empty-phrase", "score-above-1")
def mock_table_row_out_of_range(w, case):
    row = {"empty-phrase": ["", [14], 0.9], "score-above-1": ["data trackers", [14], 1.5]}[case]
    table = w.tmp_path / "table.json"
    table.write_text(json.dumps([row]))
    w.edit(lambda raw: raw["nli"]["backends"][0].update(mock_table=str(table)))
    return ["extract"], table, f"error: {table}: bad trigger row ({row[0]!r}, {row[2]})\n"


@rows("selection", "fresh", "after-select")
def domain_set_sharing_the_generic_set_id(w, before):
    """Two different sets under one set id would make the hypothesis table ambiguous: select refuses them."""
    if before == "after-select":
        w.run("select")
    raw = hypothesis_set_to_dict(builtin_generic())
    raw["heuristics"]["positive_rules"] = [[0.99, 1]]
    domain = w.tmp_path / "domain.json"
    domain.write_text(json.dumps(raw))
    w.edit(lambda config: config["hypotheses"].update(domain=str(domain)))
    message = f"error: hypothesis sets builtin:generic and {domain} differ but share the set id 'generic-31'\n"
    return ["select"], "'generic-31'", message


def tree(root):
    """The bytes of every file under ``root`` and the modification time of every entry, ``root`` included."""
    return {p: (p.read_bytes() if p.is_file() else None, p.stat().st_mtime_ns) for p in [root, *sorted(root.rglob("*"))]}


@pytest.mark.parametrize("kind, prepare, variant", BAD_INPUTS)
def test_a_command_reads_and_checks_every_input_before_its_first_write(tmp_path, capsys, monkeypatch, kind, prepare, variant):
    """The command of each row exits 2 naming its bad input, calls no backend, and leaves every file and
    directory under ``tmp_path`` as it was, bytes and modification times: the workdir stays absent, or
    unchanged. A message that ends with a newline is the whole of stderr; any other is a part of it."""
    w = Prepared(tmp_path, kind)
    argv, named, expected = prepare(w, *variant)
    calls = Counter()
    for cls, method in ((MockNliBackend, "score_row"), (MockLlmBackend, "complete")):

        def counted(self, *args, _call=getattr(cls, method), _name=f"{cls.__name__}.{method}", **kwargs):
            calls[_name] += 1
            return _call(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    before = tree(tmp_path)
    capsys.readouterr()

    assert main([argv[0], "--config", str(w.config_path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert str(named) in err
    assert err == expected if expected.endswith("\n") else expected in err
    assert tree(tmp_path) == before
    assert not calls


def test_console_script_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "concernminer.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    for command in ("ingest", "nli-score", "extract", "annotate", "export"):
        assert command in result.stdout
