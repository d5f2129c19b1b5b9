"""Selection and extraction flows, manifests, determinism, annotation, export."""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import concernminer
from concernminer import pipeline
from concernminer._jsonl import Log
from concernminer.annotation import NON_PRIVACY, PRIVACY, scripted_responder
from concernminer.config import LlmBackendConfig, NliBackendConfig, load_config, parse_config
from concernminer.corpus import ingest_reviews
from concernminer.errors import ValidationError
from concernminer.evaluation import ConfusionMatrix, metrics
from concernminer.hypotheses import builtin_domain_mh
from concernminer.labels import BinaryLabel, PseudoLabel, Vote
from concernminer.llm import SamplingSettings, VoteRecord
from concernminer.pipeline import (
    ANNOTATION_REPORT_FILE,
    EXTRACTED_FILE,
    MANIFEST_FILE,
    NLI_CACHE_FILE,
    PSEUDO_LABELS_FILE,
    QUEUE_FILE,
    RunManifest,
    SELECTION_REPORT_FILE,
    ScoreCache,
    TIMINGS_FILE,
    VOTE_CONTEXT,
    VOTES_FILE,
    annotate_run,
    append_votes,
    evaluate_run,
    export_dataset,
    read_votes,
    run_extraction,
    run_selection,
)

from synth import (
    build_extraction_fixture,
    build_labeled_fixture,
    extraction_config,
    selection_config,
    write_weak_table,
)


def config_from_dict(raw, base_dir):
    return parse_config(raw, base_dir)


@pytest.fixture(scope="module")
def selection_run(tmp_path_factory):
    """One full selection over the 1,376-review fixture, shared by the tests."""
    root = tmp_path_factory.mktemp("selection")
    ledger = build_labeled_fixture(root / "labeled.csv")
    weak_table = write_weak_table(root / "weak_table.json")
    raw = selection_config(root / "labeled.csv", root / "run", weak_table)
    config = config_from_dict(raw, root)
    result = run_selection(config)
    return ledger, config, result


class TestSelection:
    def test_winner_model_and_set(self, selection_run):
        ledger, config, result = selection_run
        assert result.best_model == "mock-nli-a"
        assert result.best_set_id == "mh-domain-21"
        assert result.hypothesis_table.winner_id == "mh-domain-21"

    def test_metrics_match_ledger(self, selection_run):
        ledger, config, result = selection_run
        expected_generic = metrics(
            ConfusionMatrix(ledger.generic_tp, ledger.generic_fp, ledger.generic_tn, ledger.generic_fn)
        )
        expected_domain = metrics(
            ConfusionMatrix(ledger.domain_tp, ledger.domain_fp, ledger.domain_tn, ledger.domain_fn)
        )
        by_id = {row.candidate_id: row for row in result.model_table.rows}
        assert by_id["mock-nli-a"].report == expected_generic
        assert by_id["mock-nli-weak"].report.f1 == 0.0
        hyp_by_id = {row.candidate_id: row for row in result.hypothesis_table.rows}
        assert hyp_by_id["mh-domain-21"].report == expected_domain
        assert hyp_by_id["mh-domain-21"].improvement == pytest.approx(
            expected_domain.f1 / expected_generic.f1
        )

    def test_pseudo_labels_emitted_from_winning_pair(self, selection_run):
        ledger, config, result = selection_run
        maybe = sum(1 for _, label, _, _ in result.pseudo_labels if label is PseudoLabel.MAYBE_PRIVACY)
        assert maybe == ledger.domain_tp + ledger.domain_fp
        assert len(result.pseudo_labels) == ledger.n_pos + ledger.n_neg

    def test_report_file_shape(self, selection_run):
        _, config, result = selection_run
        report = json.loads((config.workdir / SELECTION_REPORT_FILE).read_text())
        assert report["best_model"] == "mock-nli-a"
        assert report["best_hypothesis_set"] == "mh-domain-21"
        assert report["models"]["winner"] == "mock-nli-a"
        assert {c["id"] for c in report["models"]["candidates"]} == {"mock-nli-a", "mock-nli-weak"}

    def test_cache_covers_every_cell_and_no_matrix_file_is_written(self, selection_run):
        _, config, _ = selection_run
        with ScoreCache(config.workdir / NLI_CACHE_FILE) as cache:
            assert len(cache) == 1376 * (31 + 31 + 21)  # both models on the generic set, the winner on the domain set
        assert not list(config.workdir.glob("matrix_*"))

    def test_evaluate_run_agrees_with_ledger(self, selection_run):
        ledger, config, result = selection_run
        report = evaluate_run(config, pseudo_path=config.workdir / PSEUDO_LABELS_FILE)
        assert report["nli"]["tp"] == ledger.domain_tp
        assert report["nli"]["fp"] == ledger.domain_fp
        assert report["gold_size"] == 1376

    def test_single_model_single_set(self, tmp_path):
        build_labeled_fixture(
            tmp_path / "small.csv",
            n_pos_strong=10,
            n_pos_benign=5,
            n_neg_strong=5,
            n_neg_weak=0,
            n_neg_benign=20,
        )
        raw = {
            "seed": 3,
            "workdir": str(tmp_path / "run"),
            "corpus": {"labeled": str(tmp_path / "small.csv")},
            "hypotheses": {"generic": "builtin:domain-mh", "domain": "builtin:domain-mh"},
            "nli": {"backends": [{"name": "mock-nli-a", "endpoint": "mock"}]},
            "llm": {"backend": {"name": "mock-llm", "endpoint": "mock"}},
        }
        result = run_selection(config_from_dict(raw, tmp_path))
        assert len(result.model_table.rows) == 1
        assert len(result.hypothesis_table.rows) == 1
        assert result.hypothesis_table.winner().improvement == 1.0
        assert len(result.pseudo_labels) == 40

    def test_select_reruns_warm_over_a_cache_with_its_two_backends_interleaved(self, tmp_path):
        build_labeled_fixture(tmp_path / "small.csv", n_pos_strong=6, n_pos_benign=3, n_neg_strong=3, n_neg_weak=0, n_neg_benign=12)
        config = config_from_dict(selection_config(tmp_path / "small.csv", tmp_path / "run", write_weak_table(tmp_path / "weak.json")), tmp_path)
        run_selection(config)
        cache_path = config.workdir / NLI_CACHE_FILE
        clean = {p.name: p.read_bytes() for p in config.workdir.iterdir() if p.name != NLI_CACHE_FILE}
        named = list(Log(cache_path, ("backend", "set_hash")).read())
        generic = [[r for r in named if r["backend"] == name and r["set_hash"] == named[0]["set_hash"]] for name in ("mock-nli-a", "mock-nli-weak")]
        domain = [r for r in named if r["set_hash"] != named[0]["set_hash"]]
        assert [len(records) for records in generic] == [24, 24] and len(domain) == 24
        cache_path.unlink()
        with Log(cache_path, ("backend", "set_hash")) as log:  # the generic pass's rows of each backend in runs of 5, then the domain pass
            log.append([r for k in range(0, 24, 5) for records in generic for r in records[k : k + 5]] + domain)
        records = [json.loads(line) for line in cache_path.read_text().splitlines()]
        assert sum("backend" in r for r in records) == 10 + 1 and sum("set_hash" in r for r in records) == 2
        before = cache_path.read_bytes()
        run_selection(config)
        assert cache_path.read_bytes() == before  # no cell scored again
        assert {p.name: p.read_bytes() for p in config.workdir.iterdir() if p.name != NLI_CACHE_FILE} == clean

    def test_selection_requires_labeled_corpus(self, tmp_path):
        raw = {
            "workdir": str(tmp_path / "run"),
            "nli": {"backends": [{"name": "m", "endpoint": "mock"}]},
        }
        with pytest.raises(ValidationError):
            run_selection(config_from_dict(raw, tmp_path))


@pytest.fixture()
def small_extraction(tmp_path):
    data_dir = tmp_path / "data"
    ledger = build_extraction_fixture(data_dir, n_privacy=12, n_benign_low=48, n_high=5, n_yes=5)
    raw = extraction_config(data_dir, tmp_path / "run")
    config = config_from_dict(raw, tmp_path)
    return ledger, config


class TestExtraction:
    def test_ledger_counts(self, small_extraction):
        ledger, config = small_extraction
        result = run_extraction(config)
        counts = result.manifest.counts
        assert counts["ingested"] == ledger.ingested
        assert counts["rating_filtered"] == ledger.rating_filtered
        assert counts["nli_scored"] == ledger.rating_filtered
        assert counts["maybe_privacy"] == ledger.maybe_privacy
        assert counts["llm_yes"] == ledger.llm_yes
        assert counts["llm_no"] == ledger.llm_no
        assert counts["llm_failed"] == 0
        result.manifest.validate()

    def test_stage_artifacts_exist(self, small_extraction):
        _, config = small_extraction
        run_extraction(config)
        for name in (
            MANIFEST_FILE,
            TIMINGS_FILE,
            NLI_CACHE_FILE,
            PSEUDO_LABELS_FILE,
            VOTES_FILE,
            QUEUE_FILE,
            EXTRACTED_FILE,
        ):
            assert (config.workdir / name).exists(), name

    def test_extracted_provenance(self, small_extraction):
        ledger, config = small_extraction
        run_extraction(config)
        rows = [
            json.loads(line)
            for line in (config.workdir / EXTRACTED_FILE).read_text().splitlines()
            if line
        ]
        assert {row["id"] for row in rows} == set(ledger.yes_ids)
        for row in rows:
            nli = row["provenance"]["nli"]
            assert nli["threshold"] == 0.85
            assert nli["triggered"] == [14, 17]  # strong trigger lights both ids
            llm = row["provenance"]["llm"]
            assert llm["decision"] == "yes"
            assert len(llm["votes"]) == 5

    def test_queue_round_trips_through_ingest(self, small_extraction):
        ledger, config = small_extraction
        result = run_extraction(config)
        queue = ingest_reviews(result.queue_path, "jsonl")
        assert len(queue) == ledger.llm_yes
        assert {r.id for r in queue} == set(ledger.yes_ids)

    def test_empty_corpus_gives_all_zero_manifest(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("id,app,store,rating,text\n")
        raw = {
            "seed": 1,
            "workdir": str(tmp_path / "run"),
            "corpus": {"unlabeled": str(data)},
            "nli": {"backends": [{"name": "m", "endpoint": "mock"}]},
            "llm": {"backend": {"name": "m", "endpoint": "mock"}},
        }
        result = run_extraction(config_from_dict(raw, tmp_path))
        assert all(value == 0 for value in result.manifest.counts.values())

    def test_byte_identical_across_fresh_workdirs(self, tmp_path):
        data_dir = tmp_path / "data"
        build_extraction_fixture(data_dir, n_privacy=12, n_benign_low=48, n_high=5, n_yes=5)
        outputs = []
        for run_name in ("run_a", "run_b"):
            raw = extraction_config(data_dir, tmp_path / run_name)
            config = config_from_dict(raw, tmp_path)
            run_extraction(config)
            outputs.append(
                {
                    name: (config.workdir / name).read_bytes()
                    for name in (MANIFEST_FILE, EXTRACTED_FILE, VOTES_FILE, PSEUDO_LABELS_FILE, QUEUE_FILE)
                }
            )
        assert outputs[0] == outputs[1]

    def test_outputs_do_not_depend_on_max_inflight(self, tmp_path):
        data_dir = tmp_path / "data"
        build_extraction_fixture(data_dir, n_privacy=12, n_benign_low=48, n_high=5, n_yes=5)
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches: more chances for an ordering fault to show
        try:
            for max_inflight in (1, 4, 8):
                raw = extraction_config(data_dir, tmp_path / f"run{max_inflight}")
                raw["nli"]["backends"][0]["max_inflight"] = max_inflight
                raw["llm"]["backend"]["max_inflight"] = max_inflight
                config = config_from_dict(raw, tmp_path)
                run_extraction(config)
                files = [NLI_CACHE_FILE, VOTES_FILE, EXTRACTED_FILE, PSEUDO_LABELS_FILE]
                outputs.append({name: (config.workdir / name).read_bytes() for name in files})
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_rerun_same_workdir_resumes_from_caches(self, small_extraction):
        _, config = small_extraction
        first = run_extraction(config)
        cache_before = (config.workdir / NLI_CACHE_FILE).read_bytes()
        votes_before = (config.workdir / VOTES_FILE).read_bytes()
        manifest_before = (config.workdir / MANIFEST_FILE).read_bytes()

        second = run_extraction(config)
        assert (config.workdir / NLI_CACHE_FILE).read_bytes() == cache_before
        assert (config.workdir / VOTES_FILE).read_bytes() == votes_before
        assert (config.workdir / MANIFEST_FILE).read_bytes() == manifest_before
        assert first.manifest.counts == second.manifest.counts

    def test_seed_changes_manifest_run_id_stays_tied_to_config(self, tmp_path):
        data_dir = tmp_path / "data"
        build_extraction_fixture(data_dir, n_privacy=6, n_benign_low=14, n_high=2, n_yes=3)
        raw_a = extraction_config(data_dir, tmp_path / "a", seed=7)
        raw_b = extraction_config(data_dir, tmp_path / "b", seed=8)
        manifest_a = run_extraction(config_from_dict(raw_a, tmp_path)).manifest
        manifest_b = run_extraction(config_from_dict(raw_b, tmp_path)).manifest
        assert manifest_a.run_id != manifest_b.run_id
        assert manifest_a.config_digest != manifest_b.config_digest


def record_llm_backends(monkeypatch) -> list:
    """Keep every LLM backend ``run_extraction`` builds, to read its call count."""
    built = []
    make = pipeline.make_llm_backend

    def recording(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pipeline, "make_llm_backend", recording)
    return built


# Runs the CLI with argv[3:]. Every LLM call is first logged by its review id
# to the file argv[2]; call number argv[1] of the process then sends SIGKILL
# to the process.
KILLING_MAIN = """
import os, signal, sys, threading
from concernminer import pipeline
from concernminer.cli import main

kill_at, calls_log = int(sys.argv[1]), sys.argv[2]
make, lock, calls = pipeline.make_llm_backend, threading.Lock(), [0]

def make_llm_backend(*args, **kwargs):
    backend = make(*args, **kwargs)
    complete = backend.complete

    def killing(prompt, settings, *, tag=None):
        with lock:
            with open(calls_log, "a") as log:
                log.write(tag + "\\n")
            calls[0] += 1
            if calls[0] == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
        return complete(prompt, settings, tag=tag)

    backend.complete = killing
    return backend

pipeline.make_llm_backend = make_llm_backend
sys.exit(main(sys.argv[3:]))
"""


@pytest.mark.parametrize("max_inflight", [1, 3])
def test_sigkill_in_llm_stage_loses_at_most_one_window_and_rerun_matches(tmp_path, max_inflight):
    data_dir = tmp_path / "data"
    build_extraction_fixture(data_dir, n_privacy=20, n_benign_low=10, n_high=2, n_yes=8)
    raw = extraction_config(data_dir, tmp_path / "run")
    raw["llm"]["backend"]["max_inflight"] = max_inflight
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    script = tmp_path / "killing_main.py"
    script.write_text(KILLING_MAIN)
    env = dict(os.environ, PYTHONPATH=str(Path(concernminer.__file__).parents[1]))

    def extract(workdir, kill_at=0):
        calls_log = tmp_path / f"calls_{workdir.name}_{kill_at}.txt"
        command = [sys.executable, str(script), str(kill_at), str(calls_log)]
        command += ["extract", "--config", str(config_path), "--workdir", str(workdir)]
        code = subprocess.run(command, env=env, capture_output=True, timeout=120).returncode
        return code, set(calls_log.read_text().split()) if calls_log.exists() else set()

    def logged_ids(workdir):
        return [json.loads(line)["review_id"] for line in (workdir / VOTES_FILE).read_text().splitlines()]

    kill_at = 37  # at max_inflight 1, the second sample of the eighth review
    assert extract(tmp_path / "clean")[0] == 0
    order = logged_ids(tmp_path / "clean")
    code, called = extract(tmp_path / "run", kill_at)
    assert code == -signal.SIGKILL
    committed = logged_ids(tmp_path / "run")
    assert committed == order[: len(committed)]
    assert len(called - set(committed)) <= 2 * max_inflight
    if max_inflight == 1:
        assert len(committed) == (kill_at - 1) // 5

    code, called = extract(tmp_path / "run")
    assert code == 0
    assert called == set(order) - set(committed)
    for name in (MANIFEST_FILE, EXTRACTED_FILE, VOTES_FILE):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes(), name


# Runs the CLI with argv[3:], counting NLI calls in the file argv[2]; call
# number argv[1] of the process sends SIGKILL to the process.
KILLING_NLI_MAIN = """
import os, signal, sys, threading
from concernminer import pipeline
from concernminer.cli import main

kill_at, calls_log = int(sys.argv[1]), sys.argv[2]
make, lock, calls = pipeline.make_nli_backend, threading.Lock(), [0]

def make_nli_backend(*args, **kwargs):
    backend = make(*args, **kwargs)
    score_pair = backend.score_pair

    def killing(premise, hypothesis):
        with lock:
            calls[0] += 1
            with open(calls_log, "w") as log:
                log.write(str(calls[0]))
            if calls[0] == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
        return score_pair(premise, hypothesis)

    backend.score_pair = killing
    return backend

pipeline.make_nli_backend = make_nli_backend
sys.exit(main(sys.argv[3:]))
"""


@pytest.mark.parametrize("max_inflight", [1, 3])
def test_sigkill_in_nli_stage_rescores_only_lost_cells_and_rerun_matches(tmp_path, max_inflight):
    data_dir = tmp_path / "data"
    build_extraction_fixture(data_dir, n_privacy=20, n_benign_low=60, n_high=2, n_yes=8)
    raw = extraction_config(data_dir, tmp_path / "run")
    raw["nli"]["backends"][0]["max_inflight"] = max_inflight
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    script = tmp_path / "killing_nli_main.py"
    script.write_text(KILLING_NLI_MAIN)
    env = dict(os.environ, PYTHONPATH=str(Path(concernminer.__file__).parents[1]))

    def extract(workdir, kill_at=0):
        calls_log = tmp_path / f"calls_{workdir.name}_{kill_at}.txt"
        command = [sys.executable, str(script), str(kill_at), str(calls_log)]
        command += ["extract", "--config", str(config_path), "--workdir", str(workdir)]
        code = subprocess.run(command, env=env, capture_output=True, timeout=120).returncode
        return code, int(calls_log.read_text()) if calls_log.exists() else 0

    def outputs(workdir):
        names = [MANIFEST_FILE, EXTRACTED_FILE, NLI_CACHE_FILE, PSEUDO_LABELS_FILE]
        return {name: (workdir / name).read_bytes() for name in names}

    code, cells = extract(tmp_path / "clean")
    assert code == 0 and cells == 80 * 21
    kill_at = 1000  # the 1000th cell, in the 48th row
    assert extract(tmp_path / "run", kill_at)[0] == -signal.SIGKILL
    kept = len(ScoreCache(tmp_path / "run" / NLI_CACHE_FILE))  # a torn last line is dropped, as the rerun would
    assert 0 < kept < kill_at
    assert kill_at - kept <= 2 * max_inflight * 21  # one window at most: each row is in the file once committed

    code, called = extract(tmp_path / "run")
    assert code == 0
    assert called == cells - kept
    assert outputs(tmp_path / "run") == outputs(tmp_path / "clean")


class TestVoteLog:
    """A logged vote is reused and scored only for the LLM backend, the
    hypothesis set and the sampling settings that cast it."""

    def other_llm(self, data_dir, workdir, tmp_path):
        raw = extraction_config(data_dir, workdir)
        raw["llm"] = {"backend": {"name": "other-llm", "endpoint": "mock"}}  # no script: every answer is no
        return config_from_dict(raw, tmp_path)

    def test_model_switch_matches_fresh_run_and_switching_back_calls_nothing(self, small_extraction, monkeypatch):
        ledger, first = small_extraction
        tmp_path = first.workdir.parent
        run_extraction(first)
        switched = run_extraction(self.other_llm(tmp_path / "data", first.workdir, tmp_path))
        fresh = run_extraction(self.other_llm(tmp_path / "data", tmp_path / "fresh", tmp_path))
        assert switched.manifest.counts == fresh.manifest.counts
        assert switched.manifest.counts["llm_yes"] == 0
        for name in (MANIFEST_FILE, EXTRACTED_FILE, QUEUE_FILE, PSEUDO_LABELS_FILE):
            assert (first.workdir / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

        built = record_llm_backends(monkeypatch)
        back = run_extraction(first)
        assert built[0].calls == 0
        assert back.manifest.counts["llm_yes"] == ledger.llm_yes

    def test_record_without_backend_and_set_is_reclassified(self, small_extraction, monkeypatch):
        ledger, config = small_extraction
        run_extraction(config)
        manifest = (config.workdir / MANIFEST_FILE).read_bytes()
        votes_path = config.workdir / VOTES_FILE
        records = [json.loads(line) for line in votes_path.read_text().splitlines()]
        votes_path.write_text(
            "".join(json.dumps({k: v for k, v in r.items() if k not in ("backend", "set_hash")}) + "\n" for r in records)
        )

        built = record_llm_backends(monkeypatch)
        run_extraction(config)
        assert built[0].calls == ledger.maybe_privacy * SamplingSettings().num_samples
        assert (config.workdir / MANIFEST_FILE).read_bytes() == manifest

    def test_sampling_change_matches_fresh_run(self, small_extraction, monkeypatch):
        ledger, config = small_extraction
        tmp_path = config.workdir.parent
        run_extraction(config)

        def three_samples(workdir):
            raw = extraction_config(tmp_path / "data", workdir)
            raw["llm"]["sampling"] = {"num_samples": 3}
            return config_from_dict(raw, tmp_path)

        built = record_llm_backends(monkeypatch)
        run_extraction(three_samples(config.workdir))
        assert built[0].calls == ledger.maybe_privacy * 3
        run_extraction(three_samples(tmp_path / "fresh"))
        for name in (MANIFEST_FILE, EXTRACTED_FILE, QUEUE_FILE, PSEUDO_LABELS_FILE):
            assert (config.workdir / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

    def test_any_cut_of_the_vote_log_resumes_to_the_clean_outputs(self, small_extraction, monkeypatch):
        ledger, config = small_extraction
        run_extraction(config)
        names = (VOTES_FILE, EXTRACTED_FILE, MANIFEST_FILE)
        clean = {name: (config.workdir / name).read_bytes() for name in names}
        whole = clean[VOTES_FILE]
        ends = [k + 1 for k, byte in enumerate(whole) if byte == ord("\n")]
        assert len(ends) == ledger.maybe_privacy
        built = record_llm_backends(monkeypatch)
        # Every line end, the byte before it (a record without its newline), the middle of every line, and
        # inside each backend, set hash and sampling a record names.
        inside_context = [
            start + line.index(key) + len(key) + 4
            for start, line in zip([0, *ends], whole.splitlines()) for key in (b'"backend"', b'"set_hash"', b'"sampling"') if key in line
        ]
        assert len(inside_context) == 3
        cuts = {0, *ends, *(end - 1 for end in ends), *inside_context, *((start + end) // 2 for start, end in zip([0, *ends], ends))}
        for cut in sorted(cuts):
            (config.workdir / VOTES_FILE).write_bytes(whole[:cut])
            run_extraction(config)
            lost = len(ends) - whole[:cut].count(b"\n")  # a torn last line is dropped and its review classified again
            assert built[-1].calls == lost * SamplingSettings().num_samples, cut
            assert {name: (config.workdir / name).read_bytes() for name in names} == clean, cut

    def test_a_vote_log_whose_records_all_name_their_context_resumes_to_the_clean_outputs(self, small_extraction, monkeypatch):
        ledger, config = small_extraction
        run_extraction(config)
        names = (VOTES_FILE, EXTRACTED_FILE, MANIFEST_FILE, QUEUE_FILE)
        clean = {name: (config.workdir / name).read_bytes() for name in names}
        whole = clean[VOTES_FILE].splitlines(keepends=True)
        assert ["backend" in json.loads(line) for line in whole] == [True] + [False] * (len(whole) - 1)
        votes_path = config.workdir / VOTES_FILE
        named = list(Log(votes_path, VOTE_CONTEXT).read())
        votes_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in named))  # as earlier versions wrote it
        parent = votes_path.read_bytes()
        built = record_llm_backends(monkeypatch)
        run_extraction(config)
        assert built[-1].calls == 0
        assert {name: (config.workdir / name).read_bytes() for name in names} == dict(clean, **{VOTES_FILE: parent})

        votes_path.write_bytes(b"".join(parent.splitlines(keepends=True)[:-2]))  # its last two records lost
        run_extraction(config)
        assert built[-1].calls == 2 * SamplingSettings().num_samples
        resumed = votes_path.read_bytes().splitlines(keepends=True)
        assert resumed[:-2] == parent.splitlines(keepends=True)[:-2]
        assert resumed[-2:] == whole[-2:]  # appended as the uninterrupted run appended them, the context left out
        assert {name: (config.workdir / name).read_bytes() for name in names[1:]} == {name: clean[name] for name in names[1:]}

    def test_a_vote_log_with_two_sampling_digests_interleaved_reruns_warm_under_each(self, small_extraction, monkeypatch):
        ledger, config = small_extraction
        tmp_path = config.workdir.parent

        def three_samples(workdir):
            raw = extraction_config(tmp_path / "data", workdir)
            raw["llm"]["sampling"] = {"num_samples": 3}
            return config_from_dict(raw, tmp_path)

        names = (EXTRACTED_FILE, MANIFEST_FILE, QUEUE_FILE)
        clean = {}
        for cfg in (config, three_samples(tmp_path / "three")):
            run_extraction(cfg)
            clean[cfg.sampling.digest] = {name: (cfg.workdir / name).read_bytes() for name in names}
        five, three = (list(Log(cfg.workdir / VOTES_FILE, VOTE_CONTEXT).read()) for cfg in (config, three_samples(tmp_path / "three")))
        assert len(five) == len(three) == ledger.maybe_privacy
        votes_path = config.workdir / VOTES_FILE
        votes_path.unlink()
        with Log(votes_path, VOTE_CONTEXT) as log:  # runs of two records of each sampling in turn
            log.append([r for k in range(0, len(five), 2) for r in five[k : k + 2] + three[k : k + 2]])
        records = [json.loads(line) for line in votes_path.read_text().splitlines()]
        assert [sorted(r.keys() & set(VOTE_CONTEXT)) for r in records[:5]] == [
            ["backend", "sampling", "set_hash"], [], ["sampling"], [], ["sampling"]]
        before = votes_path.read_bytes()
        set_hash = builtin_domain_mh().version_hash
        for sampling, expected in ((config.sampling.digest, five), (three_samples(config.workdir).sampling.digest, three)):
            assert read_votes(Log(votes_path, VOTE_CONTEXT), "mock-llm", set_hash, sampling) == {
                r["review_id"]: pipeline._vote_record_from_dict(r) for r in expected}

        built = record_llm_backends(monkeypatch)
        for cfg in (config, three_samples(config.workdir)):
            run_extraction(cfg)
            assert built[-1].calls == 0
            assert {name: (config.workdir / name).read_bytes() for name in names} == clean[cfg.sampling.digest]
        assert votes_path.read_bytes() == before

    def test_record_without_sampling_is_reclassified(self, small_extraction, monkeypatch):
        ledger, config = small_extraction
        run_extraction(config)
        manifest = (config.workdir / MANIFEST_FILE).read_bytes()
        votes_path = config.workdir / VOTES_FILE
        records = [json.loads(line) for line in votes_path.read_text().splitlines()]
        votes_path.write_text("".join(json.dumps({k: v for k, v in r.items() if k != "sampling"}) + "\n" for r in records))

        built = record_llm_backends(monkeypatch)
        run_extraction(config)
        assert built[0].calls == ledger.maybe_privacy * SamplingSettings().num_samples
        assert (config.workdir / MANIFEST_FILE).read_bytes() == manifest

    def test_evaluate_scores_only_the_configured_model(self, tmp_path):
        build_labeled_fixture(
            tmp_path / "small.csv", n_pos_strong=6, n_pos_benign=2, n_neg_strong=2, n_neg_weak=0, n_neg_benign=10
        )
        raw = {
            "workdir": str(tmp_path / "run"),
            "corpus": {"labeled": str(tmp_path / "small.csv")},
            "nli": {"backends": [{"name": "mock-nli-a", "endpoint": "mock"}]},
            "llm": {"backend": {"name": "mock-llm", "endpoint": "mock"}},
        }
        config = config_from_dict(raw, tmp_path)
        gold = {r.id: r.gold_label for r in ingest_reviews(tmp_path / "small.csv")}
        set_hash = builtin_domain_mh().version_hash

        sampling = SamplingSettings().digest

        def record(review_id, yes, backend, record_set_hash=set_hash, record_sampling=sampling):
            decision = BinaryLabel.YES if yes else BinaryLabel.NO
            votes = (Vote(decision.value),)
            return VoteRecord(review_id, ("x",), votes, decision, False, backend, record_set_hash, record_sampling)

        votes_path = tmp_path / "votes.jsonl"
        with Log(votes_path, VOTE_CONTEXT) as log:
            append_votes(log, [record(rid, label == 1, "mock-llm") for rid, label in gold.items()])
            append_votes(log, [record(rid, label == 0, "other-llm") for rid, label in gold.items()])
            append_votes(log, [record(rid, label == 0, "mock-llm", "other-set") for rid, label in gold.items()])
            append_votes(log, [record(rid, label == 0, "mock-llm", set_hash, "other-sampling") for rid, label in gold.items()])
            append_votes(log, [record(rid, label == 0, None, None, None) for rid, label in gold.items()])

        result = evaluate_run(config, votes_path=votes_path)
        assert result["llm"]["evaluated"] == len(gold) == 20
        assert (result["llm"]["tp"], result["llm"]["fp"], result["llm"]["fn"]) == (8, 0, 0)


class TestManifestValidation:
    def _manifest(self, **overrides):
        counts = {
            "ingested": 10,
            "rating_filtered": 8,
            "nli_scored": 8,
            "maybe_privacy": 4,
            "llm_yes": 2,
            "llm_no": 2,
            "llm_failed": 0,
            "human_confirmed": 0,
            "human_rejected": 0,
        }
        counts.update(overrides)
        return RunManifest("rid", "digest", 0, {}, {}, counts)

    def test_valid(self):
        self._manifest().validate()

    def test_llm_counts_must_partition_maybe(self):
        with pytest.raises(ValidationError):
            self._manifest(llm_no=3).validate()

    def test_scored_must_equal_filtered(self):
        with pytest.raises(ValidationError):
            self._manifest(nli_scored=7).validate()

    def test_human_counts_bounded_by_yes(self):
        with pytest.raises(ValidationError):
            self._manifest(human_confirmed=3).validate()

    def test_completion_requires_exact_human_counts(self):
        manifest = self._manifest(human_confirmed=1)
        manifest.validate()  # mid-session is fine
        with pytest.raises(ValidationError):
            manifest.validate(annotation_complete=True)
        self._manifest(human_confirmed=1, human_rejected=1).validate(annotation_complete=True)


class TestAnnotateAndExport:
    def _annotate(self, config, ledger, reject_ids=()):
        script = {}
        for annotator in config.annotators:
            script[annotator] = {
                rid: (NON_PRIVACY if rid in reject_ids else PRIVACY) for rid in ledger.yes_ids
            }
        return annotate_run(config, scripted_responder(script))

    def test_session_updates_manifest(self, small_extraction):
        ledger, config = small_extraction
        run_extraction(config)
        report = self._annotate(config, ledger, reject_ids=ledger.yes_ids[:1])
        assert report.confirmed == ledger.llm_yes - 1
        assert report.rejected == 1
        manifest = RunManifest.read(config.workdir / MANIFEST_FILE)
        assert manifest.counts["human_confirmed"] == ledger.llm_yes - 1
        assert manifest.counts["human_rejected"] == 1
        manifest.validate(annotation_complete=True)
        assert (config.workdir / ANNOTATION_REPORT_FILE).exists()

    def test_export_round_trips(self, small_extraction, tmp_path):
        ledger, config = small_extraction
        run_extraction(config)
        self._annotate(config, ledger, reject_ids=ledger.yes_ids[:1])
        out = tmp_path / "confirmed.csv"
        count = export_dataset(config, out, fmt="csv")
        assert count == ledger.llm_yes - 1

        back = ingest_reviews(out)
        assert len(back) == count
        assert all(r.gold_label == 1 for r in back)
        assert {r.id for r in back} == set(ledger.yes_ids[1:])

        import csv as _csv

        with out.open() as handle:
            row = next(_csv.DictReader(handle))
        provenance = json.loads(row["provenance"])
        assert provenance["nli"]["triggered"] == [14, 17]
        assert provenance["llm"]["decision"] == "yes"
        assert provenance["annotation"]["final_label"] == PRIVACY

    def test_export_jsonl(self, small_extraction, tmp_path):
        ledger, config = small_extraction
        run_extraction(config)
        self._annotate(config, ledger)
        out = tmp_path / "confirmed.jsonl"
        count = export_dataset(config, out, fmt="jsonl")
        rows = [json.loads(line) for line in out.read_text().splitlines() if line]
        assert len(rows) == count == ledger.llm_yes
        assert all("annotation" in row["provenance"] for row in rows)

    def test_export_with_nothing_confirmed_writes_header_only(self, small_extraction, tmp_path):
        ledger, config = small_extraction
        run_extraction(config)
        self._annotate(config, ledger, reject_ids=ledger.yes_ids)
        out = tmp_path / "confirmed.csv"
        assert export_dataset(config, out, fmt="csv") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("id,")

    def test_annotate_without_queue_fails(self, tmp_path):
        raw = {
            "workdir": str(tmp_path / "none"),
            "nli": {"backends": [{"name": "m", "endpoint": "mock"}]},
            "annotators": ["a", "b"],
        }
        with pytest.raises(ValidationError):
            annotate_run(config_from_dict(raw, tmp_path), scripted_responder({}))


class TestBackendConfig:
    def test_validation(self):
        for config_type in (NliBackendConfig, LlmBackendConfig):
            config_type("m", "mock")
            config_type("m", "mock", max_retries=0)
            bad_settings = ({"timeout": 0}, {"timeout": math.nan}, {"timeout": math.inf}, {"max_inflight": 0}, {"max_retries": -1})
            for bad in bad_settings:
                with pytest.raises(ValidationError):
                    config_type("m", "mock", **bad)

    def test_endpoint_must_be_mock_or_an_http_url_with_a_host(self):
        for config_type in (NliBackendConfig, LlmBackendConfig):
            for good in ("mock", "http://localhost:8000/nli", "https://host.example/v1/chat?x=1", "http://[::1]:8001"):
                assert config_type("m", good).endpoint == good
            for bad in ("localhost:8000/nli", "ftp://host/nli", "http://", "http:///nli", "http://host:port/nli",
                        "http://host:0/nli", "http://host:70000/", "http://[::1/", "Mock", "", "http://host/a b",
                        "http://h\u00f6st/nli"):
                with pytest.raises(ValidationError, match="backend 'm': endpoint must be"):
                    config_type("m", bad)


class TestConfig:
    def test_load_and_digest_stability(self, tmp_path):
        data_dir = tmp_path / "data"
        build_extraction_fixture(data_dir, n_privacy=2, n_benign_low=2, n_high=1, n_yes=1)
        raw = extraction_config(data_dir, tmp_path / "run")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        a = load_config(config_path)
        b = load_config(config_path)
        assert a.digest == b.digest
        different = load_config(config_path, {"seed": 99})
        assert different.digest != a.digest
        assert different.seed == 99

    def test_workdir_override_does_not_change_digest(self, tmp_path):
        data_dir = tmp_path / "data"
        build_extraction_fixture(data_dir, n_privacy=2, n_benign_low=2, n_high=1, n_yes=1)
        raw = extraction_config(data_dir, tmp_path / "run")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        a = load_config(config_path)
        b = load_config(config_path, {"workdir": str(tmp_path / "elsewhere")})
        assert a.digest == b.digest
        assert b.workdir == tmp_path / "elsewhere"

    def test_needs_backend(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_config({"workdir": "w"}, tmp_path)

    def test_empty_blocks_take_dataclass_defaults(self, tmp_path):
        raw = {
            "nli": {"backends": [{"name": "m", "endpoint": "mock"}]},
            "llm": {"backend": {}, "sampling": {}},
        }
        config = parse_config(raw, tmp_path)
        assert config.nli_backends == (NliBackendConfig("m", "mock"),)
        assert config.llm_backend == LlmBackendConfig("llm", "mock")
        assert config.sampling == SamplingSettings()

    def test_response_field_remap_reaches_backend(self, tmp_path):
        from concernminer.config import NliBackendConfig, make_nli_backend

        cfg = NliBackendConfig(
            name="remote",
            endpoint="http://example/nli",
            response_fields={"entailment": "ent"},
        )
        backend = make_nli_backend(cfg, seed=0)
        assert backend.response_fields["entailment"] == "ent"
        assert backend.response_fields["neutral"] == "neutral"  # defaults retained

    def test_endpoint_overrides(self, tmp_path):
        data_dir = tmp_path / "data"
        build_extraction_fixture(data_dir, n_privacy=2, n_benign_low=2, n_high=1, n_yes=1)
        raw = extraction_config(data_dir, tmp_path / "run")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        config = load_config(
            config_path,
            {"nli_endpoint": "http://example/nli", "llm_endpoint": "http://example/llm", "max_inflight": 2},
        )
        assert all(b.endpoint == "http://example/nli" for b in config.nli_backends)
        assert config.llm_backend.endpoint == "http://example/llm"
        assert all(b.max_inflight == 2 for b in config.nli_backends)
        assert config.llm_backend.max_inflight == 2
