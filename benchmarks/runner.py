"""One benchmark run in a fresh process.

    python3 benchmarks/runner.py extract CONFIG OUT [--trace RUN_ID]
    python3 benchmarks/runner.py prefill CONFIG
    python3 benchmarks/runner.py import

``extract`` loads the config, runs ``run_extraction`` once and writes a JSON
result to OUT: the monotonic time at which ``load_config`` returned (the
parent compares it with the time it spawned this process), the wall time of
``run_extraction``, peak RSS, backend call counts and the manifest counts.
With ``--trace`` it also wraps the public functions of each layer in spans
and adds the per-layer metrics.

``prefill`` scores the leading ``PREFILL_SHARE`` of the rating-filtered
corpus through ``score_corpus`` with the mock NLI backend named in the
config, filling the workdir's NLI cache as an interrupted run would have
left it.

``import`` only imports the program, so bytecode is compiled before any
timed run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

from concernminer import pipeline
from concernminer.config import load_config
from concernminer.labels import PseudoLabel, Vote
from concernminer.llm import backends as llm_backends
from concernminer.llm import classify
from concernminer.nli import backends as nli_backends
from concernminer.nli.backends import MockNliBackend

from tracing import Tracer, tail_percentile

# Share of the filtered corpus whose cells an interrupted run had scored.
PREFILL_SHARE = 0.98


class Capture:
    """Keeps the backend instances ``run_extraction`` creates, to read their
    call counters afterwards."""

    def __init__(self):
        self.nli = None
        self.llm = None

    def install(self, tracer: Tracer | None) -> None:
        make_nli, make_llm = pipeline.make_nli_backend, pipeline.make_llm_backend

        def make_nli_backend(*args, **kwargs):
            self.nli = make_nli(*args, **kwargs)
            if tracer is not None:
                self.nli.score_pair = tracer.wrap("nli.backends.score_pair", self.nli.score_pair)
            return self.nli

        def make_llm_backend(*args, **kwargs):
            self.llm = make_llm(*args, **kwargs)
            if tracer is not None:
                self.llm.complete = tracer.wrap("llm.backends.complete", self.llm.complete)
            return self.llm

        pipeline.make_nli_backend = make_nli_backend
        pipeline.make_llm_backend = make_llm_backend


def install_spans(tracer: Tracer, values: dict) -> None:
    """Wrap each layer's public functions where ``run_extraction`` calls them."""

    def ingested(corpus):
        values["corpus.reviews"] = len(corpus)
        values["corpus.rejected"] = corpus.provenance.counts.get("rejected", 0)

    def cache_built(cache):
        values["nli.scoring.cache_entries"] = len(cache)

    def scored(matrix):
        values["nli.scoring.cells"] = int(matrix.scores.size)

    def labeled(explained):
        values["nli.labeling.maybe_privacy"] = sum(1 for label, _, _ in explained if label is PseudoLabel.MAYBE_PRIVACY)

    def classified(result):
        records, failures = result
        votes = [v for record in records for v in record.votes]
        values["llm.classify.reviews"] = len(records) + len(failures)
        values["llm.classify.failed"] = len(failures)
        values["llm.classify.abstain_ratio"] = sum(v is Vote.ABSTAIN for v in votes) / len(votes) if votes else 0.0
        values["llm.classify.tie_ratio"] = sum(r.tie_flag for r in records) / len(records) if records else 0.0

    p = pipeline
    p.ingest_reviews = tracer.wrap("corpus.ingest_reviews", p.ingest_reviews, ingested)
    p.filter_by_rating = tracer.wrap("corpus.filter_by_rating", p.filter_by_rating)
    p.normalize_corpus = tracer.wrap("corpus.normalize_corpus", p.normalize_corpus)
    p.write_corpus = tracer.wrap("corpus.write_corpus", p.write_corpus)
    p.ScoreCache = tracer.wrap("nli.scoring.ScoreCache", p.ScoreCache, cache_built)
    p.score_corpus = tracer.wrap("nli.scoring.score_corpus", p.score_corpus, scored)
    p.save_matrix = tracer.wrap("nli.scoring.save_matrix", p.save_matrix)
    p.explain_labels = tracer.wrap("nli.labeling.explain_labels", p.explain_labels, labeled)
    p.classify_corpus = tracer.wrap("llm.classify.classify_corpus", p.classify_corpus, classified)
    classify.classify_review = tracer.wrap("llm.classify.classify_review", classify.classify_review)
    nli_backends.post_json = tracer.wrap("http.post_json", nli_backends.post_json)
    llm_backends.post_json = tracer.wrap("http.post_json", llm_backends.post_json)
    p.write_pseudo_labels = tracer.wrap("pipeline.write_pseudo_labels", p.write_pseudo_labels)
    p.read_votes = tracer.wrap("pipeline.read_votes", p.read_votes)
    p.append_votes = tracer.wrap("pipeline.append_votes", p.append_votes)
    p.run_extraction = tracer.wrap("pipeline.run_extraction", p.run_extraction)


def layer_metrics(tracer: Tracer, values: dict, max_inflight: int) -> dict:
    spans = tracer.summary()

    def get(name: str) -> dict:
        return spans.get(name, {"count": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0, "durations_us": []})

    def calls(prefix: str, span: dict) -> dict:
        return {
            f"{prefix}calls": span["count"],
            f"{prefix}busy_s": span["total_s"],
            f"{prefix}call_p50_us": tail_percentile(span["durations_us"], 50),
            f"{prefix}call_p99_us": tail_percentile(span["durations_us"], 99),
        }

    scoring, nli_calls = get("nli.scoring.score_corpus"), get("nli.backends.score_pair")
    corpus_call, review_call = get("llm.classify.classify_corpus"), get("llm.classify.classify_review")
    llm_calls, http = get("llm.backends.complete"), get("http.post_json")
    cells = values.get("nli.scoring.cells", 0)
    reviews = values.get("llm.classify.reviews", 0)
    return {
        "corpus.ingest_s": get("corpus.ingest_reviews")["total_s"],
        "corpus.normalize_s": get("corpus.normalize_corpus")["total_s"],
        "corpus.filter_s": get("corpus.filter_by_rating")["total_s"],
        "corpus.reviews": values.get("corpus.reviews", 0),
        "corpus.rejected": values.get("corpus.rejected", 0),
        "nli.scoring.cache_load_s": get("nli.scoring.ScoreCache")["total_s"],
        "nli.scoring.cache_entries": values.get("nli.scoring.cache_entries", 0),
        "nli.scoring.score_corpus_s": scoring["total_s"],
        "nli.scoring.self_s": scoring["self_s"],
        "nli.scoring.cells": cells,
        "nli.scoring.cache_hit_ratio": (cells - nli_calls["count"]) / cells if cells else 0.0,
        "nli.scoring.worker_busy_ratio": (
            nli_calls["total_s"] / (scoring["total_s"] * max_inflight) if scoring["total_s"] else 0.0
        ),
        "nli.scoring.save_matrix_s": get("nli.scoring.save_matrix")["total_s"],
        **calls("nli.backends.", nli_calls),
        "nli.labeling.explain_s": get("nli.labeling.explain_labels")["total_s"],
        "nli.labeling.maybe_privacy": values.get("nli.labeling.maybe_privacy", 0),
        "llm.classify.classify_corpus_s": corpus_call["total_s"],
        "llm.classify.self_s": corpus_call["self_s"] + review_call["self_s"],
        "llm.classify.reviews": reviews,
        "llm.classify.samples_per_review": llm_calls["count"] / reviews if reviews else 0.0,
        "llm.classify.abstain_ratio": values.get("llm.classify.abstain_ratio", 0.0),
        "llm.classify.tie_ratio": values.get("llm.classify.tie_ratio", 0.0),
        "llm.classify.failed": values.get("llm.classify.failed", 0),
        **calls("llm.backends.", llm_calls),
        "http.post_json_calls": http["count"],
        "http.post_json_p50_us": tail_percentile(http["durations_us"], 50),
        "http.post_json_p99_us": tail_percentile(http["durations_us"], 99),
        "http.errors": http["errors"],
        "pipeline.self_s": get("pipeline.run_extraction")["self_s"],
        "pipeline.write_pseudo_labels_s": get("pipeline.write_pseudo_labels")["total_s"],
        "pipeline.read_votes_s": get("pipeline.read_votes")["total_s"],
        "pipeline.append_votes_s": get("pipeline.append_votes")["total_s"],
    }


def extract(config_path: Path, out_path: Path, run_id: str | None) -> None:
    config = load_config(config_path)
    setup_done = time.monotonic()
    capture = Capture()
    tracer = values = None
    if run_id is not None:
        tracer, values = Tracer(run_id), {}
        install_spans(tracer, values)
    capture.install(tracer)
    start = perf_counter()
    result = pipeline.run_extraction(config)
    wall = perf_counter() - start
    report = {
        "setup_done": setup_done,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "nli_calls": capture.nli.calls,
        "llm_calls": capture.llm.calls,
        "counts": result.manifest.counts,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, values, config.nli_backends[0].max_inflight)
    out_path.write_text(json.dumps(report), encoding="utf-8")


def prefill(config_path: Path) -> None:
    config = load_config(config_path)
    corpus = pipeline.ingest_reviews(config.unlabeled_path, config.corpus_format)
    normalized = pipeline.normalize_corpus(pipeline.filter_by_rating(corpus, config.rating_min, config.rating_max))
    head = list(normalized)[: int(len(normalized) * PREFILL_SHARE)]
    hset = pipeline.resolve_hypothesis_set(config.hypothesis_refs["extraction"], config.base_dir)
    backend_cfg = config.nli_backends[0]
    backend = MockNliBackend(backend_cfg.name, seed=config.seed)
    config.workdir.mkdir(parents=True, exist_ok=True)
    with pipeline.ScoreCache(config.workdir / pipeline.NLI_CACHE_FILE) as cache:
        pipeline.score_corpus(backend, head, hset, cache=cache, max_inflight=backend_cfg.max_inflight)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("extract")
    run.add_argument("config", type=Path)
    run.add_argument("out", type=Path)
    run.add_argument("--trace", metavar="RUN_ID")
    fill = sub.add_parser("prefill")
    fill.add_argument("config", type=Path)
    sub.add_parser("import")
    args = parser.parse_args()
    if args.mode == "extract":
        extract(args.config, args.out, args.trace)
    elif args.mode == "prefill":
        prefill(args.config)


if __name__ == "__main__":
    sys.exit(main())
