"""End-to-end orchestration: model/hypothesis selection, extraction, the
annotation session wiring, run manifests, and dataset export.

All stage artifacts live in the config's working directory under fixed
names, so interrupted runs resume from the entailment cache and the vote
log. Manifests exclude anything volatile (timestamps go to a sidecar file):
two runs with the same config digest, corpus, and seed produce byte-identical
manifests and exports when the backends are mocks.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from ._jsonl import Log, read_json, read_jsonl, replace_file, write_csv, write_json, write_jsonl
from .annotation import PRIVACY, AnnotationReport, Responder, run_annotation
from .config import NliBackendConfig, PipelineConfig, backend_slug, make_llm_backend, make_nli_backend
from .corpus import (
    CSV_COLUMNS,
    Review,
    ReviewCorpus,
    filter_by_rating,
    ingest_reviews,
    normalize_corpus,
    parse_record,
    partition_gold,
    review_to_record,
    write_corpus,
)
from .errors import ValidationError
from .evaluation import (
    ComparisonTable,
    ConfusionMatrix,
    MetricsReport,
    confusion_from_llm,
    confusion_from_nli,
    metrics,
    random_baseline,
    select_best,
)
from .hypotheses import HypothesisSet, resolve_hypothesis_set
from .labels import BinaryLabel, PseudoLabel, Vote
from .llm.classify import VoteRecord, classify_corpus
from .nli.labeling import explain_labels
from .nli.scoring import EntailmentMatrix, ScoreCache, save_matrix, score_corpus  # noqa: F401 - benchmarks/runner.py wraps save_matrix here

logger = logging.getLogger(__name__)

STAGE_KEYS = (
    "ingested",
    "rating_filtered",
    "nli_scored",
    "maybe_privacy",
    "llm_yes",
    "llm_no",
    "llm_failed",
    "human_confirmed",
    "human_rejected",
)

MANIFEST_FILE = "manifest.json"
TIMINGS_FILE = "timings.json"
NLI_CACHE_FILE = "nli_cache.jsonl"
PSEUDO_LABELS_FILE = "pseudo_labels.jsonl"
VOTES_FILE = "votes.jsonl"
VOTE_CONTEXT = ("backend", "set_hash", "sampling")  # what a vote record names only where it changes
LLM_FAILURES_FILE = "llm_failures.jsonl"
QUEUE_FILE = "annotation_queue.jsonl"
EXTRACTED_FILE = "extracted.jsonl"
ANNOTATION_STATE_FILE = "annotation_state.jsonl"
ANNOTATION_REPORT_FILE = "annotation_report.json"
SELECTION_REPORT_FILE = "selection_report.json"


@dataclass
class RunManifest:
    run_id: str
    config_digest: str
    seed: int
    hypothesis_set: dict
    backends: dict
    counts: dict

    def validate(self, *, annotation_complete: bool = False) -> None:
        c = self.counts
        missing = [k for k in STAGE_KEYS if k not in c]
        if missing:
            raise ValidationError(f"manifest missing stage counts: {missing}")
        checks = [
            (c["rating_filtered"] <= c["ingested"], "rating_filtered exceeds ingested"),
            (c["nli_scored"] == c["rating_filtered"], "nli_scored != rating_filtered"),
            (c["maybe_privacy"] <= c["nli_scored"], "maybe_privacy exceeds nli_scored"),
            (
                c["llm_yes"] + c["llm_no"] + c["llm_failed"] == c["maybe_privacy"],
                "llm_yes + llm_no + llm_failed != maybe_privacy",
            ),
            (
                c["human_confirmed"] + c["human_rejected"] <= c["llm_yes"],
                "human labels exceed llm_yes",
            ),
        ]
        if annotation_complete:
            checks.append(
                (
                    c["human_confirmed"] + c["human_rejected"] == c["llm_yes"],
                    "annotation complete but confirmed + rejected != llm_yes",
                )
            )
        for ok, message in checks:
            if not ok:
                raise ValidationError(f"manifest conservation violated: {message}")

    def write(self, path: Path) -> None:
        write_json(path, dict(vars(self), counts={k: self.counts[k] for k in STAGE_KEYS}))

    @classmethod
    def read(cls, path: Path) -> "RunManifest":
        """Read a manifest and check its counts (see :meth:`validate`)."""

        def parse(raw: dict) -> "RunManifest":
            manifest = cls(**raw)
            manifest.validate()
            return manifest

        return read_json(path, parse)


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_id(config_digest: str, corpus_path: Path) -> str:
    return hashlib.sha256(f"{config_digest}:{_file_sha256(corpus_path)}".encode()).hexdigest()[:16]


# (review id, pseudo-label, threshold of the clause that fired, hypothesis
# ids above that threshold)
LabelRow = tuple[str, PseudoLabel, float | None, tuple[int, ...]]


def write_pseudo_labels(path: Path, rows: list[LabelRow]) -> None:
    """One line per row, ``json.dumps(record, sort_keys=True)`` of its record but built by hand: only a
    maybe-privacy row names ``threshold`` and ``triggered``, as every other row has ``None`` and ``()``."""
    with replace_file(path) as handle:
        for review_id, label, threshold, triggered in rows:
            line = f'{{"label": "{label.value}", "review_id": {json.encoder.encode_basestring_ascii(review_id)}'
            if label is PseudoLabel.MAYBE_PRIVACY:
                line += f', "threshold": {"null" if threshold is None else repr(threshold)}, "triggered": [{", ".join(map(str, triggered))}]'
            handle.write(line + "}\n")


def read_pseudo_labels(path: Path) -> dict[str, PseudoLabel]:
    return dict(read_jsonl(path, lambda record: (record["review_id"], PseudoLabel(record["label"]))))


def _vote_record_from_dict(raw: dict) -> VoteRecord:
    """A vote record from its log line; ``backend``, ``set_hash`` and
    ``sampling`` are ``None`` when neither it nor an earlier line names them."""
    responses, votes = tuple(raw["raw_responses"]), tuple(Vote(v) for v in raw["votes"])
    return VoteRecord(**dict(raw, raw_responses=responses, votes=votes, decision=BinaryLabel(raw["decision"])))


def read_votes(votes: Log, backend: str, set_hash: str, sampling: str, *, log: bool = True) -> dict[str, VoteRecord]:
    """The records of the vote log ``votes`` that ``backend`` cast on the
    hypothesis set ``set_hash`` with the ``sampling`` digest, by review id; a
    record that lacks a field is left out. ``log=False`` reads the file as a
    whole-file output (see :func:`read_jsonl`): damage raises, nothing is cut."""
    return {
        record.review_id: record
        for record in votes.read(_vote_record_from_dict, log=log)
        if (record.backend, record.set_hash, record.sampling) == (backend, set_hash, sampling)
    }


def append_votes(votes: Log, records: list[VoteRecord]) -> None:
    """Append the records to the vote log ``votes``, inside its ``with``."""
    votes.append([vars(record) for record in records])


def matrix_path(workdir: Path, backend_name: str, hset: HypothesisSet) -> Path:
    return workdir / f"matrix_{backend_slug(backend_name)}_{hset.version_hash[:8]}.bin"


def ingest_corpus(config: PipelineConfig, role: str, path: Path | None) -> ReviewCorpus:
    """Ingest the ``labeled`` or ``unlabeled`` corpus at ``path``, writing
    its rejected rows into the workdir."""
    if path is None:
        raise ValidationError(f"config has no corpus.{role} path")
    config.workdir.mkdir(parents=True, exist_ok=True)
    return ingest_reviews(path, config.corpus_format, rejects_path=config.workdir / f"rejects_{role}.jsonl")


def prepare_corpus(config: PipelineConfig, role: str) -> tuple[ReviewCorpus, ReviewCorpus, ReviewCorpus]:
    """Ingest the ``labeled`` or ``unlabeled`` corpus into the workdir, then
    filter it by rating and normalize it; returns all three stages."""
    corpus = ingest_corpus(config, role, config.labeled_path if role == "labeled" else config.unlabeled_path)
    filtered = filter_by_rating(corpus, config.rating_min, config.rating_max)
    return corpus, filtered, normalize_corpus(filtered)


def gold_corpus(config: PipelineConfig) -> ReviewCorpus:
    """The reviews of the labeled corpus that carry a gold label, ingested
    into the workdir."""
    labeled, _ = partition_gold(ingest_corpus(config, "labeled", config.labeled_path))
    if not len(labeled):
        raise ValidationError("labeled corpus contains no gold labels")
    return labeled


def nli_label(matrix: EntailmentMatrix, hset: HypothesisSet) -> list[LabelRow]:
    """Pseudo-label every row of the matrix with the set's heuristics."""
    return [(review_id, *explained) for review_id, explained in zip(matrix.review_ids, explain_labels(matrix, hset.heuristics))]


def llm_classify(
    config: PipelineConfig, backend, maybe_reviews: list[Review], hset: HypothesisSet
) -> tuple[list[VoteRecord], list[tuple[str, str]]]:
    """Classify the maybe-privacy reviews with the LLM ``backend``, resuming
    from the vote log.

    Only logged records that ``backend`` cast on ``hset`` for reviews in
    ``maybe_reviews`` are reused; the reviews without one are classified and
    each record is appended to the log as it is committed. Writes the
    ``(review_id, reason)`` failures to ``llm_failures.jsonl`` and returns
    them with the records, in ``maybe_reviews`` order.
    """
    votes = Log(config.workdir / VOTES_FILE, VOTE_CONTEXT)
    maybe_ids = {r.id for r in maybe_reviews}
    logged = read_votes(votes, backend.name, hset.version_hash, config.sampling.digest)
    records = {rid: rec for rid, rec in logged.items() if rid in maybe_ids}
    todo = [r for r in maybe_reviews if r.id not in records]
    with votes:  # the stage leaves a vote log, even with nothing to classify
        new_records, failures = classify_corpus(
            backend, todo, hset, config.sampling, max_inflight=config.llm_backend.max_inflight,
            on_record=lambda record: append_votes(votes, [record]),
        )
    records.update((rec.review_id, rec) for rec in new_records)
    write_jsonl(
        config.workdir / LLM_FAILURES_FILE,
        ({"review_id": review_id, "reason": reason} for review_id, reason in failures),
    )
    return [records[r.id] for r in maybe_reviews if r.id in records], failures


@dataclass
class SelectionResult:
    model_table: ComparisonTable
    hypothesis_table: ComparisonTable
    best_model: str
    best_set_id: str
    pseudo_labels: list[LabelRow]


def run_selection(config: PipelineConfig) -> SelectionResult:
    """Evaluate every configured NLI backend on the generic set, pick the
    best by F1, re-evaluate it on the domain set, pick the winning set, and
    emit the pseudo-labeled corpus from the winning pair. Each pass scores
    through the workdir's entailment cache and keeps its matrix in memory:
    it writes no matrix file."""
    if config.labeled_path is None:
        raise ValidationError("selection needs corpus.labeled in the config")
    generic = resolve_hypothesis_set(config.hypothesis_refs["generic"], config.base_dir)
    domain = resolve_hypothesis_set(config.hypothesis_refs["domain"], config.base_dir)
    backends = {cfg.name: make_nli_backend(cfg, config.seed, config.base_dir) for cfg in config.nli_backends}
    labeled = normalize_corpus(gold_corpus(config))
    gold = {r.id: r.gold_label for r in labeled}
    cache = ScoreCache(config.workdir / NLI_CACHE_FILE)  # each pass scores a (backend, set) pair no other pass does

    def evaluate(backend_cfg: NliBackendConfig, hset: HypothesisSet) -> tuple[MetricsReport, list[LabelRow]]:
        matrix = score_corpus(backends[backend_cfg.name], labeled, hset, cache=cache, max_inflight=backend_cfg.max_inflight)
        rows = nli_label(matrix, hset)
        report = metrics(confusion_from_nli(gold, {review_id: label for review_id, label, _, _ in rows}))
        logger.info("%s on %s: P=%.3f R=%.3f F1=%.3f", backend_cfg.name, hset.set_id, report.precision, report.recall, report.f1)
        return report, rows

    candidates: list[tuple[str, MetricsReport]] = []
    rows_by_model: dict[str, list[LabelRow]] = {}
    for backend_cfg in config.nli_backends:
        report, rows_by_model[backend_cfg.name] = evaluate(backend_cfg, generic)
        candidates.append((backend_cfg.name, report))

    model_table = select_best(candidates)
    best_model = model_table.winner_id
    best_cfg = next(b for b in config.nli_backends if b.name == best_model)
    best_generic_report = model_table.winner().report

    if domain.version_hash == generic.version_hash:
        hypothesis_table = select_best([(generic.set_id, best_generic_report)], baseline_id=generic.set_id)
        winning_rows = rows_by_model[best_model]
        best_set_id = generic.set_id
    else:
        domain_report, domain_rows = evaluate(best_cfg, domain)
        hypothesis_table = select_best(
            [(generic.set_id, best_generic_report), (domain.set_id, domain_report)],
            baseline_id=generic.set_id,
        )
        best_set_id = hypothesis_table.winner_id
        winning_rows = domain_rows if best_set_id == domain.set_id else rows_by_model[best_model]

    write_pseudo_labels(config.workdir / PSEUDO_LABELS_FILE, winning_rows)
    write_json(
        config.workdir / SELECTION_REPORT_FILE,
        {
            "models": model_table.to_dict(),
            "hypothesis_sets": hypothesis_table.to_dict(),
            "best_model": best_model,
            "best_hypothesis_set": best_set_id,
        },
    )
    return SelectionResult(model_table, hypothesis_table, best_model, best_set_id, winning_rows)


def _extracted_record(review: Review, threshold: float | None, triggered: tuple[int, ...], vote: VoteRecord) -> dict:
    record = review_to_record(review)
    record["provenance"] = {
        "nli": {"threshold": threshold, "triggered": list(triggered)},
        "llm": {"votes": [v.value for v in vote.votes], "decision": vote.decision.value, "tie_flag": vote.tie_flag},
    }
    return record


@dataclass
class ExtractionResult:
    manifest: RunManifest
    queue_path: Path


def run_extraction(config: PipelineConfig) -> ExtractionResult:
    """Preprocess, NLI-score and pseudo-label the unlabeled corpus, classify
    the maybe-privacy subset with the LLM, and queue yes-decisions for
    annotation. Writes the manifest plus every stage artifact but the score
    matrix, whose cells are in the entailment cache a rerun reads (only
    ``nli-score`` writes the matrix file, for ``nli-label``)."""
    hset = resolve_hypothesis_set(config.hypothesis_refs["extraction"], config.base_dir)
    backend_cfg = config.nli_backends[0]
    nli_backend = make_nli_backend(backend_cfg, config.seed, config.base_dir)
    llm_backend = make_llm_backend(config.llm_backend, config.llm_script)
    laps = [time.perf_counter()]  # stage boundaries: ingest, nli, llm, emit

    corpus, filtered, normalized = prepare_corpus(config, "unlabeled")
    laps.append(time.perf_counter())

    with ScoreCache(config.workdir / NLI_CACHE_FILE) as cache:
        matrix = score_corpus(nli_backend, normalized, hset, cache=cache, max_inflight=backend_cfg.max_inflight)
    rows = nli_label(matrix, hset)
    write_pseudo_labels(config.workdir / PSEUDO_LABELS_FILE, rows)
    maybe_ids = {review_id for review_id, label, _, _ in rows if label is PseudoLabel.MAYBE_PRIVACY}
    maybe_reviews = [r for r in normalized if r.id in maybe_ids]
    laps.append(time.perf_counter())

    records, failures = llm_classify(config, llm_backend, maybe_reviews, hset)
    laps.append(time.perf_counter())

    yes_votes = {rec.review_id: rec for rec in records if rec.decision is BinaryLabel.YES}
    yes_reviews = [r for r in maybe_reviews if r.id in yes_votes]
    queue_path = config.workdir / QUEUE_FILE
    write_corpus(normalized.derive(tuple(yes_reviews)), queue_path)

    trigger_by_id = {review_id: (threshold, triggered) for review_id, _, threshold, triggered in rows}
    write_jsonl(
        config.workdir / EXTRACTED_FILE,
        (_extracted_record(r, *trigger_by_id[r.id], yes_votes[r.id]) for r in yes_reviews),
    )
    laps.append(time.perf_counter())

    counts = {
        "ingested": len(corpus),
        "rating_filtered": len(filtered),
        "nli_scored": len(normalized),
        "maybe_privacy": len(maybe_reviews),
        "llm_yes": len(yes_reviews),
        "llm_no": sum(1 for rec in records if rec.decision is BinaryLabel.NO),
        "llm_failed": len(failures),
        "human_confirmed": 0,
        "human_rejected": 0,
    }
    manifest = RunManifest(
        run_id=_run_id(config.digest, config.unlabeled_path),
        config_digest=config.digest,
        seed=config.seed,
        hypothesis_set={"set_id": hset.set_id, "version_hash": hset.version_hash},
        backends={
            "nli": {"name": backend_cfg.name, "endpoint": backend_cfg.endpoint},
            "llm": {"name": config.llm_backend.name, "endpoint": config.llm_backend.endpoint},
        },
        counts=counts,
    )
    manifest.validate()
    manifest.write(config.workdir / MANIFEST_FILE)
    stages = zip(("ingest", "nli", "llm", "emit"), laps, laps[1:])
    write_json(config.workdir / TIMINGS_FILE, {"stages": {stage: round(end - start, 3) for stage, start, end in stages}})
    logger.info("extraction: %s", " -> ".join(f"{k}={counts[k]}" for k in STAGE_KEYS[:7]))
    return ExtractionResult(manifest, queue_path)


def annotate_run(config: PipelineConfig, responder: Responder) -> AnnotationReport:
    """Run (or resume) the annotation session over the run's queue, update
    the manifest's human counts, and write the agreement report."""
    queue_path = config.workdir / QUEUE_FILE
    if not queue_path.exists():
        raise ValidationError(f"no annotation queue at {queue_path}; run extraction first")
    queue = list(read_jsonl(queue_path, parse_record))
    if not config.annotators or len(config.annotators) < 2:
        raise ValidationError("config must list at least two annotators")
    manifest_path = config.workdir / MANIFEST_FILE
    manifest = RunManifest.read(manifest_path) if manifest_path.exists() else None
    if manifest is not None and manifest.counts["llm_yes"] != len(queue):
        raise ValidationError(
            f"{queue_path} holds {len(queue)} reviews but {manifest_path} counts {manifest.counts['llm_yes']}"
        )

    report = run_annotation(queue, config.annotators, responder, state_path=config.workdir / ANNOTATION_STATE_FILE)
    write_json(config.workdir / ANNOTATION_REPORT_FILE, report.to_dict())

    if manifest is not None:
        manifest.counts["human_confirmed"] = report.confirmed
        manifest.counts["human_rejected"] = report.rejected
        manifest.validate(annotation_complete=not report.leftover_ids)
        manifest.write(manifest_path)
    if report.leftover_ids:
        logger.warning("annotation incomplete: %d review(s) left over", len(report.leftover_ids))
    return report


def export_dataset(config: PipelineConfig, out_path: Path, fmt: str = "csv") -> int:
    """Write the confirmed privacy reviews with full provenance; returns the
    row count. The file round-trips through ingestion (extra provenance
    columns are ignored there)."""
    extracted_path = config.workdir / EXTRACTED_FILE
    report_path = config.workdir / ANNOTATION_REPORT_FILE
    if not extracted_path.exists():
        raise ValidationError(f"no extracted reviews at {extracted_path}; run extraction first")
    if not report_path.exists():
        raise ValidationError(f"no annotation report at {report_path}; run annotation first")

    finals, tasks = read_json(
        report_path,
        lambda report: (report.get("final_labels", {}), {t["review_id"]: t for t in report.get("tasks", [])}),
    )

    def confirmed(record: dict) -> dict | None:
        """The export row of a confirmed extracted record, else None."""
        if finals.get(record["id"]) != PRIVACY:
            return None
        task = tasks.get(record["id"], {})
        annotation = {
            "labels": task.get("labels", {}),
            "tiebreak_by": task.get("tiebreak_by"),
            "tiebreak_label": task.get("tiebreak_label"),
            "final_label": task.get("final_label"),
        }
        return dict(record, label=1, provenance=dict(record.get("provenance", {}), annotation=annotation))

    rows = [row for row in read_jsonl(extracted_path, confirmed) if row is not None]
    if fmt == "jsonl":
        write_jsonl(out_path, rows)
    elif fmt == "csv":
        write_csv(
            out_path,
            (*CSV_COLUMNS, "provenance"),
            (dict(row, provenance=json.dumps(row["provenance"], sort_keys=True)) for row in rows),
        )
    else:
        raise ValidationError(f"unknown export format {fmt!r}")
    return len(rows)


def _metrics_block(cm: ConfusionMatrix) -> dict:
    """Confusion counts and P/R/F1 of one stage, as ``metrics.json`` holds them."""
    rep = metrics(cm)
    return {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn, "p": rep.precision, "r": rep.recall, "f1": rep.f1}


def evaluate_run(
    config: PipelineConfig,
    *,
    pseudo_path: Path | None = None,
    votes_path: Path | None = None,
) -> dict:
    """Score pseudo-labels and/or LLM decisions against the gold corpus,
    with the random-classifier baseline for whichever subsets apply. Only
    the votes of the configured LLM and sampling on the extraction set
    count; both files are read strictly and left as they are."""
    if config.labeled_path is None:
        raise ValidationError("evaluation needs corpus.labeled in the config")
    pseudo = read_pseudo_labels(pseudo_path) if pseudo_path is not None else None
    votes = None
    if votes_path is not None:
        hset = resolve_hypothesis_set(config.hypothesis_refs["extraction"], config.base_dir)
        votes = read_votes(Log(votes_path, VOTE_CONTEXT), config.llm_backend.name, hset.version_hash, config.sampling.digest, log=False)
    gold = {r.id: r.gold_label for r in gold_corpus(config)}

    result: dict = {"gold_size": len(gold)}
    if pseudo is not None:
        result["nli"] = _metrics_block(confusion_from_nli(gold, pseudo))
    if votes is not None:
        decisions = {rid: rec.decision for rid, rec in votes.items()}
        subset = {rid: label for rid, label in gold.items() if rid in decisions}
        if not subset:
            raise ValidationError("no overlap between gold labels and vote records")
        result["llm"] = dict(_metrics_block(confusion_from_llm(subset, decisions)), evaluated=len(subset))
        n_pos = sum(subset.values())
        if n_pos > 0:
            baseline = random_baseline(n_pos, len(subset))
            result["random_baseline"] = {
                "p": baseline.precision,
                "r": baseline.recall,
                "f1": baseline.f1,
            }
    return result
