"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 stdout closed before the output was written,
2 validation error, 3 backend failure, 4 backend failure with a resumable
checkpoint already on disk.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from ._jsonl import Log, read_json, write_json
from .annotation import interactive_responder, scripted_responder
from .config import PipelineConfig, load_config, make_llm_backend, make_nli_backend
from .corpus import write_corpus
from .errors import BackendError, ValidationError
from .hypotheses import resolve_hypothesis_set
from .labels import BinaryLabel, PseudoLabel
from .nli.scoring import ScoreCache
from .pipeline import (
    EXTRACTED_FILE,
    MANIFEST_FILE,
    NLI_CACHE_FILE,
    PSEUDO_LABELS_FILE,
    VOTE_CONTEXT,
    VOTES_FILE,
    annotate_run,
    evaluate_run,
    export_dataset,
    ingest_corpus,
    llm_classify,
    nli_stage,
    prepare_corpus,
    read_pseudo_labels,
    read_votes,
    run_extraction,
    run_selection,
    save_rejects,
    write_pseudo_labels,
)

logger = logging.getLogger(__name__)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config JSON file")
    parser.add_argument("--hypotheses", help="override the extraction hypothesis set (builtin:... or path)")
    parser.add_argument("--nli-endpoint", help="override every NLI backend endpoint")
    parser.add_argument("--llm-endpoint", help="override the LLM backend endpoint")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--max-inflight", type=int, help="override backend concurrency")
    parser.add_argument("--workdir", help="override the working directory")
    parser.add_argument("--verbose", action="store_true", help="INFO-level logging")


def _load(args: argparse.Namespace) -> PipelineConfig:
    return load_config(args.config, vars(args))


def cmd_ingest(args) -> int:
    config = _load(args)
    roles = [role for role, path in (("labeled", config.labeled_path), ("unlabeled", config.unlabeled_path)) if path]
    if not roles:
        raise ValidationError("config has no corpus.labeled or corpus.unlabeled path")
    corpora = [(role, ingest_corpus(config, role)) for role in roles]  # every corpus is read before the first write
    for role, corpus in corpora:
        save_rejects(config, role, corpus)
        out = config.workdir / f"corpus_{role}.jsonl"
        write_corpus(corpus, out)
        print(f"{role}: {len(corpus)} reviews ingested, {len(corpus.provenance.rejects)} rejected -> {out}")
    return 0


def cmd_nli_score(args) -> int:
    config = _load(args)
    hset = resolve_hypothesis_set(config.hypothesis_refs["extraction"], config.base_dir)
    backend_cfg = config.nli_backends[0]
    backend = make_nli_backend(backend_cfg, config.seed, config.base_dir)
    _, _, corpus = prepare_corpus(config, args.role)
    with ScoreCache(config.workdir / NLI_CACHE_FILE) as cache:
        save_rejects(config, args.role, corpus)  # the first write: every input is read
        rows = nli_stage(cache, backend, backend_cfg, corpus, hset)
    print(f"scored {len(rows)} reviews x {len(hset.hypotheses)} hypotheses with {backend.name} -> {cache.path}")
    return 0


def cmd_nli_label(args) -> int:
    config = _load(args)
    hset = resolve_hypothesis_set(config.hypothesis_refs["extraction"], config.base_dir)
    backend_cfg = config.nli_backends[0]
    cache_path = config.workdir / NLI_CACHE_FILE
    if not cache_path.exists():
        raise ValidationError(f"no NLI scores at {cache_path}; run nli-score first")
    _, _, corpus = prepare_corpus(config, args.role)
    with ScoreCache(cache_path) as cache:
        rows = nli_stage(cache, backend_cfg.name, backend_cfg, corpus, hset)  # every cell from the cache: no backend is built
    save_rejects(config, args.role, corpus)
    write_pseudo_labels(config.workdir / PSEUDO_LABELS_FILE, rows)
    print(f"pseudo-labels -> {config.workdir / PSEUDO_LABELS_FILE}")
    for label in PseudoLabel:
        print(f"  {label.value}: {sum(1 for row in rows if row[1] is label)}")
    return 0


def cmd_llm_classify(args) -> int:
    config = _load(args)
    hset = resolve_hypothesis_set(config.hypothesis_refs["extraction"], config.base_dir)
    backend = make_llm_backend(config.llm_backend, config.llm_script)
    pseudo_path = config.workdir / PSEUDO_LABELS_FILE
    if not pseudo_path.exists():
        raise ValidationError(f"no pseudo-labels at {pseudo_path}; run nli-label first")
    pseudo = read_pseudo_labels(pseudo_path)
    _, _, corpus = prepare_corpus(config, args.role)
    if uncovered := sum(1 for r in corpus if r.id not in pseudo):
        if uncovered == len(corpus):
            raise ValidationError(
                f"{pseudo_path} labels none of the {len(corpus)} {args.role} reviews;"
                f" run nli-score --role {args.role} and nli-label --role {args.role} first"
            )
        logger.warning("%s labels %d of the %d %s reviews", pseudo_path, len(corpus) - uncovered, len(corpus), args.role)
    maybe = [r for r in corpus if pseudo.get(r.id) is PseudoLabel.MAYBE_PRIVACY]
    votes = Log(config.workdir / VOTES_FILE, VOTE_CONTEXT)
    logged = read_votes(votes, backend.name, hset.version_hash, config.sampling.digest)
    save_rejects(config, args.role, corpus)  # the first write: every input is read
    with votes:  # the stage leaves a vote log, even with nothing to classify
        records, failures = llm_classify(config, backend, maybe, hset, votes, logged)
    yes = sum(1 for r in records if r.decision is BinaryLabel.YES)
    print(f"classified {len(maybe)} maybe-privacy reviews: yes={yes} no={len(records) - yes} failed={len(failures)}")
    return 0


def cmd_evaluate(args) -> int:
    config = _load(args)

    def chosen(named: str | None, default: Path) -> Path | None:
        """A file named on the command line, which must exist, else the workdir's, if it exists."""
        return Path(named) if named else default if default.exists() else None

    result = evaluate_run(
        config,
        pseudo_path=chosen(args.pseudo, config.workdir / PSEUDO_LABELS_FILE),
        votes_path=chosen(args.votes, config.workdir / VOTES_FILE),
        votes_named=args.votes is not None,
    )
    write_json(config.workdir / "metrics.json", result)
    for stage in ("nli", "llm", "random_baseline"):
        if stage in result:
            block = result[stage]
            print(f"{stage}: P={block['p']:.3f} R={block['r']:.3f} F1={block['f1']:.3f}")
    print(f"report -> {config.workdir / 'metrics.json'}")
    return 0


def cmd_select(args) -> int:
    config = _load(args)
    result = run_selection(config)
    print("model comparison:")
    for row in result.model_table.rows:
        marker = "*" if row.candidate_id == result.model_table.winner_id else " "
        print(f" {marker} {row.candidate_id}: P={row.report.precision:.3f} R={row.report.recall:.3f} F1={row.report.f1:.3f}")
    print("hypothesis sets:")
    for row in result.hypothesis_table.rows:
        marker = "*" if row.candidate_id == result.hypothesis_table.winner_id else " "
        ratio = f" ({row.improvement:.2f}x)" if row.improvement is not None else ""
        print(f" {marker} {row.candidate_id}: F1={row.report.f1:.3f}{ratio}")
    print(f"best: {result.model_table.winner_id} + {result.hypothesis_table.winner_id}")
    return 0


def cmd_extract(args) -> int:
    config = _load(args)
    result = run_extraction(config)
    counts = result.manifest.counts
    print(
        "extraction: "
        + " -> ".join(
            f"{key}={counts[key]}"
            for key in ("ingested", "rating_filtered", "maybe_privacy", "llm_yes", "llm_no", "llm_failed")
        )
    )
    print(f"manifest -> {config.workdir / MANIFEST_FILE}")
    print(f"extracted reviews -> {config.workdir / EXTRACTED_FILE} ({counts['llm_yes']} to annotate)")
    return 0


def cmd_annotate(args) -> int:
    config = _load(args)
    responder = read_json(Path(args.responses), scripted_responder) if args.responses else interactive_responder()
    report = annotate_run(config, responder)
    kappa = f"{report.kappa.kappa:.3f}" if report.kappa else "n/a"
    print(
        f"annotation: confirmed={report.confirmed} rejected={report.rejected} "
        f"tiebreaks={len(report.tiebreak_ids)} leftovers={len(report.leftover_ids)} kappa={kappa}"
    )
    return 0


def cmd_export(args) -> int:
    config = _load(args)
    out = Path(args.output)
    count = export_dataset(config, out, fmt=args.format)
    print(f"exported {count} confirmed privacy reviews -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concernminer",
        description="Mine privacy-concern app reviews with NLI filtering and LLM classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "ingest": (cmd_ingest, "ingest the configured corpora into the workdir"),
        "nli-score": (cmd_nli_score, "score reviews against the hypothesis set"),
        "nli-label": (cmd_nli_label, "apply threshold heuristics to produce pseudo-labels"),
        "llm-classify": (cmd_llm_classify, "classify maybe-privacy reviews with the LLM"),
        "evaluate": (cmd_evaluate, "score pseudo-labels/decisions against gold labels"),
        "select": (cmd_select, "pick the best NLI backend and hypothesis set"),
        "extract": (cmd_extract, "run the full extraction pipeline"),
        "annotate": (cmd_annotate, "run the terminal annotation session"),
        "export": (cmd_export, "export confirmed privacy reviews with provenance"),
    }
    for name, (handler, help_text) in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd)
        if name in ("nli-score", "nli-label", "llm-classify"):
            cmd.add_argument("--role", choices=("labeled", "unlabeled"), default="unlabeled")
        if name == "evaluate":
            cmd.add_argument("--pseudo", help="pseudo-labels JSONL (default: workdir file)")
            cmd.add_argument("--votes", help="vote-record JSONL (default: workdir file)")
        if name == "annotate":
            cmd.add_argument("--responses", help="scripted responses JSON instead of the terminal")
        if name == "export":
            cmd.add_argument("--output", required=True)
            cmd.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at interpreter exit
        return code
    except BrokenPipeError:
        # The recipe of the Python docs (signal module, "Note on SIGPIPE"):
        # point stdout at devnull, so the flush at interpreter exit is quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        if exc.completed:
            print("partial progress is cached; rerun to resume", file=sys.stderr)
            return 4
        return 3


if __name__ == "__main__":
    sys.exit(main())
