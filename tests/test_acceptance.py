"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 9 (live
backend smoke) is optional and skips unless NLI_SMOKE_ENDPOINT is set;
everything else runs offline against the deterministic mocks.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np
import pytest

from concernminer.annotation import NON_PRIVACY, PRIVACY, scripted_responder, run_annotation
from concernminer.config import NliBackendConfig, parse_config
from concernminer.corpus import Review, Store
from concernminer.evaluation import MetricsReport, cohen_kappa, f1_score, random_baseline, select_best
from concernminer.hypotheses import builtin_domain_mh, builtin_generic
from concernminer.labels import BinaryLabel, PseudoLabel, Vote
from concernminer.llm.classify import build_prompt, majority_vote
from concernminer.nli.backends import HttpNliBackend
from concernminer.nli.labeling import explain_labels
from concernminer.nli.scoring import EntailmentMatrix
from concernminer.pipeline import EXTRACTED_FILE, MANIFEST_FILE, VOTES_FILE, run_extraction

from synth import build_extraction_fixture, extraction_config

GENERIC = builtin_generic()
DOMAIN = builtin_domain_mh()

RANK = {PseudoLabel.MAYBE_NOT_PRIVACY: 0, PseudoLabel.UNDETERMINED: 1, PseudoLabel.MAYBE_PRIVACY: 2}


def oracle_label(row, rules):
    """Independent brute-force rule evaluation; every clause checked on its own."""
    fired = False
    for threshold, min_count in rules.positive_rules:
        if sum(1 for s in row if s > threshold) >= min_count:
            fired = True
    if fired:
        return PseudoLabel.MAYBE_PRIVACY
    if rules.negative_threshold is not None:
        if sum(1 for s in row if s > rules.negative_threshold) == 0:
            return PseudoLabel.MAYBE_NOT_PRIVACY
    return rules.default_label


def test_criterion_01_random_baseline_reproduction():
    start = time.perf_counter()
    report = random_baseline(358, 926)
    assert report.precision == pytest.approx(0.387, abs=0.005)
    assert report.recall == 0.500
    assert report.f1 == pytest.approx(0.43, abs=0.01)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_metric_table_consistency():
    start = time.perf_counter()
    rows = [
        # (precision, recall, reference f1) for every reference model/set row
        (0.35, 0.8, 0.49),
        (0.34, 0.93, 0.50),
        (0.0, 0.0, 0.0),  # zero tp and fp: the 0/0 -> 0 convention
        (0.32, 0.96, 0.48),
        (0.34, 0.93, 0.50),
        (0.39, 0.86, 0.54),
        (0.38, 0.5, 0.43),
        (0.72, 0.92, 0.81),
        (0.59, 0.83, 0.69),
        (0.4, 0.95, 0.57),
        (0.36, 0.089, 0.14),
    ]
    for precision, recall, reference in rows:
        assert f1_score(precision, recall) == pytest.approx(reference, abs=0.01), (precision, recall)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_selection_logic():
    start = time.perf_counter()
    nli_rows = [
        ("Roberta-large-mnli", MetricsReport(0.35, 0.8, 0.49)),
        ("DeBERTa-v3-base-mnli-fever-anli", MetricsReport(0.34, 0.93, 0.50)),
        ("T5-base", MetricsReport(0.0, 0.0, 0.0)),
        ("Nli-roberta-base", MetricsReport(0.32, 0.96, 0.48)),
    ]
    assert select_best(nli_rows).winner_id == "DeBERTa-v3-base-mnli-fever-anli"

    sets = select_best(
        [("generic", MetricsReport(0.34, 0.93, 0.50)), ("domain", MetricsReport(0.39, 0.86, 0.54))],
        baseline_id="generic",
    )
    assert sets.winner_id == "domain"
    assert next(row for row in sets.rows if row.candidate_id == sets.winner_id).improvement == pytest.approx(1.08, abs=0.01)

    llm = select_best(
        [("RC", MetricsReport(0.38, 0.5, 0.43)), ("Llama-3.1", MetricsReport(0.72, 0.92, 0.81))],
        baseline_id="RC",
    )
    # the reference ratio is 1.86x from unrounded inputs; 0.81/0.43 on the
    # rounded reference rows gives 1.88, hence the wider tolerance
    assert next(row for row in llm.rows if row.candidate_id == llm.winner_id).improvement == pytest.approx(1.88, abs=0.05)
    assert time.perf_counter() - start < 1.0


def test_criterion_04_heuristic_labeler_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20250809)
    boundary_values = np.array([0.0, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 1.0])
    hyp_ids = tuple(range(1, 11))

    for round_no in range(1000):
        if round_no % 4 == 0:
            grid = rng.choice(boundary_values, size=(200, 10)).astype(np.float32)
        else:
            grid = rng.uniform(0, 1, size=(200, 10)).astype(np.float32)
        matrix = EntailmentMatrix(
            tuple(f"r{i}" for i in range(200)), hyp_ids, "hash", "acceptance", grid
        )
        for rules in (GENERIC.heuristics, DOMAIN.heuristics):
            got = [label for label, _, _ in explain_labels(matrix, rules)]
            expected = [oracle_label(matrix.row(i).tolist(), rules) for i in range(matrix.shape[0])]
            assert got == expected

    # monotonicity: pointwise increases never demote a review
    n = 10_000
    base = rng.uniform(0, 1, size=(n, 10)).astype(np.float32)
    bumps = rng.uniform(0, 0.6, size=(n, 10)) * (rng.uniform(size=(n, 10)) < 0.5)
    raised = np.minimum(1.0, base + bumps).astype(np.float32)
    ids = tuple(f"m{i}" for i in range(n))
    for rules in (GENERIC.heuristics, DOMAIN.heuristics):
        before = [label for label, _, _ in explain_labels(EntailmentMatrix(ids, hyp_ids, "h", "b", base), rules)]
        after = [label for label, _, _ in explain_labels(EntailmentMatrix(ids, hyp_ids, "h", "b", raised), rules)]
        assert all(RANK[a] >= RANK[b] for a, b in zip(after, before))

    assert time.perf_counter() - start < 30.0


def test_criterion_05_count_conservation_and_determinism(tmp_path):
    start = time.perf_counter()
    data_dir = tmp_path / "data"
    ledger = build_extraction_fixture(data_dir)  # 500 low-rated reviews after the filter
    assert ledger.rating_filtered == 500

    outputs = []
    for run_name in ("run_a", "run_b"):
        raw = extraction_config(data_dir, tmp_path / run_name, seed=7)
        config = parse_config(raw, tmp_path)
        result = run_extraction(config)
        counts = result.manifest.counts

        assert counts["rating_filtered"] == ledger.rating_filtered
        assert counts["maybe_privacy"] == ledger.maybe_privacy == 60
        assert counts["llm_yes"] == ledger.llm_yes == 25
        assert counts["llm_yes"] + counts["llm_no"] + counts["llm_failed"] == counts["maybe_privacy"]
        result.manifest.validate()

        outputs.append(
            {
                name: (config.workdir / name).read_bytes()
                for name in (MANIFEST_FILE, EXTRACTED_FILE, VOTES_FILE)
            }
        )
    assert outputs[0] == outputs[1]
    assert time.perf_counter() - start < 60.0


def test_criterion_06_voting_properties():
    start = time.perf_counter()

    # permutation invariance across every ordering of every vote multiset
    by_multiset: dict[tuple, set] = {}
    for combo in itertools.product(list(Vote), repeat=5):
        key = tuple(sorted(v.value for v in combo))
        by_multiset.setdefault(key, set()).add(majority_vote(list(combo)))
    assert all(len(results) == 1 for results in by_multiset.values())

    # five decided votes never set the tie flag
    for combo in itertools.product([Vote.YES, Vote.NO], repeat=5):
        _, tie = majority_vote(list(combo))
        assert tie is False

    # the documented conservative tie-break
    votes = [Vote.YES, Vote.NO, Vote.ABSTAIN, Vote.ABSTAIN, Vote.ABSTAIN]
    assert majority_vote(votes) == (BinaryLabel.NO, True)

    assert time.perf_counter() - start < 5.0


def test_criterion_07_prompt_contract():
    start = time.perf_counter()
    review_a = Review("a", "app", Store.GOOGLE_PLAY, 1, "x", text_norm="won t let me sign up")
    review_b = Review("b", "app", Store.GOOGLE_PLAY, 1, "x", text_norm="completely different words")

    prompt_a = build_prompt(DOMAIN, review_a)
    for hyp in DOMAIN.hypotheses:
        assert prompt_a.system.count(f"{hyp.id}. {hyp.text}") == 1
    numbered_lines = [line for line in prompt_a.system.splitlines() if line[:1].isdigit()]
    assert len(numbered_lines) == 21
    assert prompt_a.user == "won t let me sign up"

    prompt_b = build_prompt(DOMAIN, review_b)
    assert prompt_a.system.encode() == prompt_b.system.encode()
    assert time.perf_counter() - start < 1.0


def test_criterion_08_kappa_and_scripted_session():
    identical = cohen_kappa([1, 0, 1, 1, 0], [1, 0, 1, 1, 0])
    assert identical.kappa == 1.0

    derived = cohen_kappa([1, 1, 0, 0], [1, 0, 0, 1])
    assert derived.kappa == pytest.approx(0.0, abs=1e-9)

    queue = [Review(f"r{i}", "app", Store.GOOGLE_PLAY, 1, f"review {i}") for i in range(10)]
    roster = ["lead", "b", "c", "d"]
    disagree = {"r1", "r4", "r7"}  # the session ledger: exactly three tiebreaks
    script = {
        "lead": {r.id: PRIVACY for r in queue},
        "b": {r.id: (NON_PRIVACY if r.id in disagree else PRIVACY) for r in queue},
        "c": {r.id: (NON_PRIVACY if r.id in disagree else PRIVACY) for r in queue},
        "d": {r.id: PRIVACY for r in queue},
    }
    report = run_annotation(queue, roster, scripted_responder(script))
    assert len(report.tiebreak_ids) == 3
    assert set(report.tiebreak_ids) == disagree
    assert report.leftover_ids == ()


@pytest.mark.skipif(
    not os.environ.get("NLI_SMOKE_ENDPOINT"),
    reason="optional live smoke test; set NLI_SMOKE_ENDPOINT to enable",
)
def test_criterion_09_optional_live_nli_smoke():
    # Absolute reference scores and the full-scale 42,271 -> 6,591 -> 1,654
    # -> 1,008 funnel need the original checkpoints, GPU inference, and the
    # private labeled corpus; this smoke test only checks that a configured
    # live endpoint speaks the wire contract and returns valid distributions.
    backend = HttpNliBackend(
        NliBackendConfig(
            os.environ.get("NLI_SMOKE_MODEL", "live-nli"),
            os.environ["NLI_SMOKE_ENDPOINT"],
            timeout=float(os.environ.get("NLI_SMOKE_TIMEOUT", "30")),
        )
    )
    premises = [
        "won t let me sign up after collecting all of my data",
        "this app keeps crashing on startup",
        "they sold my email to advertisers",
        "love the new meditation packs",
        "asked for way more permissions than it needs",
    ]
    hypotheses = DOMAIN.hypotheses[:3]
    for premise in premises:
        for hyp in hypotheses:
            score = backend.score_pair(premise, hyp)
            assert 0.0 <= score.entail <= 1.0
            if score.neutral is not None and score.contradict is not None:
                assert 0.99 <= score.entail + score.neutral + score.contradict <= 1.01
