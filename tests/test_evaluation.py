"""Confusion conventions, metric arithmetic, baseline, kappa, and selection."""

from __future__ import annotations

import random

import pytest

from concernminer.errors import ValidationError
from concernminer.evaluation import (
    ConfusionMatrix,
    MetricsReport,
    cohen_kappa,
    confusion_from_llm,
    confusion_from_nli,
    f1_score,
    metrics,
    random_baseline,
    select_best,
)
from concernminer.labels import BinaryLabel, PseudoLabel

MAYBE = PseudoLabel.MAYBE_PRIVACY
NOT = PseudoLabel.MAYBE_NOT_PRIVACY
UNDET = PseudoLabel.UNDETERMINED


class TestConfusionFromNli:
    def test_perfect_split(self):
        gold = {"a": 1, "b": 1, "c": 0, "d": 0}
        pseudo = {"a": MAYBE, "b": MAYBE, "c": UNDET, "d": NOT}
        cm = confusion_from_nli(gold, pseudo)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 0, 2, 0)

    def test_four_review_hand_fixture(self):
        gold = {"a": 1, "b": 1, "c": 0, "d": 0}
        pseudo = {"a": MAYBE, "b": UNDET, "c": MAYBE, "d": NOT}
        cm = confusion_from_nli(gold, pseudo)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_undetermined_counts_as_negative_both_ways(self):
        gold = {"a": 1, "b": 0}
        pseudo = {"a": UNDET, "b": UNDET}
        cm = confusion_from_nli(gold, pseudo)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 1, 0, 1)

    def test_synthetic_568_false_positives(self):
        gold = {f"p{i}": 1 for i in range(414)}
        gold.update({f"n{i}": 0 for i in range(962)})
        pseudo = {f"p{i}": MAYBE for i in range(414)}
        pseudo.update({f"n{i}": MAYBE if i < 568 else NOT for i in range(962)})
        cm = confusion_from_nli(gold, pseudo)
        assert cm.fp == 568
        assert cm.tp + cm.fp + cm.tn + cm.fn == 1376

    def test_missing_pseudo_label(self):
        with pytest.raises(ValidationError):
            confusion_from_nli({"a": 1}, {})

    def test_permutation_invariance(self):
        rng = random.Random(4)
        ids = [f"r{i}" for i in range(60)]
        gold = {i: rng.randint(0, 1) for i in ids}
        pseudo = {i: rng.choice([MAYBE, NOT, UNDET]) for i in ids}
        base = metrics(confusion_from_nli(gold, pseudo))
        shuffled_ids = ids[:]
        rng.shuffle(shuffled_ids)
        again = metrics(confusion_from_nli({i: gold[i] for i in shuffled_ids}, pseudo))
        assert base == again


class TestConfusionFromLlm:
    def test_perfect(self):
        gold = {"a": 1, "b": 0}
        decisions = {"a": BinaryLabel.YES, "b": BinaryLabel.NO}
        cm = confusion_from_llm(gold, decisions)
        assert (cm.fp, cm.fn) == (0, 0)

    def test_all_yes_on_reference_composition(self):
        gold = {f"p{i}": 1 for i in range(358)}
        gold.update({f"n{i}": 0 for i in range(926 - 358)})
        decisions = {rid: BinaryLabel.YES for rid in gold}
        cm = confusion_from_llm(gold, decisions)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (358, 568, 0, 0)

    def test_all_no(self):
        gold = {f"p{i}": 1 for i in range(358)}
        gold.update({f"n{i}": 0 for i in range(568)})
        decisions = {rid: BinaryLabel.NO for rid in gold}
        cm = confusion_from_llm(gold, decisions)
        assert (cm.tp, cm.fn) == (0, 358)

    def test_missing_decision(self):
        with pytest.raises(ValidationError):
            confusion_from_llm({"a": 0}, {})


REFERENCE_ROWS = {
    # candidate id -> (precision, recall, reference f1)
    "Roberta-large-mnli": (0.35, 0.8, 0.49),
    "DeBERTa-v3-base-mnli-fever-anli": (0.34, 0.93, 0.50),
    "T5-base": (0.0, 0.0, 0.0),
    "Nli-roberta-base": (0.32, 0.96, 0.48),
    "Generic": (0.34, 0.93, 0.50),
    "Domain-specific": (0.39, 0.86, 0.54),
    "RC": (0.38, 0.5, 0.43),
    "Llama-3.1-8B-Instruct": (0.72, 0.92, 0.81),
    "Llama-3-8B-Instruct": (0.59, 0.83, 0.69),
    "Falcon-7b-instruct": (0.4, 0.95, 0.57),
    "Mistral-7B-Instruct-v0.3": (0.36, 0.089, 0.14),
}


class TestMetrics:
    def test_zero_tp_zero_fp_row_is_all_zero(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, tn=100, fn=40))
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_domain_row_harmonic(self):
        assert f1_score(0.39, 0.86) == pytest.approx(0.54, abs=0.005)

    def test_low_recall_row_harmonic(self):
        assert f1_score(0.36, 0.089) == pytest.approx(0.14, abs=0.005)

    @pytest.mark.parametrize("name,row", sorted(REFERENCE_ROWS.items()))
    def test_reference_rows_consistent(self, name, row):
        precision, recall, reference = row
        assert f1_score(precision, recall) == pytest.approx(reference, abs=0.01)

    def test_metrics_from_counts(self):
        report = metrics(ConfusionMatrix(tp=358, fp=568, tn=0, fn=0))
        assert report.precision == pytest.approx(358 / 926)
        assert report.recall == 1.0

    def test_harmonic_mean_bounds(self):
        rng = random.Random(9)
        for _ in range(300):
            cm = ConfusionMatrix(
                tp=rng.randint(1, 50), fp=rng.randint(0, 50), tn=rng.randint(0, 50), fn=rng.randint(0, 50)
            )
            report = metrics(cm)
            assert min(report.precision, report.recall) - 1e-12 <= report.f1
            assert report.f1 <= max(report.precision, report.recall) + 1e-12

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix(-1, 0, 0, 0)


class TestRandomBaseline:
    def test_reference_composition(self):
        report = random_baseline(358, 926)
        assert report.precision == pytest.approx(0.3866, abs=0.0005)
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(0.436, abs=0.001)

    def test_all_positive(self):
        report = random_baseline(10, 10)
        assert report.precision == 1.0
        assert report.f1 == pytest.approx(2 / 3)

    def test_half_positive(self):
        report = random_baseline(1, 2)
        assert (report.precision, report.recall, report.f1) == (0.5, 0.5, 0.5)

    def test_errors(self):
        with pytest.raises(ValidationError):
            random_baseline(0, 10)
        with pytest.raises(ValidationError):
            random_baseline(5, 0)
        with pytest.raises(ValidationError):
            random_baseline(11, 10)


class TestCohenKappa:
    def test_identical_vectors(self):
        report = cohen_kappa([1, 0, 1, 1], [1, 0, 1, 1])
        assert report.kappa == report.p_o == 1.0

    def test_identical_constant_vectors(self):
        assert cohen_kappa([1, 1, 1], [1, 1, 1]).kappa == 1.0

    def test_hand_computed_zero(self):
        report = cohen_kappa([1, 1, 0, 0], [1, 0, 0, 1])
        assert report.p_o == 0.5
        assert report.p_e == 0.5
        assert report.kappa == 0.0

    def test_range_over_random_vectors(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 30)
            a = [rng.randint(0, 1) for _ in range(n)]
            b = [rng.randint(0, 1) for _ in range(n)]
            report = cohen_kappa(a, b)
            assert -1.0 - 1e-9 <= report.kappa <= 1.0 + 1e-9
            assert cohen_kappa(a, a).kappa == 1.0

    def test_string_labels_supported(self):
        report = cohen_kappa(["privacy", "non_privacy"], ["privacy", "privacy"])
        assert report.p_o == 0.5

    def test_errors(self):
        with pytest.raises(ValidationError):
            cohen_kappa([1], [1, 0])
        with pytest.raises(ValidationError):
            cohen_kappa([], [])


class TestSelectBest:
    def _report(self, name):
        precision, recall, reference = REFERENCE_ROWS[name]
        return MetricsReport(precision, recall, reference)

    def test_model_rows_winner(self):
        candidates = [
            (name, self._report(name))
            for name in ("Roberta-large-mnli", "DeBERTa-v3-base-mnli-fever-anli", "T5-base", "Nli-roberta-base")
        ]
        table = select_best(candidates)
        assert table.winner_id == "DeBERTa-v3-base-mnli-fever-anli"
        assert all(row.improvement is None for row in table.rows)

    def test_hypothesis_set_improvement(self):
        table = select_best(
            [("generic", self._report("Generic")), ("domain", self._report("Domain-specific"))],
            baseline_id="generic",
        )
        assert table.winner_id == "domain"
        winner = next(row for row in table.rows if row.candidate_id == table.winner_id)
        assert winner.improvement == pytest.approx(1.08, abs=0.01)

    def test_llm_vs_baseline_ratio(self):
        table = select_best(
            [("RC", self._report("RC")), ("Llama-3.1", self._report("Llama-3.1-8B-Instruct"))],
            baseline_id="RC",
        )
        assert table.winner_id == "Llama-3.1"
        winner = next(row for row in table.rows if row.candidate_id == table.winner_id)
        assert winner.improvement == pytest.approx(1.88, abs=0.05)

    def test_single_candidate_vs_itself(self):
        table = select_best([("only", MetricsReport(0.5, 0.5, 0.5))], baseline_id="only")
        assert table.winner_id == "only"
        winner = next(row for row in table.rows if row.candidate_id == table.winner_id)
        assert winner.improvement == 1.0

    def test_tie_broken_by_precision_then_id(self):
        a = ("bbb", MetricsReport(0.6, 0.5, 0.5))
        b = ("aaa", MetricsReport(0.4, 0.7, 0.5))
        assert select_best([a, b]).winner_id == "bbb"  # higher precision wins
        c = ("ccc", MetricsReport(0.6, 0.5, 0.5))
        assert select_best([c, a]).winner_id == "bbb"  # identical metrics: smaller id

    def test_scaling_f1_keeps_winner(self):
        rng = random.Random(6)
        for _ in range(50):
            candidates = [
                (f"c{i}", MetricsReport(rng.random(), rng.random(), rng.uniform(0.01, 0.5)))
                for i in range(5)
            ]
            winner = select_best(candidates).winner_id
            doubled = [(cid, MetricsReport(r.precision, r.recall, r.f1 * 2)) for cid, r in candidates]
            assert select_best(doubled).winner_id == winner

    def test_zero_baseline_keeps_ratios_none(self):
        table = select_best(
            [("zero", MetricsReport(0, 0, 0)), ("cand", MetricsReport(0.5, 0.5, 0.5))],
            baseline_id="zero",
        )
        assert all(row.improvement is None for row in table.rows)

    def test_errors(self):
        with pytest.raises(ValidationError):
            select_best([])
        with pytest.raises(ValidationError):
            select_best([("a", MetricsReport(0, 0, 0))], baseline_id="missing")

    def test_json_shape(self):
        table = select_best([("a", MetricsReport(0.5, 0.5, 0.5))], baseline_id="a")
        payload = table.to_dict()
        assert payload["winner"] == "a"
        assert payload["baseline"] == "a"
        assert payload["candidates"][0] == {"id": "a", "p": 0.5, "r": 0.5, "f1": 0.5, "improvement": 1.0}
