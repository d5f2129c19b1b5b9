"""Entailment backends, score matrices, caching, and the heuristic labeler."""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import sys
import threading
import tracemalloc
from array import array
from base64 import b64decode, b64encode
from dataclasses import replace

import numpy as np
import pytest

from concernminer._jsonl import Log
from concernminer.config import NliBackendConfig
from concernminer.corpus import Review, Store
from concernminer.errors import BackendError, ValidationError
from concernminer.hypotheses import HypothesisSet, builtin_domain_mh, builtin_generic
from concernminer.labels import PseudoLabel
from concernminer.nli.backends import (
    DEFAULT_TRIGGER_TABLE,
    LOW_SCORE,
    EntailmentScore,
    HttpNliBackend,
    MockNliBackend,
    load_trigger_table,
)
from concernminer.nli.labeling import explain_labels
from concernminer.nli.scoring import EntailmentMatrix, ScoreCache, save_matrix, score_corpus

from httpserver import serve

DOMAIN = builtin_domain_mh()
GENERIC = builtin_generic()

RANK = {PseudoLabel.MAYBE_NOT_PRIVACY: 0, PseudoLabel.UNDETERMINED: 1, PseudoLabel.MAYBE_PRIVACY: 2}


def oracle_label(row, rules) -> PseudoLabel:
    """Independent clause-by-clause rule evaluation (the test oracle).

    Works on plain Python floats so comparisons are float64 vs float64,
    matching the stored-value-versus-threshold semantics.
    """
    row = [float(s) for s in row]
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


def oracle_clause(row, hypothesis_ids, rules) -> tuple[float | None, tuple[int, ...]]:
    """The threshold of the first satisfied positive clause and the ids
    scoring above it, clause by clause; ``(None, ())`` when none is."""
    row = [float(s) for s in row]
    for threshold, min_count in rules.positive_rules:
        triggered = tuple(hyp_id for hyp_id, s in zip(hypothesis_ids, row) if s > threshold)
        if len(triggered) >= min_count:
            return threshold, triggered
    return None, ()


def labels_of(matrix, rules):
    """The pseudo-label of each matrix row, as :func:`explain_labels` gives it."""
    return [label for label, _, _ in explain_labels(matrix, rules)]


def matrix_from_rows(rows, n_cols, set_hash="testhash", backend="test"):
    grid = np.zeros((len(rows), n_cols), dtype=np.float32)
    for i, row in enumerate(rows):
        grid[i, : len(row)] = row
    return EntailmentMatrix(
        tuple(f"r{i}" for i in range(len(rows))),
        tuple(range(1, n_cols + 1)),
        set_hash,
        backend,
        grid,
    )


def rows_of(matrix):
    """The matrix's rows, each a list of floats in hypothesis order."""
    return [matrix.row(i).tolist() for i in range(matrix.shape[0])]


def cells_of(row):
    """A cache row's ``[hypothesis_id, entail]`` cells, in row order."""
    ids, entails = row
    return [[hyp_id, entail] for hyp_id, entail in zip(ids, entails)]


def f32_cells(record):
    """The float32 cells of a cache record's ``f32`` field, as floats."""
    return np.frombuffer(b64decode(record["f32"]), dtype="<f4").tolist()


def f32_field(cells):
    """The ``f32`` field of a cache row holding ``cells``."""
    return b64encode(np.asarray(cells, dtype="<f4").tobytes()).decode("ascii")


def cells_and_ids(matrix):
    """What tells two score matrices apart: their ids, backend, set hash and float32 cells."""
    return matrix.review_ids, matrix.hypothesis_ids, matrix.backend, matrix.set_hash, matrix.scores.tobytes()


def named_records(path):
    """The records of the cache at ``path``, each naming its backend, set hash and hypotheses."""
    return list(Log(path, ("backend", "set_hash", "hypotheses")).read())


def make_reviews(texts):
    return [
        Review(f"r{i}", "app", Store.GOOGLE_PLAY, 1, text).normalized() for i, text in enumerate(texts)
    ]


class TestMockBackend:
    def test_trigger_phrase_scores_high_on_designated_hypothesis(self):
        backend = MockNliBackend(seed=0)
        score = backend.score_pair("this app has data trackers inside", DOMAIN.hypotheses[13])
        assert score.entail >= 0.85

    def test_default_premise_scores_low(self):
        backend = MockNliBackend(seed=0)
        for hyp in DOMAIN.hypotheses:
            assert backend.score_pair("great app love it", hyp).entail <= 0.2

    def test_deterministic_per_seed(self):
        a = MockNliBackend(seed=5).score_pair("some premise", DOMAIN.hypotheses[2])
        b = MockNliBackend(seed=5).score_pair("some premise", DOMAIN.hypotheses[2])
        c = MockNliBackend(seed=6).score_pair("some premise", DOMAIN.hypotheses[2])
        assert a == b
        assert a != c

    def test_distribution_is_valid(self):
        score = MockNliBackend(seed=1).score_pair("whatever text", DOMAIN.hypotheses[1])
        assert abs(score.entail + score.neutral + score.contradict - 1.0) < 1e-6

    @staticmethod
    def cell(seed, triggers, premise, hypothesis):
        """One cell as the mock scored it a call per cell: the highest base of the trigger rows
        the premise hits on the hypothesis id, plus a jitter hashed from seed|premise|id|text."""
        base = LOW_SCORE
        for phrase, hyp_ids, score in triggers:
            if hypothesis.id in hyp_ids and phrase in premise:
                base = max(base, score)
        tag = f"{seed}|{premise}|{hypothesis.id}|{hypothesis.text}".encode("utf-8")
        unit = int.from_bytes(hashlib.sha256(tag).digest()[:8], "little") / 2**64
        return min(1.0, max(0.0, base + (unit * 0.04 - 0.02)))

    @pytest.mark.parametrize("hset", [DOMAIN, GENERIC], ids=["domain", "generic"])
    @pytest.mark.parametrize("table", ["default", "overlapping"])
    @pytest.mark.parametrize(
        "premise",
        [
            "great app love it",
            "this app has data trackers inside",
            "data trackers and they sold my personal information",  # two rows, both on id 14
            "l'appli a vendu mes données à des data trackers ✓ 数据",
        ],
        ids=["no-trigger", "one-trigger", "two-triggers", "non-ascii"],
    )
    def test_a_row_is_its_cells_bit_for_bit(self, tmp_path, hset, table, premise):
        if table == "default":
            triggers = DEFAULT_TRIGGER_TABLE
        else:  # rows whose ids overlap, a lower base on a shared id, and an id no set holds
            (tmp_path / "table.json").write_text(json.dumps(
                [["data", [1, 14, 99], 0.95], ["data trackers", [14, 2], 0.86], ["données", [2, 3], 0.3], ["sold", [3], 0.2]]
            ))
            triggers = load_trigger_table(tmp_path / "table.json")
        backend = MockNliBackend(seed=7, triggers=triggers)
        row = list(backend.score_row(premise, hset.hypotheses))
        assert backend.calls == len(hset.hypotheses)  # one per cell
        pairs = [backend.score_pair(premise, h).entail for h in hset.hypotheses]
        assert backend.calls == 2 * len(hset.hypotheses)
        reference = [self.cell(7, triggers, premise, h) for h in hset.hypotheses]
        assert array("d", row).tobytes() == array("d", pairs).tobytes() == array("d", reference).tobytes()
        assert (max(row) > 0.85) == ("data" in premise)

    def test_a_row_of_some_hypotheses_is_those_cells_in_their_order(self):
        backend = MockNliBackend(seed=2)
        hypotheses = [DOMAIN.hypotheses[16], DOMAIN.hypotheses[2], DOMAIN.hypotheses[13]]
        row = list(backend.score_row("data trackers", hypotheses))
        assert row == [backend.score_pair("data trackers", h).entail for h in hypotheses]
        assert backend.calls == 6
        assert list(backend.score_row("data trackers", [])) == [] and backend.calls == 6


class TestHttpBackend:
    def test_wire_contract(self):
        def respond(path, payload, n):
            assert set(payload) == {"premise", "hypothesis"}
            return 200, {"entailment": 0.9, "neutral": 0.07, "contradiction": 0.03}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url), backoff=0.01)
            score = backend.score_pair("the premise text", DOMAIN.hypotheses[13])
        assert score.entail == 0.9
        assert server.requests[0][1]["hypothesis"] == DOMAIN.hypotheses[13].text

    def test_retries_transient_failure(self):
        def respond(path, payload, n):
            if n == 1:
                return 500, {"error": "boom"}
            return 200, {"entailment": 0.4, "neutral": 0.4, "contradiction": 0.2}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url, max_retries=2), backoff=0.01)
            score = backend.score_pair("p", DOMAIN.hypotheses[0])
        assert score.entail == 0.4
        assert len(server.requests) == 2

    def test_gives_up_after_retries(self):
        def respond(path, payload, n):
            return 500, {"error": "always"}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url, max_retries=1), backoff=0.01)
            with pytest.raises(BackendError):
                backend.score_pair("p", DOMAIN.hypotheses[0])
        assert len(server.requests) == 2

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_client_error_fails_fast(self, status):
        def respond(path, payload, n):
            return status, {"error": "bad request"}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url, max_retries=3), backoff=0.01)
            with pytest.raises(BackendError, match=f"HTTP {status}"):
                backend.score_pair("p", DOMAIN.hypotheses[0])
        assert len(server.requests) == 1

    @pytest.mark.parametrize("status", [503, 429])
    def test_unavailable_then_ok_is_retried(self, status):
        def respond(path, payload, n):
            if n == 1:
                return status, {"error": "busy"}
            return 200, {"entailment": 0.4, "neutral": 0.4, "contradiction": 0.2}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url, max_retries=3), backoff=0.01)
            assert backend.score_pair("p", DOMAIN.hypotheses[0]).entail == 0.4
        assert len(server.requests) == 2

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"entailment": True, "neutral": False, "contradiction": False}, "entailment must be a number, not True"),
            ({"entailment": "0.9", "neutral": 0.07, "contradiction": 0.03}, "entailment must be a number, not '0.9'"),
            ({"entailment": 0.9, "neutral": "0.07", "contradiction": 0.03}, "neutral must be a number, not '0.07'"),
            ({"entailment": 0.9, "neutral": 0.07, "contradiction": None}, "contradiction must be a number, not None"),
            ({"entailment": [0.9]}, r"entailment must be a number, not \[0.9\]"),
            ({"label": "entailment"}, "'entailment'"),
            ({"entailment": 1.2}, r"entail probability 1.2 outside \[0, 1\]"),
            ({"entailment": 0.5, "neutral": -0.1, "contradiction": 0.1}, r"neutral probability -0.1 outside \[0, 1\]"),
            ({"entailment": 0.5, "neutral": 0.5, "contradiction": 0.2}, "score distribution sums to 1.2000, expected ~1"),
        ],
        ids=["true", "string", "neutral-string", "contradiction-null", "list", "no-entailment", "entail-1.2", "neutral-below-0", "sum-1.2"],
    )
    def test_malformed_response(self, tmp_path, body, message):
        cache_path = tmp_path / "cache.jsonl"
        with serve(lambda path, payload, n: (200, body)) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url, max_retries=2), backoff=0.01)
            with ScoreCache(cache_path) as cache, pytest.raises(BackendError, match=f"malformed backend response .*: {message}"):
                score_corpus(backend, make_reviews(["some text"]), DOMAIN, cache=cache, max_inflight=1)
        assert len(server.requests) == 1  # not retried
        assert cache_path.read_bytes() == b""

    def test_scores_may_be_integers_and_neutral_and_contradiction_absent(self):
        bodies = [{"entailment": 1}, {"entailment": 0.25, "neutral": 0}, {"entailment": 0.5, "contradiction": 0.3}]
        with serve(lambda path, payload, n: (200, bodies[n - 1])) as (_, url):  # a partial distribution skips the sum check
            backend = HttpNliBackend(NliBackendConfig("remote", url), backoff=0.01)
            assert backend.score_pair("p", DOMAIN.hypotheses[0]) == EntailmentScore(1.0)
            assert backend.score_pair("p", DOMAIN.hypotheses[0]) == EntailmentScore(0.25, 0.0)
            assert backend.score_pair("p", DOMAIN.hypotheses[0]) == EntailmentScore(0.5, None, 0.3)

    def test_a_row_that_fails_at_its_third_pair_yields_two_cells_and_commits_them(self, tmp_path):
        def respond(path, payload, n):  # a fresh server per row: its third request is refused
            if n == 3:
                return 400, {"error": "bad pair"}
            return 200, {"entailment": 0.125 * n, "neutral": 0.5, "contradiction": 0.5 - 0.125 * n}

        with serve(respond) as (server, url):
            cells = HttpNliBackend(NliBackendConfig("remote", url), backoff=0.01).score_row("p", DOMAIN.hypotheses)
            assert [next(cells), next(cells)] == [0.125, 0.25]
            with pytest.raises(BackendError, match="HTTP 400"):
                next(cells)
        assert [payload["hypothesis"] for _, payload in server.requests] == [h.text for h in DOMAIN.hypotheses[:3]]

        cache_path = tmp_path / "cache.jsonl"
        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url), backoff=0.01)
            with ScoreCache(cache_path) as cache, pytest.raises(BackendError, match="after 2 of 21 uncached cells") as err:
                score_corpus(backend, make_reviews(["some text"]), DOMAIN, cache=cache, max_inflight=1)
        assert (err.value.completed, err.value.total, len(server.requests)) == (2, 21, 3)
        ids, entails = ScoreCache(cache_path).row("remote", DOMAIN.version_hash, "r0")
        assert ids == (1, 2) and list(entails) == [0.125, 0.25]

    def test_field_remap(self):
        def respond(path, payload, n):
            return 200, {"ent": 0.8, "neu": 0.15, "con": 0.05}

        with serve(respond) as (_, url):
            fields = {"entailment": "ent", "neutral": "neu", "contradiction": "con"}
            backend = HttpNliBackend(NliBackendConfig("remote", url, response_fields=fields), backoff=0.01)
            assert backend.score_pair("p", DOMAIN.hypotheses[0]).entail == 0.8


class TestApplyHeuristics:
    def test_domain_single_high_score(self):
        matrix = matrix_from_rows([[0.87]], 21)
        assert labels_of(matrix, DOMAIN.heuristics) == [PseudoLabel.MAYBE_PRIVACY]

    def test_generic_all_zero_row_is_negative(self):
        matrix = matrix_from_rows([[]], 31)
        assert labels_of(matrix, GENERIC.heuristics) == [PseudoLabel.MAYBE_NOT_PRIVACY]

    def test_domain_near_misses_fall_to_default(self):
        matrix = matrix_from_rows([[0.76, 0.74, 0.71]], 21)
        assert labels_of(matrix, DOMAIN.heuristics) == [PseudoLabel.MAYBE_NOT_PRIVACY]

    def test_generic_seven_mid_scores_fire_last_clause(self):
        matrix = matrix_from_rows([[0.55] * 7], 31)
        assert labels_of(matrix, GENERIC.heuristics) == [PseudoLabel.MAYBE_PRIVACY]

    def test_generic_between_thresholds_is_undetermined(self):
        matrix = matrix_from_rows([[0.45]], 31)
        assert labels_of(matrix, GENERIC.heuristics) == [PseudoLabel.UNDETERMINED]

    def test_dimension_mismatch(self):
        matrix = matrix_from_rows([[0.5]], 5)
        with pytest.raises(ValidationError):
            labels_of(matrix, GENERIC.heuristics)  # needs >= 7 columns

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(123)
        boundary_values = [0.0, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 1.0]
        for round_no in range(40):
            if round_no % 2:
                grid = rng.choice(boundary_values, size=(30, 10)).astype(np.float32)
            else:
                grid = rng.uniform(0, 1, size=(30, 10)).astype(np.float32)
            matrix = matrix_from_rows(list(grid), 10)
            for rules in (GENERIC.heuristics, DOMAIN.heuristics):
                got = labels_of(matrix, rules)
                expected = [oracle_label(row, rules) for row in rows_of(matrix)]
                assert got == expected
                clauses = [oracle_clause(row, matrix.hypothesis_ids, rules) for row in rows_of(matrix)]
                assert explain_labels(matrix, rules) == [(label, *clause) for label, clause in zip(expected, clauses)]

    def test_pointwise_increase_never_demotes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            row = rng.uniform(0, 1, size=10).astype(np.float32)
            bumped = np.minimum(1.0, row + rng.uniform(0, 0.5, size=10) * (rng.uniform(size=10) < 0.5)).astype(
                np.float32
            )
            for rules in (GENERIC.heuristics, DOMAIN.heuristics):
                before = oracle_label(row, rules)
                after = oracle_label(bumped, rules)
                assert RANK[after] >= RANK[before]

    def test_label_partition_counts(self):
        rng = np.random.default_rng(99)
        matrix = matrix_from_rows(list(rng.uniform(0, 1, size=(200, 10))), 10)
        for rules in (GENERIC.heuristics, DOMAIN.heuristics):
            labels = labels_of(matrix, rules)
            counts = {label: labels.count(label) for label in PseudoLabel}
            assert sum(counts.values()) == 200
            if rules is DOMAIN.heuristics:
                assert counts[PseudoLabel.UNDETERMINED] == 0  # binary labeling

    def test_generic_reaches_all_three_labels_domain_exactly_two(self):
        rows = [[0.9], [0.45], []]  # clear positive, between thresholds, silent
        matrix = matrix_from_rows(rows, 10)
        assert labels_of(matrix, GENERIC.heuristics) == [
            PseudoLabel.MAYBE_PRIVACY,
            PseudoLabel.UNDETERMINED,
            PseudoLabel.MAYBE_NOT_PRIVACY,
        ]
        assert labels_of(matrix, DOMAIN.heuristics) == [
            PseudoLabel.MAYBE_PRIVACY,
            PseudoLabel.MAYBE_NOT_PRIVACY,
            PseudoLabel.MAYBE_NOT_PRIVACY,
        ]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        matrix = matrix_from_rows(list(rng.uniform(0, 1, size=(50, 10))), 10)
        assert labels_of(matrix, GENERIC.heuristics) == labels_of(matrix, GENERIC.heuristics)

    def test_explain_agrees_with_labels_and_names_triggers(self):
        matrix = matrix_from_rows([[0.87, 0.2], [0.1, 0.1]], 21)
        explained = explain_labels(matrix, DOMAIN.heuristics)
        assert explained == [(PseudoLabel.MAYBE_PRIVACY, 0.85, (1,)), (PseudoLabel.MAYBE_NOT_PRIVACY, None, ())]


class TestScoreCorpus:
    def test_cell_count_and_shape(self):
        reviews = make_reviews(["one text here", "another review", "third thing"])
        matrix = score_corpus(MockNliBackend(seed=0), reviews, DOMAIN, max_inflight=2)
        assert matrix.shape == (3, 21)
        assert matrix.review_ids == ("r0", "r1", "r2")
        assert matrix.hypothesis_ids == tuple(h.id for h in DOMAIN.hypotheses)
        assert matrix.set_hash == DOMAIN.version_hash

    def test_requires_normalized_reviews(self):
        raw = [Review("r0", "app", Store.OTHER, 1, "text")]
        with pytest.raises(ValidationError):
            score_corpus(MockNliBackend(), raw, DOMAIN, max_inflight=8)

    def test_warm_cache_means_zero_backend_calls(self, tmp_path):
        reviews = make_reviews(["data trackers everywhere", "fine app", "crashes a lot"])
        cache_path = tmp_path / "cache.jsonl"

        first_backend = MockNliBackend(seed=0)
        with ScoreCache(cache_path) as cache:
            first = score_corpus(first_backend, reviews, DOMAIN, cache=cache, max_inflight=8)
        assert first_backend.calls == 63

        second_backend = MockNliBackend(seed=0)
        with ScoreCache(cache_path) as cache:
            second = score_corpus(second_backend, reviews, DOMAIN, cache=cache, max_inflight=8)
        assert second_backend.calls == 0
        assert np.array_equal(first.scores, second.scores)

    def test_empty_normalized_text_short_circuits(self):
        reviews = make_reviews(["!!!", "real text"])
        assert reviews[0].text_norm == ""
        backend = MockNliBackend(seed=0)
        matrix = score_corpus(backend, reviews, DOMAIN, max_inflight=8)
        assert backend.calls == 21  # only the non-empty review hits the backend
        assert max(matrix.row(0)) == 0.0

    def test_failure_reports_completed_cells_and_resumes(self, tmp_path):
        class FlakyBackend:
            def __init__(self, fail_after):
                self.name = "flaky"
                self.inner = MockNliBackend(name="flaky", seed=0)
                self.fail_after = fail_after
                self.calls = 0
                self._lock = threading.Lock()

            def score_row(self, premise, hypotheses):
                for entail in self.inner.score_row(premise, hypotheses):
                    with self._lock:
                        self.calls += 1
                        if self.calls > self.fail_after:
                            raise BackendError("synthetic outage")
                    yield entail

        reviews = make_reviews(["text one", "text two"])
        cache_path = tmp_path / "cache.jsonl"
        flaky = FlakyBackend(fail_after=10)
        with ScoreCache(cache_path) as cache:
            with pytest.raises(BackendError) as err:
                score_corpus(flaky, reviews, DOMAIN, cache=cache, max_inflight=1)
        assert err.value.completed == 10
        assert err.value.total == 42

        healthy = MockNliBackend(name="flaky", seed=0)
        with ScoreCache(cache_path) as cache:
            matrix = score_corpus(healthy, reviews, DOMAIN, cache=cache, max_inflight=1)
        assert healthy.calls == 32  # only the cells the first run did not persist
        clean = score_corpus(MockNliBackend(name="flaky", seed=0), reviews, DOMAIN, max_inflight=8)
        assert np.array_equal(matrix.scores, clean.scores)

    @pytest.mark.parametrize(
        "bend, message",
        [
            (lambda cells: cells[:3] + [1.5] + cells[4:], r"an entailment of review 'r1' is outside \[0, 1\]"),
            (lambda cells: cells[:3] + [float("nan")] + cells[4:], r"an entailment of review 'r1' is outside \[0, 1\]"),
            (lambda cells: cells[:13], "13 entailments of review 'r1' for 21 hypotheses"),
            (lambda cells: cells + [0.5], "22 entailments of review 'r1' for 21 hypotheses"),
            (lambda cells: cells[:3] + ["0.5"] + cells[4:], "an entailment of review 'r1' is not a number"),
            (lambda cells: cells[:3] + [None] + cells[4:], "an entailment of review 'r1' is not a number"),
        ],
        ids=["cell-1.5", "nan-cell", "13-of-21-cells", "22-cells", "string-cell", "none-cell"],
    )
    def test_a_malformed_row_commits_none_of_its_cells_and_raises(self, tmp_path, bend, message):
        class MalformedBackend:  # the mock, but the row of the second review is bent
            name = "mock-nli"

            def score_row(self, premise, hypotheses):
                cells = list(MockNliBackend().score_row(premise, hypotheses))
                yield from bend(cells) if premise == reviews[1].text_norm else cells

        reviews = make_reviews(["great app", "they sold my personal information", "data trackers everywhere"])
        cache_path = tmp_path / "cache.jsonl"
        with ScoreCache(cache_path) as cache, pytest.raises(BackendError, match=f"mock-nli: {message}") as err:
            score_corpus(MalformedBackend(), reviews, DOMAIN, cache=cache, max_inflight=2)
        assert (err.value.completed, err.value.total) == (21, 63)  # the first row, and none of the second
        with ScoreCache(cache_path) as cache:  # the cache loads, without the malformed row
            assert len(cache) == 21 and cache.row("mock-nli", DOMAIN.version_hash, "r1") is None
            matrix = score_corpus(MockNliBackend(), reviews, DOMAIN, cache=cache, max_inflight=1)
        assert cells_and_ids(matrix) == cells_and_ids(score_corpus(MockNliBackend(), reviews, DOMAIN, max_inflight=1))
        assert labels_of(matrix, DOMAIN.heuristics)[1] is PseudoLabel.MAYBE_PRIVACY

    def test_a_row_of_ints_float_subclasses_or_float32_values_is_scored(self):
        class Score(float):
            pass

        kinds = {"great app": np.float32, "they sold my personal information": Score, "data trackers everywhere": round}

        class NumberLikeBackend:  # each row's cells as another kind of number
            name = "mock-nli"

            def score_row(self, premise, hypotheses):
                yield from map(kinds[premise], MockNliBackend().score_row(premise, hypotheses))

        reviews = make_reviews(list(kinds))
        matrix = score_corpus(NumberLikeBackend(), reviews, DOMAIN, max_inflight=1)
        expected = score_corpus(MockNliBackend(), reviews, DOMAIN, max_inflight=1)
        assert matrix.scores[:42] == expected.scores[:42]
        assert list(matrix.scores[42:]) == [round(cell) for cell in expected.scores[42:]]


    def test_rows_of_every_cell_in_another_order_give_a_warm_run(self, tmp_path):
        reviews = make_reviews(["data trackers everywhere", "fine app", "!!!"])
        clean = score_corpus(MockNliBackend(seed=0), reviews, DOMAIN, max_inflight=8)
        cache_path = tmp_path / "cache.jsonl"
        fields = {"backend": "mock-nli", "set_hash": DOMAIN.version_hash}
        with Log(cache_path) as log:  # every row's cells in reverse hypothesis order, each row naming its ids
            log.append([
                dict(fields, review_id=review.id, hypotheses=[h.id for h in DOMAIN.hypotheses][::-1], f32=f32_field(clean.row(i)[::-1]))
                for i, review in enumerate(reviews)
            ])
        before = cache_path.read_bytes()
        backend = MockNliBackend(seed=0)
        with ScoreCache(cache_path) as cache:
            assert len(cache) == 63
            warm = score_corpus(backend, reviews, DOMAIN, cache=cache, max_inflight=8)
        assert backend.calls == 0
        assert warm.scores.tobytes() == clean.scores.tobytes()
        assert cache_path.read_bytes() == before  # a warm run appends nothing

    def test_complete_and_partial_f32_rows_all_load(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        complete = {"backend": "b", "set_hash": "h", "review_id": "r0", "f32": "AAAAPwAAgD4AAEA/", "hypotheses": [1, 2, 3]}  # 0.5, 0.25, 0.75
        other = {"review_id": "r1", "hypotheses": [1], "f32": f32_field([0.125])}
        current = {"review_id": "r2", "hypotheses": [2, 1], "f32": f32_field([0.375, 0.625])}
        cache_path.write_text("".join(json.dumps(r) + "\n" for r in (complete, other, current)))
        cache = ScoreCache(cache_path)
        assert len(cache) == 6
        assert cells_of(cache.row("b", "h", "r0")) == [[1, 0.5], [2, 0.25], [3, 0.75]]
        assert cells_of(cache.row("b", "h", "r1")) == [[1, 0.125]]
        assert cells_of(cache.row("b", "h", "r2")) == [[2, 0.375], [1, 0.625]]
        assert cache.row("b", "h", "r3") is None
        assert cache.row("b", "other", "r0") is None

    @pytest.mark.parametrize(
        "fields",
        [
            {"hypotheses": [1.0]}, {"hypotheses": [True]}, {"hypotheses": ["1"]}, {"hypotheses": [None]}, {"review_id": 7},
            {"hypotheses": 1}, {"hypotheses": None}, {"hypotheses": [1, 2]}, {"hypotheses": []},
        ],
        ids=[
            "id-float", "id-true", "id-string", "id-null", "review-id-number",
            "hypotheses-not-a-list", "hypotheses-null", "more-ids-than-cells", "fewer-ids-than-cells",
        ],
    )
    def test_partial_row_out_of_contract_is_corrupt(self, tmp_path, fields):
        cache_path = tmp_path / "cache.jsonl"
        good = {"backend": "b", "set_hash": "h", "review_id": "r0", "hypotheses": [1], "f32": f32_field([0.5])}
        with Log(cache_path) as log:
            log.append([good, dict(good, review_id="r1") | fields])
        with pytest.raises(ValidationError, match=f"{cache_path}:2: corrupt log line"):
            ScoreCache(cache_path)

    def test_a_row_of_a_new_set_with_equal_ids_inherits_them_and_reruns_warm(self, tmp_path):
        reviews = make_reviews(["data trackers everywhere", "fine app"])
        renamed = HypothesisSet("renamed", "same ids", tuple(replace(h, text=h.text + "!") for h in DOMAIN.hypotheses), DOMAIN.heuristics)
        assert renamed.version_hash != DOMAIN.version_hash
        cache_path = tmp_path / "cache.jsonl"
        with ScoreCache(cache_path) as cache:
            clean = [score_corpus(MockNliBackend(seed=0), reviews, hset, cache=cache, max_inflight=2) for hset in (DOMAIN, renamed)]
        records = [json.loads(line) for line in cache_path.read_text().splitlines()]
        assert [sorted(r.keys() & {"set_hash", "hypotheses"}) for r in records] == [["hypotheses", "set_hash"], [], ["set_hash"], []]
        warm = MockNliBackend(seed=0)
        with ScoreCache(cache_path) as cache:
            assert len(cache) == 4 * 21
            for hset, matrix in zip((DOMAIN, renamed), clean):
                assert score_corpus(warm, reviews, hset, cache=cache, max_inflight=2).scores.tobytes() == matrix.scores.tobytes()
        assert warm.calls == 0

    def test_a_later_record_wins_a_cell(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        key = {"backend": "b", "set_hash": "h", "review_id": "r0"}
        records = [
            dict(key, hypotheses=[1, 2], f32=f32_field([0.5, 0.25])),
            dict(key, hypotheses=[2], f32=f32_field([0.75])),
            dict(key, hypotheses=[3, 1], f32=f32_field([0.125, 0.0])),
        ]
        with Log(cache_path) as log:
            log.append(records)
        cache = ScoreCache(cache_path)
        assert len(cache) == 3
        assert cells_of(cache.row("b", "h", "r0")) == [[2, 0.75], [3, 0.125], [1, 0.0]]  # a won cell moves last

    def test_complete_and_partial_rows_load_under_one_merge_rule(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        h, other = {"backend": "b", "set_hash": "h"}, {"backend": "b", "set_hash": "other"}
        records = [
            dict(h, review_id="r0", f32="AAAAPwAAgD4AAEA/", hypotheses=[1, 2, 3]),  # 0.5, 0.25, 0.75; names set h's ids
            dict(h, review_id="r1", f32="AAAAPgAAAAAAAIA/"),  # 0.125, 0.0, 1.0; its ids are the last named
            dict(other, review_id="r0", f32="AAAAPwAAgD4=", hypotheses=[7, 5]),  # 0.5, 0.25; names another set's
            dict(h, review_id="r1", hypotheses=[2], f32=f32_field([0.5])),  # a partial row wins a cell
            dict(h, review_id="r0", hypotheses=[1], f32=f32_field([0.0])),
            dict(h, review_id="r2", hypotheses=[3, 1], f32=f32_field([0.25, 0.375])),
            dict(h, review_id="r2", hypotheses=[1, 2, 3], f32="AAAgPwAAYD8AAIA9"),  # 0.625, 0.875, 0.0625: a complete row wins every cell
            dict(other, review_id="r1", hypotheses=[7, 5], f32="AAAAAAAAgD8="),  # 0.0, 1.0
            dict(h, review_id="r3", hypotheses=[1, 2, 3], f32="AAAAAAAAgD8AAMA+"),  # 0.0, 1.0, 0.375, in set h's order
            dict(h, review_id="r1", f32="AADAPgAAAAAAAAA/"),  # 0.375, 0.0, 0.5
            dict(h, review_id="r3", hypotheses=[1], f32=f32_field([0.125])),
        ]
        with Log(cache_path) as log:
            log.append(records)
        cache = ScoreCache(cache_path)
        assert len(cache) == 16
        assert cache.row("b", "h", "r1")[0] is cache.row("b", "h", "r2")[0]  # merged rows of equal ids share one tuple
        assert cells_of(cache.row("b", "h", "r0")) == [[2, 0.25], [3, 0.75], [1, 0.0]]  # a won cell moves last
        assert cells_of(cache.row("b", "h", "r1")) == [[1, 0.375], [2, 0.0], [3, 0.5]]
        assert cells_of(cache.row("b", "h", "r2")) == [[1, 0.625], [2, 0.875], [3, 0.0625]]
        assert cells_of(cache.row("b", "h", "r3")) == [[2, 1.0], [3, 0.375], [1, 0.125]]
        assert cells_of(cache.row("b", "other", "r0")) == [[7, 0.5], [5, 0.25]]
        assert cells_of(cache.row("b", "other", "r1")) == [[7, 0.0], [5, 1.0]]
        assert cache.row("b", "other", "r0")[0] is cache.row("b", "other", "r1")[0]  # one id tuple per set

    def test_a_partial_row_names_its_cells_and_resumes_warm(self, tmp_path):
        class FailingBackend(MockNliBackend):
            def score_row(self, premise, hypotheses):
                for cell, entail in enumerate(super().score_row(premise, hypotheses)):
                    if cell == 10:  # the 11th cell of the first row
                        raise BackendError("synthetic outage")
                    yield entail

        reviews = make_reviews(["text one", "text two"])
        cache_path = tmp_path / "cache.jsonl"
        hyp_ids = [h.id for h in DOMAIN.hypotheses]
        with ScoreCache(cache_path) as cache, pytest.raises(BackendError):
            score_corpus(FailingBackend(seed=0), reviews, DOMAIN, cache=cache, max_inflight=1)
        with ScoreCache(cache_path) as cache:
            matrix = score_corpus(MockNliBackend(seed=0), reviews, DOMAIN, cache=cache, max_inflight=1)
        records = [json.loads(line) for line in cache_path.read_text().splitlines()]
        assert [sorted(r) for r in records] == [
            ["backend", "f32", "hypotheses", "review_id", "set_hash"],  # the failed row's 10 cells
            ["f32", "hypotheses", "review_id"],  # its other 11, on resume, in the pass context the file's last record named
            ["f32", "hypotheses", "review_id"],  # the first complete row after them names every id again
        ]
        assert records[0]["hypotheses"] == hyp_ids[:10] and len(f32_cells(records[0])) == 10
        assert records[1]["hypotheses"] == hyp_ids[10:] and len(f32_cells(records[1])) == 11
        assert records[2]["hypotheses"] == hyp_ids and len(f32_cells(records[2])) == 21
        warm = MockNliBackend(seed=0)
        with ScoreCache(cache_path) as cache:
            assert cache.row("mock-nli", DOMAIN.version_hash, "r0")[0] == tuple(hyp_ids)
            again = score_corpus(warm, reviews, DOMAIN, cache=cache, max_inflight=1)
        assert warm.calls == 0
        assert again.scores.tobytes() == matrix.scores.tobytes()
        assert matrix.scores.tobytes() == score_corpus(MockNliBackend(seed=0), reviews, DOMAIN, max_inflight=1).scores.tobytes()

    def test_a_set_is_named_once_in_the_file_across_backends_and_passes(self, tmp_path):
        reviews = make_reviews(["data trackers everywhere", "fine app"])
        cache_path = tmp_path / "cache.jsonl"
        with ScoreCache(cache_path) as cache:  # one cache for two backends on one set, as `select` uses it
            for name in ("a", "b"):
                score_corpus(MockNliBackend(name=name, seed=0), reviews, DOMAIN, cache=cache, max_inflight=2)
        with ScoreCache(cache_path) as cache:
            score_corpus(MockNliBackend(name="c", seed=0), reviews, DOMAIN, cache=cache, max_inflight=2)
        records = [json.loads(line) for line in cache_path.read_text().splitlines()]
        assert [(r.get("backend"), "hypotheses" in r) for r in records] == [  # each backend named once, where it changes
            ("a", True), (None, False), ("b", False), (None, False), ("c", False), (None, False)]
        assert len(ScoreCache(cache_path)) == 6 * 21

    def test_a_cache_whose_records_all_name_their_context_resumes_to_the_clean_file(self, tmp_path):
        texts = [f"review {k} with data trackers" if k % 3 == 0 else f"plain review {k}" for k in range(8)]
        reviews = make_reviews(texts + ["!!!"])
        clean_path = tmp_path / "clean.jsonl"
        with ScoreCache(clean_path) as cache:
            clean = score_corpus(MockNliBackend(seed=3), reviews, DOMAIN, cache=cache, max_inflight=2)
        whole = clean_path.read_bytes().splitlines(keepends=True)
        assert [sorted(r.keys() & {"backend", "set_hash"}) for r in map(json.loads, whole)] == [["backend", "set_hash"]] + [[]] * 8
        named = named_records(clean_path)
        cache_path = tmp_path / "cache.jsonl"
        with Log(cache_path) as log:  # every row as versions before this format wrote it
            log.append(named)
        before = cache_path.read_bytes()
        warm = MockNliBackend(seed=3)
        with ScoreCache(cache_path) as cache:
            assert score_corpus(warm, reviews, DOMAIN, cache=cache, max_inflight=2).scores.tobytes() == clean.scores.tobytes()
        assert warm.calls == 0 and cache_path.read_bytes() == before

        cache_path.write_bytes(b"".join(line for line in before.splitlines(keepends=True)[:5]))  # the last 4 rows lost
        resumed = MockNliBackend(seed=3)
        with ScoreCache(cache_path) as cache:
            assert score_corpus(resumed, reviews, DOMAIN, cache=cache, max_inflight=2).scores.tobytes() == clean.scores.tobytes()
        assert resumed.calls == 4 * 21
        lines = cache_path.read_bytes().splitlines(keepends=True)
        assert lines[:5] == before.splitlines(keepends=True)[:5]
        assert lines[5:] == whole[5:]  # appended as the uninterrupted run appended them, the context left out

    def test_backends_interleaved_over_one_cache_each_rerun_warm_to_their_clean_matrix(self, tmp_path):
        reviews = make_reviews([f"review {k} with data trackers" if k % 3 == 0 else f"plain review {k}" for k in range(8)])
        backends = {"a": MockNliBackend(name="a", seed=0), "b": MockNliBackend(name="b", seed=1)}
        clean_path = tmp_path / "clean.jsonl"
        with ScoreCache(clean_path) as cache:  # as `select` scores: one backend, then the next, on one set
            clean = {name: score_corpus(b, reviews, DOMAIN, cache=cache, max_inflight=2) for name, b in backends.items()}
        named = named_records(clean_path)
        by_backend = {name: [r for r in named if r["backend"] == name] for name in backends}
        assert [len(records) for records in by_backend.values()] == [8, 8]
        cache_path = tmp_path / "cache.jsonl"
        interleaved = [r for k in range(0, 8, 3) for name in backends for r in by_backend[name][k : k + 3]]
        with Log(cache_path, ("backend", "set_hash")) as log:  # runs of 3, 3, 2 rows of each backend in turn
            log.append(interleaved)
        records = [json.loads(line) for line in cache_path.read_text().splitlines()]
        assert [r.get("backend") for r in records] == [
            "a", None, None, "b", None, None, "a", None, None, "b", None, None, "a", None, "b", None]
        assert "set_hash" in records[0] and not any("set_hash" in r for r in records[1:])
        before = cache_path.read_bytes()
        for name, backend in backends.items():
            warm = MockNliBackend(name=name, seed=backend.seed)
            with ScoreCache(cache_path) as cache:
                assert len(cache) == 2 * 8 * 21
                assert score_corpus(warm, reviews, DOMAIN, cache=cache, max_inflight=2).scores.tobytes() == clean[name].scores.tobytes()
            assert warm.calls == 0
        assert cache_path.read_bytes() == before

    def test_two_passes_opened_before_either_appends_each_reload_their_own_cells(self, tmp_path):
        reviews = make_reviews([f"review {k} with data trackers" if k % 3 == 0 else f"plain review {k}" for k in range(6)])
        backends = {"a": MockNliBackend(name="a", seed=0), "b": MockNliBackend(name="b", seed=1)}
        clean = {name: score_corpus(b, reviews, DOMAIN, max_inflight=2) for name, b in backends.items()}
        cache_path = tmp_path / "cache.jsonl"
        with ScoreCache(cache_path) as cache:  # the file ends in a run of b's rows
            for b in backends.values():
                score_corpus(b, reviews[:2], DOMAIN, cache=cache, max_inflight=2)
        caches = {name: ScoreCache(cache_path) for name in backends}  # both read the file before either appends
        for name, b in backends.items():
            score_corpus(b, reviews, DOMAIN, cache=caches[name], max_inflight=2)
        records = [json.loads(line) for line in cache_path.read_text().splitlines()]
        assert [r.get("backend") for r in records[4:]] == ["a", None, None, None, "b", None, None, None]
        for name, backend in backends.items():
            warm = MockNliBackend(name=name, seed=backend.seed)
            with ScoreCache(cache_path) as cache:
                assert score_corpus(warm, reviews, DOMAIN, cache=cache, max_inflight=2).scores.tobytes() == clean[name].scores.tobytes()
            assert warm.calls == 0

    def test_log_counts_cache_hits_apart_from_empty_premises(self, tmp_path, caplog):
        reviews = make_reviews(["!!!", "real text"])
        cache_path = tmp_path / "cache.jsonl"
        for run in ("cold", "warm"):
            caplog.clear()
            with ScoreCache(cache_path) as cache, caplog.at_level(logging.INFO, logger="concernminer.nli.scoring"):
                score_corpus(MockNliBackend(seed=0), reviews, DOMAIN, cache=cache, max_inflight=2)
            expected = "21 backend calls, 0 cache hits, 21 empty-premise" if run == "cold" else "0 backend calls, 42 cache hits, 0 empty-premise"
            assert expected in caplog.text, run

    def test_one_record_per_row_in_review_order(self, tmp_path):
        reviews = make_reviews([f"review number {k}" for k in range(30)] + ["!!!"])
        cache_path = tmp_path / "cache.jsonl"
        with ScoreCache(cache_path) as cache:
            score_corpus(MockNliBackend(seed=0), reviews[:25], DOMAIN, cache=cache, max_inflight=8)
        with ScoreCache(cache_path) as cache:  # the rerun reads what the first pass appended
            score_corpus(MockNliBackend(seed=0), reviews, DOMAIN, cache=cache, max_inflight=8)
        assert len(ScoreCache(cache_path)) == 31 * 21
        records = [json.loads(line) for line in cache_path.read_text().splitlines()]
        # The empty premise is stored while the cache is scanned, before any scored row.
        order = [f"r{k}" for k in range(25)] + ["r30"] + [f"r{k}" for k in range(25, 30)]
        assert [r["review_id"] for r in records] == order
        # Every record holds its whole row in hypothesis order, the ids named once, by the set's first row.
        assert [r.get("hypotheses") for r in records] == [[h.id for h in DOMAIN.hypotheses]] + [None] * 30
        assert all(len(b64decode(r["f32"])) == 4 * 21 and "row" not in r for r in records)  # float32 cells alone
        assert b64decode(records[25]["f32"]) == bytes(4 * 21)  # the empty premise's row of 0.0

    def test_each_committed_row_is_in_the_file_before_the_next_is_scored(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        reviews = make_reviews([f"review number {k}" for k in range(5)])
        rows_on_disk = []  # the file's complete rows as each review's first cell is scored

        class PeekingBackend(MockNliBackend):
            def score_row(self, premise, hypotheses):
                for hypothesis, entail in zip(hypotheses, super().score_row(premise, hypotheses)):
                    if hypothesis.id == DOMAIN.hypotheses[0].id:
                        rows_on_disk.append(cache_path.read_bytes().count(b"\n") if cache_path.exists() else 0)
                    yield entail

        with ScoreCache(cache_path) as cache:  # one worker: each row is committed before the next starts
            score_corpus(PeekingBackend(seed=0), reviews, DOMAIN, cache=cache, max_inflight=1)
        assert rows_on_disk == [0, 1, 2, 3, 4]
        assert len(ScoreCache(cache_path)) == 5 * 21

    def test_cache_file_and_matrix_are_deterministic(self, tmp_path):
        texts = [f"review {k} with data trackers" if k % 3 == 0 else f"plain review {k}" for k in range(120)]
        reviews = make_reviews(texts + ["!!!"])
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches: more chances for a lost update to show
        try:
            for run, max_inflight in enumerate((1, 1, 4, 8)):
                cache_path = tmp_path / f"cache{run}.jsonl"
                backend = MockNliBackend(seed=3)
                with ScoreCache(cache_path) as cache:
                    matrix = score_corpus(backend, reviews, DOMAIN, cache=cache, max_inflight=max_inflight)
                runs.append((cache_path.read_bytes(), matrix.scores.tobytes(), backend.calls))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0][2] == 120 * 21
        assert runs.count(runs[0]) == len(runs)

    def test_any_cut_of_the_cache_resumes_to_the_clean_matrix(self, tmp_path):
        texts = [f"review {k} with data trackers" if k % 3 == 0 else f"plain review {k}" for k in range(6)]
        reviews = make_reviews(texts + ["!!!"])
        clean_path = tmp_path / "clean.jsonl"
        with ScoreCache(clean_path) as cache:
            clean = cells_and_ids(score_corpus(MockNliBackend(seed=3), reviews, DOMAIN, cache=cache, max_inflight=8))
        whole = clean_path.read_bytes()
        ends = [k + 1 for k, byte in enumerate(whole) if byte == ord("\n")]
        assert len(ends) == len(reviews)
        records = [json.loads(line) for line in whole.splitlines()]
        inside_f32 = [start + line.index(b'"f32"') + 12 for start, line in zip([0, *ends], whole.splitlines())]
        inside_context = [  # in the backend and set hash of each record that names them
            start + line.index(key) + len(key) + 4
            for start, line in zip([0, *ends], whole.splitlines()) for key in (b'"backend"', b'"set_hash"') if key in line
        ]
        assert len(inside_context) == 2
        for cut in sorted({0, *ends, *inside_f32, *inside_context, *((start + end) // 2 for start, end in zip([0, *ends], ends))}):
            path = tmp_path / "cut.jsonl"
            path.write_bytes(whole[:cut])
            lost = records[whole[:cut].count(b"\n") :]  # a torn last line is dropped and its row rescored
            backend = MockNliBackend(seed=3)
            with ScoreCache(path) as cache:
                resumed = cells_and_ids(score_corpus(backend, reviews, DOMAIN, cache=cache, max_inflight=8))
            assert backend.calls == sum(len(f32_cells(r)) for r in lost if r["review_id"] != "r6"), cut  # r6 is empty
            assert resumed == clean, cut
            assert path.read_bytes() == whole, cut

    def test_each_cached_cell_reads_back_to_its_float32_cell(self, tmp_path):
        edges = [0.0, 1.0, 1 - 2**-24, 2**-149, 2**-126, 0.5442292392254472]  # the last, at 9 digits, is another float32
        for threshold in (0.8, 0.85):
            near32 = np.float32(threshold)
            edges += [threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, 1.0)]
            edges += [float(near32), float(np.nextafter(near32, np.float32(0))), float(np.nextafter(near32, np.float32(1)))]
        n_rows = 20
        values = np.random.default_rng(5).random(n_rows * 21)
        values[: len(edges)] = edges  # in row 0, which a failure leaves as two partial rows
        values[21 : 21 + len(edges)] = edges  # in row 1, a complete f32 row
        table = values.reshape(n_rows, 21).tolist()
        columns = {h.id: j for j, h in enumerate(DOMAIN.hypotheses)}

        class TableBackend:
            name = "table"

            def __init__(self, fail_at=None):
                self.calls, self.fail_at = 0, fail_at

            def score_row(self, premise, hypotheses):
                for hypothesis in hypotheses:
                    self.calls += 1
                    if self.calls == self.fail_at:
                        raise BackendError("synthetic outage")
                    yield table[int(premise.split()[1])][columns[hypothesis.id]]

        reviews = make_reviews([f"review {k}" for k in range(n_rows)])
        cache_path = tmp_path / "cache.jsonl"
        with ScoreCache(cache_path) as cache, pytest.raises(BackendError):
            score_corpus(TableBackend(fail_at=11), reviews, DOMAIN, cache=cache, max_inflight=1)
        with ScoreCache(cache_path) as cache:
            matrix = score_corpus(TableBackend(), reviews, DOMAIN, cache=cache, max_inflight=2)
        assert np.asarray(matrix.scores).tobytes() == values.astype(np.float32).tobytes()
        records = list(Log(cache_path, ("backend", "set_hash", "hypotheses")).read())
        assert [(len(r["hypotheses"]), r["review_id"]) for r in records[:3]] == [(10, "r0"), (11, "r0"), (21, "r1")]
        assert len(records) == n_rows + 1 and all("f32" in r for r in records)
        for record in records[:2]:  # row 0's cells, 10 before the failure and 11 after it, each its float32 bytes
            cells = np.asarray(matrix.row(0), dtype="<f4")[[columns[hyp_id] for hyp_id in record["hypotheses"]]]
            assert b64decode(record["f32"]) == cells.tobytes(), record["hypotheses"]
        for record in records[2:]:  # each complete row's cells are its float32 bytes, little-endian
            i = int(record["review_id"][1:])
            assert b64decode(record["f32"]) == np.asarray(matrix.row(i), dtype="<f4").tobytes(), i
        warm = TableBackend(fail_at=1)
        with ScoreCache(cache_path) as cache:
            assert score_corpus(warm, reviews, DOMAIN, cache=cache, max_inflight=2).scores.tobytes() == matrix.scores.tobytes()

    def test_split_and_whole_rows_rerun_warm_to_one_matrix_file(self, tmp_path):
        texts = [f"review {k} with data trackers" if k % 3 == 0 else f"plain review {k}" for k in range(30)]
        reviews = make_reviews(texts + ["!!!"])
        current = tmp_path / "f32.jsonl"
        with ScoreCache(current) as cache:
            cold = cells_and_ids(score_corpus(MockNliBackend(seed=3), reviews, DOMAIN, cache=cache, max_inflight=8))
        # Each row as two partial rows, as a failure in every row would leave it: each cell the backend's float64 made float32.
        split = tmp_path / "split.jsonl"
        backend = MockNliBackend(seed=3)
        with Log(split, ("backend", "set_hash", "hypotheses")) as log:
            for review in reviews:
                cells = [backend.score_pair(review.text_norm, h).entail if review.text_norm else 0.0 for h in DOMAIN.hypotheses]
                log.append([
                    {"backend": backend.name, "set_hash": DOMAIN.version_hash, "review_id": review.id,
                     "hypotheses": [h.id for h in DOMAIN.hypotheses[part]], "f32": f32_field(cells[part])}
                    for part in (slice(None, 10), slice(10, None))
                ])
        assert split.stat().st_size > current.stat().st_size
        for path in (current, split):
            warm = MockNliBackend(seed=3)
            with ScoreCache(path) as cache:
                assert cells_and_ids(score_corpus(warm, reviews, DOMAIN, cache=cache, max_inflight=8)) == cold, path.name
            assert warm.calls == 0, path.name

    @staticmethod
    def retained_per_cell(path, cells):
        """Bytes a cache loaded from 2,000 records of ``cells`` keeps per cell."""
        fields = {"backend": "mock-nli", "set_hash": DOMAIN.version_hash, **cells}
        records = [dict(fields, review_id=f"review-{k:06d}") for k in range(2000)]
        if "hypotheses" not in cells:  # the first complete row names its ids
            records[0]["hypotheses"] = [h.id for h in DOMAIN.hypotheses]
        with Log(path) as log:
            log.append(records)
        gc.collect()
        tracemalloc.start()
        try:
            cache = ScoreCache(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cache) == 2000 * 21
        return retained / len(cache)

    def test_loaded_cache_of_f32_rows_retains_at_most_40_bytes_per_cell(self, tmp_path):
        f32 = b64encode(np.full(21, 0.125, dtype="<f4").tobytes()).decode("ascii")
        assert self.retained_per_cell(tmp_path / "cache.jsonl", {"f32": f32}) <= 40  # an object per cell took about 280

    def test_loaded_cache_of_rows_that_each_name_their_ids_retains_at_most_40_bytes_per_cell(self, tmp_path):
        cells = {"hypotheses": [h.id for h in DOMAIN.hypotheses][::-1], "f32": f32_field([0.125] * 21)}  # a list read per row
        assert self.retained_per_cell(tmp_path / "cache.jsonl", cells) <= 40

    @pytest.mark.parametrize("max_inflight", [1, 2, 3])
    def test_in_flight_rows_are_bounded(self, tmp_path, max_inflight):
        bound = 2 * max_inflight
        cache_path = tmp_path / "cache.jsonl"
        lock = threading.Lock()
        started: set[str] = set()
        peak = 0
        overrun = threading.Event()

        class RecordingBackend:
            name = "recording"

            def __init__(self):
                self.inner = MockNliBackend(name="recording", seed=0)

            def score_row(self, premise, hypotheses):
                nonlocal peak
                for hypothesis, entail in zip(hypotheses, self.inner.score_row(premise, hypotheses)):
                    with lock:
                        started.add(premise)
                        committed = cache_path.read_bytes().count(b"\n")  # a row is appended as it is committed
                        peak = max(peak, len(started) - committed)
                        if len(started) - committed > bound:
                            overrun.set()
                    if premise == "review 0" and hypothesis.id == DOMAIN.hypotheses[0].id:
                        # Hold the first row back: the main thread waits on it, so
                        # any row submitted beyond the window would start now.
                        overrun.wait(0.2)
                    yield entail

        reviews = make_reviews([f"review {k}" for k in range(5 * bound)])
        with ScoreCache(cache_path) as cache:
            matrix = score_corpus(RecordingBackend(), reviews, DOMAIN, cache=cache, max_inflight=max_inflight)
        assert cache_path.read_bytes().count(b"\n") == len(reviews)
        assert peak <= bound
        assert np.array_equal(matrix.scores, score_corpus(MockNliBackend(name="recording", seed=0), reviews, DOMAIN, max_inflight=8).scores)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("review_id", 7, "review_id must be a string, not 7"),
            ("hypotheses", "12", "hypotheses must be a list, not '12'"),
            ("hypotheses", [1.9, 2], "hypothesis id must be an integer, not 1.9"),
            ("hypotheses", [True, 2], "hypothesis id must be an integer, not True"),
            ("backend", 5, "TypeError("),
            ("set_hash", None, "TypeError("),
            ("f32", f32_field([0.25]), "ValueError('row of 1 cells does not match its 2 hypotheses')"),
            ("f32", "not base64!", "Error("),
        ],
    )
    def test_cache_record_values_are_checked_not_cast(self, tmp_path, field, value, message):
        """A cache record whose value is of the wrong type or size makes the cache unreadable,
        naming its line; no value is cast to fit."""
        path = tmp_path / "cache.jsonl"
        good = {"backend": "mock", "set_hash": "h", "review_id": "r0", "hypotheses": [1, 2], "f32": f32_field([0.25, 0.5])}
        bad = {**good, "review_id": "r1", field: value}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValidationError) as raised:
            ScoreCache(path)
        assert str(raised.value).startswith(f"{path}:2: corrupt log line: {message}")


class TestMatrixFile:
    def test_on_disk_layout(self, tmp_path):
        matrix = matrix_from_rows([[0.25, 0.5], [0.75, 1.0]], 2)
        path = tmp_path / "matrix.bin"
        save_matrix(matrix, path)
        blob = path.read_bytes()
        header_line, binary = blob.split(b"\n", 1)
        header = json.loads(header_line)
        assert header == {
            "backend": "test",
            "hypotheses": [1, 2],
            "reviews": ["r0", "r1"],
            "set_hash": "testhash",
        }
        assert len(binary) == 4 * 4  # four little-endian float32 cells
        assert np.frombuffer(binary, dtype="<f4").tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_grid_range_validated(self):
        for cells in ([1.5], [np.nan, 0.5], [0.5, np.nan]):  # min and max can return a NaN, or pass over one
            with pytest.raises(ValidationError):
                EntailmentMatrix(("r0",), tuple(range(len(cells))), "h", "b", np.array([cells], dtype=np.float32))
