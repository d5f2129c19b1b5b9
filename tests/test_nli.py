"""Entailment backends, score matrices, caching, and the heuristic labeler."""

from __future__ import annotations

import gc
import json
import logging
import sys
import threading
import tracemalloc
from base64 import b64decode
from decimal import Decimal

import numpy as np
import pytest

from concernminer._jsonl import Log
from concernminer.config import NliBackendConfig
from concernminer.corpus import Review, Store
from concernminer.errors import BackendError, ValidationError
from concernminer.hypotheses import builtin_domain_mh, builtin_generic
from concernminer.labels import PseudoLabel
from concernminer.nli import (
    EntailmentMatrix,
    EntailmentScore,
    HttpNliBackend,
    MockNliBackend,
    ScoreCache,
    apply_heuristics,
    explain_labels,
    load_matrix,
    n_above,
    save_matrix,
    score_corpus,
)

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


def named_records(path):
    """The records of the cache at ``path``, each naming its backend and set
    hash, as versions before a record could leave them out wrote them."""
    return list(Log(path, ("backend", "set_hash")).read())


def as_entail_rows(records):
    """Cache records with each ``f32`` row rewritten as the decimal ``entail``
    row that versions before the ``f32`` row wrote: 9 significant digits."""
    return [
        {key: value for key, value in r.items() if key != "f32"} | {"entail": [float("%.9g" % x) for x in f32_cells(r)]}
        if "f32" in r else r
        for r in records
    ]


def make_reviews(texts):
    return [
        Review(f"r{i}", "app", Store.GOOGLE_PLAY, 1, text).normalized() for i, text in enumerate(texts)
    ]


class TestEntailmentScore:
    def test_ranges_enforced(self):
        with pytest.raises(ValidationError):
            EntailmentScore(1.2)
        with pytest.raises(ValidationError):
            EntailmentScore(0.5, -0.1, 0.1)

    def test_full_distribution_must_sum_to_one(self):
        EntailmentScore(0.5, 0.3, 0.2)
        with pytest.raises(ValidationError):
            EntailmentScore(0.5, 0.5, 0.2)

    def test_partial_distribution_skips_sum_check(self):
        EntailmentScore(0.5, 0.3, None)


class TestMockBackend:
    def test_trigger_phrase_scores_high_on_designated_hypothesis(self):
        backend = MockNliBackend(seed=0)
        score = backend.score_pair("this app has data trackers inside", DOMAIN.by_id(14))
        assert score.entail >= 0.85

    def test_default_premise_scores_low(self):
        backend = MockNliBackend(seed=0)
        for hyp in DOMAIN.hypotheses:
            assert backend.score_pair("great app love it", hyp).entail <= 0.2

    def test_deterministic_per_seed(self):
        a = MockNliBackend(seed=5).score_pair("some premise", DOMAIN.by_id(3))
        b = MockNliBackend(seed=5).score_pair("some premise", DOMAIN.by_id(3))
        c = MockNliBackend(seed=6).score_pair("some premise", DOMAIN.by_id(3))
        assert a == b
        assert a != c

    def test_distribution_is_valid(self):
        score = MockNliBackend(seed=1).score_pair("whatever text", DOMAIN.by_id(2))
        assert abs(score.entail + score.neutral + score.contradict - 1.0) < 1e-6


class TestHttpBackend:
    def test_wire_contract(self):
        def respond(path, payload, n):
            assert set(payload) == {"premise", "hypothesis"}
            return 200, {"entailment": 0.9, "neutral": 0.07, "contradiction": 0.03}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url), backoff=0.01)
            score = backend.score_pair("the premise text", DOMAIN.by_id(14))
        assert score.entail == 0.9
        assert server.requests[0][1]["hypothesis"] == DOMAIN.by_id(14).text

    def test_retries_transient_failure(self):
        def respond(path, payload, n):
            if n == 1:
                return 500, {"error": "boom"}
            return 200, {"entailment": 0.4, "neutral": 0.4, "contradiction": 0.2}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url, max_retries=2), backoff=0.01)
            score = backend.score_pair("p", DOMAIN.by_id(1))
        assert score.entail == 0.4
        assert len(server.requests) == 2

    def test_gives_up_after_retries(self):
        def respond(path, payload, n):
            return 500, {"error": "always"}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url, max_retries=1), backoff=0.01)
            with pytest.raises(BackendError):
                backend.score_pair("p", DOMAIN.by_id(1))
        assert len(server.requests) == 2

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_client_error_fails_fast(self, status):
        def respond(path, payload, n):
            return status, {"error": "bad request"}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url, max_retries=3), backoff=0.01)
            with pytest.raises(BackendError, match=f"HTTP {status}"):
                backend.score_pair("p", DOMAIN.by_id(1))
        assert len(server.requests) == 1

    @pytest.mark.parametrize("status", [503, 429])
    def test_unavailable_then_ok_is_retried(self, status):
        def respond(path, payload, n):
            if n == 1:
                return status, {"error": "busy"}
            return 200, {"entailment": 0.4, "neutral": 0.4, "contradiction": 0.2}

        with serve(respond) as (server, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url, max_retries=3), backoff=0.01)
            assert backend.score_pair("p", DOMAIN.by_id(1)).entail == 0.4
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
        ],
        ids=["true", "string", "neutral-string", "contradiction-null", "list", "no-entailment"],
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
        with serve(lambda path, payload, n: (200, {"entailment": 1} if n == 1 else {"entailment": 0.25, "neutral": 0})) as (_, url):
            backend = HttpNliBackend(NliBackendConfig("remote", url), backoff=0.01)
            assert backend.score_pair("p", DOMAIN.by_id(1)) == EntailmentScore(1.0)
            assert backend.score_pair("p", DOMAIN.by_id(1)) == EntailmentScore(0.25, 0.0)

    def test_field_remap(self):
        def respond(path, payload, n):
            return 200, {"ent": 0.8, "neu": 0.15, "con": 0.05}

        with serve(respond) as (_, url):
            fields = {"entailment": "ent", "neutral": "neu", "contradiction": "con"}
            backend = HttpNliBackend(NliBackendConfig("remote", url, response_fields=fields), backoff=0.01)
            assert backend.score_pair("p", DOMAIN.by_id(1)).entail == 0.8


class TestNAbove:
    def test_examples(self):
        assert n_above([0.9, 0.5, 0.5], 0.8) == 1
        assert n_above([0.76, 0.76, 0.76, 0.1], 0.75) == 3

    def test_strictly_greater_boundary(self):
        row = [0.3, 0.9, 0.9]
        assert n_above(row, 0.9) == 0  # t == max(row) counts nothing

    def test_antitone_in_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            row = rng.uniform(0, 1, size=12)
            t1, t2 = sorted(rng.uniform(0.01, 0.99, size=2))
            assert n_above(row, t1) >= n_above(row, t2)

    def test_threshold_bounds(self):
        with pytest.raises(ValidationError):
            n_above([0.5], 0.0)
        with pytest.raises(ValidationError):
            n_above([0.5], 1.0)


class TestApplyHeuristics:
    def test_domain_single_high_score(self):
        matrix = matrix_from_rows([[0.87]], 21)
        assert apply_heuristics(matrix, DOMAIN.heuristics) == [PseudoLabel.MAYBE_PRIVACY]

    def test_generic_all_zero_row_is_negative(self):
        matrix = matrix_from_rows([[]], 31)
        assert apply_heuristics(matrix, GENERIC.heuristics) == [PseudoLabel.MAYBE_NOT_PRIVACY]

    def test_domain_near_misses_fall_to_default(self):
        matrix = matrix_from_rows([[0.76, 0.74, 0.71]], 21)
        assert apply_heuristics(matrix, DOMAIN.heuristics) == [PseudoLabel.MAYBE_NOT_PRIVACY]

    def test_generic_seven_mid_scores_fire_last_clause(self):
        matrix = matrix_from_rows([[0.55] * 7], 31)
        assert apply_heuristics(matrix, GENERIC.heuristics) == [PseudoLabel.MAYBE_PRIVACY]

    def test_generic_between_thresholds_is_undetermined(self):
        matrix = matrix_from_rows([[0.45]], 31)
        assert apply_heuristics(matrix, GENERIC.heuristics) == [PseudoLabel.UNDETERMINED]

    def test_dimension_mismatch(self):
        matrix = matrix_from_rows([[0.5]], 5)
        with pytest.raises(ValidationError):
            apply_heuristics(matrix, GENERIC.heuristics)  # needs >= 7 columns

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
                got = apply_heuristics(matrix, rules)
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
            labels = apply_heuristics(matrix, rules)
            counts = {label: labels.count(label) for label in PseudoLabel}
            assert sum(counts.values()) == 200
            if rules is DOMAIN.heuristics:
                assert counts[PseudoLabel.UNDETERMINED] == 0  # binary labeling

    def test_generic_reaches_all_three_labels_domain_exactly_two(self):
        rows = [[0.9], [0.45], []]  # clear positive, between thresholds, silent
        matrix = matrix_from_rows(rows, 10)
        assert apply_heuristics(matrix, GENERIC.heuristics) == [
            PseudoLabel.MAYBE_PRIVACY,
            PseudoLabel.UNDETERMINED,
            PseudoLabel.MAYBE_NOT_PRIVACY,
        ]
        assert apply_heuristics(matrix, DOMAIN.heuristics) == [
            PseudoLabel.MAYBE_PRIVACY,
            PseudoLabel.MAYBE_NOT_PRIVACY,
            PseudoLabel.MAYBE_NOT_PRIVACY,
        ]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        matrix = matrix_from_rows(list(rng.uniform(0, 1, size=(50, 10))), 10)
        assert apply_heuristics(matrix, GENERIC.heuristics) == apply_heuristics(matrix, GENERIC.heuristics)

    def test_explain_agrees_with_labels_and_names_triggers(self):
        matrix = matrix_from_rows([[0.87, 0.2], [0.1, 0.1]], 21)
        explained = explain_labels(matrix, DOMAIN.heuristics)
        assert [label for label, _, _ in explained] == apply_heuristics(matrix, DOMAIN.heuristics)
        label, threshold, triggered = explained[0]
        assert label is PseudoLabel.MAYBE_PRIVACY
        assert threshold == 0.85
        assert triggered == (1,)
        assert explained[1] == (PseudoLabel.MAYBE_NOT_PRIVACY, None, ())


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

            def score_pair(self, premise, hypothesis):
                with self._lock:
                    self.calls += 1
                    if self.calls > self.fail_after:
                        raise BackendError("synthetic outage")
                return self.inner.score_pair(premise, hypothesis)

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


    @pytest.mark.parametrize("old_format", ["cell-records", "4-column-rows", "2-column-rows", "entail-rows"])
    def test_old_cell_records_give_a_warm_run(self, tmp_path, old_format):
        reviews = make_reviews(["data trackers everywhere", "fine app", "!!!"])
        clean = score_corpus(MockNliBackend(seed=0), reviews, DOMAIN, max_inflight=8)
        cache_path = tmp_path / "cache.jsonl"
        fields = {"backend": "mock-nli", "set_hash": DOMAIN.version_hash}
        if old_format == "cell-records":
            fields.update(neutral=None, contradict=None)
            old_records = [
                dict(fields, review_id=review.id, hypothesis_id=hyp.id, entail=float(clean.row(i)[j]))
                for i, review in enumerate(reviews)
                for j, hyp in enumerate(DOMAIN.hypotheses)
            ]
        elif old_format == "4-column-rows":  # neutral and contradict given by one backend, null from another
            old_records = [
                dict(fields, review_id=review.id, row=[
                    [hyp.id, entail, 1.0 - entail, 0.0] if i % 2 else [hyp.id, entail, None, None]
                    for hyp, entail in zip(DOMAIN.hypotheses, clean.row(i).tolist())
                ])
                for i, review in enumerate(reviews)
            ]
        elif old_format == "2-column-rows":  # every complete row with its ids, as versions before the entail row wrote it
            old_records = [
                dict(fields, review_id=review.id, row=[[hyp.id, float("%.9g" % entail)] for hyp, entail in zip(DOMAIN.hypotheses, clean.row(i))])
                for i, review in enumerate(reviews)
            ]
        else:  # 9-digit decimals in the set's order, its ids named once, as versions before the f32 row wrote them
            old_records = [
                dict(fields, review_id=review.id, entail=[float("%.9g" % entail) for entail in clean.row(i)])
                for i, review in enumerate(reviews)
            ]
            old_records[0]["hypotheses"] = [h.id for h in DOMAIN.hypotheses]
        with Log(cache_path) as log:
            log.append(old_records)
        before = cache_path.read_bytes()
        backend = MockNliBackend(seed=0)
        with ScoreCache(cache_path) as cache:
            assert len(cache) == 63
            warm = score_corpus(backend, reviews, DOMAIN, cache=cache, max_inflight=8)
        assert backend.calls == 0
        assert warm.scores.tobytes() == clean.scores.tobytes()
        assert cache_path.read_bytes() == before  # a warm run appends nothing

    def test_entail_rows_then_f32_rows_of_a_resumed_run_load_to_the_clean_matrix(self, tmp_path):
        texts = [f"review {k} with data trackers" if k % 3 == 0 else f"plain review {k}" for k in range(8)]
        reviews = make_reviews(texts + ["!!!"])
        clean = score_corpus(MockNliBackend(seed=3), reviews, DOMAIN, max_inflight=2)
        cache_path = tmp_path / "cache.jsonl"
        with ScoreCache(cache_path) as cache:
            score_corpus(MockNliBackend(seed=3), reviews[:4], DOMAIN, cache=cache, max_inflight=2)
        old = as_entail_rows(named_records(cache_path))
        assert "hypotheses" in old[0] and all("entail" in r and "f32" not in r for r in old)
        cache_path.unlink()
        with Log(cache_path) as log:  # the cache as a version before the f32 row left it
            log.append(old)

        resumed = MockNliBackend(seed=3)
        with ScoreCache(cache_path) as cache:
            score_corpus(resumed, reviews, DOMAIN, cache=cache, max_inflight=2)
        assert resumed.calls == 4 * 21  # the last 5 rows, one of them an empty premise
        records = [json.loads(line) for line in cache_path.read_text().splitlines()]
        assert [r.keys() & {"entail", "f32"} for r in records] == [{"entail"}] * 4 + [{"f32"}] * 5
        assert not any("hypotheses" in r for r in records[4:])  # the entail row named the set
        assert not any(r.keys() & {"backend", "set_hash"} for r in records[4:])  # and the pass context
        warm = MockNliBackend(seed=3)
        with ScoreCache(cache_path) as cache:
            assert len(cache) == 9 * 21
            again = score_corpus(warm, reviews, DOMAIN, cache=cache, max_inflight=2)
        assert warm.calls == 0
        assert again.scores.tobytes() == clean.scores.tobytes()

    def test_mixed_cell_and_row_records_all_load(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        cell = {"backend": "b", "set_hash": "h", "review_id": "r0", "hypothesis_id": 1, "entail": 0.5}
        row = {"backend": "b", "set_hash": "h", "review_id": "r0", "row": [[2, 0.25, 0.5, 0.25], [3, 0.75, None, None]]}
        other = {"backend": "b", "set_hash": "h", "review_id": "r1", "row": [[1, 0.125, 0.875, 0.0]]}
        current = {"backend": "b", "set_hash": "h", "review_id": "r2", "row": [[2, 0.375], [1, 0.625]]}
        cache_path.write_text("".join(json.dumps(r) + "\n" for r in (cell, row, other, current)))
        cache = ScoreCache(cache_path)
        assert len(cache) == 6
        assert cells_of(cache.row("b", "h", "r0")) == [[1, 0.5], [2, 0.25], [3, 0.75]]
        assert cells_of(cache.row("b", "h", "r1")) == [[1, 0.125]]
        assert cells_of(cache.row("b", "h", "r2")) == [[2, 0.375], [1, 0.625]]
        assert cache.row("b", "h", "r3") is None
        assert cache.row("b", "other", "r0") is None

    @pytest.mark.parametrize(
        "cell", [[1], [1, 0.5, 0.5], [1, 0.5, 0.25, 0.25, 0.0], [1, 1.5], [1.0, 0.5], [1, None]],
        ids=["width-1", "width-3", "width-5", "entail-above-1", "id-float", "entail-null"],
    )
    def test_row_cell_out_of_contract_is_corrupt(self, tmp_path, cell):
        cache_path = tmp_path / "cache.jsonl"
        good = {"backend": "b", "set_hash": "h", "review_id": "r0", "row": [[1, 0.5]]}
        with Log(cache_path) as log:
            log.append([good, dict(good, review_id="r1", row=[cell])])
        with pytest.raises(ValidationError, match=f"{cache_path}:2: corrupt log line"):
            ScoreCache(cache_path)

    def test_a_later_record_wins_a_cell(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        key = {"backend": "b", "set_hash": "h", "review_id": "r0"}
        records = [
            dict(key, row=[[1, 0.5, None, None], [2, 0.25, 0.5, 0.25]]),
            dict(key, hypothesis_id=2, entail=0.75),
            dict(key, row=[[3, 0.125], [1, 0.0]]),
        ]
        with Log(cache_path) as log:
            log.append(records)
        cache = ScoreCache(cache_path)
        assert len(cache) == 3
        assert cells_of(cache.row("b", "h", "r0")) == [[2, 0.75], [3, 0.125], [1, 0.0]]  # a won cell moves last

    def test_all_six_record_shapes_load_under_one_merge_rule(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        h, other = {"backend": "b", "set_hash": "h"}, {"backend": "b", "set_hash": "other"}
        records = [
            dict(h, review_id="r0", entail=[0.5, 0.25, 0.75], hypotheses=[1, 2, 3]),  # names set h
            dict(h, review_id="r1", entail=[0.125, 0.0, 1.0]),  # its ids are set h's
            dict(other, review_id="r0", f32="AAAAPwAAgD4=", hypotheses=[7, 5]),  # 0.5, 0.25; names another set
            dict(h, review_id="r1", row=[[2, 0.5]]),  # a partial row wins a cell
            dict(h, review_id="r0", hypothesis_id=1, entail=0.0, neutral=None, contradict=None),  # a one-cell record
            dict(h, review_id="r2", row=[[3, 0.25, 0.5, 0.25], [1, 0.375, None, None]]),  # 4-value cells
            dict(h, review_id="r2", entail=[0.625, 0.875, 0.0625]),  # a complete row wins every cell
            dict(other, review_id="r1", entail=[0.0, 1.0]),
            dict(h, review_id="r3", f32="AAAAAAAAgD8AAMA+"),  # 0.0, 1.0, 0.375, in set h's order
            dict(h, review_id="r1", f32="AADAPgAAAAAAAAA/"),  # a complete f32 row wins every cell
            dict(h, review_id="r3", row=[[1, 0.125]]),
        ]
        with Log(cache_path) as log:
            log.append(records)
        cache = ScoreCache(cache_path)
        assert len(cache) == 16
        assert cache.named == {"h": (1, 2, 3), "other": (7, 5)}
        assert cells_of(cache.row("b", "h", "r0")) == [[2, 0.25], [3, 0.75], [1, 0.0]]  # a won cell moves last
        assert cells_of(cache.row("b", "h", "r1")) == [[1, 0.375], [2, 0.0], [3, 0.5]]
        assert cells_of(cache.row("b", "h", "r2")) == [[1, 0.625], [2, 0.875], [3, 0.0625]]
        assert cells_of(cache.row("b", "h", "r3")) == [[2, 1.0], [3, 0.375], [1, 0.125]]
        assert cells_of(cache.row("b", "other", "r0")) == [[7, 0.5], [5, 0.25]]
        assert cells_of(cache.row("b", "other", "r1")) == [[7, 0.0], [5, 1.0]]
        assert cache.row("b", "other", "r0")[0] is cache.row("b", "other", "r1")[0]  # one id tuple per set

    # test_logs.py runs the wrong-length, unnamed-set, NaN, above-1, null and string cases through `extract`.
    @pytest.mark.parametrize(
        "record",
        [
            {"entail": [0.5] * 22},
            {"entail": [0.5] * 20 + [-0.0625]},
            {"entail": 0.5},
            {"entail": [0.5] * 21, "hypotheses": [str(h.id) for h in DOMAIN.hypotheses]},
        ],
        ids=["long", "below-0", "not-a-list", "id-string"],
    )
    def test_entail_row_out_of_contract_is_corrupt(self, tmp_path, record):
        cache_path = tmp_path / "cache.jsonl"
        reviews = make_reviews(["data trackers everywhere", "fine app"])
        with ScoreCache(cache_path) as cache:
            score_corpus(MockNliBackend(seed=0), reviews, DOMAIN, cache=cache, max_inflight=2)
        first = json.loads(cache_path.read_text().splitlines()[0])
        assert first["hypotheses"] == [h.id for h in DOMAIN.hypotheses]
        with Log(cache_path) as log:
            log.append([{"backend": "mock-nli", "set_hash": DOMAIN.version_hash, "review_id": "r2", **record}])
        with pytest.raises(ValidationError, match=f"{cache_path}:3: corrupt log line"):
            ScoreCache(cache_path)

    def test_a_partial_row_names_its_cells_and_resumes_warm(self, tmp_path):
        class FailingBackend(MockNliBackend):
            def score_pair(self, premise, hypothesis):
                if self.calls == 10:
                    raise BackendError("synthetic outage")
                return super().score_pair(premise, hypothesis)

        reviews = make_reviews(["text one", "text two"])
        cache_path = tmp_path / "cache.jsonl"
        hyp_ids = [h.id for h in DOMAIN.hypotheses]
        with ScoreCache(cache_path) as cache, pytest.raises(BackendError):
            score_corpus(FailingBackend(seed=0), reviews, DOMAIN, cache=cache, max_inflight=1)
        with ScoreCache(cache_path) as cache:
            matrix = score_corpus(MockNliBackend(seed=0), reviews, DOMAIN, cache=cache, max_inflight=1)
        records = [json.loads(line) for line in cache_path.read_text().splitlines()]
        assert [sorted(r) for r in records] == [
            ["backend", "review_id", "row", "set_hash"],  # the failed row's 10 cells
            ["review_id", "row"],  # its other 11, on resume, in the pass context the file's last record named
            ["f32", "hypotheses", "review_id"],  # the set's first complete row
        ]
        assert [cell[0] for cell in records[0]["row"]] == hyp_ids[:10]
        assert [cell[0] for cell in records[1]["row"]] == hyp_ids[10:]
        assert records[2]["hypotheses"] == hyp_ids
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
            def score_pair(self, premise, hypothesis):
                if hypothesis.id == DOMAIN.hypotheses[0].id:
                    rows_on_disk.append(cache_path.read_bytes().count(b"\n") if cache_path.exists() else 0)
                return super().score_pair(premise, hypothesis)

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
            save_matrix(score_corpus(MockNliBackend(seed=3), reviews, DOMAIN, cache=cache, max_inflight=8), tmp_path / "clean.bin")
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
                save_matrix(score_corpus(backend, reviews, DOMAIN, cache=cache, max_inflight=8), tmp_path / "cut.bin")
            assert backend.calls == sum(len(f32_cells(r)) for r in lost if r["review_id"] != "r6"), cut  # r6 is empty
            assert (tmp_path / "cut.bin").read_bytes() == (tmp_path / "clean.bin").read_bytes(), cut
            assert path.read_bytes() == whole, cut

    def test_each_cached_cell_reads_back_to_its_float32_cell(self, tmp_path):
        edges = [0.0, 1.0, 1 - 2**-24, 2**-149, 2**-126, 0.5442292392254472]  # the last, at 9 digits, is another float32
        for threshold in (0.8, 0.85):
            near32 = np.float32(threshold)
            edges += [threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, 1.0)]
            edges += [float(near32), float(np.nextafter(near32, np.float32(0))), float(np.nextafter(near32, np.float32(1)))]
        n_rows = 20
        values = np.random.default_rng(5).random(n_rows * 21)
        values[: len(edges)] = edges  # in row 0, which a failure leaves partial: 9-digit decimals
        values[21 : 21 + len(edges)] = edges  # in row 1, a complete f32 row
        table = values.reshape(n_rows, 21).tolist()
        columns = {h.id: j for j, h in enumerate(DOMAIN.hypotheses)}

        class TableBackend:
            name = "table"

            def __init__(self, fail_at=None):
                self.calls, self.fail_at = 0, fail_at

            def score_pair(self, premise, hypothesis):
                self.calls += 1
                if self.calls == self.fail_at:
                    raise BackendError("synthetic outage")
                return EntailmentScore(table[int(premise.split()[1])][columns[hypothesis.id]])

        reviews = make_reviews([f"review {k}" for k in range(n_rows)])
        cache_path = tmp_path / "cache.jsonl"
        with ScoreCache(cache_path) as cache, pytest.raises(BackendError):
            score_corpus(TableBackend(fail_at=11), reviews, DOMAIN, cache=cache, max_inflight=1)
        with ScoreCache(cache_path) as cache:
            matrix = score_corpus(TableBackend(), reviews, DOMAIN, cache=cache, max_inflight=2)
        assert np.asarray(matrix.scores).tobytes() == values.astype(np.float32).tobytes()
        records = [json.loads(line, parse_float=Decimal) for line in cache_path.read_text().splitlines()]
        assert [("row" in r, r["review_id"]) for r in records[:3]] == [(True, "r0"), (True, "r0"), (False, "r1")]
        assert len(records) == n_rows + 1 and all("f32" in r for r in records[2:])
        for record in records[:2]:  # row 0's cells, 10 before the failure and 11 after it
            for hyp_id, entail in record["row"]:  # each entail as written, a Decimal
                assert len(entail.normalize().as_tuple().digits) <= 9, entail
                assert np.float32(float(entail)).tobytes() == np.float32(matrix.row(0)[columns[hyp_id]]).tobytes(), entail
        for record in records[2:]:  # each complete row's cells are its float32 bytes, little-endian
            i = int(record["review_id"][1:])
            assert b64decode(record["f32"]) == np.asarray(matrix.row(i), dtype="<f4").tobytes(), i
        warm = TableBackend(fail_at=1)
        with ScoreCache(cache_path) as cache:
            assert score_corpus(warm, reviews, DOMAIN, cache=cache, max_inflight=2).scores.tobytes() == matrix.scores.tobytes()

    def test_full_float64_and_9_digit_caches_rerun_warm_to_one_matrix_file(self, tmp_path):
        texts = [f"review {k} with data trackers" if k % 3 == 0 else f"plain review {k}" for k in range(30)]
        reviews = make_reviews(texts + ["!!!"])
        current = tmp_path / "f32.jsonl"
        with ScoreCache(current) as cache:
            save_matrix(score_corpus(MockNliBackend(seed=3), reviews, DOMAIN, cache=cache, max_inflight=8), tmp_path / "cold.bin")
        nine_digit = tmp_path / "nine_digit.jsonl"  # the same rows as the 9-digit decimals of versions before the f32 row
        with Log(nine_digit) as log:
            log.append(as_entail_rows(named_records(current)))
        # The earliest kind of cache: each cell the backend's float64 as it was returned.
        full = tmp_path / "full.jsonl"
        backend = MockNliBackend(seed=3)
        with Log(full) as log:
            log.append([
                {"backend": backend.name, "set_hash": DOMAIN.version_hash, "review_id": review.id, "row": [
                    [h.id, backend.score_pair(review.text_norm, h).entail if review.text_norm else 0.0] for h in DOMAIN.hypotheses
                ]}
                for review in reviews
            ])
        assert full.stat().st_size > nine_digit.stat().st_size > current.stat().st_size
        for path in (current, nine_digit, full):
            warm = MockNliBackend(seed=3)
            with ScoreCache(path) as cache:
                save_matrix(score_corpus(warm, reviews, DOMAIN, cache=cache, max_inflight=8), tmp_path / "warm.bin")
            assert warm.calls == 0, path.name
            assert (tmp_path / "warm.bin").read_bytes() == (tmp_path / "cold.bin").read_bytes(), path.name

    @staticmethod
    def retained_per_cell(path, row):
        """Bytes a cache loaded from 2,000 records of ``row`` keeps per cell."""
        fields = {"backend": "mock-nli", "set_hash": DOMAIN.version_hash, "row": row}
        with Log(path) as log:
            log.append([dict(fields, review_id=f"review-{k:06d}") for k in range(2000)])
        gc.collect()
        tracemalloc.start()
        try:
            cache = ScoreCache(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cache) == 2000 * 21
        return retained / len(cache)

    def test_loaded_cache_retains_at_most_80_bytes_per_cell(self, tmp_path):
        row = [[h.id, 0.125, 0.625, 0.25] for h in DOMAIN.hypotheses]
        assert self.retained_per_cell(tmp_path / "cache.jsonl", row) <= 80  # an object per cell took about 280

    def test_loaded_cache_of_2_column_rows_retains_at_most_40_bytes_per_cell(self, tmp_path):
        row = [[h.id, 0.125] for h in DOMAIN.hypotheses]
        assert self.retained_per_cell(tmp_path / "cache.jsonl", row) <= 40  # 4 columns kept 46

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

            def score_pair(self, premise, hypothesis):
                nonlocal peak
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
                return self.inner.score_pair(premise, hypothesis)

        reviews = make_reviews([f"review {k}" for k in range(5 * bound)])
        with ScoreCache(cache_path) as cache:
            matrix = score_corpus(RecordingBackend(), reviews, DOMAIN, cache=cache, max_inflight=max_inflight)
        assert cache_path.read_bytes().count(b"\n") == len(reviews)
        assert peak <= bound
        assert np.array_equal(matrix.scores, score_corpus(MockNliBackend(name="recording", seed=0), reviews, DOMAIN, max_inflight=8).scores)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = matrix_from_rows(list(rng.uniform(0, 1, size=(4, 21))), 21)
        path = tmp_path / "matrix.bin"
        save_matrix(matrix, path)
        loaded = load_matrix(path)
        assert loaded.review_ids == matrix.review_ids
        assert loaded.hypothesis_ids == matrix.hypothesis_ids
        assert loaded.backend == matrix.backend
        assert loaded.set_hash == matrix.set_hash
        assert np.array_equal(loaded.scores, matrix.scores)

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("reviews", [7, "r1"], "review id must be a string, not 7"),
            ("reviews", "r0", "reviews must be a list, not 'r0'"),
            ("hypotheses", [1.9, 2], "hypothesis id must be an integer, not 1.9"),
            ("hypotheses", [True, 2], "hypothesis id must be an integer, not True"),
            ("backend", 5, "backend must be a string, not 5"),
            ("set_hash", None, "set_hash must be a string, not None"),
        ],
    )
    def test_header_values_are_checked_not_cast(self, tmp_path, field, value, message):
        path = tmp_path / "matrix.bin"
        save_matrix(matrix_from_rows([[0.25, 0.5], [0.75, 1.0]], 2), path)
        header, grid = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(dict(json.loads(header), **{field: value})).encode() + b"\n" + grid)
        with pytest.raises(ValidationError) as raised:
            load_matrix(path)
        assert str(raised.value) == f"{path}: malformed matrix header: {message}"

    def test_truncated_file_rejected(self, tmp_path):
        matrix = matrix_from_rows([[0.25, 0.5]], 2)
        path = tmp_path / "matrix.bin"
        save_matrix(matrix, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_grid_range_validated(self):
        for cells in ([1.5], [np.nan, 0.5], [0.5, np.nan]):  # min and max can return a NaN, or pass over one
            with pytest.raises(ValidationError):
                EntailmentMatrix(("r0",), tuple(range(len(cells))), "h", "b", np.array([cells], dtype=np.float32))
