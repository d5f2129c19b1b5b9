"""Prompt construction, response parsing, majority voting, and classification."""

from __future__ import annotations

import itertools
import random
import threading

import pytest

from concernminer.config import LlmBackendConfig
from concernminer.corpus import Review, Store
from concernminer.errors import BackendError, ValidationError
from concernminer.hypotheses import builtin_domain_mh, builtin_generic
from concernminer.labels import BinaryLabel, Vote
from concernminer.llm.backends import HttpLlmBackend, MockLlmBackend
from concernminer.llm.classify import (
    PromptMessages,
    SamplingSettings,
    VoteRecord,
    build_prompt,
    classify_corpus,
    classify_review,
    majority_vote,
    parse_response,
)

from httpserver import serve

DOMAIN = builtin_domain_mh()


def make_review(review_id="r0", text="won t let me sign up"):
    return Review(review_id, "app", Store.GOOGLE_PLAY, 1, text, text_norm=text)


class TestSamplingSettings:
    def test_defaults(self):
        settings = SamplingSettings()
        assert settings.temperature == 0.3
        assert settings.top_p == 0.9
        assert settings.num_samples == 5
        assert settings.max_response_tokens == 64

    def test_validation(self):
        with pytest.raises(ValidationError):
            SamplingSettings(temperature=-1)
        with pytest.raises(ValidationError):
            SamplingSettings(top_p=0)
        with pytest.raises(ValidationError):
            SamplingSettings(top_p=1.5)
        with pytest.raises(ValidationError):
            SamplingSettings(num_samples=4)  # even
        with pytest.raises(ValidationError):
            SamplingSettings(max_response_tokens=0)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_temperature_rejected(self, temperature):
        with pytest.raises(ValidationError, match="temperature"):
            SamplingSettings(temperature=temperature)


class TestBuildPrompt:
    def test_system_contains_each_hypothesis_line_once(self):
        prompt = build_prompt(DOMAIN, make_review())
        for hyp in DOMAIN.hypotheses:
            assert prompt.system.count(f"{hyp.id}. {hyp.text}") == 1
        numbered = [line for line in prompt.system.splitlines() if line[:1].isdigit()]
        assert len(numbered) == 21

    def test_user_is_review_verbatim(self):
        prompt = build_prompt(DOMAIN, make_review(text="won t let me sign up"))
        assert prompt.user == "won t let me sign up"

    def test_system_is_independent_of_review(self):
        a = build_prompt(DOMAIN, make_review("r1", "first review text"))
        b = build_prompt(DOMAIN, make_review("r2", "completely different"))
        assert a.system == b.system
        assert a.user != b.user

    def test_generic_set_gets_31_lines(self):
        prompt = build_prompt(builtin_generic(), make_review())
        numbered = [line for line in prompt.system.splitlines() if line[:1].isdigit()]
        assert len(numbered) == 31

    def test_unnormalized_review_rejected(self):
        raw = Review("r0", "app", Store.OTHER, 1, "Raw!")
        with pytest.raises(ValidationError):
            build_prompt(DOMAIN, raw)


class TestParseResponse:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Yes, this raises a privacy concern.", Vote.YES),
            ("NO", Vote.NO),
            ("The review is about billing.", Vote.ABSTAIN),
            ("yes", Vote.YES),
            ("  no.", Vote.NO),
            ('"No."', Vote.NO),
            ("1. yes", Vote.YES),
            ("", Vote.ABSTAIN),
            ("42", Vote.ABSTAIN),
            ("yesterday it broke", Vote.ABSTAIN),
            ("Nowhere does it mention data", Vote.ABSTAIN),
        ],
    )
    def test_first_alphabetic_token(self, raw, expected):
        assert parse_response(raw) is expected


class TestMajorityVote:
    def test_three_two_split(self):
        votes = [Vote.YES, Vote.YES, Vote.NO, Vote.YES, Vote.NO]
        assert majority_vote(votes) == (BinaryLabel.YES, False)

    def test_unanimous_no(self):
        assert majority_vote([Vote.NO] * 5) == (BinaryLabel.NO, False)

    def test_tie_with_abstentions_resolves_no_flagged(self):
        votes = [Vote.YES, Vote.NO, Vote.ABSTAIN, Vote.ABSTAIN, Vote.ABSTAIN]
        assert majority_vote(votes) == (BinaryLabel.NO, True)

    def test_all_abstain_resolves_no_flagged(self):
        assert majority_vote([Vote.ABSTAIN] * 5) == (BinaryLabel.NO, True)

    def test_single_vote_degenerate(self):
        assert majority_vote([Vote.YES]) == (BinaryLabel.YES, False)
        assert majority_vote([Vote.NO]) == (BinaryLabel.NO, False)

    def test_permutation_invariant(self):
        rng = random.Random(11)
        for _ in range(100):
            votes = [rng.choice(list(Vote)) for _ in range(5)]
            shuffled = votes[:]
            rng.shuffle(shuffled)
            assert majority_vote(votes) == majority_vote(shuffled)

    def test_no_tie_flag_with_five_decided_votes(self):
        for combo in itertools.product([Vote.YES, Vote.NO], repeat=5):
            _, tie = majority_vote(list(combo))
            assert tie is False


class TestClassifyReview:
    def test_scripted_yes_majority(self):
        backend = MockLlmBackend({"r0": ["yes", "no", "yes", "no", "yes"]})
        record = classify_review(backend, "r0", build_prompt(DOMAIN, make_review()), SamplingSettings())
        assert record.decision is BinaryLabel.YES
        assert record.tie_flag is False
        assert len(record.raw_responses) == 5
        assert record.votes == (Vote.YES, Vote.NO, Vote.YES, Vote.NO, Vote.YES)

    def test_scripted_all_no(self):
        backend = MockLlmBackend({"r0": ["no"]})
        record = classify_review(backend, "r0", build_prompt(DOMAIN, make_review()), SamplingSettings())
        assert record.decision is BinaryLabel.NO
        assert record.votes == (Vote.NO,) * 5  # script cycles

    def test_single_sample(self):
        backend = MockLlmBackend({"r0": ["Yes."]})
        record = classify_review(
            backend, "r0", build_prompt(DOMAIN, make_review()), SamplingSettings(num_samples=1)
        )
        assert record.decision is BinaryLabel.YES
        assert len(record.votes) == 1

    def test_unknown_tag_uses_default_response(self):
        backend = MockLlmBackend({})
        record = classify_review(backend, "rX", build_prompt(DOMAIN, make_review("rX")), SamplingSettings())
        assert record.decision is BinaryLabel.NO

    def test_vote_record_derives_its_votes_from_its_responses(self):
        record = VoteRecord("r0", ("Yes.", "no", "maybe", "NO", "yes"))
        assert record.votes == (Vote.YES, Vote.NO, Vote.ABSTAIN, Vote.NO, Vote.YES)
        assert (record.decision, record.tie_flag) == (BinaryLabel.NO, True)
        assert VoteRecord("r0", ("yes", "no", "yes")).decision is BinaryLabel.YES


class TestClassifyCorpus:
    def test_empty_input(self):
        records, failures = classify_corpus(MockLlmBackend(), [], DOMAIN, SamplingSettings(), max_inflight=4)
        assert records == [] and failures == []

    def test_scripted_batch_counts(self):
        reviews = [make_review(f"r{i}", f"review text {i}") for i in range(10)]
        script = {f"r{i}": (["yes"] if i < 6 else ["no"]) for i in range(10)}
        records, failures = classify_corpus(MockLlmBackend(script), reviews, DOMAIN, SamplingSettings(), max_inflight=4)
        assert [r.review_id for r in records] == [f"r{i}" for i in range(10)]
        assert sum(1 for r in records if r.decision is BinaryLabel.YES) == 6
        assert sum(1 for r in records if r.decision is BinaryLabel.NO) == 4
        assert failures == []

    def test_failures_are_reported_not_labeled(self):
        class PartialBackend(MockLlmBackend):
            def complete(self, prompt, settings, *, tag=None):
                if tag == "r1":
                    raise BackendError("unreachable")
                return super().complete(prompt, settings, tag=tag)

        reviews = [make_review(f"r{i}", f"review text {i}") for i in range(3)]
        backend = PartialBackend({f"r{i}": ["yes"] for i in range(3)})
        records, failures = classify_corpus(backend, reviews, DOMAIN, SamplingSettings(), max_inflight=4)
        assert [r.review_id for r in records] == ["r0", "r2"]
        assert len(failures) == 1 and failures[0][0] == "r1"
        assert len(records) + len(failures) == len(reviews)

    @pytest.mark.parametrize("max_inflight", [1, 2, 4])
    def test_in_flight_reviews_are_bounded(self, max_inflight):
        # The first review is held until more than 2 x max_inflight reviews
        # have started, or 0.2 s have passed. Nothing commits before it, so
        # every review started meanwhile is in flight.
        bound = 2 * max_inflight
        lock = threading.Lock()
        started: set[str] = set()
        held_started: set[str] = set()
        overrun = threading.Event()

        class RecordingBackend(MockLlmBackend):
            def complete(self, prompt, settings, *, tag=None):
                with lock:
                    started.add(tag)
                    if len(started) > bound:
                        overrun.set()
                if tag == "r0" and not held_started:
                    overrun.wait(0.2)
                    with lock:
                        held_started.update(started)
                return super().complete(prompt, settings, tag=tag)

        reviews = [make_review(f"r{i}", f"review text {i}") for i in range(5 * bound)]
        script = {f"r{i}": ["yes", "no", "yes"] if i % 2 else ["no"] for i in range(len(reviews))}
        records, failures = classify_corpus(
            RecordingBackend(script), reviews, DOMAIN, SamplingSettings(), max_inflight=max_inflight
        )
        assert failures == [] and [r.review_id for r in records] == [r.id for r in reviews]
        assert 0 < len(held_started) <= bound
        assert records == classify_corpus(MockLlmBackend(script), reviews, DOMAIN, SamplingSettings(), max_inflight=4)[0]


class TestHttpBackend:
    def test_wire_contract(self):
        def respond(path, payload, n):
            assert payload["model"] == "remote-llm"
            assert payload["temperature"] == 0.3
            assert payload["top_p"] == 0.9
            assert payload["max_tokens"] == 64
            roles = [m["role"] for m in payload["messages"]]
            assert roles == ["system", "user"]
            return 200, {"choices": [{"message": {"content": "yes"}}]}

        with serve(respond) as (server, url):
            backend = HttpLlmBackend(LlmBackendConfig("remote-llm", url), backoff=0.01)
            text = backend.complete(PromptMessages("sys", "user text"), SamplingSettings())
        assert text == "yes"
        assert server.requests[0][1]["messages"][1]["content"] == "user text"

    def test_retry_then_success(self):
        def respond(path, payload, n):
            if n == 1:
                return 503, {"error": "warming up"}
            return 200, {"choices": [{"message": {"content": "No"}}]}

        with serve(respond) as (server, url):
            backend = HttpLlmBackend(LlmBackendConfig("remote-llm", url, max_retries=2), backoff=0.01)
            assert backend.complete(PromptMessages("s", "u"), SamplingSettings()) == "No"
        assert len(server.requests) == 2

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"choices": []}, "list index out of range"),
            *(({"choices": [{"message": {"content": c}}]}, f"content must be a string, not {c!r}") for c in (None, 5, ["yes"])),
        ],
        ids=["no-choice", "null", "number", "list"],
    )
    def test_malformed_response(self, body, message):
        with serve(lambda path, payload, n: (200, body)) as (server, url):
            backend = HttpLlmBackend(LlmBackendConfig("remote-llm", url, max_retries=2), backoff=0.01)
            with pytest.raises(BackendError, match="malformed completion response"):
                backend.complete(PromptMessages("s", "u"), SamplingSettings())
            records, failures = classify_corpus(backend, [make_review()], DOMAIN, SamplingSettings(), max_inflight=1)
        assert records == [] and [review_id for review_id, _ in failures] == ["r0"]
        assert message in failures[0][1]
        assert len(server.requests) == 2  # once each, not retried

    def test_classify_review_hits_endpoint_num_samples_times(self):
        def respond(path, payload, n):
            return 200, {"choices": [{"message": {"content": "yes" if n % 2 else "no"}}]}

        with serve(respond) as (server, url):
            backend = HttpLlmBackend(LlmBackendConfig("remote-llm", url), backoff=0.01)
            record = classify_review(backend, "r0", PromptMessages("s", "u"), SamplingSettings())
        assert len(server.requests) == 5
        assert record.decision is BinaryLabel.YES  # responses 1,3,5 are yes
