"""The ordered window under both model stages."""

from __future__ import annotations

import threading
import time

import pytest

from concernminer._window import run_ordered
from concernminer.corpus import Review, Store
from concernminer.errors import ValidationError
from concernminer.hypotheses import builtin_domain_mh
from concernminer.llm.backends import MockLlmBackend
from concernminer.llm.classify import SamplingSettings, classify_corpus
from concernminer.nli.backends import MockNliBackend
from concernminer.nli.scoring import score_corpus

DOMAIN = builtin_domain_mh()


def collect(work, jobs, max_inflight):
    committed = []
    run_ordered(work, jobs, lambda job, result, error: committed.append((job, result, error)), max_inflight)
    return committed


@pytest.mark.parametrize("max_inflight", [1, 2, 3, 8])
def test_commits_in_input_order_with_errors_in_place(max_inflight):
    failure = ValueError("job 5")

    def work(k, stop):
        time.sleep(0.001 * (k % 3))  # later jobs often finish first
        if k == 5:
            raise failure
        return k * k

    committed = collect(work, range(20), max_inflight)
    assert committed == [(k, None, failure) if k == 5 else (k, k * k, None) for k in range(20)]


@pytest.mark.parametrize("max_inflight", [1, 2, 4])
def test_at_most_max_inflight_threads_run_jobs(max_inflight):
    committed = collect(lambda k, stop: threading.get_ident(), range(12), max_inflight)
    assert len({ident for _, ident, _ in committed}) <= max_inflight


@pytest.mark.parametrize("max_inflight", [1, 3])
def test_a_commit_error_stops_the_window(max_inflight):
    ran, stops = [], []

    def work(k, stop):
        ran.append(k)
        stops.append(stop)
        return k

    def commit(k, result, error):
        if k == 2:
            raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        run_ordered(work, range(100), commit, max_inflight)
    assert max(ran) < 3 + 2 * max_inflight  # no job past the window was started
    assert all(stop.is_set() for stop in stops)


def test_a_free_worker_runs_the_next_job_while_the_head_waits_on_it():
    second_ran = threading.Event()

    def work(k, stop):
        if k == 1:
            return second_ran.wait(5)  # the head waits until job 2 has run
        if k == 2:
            second_ran.set()
        return k

    assert collect(work, range(4), 2) == [(0, 0, None), (1, True, None), (2, 2, None), (3, 3, None)]


def test_an_interrupt_on_the_calling_thread_propagates():
    committed = []

    def work(k, stop):
        if k == 1:
            raise KeyboardInterrupt
        return k

    with pytest.raises(KeyboardInterrupt):
        run_ordered(work, range(5), lambda *args: committed.append(args), 1)
    assert committed == [(0, 0, None)]


def test_a_base_exception_in_any_worker_ends_the_window():
    codes = []

    def work(k, stop):
        if k == 1:
            raise SystemExit(3)
        return k

    def commit(k, result, error):
        if error is not None:
            raise error

    def run():  # on its own thread, so a window left waiting fails the test instead of hanging it
        try:
            run_ordered(work, range(6), commit, 2)
        except SystemExit as exc:  # raised on the calling thread, or committed from a pool thread
            codes.append(exc.code)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(10)
    assert codes == [3]


def test_max_inflight_1_runs_both_stages_on_the_calling_thread():
    calls, seen = [], set()

    def record():
        calls.append(threading.get_ident())
        seen.update(threading.enumerate())

    class RecordingNli(MockNliBackend):
        def score_row(self, premise, hypotheses):
            for entail in super().score_row(premise, hypotheses):
                record()
                yield entail

    class RecordingLlm(MockLlmBackend):
        def complete(self, prompt, settings, *, tag=None):
            record()
            return super().complete(prompt, settings, tag=tag)

    reviews = [Review(f"r{k}", "app", Store.OTHER, 1, f"review text {k}").normalized() for k in range(6)]
    before = set(threading.enumerate())
    score_corpus(RecordingNli(seed=0), reviews, DOMAIN, max_inflight=1)
    records, _ = classify_corpus(RecordingLlm(), reviews, DOMAIN, SamplingSettings(), max_inflight=1)
    seen.update(threading.enumerate())
    assert len(calls) == 6 * 21 + 6 * 5 and len(records) == 6
    assert set(calls) == {threading.get_ident()}
    assert seen <= before  # no thread was started


def test_max_inflight_0_is_refused_before_any_job_thread_or_backend_call():
    calls = []

    def jobs():
        calls.append("job drawn")
        yield 1

    class RecordingLlm(MockLlmBackend):
        def complete(self, prompt, settings, *, tag=None):
            calls.append("complete")
            return super().complete(prompt, settings, tag=tag)

    reviews = [Review("r0", "app", Store.OTHER, 1, "review text").normalized()]
    before = set(threading.enumerate())
    with pytest.raises(ValidationError, match="max_inflight must be >= 1"):
        run_ordered(lambda job, stop: calls.append("work"), jobs(), lambda *args: calls.append("commit"), 0)
    with pytest.raises(ValidationError, match="max_inflight must be >= 1"):
        classify_corpus(RecordingLlm(), reviews, DOMAIN, SamplingSettings(), max_inflight=0)
    assert calls == []
    assert set(threading.enumerate()) == before  # no thread was started
