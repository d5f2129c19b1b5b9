"""Annotation session: assignment, tie-breaking, agreement, and resume."""

from __future__ import annotations

import json

import pytest

from concernminer.annotation import (
    NON_PRIVACY,
    PRIVACY,
    assign_tasks,
    interactive_responder,
    run_annotation,
    scripted_responder,
)
from concernminer.corpus import Review, Store
from concernminer.errors import ValidationError


def make_queue(n):
    return [Review(f"r{i}", "app", Store.GOOGLE_PLAY, 1, f"review {i}") for i in range(n)]


def agreeing_script(ids, roster, label=PRIVACY):
    return {annotator: {rid: label for rid in ids} for annotator in roster}


class TestAssignment:
    def test_lead_gets_all_others_get_disjoint_chunks(self):
        ids = [f"r{i}" for i in range(9)]
        tasks = assign_tasks(ids, ["lead", "b", "c", "d"])
        assert [t.assigned[0] for t in tasks] == ["lead"] * 9
        seconds = [t.assigned[1] for t in tasks]
        assert seconds == ["b"] * 3 + ["c"] * 3 + ["d"] * 3

    def test_uneven_queue_still_covered(self):
        tasks = assign_tasks([f"r{i}" for i in range(10)], ["lead", "b", "c"])
        seconds = [t.assigned[1] for t in tasks]
        assert set(seconds) <= {"b", "c"}
        assert all(len(t.assigned) == 2 for t in tasks)

    def test_two_annotators(self):
        tasks = assign_tasks(["r0", "r1"], ["lead", "b"])
        assert all(t.assigned == ("lead", "b") for t in tasks)

    def test_roster_validation(self):
        with pytest.raises(ValidationError):
            assign_tasks(["r0"], ["only-one"])
        with pytest.raises(ValidationError):
            assign_tasks(["r0"], ["dup", "dup"])


class TestSession:
    def test_full_agreement(self):
        queue = make_queue(10)
        roster = ["lead", "b"]
        script = agreeing_script([r.id for r in queue], roster)
        report = run_annotation(queue, roster, scripted_responder(script))
        assert report.confirmed == 10
        assert report.rejected == 0
        assert report.tiebreak_ids == ()
        assert report.leftover_ids == ()
        assert report.kappa.kappa == 1.0

    def test_scripted_disagreements_create_tiebreaks(self):
        queue = make_queue(10)
        roster = ["lead", "b", "c", "d"]
        disagree = {"r1", "r4", "r7"}
        script = {
            "lead": {r.id: PRIVACY for r in queue},
            "b": {r.id: (NON_PRIVACY if r.id in disagree else PRIVACY) for r in queue},
            "c": {r.id: (NON_PRIVACY if r.id in disagree else PRIVACY) for r in queue},
            "d": {r.id: PRIVACY for r in queue},
        }
        report = run_annotation(queue, roster, scripted_responder(script))
        tiebroken = {t.review_id: t for t in report.tasks if t.tiebreak_by}
        assert set(report.tiebreak_ids) <= disagree
        # only disagreements between the two assigned annotators count
        for task in report.tasks:
            if task.review_id in report.tiebreak_ids:
                assert task.tiebreak_by not in task.assigned
                assert task.final_label == task.tiebreak_label
        assert len(tiebroken) == len(report.tiebreak_ids)
        assert report.confirmed + report.rejected == 10

    def test_exact_tiebreak_count_three_of_ten(self):
        queue = make_queue(10)
        roster = ["lead", "b", "c", "d"]
        # per assignment: b gets r0..r3, c gets r4..r7 (ceil(10/3)=4), d gets r8..r9
        script = {
            "lead": {r.id: PRIVACY for r in queue},
            "b": {r.id: (NON_PRIVACY if r.id in ("r0", "r2") else PRIVACY) for r in queue},
            "c": {r.id: (NON_PRIVACY if r.id == "r5" else PRIVACY) for r in queue},
            "d": {r.id: PRIVACY for r in queue},
        }
        report = run_annotation(queue, roster, scripted_responder(script))
        assert sorted(report.tiebreak_ids) == ["r0", "r2", "r5"]
        assert report.leftover_ids == ()

    def test_two_annotator_disagreement_stays_unresolved(self):
        queue = make_queue(2)
        script = {
            "lead": {"r0": PRIVACY, "r1": PRIVACY},
            "b": {"r0": NON_PRIVACY, "r1": PRIVACY},
        }
        report = run_annotation(queue, ["lead", "b"], scripted_responder(script))
        assert report.tiebreak_ids == ("r0",)
        assert report.leftover_ids == ("r0",)
        assert report.confirmed == 1

    def test_skips_become_leftovers(self):
        queue = make_queue(3)
        script = {
            "lead": {"r0": PRIVACY, "r1": PRIVACY},  # r2 missing -> skip
            "b": {"r0": PRIVACY, "r1": PRIVACY, "r2": PRIVACY},
        }
        report = run_annotation(queue, ["lead", "b"], scripted_responder(script))
        assert report.leftover_ids == ("r2",)
        assert report.confirmed == 2

    def test_kappa_matches_hand_computation(self):
        queue = make_queue(4)
        roster = ["lead", "b", "c", "d"]
        # lead: [1,1,0,0]; seconds: [1,0,0,1] in queue order
        script = {
            "lead": {"r0": PRIVACY, "r1": PRIVACY, "r2": NON_PRIVACY, "r3": NON_PRIVACY},
            "b": {"r0": PRIVACY, "r1": NON_PRIVACY},
            "c": {"r2": NON_PRIVACY, "r3": PRIVACY},
            "d": {"r1": PRIVACY, "r3": NON_PRIVACY},
        }
        report = run_annotation(queue, roster, scripted_responder(script))
        assert report.kappa.kappa == pytest.approx(0.0, abs=1e-9)
        assert (report.kappa.p_o, report.tiebreak_ids) == (0.5, ("r1", "r3"))  # the two disagreements

    def test_resume_does_not_reask(self, tmp_path):
        queue = make_queue(4)
        roster = ["lead", "b"]
        state = tmp_path / "state.jsonl"
        calls = []

        first_script = agreeing_script(["r0", "r1"], roster)

        def counting_responder(script):
            inner = scripted_responder(script)

            def respond(annotator, review):
                calls.append((annotator, review.id))
                return inner(annotator, review)

            return respond

        report = run_annotation(queue, roster, counting_responder(first_script), state_path=state)
        assert sorted(report.leftover_ids) == ["r2", "r3"]
        first_call_count = len(calls)

        calls.clear()
        full_script = agreeing_script([r.id for r in queue], roster)
        report = run_annotation(queue, roster, counting_responder(full_script), state_path=state)
        assert report.leftover_ids == ()
        assert report.confirmed == 4
        # resumed session asks only about the previously skipped reviews
        assert {review_id for _, review_id in calls} == {"r2", "r3"}
        assert len(calls) < first_call_count + 4

    def test_final_only_when_agreed_or_tiebroken(self):
        queue = make_queue(6)
        roster = ["lead", "b", "c"]
        script = {
            "lead": {r.id: PRIVACY for r in queue},
            "b": {"r0": PRIVACY, "r1": NON_PRIVACY, "r2": PRIVACY},
            "c": {"r3": PRIVACY, "r4": PRIVACY, "r5": NON_PRIVACY, "r1": PRIVACY},
        }
        # note: c is also the tiebreaker for b's chunk and vice versa
        report = run_annotation(queue, roster, scripted_responder(script))
        for task in report.tasks:
            if task.final_label is not None:
                agreed = len({task.labels.get(a) for a in task.assigned}) == 1
                assert agreed or task.tiebreak_label is not None

    def test_empty_queue_rejected(self):
        with pytest.raises(ValidationError):
            run_annotation([], ["lead", "b"], scripted_responder({}))


class TestStateLog:
    QUEUE = make_queue(6)
    ROSTER = ["lead", "b", "c"]
    # b disagrees with the lead on r1 and c on r4; the other of the two breaks each tie. No answer is a skip.
    SCRIPT = {
        "lead": {r.id: PRIVACY for r in QUEUE},
        "b": {"r0": PRIVACY, "r1": NON_PRIVACY, "r2": PRIVACY, "r4": NON_PRIVACY},
        "c": {"r1": PRIVACY, "r3": PRIVACY, "r4": NON_PRIVACY, "r5": PRIVACY},
    }

    def asking(self, asked):
        inner = scripted_responder(self.SCRIPT)

        def respond(annotator, review):
            asked.append((annotator, review.id))
            return inner(annotator, review)

        return respond

    def test_any_cut_of_the_state_log_resumes_to_the_clean_report(self, tmp_path):
        clean_path = tmp_path / "clean.jsonl"
        clean = run_annotation(self.QUEUE, self.ROSTER, self.asking([]), state_path=clean_path).to_dict()
        assert clean["tiebreaks"] == ["r1", "r4"] and clean["leftovers"] == []
        whole = clean_path.read_bytes()
        records = [json.loads(line) for line in whole.splitlines()]
        assert len(records) == 6 + 6 + 2
        for cut in range(len(whole) + 1):
            path = tmp_path / "cut.jsonl"
            path.write_bytes(whole[:cut])
            asked = []
            report = run_annotation(self.QUEUE, self.ROSTER, self.asking(asked), state_path=path)
            lost = records[whole[:cut].count(b"\n") :]  # a torn last line is dropped and its label asked again
            assert asked == [(r["annotator"], r["review_id"]) for r in lost], cut
            assert report.to_dict() == clean, cut
            assert path.read_bytes() == whole, cut

    def test_each_label_is_in_the_file_before_the_next_question(self, tmp_path):
        path = tmp_path / "state.jsonl"
        inner = scripted_responder(self.SCRIPT)
        on_disk = []

        def peeking(annotator, review):
            on_disk.append(path.read_bytes().count(b"\n"))
            return inner(annotator, review)

        run_annotation(self.QUEUE, self.ROSTER, peeking, state_path=path)
        assert on_disk == list(range(14))
        assert path.read_bytes().count(b"\n") == 14

    def test_a_session_without_a_label_leaves_an_empty_log(self, tmp_path):
        path = tmp_path / "state.jsonl"
        report = run_annotation(self.QUEUE, self.ROSTER, scripted_responder({}), state_path=path)
        assert len(report.leftover_ids) == 6
        assert path.read_bytes() == b""

    @pytest.mark.parametrize(
        "queue, roster", [([], ["lead", "b"]), (QUEUE, ["only-one"]), (QUEUE, ["dup", "dup"])],
        ids=["empty-queue", "one-annotator", "repeated-annotator"],
    )
    def test_a_session_that_asks_nothing_creates_no_log(self, tmp_path, queue, roster):
        path = tmp_path / "state.jsonl"
        with pytest.raises(ValidationError):
            run_annotation(queue, roster, scripted_responder(self.SCRIPT), state_path=path)
        assert not path.exists()


class TestInteractiveResponder:
    def test_terminal_flow(self):
        answers = iter(["bogus", "y", "n", "s"])
        printed = []
        responder = interactive_responder(input_fn=lambda _: next(answers), print_fn=printed.append)
        review = make_queue(1)[0]
        assert responder("lead", review) == PRIVACY  # after one invalid answer
        assert responder("lead", review) == NON_PRIVACY
        assert responder("lead", review) == "skip"
        assert any("privacy" in line.lower() for line in printed)  # instructions shown
