"""Builtin hypothesis sets, rule validation, and file round-trips."""

from __future__ import annotations

import json
import logging

import pytest

from concernminer._jsonl import write_json
from concernminer.errors import ValidationError
from concernminer.hypotheses import (
    HeuristicRuleSet,
    Hypothesis,
    HypothesisSet,
    HypothesisSource,
    ThresholdRule,
    builtin_domain_mh,
    builtin_generic,
    hypothesis_set_to_dict,
    load_hypothesis_set,
    resolve_hypothesis_set,
)
from concernminer.labels import PseudoLabel


class TestBuiltinGeneric:
    def test_size(self):  # ids 1..31 in order, so hypothesis i is ``hypotheses[i - 1]``
        assert [h.id for h in builtin_generic().hypotheses] == list(range(1, 32))

    def test_hypothesis_20_text(self):
        assert builtin_generic().hypotheses[19].text == "Too much personal data is collected."

    def test_rule_list(self):
        rules = builtin_generic().heuristics
        assert rules.positive_rules == (
            ThresholdRule(0.8, 1),
            ThresholdRule(0.7, 3),
            ThresholdRule(0.6, 5),
            ThresholdRule(0.5, 7),
        )
        assert rules.negative_threshold == 0.4
        assert rules.default_label is PseudoLabel.UNDETERMINED

    def test_sources_by_section(self):
        hset = builtin_generic()
        assert hset.hypotheses[0].source is HypothesisSource.SOLOVE
        assert hset.hypotheses[15].source is HypothesisSource.SOLOVE
        assert hset.hypotheses[16].source is HypothesisSource.WANG_KOBSA
        assert hset.hypotheses[23].source is HypothesisSource.WANG_KOBSA
        assert hset.hypotheses[24].source is HypothesisSource.GENERIC


class TestBuiltinDomain:
    def test_size(self):  # ids 1..21 in order, so hypothesis i is ``hypotheses[i - 1]``
        assert [h.id for h in builtin_domain_mh().hypotheses] == list(range(1, 22))

    def test_hypothesis_14_text(self):
        assert builtin_domain_mh().hypotheses[13].text == (
            "The user is not aware of how and why their data is being collected, processed, stored, and shared."
        )

    def test_rules_and_default(self):
        rules = builtin_domain_mh().heuristics
        assert rules.positive_rules == (
            ThresholdRule(0.85, 1),
            ThresholdRule(0.75, 3),
            ThresholdRule(0.7, 5),
        )
        assert rules.negative_threshold is None
        assert rules.default_label is PseudoLabel.MAYBE_NOT_PRIVACY

    def test_known_duplicate_sentence_pair_keeps_size_21(self):
        hset = builtin_domain_mh()
        assert hset.hypotheses[9].text == hset.hypotheses[10].text
        assert len({h.id for h in hset.hypotheses}) == 21


class TestVersionHash:
    def test_builtin_hashes_are_pinned(self):
        """Cached cells, vote records and matrix file names are keyed by these:
        an edit that moves one makes every user's next run score afresh."""
        assert builtin_generic().version_hash == "aed6f40e9bd97c8e"
        assert builtin_domain_mh().version_hash == "f354ab0741b172d2"

    def test_round_trip_preserves_hash(self, tmp_path):
        for builder in (builtin_generic, builtin_domain_mh):
            original = builder()
            path = tmp_path / f"{original.set_id}.json"
            write_json(path, hypothesis_set_to_dict(original))
            loaded = load_hypothesis_set(path)
            assert loaded == original
            assert loaded.version_hash == original.version_hash

    def test_hash_changes_when_text_changes(self):
        original = builtin_domain_mh()
        edited_rows = list(original.hypotheses)
        edited_rows[0] = Hypothesis(1, edited_rows[0].concept, "A different sentence.", edited_rows[0].source)
        edited = HypothesisSet(original.set_id, original.name, tuple(edited_rows), original.heuristics)
        assert edited.version_hash != original.version_hash

    def test_hash_changes_when_rules_change(self):
        original = builtin_domain_mh()
        new_rules = HeuristicRuleSet(
            positive_rules=(ThresholdRule(0.9, 1),),
            negative_threshold=None,
            default_label=PseudoLabel.MAYBE_NOT_PRIVACY,
        )
        edited = HypothesisSet(original.set_id, original.name, original.hypotheses, new_rules)
        assert edited.version_hash != original.version_hash

    def test_renaming_does_not_change_hash(self):
        original = builtin_generic()
        renamed = HypothesisSet("other-id", "other name", original.hypotheses, original.heuristics)
        assert renamed.version_hash == original.version_hash


class TestLoadValidation:
    def _payload(self):
        return hypothesis_set_to_dict(builtin_domain_mh())

    def test_rule_count_exceeding_set_size(self, tmp_path):
        payload = self._payload()
        payload["heuristics"]["positive_rules"] = [[0.8, 40]]
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            load_hypothesis_set(path)

    def test_threshold_above_one(self, tmp_path):
        payload = self._payload()
        payload["heuristics"]["positive_rules"] = [[1.2, 1]]
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            load_hypothesis_set(path)

    @pytest.mark.parametrize("negative_rule, threshold", [(None, None), ([0.4], 0.4)], ids=["null", "one-value"])
    def test_negative_rule_is_null_or_one_threshold(self, tmp_path, negative_rule, threshold):
        payload = self._payload()
        payload["heuristics"]["negative_rule"] = negative_rule
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload))
        assert load_hypothesis_set(path).heuristics.negative_threshold == threshold
        del payload["heuristics"]["negative_rule"]  # an absent rule reads as null
        path.write_text(json.dumps(payload))
        assert load_hypothesis_set(path).heuristics.negative_threshold is None

    def test_duplicate_ids(self, tmp_path):
        payload = self._payload()
        payload["hypotheses"][1]["id"] = payload["hypotheses"][0]["id"]
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            load_hypothesis_set(path)

    def test_empty_text(self, tmp_path):
        payload = self._payload()
        payload["hypotheses"][0]["text"] = ""
        path = tmp_path / "set.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            load_hypothesis_set(path)

    def test_duplicate_text_warns_but_loads(self, tmp_path, caplog):
        path = tmp_path / "set.json"
        write_json(path, hypothesis_set_to_dict(builtin_domain_mh()))
        with caplog.at_level(logging.WARNING):
            loaded = load_hypothesis_set(path)
        assert len(loaded.hypotheses) == 21
        assert any("share the same text" in record.message for record in caplog.records)

    def test_missing_file_and_garbage(self, tmp_path):
        with pytest.raises(ValidationError):
            load_hypothesis_set(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(ValidationError):
            load_hypothesis_set(bad)


class TestResolve:
    def test_builtin_refs(self):
        assert resolve_hypothesis_set("builtin:generic").set_id == "generic-31"
        assert resolve_hypothesis_set("builtin:domain-mh").set_id == "mh-domain-21"

    def test_path_ref_relative_to_base(self, tmp_path):
        write_json(tmp_path / "custom.json", hypothesis_set_to_dict(builtin_generic()))
        loaded = resolve_hypothesis_set("custom.json", base_dir=tmp_path)
        assert loaded.version_hash == builtin_generic().version_hash


class TestRuleSetValidation:
    def test_needs_positive_rule(self):
        with pytest.raises(ValidationError):
            HeuristicRuleSet((), None, PseudoLabel.UNDETERMINED)

    def test_zero_count_rejected(self):
        with pytest.raises(ValidationError):
            HeuristicRuleSet((ThresholdRule(0.5, 0),), None, PseudoLabel.UNDETERMINED)

    def test_boundary_thresholds_rejected(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValidationError):
                HeuristicRuleSet((ThresholdRule(bad, 1),), None, PseudoLabel.UNDETERMINED)
