"""JSON, JSONL and CSV files: torn-line repair of the append-only logs, damage
to every other file read back, and atomic whole-file writes."""

from __future__ import annotations

import base64
import inspect
import json
import logging
import os
import struct
import time

import pytest

from concernminer._jsonl import Log, read_json, read_jsonl, write_csv, write_jsonl
from concernminer.cli import main
from concernminer.config import load_config
from concernminer.corpus import CSV_COLUMNS
from concernminer.errors import ValidationError
from concernminer.hypotheses import load_hypothesis_set
from concernminer.labels import PseudoLabel
from concernminer.llm.backends import load_llm_script
from concernminer.nli.backends import MockNliBackend, load_trigger_table
from concernminer.pipeline import (
    ANNOTATION_REPORT_FILE,
    ANNOTATION_STATE_FILE,
    EXTRACTED_FILE,
    MANIFEST_FILE,
    NLI_CACHE_FILE,
    PSEUDO_LABELS_FILE,
    VOTES_FILE,
    read_pseudo_labels,
    write_pseudo_labels,
)

from synth import build_extraction_fixture, extraction_config, with_votes_and_decision


def write_lines(path, lines):
    path.write_bytes("".join(lines).encode("utf-8"))


class TestReadLog:
    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(Log(tmp_path / "absent.jsonl").read()) == []

    def test_records_in_order_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(path, ['{"a": 1}\n', "\n", "   \n", '{"a": 2}\n'])
        assert list(Log(path).read()) == [{"a": 1}, {"a": 2}]

    def test_reader_is_lazy(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(path, ['{"a": 1}\n', "not json\n"])
        records = Log(path).read()
        assert inspect.isgenerator(records)
        assert next(records) == {"a": 1}  # the corrupt line is not read yet

    @pytest.mark.parametrize("tail", ['{"a": 3, "b"', '{"a": 3}', "{", "  "])
    def test_torn_last_line_dropped_and_truncated(self, tmp_path, caplog, tail):
        path = tmp_path / "log.jsonl"
        write_lines(path, ['{"a": 1}\n', '{"a": 2}\n', tail])
        torn = path.read_bytes()
        log = Log(path)
        with caplog.at_level(logging.WARNING):
            assert list(log.read()) == [{"a": 1}, {"a": 2}]
        assert f"{path}:3: dropping torn last line" in caplog.text
        assert path.read_bytes() == torn  # reading never writes
        with log:  # the reading Log's session cuts the torn line under the lock, before its first append
            assert path.read_bytes() == b'{"a": 1}\n{"a": 2}\n'
            log.append([{"a": 3}])
        assert list(Log(path).read()) == [{"a": 1}, {"a": 2}, {"a": 3}]

    def test_a_torn_tail_is_cut_once_however_many_sessions_follow_the_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(path, ['{"a": 1}\n', '{"a": 2'])
        log = Log(path)
        assert list(log.read()) == [{"a": 1}]
        with log:
            log.append([{"a": 2}])
        with log:  # the file ends with whole lines now: nothing is cut
            log.append([{"a": 3}])
        assert path.read_bytes() == b'{"a": 1}\n{"a":2}\n{"a":3}\n'

    def test_a_torn_tail_is_left_when_the_file_changed_since_the_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(path, ['{"a": 1}\n', '{"a": 2'])
        log = Log(path)
        assert list(log.read()) == [{"a": 1}]
        write_lines(path, ['{"a": 1}\n', '{"a": 2}\n'])  # another writer mends the line
        with log:
            log.append([{"a": 3}])
        assert list(Log(path).read()) == [{"a": 1}, {"a": 2}, {"a": 3}]

    @pytest.mark.parametrize("lines", [['{"a": 1}\n', "{oops\n", '{"a": 3}\n'], ['{"a": 1}\n', "{oops\n"]])
    def test_corrupt_complete_line_names_path_and_line(self, tmp_path, lines):
        path = tmp_path / "log.jsonl"
        write_lines(path, lines)
        with pytest.raises(ValidationError, match=f"{path}:2: corrupt log line"):
            list(Log(path).read())
        assert path.read_bytes() == "".join(lines).encode("utf-8")  # corruption is never truncated away

    def test_parse_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(path, ['{"a": 1}\n', '{"b": 2}\n'])
        records = Log(path).read(lambda record: record["a"])
        assert next(records) == 1
        with pytest.raises(ValidationError, match=f"{path}:2: corrupt log line: KeyError"):
            next(records)

    def test_append_writes_sorted_keys_one_line_each(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with Log(path) as log:
            log.append([{"b": 1, "a": 2}])
            log.append([{"c": None}, {"d": [1, 2]}])
        assert path.read_text() == '{"a":2,"b":1}\n{"c":null}\n{"d":[1,2]}\n'  # no padding after , and :


    def test_a_second_writer_is_refused_while_the_log_is_open(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with Log(path) as log:
            with pytest.raises(ValidationError, match=f"{path}: another process is appending to this log"):
                with Log(path):
                    pass
            log.append([{"a": 1}])
        with Log(path) as log:  # released when the first handle closed
            log.append([{"a": 2}])
        assert list(Log(path).read()) == [{"a": 1}, {"a": 2}]

    def test_context_is_named_where_it_changes_and_again_after_another_write(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first, second = Log(path, ("k",)), Log(path, ("k",))
        with first:
            first.append([{"k": 1, "v": 0}, {"k": 1, "v": 1}, {"k": 2, "v": 2}])
        assert list(first.read()) == list(second.read()) == [{"k": 1, "v": 0}, {"k": 1, "v": 1}, {"k": 2, "v": 2}]
        with first:
            first.append([{"k": 1, "v": 3}])
        with second:  # read before first's append: the file grew since, so it names its context again
            second.append([{"k": 2, "v": 4}])
        assert path.read_text().splitlines()[3:] == ['{"k":1,"v":3}', '{"k":2,"v":4}']
        assert [r["k"] for r in Log(path, ("k",)).read()] == [1, 1, 2, 1, 2]

    def test_context_is_named_again_after_another_write_that_keeps_the_size(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = Log(path, ("k",))
        with log:
            log.append([{"k": 1, "v": 0}, {"k": 1, "v": 1}])
        assert path.read_text().splitlines()[1] == '{"v":1}'
        size = path.stat().st_size
        time.sleep(0.05)  # the other write comes later, past a coarse file clock's tick
        os.truncate(path, size - len('{"v":1}\n'))  # another writer cuts a torn tail, then appends as many bytes
        with path.open("a") as other:
            other.write('{"k":2}\n')
        assert path.stat().st_size == size
        with log:
            log.append([{"k": 1, "v": 2}])
        assert path.read_text().splitlines()[2] == '{"k":1,"v":2}'
        assert [r["k"] for r in Log(path, ("k",)).read()] == [1, 2, 1]

    def test_lines_are_json_dumps_with_sorted_keys(self, tmp_path):
        records = [
            {"text": "café ✓ \U0001f620 \u2028 \x07 \"q\" \\", "b": 1, "a": None},
            {"floats": [0.1, 0.1 + 0.2, 1e-07, 1e300, -0.0, 3.0, float("inf"), float("nan")], "z": True},
            {"nested": [[1, [2.5, "x"]], {"y": [], "x": {"w": [0.85, "é"]}}], "list": []},
        ]
        write_jsonl(tmp_path / "whole.jsonl", records)
        with Log(tmp_path / "log.jsonl") as log:
            log.append(records)
        assert (tmp_path / "whole.jsonl").read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        compact = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
        assert (tmp_path / "log.jsonl").read_text() == compact  # a log line drops the padding after , and :

class TestReadWholeFile:
    @pytest.mark.parametrize("tail", ['{"a": 3, "b"', '{"a": 3}'])
    def test_missing_final_newline_is_damage_not_truncated(self, tmp_path, tail):
        path = tmp_path / "out.jsonl"
        write_lines(path, ['{"a": 1}\n', "\n", tail])
        with pytest.raises(ValidationError, match=f"{path}:3: corrupt line"):
            list(read_jsonl(path))
        assert path.read_bytes() == ('{"a": 1}\n\n' + tail).encode("utf-8")

    def test_records_and_parse_errors(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_lines(path, ['{"a": 1}\n', "\n", '{"b": 2}\n'])
        assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]
        with pytest.raises(ValidationError, match=f"{path}:3: corrupt line: KeyError"):
            list(read_jsonl(path, lambda record: record["a"]))

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ValidationError, match=f"{tmp_path / 'absent.jsonl'}: "):
            list(read_jsonl(tmp_path / "absent.jsonl"))

    @pytest.mark.parametrize("content", [None, "", '{"a": 1', '{"a": 1} x', "[1]"])
    def test_read_json_names_path(self, tmp_path, content):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ValidationError, match=f"{path}: "):
            read_json(path, lambda doc: doc["a"])


@pytest.fixture()
def extraction(tmp_path):
    data_dir = tmp_path / "data"
    ledger = build_extraction_fixture(data_dir, n_privacy=8, n_benign_low=22, n_high=3, n_yes=4)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(extraction_config(data_dir, tmp_path / "run")))
    responses = {annotator: {rid: "privacy" for rid in ledger.yes_ids} for annotator in ("lead", "ann-b", "ann-c", "ann-d")}
    responses["ann-b"][ledger.yes_ids[0]] = "non_privacy"  # one tiebreak
    responses_path = tmp_path / "responses.json"
    responses_path.write_text(json.dumps(responses))
    return config_path, responses_path


def run_all(config_path, responses_path, workdir):
    """Extract then annotate into ``workdir``; returns both exit codes."""
    common = ["--config", str(config_path), "--workdir", str(workdir)]
    return main(["extract", *common]), main(["annotate", *common, "--responses", str(responses_path)])


def outputs(workdir):
    return {name: (workdir / name).read_bytes() for name in (MANIFEST_FILE, EXTRACTED_FILE, ANNOTATION_REPORT_FILE)}


LOGS = (NLI_CACHE_FILE, VOTES_FILE, ANNOTATION_STATE_FILE)


@pytest.mark.parametrize("log_name", LOGS)
def test_torn_last_line_resumes_to_uninterrupted_outputs(extraction, tmp_path, caplog, log_name):
    config_path, responses_path = extraction
    assert run_all(config_path, responses_path, tmp_path / "clean") == (0, 0)

    workdir = tmp_path / "torn"
    assert run_all(config_path, responses_path, workdir) == (0, 0)
    log = workdir / log_name
    whole = log.read_bytes()
    last_start = whole.rstrip(b"\n").rfind(b"\n") + 1
    log.write_bytes(whole[: last_start + (len(whole) - last_start) // 2])  # half of the last line, no newline

    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert run_all(config_path, responses_path, workdir) == (0, 0)
    assert f"{log}:" in caplog.text and "dropping torn last line" in caplog.text
    assert outputs(workdir) == outputs(tmp_path / "clean")
    assert log.read_bytes() == whole  # the lost record was redone and appended on a clean line


@pytest.mark.parametrize("log_name", LOGS)
def test_corrupt_middle_line_exits_2(extraction, tmp_path, capsys, log_name):
    config_path, responses_path = extraction
    workdir = tmp_path / "run"
    assert run_all(config_path, responses_path, workdir) == (0, 0)
    log = workdir / log_name
    lines = log.read_text().splitlines(keepends=True)
    assert len(lines) >= 3
    lines[1] = "{garbage\n"
    log.write_text("".join(lines))
    capsys.readouterr()

    assert 2 in run_all(config_path, responses_path, workdir)
    assert f"{log}:2: corrupt log line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "log_name, record",
    [(NLI_CACHE_FILE, {"backend": "mock-nli"}), (VOTES_FILE, {"review_id": "x"}), (ANNOTATION_STATE_FILE, {"review_id": "x"})],
)
def test_record_missing_a_field_exits_2(extraction, tmp_path, capsys, log_name, record):
    config_path, responses_path = extraction
    workdir = tmp_path / "run"
    assert run_all(config_path, responses_path, workdir) == (0, 0)
    log = workdir / log_name
    with Log(log) as handle:
        handle.append([record])
    lines = len(log.read_text().splitlines())
    capsys.readouterr()

    assert 2 in run_all(config_path, responses_path, workdir)
    assert f"{log}:{lines}: corrupt log line" in capsys.readouterr().err


def rewrite_first_record(log, **fields):
    """Replace fields of the first record of the log at ``log``, as an outside edit would."""
    first, *rest = log.read_text().splitlines(keepends=True)
    log.write_text(json.dumps(dict(json.loads(first), **fields), sort_keys=True) + "\n" + "".join(rest))


@pytest.mark.parametrize(
    "fields",
    [{"tie_flag": "false"}, {"tie_flag": 0}, {"tie_flag": None}, {"raw_responses": [1, 2, 3, 4, 5]}, {"raw_responses": "yes"}, {"review_id": 7}],
    ids=["tie-flag-string", "tie-flag-zero", "tie-flag-null", "response-number", "responses-string", "review-id-number"],
)
def test_vote_record_value_out_of_contract_exits_2(extraction, tmp_path, capsys, fields):
    config_path, _ = extraction
    common = ["--config", str(config_path), "--workdir", str(tmp_path / "run")]
    assert main(["extract", *common]) == 0
    votes, extracted = tmp_path / "run" / VOTES_FILE, tmp_path / "run" / EXTRACTED_FILE
    rewrite_first_record(votes, **fields)
    before = extracted.read_bytes()
    capsys.readouterr()

    assert main(["extract", *common]) == 2
    assert f"{votes}:1: corrupt log line" in capsys.readouterr().err
    assert extracted.read_bytes() == before


@pytest.mark.parametrize(
    "older, edit",
    [
        (True, lambda record: {"decision": "yes" if record["decision"] == "no" else "no"}),
        (True, lambda record: {"votes": ["yes" if vote == "no" else "no" for vote in record["votes"]]}),
        (False, lambda record: {"tie_flag": not record["tie_flag"]}),
        (True, lambda record: {"tie_flag": not record["tie_flag"]}),
    ],
    ids=["decision", "votes", "tie-flag", "older-tie-flag"],
)
@pytest.mark.parametrize("command", ["extract", "evaluate"])
def test_vote_record_that_disagrees_with_its_responses_exits_2(extraction, tmp_path, capsys, older, edit, command):
    """A record's votes, decision and tie flag are what its raw responses give: the log cannot flip a decision.
    A record holds only its tie flag of the three; one an older version wrote (``older``) holds all three."""
    config_path, _ = extraction
    raw = json.loads(config_path.read_text())
    raw["corpus"]["labeled"] = raw["corpus"]["unlabeled"]  # evaluate reads the votes before the gold labels
    config_path.write_text(json.dumps(raw))
    common = ["--config", str(config_path), "--workdir", str(tmp_path / "run")]
    assert main(["extract", *common]) == 0
    votes, extracted = tmp_path / "run" / VOTES_FILE, tmp_path / "run" / EXTRACTED_FILE
    first = json.loads(votes.read_text().splitlines()[0])
    assert "votes" not in first and "decision" not in first
    first = with_votes_and_decision(first) if older else first
    field, value = next(iter(edit(first).items()))
    rewrite_first_record(votes, **dict(first, **{field: value}))
    before = {path: path.read_bytes() for path in (votes, extracted)}
    capsys.readouterr()

    assert main([command, *common] + (["--votes", str(votes)] if command == "evaluate" else [])) == 2
    what = "line" if command == "evaluate" else "log line"  # evaluate reads the log as a whole file
    assert f"{votes}:1: corrupt {what}: {field} is {value!r}, but raw_responses give " in capsys.readouterr().err
    assert {path: path.read_bytes() for path in before} == before


@pytest.mark.parametrize(
    "fields",
    [{"label": "yes please"}, {"label": 7}, {"label": "skip"}, {"label": None}, {"annotator": 5}, {"review_id": ["r"]}],
    ids=["label-unknown", "label-number", "label-skip", "label-null", "annotator-number", "review-id-list"],
)
def test_annotation_state_value_out_of_contract_exits_2_and_keeps_the_report(extraction, tmp_path, capsys, fields):
    config_path, responses_path = extraction
    workdir = tmp_path / "run"
    assert run_all(config_path, responses_path, workdir) == (0, 0)
    state = workdir / ANNOTATION_STATE_FILE
    rewrite_first_record(state, **fields)
    before = {name: (workdir / name).read_bytes() for name in (ANNOTATION_REPORT_FILE, MANIFEST_FILE)}
    capsys.readouterr()

    assert main(["annotate", "--config", str(config_path), "--workdir", str(workdir), "--responses", str(responses_path)]) == 2
    assert f"{state}:1: corrupt log line" in capsys.readouterr().err
    assert {name: (workdir / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("log_name", [NLI_CACHE_FILE, VOTES_FILE])
def test_a_model_log_another_writer_holds_exits_2(extraction, tmp_path, capsys, monkeypatch, log_name):
    """extract takes both logs' locks before its first backend call: a cache cut to 5 rows is not scored again."""
    config_path, _ = extraction
    common = ["--config", str(config_path), "--workdir", str(tmp_path / "run")]
    assert main(["extract", *common]) == 0
    cache, log = tmp_path / "run" / NLI_CACHE_FILE, tmp_path / "run" / log_name
    cache.write_bytes(b"".join(cache.read_bytes().splitlines(keepends=True)[:5]))
    before = {path: path.read_bytes() for path in (cache, log)}
    calls = []
    monkeypatch.setattr(MockNliBackend, "score_row", lambda self, *args: calls.append(args) or iter(()))
    capsys.readouterr()

    with Log(log):  # as another command appending to the same workdir would
        assert main(["extract", *common]) == 2
    assert f"{log}: another process is appending to this log" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in before} == before
    assert not calls


def f32_field(cells):
    """The ``f32`` field of a cache row holding ``cells``."""
    return base64.b64encode(struct.pack(f"<{len(cells)}f", *cells)).decode("ascii")


@pytest.mark.parametrize(
    "cell",
    [(1, [1.5]), (1, [float("nan")]), (1, "0.5"), (1, None), ("x", [0.5])],
    ids=["entail-above-1", "entail-nan", "f32-not-a-string", "f32-null", "id-string"],
)
def test_partial_cache_row_out_of_contract_exits_2(extraction, tmp_path, capsys, cell):
    config_path, _ = extraction
    common = ["--config", str(config_path), "--workdir", str(tmp_path / "run")]
    assert main(["extract", *common]) == 0
    log = tmp_path / "run" / NLI_CACHE_FILE
    first = json.loads(log.read_text().splitlines()[0])
    hyp_id, f32 = cell
    with Log(log) as handle:  # a row of one cell, as a backend failure after its first cell leaves it
        handle.append([{
            "backend": first["backend"], "set_hash": first["set_hash"], "review_id": "appended",
            "hypotheses": [hyp_id], "f32": f32_field(f32) if isinstance(f32, list) else f32,
        }])
    lines = len(log.read_text().splitlines())
    capsys.readouterr()

    assert main(["extract", *common]) == 2
    assert f"{log}:{lines}: corrupt log line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "shape",  # a cache row's fields as an earlier development version wrote them
    [
        lambda ids, entails: [{"hypothesis_id": h, "entail": e, "neutral": None, "contradict": None} for h, e in zip(ids, entails)],
        lambda ids, entails: [{"row": [[h, e, None, None] for h, e in zip(ids, entails)]}],
        lambda ids, entails: [{"row": [[h, float("%.9g" % e)] for h, e in zip(ids, entails)]}],  # 9-digit decimals with their ids
        lambda ids, entails: [{"entail": [float("%.9g" % e) for e in entails]}],  # 9-digit decimals, in the set's order
        lambda ids, entails: [{"row": [[ids[0], 0.5, -0.1, 0.6]]}],
        lambda ids, entails: [{"row": [[ids[0], 0.2, 0.2, 0.1]]}],  # a distribution that sums to 0.5
    ],
    ids=["cell-records", "4-value-cells", "2-value-cells", "entail-rows", "neutral-below-0", "sum-0.5"],
)
def test_a_cache_an_earlier_development_version_wrote_exits_2_and_changes_nothing(extraction, tmp_path, capsys, monkeypatch, shape):
    config_path, _ = extraction
    common = ["--config", str(config_path), "--workdir", str(tmp_path / "run")]
    assert main(["extract", *common]) == 0
    log = tmp_path / "run" / NLI_CACHE_FILE
    records = list(Log(log, ("backend", "set_hash")).read())  # each naming its context, as those versions wrote them
    hyp_ids, half = records[0]["hypotheses"], len(records) // 2
    log.unlink()
    with Log(log) as handle:  # the first half of the rows as this version wrote them, the rest in the earlier shape
        handle.append(records[:half] + [
            {key: r[key] for key in ("backend", "set_hash", "review_id")} | fields
            for r in records[half:]
            for fields in shape(hyp_ids, [e for (e,) in struct.iter_unpack("<f", base64.b64decode(r["f32"]))])
        ])
    before = snapshot(tmp_path / "run")
    calls = []
    monkeypatch.setattr(MockNliBackend, "score_row", lambda self, *row: calls.append(row))
    capsys.readouterr()

    assert main(["extract", *common]) == 2
    err = capsys.readouterr().err
    assert f"{log}:{half + 1}: corrupt log line: not an f32 row: the cache was written by an earlier development version" in err
    assert f"delete {NLI_CACHE_FILE} to score its reviews again" in err
    assert snapshot(tmp_path / "run") == before
    assert calls == []


@pytest.mark.parametrize(
    "dropped", [("backend",), ("set_hash",), ("backend", "set_hash"), ("hypotheses",)], ids=["backend", "set_hash", "both", "hypotheses"]
)
def test_a_first_cache_record_without_its_context_exits_2(extraction, tmp_path, capsys, dropped):
    config_path, _ = extraction
    common = ["--config", str(config_path), "--workdir", str(tmp_path / "run")]
    assert main(["extract", *common]) == 0
    log = tmp_path / "run" / NLI_CACHE_FILE
    first, *rest = log.read_text().splitlines(keepends=True)
    assert all("backend" not in line for line in rest)  # they take theirs from the first record
    log.write_text(json.dumps({k: v for k, v in json.loads(first).items() if k not in dropped}) + "\n" + "".join(rest))
    before = snapshot(tmp_path / "run")
    capsys.readouterr()

    assert main(["extract", *common]) == 2
    assert f"{log}:1: corrupt log line: KeyError('{dropped[0]}')" in capsys.readouterr().err
    assert snapshot(tmp_path / "run") == before


@pytest.mark.parametrize(
    "fields",
    [
        lambda k, f32: {"f32": f32[:8] + "!" + f32[8:]},  # outside the base64 alphabet, which a lax decoder skips
        lambda k, f32: {"f32": f32_field([0.5] * (k - 1))[:-1]},  # padding cut short
        lambda k, f32: {"f32": f32[:8] + "=" + f32[9:]},  # padding inside the data
        lambda k, f32: {"f32": f32_field([0.5] * (k + 1))},  # 4k + 4 bytes
        lambda k, f32: {"f32": f32_field([0.5] * (k - 1))},  # 4k - 4 bytes
        lambda k, f32: {"f32": base64.b64encode(base64.b64decode(f32)[:-1]).decode("ascii")},  # 4k - 1 bytes
        lambda k, f32: {"f32": f32_field([0.5] * (k - 1) + [float("nan")])},
        lambda k, f32: {"f32": f32_field([0.5] * (k - 1) + [1.5])},
        lambda k, f32: {"f32": f32_field([0.5] * (k - 1) + [-0.0625])},
        lambda k, f32: {"f32": f32, "set_hash": "new", "hypotheses": [True] + list(range(2, k + 1))},
        lambda k, f32: {"f32": f32, "set_hash": "new", "hypotheses": [str(h) for h in range(1, k + 1)]},
    ],
    ids=[
        "f32-not-base64", "f32-padding-cut", "f32-padding-inside", "f32-long", "f32-short", "f32-not-4-byte-cells",
        "f32-nan", "f32-above-1", "f32-below-0",
        "f32-hypothesis-id-true", "f32-hypothesis-id-string",
    ],
)
def test_cache_f32_row_out_of_contract_exits_2(extraction, tmp_path, capsys, fields):
    config_path, _ = extraction
    common = ["--config", str(config_path), "--workdir", str(tmp_path / "run")]
    assert main(["extract", *common]) == 0
    log = tmp_path / "run" / NLI_CACHE_FILE
    first = json.loads(log.read_text().splitlines()[0])  # a complete row that names its set's hypotheses
    record = {"backend": first["backend"], "set_hash": first["set_hash"], "review_id": "appended"}
    with Log(log) as handle:
        handle.append([record | fields(len(first["hypotheses"]), first["f32"])])
    lines = len(log.read_text().splitlines())
    before = log.read_bytes()
    capsys.readouterr()

    assert main(["extract", *common]) == 2
    assert f"{log}:{lines}: corrupt log line" in capsys.readouterr().err
    assert log.read_bytes() == before


class TestWholeFileOutputs:
    def test_failed_rewrite_keeps_previous_file(self, tmp_path):
        path = tmp_path / PSEUDO_LABELS_FILE
        write_pseudo_labels(path, [("r1", PseudoLabel.MAYBE_PRIVACY, 0.85, (14,))])
        before = path.read_bytes()

        def rows():
            yield ("r1", PseudoLabel.MAYBE_NOT_PRIVACY, None, ())
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError):
            write_pseudo_labels(path, rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [PSEUDO_LABELS_FILE]

    @pytest.mark.parametrize(
        "review_id",
        ['say "hi"', "back\\slash", "bell\x07and\ttab", "café 中 \U0001f620", "\u2028"],
        ids=["quote", "backslash", "control", "non-ascii", "line-separator"],
    )
    def test_pseudo_label_lines_are_json_dumps_of_their_records_and_round_trip(self, tmp_path, review_id):
        rows = [
            (review_id, PseudoLabel.MAYBE_PRIVACY, 0.85, (14, 17)),
            (review_id + "-p", PseudoLabel.MAYBE_PRIVACY, 0.1 + 0.2, (3,)),
            (review_id + "-d", PseudoLabel.MAYBE_PRIVACY, None, ()),  # a set whose default label is maybe-privacy
            (review_id + "-n", PseudoLabel.MAYBE_NOT_PRIVACY, None, ()),
            (review_id + "-u", PseudoLabel.UNDETERMINED, None, ()),
        ]
        path = tmp_path / PSEUDO_LABELS_FILE
        write_pseudo_labels(path, rows)
        records = [
            {"review_id": rid, "label": label.value}
            | ({"threshold": threshold, "triggered": list(triggered)} if label is PseudoLabel.MAYBE_PRIVACY else {})
            for rid, label, threshold, triggered in rows
        ]
        assert path.read_text().splitlines() == [json.dumps(record, sort_keys=True) for record in records]
        assert read_pseudo_labels(path) == {rid: label for rid, label, _, _ in rows}

    def test_failed_csv_rewrite_keeps_previous_file(self, tmp_path):
        path = tmp_path / "export.csv"
        write_csv(path, CSV_COLUMNS, [{"id": "r1", "app": "a", "text": "x, \"y\"", "label": None}])
        before = path.read_bytes()
        assert before == b'id,app,store,rating,text,label,date\r\nr1,a,,,"x, ""y""",,\r\n'

        def rows():
            yield {"id": "r2"}
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError):
            write_csv(path, CSV_COLUMNS, rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["export.csv"]


def snapshot(workdir):
    return {p.relative_to(workdir): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "load, content",
    [
        (load_fn, content)
        for load_fn in (load_config, load_hypothesis_set, load_llm_script, load_trigger_table)
        for content in (None, "{not json", "[[1]]")
    ],
)
def test_unreadable_user_input_names_path(tmp_path, load, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ValidationError, match=str(path)):
        load(path)
