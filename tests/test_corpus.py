"""Ingestion, normalization, filtering, and partitioning."""

from __future__ import annotations

import csv
import json
import random
import re
from datetime import datetime, timedelta, timezone

import pytest

from concernminer import corpus as corpus_module
from concernminer.corpus import (
    _ISO_DATE,
    Review,
    ReviewCorpus,
    Provenance,
    Store,
    filter_by_rating,
    ingest_reviews,
    normalize_corpus,
    normalize_text,
    _iso_date,
    parse_record,
    partition_gold,
    write_corpus,
    write_rejects,
)
from concernminer.errors import SchemaMismatchError, ValidationError

from synth import build_labeled_fixture, build_rating_fixture


def make_review(review_id="r1", rating=1, text="some text", label=None):
    return Review(review_id, "app", Store.GOOGLE_PLAY, rating, text, gold_label=label)


def make_corpus(reviews):
    return ReviewCorpus(tuple(reviews), Provenance())


class TestNormalizeText:
    def test_empty(self):
        assert normalize_text("") == ""

    def test_collapses_case_punctuation_and_spaces(self):
        assert normalize_text("  Hello   WORLD!! ") == "hello world"

    def test_apostrophes_and_emoticons_become_spaces(self):
        assert normalize_text("Don't bait people \U0001f620") == "don t bait people"

    def test_idempotent_on_random_unicode(self):
        rng = random.Random(42)
        pool = "aZ9 !?.,'’éß\U0001f620中\t\n-_@#"
        for _ in range(500):
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 40)))
            once = normalize_text(text)
            assert normalize_text(once) == once

    def test_no_leading_trailing_or_double_spaces(self):
        out = normalize_text("!!a  b!! c!!")
        assert out == out.strip()
        assert "  " not in out

    def test_matches_the_isalnum_form_on_every_code_point(self):
        def isalnum_form(text):
            return " ".join("".join(ch if ch.isalnum() else " " for ch in text.lower()).split())

        every = "".join(map(chr, range(0x110000)))
        once = normalize_text(every)
        assert once == isalnum_form(every)
        assert normalize_text(once) == once


    def test_an_ascii_text_matches_the_regex_form(self):
        def regex_form(text):
            return " ".join(re.sub(r"[\W_]+", " ", text.lower()).split())

        for code in range(128):
            for text in (chr(code), f"Ab{chr(code)}9z", f"{chr(code)}x{chr(code)}{chr(code)}Y"):
                assert text.isascii() and normalize_text(text) == regex_form(text), code
        rng = random.Random(11)
        for _ in range(3000):
            text = "".join(chr(rng.randrange(128)) for _ in range(rng.randrange(0, 60)))
            assert normalize_text(text) == regex_form(text), text


class TestReviewInvariants:
    def test_rating_bounds(self):
        with pytest.raises(ValidationError):
            make_review(rating=6)
        with pytest.raises(ValidationError):
            make_review(rating=0)

    def test_gold_label_binary(self):
        with pytest.raises(ValidationError):
            make_review(label=2)

    def test_text_norm_must_be_normalized(self):
        with pytest.raises(ValidationError):
            Review("r1", "app", Store.OTHER, 1, "X", text_norm="Has Upper")

    def test_normalized_derives_text_norm_without_a_second_normalization(self, monkeypatch):
        review = make_review(text="Won't LET me sign-up!!")
        calls = []
        monkeypatch.setattr("concernminer.corpus.normalize_text", lambda text: calls.append(text) or normalize_text(text))
        derived = review.normalized()
        assert calls == [review.text_raw]
        assert derived.text_norm == "won t let me sign up"
        assert derived == Review(review.id, "app", Store.GOOGLE_PLAY, 1, review.text_raw, text_norm="won t let me sign up")
        assert review.text_norm is None

    def test_duplicate_ids_rejected_in_corpus(self):
        with pytest.raises(ValidationError):
            make_corpus([make_review("a"), make_review("a")])


class TestIngest:
    def test_three_row_csv(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text(
            "id,app,store,rating,text\n"
            "a,calm,google_play,1,first review\n"
            "b,calm,apple_app_store,2,second review\n"
            "c,shine,other,5,third review\n"
        )
        corpus = ingest_reviews(path)
        assert len(corpus) == 3
        assert [r.id for r in corpus] == ["a", "b", "c"]
        assert corpus.reviews[1].store is Store.APPLE_APP_STORE
        assert corpus.reviews[2].rating == 5
        assert corpus.reviews[0].gold_label is None

    def test_bad_rating_rejected_not_dropped_silently(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text(
            "id,app,store,rating,text\n"
            "a,calm,google_play,1,ok\n"
            "b,calm,google_play,6,too many stars\n"
        )
        corpus = ingest_reviews(path)
        assert len(corpus) == 1
        entries = corpus.provenance.rejects
        assert len(entries) == 1 == corpus.provenance.counts["rejected"]
        assert entries[0]["line_no"] == 3
        assert "rating" in entries[0]["reason"]
        assert list(tmp_path.iterdir()) == [path]  # ingest writes nothing

    def test_labeled_fixture_mirrors_reference_proportions(self, tmp_path):
        ledger = build_labeled_fixture(tmp_path / "labeled.csv")
        corpus = ingest_reviews(tmp_path / "labeled.csv")
        assert len(corpus) == 1376
        assert sum(1 for r in corpus if r.gold_label == 1) == 414
        assert sum(1 for r in corpus if r.gold_label == 0) == 962
        assert ledger.n_pos == 414 and ledger.n_neg == 962

    def test_jsonl_with_blank_and_malformed_lines(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        path.write_text(
            json.dumps({"id": "a", "app": "x", "store": "other", "rating": 1, "text": "hi"})
            + "\n\nnot json\n"
            + json.dumps({"id": "b", "app": "x", "store": "other", "rating": 2, "text": "yo", "label": 1})
            + "\n"
        )
        corpus = ingest_reviews(path)
        assert [r.id for r in corpus] == ["a", "b"]
        assert corpus.reviews[1].gold_label == 1
        assert "invalid json" in corpus.provenance.rejects[0]["reason"]

    @pytest.mark.parametrize(
        "name, text",
        [
            ("reviews.csv", "id,app,store,rating,text\na,calm,other,1,café closed\nb,calm,other,6,too many stars\nc,calm,other,2,third\n"),
            (
                "reviews.jsonl",
                '{"id": "a", "app": "calm", "store": "other", "rating": 1, "text": "café closed"}\nnot json\n'
                '{"id": "c", "app": "calm", "store": "other", "rating": 2, "text": "third"}\n',
            ),
        ],
        ids=["csv", "jsonl"],
    )
    def test_a_file_that_starts_with_a_bom_ingests_as_without_it(self, tmp_path, name, text):
        plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
        for path, encoding in ((plain, "utf-8"), (marked, "utf-8-sig")):  # utf-8-sig writes the BOM
            path.parent.mkdir()
            path.write_text(text, encoding=encoding)
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        expected, corpus = ingest_reviews(plain), ingest_reviews(marked)
        assert [r.id for r in expected] == ["a", "c"] and expected.reviews[0].text_raw == "café closed"
        assert corpus.reviews == expected.reviews
        assert corpus.provenance.rejects == expected.provenance.rejects and len(corpus.provenance.rejects) == 1

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text("id,app,store,rating,text\na,x,other,1,one\na,x,other,2,two\n")
        corpus = ingest_reviews(path)
        assert len(corpus) == 1
        assert "duplicate" in corpus.provenance.rejects[0]["reason"]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"id": "b", "app": "x", "store": "other", "rating": "abc", "text": "two"}', "rating 'abc' is not an integer"),
            ('{"id": "b", "app": "x", "store": "other", "rating": 1, "text": "two", "label": 2}', "label 2 is not 0/1"),
            ('{"id": "b", "app": "x", "store": "other", "rating": 1, "text": "two", "label": "yes"}', "label 'yes' is not 0/1"),
            ("[1, 2]", "record is not a JSON object"),
        ],
        ids=["rating-not-an-integer", "label-2", "label-yes", "not-an-object"],
    )
    def test_reject_reason_in_the_rejects_report(self, tmp_path, line, reason):
        path = tmp_path / "reviews.jsonl"
        good = [json.dumps({"id": i, "app": "x", "store": "other", "rating": 1, "text": "fine"}) for i in ("a", "c")]
        path.write_text("\n".join([good[0], line, good[1]]) + "\n")
        corpus = ingest_reviews(path)
        assert [r.id for r in corpus] == ["a", "c"]
        write_rejects(tmp_path / "rejects_labeled.jsonl", corpus.provenance.rejects)
        assert (tmp_path / "rejects_labeled.jsonl").read_text() == json.dumps({"line_no": 2, "reason": reason}, sort_keys=True) + "\n"

    def test_date_parsed_and_bad_date_rejected(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text(
            "id,app,store,rating,text,label,date\n"
            "a,x,other,1,one,,2021-10-06\n"
            "b,x,other,1,two,,yesterday\n"
        )
        corpus = ingest_reviews(path)
        assert len(corpus) == 1
        assert corpus.reviews[0].submitted_at.isoformat() == "2021-10-06"

    # One grammar on every Python: these read alike on 3.10 and 3.11, and every other form is rejected on both.
    @pytest.mark.parametrize(
        "text",
        [
            "2024-01-05", "2024-01-05 10:00", "2024-01-05T10:00:00Z", "2024-01-05T10:00:00.123Z", "2024-01-05T10:00:00+02:00",
            "2024-01-05T23:59", "2024-01-05 10:00:00.123456", "2024-01-05T10:00:00.123456-23:59", "2024-01-05T00:00Z",
        ],
    )
    def test_date_forms_read_on_every_supported_python(self, text):
        record = {"id": "a", "app": "x", "store": "other", "rating": "1", "text": "one", "date": text}
        assert parse_record(record).submitted_at.isoformat() == "2024-01-05"

    @pytest.mark.parametrize(
        "text",
        [
            "2024-01-05Z", "Z", "2024-13-01", "2024-01-05T10:00:00ZZ", "2024-01-05T10:00:00+02:00Z", "2024-02-30",
            "20240105", "2024-W01-5", "2024-005",  # basic, week and ordinal dates
            "2024-01-05T1000", "2024-01-05T100000", "2024-01-05T10",  # basic and hour-only times
            "2024-01-05T10:00:00.1", "2024-01-05T10:00:00.12", "2024-01-05T10:00:00.1234", "2024-01-05T10:00:00.12345",
            "2024-01-05T10:00:00,123", "2024-01-05T10:00+0200", "2024-01-05T10:00+02", "2024-01-05T10:00+02:00:30",
            "2024-01-05T10:00 +02:00", "2024-01-05T10:00Z+00:00", "2024-01-05t10:00", "2024-01-05_10:00", "2024-01-05/10:00",
            "2024-01-0510:00", "2024-01-05T24:00", "2024-01-05T10:00+24:00",
        ],
    )
    def test_date_forms_rejected_on_every_supported_python(self, text):
        record = {"id": "a", "app": "x", "store": "other", "rating": "1", "text": "one", "date": text}
        with pytest.raises(ValidationError, match=re.escape(f"date {text!r} is not ISO-8601")):
            parse_record(record)

    # Full-width and Arabic-Indic digits are decimal digits to int(), but not to the grammar.
    @pytest.mark.parametrize(
        "text",
        ["2024-02-29", "2023-02-29", "2021-13-01", "0000-01-01", "２０２４-０１-０５", "٢٠٢٤-٠١-٠٥"],
        ids=["2024-02-29", "2023-02-29", "2021-13-01", "0000-01-01", "full-width-digits", "arabic-indic-digits"],
    )
    def test_a_date_alone_reads_as_the_full_grammar_reads_it(self, text):
        def full_grammar(text):
            match = _ISO_DATE.fullmatch(text)
            if match is None:
                raise ValueError(text)
            year, month, day, hour, minute, second, off_h, off_m = (int(group or 0) for group in match.groups())
            return datetime(year, month, day, hour, minute, second, tzinfo=timezone(timedelta(hours=off_h, minutes=off_m))).date()

        def outcome(read, text):
            try:
                return read(text)
            except ValueError:
                return "rejected"

        expected = outcome(full_grammar, text)
        assert outcome(_iso_date, text) == outcome(_iso_date, text + "T00:00Z") == expected
        assert expected == ("rejected" if text != "2024-02-29" else datetime(2024, 2, 29).date())

    def test_majority_rejected_aborts(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text("id,app,store,rating,text\na,x,other,9,one\nb,x,other,8,two\nc,x,other,1,three\n")
        with pytest.raises(SchemaMismatchError):
            ingest_reviews(path)

    def test_unknown_format_and_missing_file(self, tmp_path):
        path = tmp_path / "reviews.xml"
        path.write_text("<xml/>")
        with pytest.raises(ValidationError):
            ingest_reviews(path)
        with pytest.raises(ValidationError):
            ingest_reviews(tmp_path / "nope.csv")

    def test_unknown_store_rejected(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text("id,app,store,rating,text\na,x,amazon,1,one\nb,x,other,1,two\n")
        corpus = ingest_reviews(path)
        assert [r.id for r in corpus] == ["b"]

    def test_round_trip_write_then_ingest(self, tmp_path):
        original = make_corpus(
            [make_review("a", 1, "first", label=1), make_review("b", 3, "second, with comma")]
        )
        out = tmp_path / "out.jsonl"
        write_corpus(original, out)
        back = ingest_reviews(out)
        assert [(r.id, r.rating, r.text_raw, r.gold_label) for r in back] == [
            ("a", 1, "first", 1),
            ("b", 3, "second, with comma", None),
        ]


class TestFilterAndPartition:
    def test_filter_basic(self):
        corpus = make_corpus([make_review(f"r{i}", rating=i) for i in range(1, 6)])
        low = filter_by_rating(corpus, 1, 2)
        assert [r.id for r in low] == ["r1", "r2"]

    def test_filter_identity_and_fixed_point(self):
        corpus = make_corpus([make_review(f"r{i}", rating=i) for i in range(1, 6)])
        assert [r.id for r in filter_by_rating(corpus, 1, 5)] == [r.id for r in corpus]
        once = filter_by_rating(corpus, 1, 2)
        twice = filter_by_rating(once, 1, 2)
        assert [r.id for r in once] == [r.id for r in twice]

    def test_filter_never_grows(self):
        rng = random.Random(7)
        corpus = make_corpus([make_review(f"r{i}", rating=rng.randint(1, 5)) for i in range(50)])
        for lo in range(1, 6):
            for hi in range(lo, 6):
                assert len(filter_by_rating(corpus, lo, hi)) <= len(corpus)

    def test_filter_invalid_bounds(self):
        corpus = make_corpus([make_review()])
        with pytest.raises(ValidationError):
            filter_by_rating(corpus, 2, 1)
        with pytest.raises(ValidationError):
            filter_by_rating(corpus, 0, 3)

    def test_scaled_rating_fixture(self, tmp_path):
        n_low = build_rating_fixture(tmp_path / "scaled.csv")
        corpus = ingest_reviews(tmp_path / "scaled.csv")
        assert len(corpus) == 2043
        assert len(filter_by_rating(corpus, 1, 2)) == n_low == 436

    def test_partition_all_and_none(self):
        labeled_corpus = make_corpus([make_review(f"r{i}", label=i % 2) for i in range(4)])
        labeled, unlabeled = partition_gold(labeled_corpus)
        assert len(labeled) == 4 and len(unlabeled) == 0

        plain = make_corpus([make_review(f"r{i}") for i in range(3)])
        labeled, unlabeled = partition_gold(plain)
        assert len(labeled) == 0 and len(unlabeled) == 3

    def test_partition_reference_scale(self):
        reviews = [make_review(f"r{i}", label=(1 if i < 414 else 0) if i < 1376 else None) for i in range(43647)]
        corpus = make_corpus(reviews)
        labeled, unlabeled = partition_gold(corpus)
        assert len(labeled) == 1376
        assert len(unlabeled) == 42271
        assert len(labeled) + len(unlabeled) == len(corpus)

    def test_normalize_corpus_fills_text_norm(self):
        corpus = make_corpus([make_review("a", text="Hello!"), make_review("b", text="WORLD")])
        normalized = normalize_corpus(corpus)
        assert [r.text_norm for r in normalized] == ["hello", "world"]


def dict_reader_rows(path):
    """The rows of a CSV file as ``csv.DictReader`` reads them, cells past the header dropped."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            record.pop(None, None)
            yield reader.line_num, record


HEADER = "id,app,store,rating,text,label,date\n"


@pytest.mark.parametrize(
    "text",
    [
        HEADER + "a,x,other,1,one,1,2021-01-01\nb,x,other,1\nc,x,other,2,two\nd,x,other,1,four,,\ne,x\nf,x,other,1,six,0\n",
        HEADER + "a,x,other,1,one,,2021-01-02,extra,more\nb,x,other,1,two,,,\nc,x,other,9,three,,,,\n",
        "id,app,store,rating,text,id,date\na,x,other,1,one,a2,2021-01-01\nb,x,other,1,two\nc,x,other,1,three,,\n"
        "d,x,other,1,four,d2\ne,x,other,1,five,e2,2021-02-03\n",
        HEADER + "\na,x,other,1,one\n\n\nb,x,other,9,nine\nc,x,other,1,three\n\r\n\nd,x,other,7,seven\ne,x,other,1,five\n\n",
        HEADER + 'a,x,other,1,"line one\nline two"\nb,x,other,7,"bad\n\nrating"\nc,x,other,1,"say ""hi""\r\n, twice"\n'
        'd,x,other,2,"four\n",,2021-01-01\n',
    ],
    ids=["short-rows", "extra-cells", "duplicate-header-names", "blank-lines", "quoted-multi-line-fields"],
)
def test_csv_rows_ingest_as_through_dict_reader(tmp_path, monkeypatch, text):
    path = tmp_path / "reviews.csv"
    path.write_bytes(text.encode("utf-8"))
    assert list(corpus_module._iter_csv(path)) == list(dict_reader_rows(path))
    fast = ingest_reviews(path)
    monkeypatch.setattr(corpus_module, "_iter_csv", dict_reader_rows)
    assert ingest_reviews(path) == fast  # the reviews and the rejected records, with their reasons
