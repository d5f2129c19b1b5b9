"""The configs shipped in-repo parse and the demo runs end to end offline."""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from concernminer.cli import main
from concernminer.config import load_config
from concernminer import pipeline
from concernminer.pipeline import TIMINGS_FILE

from synth import with_votes_and_decision

CONFIGS_DIR = Path(__file__).parent.parent / "configs"
README = Path(__file__).parent.parent / "README.md"


def test_reference_selection_config_parses():
    config = load_config(CONFIGS_DIR / "selection.reference.json")
    assert [b.name for b in config.nli_backends] == [
        "Roberta-large-mnli",
        "Nli-roberta-base",
        "DeBERTa-v3-base-mnli-fever-anli",
        "T5-base",
    ]
    assert config.llm_backend.name == "meta-llama/Llama-3.1-8B-Instruct"
    assert config.sampling.temperature == 0.3
    assert config.sampling.top_p == 0.9
    assert config.sampling.num_samples == 5
    assert config.hypothesis_refs["generic"] == "builtin:generic"
    assert config.hypothesis_refs["domain"] == "builtin:domain-mh"
    assert len(config.annotators) == 4


def test_readme_library_snippet_runs_on_the_demo_reviews(tmp_path, monkeypatch):
    """The README's "Library use" snippet runs as written, on a copy of the demo's reviews."""
    snippet = README.read_text().split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    shutil.copy(CONFIGS_DIR / "demo" / "reviews.csv", tmp_path / "reviews.csv")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(snippet, namespace)
    assert namespace["matrix"].shape == (len(namespace["corpus"]), 21)
    assert len(namespace["labels"]) == len(namespace["corpus"]) == 24


def test_demo_extracts_annotates_and_exports(tmp_path, capsys):
    """The steps of CI's demo run, with both annotators answering privacy
    and ``nli-label`` after ``extract``, leave every file but the timings as
    ``configs/demo/outputs.sha256`` records it (``sha256sum`` format, names
    relative to the workdir)."""
    demo_config = CONFIGS_DIR / "demo" / "demo.json"
    workdir = tmp_path / "run"
    argv_tail = ["--config", str(demo_config), "--workdir", str(workdir)]

    assert main(["extract", *argv_tail]) == 0
    assert not list(workdir.glob("matrix_*"))  # no command writes a score matrix
    assert not (workdir / "pseudo_labels.jsonl").exists()  # extract keeps its labels in memory
    assert main(["nli-label", *argv_tail]) == 0
    manifest = json.loads((workdir / "manifest.json").read_text())
    assert manifest["counts"] == {
        "ingested": 24,
        "rating_filtered": 20,
        "nli_scored": 20,
        "maybe_privacy": 5,
        "llm_yes": 4,
        "llm_no": 1,
        "llm_failed": 0,
        "human_confirmed": 0,
        "human_rejected": 0,
    }

    ids = [json.loads(line)["id"] for line in (workdir / "extracted.jsonl").read_text().splitlines()]
    responses_path = workdir / "responses.json"
    responses_path.write_text(json.dumps({name: dict.fromkeys(ids, "privacy") for name in ("you", "colleague")}))
    assert main(["annotate", *argv_tail, "--responses", str(responses_path)]) == 0

    assert main(["export", *argv_tail, "--output", str(workdir / "export.csv")]) == 0
    assert "exported 4" in capsys.readouterr().out
    pinned = dict(line.split()[::-1] for line in (CONFIGS_DIR / "demo" / "outputs.sha256").read_text().splitlines())
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in workdir.iterdir() if p.name != TIMINGS_FILE}
    assert written == pinned


# The demo's two model logs as versions before compact log lines wrote them: ``json.dumps(record,
# sort_keys=True)`` lines, each vote record also holding its votes and decision.
OLDER_LOG_DIGESTS = {
    "nli_cache.jsonl": "55284af62e849d0e98b95e7409b868ece0567ca0c50dee352b4ad418a45ca6e1",
    "votes.jsonl": "2579d1f9f0200ebbdcddb829a2d732afffef8df37769bd869da730a762c5eb02",
}


def test_demo_workdir_whose_logs_an_older_version_wrote_reruns_with_no_backend_call(tmp_path, monkeypatch):
    """Logs of spaced lines, whose vote records hold the votes and decision their raw responses give,
    load: an ``extract`` rerun calls no backend, appends nothing and leaves the outputs byte for byte."""
    workdir = tmp_path / "run"
    argv = ["extract", "--config", str(CONFIGS_DIR / "demo" / "demo.json"), "--workdir", str(workdir)]
    assert main(argv) == 0
    for name in OLDER_LOG_DIGESTS:
        records = [json.loads(line) for line in (workdir / name).read_text().splitlines()]
        if name == "votes.jsonl":
            records = [with_votes_and_decision(record) for record in records]
        (workdir / name).write_text("".join(json.dumps(record, sort_keys=True) + "\n" for record in records))
    names = (*OLDER_LOG_DIGESTS, "extracted.jsonl", "manifest.json")
    before = {name: (workdir / name).read_bytes() for name in names}
    assert {name: hashlib.sha256(before[name]).hexdigest() for name in OLDER_LOG_DIGESTS} == OLDER_LOG_DIGESTS
    built = []

    def recording(make):
        def build(*args, **kwargs):
            built.append(make(*args, **kwargs))
            return built[-1]

        return build

    for name in ("make_nli_backend", "make_llm_backend"):
        monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))

    assert main(argv) == 0
    assert [backend.calls for backend in built] == [0, 0]
    assert {name: (workdir / name).read_bytes() for name in names} == before


def test_evaluate_refuses_vote_lines_cut_out_of_the_demo_log(tmp_path, capsys):
    """A vote record names its backend, set hash and sampling only where they change, so lines
    cut from the log lose them: ``evaluate --votes`` exits 2 naming the first such line."""
    demo_dir = CONFIGS_DIR / "demo"
    with (demo_dir / "reviews.csv").open(newline="", encoding="utf-8") as handle:
        rows = [dict(row, label="1" if row["rating"] in ("1", "2") else "") for row in csv.DictReader(handle)]  # those pseudo-labeled
    labeled = tmp_path / "labeled.csv"
    with labeled.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    raw = json.loads((demo_dir / "demo.json").read_text())
    raw["corpus"] |= {"unlabeled": str(demo_dir / raw["corpus"]["unlabeled"]), "labeled": str(labeled)}
    raw["llm"]["script"] = str(demo_dir / raw["llm"]["script"])
    config = tmp_path / "demo.json"
    config.write_text(json.dumps(raw))
    workdir = tmp_path / "run"
    common = ["--config", str(config), "--workdir", str(workdir)]
    assert main(["extract", *common]) == 0

    votes = workdir / "votes.jsonl"
    assert main(["evaluate", *common, "--votes", str(votes)]) == 0
    metrics = (workdir / "metrics.json").read_bytes()
    assert json.loads(metrics)["llm"]["evaluated"] == len(votes.read_text().splitlines()) == 5
    tail = tmp_path / "tail" / "votes.jsonl"
    tail.parent.mkdir()
    tail.write_text("".join(votes.read_text().splitlines(keepends=True)[-4:]))
    capsys.readouterr()

    assert main(["evaluate", *common, "--votes", str(tail)]) == 2
    assert capsys.readouterr().err == f"error: {tail}:1: corrupt line: neither this line nor an earlier one names its backend\n"
    assert (workdir / "metrics.json").read_bytes() == metrics


def test_demo_with_an_infinite_trigger_id_exits_2_naming_the_table(tmp_path, capsys):
    demo_dir = CONFIGS_DIR / "demo"
    raw = json.loads((demo_dir / "demo.json").read_text())
    table = tmp_path / "table.json"
    table.write_text('[["data", [Infinity], 0.9]]')
    raw["corpus"]["unlabeled"] = str(demo_dir / raw["corpus"]["unlabeled"])
    raw["llm"]["script"] = str(demo_dir / raw["llm"]["script"])
    raw["nli"]["backends"][0]["mock_table"] = str(table)
    config = tmp_path / "demo.json"
    config.write_text(json.dumps(raw))
    workdir = tmp_path / "run"

    assert main(["extract", "--config", str(config), "--workdir", str(workdir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {table}: trigger id must be an integer, not inf\n"
    assert not workdir.exists()


def test_cli_imports_no_numpy():
    code = "import concernminer.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_demo_extract_runs_with_numpy_unimportable(tmp_path):
    """The standard library alone runs the demo ``extract``: with ``numpy``
    made unimportable it writes the same files as a normal run, and a normal
    run does not import it either."""
    demo_config = CONFIGS_DIR / "demo" / "demo.json"
    runs = {"blocked": "sys.modules['numpy'] = None", "normal": "pass"}
    for name, setup in runs.items():
        code = (
            f"import sys; {setup}; from concernminer.cli import main; "
            f"code = main(['extract', '--config', {str(demo_config)!r}, '--workdir', {str(tmp_path / name)!r}]); "
            "assert sys.modules.get('numpy') is None; sys.exit(code)"
        )
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)
    files = sorted(p.name for p in (tmp_path / "normal").iterdir() if p.name != TIMINGS_FILE)  # timings vary
    assert "manifest.json" in files and "extracted.jsonl" in files
    assert sorted(p.name for p in (tmp_path / "blocked").iterdir() if p.name != TIMINGS_FILE) == files
    for name in files:
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes(), name
