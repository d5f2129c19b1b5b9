"""The configs shipped in-repo parse and the demo runs end to end offline."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from concernminer.cli import main
from concernminer.config import load_config
from concernminer.pipeline import TIMINGS_FILE

CONFIGS_DIR = Path(__file__).parent.parent / "configs"


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


def test_demo_extracts_annotates_and_exports(tmp_path, capsys):
    """The steps of CI's demo run, with both annotators answering privacy,
    leave every file but the timings as ``configs/demo/outputs.sha256``
    records it (``sha256sum`` format, names relative to the workdir)."""
    demo_config = CONFIGS_DIR / "demo" / "demo.json"
    workdir = tmp_path / "run"
    argv_tail = ["--config", str(demo_config), "--workdir", str(workdir)]

    assert main(["extract", *argv_tail]) == 0
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

    ids = [json.loads(line)["id"] for line in (workdir / "annotation_queue.jsonl").read_text().splitlines()]
    responses_path = workdir / "responses.json"
    responses_path.write_text(json.dumps({name: dict.fromkeys(ids, "privacy") for name in ("you", "colleague")}))
    assert main(["annotate", *argv_tail, "--responses", str(responses_path)]) == 0

    assert main(["export", *argv_tail, "--output", str(workdir / "export.csv")]) == 0
    assert "exported 4" in capsys.readouterr().out
    pinned = dict(line.split()[::-1] for line in (CONFIGS_DIR / "demo" / "outputs.sha256").read_text().splitlines())
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in workdir.iterdir() if p.name != TIMINGS_FILE}
    assert written == pinned


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
    assert err.startswith(f"error: {table}:") and "OverflowError" in err
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
