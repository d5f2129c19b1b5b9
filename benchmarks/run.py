"""Extraction benchmark: times ``run_extraction`` on seeded synthetic corpora.

    python3 benchmarks/run.py --workload cold-mock --seed 1 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the repository root. Each invocation generates its corpus from the
seed, sets the workload up once (untimed), then repeats timed runs until
``--seconds`` have passed, at least ``MIN_RUNS`` times. Every timed run is a
fresh Python process with a fixed environment, working on its own copy of
the set-up workdir, and every run's outputs are checked against the
generator's ledger. The last stdout line is one JSON object: end-to-end
metrics (medians over the runs) with ``--trace 0``; with ``--trace 1``,
per-layer metrics from traced runs alternated with untraced ones. The exit
code is 1 when an output check or the set-up fails, and 2 when the program
is missing.
See README.md in this directory for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from generator import HYPOTHESIS_SET, build_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# Closed loop, one client process; both backends get one in-flight call, so
# a run keeps one worker thread beside its main thread. With more workers on
# a 2-vCPU host, GIL hand-offs rather than the program set the spread.
MAX_INFLIGHT = 1
MIN_RUNS = 5
# Hard limit for one invocation, below the 180 s a run may take.
BUDGET_S = 165.0
# Untriggered cells score low +/- this jitter in the mock NLI backend.
MOCK_JITTER = 0.02
NLI_NAME = "bench-nli"

# reviews: rating-filtered corpus size. workdir: what set-up leaves in the
# workdir each timed run starts from.
WORKLOADS = {
    "cold-mock": {"reviews": 1500, "workdir": "empty", "wire": False},
    "rerun-mock": {"reviews": 3000, "workdir": "complete-run", "wire": False},
    "resume-http": {"reviews": 1000, "workdir": "nli-cache", "wire": True},
}

# Measured in every run; their medians are the end-to-end metrics.
RUN_METRICS = ("reviews_per_s", "setup_s", "peak_rss_mb", "workdir_mb")
# Printed with the end-to-end metrics; in the JSON result they are per-layer
# metrics, because they read 0 on some workloads.
RUN_COUNTERS = ("nli_requests", "llm_requests", "failed_share")

ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}


class BenchError(Exception):
    """Set-up failed; the invocation cannot produce a result."""


class Invocation:
    def __init__(self, workload: str, seed: int, scratch: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + BUDGET_S
        self.stub = None
        self.endpoint = None
        self.reference = None
        self.template = scratch / "template"

    # -- processes ----------------------------------------------------------

    def spawn(self, args: list[str], log: Path) -> tuple[int, float]:
        """Run ``runner.py`` with ``args``; return (exit code, spawn time)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        with log.open("w", encoding="utf-8") as err:
            start = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "runner.py"), *args],
                    env=ENV, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=err, stderr=err, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return -1, start
        return proc.returncode, start

    def start_stub(self, data: Path) -> None:
        log = (self.scratch / "stub.log").open("w", encoding="utf-8")
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(self.seed), "--nli-name", NLI_NAME,
             "--llm-table", str(data / "llm_by_text.json")],
            env=ENV, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log, text=True,
        )
        log.close()
        line = self.stub.stdout.readline()
        if not line.startswith("PORT "):
            raise BenchError(f"stub server did not start: {line!r}")
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}"

    def stub_counts(self) -> dict:
        """Requests the stub received since the last call; resets them."""
        request = urllib.request.Request(f"{self.endpoint}/stats", data=b"{}", method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()

    # -- set-up -------------------------------------------------------------

    def config(self, workdir: Path, *, wire: bool) -> Path:
        data = self.scratch / "data"
        nli = f"{self.endpoint}/nli" if wire else "mock"
        llm = f"{self.endpoint}/llm" if wire else "mock"
        raw = {
            "seed": self.seed,
            "workdir": str(workdir),
            "corpus": {"unlabeled": str(data / "reviews.csv"), "rating_min": 1, "rating_max": 2},
            "hypotheses": {"extraction": HYPOTHESIS_SET},
            "nli": {"backends": [{"name": NLI_NAME, "endpoint": nli, "max_inflight": MAX_INFLIGHT}]},
            "llm": {
                "backend": {"name": "bench-llm", "endpoint": llm, "max_inflight": MAX_INFLIGHT},
                "script": str(data / "llm_script.json"),
            },
        }
        path = workdir.parent / f"{workdir.name}.config.json"
        path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
        return path

    def setup(self) -> None:
        from concernminer.hypotheses import resolve_hypothesis_set
        from concernminer.nli.backends import DEFAULT_TRIGGER_TABLE

        rules = resolve_hypothesis_set(HYPOTHESIS_SET).heuristics.positive_rules
        single_hit = min(threshold for threshold, count in rules if count == 1)
        phrases = tuple(p for p, _, base in DEFAULT_TRIGGER_TABLE if base - MOCK_JITTER > single_hit)
        data = self.scratch / "data"
        self.ledger = build_corpus(data, self.seed, self.spec["reviews"], phrases)

        code, _ = self.spawn(["import"], self.scratch / "import.log")
        if code != 0:
            raise BenchError(f"importing the program failed:\n{_tail(self.scratch / 'import.log')}")
        self.template.mkdir()
        kind = self.spec["workdir"]
        if kind == "complete-run":
            self.check_setup_run(self.template, "prefill")
        elif kind == "nli-cache":
            code, _ = self.spawn(
                ["prefill", str(self.config(self.template, wire=False))],
                self.scratch / "prefill.log",
            )
            if code != 0:
                raise BenchError(f"prefill failed:\n{_tail(self.scratch / 'prefill.log')}")
            reference = self.scratch / "reference"
            shutil.copytree(self.template, reference)
            self.check_setup_run(reference, "reference")
            self.reference = (reference / "extracted.jsonl").read_bytes()
            self.start_stub(data)

    def check_setup_run(self, workdir: Path, label: str) -> None:
        """A complete mock run in ``workdir``, checked like a timed run."""
        out = self.scratch / f"{label}.json"
        code, _ = self.spawn(["extract", str(self.config(workdir, wire=False)), str(out)], self.scratch / f"{label}.log")
        problems = self.check(workdir, code, out)
        if problems:
            raise BenchError(f"{label} run failed: {problems}\n{_tail(self.scratch / f'{label}.log')}")

    # -- timed runs ---------------------------------------------------------

    def run_once(self, index: int, trace: bool) -> dict:
        run_dir = self.scratch / f"run{index}"
        run_dir.mkdir()
        workdir = run_dir / "work"
        shutil.copytree(self.template, workdir)
        config = self.config(workdir, wire=self.spec["wire"])
        out = run_dir / "result.json"
        args = ["extract", str(config), str(out)]
        if trace:
            args += ["--trace", f"{self.name}-{self.seed}-{index}"]
        if self.stub is not None:
            self.stub_counts()
        code, spawned = self.spawn(args, run_dir / "run.log")
        wire = self.stub_counts() if self.stub is not None else {}
        problems = self.check(workdir, code, out, rerun=self.spec["workdir"] == "complete-run")
        run = {"ok": not problems, "problems": problems, "reviews": self.ledger.rating_filtered}
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = None
        if report is not None:
            run.update(
                reviews_per_s=self.ledger.rating_filtered / report["wall_s"],
                setup_s=report["setup_done"] - spawned,
                peak_rss_mb=report["maxrss_kb"] / 1024,
                workdir_mb=sum(f.stat().st_size for f in workdir.rglob("*") if f.is_file()) / 2**20,
                nli_requests=wire.get("nli", report["nli_calls"]),
                llm_requests=wire.get("llm", report["llm_calls"]),
                failed=report["counts"]["llm_failed"] if not problems else self.ledger.rating_filtered,
                layers=report.get("layers"),
            )
            if run["layers"] is not None:
                received = wire.get("nli", 0) + wire.get("llm", 0)
                run["layers"]["http.retries"] = received - run["layers"]["http.post_json_calls"] if wire else 0
        else:
            run["failed"] = self.ledger.rating_filtered
        if problems:
            print(f"run {index} FAILED: {problems}\n{_tail(run_dir / 'run.log')}", file=sys.stderr)
        shutil.rmtree(run_dir)
        return run

    def check(self, workdir: Path, code: int, out: Path, *, rerun: bool = False) -> list[str]:
        """Output checks against the ledger; returns the failures found.
        ``rerun``: the workdir held a complete run, so no backend call is due."""
        if code != 0:
            return [f"exit code {code}"]
        try:
            return self._check_outputs(workdir, out, rerun)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check_outputs(self, workdir: Path, out: Path, rerun: bool) -> list[str]:
        report = json.loads(out.read_text(encoding="utf-8"))
        problems = []
        manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
        if manifest["counts"] != self.ledger.counts():
            problems.append(f"manifest counts {manifest['counts']} != ledger {self.ledger.counts()}")
        extracted = (workdir / "extracted.jsonl").read_bytes()
        ids = sorted(json.loads(line)["id"] for line in extracted.splitlines() if line.strip())
        if tuple(ids) != self.ledger.yes_ids:
            problems.append(f"extracted ids differ from the ledger's {len(self.ledger.yes_ids)} yes-ids")
        rejects = (workdir / "rejects_unlabeled.jsonl").read_text(encoding="utf-8").splitlines()
        if len(rejects) != self.ledger.rejected:
            problems.append(f"{len(rejects)} rejected records, ledger has {self.ledger.rejected}")
        votes = [json.loads(line) for line in (workdir / "votes.jsonl").read_text(encoding="utf-8").splitlines() if line]
        ties = sum(v["tie_flag"] for v in votes)
        if ties != self.ledger.ties:
            problems.append(f"{ties} tie-flagged vote records, ledger has {self.ledger.ties}")
        if self.reference is not None and extracted != self.reference:
            problems.append("extracted.jsonl differs from the mock run over the same corpus")
        if rerun and (report["nli_calls"] or report["llm_calls"]):
            problems.append(f"rerun made {report['nli_calls']} NLI and {report['llm_calls']} LLM calls")
        return problems

    def measure(self, seconds: float, trace: bool) -> list[dict]:
        """Timed runs until ``seconds`` have passed (at least MIN_RUNS, or one
        untraced/traced pair when tracing); stops early at the budget."""
        runs: list[dict] = []
        start = time.monotonic()
        index = 0
        while True:
            step = [self.run_once(index, False)]
            if trace:
                step.append(self.run_once(index + 1, True))
            runs += step
            index += len(step)
            elapsed = time.monotonic() - start
            per_step = elapsed / (index / len(step))
            enough = index >= (len(step) if trace else MIN_RUNS) and elapsed >= seconds
            if enough or time.monotonic() + 1.5 * per_step > self.deadline:
                return runs


def _tail(path: Path, lines: int = 15) -> str:
    if not path.exists():
        return ""
    return "\n".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def _median(runs: list[dict], key: str) -> float:
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else 0.0


def summarize(inv: Invocation, runs: list[dict], trace: bool) -> dict:
    """Medians over the runs of every metric BENCHMARK.json lists for this
    mode; prints them by name and unit, and returns the result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok_runs = [r for r in runs if r["ok"]]
    untraced = [r for r in ok_runs if r.get("layers") is None]
    traced = [r for r in ok_runs if r.get("layers") is not None]
    attempted = sum(r["reviews"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    base = _median(untraced, "reviews_per_s")
    values = {
        "nli_requests": _median(untraced, "nli_requests"),
        "llm_requests": _median(untraced, "llm_requests"),
        "failed_share": failed / attempted if attempted else 1.0,
        "tracing.reviews_per_s_ratio": _median(traced, "reviews_per_s") / base if base else 0.0,
    }
    for name in traced[0]["layers"] if traced else ():
        values[name] = statistics.median(r["layers"][name] for r in traced)
    for name in RUN_METRICS:
        values[name] = _median(ok_runs, name)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    print(
        f"# {inv.name} seed={inv.seed}: {len(runs)} runs ({len(ok_runs)} correct, {len(traced)} traced), "
        f"{inv.ledger.rating_filtered} rating-filtered reviews per run, max_inflight={MAX_INFLIGHT}"
    )
    shown = dict(metrics) if trace else dict(metrics, **{n: {"value": values[n], "unit": units[n]} for n in RUN_COUNTERS})
    for name, metric in shown.items():
        print(f"{inv.name:12s} {name:34s} {metric['value']:14.6g} {metric['unit']}")
    return {
        "correct": bool(runs) and len(ok_runs) == len(runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = ROOT / ".bench_run" / f"{workload}-{seed}-{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    inv = Invocation(workload, seed, scratch)
    try:
        inv.setup()
        runs = inv.measure(seconds, trace)
    finally:
        inv.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it
    return summarize(inv, runs, trace)


def main() -> int:
    parser = argparse.ArgumentParser(description="Extraction benchmark (see README.md in this directory).")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "concernminer" / "__init__.py").is_file():
        print(f"benchmark: the program is missing ({SRC / 'concernminer'} not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
