"""Pipeline configuration: one JSON file, CLI overrides, content digest."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from ._http import split_endpoint
from ._jsonl import checked, read_json
from .errors import ValidationError
from .llm.backends import HttpLlmBackend, MockLlmBackend, load_llm_script
from .llm.classify import SamplingSettings
from .nli.backends import DEFAULT_RESPONSE_FIELDS, DEFAULT_TRIGGER_TABLE, HttpNliBackend, MockNliBackend, load_trigger_table

MOCK_ENDPOINT = "mock"
MAX_TIMEOUT_S = 86_400  # a day; a far larger socket timeout overflows the platform's time_t


class _BackendLimits:
    """Endpoint and connection limits both backend config types check on
    creation: the one check of each backend setting."""

    def __post_init__(self) -> None:
        if self.endpoint != MOCK_ENDPOINT and split_endpoint(self.endpoint) is None:
            raise ValidationError(
                f"backend {self.name!r}: endpoint must be {MOCK_ENDPOINT!r} or an http:// or https:// URL"
                f" with a host, in printable ASCII, not {self.endpoint!r}"
            )
        if not 0 < self.timeout <= MAX_TIMEOUT_S:  # NaN fails it too
            raise ValidationError(f"backend {self.name!r}: timeout must be a finite number > 0 and <= {MAX_TIMEOUT_S}")
        if self.max_inflight < 1:
            raise ValidationError(f"backend {self.name!r}: max_inflight must be >= 1")
        if self.max_retries < 0:
            raise ValidationError(f"backend {self.name!r}: max_retries must be >= 0")


@dataclass(frozen=True)
class NliBackendConfig(_BackendLimits):
    """One NLI backend: the only place its defaults are written. An
    ``HttpNliBackend`` is built from this block."""

    name: str
    endpoint: str
    timeout: float = 30.0
    max_inflight: int = 8
    max_retries: int = 3
    mock_table: str | None = None
    response_fields: dict | None = None  # remap entailment/neutral/contradiction keys

    def __post_init__(self) -> None:
        super().__post_init__()
        for key, value in (self.response_fields or {}).items():
            if key not in DEFAULT_RESPONSE_FIELDS:
                allowed = ", ".join(DEFAULT_RESPONSE_FIELDS)
                raise ValidationError(f"backend {self.name!r}: response_fields key {key!r} is not one of {allowed}")
            if not (isinstance(value, str) and value):
                raise ValidationError(
                    f"backend {self.name!r}: response_fields[{key!r}] must be a non-empty string, not {value!r}"
                )


@dataclass(frozen=True)
class LlmBackendConfig(_BackendLimits):
    """The LLM backend: the only place its defaults are written. An
    ``HttpLlmBackend`` is built from this block."""

    name: str = "llm"
    endpoint: str = MOCK_ENDPOINT
    timeout: float = 60.0
    max_inflight: int = 4
    max_retries: int = 3


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    workdir: Path
    labeled_path: Path | None
    unlabeled_path: Path | None
    corpus_format: str | None
    rating_min: int
    rating_max: int
    hypothesis_refs: dict[str, str]
    nli_backends: tuple[NliBackendConfig, ...]
    llm_backend: LlmBackendConfig
    llm_script: Path | None
    sampling: SamplingSettings
    annotators: tuple[str, ...]
    digest: str
    base_dir: Path = field(default_factory=Path)


def _resolve(base_dir: Path, value: str | None) -> Path | None:
    if value is None:
        return None
    path = Path(value)
    return path if path.is_absolute() else base_dir / path


def config_digest(raw: dict) -> str:
    """Digest of the behavior-affecting config content.

    The working directory is an output location, not behavior, so it is
    excluded: identical configs pointed at different workdirs compare equal.
    """
    trimmed = {k: v for k, v in raw.items() if k != "workdir"}
    canonical = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def backend_slug(name: str) -> str:
    """A backend's name as it goes into a file name."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-") or "backend"


def _block(config_type, name: str, raw):
    """``config_type`` built from ``raw``, the JSON object of the config field
    ``name``: each key that names a field is checked by :func:`checked`
    against the field's declared type; absent fields take their defaults."""
    types = {f.name: f.type for f in fields(config_type)}
    return config_type(**{key: checked(key, types[key], value) for key, value in checked(name, "dict", raw).items() if key in types})


def parse_config(raw: dict, base_dir: Path) -> PipelineConfig:
    checked("config", "dict", raw)
    try:
        corpus, nli, llm = (checked(key, "dict", raw.get(key, {})) for key in ("corpus", "nli", "llm"))

        blocks = checked("nli.backends", "list", nli.get("backends", []))
        backends = tuple(_block(NliBackendConfig, f"nli.backends[{i}]", b) for i, b in enumerate(blocks))
        if not backends:
            raise ValidationError("config needs at least one NLI backend")
        if repeated := sorted({b.name for b in backends if [c.name for c in backends].count(b.name) > 1}):
            raise ValidationError(f"NLI backend names must be unique; repeated: {', '.join(repeated)}")
        llm_backend = _block(LlmBackendConfig, "llm.backend", llm.get("backend", {}))
        sampling = _block(SamplingSettings, "llm.sampling", llm.get("sampling", {}))
        hypothesis_refs = {
            "generic": "builtin:generic",
            "domain": "builtin:domain-mh",
            "extraction": "builtin:domain-mh",
        }
        hypothesis_refs.update({k: checked(f"hypotheses.{k}", "str", v) for k, v in checked("hypotheses", "dict", raw.get("hypotheses", {})).items()})

        rating_min = checked("rating_min", "int", corpus.get("rating_min", 1))
        rating_max = checked("rating_max", "int", corpus.get("rating_max", 5))
        if not 1 <= rating_min <= rating_max <= 5:
            raise ValidationError(f"invalid rating bounds ({rating_min}, {rating_max})")

        if corpus.get("format") not in (None, "csv", "jsonl"):
            raise ValidationError(f"corpus.format must be 'csv', 'jsonl' or absent, not {corpus['format']!r}")

        annotators = tuple(checked("annotator", "str", a) for a in checked("annotators", "list", raw.get("annotators", [])))

        workdir = _resolve(base_dir, checked("workdir", "str", raw.get("workdir", "runs/default")))
        assert workdir is not None

        return PipelineConfig(
            seed=checked("seed", "int", raw.get("seed", 0)),
            workdir=workdir,
            labeled_path=_resolve(base_dir, checked("labeled", "str | None", corpus.get("labeled"))),
            unlabeled_path=_resolve(base_dir, checked("unlabeled", "str | None", corpus.get("unlabeled"))),
            corpus_format=corpus.get("format"),
            rating_min=rating_min,
            rating_max=rating_max,
            hypothesis_refs=hypothesis_refs,
            nli_backends=backends,
            llm_backend=llm_backend,
            llm_script=_resolve(base_dir, checked("script", "str | None", llm.get("script"))),
            sampling=sampling,
            annotators=annotators,
            digest=config_digest(raw),
            base_dir=base_dir,
        )
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(str(exc)) from None


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read a config file, apply CLI overrides, and recompute the digest."""
    path = Path(path)
    return read_json(path, lambda raw: parse_config(apply_overrides(raw, overrides or {}), path.parent.resolve()))


def apply_overrides(raw: dict, overrides: dict) -> dict:
    """Fold the CLI override flags into the raw config dict: the one map
    from a flag to the config keys it sets. ``overrides`` holds the parsed
    arguments by destination; a ``None`` or unknown entry is ignored."""
    raw = json.loads(json.dumps(raw))  # deep copy
    if overrides.get("seed") is not None:
        raw["seed"] = overrides["seed"]
    if (ref := overrides.get("hypotheses")) is not None:  # a relative path is taken from the current directory
        raw.setdefault("hypotheses", {})["extraction"] = ref if ref.startswith("builtin:") else str(Path(ref).absolute())
    if overrides.get("nli_endpoint") is not None:
        for backend in raw.get("nli", {}).get("backends", []):
            backend["endpoint"] = overrides["nli_endpoint"]
    if overrides.get("llm_endpoint") is not None:
        raw.setdefault("llm", {}).setdefault("backend", {})["endpoint"] = overrides["llm_endpoint"]
    if overrides.get("max_inflight") is not None:
        for backend in raw.get("nli", {}).get("backends", []):
            backend["max_inflight"] = overrides["max_inflight"]
        raw.setdefault("llm", {}).setdefault("backend", {})["max_inflight"] = overrides["max_inflight"]
    if overrides.get("workdir") is not None:  # a relative flag names a path from the current directory
        raw["workdir"] = str(Path(overrides["workdir"]).absolute())
    return raw


def make_nli_backend(cfg: NliBackendConfig, seed: int, base_dir: Path | None = None):
    """The scoring backend an NLI config block describes: the mock or HTTP."""
    if cfg.endpoint != MOCK_ENDPOINT:
        return HttpNliBackend(cfg)
    triggers = DEFAULT_TRIGGER_TABLE
    if cfg.mock_table:
        triggers = load_trigger_table(_resolve(base_dir or Path(), cfg.mock_table))
    return MockNliBackend(cfg.name, seed=seed, triggers=triggers)


def make_llm_backend(cfg: LlmBackendConfig, script_path: Path | None):
    """The chat backend an LLM config block describes: the mock or HTTP."""
    if cfg.endpoint != MOCK_ENDPOINT:
        return HttpLlmBackend(cfg)
    return MockLlmBackend(load_llm_script(script_path) if script_path else None, name=cfg.name)
