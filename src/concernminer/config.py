"""Pipeline configuration: one JSON file, CLI overrides, content digest."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from ._http import split_endpoint
from ._jsonl import checked, read_json
from .errors import ValidationError
from .llm.backends import HttpLlmBackend, MockLlmBackend, load_llm_script
from .llm.classify import SamplingSettings
from .nli.backends import DEFAULT_RESPONSE_FIELDS, DEFAULT_TRIGGER_TABLE, HttpNliBackend, MockNliBackend, load_trigger_table

MOCK_ENDPOINT = "mock"
MAX_TIMEOUT_S = 86_400  # a day; a far larger socket timeout overflows the platform's time_t
MAX_INFLIGHT = 256  # run_ordered starts max_inflight - 1 threads: a typo must not start thousands
TRANSPORT = ("timeout", "max_inflight", "max_retries")  # how a backend is reached, not what it answers


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
        if not 1 <= self.max_inflight <= MAX_INFLIGHT:
            raise ValidationError(f"backend {self.name!r}: max_inflight must be >= 1 and <= {MAX_INFLIGHT}")
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
    hypothesis_refs: dict[str, str | Path]  # a builtin: name, or the path of a set file
    nli_backends: tuple[NliBackendConfig, ...]
    llm_backend: LlmBackendConfig
    llm_script: Path | None
    sampling: SamplingSettings
    annotators: tuple[str, ...]
    base_dir: Path = field(default_factory=Path)

    @property
    def digest(self) -> str:
        """16 hex digits naming every parsed setting, defaults filled in, but the
        workdir, ``base_dir`` and the backends' transport limits: what the outputs
        depend on. A path enters relative to ``base_dir``, so a copied checkout keeps it."""

        def plain(value):
            if isinstance(value, Path):
                return os.path.relpath(value, self.base_dir)
            return {key: v for key, v in vars(value).items() if key not in TRANSPORT}  # a settings block

        settings = {key: value for key, value in vars(self).items() if key not in ("workdir", "base_dir")}
        canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"), default=plain)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _resolve(base_dir: Path, value: str | None) -> Path | None:
    return None if value is None else base_dir / value  # an absolute value stays as it is


def _hypothesis_ref(base_dir: Path, ref: str) -> str | Path:
    """A builtin: name as it is, else the set file's path taken from ``base_dir``."""
    return ref if ref.startswith("builtin:") else _resolve(base_dir, ref)


def _object(name: str, raw, keys) -> dict:
    """``raw``, the JSON object of the config field ``name``, once each of its keys is one of ``keys``."""
    for key in checked(name, "dict", raw):
        if key not in keys:
            raise ValidationError(f"{name} has no key {key!r}; its keys are {', '.join(keys)}")
    return raw


def _block(config_type, name: str, raw):
    """``config_type`` built from ``raw``, the JSON object of the config field
    ``name``: each key must name a field, and is checked by :func:`checked`
    against the field's declared type; absent fields take their defaults."""
    types = {f.name: f.type for f in fields(config_type)}
    return config_type(**{key: checked(key, types[key], value) for key, value in _object(name, raw, types).items()})


def parse_config(raw: dict, base_dir: Path) -> PipelineConfig:
    _object("config", raw, ("seed", "workdir", "corpus", "hypotheses", "nli", "llm", "annotators"))
    try:
        corpus = _object("corpus", raw.get("corpus", {}), ("labeled", "unlabeled", "format", "rating_min", "rating_max"))
        nli = _object("nli", raw.get("nli", {}), ("backends",))
        llm = _object("llm", raw.get("llm", {}), ("backend", "sampling", "script"))

        blocks = checked("nli.backends", "list", nli.get("backends", []))
        backends = tuple(_block(NliBackendConfig, f"nli.backends[{i}]", b) for i, b in enumerate(blocks))
        if not backends:
            raise ValidationError("config needs at least one NLI backend")
        if repeated := sorted({b.name for b in backends if [c.name for c in backends].count(b.name) > 1}):
            raise ValidationError(f"NLI backend names must be unique; repeated: {', '.join(repeated)}")
        llm_backend = _block(LlmBackendConfig, "llm.backend", llm.get("backend", {}))
        sampling = _block(SamplingSettings, "llm.sampling", llm.get("sampling", {}))
        hypothesis_refs = {"generic": "builtin:generic", "domain": "builtin:domain-mh", "extraction": "builtin:domain-mh"}
        refs = _object("hypotheses", raw.get("hypotheses", {}), hypothesis_refs)
        hypothesis_refs.update({k: _hypothesis_ref(base_dir, checked(f"hypotheses.{k}", "str", v)) for k, v in refs.items()})

        rating_min = checked("rating_min", "int", corpus.get("rating_min", 1))
        rating_max = checked("rating_max", "int", corpus.get("rating_max", 5))
        if not 1 <= rating_min <= rating_max <= 5:
            raise ValidationError(f"invalid rating bounds ({rating_min}, {rating_max})")

        if corpus.get("format") not in (None, "csv", "jsonl"):
            raise ValidationError(f"corpus.format must be 'csv', 'jsonl' or absent, not {corpus['format']!r}")

        annotators = tuple(checked("annotator", "str", a) for a in checked("annotators", "list", raw.get("annotators", [])))
        if repeated := sorted({a for a in annotators if annotators.count(a) > 1}):
            raise ValidationError(f"annotators must be unique; repeated: {', '.join(repeated)}")

        return PipelineConfig(
            seed=checked("seed", "int", raw.get("seed", 0)),
            workdir=base_dir / checked("workdir", "str", raw.get("workdir", "runs/default")),
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
            base_dir=base_dir,
        )
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(str(exc)) from None


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read and parse a config file, then apply the CLI overrides to it."""
    path = Path(path)
    return read_json(path, lambda raw: _override(parse_config(raw, path.parent.resolve()), overrides or {}))


def _override(config: PipelineConfig, flags: dict) -> PipelineConfig:
    """``config`` with the CLI flags set, each block checked again as it is rebuilt: the one map
    from a flag to the settings it sets. ``flags`` holds the parsed arguments by destination; a
    ``None`` or unknown entry is ignored. A relative path flag is taken from the current directory."""

    def set_(block, **changes):
        return replace(block, **{key: value for key, value in changes.items() if value is not None})

    ref, workdir, inflight = flags.get("hypotheses"), flags.get("workdir"), flags.get("max_inflight")
    return set_(
        config,
        seed=flags.get("seed"),
        workdir=None if workdir is None else Path(workdir).absolute(),
        hypothesis_refs=None if ref is None else dict(config.hypothesis_refs, extraction=_hypothesis_ref(Path.cwd(), ref)),
        nli_backends=tuple(set_(b, endpoint=flags.get("nli_endpoint"), max_inflight=inflight) for b in config.nli_backends),
        llm_backend=set_(config.llm_backend, endpoint=flags.get("llm_endpoint"), max_inflight=inflight),
    )


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
