"""Pipeline configuration: INI-style files, validation, and fingerprinting.

Unknown sections or keys are hard errors so that a typo cannot silently
fall back to a default. The fingerprint of the canonicalized configuration
travels with every artifact; mixing artifacts from different fingerprints
is refused downstream.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields

from . import records
from .errors import DataError
from .features import PlpConfig
from .gmm import EmOptions
from .vad import VadConfig


@dataclass
class SynthSpec:
    """Shape of a generated corpus: accents, sizes, and the formant shift."""

    accents: list[str] = field(default_factory=lambda: ["A", "B", "C"])
    utterances_per_accent: int = 30
    duration_s: float = 10.0
    sample_rate: int = 8000
    formant_shift: float = 0.15

    def __post_init__(self):
        if len(set(self.accents)) != len(self.accents) or not self.accents:
            raise ValueError("accents must be unique and non-empty")
        if self.utterances_per_accent < 1 or self.duration_s <= 0:
            raise ValueError("corpus size parameters must be positive")
        if self.sample_rate < 8000:
            raise ValueError("sample_rate must be at least 8000")


@dataclass
class PipelineConfig:
    vad: VadConfig = field(default_factory=VadConfig)
    plp: PlpConfig = field(default_factory=PlpConfig)
    em: EmOptions = field(default_factory=EmOptions)
    synth: SynthSpec = field(default_factory=SynthSpec)
    context_size: int = 1
    reduced_dim: int = 20
    transform: str = "hlda"  # lda | hlda
    n_components: int = 256
    vowel_subset_size: int = 7
    # one legal value each: config files set these keys and the fingerprint hashes them
    mvn_scope: str = "utterance"  # features are normalized per utterance
    frame_normalized_vowel_scores: bool = True  # a vowel's score is its mean frame log likelihood
    seed: int = 0

    def __post_init__(self):
        if self.transform not in ("lda", "hlda"):
            raise ValueError(f"transform must be lda|hlda, got {self.transform!r}")
        if self.mvn_scope != "utterance":
            raise ValueError(f"mvn_scope must be utterance, got {self.mvn_scope!r}")
        if self.frame_normalized_vowel_scores is not True:
            raise ValueError("frame_normalized_vowel_scores must be true")
        if self.context_size < 0:
            raise ValueError("context_size must be >= 0")
        expanded = 3 * self.plp.num_cepstra * (2 * self.context_size + 1)
        top = expanded - 1 if self.transform == "hlda" else expanded  # HLDA keeps a nuisance row
        if not 1 <= self.reduced_dim <= top:
            raise ValueError(
                f"reduced_dim {self.reduced_dim} must lie in 1..{top} for {self.transform} "
                f"on the expanded feature size {expanded}"
            )
        if self.n_components < 1 or self.vowel_subset_size < 1:
            raise ValueError("n_components and vowel_subset_size must be >= 1")


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# a field's annotation string -> the converter of its config value
_CONVERTERS = {"float": float, "int": int, "int | None": int, "str": str, "bool": _bool,
               "list[str]": str.split}


def _keys(cls, *skip: str) -> dict:
    """key -> converter for the fields of a config dataclass, by annotation."""
    return {f.name: _CONVERTERS[f.type] for f in fields(cls) if f.name not in skip}


# the sections that fill a nested config; [model] holds PipelineConfig's own
# scalars, and the seed lives in [run] alone
_SECTIONS = {"vad": VadConfig, "plp": PlpConfig, "em": EmOptions, "synth": SynthSpec}
_SCHEMA = {name: _keys(cls, "seed") for name, cls in _SECTIONS.items()}
_SCHEMA.update(model=_keys(PipelineConfig, "seed", *_SECTIONS), run={"seed": int})


def load_config(path, seed_override: int | None = None) -> PipelineConfig:
    """Read a '[section]' / 'key = value' file into a PipelineConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(records.read_text(path, "config file"), source=str(path))
    except configparser.Error as exc:
        raise DataError(f"{path}: cannot parse config: {exc}")

    values: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise DataError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise DataError(f"{path}: unknown key {key!r} in section [{section}]")
            try:
                values[section][key] = value = _SCHEMA[section][key](raw)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"not a finite number: {raw.strip()!r}")
            except ValueError as exc:
                raise DataError(f"{path}: bad value for [{section}] {key}: {exc}")

    seed = values["run"].get("seed", 0) if seed_override is None else seed_override
    values["em"]["seed"] = seed

    def build(section: str, cls, **more):
        try:
            return cls(**values[section], **more)
        except ValueError as exc:
            raise DataError(f"{path}: invalid configuration: [{section}] {exc}")

    sections = {name: build(name, cls) for name, cls in _SECTIONS.items()}
    return build("model", PipelineConfig, **sections, seed=seed)


def default_config(seed: int = 0) -> PipelineConfig:
    cfg = PipelineConfig(seed=seed)
    cfg.em.seed = seed
    return cfg


def canonical_lines(cfg: PipelineConfig) -> list[str]:
    """Stable 'section.key=value' lines covering every pipeline-relevant field."""
    lines = []
    for section, obj in (("vad", cfg.vad), ("plp", cfg.plp), ("em", cfg.em)):
        for f in fields(obj):
            lines.append(f"{section}.{f.name}={getattr(obj, f.name)!r}")
    for name in [*_SCHEMA["model"], "seed"]:
        lines.append(f"model.{name}={getattr(cfg, name)!r}")
    return sorted(lines)


def config_fingerprint(cfg: PipelineConfig) -> str:
    """SHA-256 over the canonical configuration lines."""
    blob = "\n".join(canonical_lines(cfg)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
