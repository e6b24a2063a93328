"""Pipeline configuration: INI-style files, validation, and fingerprinting.

Unknown sections or keys are hard errors so that a typo cannot silently
fall back to a default. The fingerprint of the canonicalized configuration
travels with every artifact; mixing artifacts from different fingerprints
is refused downstream.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields

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
    transform: str = "hlda"  # none | lda | hlda
    n_components: int = 256
    vowel_subset_size: int = 7
    mvn_scope: str = "utterance"  # utterance | global
    frame_normalized_vowel_scores: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.transform not in ("none", "lda", "hlda"):
            raise ValueError(f"transform must be none|lda|hlda, got {self.transform!r}")
        if self.mvn_scope not in ("utterance", "global"):
            raise ValueError(f"mvn_scope must be utterance|global, got {self.mvn_scope!r}")
        if self.context_size < 0:
            raise ValueError("context_size must be >= 0")
        expanded = 3 * self.plp.num_cepstra * (2 * self.context_size + 1)
        if self.transform != "none" and not 1 <= self.reduced_dim <= expanded:
            raise ValueError(
                f"reduced_dim {self.reduced_dim} exceeds expanded feature size {expanded}"
            )
        if self.n_components < 1 or self.vowel_subset_size < 1:
            raise ValueError("n_components and vowel_subset_size must be >= 1")


# section -> key -> (target dataclass attribute, converter)
def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_SCHEMA = {
    "vad": {
        "frame_len_ms": float,
        "hop_ms": float,
        "smooth_window": int,
        "threshold_weight": float,
        "min_segment_ms": float,
    },
    "plp": {
        "frame_len_ms": float,
        "hop_ms": float,
        "lp_order": int,
        "num_cepstra": int,
        "num_bark_bands": int,
        "preemphasis": float,
        "delta_window": int,
    },
    "model": {
        "context_size": int,
        "reduced_dim": int,
        "transform": str,
        "n_components": int,
        "vowel_subset_size": int,
        "mvn_scope": str,
        "frame_normalized_vowel_scores": _bool,
    },
    "em": {
        "max_iters": int,
        "rel_tol": float,
        "variance_floor_factor": float,
    },
    "run": {
        "seed": int,
    },
    "synth": {
        "accents": lambda s: s.split(),
        "utterances_per_accent": int,
        "duration_s": float,
        "sample_rate": int,
        "formant_shift": float,
    },
}

def load_config(path, seed_override: int | None = None) -> PipelineConfig:
    """Read a '[section]' / 'key = value' file into a PipelineConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise DataError(f"{path}: config file not found")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: config file is not UTF-8 text (byte {exc.start})") from None
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
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise DataError(f"{path}: bad value for [{section}] {key}: {exc}")

    if seed_override is not None:
        values["run"]["seed"] = seed_override
    try:
        em_kwargs = dict(values["em"])
        em_kwargs["seed"] = values["run"].get("seed", 0)
        return PipelineConfig(
            vad=VadConfig(**values["vad"]),
            plp=PlpConfig(**values["plp"]),
            em=EmOptions(**em_kwargs),
            synth=SynthSpec(**values["synth"]),
            seed=values["run"].get("seed", 0),
            **values["model"],
        )
    except ValueError as exc:
        raise DataError(f"{path}: invalid configuration: {exc}")


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
    for name in (
        "context_size", "reduced_dim", "transform", "n_components",
        "vowel_subset_size", "mvn_scope", "frame_normalized_vowel_scores", "seed",
    ):
        lines.append(f"model.{name}={getattr(cfg, name)!r}")
    return sorted(lines)


def config_fingerprint(cfg: PipelineConfig) -> str:
    """SHA-256 over the canonical configuration lines."""
    blob = "\n".join(canonical_lines(cfg)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
