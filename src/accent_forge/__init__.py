"""Accent classification toolkit.

Silence removal by energy/centroid thresholding, perceptual linear
prediction features, diagonal Gaussian mixture accent models trained by EM,
LDA/HLDA dimension reduction, and a vowel-combined classifier driven by
externally produced phone alignments.
"""

from .audio import AudioBuffer, FrameSequence, frame_signal, load_audio, save_audio
from .vad import SpeechMask, VadConfig, estimate_threshold, median_smooth, remove_silence
from .features import (
    FeatureMatrix,
    PlpConfig,
    append_deltas,
    context_expand,
    mvn,
    plp_static,
    read_feature_archive,
    write_feature_archive,
)
from .gmm import (
    EmOptions,
    GmmModel,
    em_fit,
    load_gmm,
    mixture_log_likelihood,
    save_gmm,
)
from .discriminant import (
    LabeledFeatures,
    LinearTransform,
    hlda_fit,
    lda_fit,
    load_transform,
    project,
    save_transform,
)
from .accent import (
    AccentModelSet,
    ClassificationResult,
    VowelModelSet,
    classify_baseline,
    classify_vowel,
    load_model_set,
    save_model_set,
    select_vowel_subset,
    train_baseline,
    vowel_weights,
)
from .corpus import (
    VOWELS,
    AlignmentSegment,
    Manifest,
    SplitAssignment,
    extract_vowel_frames,
    parse_alignment,
    parse_manifest,
    remap_segments,
    split_dataset,
)
from .config import PipelineConfig, SynthSpec, config_fingerprint, default_config, load_config
from .errors import ConsistencyError, DataError, UsageError

__version__ = "0.1.0"
