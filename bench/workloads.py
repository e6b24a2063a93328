"""The benchmark's workloads: a corpus shape plus a pipeline config file.

The config files live in bench/workloads/; the run seed replaces their
[run] seed. Sizes are chosen so that one run of either workload, with
set-up, warm-up, two or more rounds and checks, ends in about a minute
on two cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from synthesis import CorpusSpec

SEVEN = ("AR", "BP", "FR", "GE", "HI", "MA", "RU")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file name under bench/workloads/
    corpus: CorpusSpec


WORKLOADS = {
    w.name: w
    for w in (
        # Seven pairwise-distinct accents, 64-component GMMs over 20 HLDA
        # dimensions; the shift is calibrated against speaker spread so that
        # accuracies sit below 1.0 (see README).
        Workload(
            "reference",
            "reference.ini",
            CorpusSpec(
                accents=SEVEN, utterances_per_accent=20, duration_s=6.0,
                formant_shift=0.06, speech_fraction=0.7, word_vowels=(1, 3),
                speaker_spread=0.04,
            ),
        ),
        # Long, speech-dense utterances and small models: the front end
        # dominates and HLDA is never fitted.
        Workload(
            "frontend",
            "frontend.ini",
            CorpusSpec(
                accents=("A", "B", "C"), utterances_per_accent=12, duration_s=40.0,
                formant_shift=0.2, speech_fraction=0.8, word_vowels=(3, 6),
            ),
        ),
    )
}

# Small untimed pass before the first timed round.
WARMUP = Workload(
    "warmup",
    "warmup.ini",
    CorpusSpec(
        accents=("A", "B"), utterances_per_accent=4, duration_s=5.0,
        formant_shift=0.15, speech_fraction=0.84,
    ),
)
