"""Accent classification toolkit.

Silence removal by energy/centroid thresholding, perceptual linear
prediction features, diagonal Gaussian mixture accent models trained by EM,
LDA/HLDA dimension reduction, and a vowel-combined classifier driven by
externally produced phone alignments. Import each name from its module.
"""

__version__ = "0.1.0"
