"""Anomaly screening for battery charge/discharge cycles.

Submodules:

* dataset: measurement, label, manifest and verdict file handling
* features: robust per-cycle scaling and feature extraction
* stat_detect: five univariate outlier rules
* dist_detect: centroid-distance detectors and score grids
* ml_detect: six learned detectors behind one fit/score interface
* tune: TPE search with transfer and label-free proxy strategies
* evaluation: confusion metrics and KPI reporting
* synth: synthetic cells with ground-truth anomalies
* cli: the command-line pipeline
"""

__version__ = "0.1.0"
