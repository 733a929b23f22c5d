"""Desk-scale simulator and analysis toolkit for energy-time entangled qutrits.

Submodules:
    source    -- interferometer model: the 3x3 coupler, one amplitude kernel, its
                 outcome tables, the central-peak and heralded states as plain
                 arrays, and the seeded draws from them
    timetags  -- seeded Monte Carlo time-tag streams, coincidences, histograms
    analysis  -- visibility extraction, fringe fits, Bell-threshold inference
    protocols -- mutually unbiased bases, heralded-qutrit key distribution and
                 coin tossing
    cli       -- the `qutrit-bench` experiment runner
"""

__version__ = "0.1.0"

import os

# numpy's OpenBLAS starts nproc - 1 worker threads when it loads; on a 2-core
# host that adds 50-90 ms of wall time (about 70 ms of CPU) to every process.
# No BLAS call here can use a second thread: the largest are the 240 x 7
# tone-fit designs. A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .source import (
    ArmPhases,
    CouplerRatios,
    InterferometerConfig,
    central_state,
    class_weights,
    herald_state,
    joint_distribution,
    pair_amplitudes,
    step_distributions,
    tritter,
)
from .timetags import (
    DetectorModel,
    RunConfig,
    build_histogram,
    find_coincidences,
    post_select,
    simulate_run,
)
from .analysis import (
    BellResult,
    FringeFit,
    FringeScan,
    bell_threshold_visibility,
    cglmp_table,
    fit_central_fringe,
    optimize_cglmp,
    phase_ratio,
    sigma_violation,
    visibility,
    visibility_from_lambda,
)
from .protocols import (
    EveModel,
    mub_bases,
    qber_thresholds,
    run_coin_toss,
    run_qkd,
)
