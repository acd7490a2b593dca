"""Closed-form transmit beamforming under a self-interference power cap.

Library layout:

  numerics    complex vector primitives and counter-based RNG
  channel     system configuration and Rayleigh/Ricean channel draws
  beamform    MRT / ZF baselines, the closed form for alpha* (closed_form,
              its one scalar statement) and the optimal beamformer
  kernels     numpy hot loops: batched and single solves, grid and sample scans
  oracle      brute-force optimality certifiers and the timing benchmark
  experiment  Monte Carlo throughput-gain / power-saving sweeps
  procs       the command's process policies and its one fork-based map
  cli         `fdbf sweep|verify|bench` command-line front end
"""

__version__ = "0.1.0"

from .beamform import (BeamformerSolution, DegenerateParallelError,
                       SubnormalLeakageError, closed_form, dl_rate, family, mrt,
                       optimal, si_power, zf)
from .channel import (ChannelRealization, SystemConfig, db_to_linear,
                      draw_realization, ricean_params, si_threshold)
from .experiment import (SweepAxes, SweepPoint, SweepResult, TrialRecord,
                         draw_batch, run_sweep, run_trial)
from .numerics import (RngState, inner, matvec_adj, norm_sq,
                       sample_complex_gaussian)
from .oracle import (OracleReport, feasible, grid_search,
                     random_feasible_search, timing_bench)

__all__ = [
    "__version__",
    "BeamformerSolution", "DegenerateParallelError", "SubnormalLeakageError",
    "closed_form", "dl_rate", "family", "mrt", "optimal", "si_power", "zf",
    "ChannelRealization", "SystemConfig", "db_to_linear", "draw_realization",
    "ricean_params", "si_threshold",
    "SweepAxes", "SweepPoint", "SweepResult", "TrialRecord", "draw_batch",
    "run_sweep", "run_trial",
    "RngState", "inner", "matvec_adj", "norm_sq", "sample_complex_gaussian",
    "OracleReport", "feasible", "grid_search", "random_feasible_search",
    "timing_bench",
]
