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
