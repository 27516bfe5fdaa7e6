"""Split-CNN reproduction (Jin & Hong, ASPLOS 2019).

A from-scratch Python implementation of the paper's two systems and every
substrate they need:

- :mod:`repro.tensor` / :mod:`repro.nn` / :mod:`repro.optim` /
  :mod:`repro.data` — a numpy autograd framework, layers, SGD, synthetic
  datasets.
- :mod:`repro.models` — AlexNet, VGG, ResNet (+ scaled trainable variants).
- :mod:`repro.core` — the Split-CNN transformation (§3): split-scheme
  math, multi-layer split regions, stochastic splitting, automatic model
  transform.
- :mod:`repro.graph` / :mod:`repro.profile` — computation-graph IR,
  roofline cost model, Figure-1 offload analysis.
- :mod:`repro.hmms` — the heterogeneous memory management system (§4):
  TSO storage assignment, Algorithm-1 offload/prefetch planning, static
  first-fit pools; plus the vDNN-style layer-wise baseline.
- :mod:`repro.sim` — event-driven GPU/NVLink simulator replaying memory
  plans (throughput, stalls, timelines).
- :mod:`repro.mesh` — measured distributed execution over a simulated
  device mesh (data / spatial / pipeline), with the numeric ring
  allreduce and data-parallel trainer as its wire-volume reference.
- :mod:`repro.experiments` — one driver per paper table/figure; Figure 11
  (:mod:`repro.experiments.fig11`) holds the §6.4 closed form as the
  analytical column and bracket of the mesh measurement.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
