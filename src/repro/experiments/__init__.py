"""Experiment harnesses reproducing the paper's evaluation.

* :mod:`repro.experiments.figure5` — the convergence-vs-prefix-count sweep
  behind Figure 5 (and the worst-case/best-case numbers quoted in §4).
* :mod:`repro.experiments.controller_bench` — the controller
  update-processing micro-benchmark (2 × 500 k updates, p99 < 125 ms).
* :mod:`repro.experiments.backup_group_analysis` — the n·(n−1) backup-group
  count analysis from §2.
* :mod:`repro.experiments.ablations` — sensitivity studies called out in
  DESIGN.md (BFD interval, flow-mod latency, FIB organisation).
* :mod:`repro.experiments.detection` — the BFD-vs-BGP detection-time split
  for local vs remote faults (the §5 remote-failure extension).
* :mod:`repro.stats` — box-plot statistics and tables shared by all of the
  above.
"""
