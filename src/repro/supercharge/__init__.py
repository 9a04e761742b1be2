"""Remote supercharge: shared-fate prefix groups and O(groups) failover.

The paper's backup groups make *local* failures (BFD-detected peer loss)
converge in O(#groups) flow-mods.  This package extends the trick to
*remote* failures — a provider withdrawing or shifting a slice of its
table while its access link stays up:

* :class:`~repro.supercharge.planner.RemoteGroupPlanner` mines the
  controller's multi-peer RIB and partitions every provider's announced
  prefixes into shared-fate remote groups keyed by ``(announcing peer,
  best alternate peer)`` under the BGP decision process, keeping the
  partition incrementally updated as churn and withdraws arrive;
* :class:`~repro.supercharge.engine.RemoteRepointEngine` aggregates the
  per-prefix BGP withdraw burst behind a short holddown and, when a whole
  group shares one fate, rewrites the group's single egress rule with one
  batched flow-mod instead of re-announcing every member prefix to the
  router.
"""
