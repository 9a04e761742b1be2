"""Route feeds: synthetic tables (RIPE RIS substitute) and real MRT dumps.

The paper loads R2 and R3 with up to 512 k real IPv4 prefixes collected
from the RIPE RIS dataset.  That dataset is not available offline, so this
package generates deterministic synthetic full tables with a realistic
prefix-length mix and AS-path length distribution.  Only two properties of
the feed matter for the reproduced experiments — the *number* of prefixes
and the fact that both providers advertise the *same* prefixes — and both
are preserved.

When a real collector file *is* available, :mod:`repro.routes.mrt` parses
RFC 6396 TABLE_DUMP_V2 RIB snapshots into the same
:class:`~repro.routes.ris_feed.RouteFeed`
shape and BGP4MP update traces into ``churn_stream``-compatible
:class:`~repro.bgp.messages.UpdateMessage` streams.
"""
