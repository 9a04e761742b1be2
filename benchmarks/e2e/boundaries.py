"""The one boundary table of the traced run.

Each row names a public attribute of ``src/repro`` by ``(module, class,
attribute)`` and says how the tracer observes it *from outside*:

``call``      a span around every call (entry point of the row's layer);
``count``     calls are counted but not timed: the attribute does less
              work than a span costs (``Event.cancel`` flips two flags), so
              its time stays with the caller;
``gen``       the attribute returns an iterator: items are pulled in
              chunks inside a span, so a million-item stream costs a few
              thousand spans instead of a million;
``register``  a callback-registration point: the callables passed in the
              named parameters are wrapped so that, when the program
              later invokes them, the time is a span owned by the
              package that *defined* the callback.  That is how
              ``core``'s private handlers are measured without touching
              them.  A callback of the registering layer itself crosses
              no boundary and is left alone;
``schedule``  ``Simulator.schedule``-shaped: a ``call`` span for the
              queue work plus ``register`` for the event callback, plus
              the scheduled / out-of-order tallies;
``schedule_batch``  the same for an iterable of ``(delay, callback[, name])``.

A row's layer is the package of its module (``LAYER_OF_PACKAGE``), so a
rename in ``src/`` either still resolves or fails the install loudly —
a layer can never silently drop to zero.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

#: Package under ``repro`` -> budget layer.  ``arp`` is neighbour
#: resolution on the links' behalf and is billed to ``net``; packages not
#: listed (experiments, extensions, topology, analysis) are never on a
#: campaign's path and get no spans.
LAYER_OF_PACKAGE = {
    "sim": "sim",
    "net": "net",
    "arp": "net",
    "bfd": "bfd",
    "bgp": "bgp",
    "core": "core",
    "openflow": "openflow",
    "router": "router",
    "routes": "routes",
    "supercharge": "supercharge",
    "scenarios": "scenarios",
    "telemetry": "telemetry",
    "traffic": "traffic",
}


class Boundary(NamedTuple):
    module: str
    cls: Optional[str]
    attribute: str
    kind: str = "call"
    #: ``register`` rows: names of the parameters that carry callbacks.
    params: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        owner = f"{self.cls}." if self.cls else ""
        return f"{owner}{self.attribute}"

    @property
    def layer(self) -> str:
        return LAYER_OF_PACKAGE[self.module.split(".")[1]]


def _rows(module: str, cls: Optional[str], kind: str, *attributes: str):
    return [Boundary(module, cls, attribute, kind) for attribute in attributes]


def _register(module: str, cls: str, attribute: str, *params: str) -> Boundary:
    return Boundary(module, cls, attribute, "register", params)


BOUNDARIES: Tuple[Boundary, ...] = tuple(
    # --- sim ------------------------------------------------------------
    _rows("repro.sim.engine", "Simulator", "call", "run")
    + _rows("repro.sim.engine", "Simulator", "schedule", "schedule", "schedule_at", "call_soon")
    + _rows("repro.sim.engine", "Simulator", "schedule_batch", "schedule_batch")
    + _rows("repro.sim.engine", "Event", "count", "cancel")
    + [_register("repro.sim.process", "PeriodicProcess", "__init__", "callback")]
    # --- net ------------------------------------------------------------
    + _rows("repro.net.links", "Link", "call", "transmit", "fail", "restore")
    + _rows("repro.net.links", "Port", "call", "deliver")
    + [
        _register("repro.net.links", "Port", "set_frame_handler", "handler"),
        _register("repro.net.links", "Port", "set_state_handler", "handler"),
    ]
    # --- bfd ------------------------------------------------------------
    + _rows("repro.bfd.session", "BfdSession", "call", "receive", "start", "stop")
    + _rows("repro.bfd.manager", "BfdManager", "call", "receive", "add_peer")
    + [
        _register("repro.bfd.manager", "BfdManager", "__init__", "send"),
        _register("repro.bfd.manager", "BfdManager", "on_peer_down", "callback"),
        _register("repro.bfd.manager", "BfdManager", "on_peer_up", "callback"),
    ]
    # --- bgp ------------------------------------------------------------
    + _rows("repro.bgp.session", "BgpSession", "call", "receive", "send_update")
    + _rows(
        "repro.bgp.speaker", "BgpSpeaker", "call",
        "process_update", "originate", "withdraw_origin", "advertise_route",
        "withdraw_route", "deliver", "peer_connection_lost", "start", "start_peer",
    )
    + [
        _register("repro.bgp.speaker", "BgpSpeaker", "__init__", "transport"),
        _register("repro.bgp.speaker", "BgpSpeaker", "on_rib_change", "callback"),
        _register("repro.bgp.speaker", "BgpSpeaker", "on_peer_down", "callback"),
        _register("repro.bgp.speaker", "BgpSpeaker", "on_peer_up", "callback"),
        _register("repro.bgp.session", "BgpSession", "on_update", "callback"),
    ]
    + _rows("repro.bgp.rib", "CompactPeerRib", "call", "add_peer", "load")
    + _rows("repro.bgp.rib", "CompactPeerRib", "gen", "iter_withdraw_peer")
    # --- core -----------------------------------------------------------
    + _rows(
        "repro.core.flow_provisioner", "FlowProvisioner", "call",
        "provision_group", "redirect_group", "provision_groups", "redirect_groups",
    )
    + _rows("repro.core.rest_api", "FloodlightRestApi", "call", "push", "push_batch")
    + _rows("repro.core.backup_groups", "BackupGroupManager", "call", "process_change")
    + _rows("repro.core.vnh_allocator", "VnhAllocator", "call", "allocate", "release")
    + _rows("repro.core.controller", "SuperchargedController", "call", "start", "attach_switch")
    # --- openflow -------------------------------------------------------
    + _rows(
        "repro.openflow.controller_channel", "ControllerChannel", "call",
        "send_flow_mod", "send_flow_mod_batch", "send_packet_out",
        "send_packet_in", "send_port_status",
    )
    + [
        _register(
            "repro.openflow.controller_channel", "ControllerChannel", "connect_switch", "handler"
        ),
        _register(
            "repro.openflow.controller_channel", "ControllerChannel", "connect_controller",
            "handler",
        ),
        _register("repro.openflow.switch", "OpenFlowSwitch", "on_flow_mod_applied", "callback"),
    ]
    + _rows(
        "repro.openflow.flow_table", "FlowTable", "call",
        "apply_batch", "lookup", "install", "modify", "remove",
    )
    # --- router ---------------------------------------------------------
    + _rows(
        "repro.router.fib_updater", "FibUpdater", "call",
        "enqueue", "enqueue_many", "enqueue_batch",
    )
    + [
        _register("repro.router.fib_updater", "FibUpdater", "on_entry_applied", "callback"),
        _register("repro.router.fib_updater", "FibUpdater", "on_idle", "callback"),
        _register("repro.router.router", "Router", "on_fib_changed", "handler"),
    ]
    + _rows("repro.router.fib", "LpmTable", "call", "insert", "remove", "lookup")
    + _rows("repro.router.router", "Router", "call", "start", "forwarding_decision")
    # --- routes ---------------------------------------------------------
    + _rows("repro.routes.ris_feed", None, "call", "synthetic_full_table")
    + _rows("repro.routes.ris_feed", None, "gen", "churn_stream")
    + _rows("repro.routes.prefix_gen", "PrefixGenerator", "call", "generate")
    + _rows("repro.routes.prefix_gen", "PrefixGenerator", "gen", "stream_codes")
    # --- supercharge ----------------------------------------------------
    + _rows(
        "repro.supercharge.engine", "RemoteRepointEngine", "call",
        "process_change", "absorb_deferred",
    )
    + [
        _register(
            "repro.supercharge.engine", "RemoteRepointEngine", "__init__",
            "peer_alive", "apply_actions",
        )
    ]
    + _rows(
        "repro.supercharge.planner", "RemoteGroupPlanner", "call",
        "load_code", "defer_code", "process_change", "reassign",
    )
    # --- scenarios ------------------------------------------------------
    + _rows("repro.scenarios.testbed", None, "call", "build_scenario")
    + _rows(
        "repro.scenarios.testbed", "ScenarioLab", "call",
        "start", "load_feeds", "wait_converged", "setup_monitoring",
        "start_churn", "wait_recovered",
    )
    + _rows("repro.scenarios.failures", "FailureInjector", "call", "arm")
    # --- telemetry ------------------------------------------------------
    + _rows(
        "repro.telemetry", "Telemetry", "call",
        "emit", "span", "histogram", "restored",
    )
    + _rows("repro.telemetry.profile", "SimProfiler", "call", "observe")
    # --- traffic --------------------------------------------------------
    + _rows(
        "repro.traffic.reachability", "ReachabilityMonitor", "call",
        "evaluate_all", "notify_forwarding_change", "notify_prefix_change",
    )
    + _rows("repro.traffic.reachability", "PathTracer", "call", "trace")
)
