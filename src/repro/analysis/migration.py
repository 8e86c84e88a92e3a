"""Migration accuracy study: what CID linkage buys the observer.

``repro analyze --section migration`` answers the robustness question
the paper's accuracy claims leave open: *how wrong do passive RTT
estimates get when connections migrate, and how much of that damage
does CID linkage undo?*

The study replays one migration-chaos traffic mix through three
observers simultaneously:

* **oracle** — perfect flow identity (the generator's own flow index,
  which no real observer has).  Its per-flow mean spin RTT is the best
  a passive observer could possibly do; deviations from it measure
  flow-identity damage only.
* **linked** — the production resolver
  (:class:`~repro.core.flow_resolver.FlowKeyResolver`) with CID
  linkage on.
* **unlinked** — the same resolver with linkage off: every unknown CID
  opens a new flow, as the legacy DCID-keyed table behaved.

Attribution from observer flows back to ground-truth flows needs no
heuristics: while datagram ``i`` of flow ``k`` is being processed, the
table's ``on_packet`` hook fires with the receiving
:class:`~repro.core.flow_table.FlowRecord`, so each observer flow key
is pinned to the ground-truth index of its first packet.  A split flow
simply yields several keys pinned to the same index.
"""

from __future__ import annotations

from repro.core.flow_resolver import FlowKeyResolver
from repro.core.flow_table import SpinFlowTable
from repro.core.observer import SpinObserver
from repro.monitor.traffic import TrafficConfig, TrafficMux
from repro.quic.connection import CID_LENGTH
from repro.quic.onpath import DirectionState, walk_datagram

__all__ = ["render_migration_section", "run_linkage_study"]

_ARMS = ("linked", "unlinked")


def run_linkage_study(traffic: TrafficConfig) -> dict:
    """Run the three-observer comparison once; returns a JSON-able dict."""
    mux = TrafficMux(traffic)
    resolvers = {
        "linked": FlowKeyResolver(cid_linkage=True),
        "unlinked": FlowKeyResolver(cid_linkage=False),
    }
    attribution: dict[str, dict[str, int]] = {arm: {} for arm in _ARMS}
    current_index = [0]
    tables = {}
    for arm, resolver in resolvers.items():
        def on_packet(flow, time_ms, arm=arm):
            attribution[arm].setdefault(flow.flow_key, current_index[0])

        # Unbounded-ish table: the study measures linkage damage, not
        # capacity churn, so eviction must not add noise.
        tables[arm] = SpinFlowTable(
            short_dcid_length=CID_LENGTH,
            max_flows=max(1_000_000, 4 * traffic.flows),
            idle_timeout_ms=3_600_000.0,
            retain_retired=True,
            resolver=resolver,
            on_packet=on_packet,
        )

    oracle: dict[int, tuple[SpinObserver, DirectionState]] = {}
    for tap in mux.stream():
        current_index[0] = tap.flow_index
        for table in tables.values():
            table.on_server_datagram(tap.time_ms, tap.data, tap.tuple4)
        try:
            _, short_at = walk_datagram(tap.data, CID_LENGTH)
        except ValueError:
            continue
        if short_at < 0:
            continue
        if tap.flow_index not in oracle:
            oracle[tap.flow_index] = (SpinObserver(), DirectionState())
        observer, direction = oracle[tap.flow_index]
        spin_bit, _, _, full_pn, _ = direction.read_short(
            tap.data, short_at, CID_LENGTH
        )
        observer.on_packet(tap.time_ms, full_pn, spin_bit)

    oracle_means = {}
    for index, (observer, _) in oracle.items():
        rtts = observer.observation().rtts_received_ms
        if rtts:
            oracle_means[index] = sum(rtts) / len(rtts)
    migrated_indexes = {entry["flow_index"] for entry in mux.migration_log}

    result = {
        "traffic": {
            "flows": traffic.flows,
            "tcp_flows": traffic.tcp_flows,
            "seed": traffic.seed,
            "plan": (
                traffic.migration.to_string()
                if traffic.migration is not None
                else ""
            ),
        },
        "injected": mux.injected_summary(),
        "oracle_flows": len(oracle_means),
        "arms": {
            arm: _arm_stats(
                tables[arm],
                resolvers[arm],
                attribution[arm],
                oracle_means,
                migrated_indexes,
            )
            for arm in _ARMS
        },
    }
    return result


def _arm_stats(
    table: SpinFlowTable,
    resolver: FlowKeyResolver,
    attribution: dict[str, int],
    oracle_means: dict[int, float],
    migrated_indexes: set[int],
) -> dict:
    samples: dict[int, list[float]] = {}
    fragments: dict[int, int] = {}
    for flow in table.all_flows():
        index = attribution.get(flow.flow_key)
        if index is None:
            continue
        fragments[index] = fragments.get(index, 0) + 1
        observation = flow.observation()
        if observation.rtts_received_ms:
            samples.setdefault(index, []).extend(observation.rtts_received_ms)

    def error_stats(indexes) -> dict:
        errors = []
        lost = 0
        for index in indexes:
            oracle_mean = oracle_means[index]
            estimates = samples.get(index)
            if not estimates:
                lost += 1
                continue
            estimate = sum(estimates) / len(estimates)
            errors.append(abs(estimate - oracle_mean) / oracle_mean)
        block = {"flows": len(list(indexes)), "flows_without_estimate": lost}
        if errors:
            block["mean_abs_rel_error_pct"] = round(
                100.0 * sum(errors) / len(errors), 3
            )
            block["max_abs_rel_error_pct"] = round(100.0 * max(errors), 3)
        return block

    all_indexes = sorted(oracle_means)
    migrated = [index for index in all_indexes if index in migrated_indexes]
    return {
        "resolver": resolver.counters(),
        "flow_keys": len(fragments),
        "fragmented_flows": sum(1 for count in fragments.values() if count > 1),
        "all": error_stats(all_indexes),
        "migrated": error_stats(migrated),
    }


def render_migration_section(result: dict) -> str:
    """Human-readable rendering of :func:`run_linkage_study` output."""
    from repro.analysis.report import render_table

    traffic = result["traffic"]
    injected = result["injected"]
    lines = [
        "== Connection migration: RTT accuracy with vs without CID linkage ==",
        "",
        f"traffic: {traffic['flows']} QUIC flows + {traffic['tcp_flows']} TCP "
        f"flows, seed {traffic['seed']}, plan {traffic['plan'] or '(none)'}",
        f"injected: {injected['flows_drawn']} migrations drawn "
        f"({', '.join(f'{k} {v}' for k, v in injected['by_kind'].items()) or 'none'}), "
        f"{injected['applied']} applied mid-flow",
        f"oracle: {result['oracle_flows']} flows with spin RTT samples",
        "",
    ]
    rows = []
    for arm in _ARMS:
        stats = result["arms"][arm]
        counters = stats["resolver"]
        for scope in ("all", "migrated"):
            block = stats[scope]
            rows.append(
                (
                    arm,
                    scope,
                    block["flows"],
                    block["flows_without_estimate"],
                    stats["fragmented_flows"] if scope == "all" else "",
                    counters["flows_migrated"] if scope == "all" else "",
                    counters["flows_split"] if scope == "all" else "",
                    (
                        f"{block['mean_abs_rel_error_pct']:.2f} %"
                        if "mean_abs_rel_error_pct" in block
                        else "-"
                    ),
                )
            )
    lines.append(
        render_table(
            (
                "arm", "scope", "flows", "no-estimate", "fragmented",
                "migrated", "split", "mean |rel err|",
            ),
            rows,
        )
    )
    return "\n".join(lines)
