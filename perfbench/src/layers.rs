//! Per-layer metrics from a traced replica run.
//!
//! Times are mean **self** time per operation in milliseconds, so the
//! layers of one operation add up to `trace.op_ms`:
//!
//! ```text
//! trace.op_ms = request.decode + scenario.instantiate + bounds.lower_bound
//!             + cache.key + cache.load + registry.build + policy.decide
//!             + engine.self + cache.store + report.encode + trace.unattributed
//! ```
//!
//! (`registry.build` spans on parallel engine threads may overlap; the
//! sum then exceeds `op_ms` by the overlap.) `cache.read`, `cache.parse`
//! and `stats.decode` come from the probe of the same key and split
//! `cache.load`: `cache.index = load − read − parse − decode` is the
//! recency-index work of a load. Counts are exact and repeat between
//! runs of the same seed.

use crate::daemon::DaemonCounts;
use crate::replica::Replica;
use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, NameTotals};
use std::collections::BTreeMap;

/// Policies whose construction time is reported on its own.
pub const BUILD_POLICIES: [&str; 5] = ["suu-i-obl", "suu-i-sem", "suu-c", "suu-t", "greedy-lr"];

/// Sweep-level counts (zero outside `sweep-frontier`).
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepLayer {
    /// Race calls the sweep made.
    pub race_calls: u64,
    /// Refinement rounds.
    pub rounds: u64,
    /// Trials in the artifact (`totals.trials_adaptive`).
    pub trials: u64,
    /// Sweep wall time minus the time inside race calls, ms.
    pub orchestrate_ms: f64,
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The traced replica after its run.
    pub replica: &'a Replica,
    /// HTTP latencies of the same operations, ms.
    pub http_ms: &'a [f64],
    /// In-process `Service::handle` latencies of the same operations, ms.
    pub handle_ms: &'a [f64],
    /// Daemon counter growth over the HTTP operations.
    pub daemon: DaemonCounts,
    /// Size of the cache's `index.json` after the HTTP operations.
    pub index_bytes: u64,
    /// Sweep counts.
    pub sweep: SweepLayer,
}

/// Per-operation durations (op span minus its probe), ms, in op order.
pub fn op_latencies_ms(spans: &[trace::Span]) -> Vec<f64> {
    let mut probe_ns: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "probe") {
        if let Some(p) = s.parent {
            *probe_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "op" && s.parent.is_none())
        .map(|(i, s)| (s.dur_ns() - probe_ns.get(&i).copied().unwrap_or(0)) as f64 / 1e6)
        .collect()
}

/// Add every per-layer metric to `out`.
pub fn report(inputs: &LayerInputs<'_>, out: &mut Outcome) {
    let replica = inputs.replica;
    let http_p50 = stats::median(inputs.http_ms).unwrap_or(0.0);
    let handle_p50 = stats::median(inputs.handle_ms).unwrap_or(0.0);
    let spans = replica.tracer.spans();
    let totals = trace::totals_by_name(&spans);
    let work = replica.work.get();
    let ops = work.ops.max(1) as f64;
    let n = work.ops as usize;
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let self_ms = |t: NameTotals| t.self_ns as f64 / 1e6 / ops;
    let dur_ms = |t: NameTotals| t.dur_ns as f64 / 1e6 / ops;

    let load = self_ms(get("cache.load"));
    let read = dur_ms(get("cache.read"));
    let parse = dur_ms(get("cache.parse"));
    let decode = dur_ms(get("stats.decode"));
    out.metric("cache.load_ms", load, "ms", n);
    out.metric("cache.read_ms", read, "ms", n);
    out.metric("cache.parse_ms", parse, "ms", n);
    out.metric("stats.decode_ms", decode, "ms", n);
    out.metric("cache.index_ms", load - read - parse - decode, "ms", n);
    out.metric("cache.store_ms", self_ms(get("cache.store")), "ms", n);
    out.metric("cache.key_ms", self_ms(get("cache.key")), "ms", n);
    out.metric("cache.index_bytes", inputs.index_bytes as f64, "bytes", 1);
    out.metric("cache.hits", inputs.daemon.hits as f64, "count", 1);
    out.metric("cache.misses", inputs.daemon.misses as f64, "count", 1);
    out.metric("cache.extends", inputs.daemon.extends as f64, "count", 1);

    out.metric(
        "bounds.lower_bound_ms",
        self_ms(get("bounds.lower_bound")),
        "ms",
        n,
    );
    out.metric("bounds.solves", work.solves as f64, "count", 1);
    out.metric(
        "scenario.instantiate_ms",
        self_ms(get("scenario.instantiate")),
        "ms",
        n,
    );
    out.metric("request.decode_ms", self_ms(get("request.decode")), "ms", n);
    out.metric("report.encode_ms", self_ms(get("report.encode")), "ms", n);

    out.metric("server.frontend_ms", http_p50 - handle_p50, "ms", n);
    out.metric(
        "server.rejected_429",
        inputs.daemon.rejected_429 as f64,
        "count",
        1,
    );

    let mut build_ms = 0.0;
    for (name, t) in &totals {
        if name.starts_with("registry.build.") {
            build_ms += self_ms(*t);
        }
    }
    out.metric("registry.build_ms", build_ms, "ms", n);
    for policy in BUILD_POLICIES {
        let t = get(&format!("registry.build.{policy}"));
        out.metric(&format!("registry.build_ms.{policy}"), self_ms(t), "ms", n);
    }
    let (builds, decide_calls, decide_ns) = replica.counters.snapshot();
    let decide_ms = decide_ns as f64 / 1e6 / ops;
    out.metric("registry.builds", builds as f64, "count", 1);
    out.metric("policy.decide_calls", decide_calls as f64, "count", 1);
    out.metric("policy.decide_ms", decide_ms, "ms", n);
    let engine_self = (self_ms(get("engine.evaluate")) - decide_ms).max(0.0);
    out.metric("engine.self_ms", engine_self, "ms", n);
    out.metric("engine.trials", work.trials as f64, "count", 1);

    out.metric(
        "sweep.race_calls",
        inputs.sweep.race_calls as f64,
        "count",
        1,
    );
    out.metric("sweep.rounds", inputs.sweep.rounds as f64, "count", 1);
    out.metric("sweep.trials", inputs.sweep.trials as f64, "count", 1);
    out.metric("sweep.orchestrate_ms", inputs.sweep.orchestrate_ms, "ms", 1);

    let op_lat = op_latencies_ms(&spans);
    let op_p50 = stats::median(&op_lat).unwrap_or(0.0);
    let overhead = if handle_p50 > 0.0 {
        (op_p50 - handle_p50) / handle_p50 * 100.0
    } else {
        0.0
    };
    out.metric("trace.overhead_pct", overhead, "%", n);
    out.metric("trace.op_ms", stats::mean(&op_lat).unwrap_or(0.0), "ms", n);
    out.metric("trace.unattributed_ms", self_ms(get("op")), "ms", n);
    out.metric("trace.ops", work.ops as f64, "count", 1);

    // The replica's cache accounting must be the daemon's.
    let replica_counts = (work.hits, work.misses, work.extends);
    let daemon_counts = (
        inputs.daemon.hits,
        inputs.daemon.misses,
        inputs.daemon.extends,
    );
    if replica_counts != daemon_counts {
        out.breach(format!(
            "replica cache counts (hits, misses, extends) {replica_counts:?} != daemon's {daemon_counts:?}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn op_latency_excludes_the_probe() {
        let spans = vec![
            span("op", 0, 5_000_000, None),
            span("probe", 1_000_000, 2_000_000, Some(0)),
            span("cache.read", 1_000_000, 1_500_000, Some(1)),
            span("op", 6_000_000, 8_000_000, None),
        ];
        assert_eq!(op_latencies_ms(&spans), vec![4.0, 2.0]);
    }
}
