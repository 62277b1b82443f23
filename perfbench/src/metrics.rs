//! The benchmark's metric table: every metric it prints, with its
//! unit, direction and regression bound. `BENCHMARK.json` at the root
//! of the repository lists the same names, units and bounds; the
//! benchmark's tests hold the two together.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A simulated-time or counted quantity: a pure function of the
    /// seed, so any difference at the same seed is a behaviour
    /// change, not noise.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by the untraced pass (`--trace 0`).
/// Host-time metrics are measured on the wall clock; the two
/// `sim_latency_*` metrics are simulated time. Peak RSS is measured
/// too but kept out of this table (see the benchmark's README).
pub const END_TO_END: [Def; 7] = [
    e2e("abcast_msgs_per_s", "msgs/s", Higher, 0.25, false),
    e2e("runs_per_s", "1/s", Higher, 0.25, false),
    e2e("run_wall_p50_ms", "ms", Lower, 0.25, false),
    e2e("run_wall_p90_ms", "ms", Lower, 0.25, false),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("sim_latency_p50_ms", "sim_ms", Lower, 0.05, true),
    e2e("sim_latency_p99_ms", "sim_ms", Lower, 0.25, true),
];

/// Per-layer metrics, printed by the traced pass (`--trace 1`). Times
/// and counts are per run; counts are taken over the pass's fixed
/// prefix of runs, so they repeat exactly at a given seed.
pub const PER_LAYER: [Def; 48] = [
    layer("neko.events", "count", Lower, true),
    layer("neko.self_ms", "ms", Lower, false),
    layer("neko.callback_ms", "ms", Lower, false),
    layer("neko.ns_per_event", "ns", Lower, false),
    layer("neko.event_queue_peak", "count", Lower, true),
    layer("neko.self_share", "ratio", Lower, false),
    layer("net.wire_msgs_per_abcast", "ratio", Lower, true),
    layer("net.deliveries_per_abcast", "ratio", Lower, true),
    layer("net.merges_per_abcast", "ratio", Higher, true),
    layer("net.queue_highwater", "count", Lower, true),
    layer("net.cpu_util", "ratio", Lower, true),
    layer("net.link_util", "ratio", Lower, true),
    layer("rbcast.calls", "count", Lower, true),
    layer("rbcast.self_ms", "ms", Lower, false),
    layer("rbcast.allocs_per_call", "ratio", Lower, false),
    layer("rbcast.sent", "count", Lower, true),
    layer("consensus.calls", "count", Lower, true),
    layer("consensus.self_ms", "ms", Lower, false),
    layer("consensus.allocs_per_call", "ratio", Lower, false),
    layer("consensus.sent", "count", Lower, true),
    layer("gm.seq.calls", "count", Lower, true),
    layer("gm.seq.self_ms", "ms", Lower, false),
    layer("gm.seq.sent", "count", Lower, true),
    layer("membership.calls", "count", Lower, true),
    layer("membership.self_share", "ratio", Lower, false),
    layer("membership.sent", "count", Lower, true),
    layer("repair.calls", "count", Lower, true),
    layer("repair.self_share", "ratio", Lower, false),
    layer("repair.sent", "count", Lower, true),
    layer("abcast.command.calls", "count", Lower, true),
    layer("abcast.command.self_ms", "ms", Lower, false),
    layer("abcast.timer.calls", "count", Lower, true),
    layer("abcast.timer.self_ms", "ms", Lower, false),
    layer("abcast.fd.calls", "count", Lower, true),
    layer("abcast.fd.self_share", "ratio", Lower, false),
    layer("batch.self_share", "ratio", Lower, false),
    layer("batch.payloads_per_pack", "ratio", Higher, true),
    layer("study.compile_ms", "ms", Lower, false),
    layer("study.arrivals_ms", "ms", Lower, false),
    layer("study.build_ms", "ms", Lower, false),
    layer("study.runner_other_ms", "ms", Lower, false),
    layer("oracle.check_ms", "ms", Lower, false),
    layer("oracle.entries", "count", Lower, true),
    layer("run_ms.fd", "ms", Lower, false),
    layer("run_ms.gm", "ms", Lower, false),
    layer("run_ms.ring", "ms", Lower, false),
    layer("handler.share", "ratio", Lower, false),
    layer("trace.overhead_share", "ratio", Lower, false),
];

/// The table a pass prints.
pub fn table(traced: bool) -> &'static [Def] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Looks a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}
