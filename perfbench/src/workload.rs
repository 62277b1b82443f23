//! The three workloads and the two passes that measure them.
//!
//! All simulated load is open-loop Poisson arrivals at a fixed rate
//! in simulated time, and latency counts from each broadcast's
//! scheduled send instant. The host side is a closed loop on one
//! thread: one `run_once` after another.
//!
//! Every pass first runs a fixed, seed-determined prefix of runs
//! whatever the time budget, then keeps going until the budget is
//! spent. Simulated-time results and counts come from the prefix
//! alone, so they repeat exactly at a given seed; wall-clock results
//! come from every run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use abcast::BatchConfig;
use neko::{derive_seed, Dur, NetworkModel, Pid};
use study::{run_once, Algorithm, FaultScript, SingleRun, Summary};

use crate::alloc;
use crate::calib::Speed;
use crate::replica::{with_stack, Laps, Phase, Pool, SimCounters, Steady, SteadyReplay, PHASES};
use crate::trace::{HandlerLedger, Layer, LAYERS};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// n = 64 on the switched fabric, 100 msg/s, unbatched: every
    /// A-broadcast costs about a hundred wire messages, so kernel,
    /// network model and the O(n) protocol handlers dominate.
    FanoutN64,
    /// n = 7 on the shared medium, 10 000 msg/s, batched 32 / 10 ms:
    /// 50 000 measured broadcasts a run, so the runner's
    /// post-processing and large consensus values weigh most.
    BatchedN7,
    /// n = 5 on the shared medium, 100 msg/s, short runs in which the
    /// first process crashes and recovers: thousands of runs, so
    /// per-run setup, scratch recycling and the fault paths
    /// (failover, view changes, state transfer, repair) dominate.
    CrashRecoverN5,
}

/// Every workload.
pub const WORKLOADS: [Workload; 3] = [
    Workload::FanoutN64,
    Workload::BatchedN7,
    Workload::CrashRecoverN5,
];

/// The fan-out workload's run dimensions.
pub const FANOUT_N64: Steady = Steady {
    n: 64,
    throughput: 100.0,
    model: NetworkModel::Switched,
    batching: None,
    warmup: Dur::from_secs(1),
    measure: Dur::from_secs(5),
    drain: Dur::from_secs(1),
};

/// The batched workload's run dimensions (the batching knobs of the
/// saturation figure).
pub fn batched_n7() -> Steady {
    Steady {
        n: 7,
        throughput: 10_000.0,
        model: NetworkModel::SharedMedium,
        batching: Some(BatchConfig::new(32, Dur::from_millis(10))),
        warmup: Dur::from_secs(1),
        measure: Dur::from_secs(5),
        drain: Dur::from_secs(1),
    }
}

/// The crash-recover workload's run dimensions: about 140 measured
/// broadcasts a run.
pub const CRASH_RECOVER_N5: Steady = Steady {
    n: 5,
    throughput: 100.0,
    model: NetworkModel::SharedMedium,
    batching: None,
    warmup: Dur::from_millis(500),
    measure: Dur::from_millis(1_500),
    drain: Dur::from_secs(1),
};

/// Set-up passes per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FanoutN64 => "fanout-n64",
            Workload::BatchedN7 => "batched-n7",
            Workload::CrashRecoverN5 => "crash-recover-n5",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// The run dimensions.
    pub fn shape(self) -> Steady {
        match self {
            Workload::FanoutN64 => FANOUT_N64,
            Workload::BatchedN7 => batched_n7(),
            Workload::CrashRecoverN5 => CRASH_RECOVER_N5,
        }
    }

    /// The (probe-free) fault script every run follows.
    pub fn script(self) -> FaultScript {
        match self {
            Workload::FanoutN64 | Workload::BatchedN7 => FaultScript::normal_steady(),
            // The first process — round-1 coordinator of the FD
            // consensus, GM's sequencer, the ring's coordinator —
            // crashes 300 ms into the measurement, is detected 30 ms
            // later and recovers after 400 ms down.
            Workload::CrashRecoverN5 => FaultScript::crash_recover(
                Pid::new(0),
                Dur::from_millis(300),
                Dur::from_millis(400),
                Dur::from_millis(30),
            ),
        }
    }

    /// Runs always made, whatever the time budget: the prefix that
    /// simulated-time results and counts come from.
    pub fn min_runs(self, traced: bool) -> usize {
        match (self, traced) {
            (Workload::FanoutN64, false) => 30,
            (Workload::FanoutN64, true) => 6,
            (Workload::BatchedN7, false) => 15,
            (Workload::BatchedN7, true) => 3,
            (Workload::CrashRecoverN5, false) => 300,
            (Workload::CrashRecoverN5, true) => 30,
        }
    }

    /// Untimed warm-up runs per algorithm in one set-up pass.
    fn warmup_runs(self) -> usize {
        match self {
            Workload::FanoutN64 | Workload::BatchedN7 => 1,
            Workload::CrashRecoverN5 => 20,
        }
    }

    /// Runs between two timings of the calibration reference (about
    /// 50 ms of runs or more, so calibration costs a few percent).
    fn calibrate_every(self) -> usize {
        match self {
            Workload::FanoutN64 | Workload::BatchedN7 => 1,
            Workload::CrashRecoverN5 => 16,
        }
    }
}

/// The `i`-th run of a workload: the three algorithms in turn, each
/// replication seed shared by all three.
pub fn steady_run(seed: u64, i: usize) -> (Algorithm, u64) {
    (
        Algorithm::STUDY[i % 3],
        derive_seed(seed, 1 + (i / 3) as u64),
    )
}

/// Seed of the untimed warm-up runs, disjoint from the measured ones.
fn warmup_seed(seed: u64) -> u64 {
    derive_seed(seed, 0x3A2A_u64 << 32)
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Measured broadcasts attempted.
    pub attempted: u64,
    /// Of those, broadcasts never delivered.
    pub failed: u64,
    /// `attempted` within the pass's fixed set of runs.
    pub fixed_attempted: u64,
    /// `failed` within the pass's fixed set of runs.
    pub fixed_failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Uncalibrated values of the host-time metrics, and peak RSS
    /// (report file and human-readable report only).
    pub raw: BTreeMap<&'static str, f64>,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// The traced pass's ledger and trace.
    pub trace: Option<TraceLog>,
}

impl Outcome {
    /// Counts operations; `fixed` marks the pass's fixed set of runs,
    /// over which `failed_frac` is taken so that it repeats exactly.
    fn count(&mut self, attempted: u64, failed: u64, fixed: bool) {
        self.attempted += attempted;
        self.failed += failed;
        if fixed {
            self.fixed_attempted += attempted;
            self.fixed_failed += failed;
        }
    }

    /// Failed ÷ attempted over the fixed set of runs.
    pub fn failed_frac(&self) -> f64 {
        self.fixed_failed as f64 / self.fixed_attempted.max(1) as f64
    }

    fn problem(&mut self, p: String) {
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }
}

/// Median of `v` (which must be non-empty).
fn median(v: &[f64]) -> f64 {
    let s = Summary::from_samples(v);
    s.p50().expect("from_samples keeps the samples")
}

/// Host milliseconds.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up: parameter build, script compilation and arrival
/// generation (inside the warm-up runs) and the untimed warm-up runs
/// (one per algorithm, twenty on crash-recover-n5), repeated `reps`
/// times; returns the median in calibrated seconds.
pub fn setup(w: Workload, seed: u64, reps: usize, speed: &mut Speed) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        speed.sample();
        let factor = speed.factor();
        let start = Instant::now();
        let params = w.shape().params();
        let script = w.script();
        for i in 0..3 * w.warmup_runs() {
            let (alg, run_seed) = steady_run(warmup_seed(seed), i);
            std::hint::black_box(run_once(alg, &script, &params, run_seed));
        }
        times.push(start.elapsed().as_secs_f64() * factor);
    }
    median(&times)
}

/// Process high-water resident set (`VmHWM`), in MiB; `None` where
/// `/proc/self/status` cannot be read.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Per-run wall times of an untraced pass, raw and calibrated.
#[derive(Default)]
struct Clock {
    raw: Vec<f64>,
    calibrated: Vec<f64>,
}

impl Clock {
    fn add(&mut self, wall: Duration, factor: f64) {
        self.raw.push(ms(wall));
        self.calibrated.push(ms(wall) * factor);
    }

    /// The host-time metrics (calibrated), with their raw values in
    /// the report file only.
    fn report(&self, out: &mut Outcome, delivered: u64, speed: &Speed) {
        for (walls, into) in [
            (&self.calibrated, &mut out.metrics),
            (&self.raw, &mut out.raw),
        ] {
            let secs = walls.iter().sum::<f64>() / 1e3;
            let s = Summary::from_samples(walls);
            into.insert("abcast_msgs_per_s", delivered as f64 / secs);
            into.insert("runs_per_s", walls.len() as f64 / secs);
            into.insert("run_wall_p50_ms", s.p50().expect("samples kept"));
            into.insert("run_wall_p90_ms", s.percentile(90.0).expect("samples kept"));
        }
        out.notes.push(format!(
            "{} runs, {} beyond p90, {:.2} s of host run time; reference kernel median {:.4} ms (nominal {})",
            self.raw.len(),
            self.raw.len() - (self.raw.len() * 9).div_ceil(10),
            self.raw.iter().sum::<f64>() / 1e3,
            speed.median_ms(),
            crate::calib::NOMINAL_MS,
        ));
    }
}

/// The untraced pass: end-to-end metrics.
pub fn untraced(w: Workload, seed: u64, seconds: u64, setup_s: f64, speed: &mut Speed) -> Outcome {
    let mut out = untraced_runs(w, seed, seconds, speed);
    out.metrics.insert("setup_s", setup_s);
    out.correct = out.problems.is_empty();
    out
}

fn untraced_runs(w: Workload, seed: u64, seconds: u64, speed: &mut Speed) -> Outcome {
    let mut out = Outcome::default();
    let shape = w.shape();
    let params = shape.params();
    let script = w.script();
    let budget = Duration::from_secs(seconds);
    let prefix = w.min_runs(false);
    let mut clock = Clock::default();
    let mut delivered = 0u64;
    let mut sim_samples = Vec::new();
    let mut first: Vec<SingleRun> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < prefix || start.elapsed() < budget {
        let (alg, run_seed) = steady_run(seed, i);
        if i % w.calibrate_every() == 0 {
            speed.sample();
        }
        let t0 = Instant::now();
        let run = run_once(alg, &script, &params, run_seed);
        let wall = t0.elapsed();
        clock.add(wall, speed.factor());
        out.count(run.measured, run.undelivered, i < prefix);
        delivered += run.measured - run.undelivered;
        if run.mean_latency_ms.is_none()
            || run.latencies.len() as u64 != run.measured - run.undelivered
        {
            out.problem(format!("run {i} ({alg:?}): saturated or samples lost"));
        }
        if i < prefix {
            sim_samples.extend_from_slice(&run.latencies);
        }
        if i < 3 {
            first.push(run);
        }
        i += 1;
    }
    if let Some(rss) = peak_rss_mib() {
        out.raw.insert("peak_rss_mib", rss);
    }

    // Outputs check (untimed): the first run of each algorithm again,
    // through the replica, whose delivery logs the oracle judges.
    let mut pool = Pool::default();
    for (j, run) in first.iter().enumerate() {
        let (alg, run_seed) = steady_run(seed, j);
        let job = SteadyReplay {
            shape: &shape,
            script: &script,
            seed: run_seed,
            pool: &mut pool,
        };
        let rep = with_stack(alg, shape.batching, None, job);
        if let Some(d) = rep.diff(run) {
            out.problem(format!("replica of run {j} ({alg:?}) differs: {d}"));
        }
        if let Err(v) = rep.verdict {
            out.problem(format!("oracle on run {j} ({alg:?}): {v}"));
        }
    }

    clock.report(&mut out, delivered, speed);
    let lat = Summary::from_samples(&sim_samples);
    out.metrics
        .insert("sim_latency_p50_ms", lat.p50().expect("samples kept"));
    out.metrics
        .insert("sim_latency_p99_ms", lat.p99().expect("samples kept"));
    out.notes.push(format!(
        "sim latency over the first {prefix} runs: {} samples",
        sim_samples.len(),
    ));
    out
}

/// One span of the trace: a named interval with its parent.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (1-based, in creation order).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// What ran.
    pub name: &'static str,
    /// Start, in ns since the pass began.
    pub start_ns: u64,
    /// End, in ns since the pass began.
    pub end_ns: u64,
}

/// One traced run's aggregated handler counters.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Run index in the pass.
    pub run: usize,
    /// Algorithm.
    pub alg: Algorithm,
    /// Group size.
    pub n: usize,
    /// The run's root span.
    pub span: u64,
    /// Handler counters.
    pub handlers: HandlerLedger,
}

/// One row of the ranked ledger.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer or phase.
    pub name: String,
    /// Self time over all traced runs, ms.
    pub self_ms: f64,
    /// Handler calls (0 for phases).
    pub calls: u64,
    /// Allocations per call (handler rows).
    pub allocs_per_call: Option<f64>,
}

/// The traced pass's log: spans, per-run counters and the ledger.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Spans, in creation order.
    pub spans: Vec<Span>,
    /// Per-run handler counters.
    pub runs: Vec<RunRecord>,
    /// Ledger rows ranked by self time; they sum to `wall_ms`.
    pub ledger: Vec<Row>,
    /// Total traced run wall, ms.
    pub wall_ms: f64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn span(&mut self, parent: u64, name: &'static str, from: Instant, to: Instant) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: (from - self.epoch).as_nanos() as u64,
            end_ns: (to - self.epoch).as_nanos() as u64,
        });
        id
    }

    fn laps(&mut self, parent: u64, name: &'static str, laps: &Laps) -> u64 {
        let id = self.span(parent, name, laps.begin(), laps.end());
        for (phase, a, b) in laps.spans() {
            self.span(id, phase.name(), a, b);
        }
        id
    }
}

/// Sums over the traced runs.
#[derive(Default)]
struct Totals {
    /// Phase time of the traced replica, ns, indexed like `PHASES`.
    phases: [u64; 8],
    handlers: HandlerLedger,
    traced_wall: u64,
    untraced_wall: u64,
    runner_other: u64,
    runs: u64,
    /// Events `run_until` processed, all traced runs.
    events: u64,
    /// `run_once` wall by algorithm, and runs: fd, gm, ring.
    by_alg: [(u64, u64); 3],
    /// Simulator counters of the fixed set of runs.
    prefix_sims: Vec<SimCounters>,
    /// Handler counters of the fixed set of runs.
    prefix_handlers: HandlerLedger,
}

fn alg_slot(alg: Algorithm) -> usize {
    match alg {
        Algorithm::Gm => 1,
        Algorithm::Ring => 2,
        _ => 0,
    }
}

/// The traced pass: per-layer metrics, the ranked ledger and the
/// trace. Each iteration runs the program's own entry point, then an
/// untraced replica, then a traced replica, and requires both
/// replicas to reproduce the program's result exactly.
pub fn traced(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut totals = Totals::default();
    let mut runs = Vec::new();
    let mut pool = Pool::default();
    let budget = Duration::from_secs(seconds);
    let prefix = w.min_runs(true);
    let shape = w.shape();
    let params = shape.params();
    let script = w.script();
    let start = Instant::now();
    let mut i = 0;
    while i < prefix || start.elapsed() < budget {
        let iter_start = Instant::now();
        let ledger = Rc::new(RefCell::new(HandlerLedger::default()));
        let (alg, run_seed) = steady_run(seed, i);
        let t0 = Instant::now();
        let run = run_once(alg, &script, &params, run_seed);
        let t1 = Instant::now();
        let replay = |ledger: Option<&Rc<RefCell<HandlerLedger>>>, pool: &mut Pool| {
            let job = SteadyReplay {
                shape: &shape,
                script: &script,
                seed: run_seed,
                pool,
            };
            with_stack(alg, shape.batching, ledger, job)
        };
        let u = replay(None, &mut pool);
        alloc::set_counting(true);
        let t = replay(Some(&ledger), &mut pool);
        alloc::set_counting(false);
        out.count(run.measured, run.undelivered, i < prefix);
        for (what, rep) in [("untraced", &u), ("traced", &t)] {
            if let Some(d) = rep.diff(&run) {
                out.problem(format!("{what} replica of run {i} ({alg:?}) differs: {d}"));
            }
            if let Err(v) = &rep.verdict {
                out.problem(format!("oracle on run {i} ({alg:?}): {v}"));
            }
        }
        let (untraced_laps, traced_laps, sim) = (u.laps, t.laps, t.sim);
        let root = rec.span(0, "iteration", iter_start, iter_start);
        rec.span(root, "run_once", t0, t1);
        let program_ns = (t1 - t0).as_nanos() as u64;
        rec.laps(root, "replica", &untraced_laps);
        let run_span = rec.laps(root, "traced", &traced_laps);
        rec.spans[root as usize - 1].end_ns = (Instant::now() - rec.epoch).as_nanos() as u64;

        let handlers = ledger.borrow().clone();
        // `run_once` runs no oracle: the replicas' oracle phase is the
        // benchmark's own check and stays out of the ledger.
        let wall =
            |laps: &Laps| (laps.end() - laps.begin()).as_nanos() as u64 - laps.ns(Phase::Oracle);
        let traced_ns = wall(&traced_laps);
        let untraced_ns = wall(&untraced_laps);
        for (k, p) in PHASES.iter().enumerate() {
            totals.phases[k] += traced_laps.ns(*p);
        }
        // The program's run minus the replica's phases that mirror a
        // call inside it: what the runner spends around those calls.
        let mirrored: u64 = [
            Phase::Compile,
            Phase::Arrivals,
            Phase::Build,
            Phase::Schedule,
            Phase::Run,
            Phase::Collect,
        ]
        .iter()
        .map(|p| untraced_laps.ns(*p))
        .sum();
        totals.runner_other += program_ns.saturating_sub(mirrored);
        if handlers.sent() != sim.net.send_calls {
            out.problem(format!(
                "run {i}: {} sends counted by layer, {} send calls in NetStats",
                handlers.sent(),
                sim.net.send_calls
            ));
        }
        totals.handlers.add(&handlers);
        totals.traced_wall += traced_ns;
        totals.untraced_wall += untraced_ns;
        totals.runs += 1;
        totals.events += sim.events;
        let slot = &mut totals.by_alg[alg_slot(alg)];
        slot.0 += program_ns;
        slot.1 += 1;
        if i < prefix {
            totals.prefix_handlers.add(&handlers);
            totals.prefix_sims.push(sim);
        }
        runs.push(RunRecord {
            run: i,
            alg,
            n: shape.n,
            span: run_span,
            handlers,
        });
        i += 1;
    }
    layer_metrics(&mut out, &totals);
    let log = ledger(&totals, rec.spans, runs);
    out.notes.push(format!(
        "outside the ledger: the benchmark's oracle check of the runs, {:.1} ms",
        totals.phases[Phase::Oracle as usize] as f64 / 1e6
    ));
    out.notes.push(format!(
        "{} traced runs; counts over the first {prefix}",
        totals.runs
    ));
    out.trace = Some(log);
    out.correct = out.problems.is_empty();
    out
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn layer_metrics(out: &mut Outcome, t: &Totals) {
    let runs = t.runs as f64;
    let per_run_ms = |ns: u64| ns as f64 / 1e6 / runs;
    let sims = &t.prefix_sims;
    let prefix_runs = sims.len() as f64;
    let sum = |f: fn(&SimCounters) -> u64| sims.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&SimCounters) -> u64| sims.iter().map(f).max().unwrap_or(0) as f64;
    let h = &t.handlers;
    let run_ns = t.phases[Phase::Run as usize];
    let neko_ns = run_ns.saturating_sub(h.protocol_ns());
    let m = &mut out.metrics;
    m.insert("neko.events", sum(|s| s.events) / prefix_runs);
    m.insert("neko.self_ms", per_run_ms(neko_ns));
    m.insert("neko.callback_ms", per_run_ms(h.kernel.ns));
    m.insert("neko.ns_per_event", ratio(neko_ns as f64, t.events as f64));
    m.insert("neko.event_queue_peak", max(|s| s.queue_peak));
    m.insert(
        "neko.self_share",
        ratio(neko_ns as f64, t.traced_wall as f64),
    );
    let abcasts = sum(|s| s.abcasts);
    let per_abcast = |f: fn(&SimCounters) -> u64| ratio(sum(f), abcasts);
    m.insert(
        "net.wire_msgs_per_abcast",
        per_abcast(|s| s.net.wire_messages),
    );
    m.insert(
        "net.deliveries_per_abcast",
        per_abcast(|s| s.net.deliveries),
    );
    m.insert("net.merges_per_abcast", per_abcast(|s| s.net.merges));
    m.insert("net.queue_highwater", max(|s| s.net.queue_highwater));
    // Utilisation: busy time over capacity (resources × simulated span).
    m.insert(
        "net.cpu_util",
        ratio(
            sum(|s| s.net.cpu_busy.as_micros()),
            sum(|s| s.end.as_micros() * s.n as u64),
        ),
    );
    m.insert(
        "net.link_util",
        ratio(
            sum(|s| s.net.net_busy.as_micros()),
            sum(|s| s.end.as_micros() * s.net.links_used),
        ),
    );
    let share = |ns: u64| ratio(ns as f64, t.traced_wall as f64);
    for l in LAYERS {
        let all = h.layer(l);
        let pre = t.prefix_handlers.layer(l);
        let name = l.name();
        let calls = pre.calls as f64 / prefix_runs;
        let sent = pre.sent as f64 / prefix_runs;
        let set = |m: &mut BTreeMap<&'static str, f64>, suffix: &str, v: f64| {
            if let Some(def) = crate::metrics::find(&format!("{name}.{suffix}")) {
                m.insert(def.name, v);
            }
        };
        set(m, "calls", calls);
        set(m, "sent", sent);
        set(m, "self_ms", per_run_ms(all.ns));
        set(m, "self_share", share(all.ns));
        set(
            m,
            "allocs_per_call",
            ratio(all.allocs as f64, all.calls as f64),
        );
    }
    m.insert("batch.self_share", share(h.batch_self_ns()));
    m.insert(
        "batch.payloads_per_pack",
        ratio(
            t.prefix_handlers.payloads as f64,
            t.prefix_handlers.layer(Layer::Command).calls as f64,
        ),
    );
    m.insert(
        "study.compile_ms",
        per_run_ms(t.phases[Phase::Compile as usize]),
    );
    m.insert(
        "study.arrivals_ms",
        per_run_ms(t.phases[Phase::Arrivals as usize]),
    );
    m.insert(
        "study.build_ms",
        per_run_ms(t.phases[Phase::Build as usize]),
    );
    m.insert("study.runner_other_ms", per_run_ms(t.runner_other));
    m.insert(
        "oracle.check_ms",
        per_run_ms(t.phases[Phase::Oracle as usize]),
    );
    m.insert("oracle.entries", sum(|s| s.oracle_entries) / prefix_runs);
    for (k, name) in ["run_ms.fd", "run_ms.gm", "run_ms.ring"].iter().enumerate() {
        let (ns, count) = t.by_alg[k];
        m.insert(name, ratio(ns as f64 / 1e6, count as f64));
    }
    m.insert(
        "handler.share",
        ratio(h.protocol_ns() as f64, run_ns as f64),
    );
    m.insert(
        "trace.overhead_share",
        ratio(t.traced_wall as f64, t.untraced_wall as f64) - 1.0,
    );
}

/// Ranks self time over the traced runs. The rows cover every
/// traced run's wall: replica phases, the event loop split into the
/// kernel's own time and each layer's handler time, and whatever no
/// lap covered as the unattributed remainder.
fn ledger(t: &Totals, spans: Vec<Span>, runs: Vec<RunRecord>) -> TraceLog {
    let h = &t.handlers;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut rows = Vec::new();
    let mut row = |name: &str, ns: u64, calls: u64, allocs: Option<u64>| {
        rows.push(Row {
            name: name.to_string(),
            self_ms: ms(ns),
            calls,
            allocs_per_call: allocs.map(|a| ratio(a as f64, calls as f64)),
        });
    };
    for p in PHASES {
        if p == Phase::Oracle {
            continue;
        }
        if p == Phase::Run {
            let neko = t.phases[p as usize].saturating_sub(h.protocol_ns());
            row("neko (kernel + network model)", neko, 0, None);
            for l in LAYERS {
                let c = h.layer(l);
                row(l.name(), c.ns, c.calls, Some(c.allocs));
            }
            if h.shell.calls > 0 {
                row("batch", h.batch_self_ns(), h.shell.calls, None);
            }
        } else {
            let label = match p {
                Phase::Post => "study.post (runner post-processing)",
                Phase::Compile => "study.compile",
                Phase::Arrivals => "study.arrivals",
                Phase::Build => "study.build",
                Phase::Schedule => "study.schedule",
                Phase::Collect | Phase::Run | Phase::Oracle => "study.collect",
            };
            row(label, t.phases[p as usize], 0, None);
        }
    }
    let covered: f64 = rows.iter().map(|r| r.self_ms).sum();
    let wall_ms = ms(t.traced_wall);
    rows.push(Row {
        name: "unattributed".into(),
        self_ms: wall_ms - covered,
        calls: 0,
        allocs_per_call: None,
    });
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    TraceLog {
        spans,
        runs,
        ledger: rows,
        wall_ms,
    }
}
