//! A replica of the program's run entry point, built only from public
//! functions, with a lap timer at each phase boundary:
//! [`SteadyReplay`] replays `study::run_once` for a probe-free script
//! on the simulator backend.
//!
//! A replica must reproduce its original bit for bit — same measured
//! count, same latency samples, same `NetStats` — or its phase
//! timings describe a different run. [`SteadyOutcome::diff`] and the
//! traced pass enforce that on every run.
//!
//! Phases, in order: compile (`FaultScript::compile`), arrivals
//! (`poisson_arrivals`), build (`SimBuilder`), schedule (injections
//! and commands), run (`Sim::run_until`), collect
//! (`Sim::take_outputs`), post (the runner's own post-processing:
//! latencies) and oracle (`oracle::delivery_logs` + `oracle::check`).
//! `run_once` itself runs no oracle; its replica checks the outputs
//! anyway.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

use abcast::{AbcastEvent, BatchConfig, Batched, FdNode, GmNode, Pack};
use fdet::SuspectSet;
use neko::{
    derive_seed, Dur, Injection, NetParams, NetStats, NetworkModel, Pid, Process, Schedule, Sim,
    SimBuilder, SimScratch, Time,
};
use ringpaxos::RingNode;
use study::oracle::{self, Expectations, Violation};
use study::{
    poisson_arrivals, Algorithm, CompiledScript, FaultScript, Reservoir, RunParams, Running,
    SingleRun, DEFAULT_LATENCY_SAMPLE_CAP,
};

use crate::trace::{HandlerLedger, Role, Traced};

/// A replica phase (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Compile,
    Arrivals,
    Build,
    Schedule,
    Run,
    Collect,
    Post,
    Oracle,
}

/// Every phase, in execution order.
pub const PHASES: [Phase; 8] = [
    Phase::Compile,
    Phase::Arrivals,
    Phase::Build,
    Phase::Schedule,
    Phase::Run,
    Phase::Collect,
    Phase::Post,
    Phase::Oracle,
];

impl Phase {
    /// The phase's span name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compile => "compile",
            Phase::Arrivals => "arrivals",
            Phase::Build => "build",
            Phase::Schedule => "schedule",
            Phase::Run => "run_until",
            Phase::Collect => "collect",
            Phase::Post => "post",
            Phase::Oracle => "oracle",
        }
    }
}

/// Start and end instants of each phase of one replica run.
#[derive(Clone, Debug)]
pub struct Laps {
    start: Instant,
    last: Instant,
    ends: [Option<Instant>; 8],
}

impl Laps {
    fn start() -> Self {
        let now = Instant::now();
        Laps {
            start: now,
            last: now,
            ends: [None; 8],
        }
    }

    /// Closes `phase` (which began where the previous one ended).
    fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        self.ends[phase as usize] = Some(now);
        self.last = now;
    }

    /// When the run began.
    pub fn begin(&self) -> Instant {
        self.start
    }

    /// When the last phase ended.
    pub fn end(&self) -> Instant {
        self.last
    }

    /// `(phase, start, end)` of every phase that ran, in order.
    pub fn spans(&self) -> Vec<(Phase, Instant, Instant)> {
        let mut from = self.start;
        let mut out = Vec::new();
        for p in PHASES {
            if let Some(end) = self.ends[p as usize] {
                out.push((p, from, end));
                from = end;
            }
        }
        out
    }

    /// Nanoseconds spent in `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.spans()
            .into_iter()
            .find(|(p, _, _)| *p == phase)
            .map_or(0, |(_, a, b)| (b - a).as_nanos() as u64)
    }
}

/// Recycled simulator allocations, one slot per process type — the
/// replica's counterpart of the runner's per-thread scratch, so a
/// replica's build phase costs what `run_once`'s does.
#[derive(Default)]
pub struct Pool(BTreeMap<TypeId, Box<dyn Any>>);

impl Pool {
    fn take<P: Process>(&mut self) -> Option<SimScratch<P::Msg, P::Cmd, P::Out>> {
        let slot = self.0.remove(&TypeId::of::<P>())?;
        slot.downcast().ok().map(|b| *b)
    }

    fn put<P: Process>(&mut self, scratch: SimScratch<P::Msg, P::Cmd, P::Out>) {
        self.0.insert(TypeId::of::<P>(), Box::new(scratch));
    }
}

/// A run generic over the process stack — the body that
/// [`with_stack`] instantiates for the chosen algorithm.
pub trait Replay {
    /// What the replay returns.
    type Output;
    /// Runs with processes built by `factory(pid, n, initial_suspects)`.
    fn replay<P, F>(self, factory: F) -> Self::Output
    where
        P: Process<Cmd = u64, Out = AbcastEvent<u64>>,
        F: FnMut(Pid, usize, &SuspectSet) -> P;
}

macro_rules! stacks {
    ($node:ident, $batching:expr, $ledger:expr, $replay:expr) => {
        match ($batching, $ledger) {
            (None, None) => $replay.replay(|p, n, s| $node::<u64>::new(p, n, s)),
            (None, Some(l)) => $replay
                .replay(|p, n, s| Traced::new($node::<u64>::new(p, n, s), Role::Node, l.clone())),
            (Some(cfg), None) => {
                $replay.replay(|p, n, s| Batched::new(p, $node::<Pack<u64>>::new(p, n, s), cfg))
            }
            (Some(cfg), Some(l)) => $replay.replay(|p, n, s| {
                let node = $node::<Pack<u64>>::new(p, n, s);
                let inner = Traced::new(node, Role::InnerNode, l.clone());
                Traced::new(Batched::new(p, inner, cfg), Role::Shell, l.clone())
            }),
        }
    };
}

/// Runs `replay` on `alg`'s process stack, exactly as `run_once`
/// builds it, optionally batched and optionally wrapped in
/// [`Traced`] recording into `ledger`.
///
/// # Panics
///
/// Panics for an algorithm variant outside `Algorithm::STUDY`.
pub fn with_stack<R: Replay>(
    alg: Algorithm,
    batching: Option<BatchConfig>,
    ledger: Option<&Rc<RefCell<HandlerLedger>>>,
    replay: R,
) -> R::Output {
    match alg {
        Algorithm::Fd => stacks!(FdNode, batching, ledger, replay),
        Algorithm::Gm => stacks!(GmNode, batching, ledger, replay),
        Algorithm::Ring => stacks!(RingNode, batching, ledger, replay),
        other => panic!("{other:?} is not one of the benchmark's algorithms"),
    }
}

/// Simulator-side counters every replica reports.
#[derive(Clone, Debug, Default)]
pub struct SimCounters {
    /// Network-model counters for the whole run.
    pub net: NetStats,
    /// Events `run_until` processed.
    pub events: u64,
    /// Deepest the event queue got.
    pub queue_peak: u64,
    /// A-broadcasts scheduled (arrivals).
    pub abcasts: u64,
    /// Processes in the run.
    pub n: usize,
    /// Simulated end of the run.
    pub end: Time,
    /// Delivery-log entries the oracle judged.
    pub oracle_entries: u64,
}

/// The dimensions of a steady run — the fields of a `RunParams`,
/// which keeps them private.
#[derive(Clone, Copy, Debug)]
pub struct Steady {
    /// Group size.
    pub n: usize,
    /// Overall Poisson rate (1/s).
    pub throughput: f64,
    /// Network topology.
    pub model: NetworkModel,
    /// Batching knobs, if on.
    pub batching: Option<BatchConfig>,
    /// Warm-up window.
    pub warmup: Dur,
    /// Measurement window.
    pub measure: Dur,
    /// Drain window.
    pub drain: Dur,
}

/// `RunParams`' default saturation fraction.
const SATURATION_FRAC: f64 = 0.05;

impl Steady {
    /// The same dimensions as `run_once` parameters (every other knob
    /// at its default).
    pub fn params(&self) -> RunParams {
        let p = RunParams::new(self.n, self.throughput)
            .with_network_model(self.model)
            .with_warmup(self.warmup)
            .with_measure(self.measure)
            .with_drain(self.drain);
        match self.batching {
            Some(cfg) => p.with_batching(cfg),
            None => p,
        }
    }
}

/// What a steady replica observed.
#[derive(Clone, Debug)]
pub struct SteadyOutcome {
    /// Mean latency, as `SingleRun::mean_latency_ms`.
    pub mean_latency_ms: Option<f64>,
    /// As `SingleRun::measured`.
    pub measured: u64,
    /// As `SingleRun::undelivered`.
    pub undelivered: u64,
    /// As `SingleRun::latencies`.
    pub latencies: Vec<f64>,
    /// The oracle's verdict on the delivery logs.
    pub verdict: Result<(), Violation>,
    /// Simulator counters.
    pub sim: SimCounters,
    /// Phase timings.
    pub laps: Laps,
}

impl SteadyOutcome {
    /// `None` when the replica reproduced `run` exactly, else what
    /// differs.
    pub fn diff(&self, run: &SingleRun) -> Option<String> {
        let same_mean = match (self.mean_latency_ms, run.mean_latency_ms) {
            (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a.is_none() && b.is_none(),
        };
        let same_latencies = self.latencies.len() == run.latencies.len()
            && self
                .latencies
                .iter()
                .zip(&run.latencies)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let mut diffs = Vec::new();
        if !same_mean {
            diffs.push(format!(
                "mean {:?} vs {:?}",
                self.mean_latency_ms, run.mean_latency_ms
            ));
        }
        if self.measured != run.measured || self.undelivered != run.undelivered {
            diffs.push(format!(
                "measured/undelivered {}/{} vs {}/{}",
                self.measured, self.undelivered, run.measured, run.undelivered
            ));
        }
        if !same_latencies {
            diffs.push("latency samples differ".into());
        }
        if self.sim.net != run.net {
            diffs.push(format!("net {:?} vs {:?}", self.sim.net, run.net));
        }
        (!diffs.is_empty()).then(|| diffs.join("; "))
    }
}

/// Replays `run_once(alg, script, &shape.params(), seed)` on the
/// stack `with_stack` builds (see [`SteadyReplay`]).
pub struct SteadyReplay<'a> {
    /// Run dimensions.
    pub shape: &'a Steady,
    /// The (probe-free) fault script.
    pub script: &'a FaultScript,
    /// The run seed.
    pub seed: u64,
    /// Scratch recycled across runs.
    pub pool: &'a mut Pool,
}

impl Replay for SteadyReplay<'_> {
    type Output = SteadyOutcome;

    fn replay<P, F>(self, mut factory: F) -> SteadyOutcome
    where
        P: Process<Cmd = u64, Out = AbcastEvent<u64>>,
        F: FnMut(Pid, usize, &SuspectSet) -> P,
    {
        let SteadyReplay {
            shape,
            script,
            seed,
            pool,
        } = self;
        assert!(
            !script.has_probe(),
            "steady replicas replay probe-free scripts"
        );
        let n = shape.n;
        let mut laps = Laps::start();
        let end = Time::ZERO + shape.warmup + shape.measure + shape.drain;
        let compiled = script.compile(n, shape.warmup, end, seed);
        let initial = compiled.initial_suspects().clone();
        laps.lap(Phase::Compile);

        let send_horizon = Time::ZERO + shape.warmup + shape.measure;
        let ancient = compiled.ancient_crashes();
        let senders: Vec<Pid> = Pid::all(n).filter(|p| !ancient.contains(p)).collect();
        let arrivals = poisson_arrivals(
            n,
            shape.throughput,
            send_horizon,
            &senders,
            derive_seed(seed, 0x40AD),
        );
        laps.lap(Phase::Arrivals);

        let mut sim: Sim<P> = SimBuilder::new(n)
            .seed(seed)
            .network(NetParams::default().with_model(shape.model))
            .schedule(Schedule::Fifo)
            .build_with_scratch(|p| factory(p, n, &initial), pool.take::<P>());
        laps.lap(Phase::Build);

        schedule_injections(&mut sim, &compiled);
        let mut send_times: BTreeMap<u64, (Time, Pid)> = BTreeMap::new();
        for &(t, p, payload) in &arrivals {
            send_times.insert(payload, (t, p));
            sim.schedule_command(t, p, payload);
        }
        laps.lap(Phase::Schedule);

        let events = sim.run_until(end) as u64;
        laps.lap(Phase::Run);

        let outputs = sim.take_outputs();
        let sim_counters = SimCounters {
            net: sim.net_stats(),
            events,
            queue_peak: sim.event_queue_peak(),
            abcasts: arrivals.len() as u64,
            n,
            end,
            oracle_entries: 0,
        };
        pool.put::<P>(sim.into_scratch());
        laps.lap(Phase::Collect);

        let mut first_delivery: BTreeMap<u64, Time> = BTreeMap::new();
        for (t, _, ev) in &outputs {
            let AbcastEvent::Delivered { payload, .. } = ev;
            first_delivery.entry(*payload).or_insert(*t);
        }
        let downtime = down_intervals(&compiled, n);
        let w0 = Time::ZERO + shape.warmup;
        let mut lat = Running::new();
        let mut latencies = Reservoir::new(DEFAULT_LATENCY_SAMPLE_CAP, derive_seed(seed, 0x1A7E));
        let mut measured = 0u64;
        let mut undelivered = 0u64;
        let mut must_deliver = BTreeSet::new();
        for (payload, (sent, sender)) in &send_times {
            if *sent < w0 || *sent >= send_horizon {
                continue;
            }
            if down_at(&downtime[sender.index()], *sent) {
                continue;
            }
            measured += 1;
            must_deliver.insert(*payload);
            match first_delivery.get(payload) {
                Some(t) => {
                    let l = (*t - *sent).as_millis_f64();
                    lat.push(l);
                    latencies.push(l);
                }
                None => undelivered += 1,
            }
        }
        let saturated = measured == 0 || (undelivered as f64) > SATURATION_FRAC * measured as f64;
        let mean_latency_ms = (!saturated && !lat.is_empty()).then(|| lat.mean());
        let latencies = latencies.into_samples();
        laps.lap(Phase::Post);

        // Every measured broadcast is owed to every process that was
        // never down; anything delivered must have been sent.
        let logs = oracle::delivery_logs(n, outputs);
        let exp = Expectations {
            sent: send_times.keys().copied().collect(),
            must_deliver,
            correct: Pid::all(n)
                .filter(|p| downtime[p.index()].is_empty())
                .collect(),
        };
        let verdict = oracle::check(&logs, &exp);
        let oracle_entries = logs.iter().map(Vec::len).sum::<usize>() as u64;
        laps.lap(Phase::Oracle);

        SteadyOutcome {
            mean_latency_ms,
            measured,
            undelivered,
            latencies,
            verdict,
            sim: SimCounters {
                oracle_entries,
                ..sim_counters
            },
            laps,
        }
    }
}

fn schedule_injections<P: Process>(sim: &mut Sim<P>, compiled: &CompiledScript) {
    for (at, act) in compiled.entries() {
        match act {
            study::ScriptAction::Inject(inj) => sim.schedule_injection(*at, inj.clone()),
            study::ScriptAction::Probe(_) => unreachable!("replicas replay probe-free scripts"),
        }
    }
}

type Intervals = Vec<(Time, Option<Time>)>;

fn down_at(intervals: &Intervals, at: Time) -> bool {
    intervals
        .iter()
        .any(|(from, until)| at >= *from && until.is_none_or(|u| at < u))
}

/// Per-process down intervals `[crash, recover)`, read back from the
/// compiled injection stream (as the runner computes them).
fn down_intervals(compiled: &CompiledScript, n: usize) -> Vec<Intervals> {
    let mut edges: Vec<(Time, bool, Pid)> = compiled
        .entries()
        .iter()
        .filter_map(|(t, a)| match a {
            study::ScriptAction::Inject(Injection::Crash(p)) => Some((*t, true, *p)),
            study::ScriptAction::Inject(Injection::Recover(p)) => Some((*t, false, *p)),
            _ => None,
        })
        .collect();
    edges.sort_by_key(|(t, is_crash, _)| (*t, !*is_crash));
    let mut down: Vec<Intervals> = vec![Vec::new(); n];
    for (t, is_crash, p) in edges {
        let intervals = &mut down[p.index()];
        if is_crash {
            if !matches!(intervals.last(), Some((_, None))) {
                intervals.push((t, None));
            }
        } else if let Some((_, until @ None)) = intervals.last_mut() {
            *until = Some(t);
        }
    }
    down
}
