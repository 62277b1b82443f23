//! The traced pass's instruments: a [`Traced`] process wrapper that
//! times every handler call into the node it wraps, attributes the
//! call to a protocol layer, and counts the sends and allocations the
//! call makes.
//!
//! Everything is measured from outside the program: the wrapper sits
//! between the simulator and the node, exactly where the kernel calls
//! in, and forwards every call and every context operation unchanged,
//! so a traced run is the same execution as an untraced one (the
//! traced pass checks this against `study::run_once` on every run).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use abcast::{FdCastMsg, GmCastMsg};
use neko::{Ctx, Dur, FdEvent, Message, Pid, Process, Time, TimerId};
use rand::RngCore;
use ringpaxos::RingMsg;

use crate::alloc;

/// The layers a handler call is attributed to.
///
/// `on_message` calls go to the layer of the incoming message's
/// variant (the first five); the other handlers go to the `abcast`
/// shell's handler kind (the last three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Reliable-broadcast dissemination (`Data`).
    Rbcast,
    /// Consensus instances (`Cons`).
    Consensus,
    /// GM's fixed sequencer (`Seq`, `AckSn`, `AckUpTo`, `Deliver`).
    GmSeq,
    /// GM's membership: view changes and state transfer (`Gm`,
    /// `StateReq`, `StateResp`).
    Membership,
    /// FD/Ring stall repair and Ring payload repair (`Nudge`,
    /// `Fetch`, `Fwd`).
    Repair,
    /// `on_command`: an A-broadcast (a whole pack under batching).
    Command,
    /// `on_timer` and `on_start` (which arms the periodic probes).
    Timer,
    /// `on_fd` and `on_recover`.
    Fd,
}

/// Every layer, in ledger order.
pub const LAYERS: [Layer; 8] = [
    Layer::Rbcast,
    Layer::Consensus,
    Layer::GmSeq,
    Layer::Membership,
    Layer::Repair,
    Layer::Command,
    Layer::Timer,
    Layer::Fd,
];

impl Layer {
    /// The layer's name in metric names and the ledger.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rbcast => "rbcast",
            Layer::Consensus => "consensus",
            Layer::GmSeq => "gm.seq",
            Layer::Membership => "membership",
            Layer::Repair => "repair",
            Layer::Command => "abcast.command",
            Layer::Timer => "abcast.timer",
            Layer::Fd => "abcast.fd",
        }
    }
}

/// Maps a wire message to the layer that handles it.
pub trait Classify {
    /// The layer whose handler receives this message.
    fn layer(&self) -> Layer;
}

impl<P> Classify for FdCastMsg<P> {
    fn layer(&self) -> Layer {
        match self {
            FdCastMsg::Data(_) => Layer::Rbcast,
            FdCastMsg::Cons { .. } => Layer::Consensus,
            FdCastMsg::Nudge { .. } => Layer::Repair,
        }
    }
}

impl<P> Classify for GmCastMsg<P> {
    fn layer(&self) -> Layer {
        match self {
            GmCastMsg::Data { .. } => Layer::Rbcast,
            GmCastMsg::Seq { .. }
            | GmCastMsg::AckSn { .. }
            | GmCastMsg::AckUpTo { .. }
            | GmCastMsg::Deliver { .. } => Layer::GmSeq,
            GmCastMsg::Gm(_) | GmCastMsg::StateReq { .. } | GmCastMsg::StateResp { .. } => {
                Layer::Membership
            }
        }
    }
}

impl<P> Classify for RingMsg<P> {
    fn layer(&self) -> Layer {
        match self {
            RingMsg::Data(_) => Layer::Rbcast,
            RingMsg::Cons { .. } => Layer::Consensus,
            RingMsg::Nudge { .. } | RingMsg::Fetch { .. } | RingMsg::Fwd { .. } => Layer::Repair,
        }
    }
}

/// Calls, time, allocations and sends of one layer (or of the
/// batching shell).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Handler calls.
    pub calls: u64,
    /// Wall time inside those calls, in nanoseconds.
    pub ns: u64,
    /// Allocations made during those calls.
    pub allocs: u64,
    /// Messages of this layer's variants sent (one per `send`,
    /// `multicast` or `broadcast` call, as `NetStats::send_calls`
    /// counts them).
    pub sent: u64,
}

impl Counters {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.allocs += other.allocs;
        self.sent += other.sent;
    }
}

/// The handler-level counters of one run, shared by every wrapper of
/// that run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HandlerLedger {
    /// Per layer, indexed like [`LAYERS`].
    pub layers: [Counters; 8],
    /// The batching shell's calls (outer wrapper of `Batched`); its
    /// time includes the inner node's.
    pub shell: Counters,
    /// The nodes' calls back into the kernel through the context
    /// (`send`, `multicast`, `broadcast`, `set_timer`,
    /// `cancel_timer`, `emit`): kernel and network-model work done
    /// inside handler calls.
    pub kernel: Counters,
    /// A-broadcast payloads handed to the outermost node.
    pub payloads: u64,
}

impl HandlerLedger {
    /// Counters of one layer.
    pub fn layer(&self, l: Layer) -> &Counters {
        &self.layers[l as usize]
    }

    /// The protocol nodes' own time, all layers.
    pub fn node_ns(&self) -> u64 {
        self.layers.iter().map(|c| c.ns).sum()
    }

    /// The batching shell's own time: the outer wrapper's, minus the
    /// inner node's and the kernel callbacks made under it.
    pub fn batch_self_ns(&self) -> u64 {
        if self.shell.calls > 0 {
            self.shell
                .ns
                .saturating_sub(self.node_ns() + self.kernel.ns)
        } else {
            0
        }
    }

    /// Protocol code's own time: every layer plus the batching shell,
    /// without the kernel callbacks.
    pub fn protocol_ns(&self) -> u64 {
        self.node_ns() + self.batch_self_ns()
    }

    /// Messages sent, all layers.
    pub fn sent(&self) -> u64 {
        self.layers.iter().map(|c| c.sent).sum()
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &HandlerLedger) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.add(b);
        }
        self.shell.add(&other.shell);
        self.kernel.add(&other.kernel);
        self.payloads += other.payloads;
    }
}

/// Where a [`Traced`] wrapper sits in the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Wraps a protocol node that the kernel calls directly.
    Node,
    /// Wraps a protocol node inside `abcast::Batched`.
    InnerNode,
    /// Wraps the `abcast::Batched` shell itself.
    Shell,
}

/// A process wrapper that times and counts every handler call into
/// `inner`, recording into a ledger shared by the whole run. Time the
/// node spends calling back into the kernel (sends, timers, outputs)
/// is split off into [`HandlerLedger::kernel`], so a layer's time is
/// its own code's.
pub struct Traced<N> {
    inner: N,
    role: Role,
    ledger: Rc<RefCell<HandlerLedger>>,
}

impl<N> Traced<N> {
    /// Wraps `inner` in the given role.
    pub fn new(inner: N, role: Role, ledger: Rc<RefCell<HandlerLedger>>) -> Self {
        Traced {
            inner,
            role,
            ledger,
        }
    }
}

impl<N: Process> Traced<N>
where
    N::Msg: Classify,
{
    fn call(
        &mut self,
        ctx: &mut dyn Ctx<N::Msg, N::Out>,
        layer: Layer,
        f: impl FnOnce(&mut N, &mut dyn Ctx<N::Msg, N::Out>),
    ) {
        let Traced {
            inner,
            role,
            ledger,
        } = self;
        let allocs = alloc::allocations();
        let start = Instant::now();
        let mut kernel = Counters::default();
        if *role == Role::Shell {
            f(inner, ctx);
        } else {
            let mut counting = CountingCtx {
                ctx,
                ledger,
                kernel: &mut kernel,
            };
            f(inner, &mut counting);
        }
        let ns = start.elapsed().as_nanos() as u64;
        let allocs = alloc::allocations() - allocs;
        let mut l = ledger.borrow_mut();
        l.kernel.add(&kernel);
        let c = match role {
            Role::Shell => &mut l.shell,
            Role::Node | Role::InnerNode => &mut l.layers[layer as usize],
        };
        c.calls += 1;
        c.ns += ns.saturating_sub(kernel.ns);
        c.allocs += allocs;
    }
}

impl<N: Process> Process for Traced<N>
where
    N::Msg: Classify,
{
    type Msg = N::Msg;
    type Cmd = N::Cmd;
    type Out = N::Out;

    fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.call(ctx, Layer::Timer, |n, c| n.on_start(c));
    }

    fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: Self::Cmd) {
        if self.role != Role::InnerNode {
            self.ledger.borrow_mut().payloads += 1;
        }
        self.call(ctx, Layer::Command, |n, c| n.on_command(c, cmd));
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: Self::Msg) {
        let layer = msg.layer();
        self.call(ctx, layer, |n, c| n.on_message(c, from, msg));
    }

    fn on_fd(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, ev: FdEvent) {
        self.call(ctx, Layer::Fd, |n, c| n.on_fd(c, ev));
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
        self.call(ctx, Layer::Timer, |n, c| n.on_timer(c, id, tag));
    }

    fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.call(ctx, Layer::Fd, |n, c| n.on_recover(c));
    }
}

/// A [`Ctx`] that forwards everything, counts sends by the outgoing
/// message's layer (the pattern of `abcast::batch`'s `Unbatch`), and
/// times the calls that do kernel work.
struct CountingCtx<'a, 'c, M: Message, O> {
    ctx: &'a mut (dyn Ctx<M, O> + 'c),
    ledger: &'a RefCell<HandlerLedger>,
    kernel: &'a mut Counters,
}

impl<M: Message + Classify, O> CountingCtx<'_, '_, M, O> {
    fn count(&self, msg: &M) {
        self.ledger.borrow_mut().layers[msg.layer() as usize].sent += 1;
    }

    fn kernel<R>(&mut self, f: impl FnOnce(&mut dyn Ctx<M, O>) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut *self.ctx);
        self.kernel.calls += 1;
        self.kernel.ns += start.elapsed().as_nanos() as u64;
        r
    }
}

impl<M: Message + Classify, O> Ctx<M, O> for CountingCtx<'_, '_, M, O> {
    fn now(&self) -> Time {
        self.ctx.now()
    }

    fn pid(&self) -> Pid {
        self.ctx.pid()
    }

    fn n(&self) -> usize {
        self.ctx.n()
    }

    fn send(&mut self, to: Pid, msg: M) {
        self.count(&msg);
        self.kernel(|c| c.send(to, msg));
    }

    fn multicast(&mut self, dests: &[Pid], msg: M) {
        self.count(&msg);
        self.kernel(|c| c.multicast(dests, msg));
    }

    fn broadcast(&mut self, msg: M) {
        self.count(&msg);
        self.kernel(|c| c.broadcast(msg));
    }

    fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId {
        self.kernel(|c| c.set_timer(after, tag))
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.kernel(|c| c.cancel_timer(id));
    }

    fn emit(&mut self, out: O) {
        self.kernel(|c| c.emit(out));
    }

    fn is_suspected(&self, p: Pid) -> bool {
        self.ctx.is_suspected(p)
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.ctx.rng()
    }
}
