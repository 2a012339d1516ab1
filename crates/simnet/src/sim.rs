//! The event loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};
use tensor::TensorRng;

use crate::delay::DelayModel;
use crate::fault::{FaultPlan, FaultVerdict};
use crate::stats::{DeliveryRecord, TrafficStats};
use crate::time::SimTime;
use crate::topo::{Admission, Receipt, SwitchedConfig, SwitchedNet};

/// Identifies a node within one simulation (dense indices from 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Behaviour of a simulated node.
///
/// Nodes are single-threaded state machines: the simulator calls
/// [`SimNode::on_start`] once, then [`SimNode::on_message`] for every
/// delivered message, in global timestamp order. All outgoing traffic goes
/// through the [`Context`].
pub trait SimNode<M> {
    /// Called once before any message flows, in node-id order.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called on every delivery addressed to this node.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<'_, M>);
}

/// A node's handle on the network during a callback.
///
/// Sends are buffered and scheduled when the callback returns, so a node
/// never observes its own sends within one activation.
pub struct Context<'a, M> {
    me: NodeId,
    now: SimTime,
    node_count: usize,
    outbox: &'a mut Vec<Outgoing<M>>,
    halt: &'a mut bool,
}

struct Outgoing<M> {
    to: NodeId,
    msg: M,
    bytes: usize,
    /// Local processing time before the message leaves the sender.
    after_secs: f64,
    /// Covert-channel send: zero delay, bypasses the physical model and the
    /// adversarial schedule.
    instant: bool,
}

impl<M> Context<'_, M> {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Sends `msg` (`bytes` long on the wire) to `to`.
    pub fn send(&mut self, to: NodeId, msg: M, bytes: usize) {
        self.outbox.push(Outgoing {
            to,
            msg,
            bytes,
            after_secs: 0.0,
            instant: false,
        });
    }

    /// Sends after `after_secs` of local compute time (e.g. a gradient
    /// computation) — the message enters the network at `now + after_secs`.
    pub fn send_after(&mut self, after_secs: f64, to: NodeId, msg: M, bytes: usize) {
        self.outbox.push(Outgoing {
            to,
            msg,
            bytes,
            after_secs,
            instant: false,
        });
    }

    /// Covert-channel send between colluding Byzantine nodes: delivered
    /// with zero delay, invisible to the physical delay model and to the
    /// [`FaultPlan`] (the adversary does not throttle itself).
    pub fn send_instant(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Outgoing {
            to,
            msg,
            bytes: 0,
            after_secs: 0.0,
            instant: true,
        });
    }

    /// Stops the simulation after the current callback.
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

/// A message in flight through the switched fabric: carries its payload
/// across hops and retransmission attempts, so no `Clone` bound is needed
/// on `M`.
struct Packet<M> {
    from: NodeId,
    to: NodeId,
    bytes: usize,
    /// Departure time of the *first* attempt (latency is measured from
    /// here, across retransmissions — that is what the application sees).
    sent: SimTime,
    /// Go-back-n sequence number within the `(from, to)` flow.
    flow_seq: u64,
    /// Retransmission attempt counter (0 = first try).
    attempt: u32,
    /// Index into the route: which link the packet is about to enter.
    hop: usize,
    /// Fault-plan + adversarial extra latency, applied once at delivery.
    extra_secs: f64,
    msg: M,
}

/// Deterministic retry jitter: FNV-1a over the packet's identity. Spreads
/// the retries of distinct packets apart so backed-off flows do not
/// re-collide in lockstep; a pure function of identity, so replays agree.
fn retry_jitter<M>(pkt: &Packet<M>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [
        pkt.from.0 as u64,
        pkt.to.0 as u64,
        pkt.flow_seq,
        u64::from(pkt.attempt),
    ] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

enum EventKind<M> {
    /// Hand the message to the destination node.
    Deliver {
        from: NodeId,
        to: NodeId,
        bytes: usize,
        sent: SimTime,
        msg: M,
    },
    /// A switched-mode packet arriving at the entrance of its next link.
    Hop(Packet<M>),
}

struct Event<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A seeded, deterministic discrete-event network simulator.
///
/// See the crate docs for the model; see [`Simulator::run`] for the loop.
pub struct Simulator<M> {
    nodes: Vec<Box<dyn SimNode<M>>>,
    queue: BinaryHeap<Reverse<Event<M>>>,
    now: SimTime,
    seq: u64,
    rng: TensorRng,
    delay: DelayModel,
    faults: FaultPlan,
    stats: TrafficStats,
    deadline: Option<SimTime>,
    max_events: Option<u64>,
    switched: Option<SwitchedNet>,
}

impl<M> Simulator<M> {
    /// Creates a simulator with the given seed and physical delay model.
    pub fn new(seed: u64, delay: DelayModel) -> Self {
        Simulator {
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: TensorRng::new(seed),
            delay,
            faults: FaultPlan::none(),
            stats: TrafficStats::new(0, false),
            deadline: None,
            max_events: None,
            switched: None,
        }
    }

    /// Installs a scripted [`FaultPlan`] (builder style). The plan judges
    /// every non-covert message at send time: dropped messages never enter
    /// the event queue (counted in `TrafficStats::messages_dropped`);
    /// delayed ones pick up the matching rules' delay. Covert sends
    /// ([`Context::send_instant`]) bypass the plan — the adversary's own
    /// network neither fails nor throttles itself.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Routes all non-covert traffic through a switched fabric instead of
    /// sampling independent per-message delays (builder style): messages
    /// traverse finite-bandwidth links hop by hop, contend in drop-tail
    /// queues, and queue-overflow losses are retried go-back-n style until
    /// a retry budget is exhausted — only then do they surface in
    /// `TrafficStats::messages_dropped`, exactly like a scripted fault.
    ///
    /// In this mode the [`DelayModel`] and the simulator RNG are not
    /// consulted for transit times (transit is a pure function of link
    /// state), a [`FaultPlan`] judges each message once at first departure
    /// with its `extra_delay_secs` added to final delivery (delay
    /// *factors* have nothing to scale and are inert), and the adversarial
    /// schedule likewise contributes only additive extras. Covert sends
    /// still bypass everything.
    ///
    /// A single message larger than `cfg.queue_bytes` can never be
    /// admitted to a link; size queues to hold at least one full message.
    #[must_use]
    pub fn with_switched(mut self, cfg: SwitchedConfig) -> Self {
        self.switched = Some(SwitchedNet::new(cfg));
        self
    }

    /// Enables full delivery tracing (costs memory per message).
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.stats.tracing = true;
        self
    }

    /// Stops the run when simulated time reaches `t` (events after `t` stay
    /// queued).
    #[must_use]
    pub fn with_deadline(mut self, t: SimTime) -> Self {
        self.deadline = Some(t);
        self
    }

    /// Stops the run after delivering `n` events.
    #[must_use]
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = Some(n);
        self
    }

    /// Registers a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn SimNode<M>>) -> NodeId {
        self.nodes.push(node);
        self.stats.grow(self.nodes.len());
        NodeId(self.nodes.len() - 1)
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters (and trace, if enabled).
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Immutable access to a node, for post-run inspection. Callers
    /// downcast via their own means (typically by owning typed wrappers).
    pub fn node(&self, id: NodeId) -> &dyn SimNode<M> {
        self.nodes[id.0].as_ref()
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn schedule(&mut self, from: NodeId, out: Outgoing<M>) {
        let depart = self.now.after_secs(out.after_secs);
        if out.instant {
            self.stats.on_send(from, out.bytes);
            let seq = self.next_seq();
            self.queue.push(Reverse(Event {
                at: depart,
                seq,
                kind: EventKind::Deliver {
                    from,
                    to: out.to,
                    bytes: out.bytes,
                    sent: depart,
                    msg: out.msg,
                },
            }));
            return;
        }
        if self.switched.is_some() {
            self.schedule_switched(from, out, depart);
            return;
        }
        // Physical delay is always sampled (keeps the RNG stream
        // identical with and without a fault plan), then the plan acts
        // on it.
        let physical = self.delay.sample(out.bytes, &mut self.rng);
        let transit = match self.faults.judge(depart, from, out.to, self.seq, physical) {
            FaultVerdict::Drop => {
                self.stats.on_send(from, out.bytes);
                self.stats.on_drop();
                self.seq += 1;
                return;
            }
            FaultVerdict::Deliver { extra_delay_secs } => physical + extra_delay_secs,
        };
        let at = depart.after_secs(transit);
        self.stats.on_send(from, out.bytes);
        let seq = self.next_seq();
        self.queue.push(Reverse(Event {
            at,
            seq,
            kind: EventKind::Deliver {
                from,
                to: out.to,
                bytes: out.bytes,
                sent: depart,
                msg: out.msg,
            },
        }));
    }

    /// Switched-mode send: judge the fault plan once at departure, stamp a
    /// go-back-n sequence number and launch the packet at its first hop.
    fn schedule_switched(&mut self, from: NodeId, out: Outgoing<M>, depart: SimTime) {
        self.stats.on_send(from, out.bytes);
        // Judged with zero base delay: scripted drops (crashes, partitions)
        // are permanent — the transport gives up immediately rather than
        // retrying into a dead endpoint — and extras ride on delivery.
        let extra = match self.faults.judge(depart, from, out.to, self.seq, 0.0) {
            FaultVerdict::Drop => {
                self.stats.on_drop();
                self.seq += 1;
                return;
            }
            FaultVerdict::Deliver { extra_delay_secs } => extra_delay_secs,
        };
        if out.to.0 >= self.nodes.len() {
            // No such host in the topology; mirrors the base path, where a
            // message to an unknown node is skipped at delivery time.
            self.seq += 1;
            return;
        }
        let net = self.switched.as_mut().expect("switched mode");
        let flow_seq = net.next_flow_seq(from.0, out.to.0);
        let seq = self.next_seq();
        self.queue.push(Reverse(Event {
            at: depart,
            seq,
            kind: EventKind::Hop(Packet {
                from,
                to: out.to,
                bytes: out.bytes,
                sent: depart,
                flow_seq,
                attempt: 0,
                hop: 0,
                extra_secs: extra,
                msg: out.msg,
            }),
        }));
    }

    /// Retries `pkt` from its first hop after the retransmission timeout,
    /// or abandons it (a permanent, recovery-visible drop) once the retry
    /// budget is spent.
    ///
    /// Retries back off exponentially (doubling per attempt, capped at
    /// 64·rto) with a deterministic per-packet jitter in `[0, rto)`.
    /// A fixed retry period livelocks under deterministic contention:
    /// every loser of an admission race retries in lockstep, the event
    /// tie-break picks the same winners forever, and the losers starve
    /// until their budget dies. Backoff and jitter depend only on packet
    /// identity, so same-seed replays stay bit-identical.
    fn retry_or_abandon(&mut self, mut pkt: Packet<M>, cfg: &SwitchedConfig) {
        if pkt.attempt < cfg.max_retries {
            pkt.attempt += 1;
            pkt.hop = 0;
            self.stats.retransmits += 1;
            let backoff = cfg.rto * f64::from(1u32 << pkt.attempt.min(6));
            let jitter = cfg.rto * (retry_jitter(&pkt) % 1024) as f64 / 1024.0;
            let at = self.now.after_secs(backoff + jitter);
            let seq = self.next_seq();
            self.queue.push(Reverse(Event {
                at,
                seq,
                kind: EventKind::Hop(pkt),
            }));
        } else {
            let net = self.switched.as_mut().expect("switched mode");
            net.give_up(pkt.from.0, pkt.to.0, pkt.flow_seq);
            self.stats.on_drop();
        }
    }

    /// Processes a packet arriving at the entrance of its next link at
    /// `self.now`: drop-tail admission, then either the next hop or —
    /// on the final link — the go-back-n receive check and delivery.
    fn hop(&mut self, pkt: Packet<M>) {
        let net = self.switched.as_mut().expect("switched mode");
        let cfg = *net.cfg();
        let route = net.route(pkt.from.0, pkt.to.0);
        let link = route.as_slice()[pkt.hop];
        let last = pkt.hop + 1 == route.len();
        match net.admit(link, pkt.bytes, self.now) {
            Admission::Dropped => {
                self.stats.queue_drops += 1;
                self.retry_or_abandon(pkt, &cfg);
            }
            Admission::Queued {
                exit,
                backlog_bytes,
            } => {
                self.stats.peak_queue_bytes = self.stats.peak_queue_bytes.max(backlog_bytes);
                let arrival = exit.after_secs(cfg.hop_latency);
                if !last {
                    let mut pkt = pkt;
                    pkt.hop += 1;
                    let seq = self.next_seq();
                    self.queue.push(Reverse(Event {
                        at: arrival,
                        seq,
                        kind: EventKind::Hop(pkt),
                    }));
                    return;
                }
                // Final link: the go-back-n check runs at the entrance —
                // the link is FIFO, so entrance order equals exit order
                // and the verdict is the same either way.
                let net = self.switched.as_mut().expect("switched mode");
                match net.receive(pkt.from.0, pkt.to.0, pkt.flow_seq) {
                    Receipt::Deliver => {
                        let at = arrival.after_secs(pkt.extra_secs);
                        let seq = self.next_seq();
                        self.queue.push(Reverse(Event {
                            at,
                            seq,
                            kind: EventKind::Deliver {
                                from: pkt.from,
                                to: pkt.to,
                                bytes: pkt.bytes,
                                sent: pkt.sent,
                                msg: pkt.msg,
                            },
                        }));
                    }
                    Receipt::OutOfOrder => {
                        // An earlier packet of the flow is still in
                        // flight (or being retried): go-back-n discards
                        // and the sender retries after the timeout.
                        self.stats.ooo_discards += 1;
                        self.retry_or_abandon(pkt, &cfg);
                    }
                    Receipt::Stale => {
                        // Duplicate of an already-accepted sequence
                        // number; unreachable with one packet per seq,
                        // kept as a defensive sink so accounting stays
                        // conservative (sent = delivered + dropped).
                        self.stats.ooo_discards += 1;
                        self.stats.on_drop();
                    }
                }
            }
        }
    }

    fn activate<F>(&mut self, id: NodeId, f: F) -> bool
    where
        F: FnOnce(&mut dyn SimNode<M>, &mut Context<'_, M>),
    {
        let mut outbox = Vec::new();
        let mut halt = false;
        let node_count = self.nodes.len();
        // Take the node out so the context can't alias it.
        let mut node = std::mem::replace(
            &mut self.nodes[id.0],
            Box::new(InertNode) as Box<dyn SimNode<M>>,
        );
        {
            let mut ctx = Context {
                me: id,
                now: self.now,
                node_count,
                outbox: &mut outbox,
                halt: &mut halt,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[id.0] = node;
        for out in outbox {
            self.schedule(id, out);
        }
        halt
    }

    /// Runs to completion: calls every node's `on_start`, then delivers
    /// events in timestamp order until the queue empties, a node halts, the
    /// deadline passes, or the event budget is exhausted.
    ///
    /// Returns the number of delivered messages.
    pub fn run(&mut self) -> u64 {
        let n = self.nodes.len();
        if let Some(net) = self.switched.as_mut() {
            net.ensure(n);
        }
        for i in 0..n {
            if self.activate(NodeId(i), |node, ctx| node.on_start(ctx)) {
                return 0;
            }
        }
        let mut delivered = 0u64;
        while let Some(Reverse(ev)) = self.queue.pop() {
            if let Some(deadline) = self.deadline {
                if ev.at > deadline {
                    self.queue.push(Reverse(ev));
                    break;
                }
            }
            self.now = ev.at;
            match ev.kind {
                EventKind::Hop(pkt) => self.hop(pkt),
                EventKind::Deliver {
                    from,
                    to,
                    bytes,
                    sent,
                    msg,
                } => {
                    if to.0 >= self.nodes.len() {
                        continue; // message to an unknown node: dropped
                    }
                    self.stats.on_deliver(DeliveryRecord {
                        from,
                        to,
                        bytes,
                        sent,
                        delivered: ev.at,
                    });
                    delivered += 1;
                    let halted = self.activate(to, |node, ctx| node.on_message(from, msg, ctx));
                    if halted {
                        break;
                    }
                    if let Some(max) = self.max_events {
                        if delivered >= max {
                            break;
                        }
                    }
                }
            }
        }
        delivered
    }
}

/// Placeholder node swapped in while a real node is activated; it should
/// never receive traffic (a node cannot message itself synchronously).
struct InertNode;
impl<M> SimNode<M> for InertNode {
    fn on_message(&mut self, _from: NodeId, _msg: M, _ctx: &mut Context<'_, M>) {
        unreachable!("inert placeholder node activated");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts messages it receives; replies until a hop budget is spent.
    struct Counter {
        received: usize,
        hops: u32,
    }

    impl SimNode<u32> for Counter {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(1), self.hops, 8);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
            self.received += 1;
            if msg > 0 {
                ctx.send(from, msg - 1, 8);
            }
        }
    }

    fn ping_pong(hops: u32) -> u64 {
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.01 });
        sim.add_node(Box::new(Counter { received: 0, hops }));
        sim.add_node(Box::new(Counter { received: 0, hops }));
        sim.run()
    }

    #[test]
    fn ping_pong_delivers_hops_plus_one() {
        assert_eq!(ping_pong(0), 1);
        assert_eq!(ping_pong(5), 6);
    }

    #[test]
    fn time_advances_with_fixed_delay() {
        struct Once;
        impl SimNode<()> for Once {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), (), 1);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
        }
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.25 });
        sim.add_node(Box::new(Once));
        sim.add_node(Box::new(Once));
        sim.run();
        assert!((sim.now().as_secs_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let mut sim = Simulator::new(9, DelayModel::Exponential { mean: 0.01 }).with_tracing();
            sim.add_node(Box::new(Counter {
                received: 0,
                hops: 20,
            }));
            sim.add_node(Box::new(Counter {
                received: 0,
                hops: 20,
            }));
            sim.run();
            sim.stats()
                .trace
                .iter()
                .map(|r| r.delivered)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deadline_stops_early() {
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 1.0 })
            .with_deadline(SimTime::from_secs_f64(2.5));
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 100,
        }));
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 100,
        }));
        let delivered = sim.run();
        assert_eq!(delivered, 2, "only events at t=1 and t=2 fit");
    }

    #[test]
    fn max_events_budget() {
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.001 }).with_max_events(3);
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 100,
        }));
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 100,
        }));
        assert_eq!(sim.run(), 3);
    }

    #[test]
    fn halt_stops_simulation() {
        struct Halter;
        impl SimNode<u8> for Halter {
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), 1, 1);
                    ctx.send(NodeId(1), 2, 1);
                    ctx.send(NodeId(1), 3, 1);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: u8, ctx: &mut Context<'_, u8>) {
                ctx.halt();
            }
        }
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.01 });
        sim.add_node(Box::new(Halter));
        sim.add_node(Box::new(Halter));
        assert_eq!(sim.run(), 1);
    }

    #[test]
    fn instant_sends_beat_physical_messages() {
        // Node 0 sends a physical message to 2 at t0, node 1 covertly to 2.
        // The covert message must arrive first despite being sent at the
        // same instant.
        struct Sender {
            covert: bool,
        }
        struct Receiver {
            order: Vec<NodeId>,
        }
        enum Msg {
            Payload,
        }
        impl SimNode<Msg> for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if self.covert {
                    ctx.send_instant(NodeId(2), Msg::Payload);
                } else {
                    ctx.send(NodeId(2), Msg::Payload, 1000);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: Msg, _c: &mut Context<'_, Msg>) {}
        }
        impl SimNode<Msg> for Receiver {
            fn on_message(&mut self, from: NodeId, _m: Msg, _c: &mut Context<'_, Msg>) {
                self.order.push(from);
            }
        }
        let mut sim = Simulator::new(3, DelayModel::Fixed { seconds: 0.5 });
        sim.add_node(Box::new(Sender { covert: false })); // node 0
        sim.add_node(Box::new(Sender { covert: true })); // node 1
        sim.add_node(Box::new(Receiver { order: Vec::new() }));
        sim.run();
        // We can't easily read the receiver back without downcasting;
        // check via trace instead.
        let mut sim = Simulator::new(3, DelayModel::Fixed { seconds: 0.5 }).with_tracing();
        sim.add_node(Box::new(Sender { covert: false }));
        sim.add_node(Box::new(Sender { covert: true }));
        sim.add_node(Box::new(Receiver { order: Vec::new() }));
        sim.run();
        let trace = &sim.stats().trace;
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].from, NodeId(1), "covert message first");
        assert_eq!(trace[0].latency_secs(), 0.0);
        assert_eq!(trace[1].from, NodeId(0));
    }

    #[test]
    fn send_after_models_compute_time() {
        struct Computer;
        impl SimNode<()> for Computer {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send_after(1.0, NodeId(1), (), 1);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
        }
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.5 }).with_tracing();
        sim.add_node(Box::new(Computer));
        sim.add_node(Box::new(Computer));
        sim.run();
        let rec = &sim.stats().trace[0];
        assert!((rec.sent.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((rec.delivered.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn adversarial_congestion_delays_victim() {
        use crate::fault::{FaultEffect, FaultRule, LinkScope};
        let plan = FaultPlan::none().with_rule(FaultRule {
            scope: LinkScope::To(NodeId(1)),
            start: SimTime::ZERO,
            end: SimTime(u64::MAX),
            effect: FaultEffect::Delay {
                factor: 100.0,
                extra_secs: 0.0,
            },
        });
        struct Once;
        impl SimNode<()> for Once {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), (), 1);
                    ctx.send(NodeId(2), (), 1);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
        }
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.01 })
            .with_faults(plan)
            .with_tracing();
        sim.add_node(Box::new(Once));
        sim.add_node(Box::new(Once));
        sim.add_node(Box::new(Once));
        sim.run();
        let trace = &sim.stats().trace;
        let to1 = trace.iter().find(|r| r.to == NodeId(1)).unwrap();
        let to2 = trace.iter().find(|r| r.to == NodeId(2)).unwrap();
        assert!((to1.latency_secs() - 1.0).abs() < 1e-9);
        assert!((to2.latency_secs() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn fault_plan_drops_partitioned_traffic_then_heals() {
        use crate::fault::FaultPlan;
        // Nodes 0 and 1 ping-pong; a partition separates them for the
        // first 5 simulated seconds. Node 0's opening send is lost, so
        // nothing ever flows (ping-pong has no retransmission)...
        let plan = FaultPlan::none().partition(
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            SimTime::ZERO,
            SimTime::from_secs_f64(5.0),
        );
        let mut sim =
            Simulator::new(1, DelayModel::Fixed { seconds: 0.01 }).with_faults(plan.clone());
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 3,
        }));
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 3,
        }));
        assert_eq!(sim.run(), 0);
        assert_eq!(sim.stats().messages_dropped, 1);
        assert_eq!(sim.stats().messages_sent, 1, "drops still count as sent");

        // ...whereas a fault window that never matches leaves the run
        // untouched and bit-identical to the unfaulted one.
        let inert = FaultPlan::none().partition(
            vec![vec![NodeId(7)], vec![NodeId(8)]],
            SimTime::ZERO,
            SimTime::from_secs_f64(5.0),
        );
        let run = |plan: FaultPlan| {
            let mut sim = Simulator::new(1, DelayModel::Exponential { mean: 0.01 })
                .with_faults(plan)
                .with_tracing();
            sim.add_node(Box::new(Counter {
                received: 0,
                hops: 6,
            }));
            sim.add_node(Box::new(Counter {
                received: 0,
                hops: 6,
            }));
            sim.run();
            sim.stats().trace.clone()
        };
        assert_eq!(run(inert), run(FaultPlan::none()));
    }

    #[test]
    fn crash_window_silences_node_until_recovery() {
        use crate::fault::FaultPlan;
        // Node 0 sends to node 1 at t=0 (lost: 1 is crashed) and again
        // at t=2 via send_after (delivered: 1 has recovered).
        struct Retry;
        impl SimNode<u8> for Retry {
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), 1, 1);
                    ctx.send_after(2.0, NodeId(1), 2, 1);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: u8, _c: &mut Context<'_, u8>) {}
        }
        let plan = FaultPlan::none().crash(NodeId(1), SimTime::ZERO, SimTime::from_secs_f64(1.0));
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.01 })
            .with_faults(plan)
            .with_tracing();
        sim.add_node(Box::new(Retry));
        sim.add_node(Box::new(Retry));
        assert_eq!(sim.run(), 1);
        assert_eq!(sim.stats().messages_dropped, 1);
        let trace = &sim.stats().trace;
        assert_eq!(trace.len(), 1);
        assert!((trace[0].sent.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.01 });
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 4,
        }));
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 4,
        }));
        sim.run();
        let s = sim.stats();
        assert_eq!(s.messages_sent, 5);
        assert_eq!(s.messages_delivered, 5);
        assert_eq!(s.bytes_sent, 40);
    }

    // ---- switched-topology mode -------------------------------------

    fn switched_cfg() -> SwitchedConfig {
        SwitchedConfig::grid5000(1.0, 1 << 20)
    }

    #[test]
    fn switched_ping_pong_delivers_everything() {
        let mut sim =
            Simulator::new(1, DelayModel::Fixed { seconds: 0.01 }).with_switched(switched_cfg());
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 5,
        }));
        sim.add_node(Box::new(Counter {
            received: 0,
            hops: 5,
        }));
        assert_eq!(sim.run(), 6);
        assert_eq!(sim.stats().messages_dropped, 0);
        assert_eq!(sim.stats().queue_drops, 0);
    }

    #[test]
    fn switched_latency_is_bandwidth_plus_hops() {
        // Same rack (4 hosts/switch): 2 hops of 25 µs + 2 × serialization.
        struct Once;
        impl SimNode<()> for Once {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), (), 125_000); // 100 µs at 1.25 GB/s
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
        }
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 9.9 })
            .with_switched(switched_cfg())
            .with_tracing();
        sim.add_node(Box::new(Once));
        sim.add_node(Box::new(Once));
        sim.run();
        let rec = &sim.stats().trace[0];
        let expect = 2.0 * 100e-6 + 2.0 * 25e-6;
        assert!(
            (rec.latency_secs() - expect).abs() < 1e-9,
            "latency {} vs {expect}",
            rec.latency_secs()
        );
    }

    #[test]
    fn switched_mode_is_deterministic() {
        let run = || {
            let mut sim = Simulator::new(7, DelayModel::Fixed { seconds: 0.01 })
                .with_switched(SwitchedConfig::grid5000(8.0, 4096))
                .with_tracing();
            for _ in 0..6 {
                sim.add_node(Box::new(Counter {
                    received: 0,
                    hops: 30,
                }));
            }
            sim.run();
            (
                sim.stats().trace.clone(),
                sim.stats().queue_drops,
                sim.stats().retransmits,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn switched_overflow_retries_then_delivers() {
        // A fan-in burst into one host across racks over tiny queues: some
        // packets must be queue-dropped, yet go-back-n delivers every one.
        struct Burst;
        impl SimNode<u32> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.me() != NodeId(0) {
                    for i in 0..8 {
                        ctx.send(NodeId(0), i, 20_000);
                    }
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Context<'_, u32>) {}
        }
        let cfg = SwitchedConfig {
            queue_bytes: 40_000,
            oversubscription: 8.0,
            ..switched_cfg()
        };
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.01 }).with_switched(cfg);
        for _ in 0..8 {
            sim.add_node(Box::new(Burst));
        }
        let delivered = sim.run();
        let s = sim.stats();
        assert_eq!(s.messages_sent, 7 * 8);
        assert!(s.queue_drops > 0, "burst must overflow the tiny queues");
        assert!(s.retransmits > 0);
        assert_eq!(
            delivered + s.messages_dropped,
            s.messages_sent,
            "every packet is delivered or abandoned"
        );
        assert!(s.peak_queue_bytes <= 40_000);
    }

    #[test]
    fn switched_flow_stays_in_order() {
        // Node 1 sends a numbered stream to node 0 under heavy loss; the
        // receiver must observe strictly increasing numbers.
        struct Stream {
            seen: Vec<u32>,
        }
        impl SimNode<u32> for Stream {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.me() == NodeId(1) {
                    for i in 0..30 {
                        ctx.send(NodeId(0), i, 30_000);
                    }
                }
            }
            fn on_message(&mut self, _f: NodeId, m: u32, _c: &mut Context<'_, u32>) {
                self.seen.push(m);
            }
        }
        let cfg = SwitchedConfig {
            queue_bytes: 70_000,
            max_retries: 3,
            ..switched_cfg()
        };
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.01 })
            .with_switched(cfg)
            .with_tracing();
        sim.add_node(Box::new(Stream { seen: Vec::new() }));
        sim.add_node(Box::new(Stream { seen: Vec::new() }));
        sim.run();
        // Delivery order within the flow is the send order with abandoned
        // packets excised: the trace is to a single receiver, so delivered
        // timestamps are already ordered; check flow ordering via counts.
        let s = sim.stats();
        assert_eq!(s.messages_delivered + s.messages_dropped, s.messages_sent);
    }

    #[test]
    fn switched_crash_drop_is_permanent() {
        use crate::fault::FaultPlan;
        // A crashed destination drops the message at send time — the
        // transport does not burn retries into a dead endpoint.
        struct Once;
        impl SimNode<()> for Once {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), (), 100);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
        }
        let plan = FaultPlan::none().crash(NodeId(1), SimTime::ZERO, SimTime::from_secs_f64(9.0));
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.01 })
            .with_switched(switched_cfg())
            .with_faults(plan);
        sim.add_node(Box::new(Once));
        sim.add_node(Box::new(Once));
        assert_eq!(sim.run(), 0);
        assert_eq!(sim.stats().messages_dropped, 1);
        assert_eq!(sim.stats().retransmits, 0);
    }

    #[test]
    fn switched_instant_sends_still_bypass_fabric() {
        struct Covert;
        impl SimNode<()> for Covert {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.send_instant(NodeId(1), ());
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
        }
        let mut sim = Simulator::new(1, DelayModel::Fixed { seconds: 0.01 })
            .with_switched(switched_cfg())
            .with_tracing();
        sim.add_node(Box::new(Covert));
        sim.add_node(Box::new(Covert));
        assert_eq!(sim.run(), 1);
        assert_eq!(sim.stats().trace[0].latency_secs(), 0.0);
    }
}
