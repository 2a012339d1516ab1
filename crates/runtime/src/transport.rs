//! The transport abstraction: how frames move between node threads.
//!
//! The protocol loops in `cluster.rs` are transport-agnostic — each node
//! thread owns one [`Transport`] endpoint and only ever calls
//! [`send`](Transport::send) / [`broadcast`](Transport::broadcast) /
//! [`recv_timeout`](Transport::recv_timeout) /
//! [`shutdown`](Transport::shutdown). Two implementations exist
//! (DESIGN.md §7):
//!
//! * [`ChannelTransport`] — in-process `mpsc` channels, the original
//!   engine: a broadcast encodes once and every receiver's mailbox holds
//!   the same `Arc`ed frame, which each receiver decodes in
//!   [`recv_timeout`](Transport::recv_timeout); encode scratch recycled
//!   through a mesh-shared [`BufPool`];
//! * [`TcpTransport`](crate::tcp::TcpTransport) — real loopback sockets
//!   with length-prefixed stream framing, batched per-peer writer threads,
//!   a single poll-style reader thread per node that decodes each frame
//!   out of its re-assembly buffer, and an id-carrying handshake.
//!
//! Both carry the *same bytes* ([`wire`](crate::wire) codec), and at full
//! quorums both produce bit-identical runs — the cross-transport
//! consistency contract `tests/engines_consistency.rs` pins.
//!
//! Failed sends are never silent: a send to a disconnected peer (one that
//! already shut down) is *counted* via [`Transport::dropped_sends`], and a
//! link torn down abnormally (poisoned stream, socket error, wedged peer)
//! is counted via [`Transport::link_failures`] — the cluster surfaces both
//! totals in its report so tests can assert that clean full-quorum runs
//! drop and sever nothing.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::pool::{BufPool, PoolStats};
use crate::wire::{decode, encode_range_shared, encode_shared, WireMsg};

/// One received message: the transport-level sender identity plus the
/// decoded message. Each transport decodes where the frame arrives (the
/// TCP reader plane, the channel endpoint's receive) and drops a malformed
/// frame there — it is necessarily Byzantine — so only well-formed
/// messages reach the node thread.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// Transport-level peer id of the sender (channel index, or the id the
    /// TCP handshake carried). Receivers use it to fold quorums in
    /// canonical sender order.
    pub from: usize,
    /// The decoded message.
    pub msg: WireMsg,
}

/// Why a receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No frame arrived within the timeout; poll again.
    Timeout,
    /// The transport is closed — no frame can ever arrive again.
    Closed,
}

/// A node's endpoint on some interconnect.
///
/// Send operations take `&mut self` — each endpoint belongs to exactly one
/// node thread, and mutability lets implementations keep per-endpoint
/// counters without atomics on the hot path.
pub trait Transport: Send {
    /// This endpoint's node id.
    fn me(&self) -> usize;

    /// Encodes and sends one message to `to`. A disconnected peer is not
    /// an error (peers shut down independently) but the drop is counted.
    fn send(&mut self, to: usize, msg: &WireMsg);

    /// Encodes `msg` **once** and delivers the same bytes to every target.
    fn broadcast(&mut self, targets: &[usize], msg: &WireMsg);

    /// Broadcasts only coordinates `range` of the message's vector — the
    /// scatter primitive of the sharded gradient plane (DESIGN.md §9): one
    /// frame per shard *group*, shared by every group member.
    ///
    /// The default implementation materialises the slice and falls back to
    /// [`broadcast`](Transport::broadcast), which keeps decorators correct
    /// by construction (their filtering and counting still apply); the
    /// concrete engines override it to encode straight off the original
    /// tensor's subslice through the pooled zero-copy path.
    fn broadcast_range(&mut self, targets: &[usize], msg: &WireMsg, range: std::ops::Range<usize>) {
        self.broadcast(targets, &msg.slice(range));
    }

    /// Snapshot of the mesh-shared encode pool's counters, for report
    /// JSON. Transports without pooled buffers report zeros.
    fn pool_stats(&self) -> PoolStats {
        PoolStats::default()
    }

    /// Blocks up to `timeout` for the next well-formed message.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when nothing arrived in time,
    /// [`RecvError::Closed`] when the transport can deliver nothing more.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Incoming, RecvError>;

    /// Sends that could not be delivered so far.
    fn dropped_sends(&self) -> u64;

    /// Links this endpoint severed *abnormally* so far: poisoned streams,
    /// socket errors, peers dead mid-frame or wedged past the write-stall
    /// deadline. A peer departing cleanly (EOF between frames) is not a
    /// failure. Transports with no link concept report 0.
    fn link_failures(&self) -> u64 {
        0
    }

    /// Tears the endpoint down: closes connections and joins every I/O
    /// thread the endpoint spawned. Idempotent; called by the node thread
    /// on exit so no run ever leaks a thread.
    fn shutdown(&mut self);
}

/// Frame moving through the channel mesh.
struct Frame {
    from: usize,
    payload: Arc<[u8]>,
}

/// In-process transport: one `mpsc` channel per node, shared sender set.
///
/// A broadcast encodes one frame and every receiver's mailbox holds the
/// same `Arc<[u8]>`; each receiver decodes it into its own tensor. Encode
/// scratch buffers are recycled through one [`BufPool`] shared by every
/// endpoint of the mesh.
pub struct ChannelTransport {
    me: usize,
    senders: Arc<Vec<Sender<Frame>>>,
    rx: Receiver<Frame>,
    pool: Arc<BufPool>,
    dropped: u64,
}

impl ChannelTransport {
    /// Builds a fully-connected mesh of `n` endpoints (node `i` owns the
    /// `i`-th element).
    pub fn mesh(n: usize) -> Vec<ChannelTransport> {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Frame>();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);
        let pool = Arc::new(BufPool::new());
        receivers
            .into_iter()
            .enumerate()
            .map(|(me, rx)| ChannelTransport {
                me,
                senders: Arc::clone(&senders),
                rx,
                pool: Arc::clone(&pool),
                dropped: 0,
            })
            .collect()
    }

    fn send_frame(&mut self, to: usize, payload: Arc<[u8]>) {
        // A disconnected peer already shut down; count the drop so clean
        // runs can assert none happened.
        if self.senders[to]
            .send(Frame {
                from: self.me,
                payload,
            })
            .is_err()
        {
            self.dropped += 1;
        }
    }
}

impl Transport for ChannelTransport {
    fn me(&self) -> usize {
        self.me
    }

    fn send(&mut self, to: usize, msg: &WireMsg) {
        let payload = encode_shared(msg, &self.pool);
        self.send_frame(to, payload);
    }

    fn broadcast(&mut self, targets: &[usize], msg: &WireMsg) {
        let payload = encode_shared(msg, &self.pool);
        for &to in targets {
            self.send_frame(to, Arc::clone(&payload));
        }
    }

    fn broadcast_range(&mut self, targets: &[usize], msg: &WireMsg, range: std::ops::Range<usize>) {
        // Zero-copy scatter: the slice is encoded straight off the original
        // tensor buffer into pooled scratch; no per-shard tensor exists.
        let payload = encode_range_shared(msg, range, &self.pool);
        for &to in targets {
            self.send_frame(to, Arc::clone(&payload));
        }
    }

    fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Incoming, RecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(f) => match decode(&f.payload) {
                    Ok(msg) => return Ok(Incoming { from: f.from, msg }),
                    // Malformed: necessarily Byzantine. Drop it and wait
                    // out the rest of the caller's deadline.
                    Err(_) => continue,
                },
                Err(RecvTimeoutError::Timeout) => return Err(RecvError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(RecvError::Closed),
            }
        }
    }

    fn dropped_sends(&self) -> u64 {
        self.dropped
    }

    fn shutdown(&mut self) {
        // Channels tear themselves down on drop; nothing to join.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Tensor;

    fn msg(step: u64) -> WireMsg {
        WireMsg::Gradient {
            step,
            grad: Tensor::from_flat(vec![1.0, 2.0]),
        }
    }

    #[test]
    fn channel_mesh_routes_by_id() {
        let mut mesh = ChannelTransport::mesh(3);
        let mut n2 = mesh.pop().unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        n0.send(2, &msg(7));
        n1.send(2, &msg(8));
        let a = n2.recv_timeout(Duration::from_secs(1)).unwrap();
        let b = n2.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((a.from, b.from), (0, 1));
        assert_eq!(a.msg, msg(7));
        assert_eq!(n0.link_failures(), 0, "channels never sever");
        assert!(matches!(
            n0.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Timeout)
        ));
    }

    #[test]
    fn channel_broadcast_shares_one_buffer() {
        let mut mesh = ChannelTransport::mesh(3);
        let mut n2 = mesh.pop().unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        n0.broadcast(&[1, 2], &msg(1));
        let stats = n0.pool_stats();
        assert_eq!(
            stats.fresh + stats.recycled,
            1,
            "one encode for the fan-out"
        );
        let a = n1.recv_timeout(Duration::from_secs(1)).unwrap();
        let b = n2.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((a.from, b.from), (0, 0));
        assert_eq!(a.msg, msg(1));
        assert_eq!(b.msg, a.msg);
    }

    #[test]
    fn channel_receive_drops_a_malformed_frame_and_keeps_waiting() {
        let mut mesh = ChannelTransport::mesh(2);
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        let raw = |n0: &ChannelTransport, bytes: Vec<u8>| {
            let payload = bytes.into();
            n0.senders[1].send(Frame { from: 0, payload }).unwrap();
        };
        // A bad tag alone: nothing well-formed arrives before the deadline.
        raw(&n0, vec![99u8; 20]);
        assert!(matches!(
            n1.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Timeout)
        ));
        // A truncated frame ahead of a good one: the good one is delivered.
        raw(&n0, vec![1u8, 2, 3]);
        n0.send(1, &msg(4));
        let got = n1.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((got.from, got.msg), (0, msg(4)));
    }

    #[test]
    fn channel_sends_recycle_encode_scratch() {
        let mut mesh = ChannelTransport::mesh(2);
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        for step in 0..5 {
            n0.send(1, &msg(step));
            n1.recv_timeout(Duration::from_secs(1)).unwrap();
        }
        assert_eq!(n0.pool.fresh(), 1, "one warm-up allocation");
        assert_eq!(n0.pool.recycled(), 4, "steady state reuses the scratch");
    }

    #[test]
    fn channel_broadcast_range_shares_one_sliced_frame() {
        let mut mesh = ChannelTransport::mesh(3);
        let mut n2 = mesh.pop().unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        let full = WireMsg::Gradient {
            step: 3,
            grad: Tensor::from_flat(vec![0.0, 1.0, 2.0, 3.0, 4.0]),
        };
        n0.broadcast_range(&[1, 2], &full, 1..4);
        let stats = n0.pool_stats();
        assert_eq!(stats.fresh + stats.recycled, 1, "one encode for the group");
        let a = n1.recv_timeout(Duration::from_secs(1)).unwrap();
        let b = n2.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(a.msg.step(), 3);
        assert_eq!(a.msg.vector().as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.msg, a.msg);
    }

    #[test]
    fn disconnected_peer_counts_a_drop() {
        let mut mesh = ChannelTransport::mesh(2);
        let n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        drop(n1); // peer shut down
        assert_eq!(n0.dropped_sends(), 0);
        n0.send(1, &msg(0));
        n0.broadcast(&[1], &msg(1));
        assert_eq!(n0.dropped_sends(), 2);
    }
}
