//! Real TCP loopback transport: length-prefixed frames over `std::net`
//! sockets.
//!
//! This is the cross-process-shaped engine (DESIGN.md §7): every byte of
//! every model and gradient really crosses the kernel's TCP stack, so the
//! serialization *and* socket path the paper's §5.3 measures are both
//! genuinely exercised. The topology is a dialled mesh over
//! `127.0.0.1:0` ephemeral ports:
//!
//! * **Handshake** — the dialler opens one connection per directed link
//!   and writes `[MAGIC: u32][from: u32]` before anything else; the
//!   acceptor reads it to learn the peer's node id (the id receivers use
//!   for canonical-order quorum folds). A bad magic aborts mesh
//!   construction.
//! * **Framing** — each frame travels as `[nbytes: u32][frame bytes]`,
//!   re-assembled by [`wire::StreamDecoder`](crate::wire::StreamDecoder)
//!   with its hard size cap. A poisoned stream (over-cap prefix) is
//!   severed and counted ([`Transport::link_failures`]); an individual
//!   malformed *frame* is dropped by the reader plane where it is decoded,
//!   and the link stays up, just as the channel transport drops one in its
//!   receive.
//! * **Writer threads** — one per outgoing link, fed by an in-process
//!   queue of `Arc`-shared encoded frames: a broadcast encodes once, and
//!   a peer stalled in TCP backpressure delays only its own writer, never
//!   the sender's protocol loop. Each writer drains its whole queue per
//!   wake-up and flushes the batch through
//!   [`wire::write_frames`](crate::wire::write_frames) — many prefixed
//!   frames per vectored syscall, frame bodies gathered zero-copy.
//! * **Reader plane** — *one* reader thread per node (not per link)
//!   multiplexing every incoming socket through a non-blocking ready-poll
//!   sweep, parked on a readiness [`Waker`] between bursts (the std-only
//!   stand-in for `epoll` readiness): thread count is O(links out) + 1
//!   per node instead of O(n) readers each, and quiet links cost zero
//!   wake-ups and zero speculative syscalls. Each socket is read straight
//!   into its link's re-assembly buffer, and each frame is decoded out of
//!   that buffer into the message's tensor: one allocation per received
//!   vector, and the node thread receives messages, not bytes.
//! * **Shutdown** — closing the endpoint drops the writer queues (each
//!   writer drains what is already queued, then half-closes its socket so
//!   the peer's reader sees EOF), flags the reader plane, and **joins
//!   every thread** — a completed run leaks nothing.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::pool::{BufPool, PoolStats};
use crate::transport::{Incoming, RecvError, Transport};
use crate::wire::{
    decode, encode_range_shared, encode_shared, write_frames, StreamDecoder, WireMsg,
};

/// Handshake magic ("GUAN").
const MAGIC: u32 = 0x4755_414E;

/// Consecutive reads per socket per sweep before moving on — drains a
/// bursty link without starving its siblings.
const READS_PER_VISIT: usize = 4;

/// Writer batch cap: frames drained from the queue per flush. 64 frames
/// is 128 iovecs, far under Linux's 1024-entry `writev` limit.
const MAX_BATCH: usize = 64;

/// A writer making zero progress for this long is severed (a genuinely
/// wedged peer must not hang shutdown forever).
const WRITE_STALL: Duration = Duration::from_secs(30);

/// Backstop for the reader plane's parked wait. Every event the plane can
/// observe (bytes flushed, peer half-close, severed socket, endpoint
/// shutdown) is accompanied by a waker notification, so this timeout only
/// bounds recovery from a hypothetically missed signal.
const PARK_BACKSTOP: Duration = Duration::from_millis(10);

/// Empty sweeps the reader plane yields through before parking on its
/// waker — an empty sweep reads nothing (only hot links are visited), so
/// this grace loop costs a lock and a flag scan per pass.
const GRACE_YIELDS: u32 = 8;

/// Readiness notification for a node's reader plane — the std-only
/// equivalent of what `epoll` would provide a production implementation
/// for free: a wake-up *plus the ready list*. The mesh is in-process, so a
/// peer's writer *knows* when the kernel has accepted bytes for a
/// destination; it marks its sender id ready and nudges that destination's
/// plane. The plane parks on the condvar between bursts and, once woken,
/// reads only the sockets actually marked — idle links cost zero wake-ups
/// and zero speculative `read` syscalls, and a wake-up for one busy link
/// does not pay an `EAGAIN` on every quiet sibling.
#[derive(Debug)]
struct Waker {
    /// Per-sender ready flags (indexed by wire id) + a sticky "poked" bit
    /// (set by any notification, including id-less shutdown pokes).
    state: Mutex<(Vec<bool>, bool)>,
    cv: Condvar,
}

impl Waker {
    fn new(n: usize) -> Self {
        Waker {
            state: Mutex::new((vec![false; n], false)),
            cv: Condvar::new(),
        }
    }

    /// Number of sender slots (the mesh size this waker was built for).
    fn slots(&self) -> usize {
        self.state.lock().expect("waker lock").0.len()
    }

    /// Marks sender `from` ready and wakes the parked plane (sticky: a
    /// notify during a sweep makes the next park return immediately).
    fn notify_from(&self, from: usize) {
        let mut s = self.state.lock().expect("waker lock");
        s.0[from] = true;
        s.1 = true;
        drop(s);
        self.cv.notify_one();
    }

    /// Wakes the plane without marking a sender (endpoint shutdown: the
    /// plane re-checks its stop flag, no socket needs reading).
    fn poke(&self) {
        self.state.lock().expect("waker lock").1 = true;
        self.cv.notify_one();
    }

    /// Drains pending ready marks into `hot` without blocking.
    fn collect(&self, hot: &mut [bool]) {
        let mut s = self.state.lock().expect("waker lock");
        if !s.1 {
            return;
        }
        s.1 = false;
        for (h, r) in hot.iter_mut().zip(s.0.iter_mut()) {
            *h |= std::mem::take(r);
        }
    }

    /// Parks until notified (or `timeout` as a missed-signal backstop),
    /// then drains ready marks into `hot`. Returns `false` on a pure
    /// timeout — the caller should do one full sweep to resynchronise.
    fn park_collect(&self, hot: &mut [bool], timeout: Duration) -> bool {
        let mut s = self.state.lock().expect("waker lock");
        if !s.1 {
            s = self.cv.wait_timeout(s, timeout).expect("waker lock").0;
        }
        let poked = s.1;
        s.1 = false;
        for (h, r) in hot.iter_mut().zip(s.0.iter_mut()) {
            *h |= std::mem::take(r);
        }
        poked
    }
}

/// One node's endpoint on the TCP mesh.
pub struct TcpTransport {
    me: usize,
    /// Per-peer writer queues (`None`: no link, or already shut down).
    writers: Vec<Option<Sender<Arc<[u8]>>>>,
    inbox: Receiver<Incoming>,
    /// Encode-scratch recycling, shared by every endpoint of the mesh.
    pool: Arc<BufPool>,
    /// Frames a writer thread failed to put on the wire.
    wire_dropped: Arc<AtomicU64>,
    /// Sends with no live link to carry them.
    local_dropped: u64,
    /// Links severed abnormally (poisoned stream, socket error, stalled
    /// writer) — EOF from a cleanly departing peer does not count.
    failures: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    /// This endpoint's own reader-plane waker (shutdown nudges it so the
    /// plane observes the stop flag immediately instead of at the backstop).
    waker: Arc<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Builds a loopback mesh of `n` endpoints. `link(a, b)` says whether
    /// node `a` may send to node `b`; a full mesh is `|_, _| true`, and
    /// sparser topologies (e.g. no worker↔worker links — the GuanYu
    /// protocol never uses them) save sockets and I/O threads.
    ///
    /// # Errors
    ///
    /// Any socket-layer failure (bind, connect, accept, handshake).
    pub fn mesh(
        n: usize,
        link: impl Fn(usize, usize) -> bool,
    ) -> std::io::Result<Vec<TcpTransport>> {
        // One listener per node on an ephemeral loopback port.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }

        // Dial every directed link, announcing the dialler's id. The
        // connections sit in the listeners' accept backlogs until
        // collected below (handshake bytes wait in socket buffers).
        // Materialise the topology once: the dialler thread below must not
        // borrow the (non-`'static`) predicate.
        let links: Vec<Vec<bool>> = (0..n)
            .map(|from| (0..n).map(|to| from != to && link(from, to)).collect())
            .collect();

        // Dial every directed link on a helper thread, announcing the
        // dialler's id, while this thread accepts. Dialling and accepting
        // run concurrently, so no listener's accept backlog can fill up
        // and deadlock construction, however dense the topology.
        let dialler = {
            let links = links.clone();
            let addrs = addrs.clone();
            std::thread::Builder::new()
                .name("tcp-mesh-dial".into())
                .spawn(move || -> std::io::Result<Vec<Vec<(usize, TcpStream)>>> {
                    let mut outgoing: Vec<Vec<(usize, TcpStream)>> =
                        (0..n).map(|_| Vec::new()).collect();
                    for (from, dialled) in outgoing.iter_mut().enumerate() {
                        for (to, addr) in addrs.iter().enumerate() {
                            if !links[from][to] {
                                continue;
                            }
                            let mut s = TcpStream::connect(addr)?;
                            s.set_nodelay(true)?;
                            let mut hello = [0u8; 8];
                            hello[..4].copy_from_slice(&MAGIC.to_le_bytes());
                            hello[4..].copy_from_slice(&(from as u32).to_le_bytes());
                            s.write_all(&hello)?;
                            dialled.push((to, s));
                        }
                    }
                    Ok(outgoing)
                })?
        };

        // Accept every inbound link and identify the dialler. Listeners
        // poll non-blockingly so a dialler failure surfaces as an error
        // here instead of an accept that waits forever.
        let accepted = (|| -> std::io::Result<Vec<Vec<(usize, TcpStream)>>> {
            let mut incoming: Vec<Vec<(usize, TcpStream)>> = (0..n).map(|_| Vec::new()).collect();
            for (to, listener) in listeners.iter().enumerate() {
                listener.set_nonblocking(true)?;
                let expected = (0..n).filter(|&from| links[from][to]).count();
                while incoming[to].len() < expected {
                    let (mut s, _) = match listener.accept() {
                        Ok(conn) => conn,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if dialler.is_finished() {
                                // Dialling ended (necessarily in error —
                                // success implies every link was dialled);
                                // stop so the join below reports it.
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::ConnectionAborted,
                                    "dialler exited before all links connected",
                                ));
                            }
                            std::thread::sleep(Duration::from_millis(2));
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    // Not inherited from the listener on all platforms.
                    s.set_nonblocking(false)?;
                    s.set_nodelay(true)?;
                    let mut hello = [0u8; 8];
                    s.read_exact(&mut hello)?;
                    let magic = u32::from_le_bytes(hello[..4].try_into().expect("4 bytes"));
                    if magic != MAGIC {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "bad handshake magic",
                        ));
                    }
                    let from = u32::from_le_bytes(hello[4..].try_into().expect("4 bytes")) as usize;
                    if from >= n || !links[from][to] {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("handshake from unexpected peer {from}"),
                        ));
                    }
                    incoming[to].push((from, s));
                }
            }
            Ok(incoming)
        })();
        let dialled = dialler
            .join()
            .map_err(|_| std::io::Error::other("dialler thread panicked"))?;
        // A dial error is the root cause; report it ahead of the accept
        // error it induced.
        let outgoing = dialled?;
        let incoming = accepted?;

        // Assemble the endpoints: one writer thread per outgoing link, one
        // reader thread per node multiplexing every incoming link, one
        // inbox per node. Encode scratch is recycled mesh-wide, and every
        // writer holds its *destination* plane's waker.
        let pool = Arc::new(BufPool::new());
        let wakers: Vec<Arc<Waker>> = (0..n).map(|_| Arc::new(Waker::new(n))).collect();
        let mut endpoints = Vec::with_capacity(n);
        for (me, (out, inc)) in outgoing.into_iter().zip(incoming).enumerate() {
            let (inbox_tx, inbox) = channel::<Incoming>();
            let wire_dropped = Arc::new(AtomicU64::new(0));
            let failures = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let mut writers: Vec<Option<Sender<Arc<[u8]>>>> = (0..n).map(|_| None).collect();
            let mut threads = Vec::new();
            for (to, stream) in out {
                let (tx, rx) = channel::<Arc<[u8]>>();
                writers[to] = Some(tx);
                let dropped = Arc::clone(&wire_dropped);
                let failed = Arc::clone(&failures);
                let peer_waker = Arc::clone(&wakers[to]);
                let t = std::thread::Builder::new()
                    .name(format!("tcp-w{me}>{to}"))
                    .spawn(move || writer_loop(stream, rx, me, peer_waker, dropped, failed))?;
                threads.push(t);
            }
            if !inc.is_empty() {
                let conns: Vec<Conn> = inc
                    .into_iter()
                    .map(|(from, stream)| Conn {
                        from,
                        stream,
                        dec: StreamDecoder::new(),
                    })
                    .collect();
                let stop = Arc::clone(&stop);
                let failed = Arc::clone(&failures);
                let waker = Arc::clone(&wakers[me]);
                let t = std::thread::Builder::new()
                    .name(format!("tcp-r{me}"))
                    .spawn(move || reader_plane(conns, inbox_tx, stop, failed, waker))?;
                threads.push(t);
            }
            endpoints.push(TcpTransport {
                me,
                writers,
                inbox,
                pool: Arc::clone(&pool),
                wire_dropped,
                local_dropped: 0,
                failures,
                stop,
                waker: Arc::clone(&wakers[me]),
                threads,
            });
        }
        Ok(endpoints)
    }

    fn send_frame(&mut self, to: usize, frame: Arc<[u8]>) {
        match self.writers.get(to).and_then(|w| w.as_ref()) {
            Some(tx) if tx.send(frame).is_ok() => {}
            // No link, or the writer already exited: count the drop.
            _ => self.local_dropped += 1,
        }
    }
}

impl Transport for TcpTransport {
    fn me(&self) -> usize {
        self.me
    }

    fn send(&mut self, to: usize, msg: &WireMsg) {
        let frame = encode_shared(msg, &self.pool);
        self.send_frame(to, frame);
    }

    fn broadcast(&mut self, targets: &[usize], msg: &WireMsg) {
        let frame = encode_shared(msg, &self.pool);
        for &to in targets {
            self.send_frame(to, Arc::clone(&frame));
        }
    }

    fn broadcast_range(&mut self, targets: &[usize], msg: &WireMsg, range: std::ops::Range<usize>) {
        // Sharded scatter: one pooled encode of the subslice, one shared
        // frame for the whole shard group (same zero-copy discipline as
        // `broadcast`).
        let frame = encode_range_shared(msg, range, &self.pool);
        for &to in targets {
            self.send_frame(to, Arc::clone(&frame));
        }
    }

    fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Incoming, RecvError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(i) => Ok(i),
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        }
    }

    fn dropped_sends(&self) -> u64 {
        self.local_dropped + self.wire_dropped.load(Ordering::Relaxed)
    }

    fn link_failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.poke(); // the plane re-checks the stop flag at once
                           // Dropping the queues lets each writer drain what is already
                           // queued, half-close its socket, and exit.
        for w in &mut self.writers {
            *w = None;
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pumps queued frames onto one socket, length-prefixed and **batched**:
/// each wake-up drains everything waiting in the queue (up to
/// [`MAX_BATCH`]) and flushes the whole batch through one vectored write
/// path — under load a syscall carries many frames instead of one.
/// Exits when the queue closes (endpoint shutdown); a broken or stalled
/// socket severs the link (counted) and marks every subsequent frame
/// dropped rather than aborting the node.
fn writer_loop(
    mut stream: TcpStream,
    rx: Receiver<Arc<[u8]>>,
    from: usize,
    peer_waker: Arc<Waker>,
    dropped: Arc<AtomicU64>,
    failures: Arc<AtomicU64>,
) {
    let mut broken = stream.set_write_timeout(Some(WRITE_STALL)).is_err();
    // Prefix bytes are staged here, reused across batches; frame bodies
    // are gathered zero-copy from their shared buffers.
    let mut scratch = Vec::new();
    let mut batch: Vec<Arc<[u8]>> = Vec::with_capacity(MAX_BATCH);
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(frame) => batch.push(frame),
                Err(_) => break,
            }
        }
        if !broken {
            if write_frames(&mut stream, &batch, &mut scratch).is_ok() {
                // The kernel holds bytes for the peer: wake its plane
                // (once per batch, not per frame), naming this link.
                peer_waker.notify_from(from);
            } else {
                broken = true;
                failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        if broken {
            dropped.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        batch.clear();
    }
    // Half-close: the peer's reader sees EOF and drops the link promptly.
    let _ = stream.shutdown(Shutdown::Write);
    peer_waker.notify_from(from);
}

/// One incoming link of a node's reader plane.
struct Conn {
    from: usize,
    stream: TcpStream,
    dec: StreamDecoder,
}

/// What one socket visit produced.
enum Pump {
    /// Bytes arrived (frames may have been delivered to the inbox).
    Data,
    /// Nothing ready.
    Idle,
    /// Peer half-closed cleanly.
    Eof,
    /// Poisoned stream or socket error: sever and count.
    Severed,
    /// The endpoint's inbox is gone; the whole plane can exit.
    Gone,
}

/// Reads whatever one socket has ready (bounded by [`READS_PER_VISIT`]
/// reads, so a firehose link cannot starve its siblings), decodes every
/// completed frame out of the link's buffer and pushes the messages into
/// the node's inbox. A frame that does not decode is dropped here; only a
/// poisoned stream severs the link.
fn pump_conn(conn: &mut Conn, inbox: &Sender<Incoming>) -> Pump {
    let mut got_any = false;
    for _ in 0..READS_PER_VISIT {
        let want = conn.dec.read_len();
        match conn.dec.read_from(&mut conn.stream) {
            Ok(0) => return Pump::Eof,
            Ok(k) => {
                loop {
                    match conn.dec.next_frame() {
                        Ok(Some(frame)) => {
                            // Malformed: necessarily Byzantine, dropped.
                            let Ok(msg) = decode(frame) else { continue };
                            let incoming = Incoming {
                                from: conn.from,
                                msg,
                            };
                            if inbox.send(incoming).is_err() {
                                return Pump::Gone;
                            }
                        }
                        Ok(None) => break, // need more bytes
                        Err(_) => return Pump::Severed,
                    }
                }
                got_any = true;
                if k < want {
                    break; // socket drained for now
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Pump::Severed,
        }
    }
    if got_any {
        Pump::Data
    } else {
        Pump::Idle
    }
}

/// One node's reader plane: multiplexes **all** of its incoming sockets on
/// a single thread. Sweeps visit only links marked *hot* — signalled ready
/// by a peer's writer through the node's [`Waker`], or mid-burst on their
/// last visit — so a wake-up for one busy link never pays an `EAGAIN` read
/// on every quiet sibling. While frames flow the loop never sleeps; when
/// every hot link comes back empty it parks on the waker until the next
/// flushed batch (with [`PARK_BACKSTOP`] as a missed-signal safety net,
/// whose pure-timeout wake does one full resynchronising sweep) — idle
/// meshes burn neither CPU, nor timer wake-ups, nor speculative `read`
/// syscalls, and a flushed batch still reaches its receiver at futex-wake
/// latency.
///
/// Exits on the stop flag, when every link has gone away, or when the
/// inbox is no longer read. A clean EOF just removes the link; EOF with
/// bytes still pending re-assembly, a poisoned stream, or a socket error
/// severs it and counts a link failure.
fn reader_plane(
    mut conns: Vec<Conn>,
    inbox: Sender<Incoming>,
    stop: Arc<AtomicBool>,
    failures: Arc<AtomicU64>,
    waker: Arc<Waker>,
) {
    for c in &conns {
        // A socket that cannot be made non-blocking would wedge the whole
        // plane; read errors below will sever it.
        let _ = c.stream.set_nonblocking(true);
    }
    // Hot = worth reading this sweep, indexed by sender id.
    let mut hot = vec![false; waker.slots()];
    let mut full_sweep = true; // the first pass reads every link once
    let mut idle: u32 = 0;
    while !stop.load(Ordering::Relaxed) && !conns.is_empty() {
        waker.collect(&mut hot);
        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            let from = conns[i].from;
            if !(full_sweep || hot[from]) {
                i += 1;
                continue;
            }
            match pump_conn(&mut conns[i], &inbox) {
                Pump::Data => {
                    // The kernel buffer may hold more than one visit
                    // drains: stay hot until a visit comes back empty.
                    hot[from] = true;
                    progress = true;
                    i += 1;
                }
                Pump::Idle => {
                    hot[from] = false;
                    i += 1;
                }
                Pump::Eof => {
                    // Mid-frame EOF means the peer died with a frame on
                    // the wire — that is a failure, not a goodbye.
                    if conns[i].dec.pending() > 0 {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                    hot[from] = false;
                    conns.swap_remove(i);
                }
                Pump::Severed => {
                    failures.fetch_add(1, Ordering::Relaxed);
                    let _ = conns[i].stream.shutdown(Shutdown::Both);
                    hot[from] = false;
                    conns.swap_remove(i);
                }
                Pump::Gone => return,
            }
        }
        full_sweep = false;
        if progress {
            idle = 0;
            continue;
        }
        // Grace-yield before parking: with no hot links a sweep costs one
        // lock and a flag scan — no reads — so yielding lets the peers run
        // (they are what produces the next flush) and usually a notify
        // lands within a few quanta, far cheaper than a futex sleep/wake
        // cycle. Only a genuinely quiet mesh pays the park.
        idle = idle.saturating_add(1);
        if idle <= GRACE_YIELDS {
            std::thread::yield_now();
            continue;
        }
        full_sweep = !waker.park_collect(&mut hot, PARK_BACKSTOP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode, prefix_frame};
    use std::time::Instant;
    use tensor::Tensor;

    fn msg(step: u64, vals: Vec<f32>) -> WireMsg {
        WireMsg::Gradient {
            step,
            grad: Tensor::from_flat(vals),
        }
    }

    /// The lost-wakeup window: a writer flushes and notifies *after* the
    /// plane's sweep found nothing but *before* the plane parks. The
    /// sticky poked bit is checked under the same lock the park waits on,
    /// so the park must return immediately with the mark — not sleep
    /// until the backstop (or forever, stalling the round the frame
    /// belongs to).
    #[test]
    fn notify_between_collect_and_park_is_never_lost() {
        let w = Waker::new(2);
        let mut hot = vec![false; 2];
        w.collect(&mut hot); // the sweep saw nothing
        w.notify_from(1); // flush lands in the mark→park window
        let t0 = Instant::now();
        let poked = w.park_collect(&mut hot, Duration::from_secs(10));
        assert!(poked, "sticky bit must short-circuit the park");
        assert!(hot[1], "the ready mark must survive into the next sweep");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "park must not wait out its timeout: {:?}",
            t0.elapsed()
        );
    }

    /// A pure backstop timeout (hypothetically missed signal) must report
    /// `false` so the plane does one full resynchronising sweep instead of
    /// trusting (possibly stale) ready marks.
    #[test]
    fn pure_timeout_park_requests_a_resync_sweep() {
        let w = Waker::new(1);
        let mut hot = vec![false; 1];
        let poked = w.park_collect(&mut hot, Duration::from_millis(5));
        assert!(!poked, "timeout wake must demand a full sweep");
        assert!(!hot[0]);
    }

    /// End-to-end regression for the park/notify boundary: frames paced
    /// slower than the grace yields force the plane to park between every
    /// frame, so each delivery exercises a fresh park→notify→sweep cycle.
    /// A lost wake-up would strand a frame until shutdown and fail the
    /// per-frame receive below.
    #[test]
    fn parked_plane_wakes_for_every_paced_frame() {
        let mut mesh = TcpTransport::mesh(2, |_, _| true).unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        for i in 0..100 {
            n0.send(1, &msg(i, vec![i as f32]));
            std::thread::sleep(Duration::from_millis(2));
            let got = n1.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got.msg.step(), i);
        }
        n0.shutdown();
        n1.shutdown();
        assert_eq!(n1.link_failures(), 0);
    }

    #[test]
    fn mesh_routes_and_identifies_senders() {
        let mut mesh = TcpTransport::mesh(3, |_, _| true).unwrap();
        let mut n2 = mesh.pop().unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        n0.send(2, &msg(7, vec![1.0]));
        n1.send(2, &msg(8, vec![2.0]));
        let mut got = Vec::new();
        for _ in 0..2 {
            let i = n2.recv_timeout(Duration::from_secs(5)).unwrap();
            got.push((i.from, i.msg.step()));
        }
        got.sort_unstable();
        assert_eq!(got, vec![(0, 7), (1, 8)]);
        for t in [&mut n0, &mut n1, &mut n2] {
            t.shutdown();
            assert_eq!(t.link_failures(), 0, "clean mesh must sever nothing");
        }
    }

    #[test]
    fn sparse_mesh_counts_linkless_sends() {
        // Only 0→1 exists.
        let mut mesh = TcpTransport::mesh(2, |a, b| a == 0 && b == 1).unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        n1.send(0, &msg(0, vec![])); // no such link
        assert_eq!(n1.dropped_sends(), 1);
        n0.send(1, &msg(3, vec![0.5]));
        let i = n1.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(i.from, 0);
        assert_eq!(n0.dropped_sends(), 0);
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let mut mesh = TcpTransport::mesh(2, |_, _| true).unwrap();
        for t in &mut mesh {
            t.shutdown();
            t.shutdown();
            assert!(t.threads.is_empty());
        }
    }

    #[test]
    fn large_frames_cross_the_stream_intact() {
        let mut mesh = TcpTransport::mesh(2, |_, _| true).unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        // Bigger than one reader chunk, so re-assembly spans reads.
        let vals: Vec<f32> = (0..100_000).map(|i| i as f32 * 0.25).collect();
        n0.broadcast(&[1], &msg(9, vals.clone()));
        let i = n1.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(i.msg, msg(9, vals));
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn broadcast_shares_one_encoded_frame_across_writers() {
        let mut mesh = TcpTransport::mesh(3, |_, _| true).unwrap();
        let mut n2 = mesh.pop().unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        // The pool sees one get/put per broadcast, not one per target.
        let before = n0.pool.fresh() + n0.pool.recycled();
        n0.broadcast(&[1, 2], &msg(1, vec![1.0, 2.0]));
        assert_eq!(n0.pool.fresh() + n0.pool.recycled(), before + 1);
        for n in [&mut n1, &mut n2] {
            let i = n.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(i.msg, msg(1, vec![1.0, 2.0]));
        }
        n0.shutdown();
        n1.shutdown();
        n2.shutdown();
    }

    /// The sender's protocol loop enqueues through an unbounded in-process
    /// queue: a peer that stops draining its TCP buffer stalls only its
    /// own writer thread, never the caller.
    #[test]
    fn stalled_peer_never_blocks_the_senders_queue() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let out = TcpStream::connect(addr).unwrap();
        // The accepted end exists but is never read: the kernel buffers
        // fill and the writer thread blocks mid-`write_vectored`.
        let stalled_peer = listener.accept().unwrap().0;
        let dropped = Arc::new(AtomicU64::new(0));
        let failures = Arc::new(AtomicU64::new(0));
        let (tx, rx) = channel::<Arc<[u8]>>();
        let writer = {
            let dropped = Arc::clone(&dropped);
            let failures = Arc::clone(&failures);
            let waker = Arc::new(Waker::new(1));
            std::thread::spawn(move || writer_loop(out, rx, 0, waker, dropped, failures))
        };
        // Far more than loopback socket buffers hold (~128 MiB total).
        let frame: Arc<[u8]> = vec![0u8; 256 * 1024].into();
        let t0 = Instant::now();
        for _ in 0..512 {
            tx.send(Arc::clone(&frame)).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "protocol-side enqueue blocked on TCP backpressure: {:?}",
            t0.elapsed()
        );
        // Tear the stalled peer down: the blocked write errors out, the
        // writer counts the undeliverable remainder and exits on queue
        // close — nothing hangs.
        drop(stalled_peer);
        drop(tx);
        writer.join().unwrap();
        assert!(
            dropped.load(Ordering::Relaxed) > 0,
            "frames past the severance must be counted as dropped"
        );
        assert_eq!(failures.load(Ordering::Relaxed), 1, "one severed link");
    }

    /// A poisoned stream (over-cap length prefix) severs exactly that
    /// link, counts a failure, and leaves frames already delivered intact.
    #[test]
    fn poisoned_stream_is_severed_and_counted() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut byz = TcpStream::connect(addr).unwrap();
        let victim = listener.accept().unwrap().0;
        let (inbox_tx, inbox_rx) = channel::<Incoming>();
        let stop = Arc::new(AtomicBool::new(false));
        let failures = Arc::new(AtomicU64::new(0));
        let plane = {
            let conns = vec![Conn {
                from: 0,
                stream: victim,
                dec: StreamDecoder::new(),
            }];
            let stop = Arc::clone(&stop);
            let failures = Arc::clone(&failures);
            let waker = Arc::new(Waker::new(1));
            std::thread::spawn(move || reader_plane(conns, inbox_tx, stop, failures, waker))
        };
        // A valid frame first: it must survive the later poisoning.
        let mut prefixed = Vec::new();
        prefix_frame(&encode(&msg(5, vec![1.5])), &mut prefixed);
        byz.write_all(&prefixed).unwrap();
        let got = inbox_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.msg, msg(5, vec![1.5]));
        // Then a lying length prefix: the link is severed, the plane (now
        // linkless) exits, and the failure is counted.
        byz.write_all(&u32::MAX.to_le_bytes()).unwrap();
        plane.join().unwrap();
        assert_eq!(failures.load(Ordering::Relaxed), 1);
    }

    /// A frame that is framed correctly but does not decode is dropped by
    /// the reader plane, and the link stays up: the good frames on either
    /// side of it arrive, in order, and nothing counts as a failure.
    #[test]
    fn malformed_frame_is_dropped_and_the_link_survives() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut byz = TcpStream::connect(addr).unwrap();
        let victim = listener.accept().unwrap().0;
        let (inbox_tx, inbox_rx) = channel::<Incoming>();
        let stop = Arc::new(AtomicBool::new(false));
        let failures = Arc::new(AtomicU64::new(0));
        let plane = {
            let conns = vec![Conn {
                from: 0,
                stream: victim,
                dec: StreamDecoder::new(),
            }];
            let stop = Arc::clone(&stop);
            let failures = Arc::clone(&failures);
            let waker = Arc::new(Waker::new(1));
            std::thread::spawn(move || reader_plane(conns, inbox_tx, stop, failures, waker))
        };
        let mut bad = encode(&msg(6, vec![2.5]));
        bad[0] = 77; // an unknown tag inside valid stream framing
        let mut stream = Vec::new();
        let mut prefixed = Vec::new();
        for frame in [encode(&msg(5, vec![1.5])), bad, encode(&msg(7, vec![3.5]))] {
            prefix_frame(&frame, &mut prefixed);
            stream.extend_from_slice(&prefixed);
        }
        byz.write_all(&stream).unwrap();
        for want in [msg(5, vec![1.5]), msg(7, vec![3.5])] {
            let got = inbox_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!((got.from, got.msg), (0, want));
        }
        // A clean close: the plane, now linkless, exits.
        drop(byz);
        plane.join().unwrap();
        assert!(inbox_rx.try_recv().is_err(), "the bad frame never arrives");
        assert_eq!(failures.load(Ordering::Relaxed), 0);
    }
}
