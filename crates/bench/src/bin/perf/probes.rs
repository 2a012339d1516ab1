//! Stopwatches installed at the public seams of the system under test:
//! [`Transport`] decorators through `RunHooks::wrap` and [`Layer`]
//! wrappers through the model-builder closure. Nothing here reaches
//! inside a driver.
//!
//! An untraced run carries one round stopwatch only (one `Instant` per
//! round, on node 0). A traced run additionally times every transport
//! call of every node and every layer call of every worker.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use guanyu_runtime::{Incoming, PoolStats, RecvError, Transport, WireMsg, WrapTransport};
use nn::{Layer, Sequential};
use tensor::{Tensor, TensorRng};

use crate::workloads::ModelKind;

/// Bytes of a frame carrying `len` coordinates: tag, step and length
/// header, then little-endian `f32`s.
pub fn frame_bytes(len: usize) -> u64 {
    13 + 4 * len as u64
}

/// Frames one clean full-quorum round puts on the wire per shard group:
/// every server's model to every worker, every worker's gradient slice to
/// every server, and every server's update to every other server.
pub fn frames_per_round(servers: usize, workers: usize) -> u64 {
    (servers * workers * 2 + servers * (servers - 1)) as u64
}

/// Time and counts of one node thread, `wrap` to `shutdown`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeSpan {
    /// Whether the node is on the server plane.
    pub server: bool,
    /// Wall time between the endpoint's decoration and its shutdown.
    pub span: Duration,
    /// Inside `send`, `broadcast` and `broadcast_range`.
    pub send_busy: Duration,
    /// Inside `recv_timeout` calls that returned a frame.
    pub recv_wait: Duration,
    /// Inside `recv_timeout` calls that timed out or found the transport
    /// closed.
    pub recv_idle: Duration,
    /// `recv_timeout` calls that timed out.
    pub recv_timeouts: u64,
    /// Send calls: each encodes one frame.
    pub sends: u64,
    /// Frames put on the wire (one per target).
    pub frames: u64,
    /// Their bytes.
    pub bytes: u64,
    /// Frames received: each is decoded once.
    pub received: u64,
}

impl NodeSpan {
    /// The span minus its transport children: what the node thread spent
    /// outside the transport seam.
    pub fn self_time(&self) -> Duration {
        self.span
            .saturating_sub(self.send_busy)
            .saturating_sub(self.recv_wait)
            .saturating_sub(self.recv_idle)
    }
}

/// Time inside the layers of every instrumented model, training passes
/// only (evaluation forwards belong to the harness's own checks).
#[derive(Debug, Default)]
pub struct NnClock {
    forward_ns: AtomicU64,
    backward_ns: AtomicU64,
    gradients: AtomicU64,
}

impl NnClock {
    /// Total time in `forward`.
    pub fn forward(&self) -> Duration {
        Duration::from_nanos(self.forward_ns.load(Ordering::Relaxed))
    }

    /// Total time in `backward`.
    pub fn backward(&self) -> Duration {
        Duration::from_nanos(self.backward_ns.load(Ordering::Relaxed))
    }

    /// Training forward passes started, one per gradient.
    pub fn gradients(&self) -> u64 {
        self.gradients.load(Ordering::Relaxed)
    }
}

/// The probes of one run and what they collected.
#[derive(Clone)]
pub struct Probes {
    traced: bool,
    /// Which model-builder call gets the round stopwatch on its first
    /// layer (call 0 builds θ₀, call `1 + w` builds worker `w`'s model).
    stamp_model: Option<usize>,
    built: Arc<AtomicUsize>,
    stamps: Arc<Mutex<Vec<Instant>>>,
    nodes: Arc<Mutex<Vec<NodeSpan>>>,
    nn: Arc<NnClock>,
}

impl Probes {
    /// Probes for a run; `traced` turns the per-layer stopwatches on.
    pub fn new(traced: bool) -> Probes {
        Probes {
            traced,
            stamp_model: None,
            built: Arc::default(),
            stamps: Arc::default(),
            nodes: Arc::default(),
            nn: Arc::default(),
        }
    }

    /// Takes the round stamps from worker 0's model instead of node 0's
    /// endpoint, for engines that have no transport.
    pub fn stamping_worker_model(mut self) -> Probes {
        self.stamp_model = Some(1);
        self
    }

    /// The endpoint decorator for `RunHooks::wrap`. `plane` is the width
    /// of the server plane in wire ids.
    pub fn wrap_transport(&self, plane: usize) -> WrapTransport {
        let probes = self.clone();
        Arc::new(move |id, net| {
            let net: Box<dyn Transport> = if id == 0 {
                Box::new(RoundStamper {
                    inner: net,
                    next_step: 0,
                    local: Vec::new(),
                    stamps: Arc::clone(&probes.stamps),
                })
            } else {
                net
            };
            if !probes.traced {
                return net;
            }
            Box::new(TimedTransport {
                inner: net,
                born: Instant::now(),
                acc: NodeSpan {
                    server: id < plane,
                    ..NodeSpan::default()
                },
                sink: Some(Arc::clone(&probes.nodes)),
            })
        })
    }

    /// The model builder handed to the engine.
    pub fn build_model(&self, kind: ModelKind, rng: &mut TensorRng) -> Sequential {
        let call = self.built.fetch_add(1, Ordering::Relaxed);
        let stamp = self.stamp_model == Some(call);
        if !self.traced && !stamp {
            return kind.build(rng);
        }
        kind.build_wrapped(rng, &mut |i, layer| {
            let layer: Box<dyn Layer> = if stamp && i == 0 {
                Box::new(StampLayer {
                    inner: layer,
                    stamps: Arc::clone(&self.stamps),
                })
            } else {
                layer
            };
            if !self.traced {
                return layer;
            }
            Box::new(TimedLayer {
                inner: layer,
                first: i == 0,
                clock: Arc::clone(&self.nn),
            })
        })
    }

    /// Milliseconds between consecutive round stamps.
    pub fn round_intervals_ms(&self) -> Vec<f64> {
        let stamps = self.stamps.lock().expect("stamp lock");
        stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }

    /// Every node thread's span, in shutdown order.
    pub fn node_spans(&self) -> Vec<NodeSpan> {
        self.nodes.lock().expect("span lock").clone()
    }

    /// The layer clock.
    pub fn nn(&self) -> &NnClock {
        &self.nn
    }
}

/// Stamps the first `Model` broadcast of every step: one `Instant` per
/// round, kept thread-local until shutdown.
struct RoundStamper {
    inner: Box<dyn Transport>,
    next_step: u64,
    local: Vec<Instant>,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl RoundStamper {
    fn observe(&mut self, msg: &WireMsg) {
        if let WireMsg::Model { step, .. } = msg {
            if *step >= self.next_step {
                self.next_step = *step + 1;
                self.local.push(Instant::now());
            }
        }
    }
}

impl Transport for RoundStamper {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn send(&mut self, to: usize, msg: &WireMsg) {
        self.observe(msg);
        self.inner.send(to, msg);
    }

    fn broadcast(&mut self, targets: &[usize], msg: &WireMsg) {
        self.observe(msg);
        self.inner.broadcast(targets, msg);
    }

    fn broadcast_range(&mut self, targets: &[usize], msg: &WireMsg, range: Range<usize>) {
        self.observe(msg);
        self.inner.broadcast_range(targets, msg, range);
    }

    fn pool_stats(&self) -> PoolStats {
        self.inner.pool_stats()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Incoming, RecvError> {
        self.inner.recv_timeout(timeout)
    }

    fn dropped_sends(&self) -> u64 {
        self.inner.dropped_sends()
    }

    fn link_failures(&self) -> u64 {
        self.inner.link_failures()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
        self.stamps
            .lock()
            .expect("stamp lock")
            .append(&mut self.local);
    }
}

/// Times every call through the transport seam of one node.
struct TimedTransport {
    inner: Box<dyn Transport>,
    born: Instant,
    acc: NodeSpan,
    /// Taken at the first shutdown, so the span is reported once.
    sink: Option<Arc<Mutex<Vec<NodeSpan>>>>,
}

impl TimedTransport {
    fn sent(&mut self, started: Instant, targets: usize, len: usize) {
        self.acc.send_busy += started.elapsed();
        self.acc.sends += 1;
        self.acc.frames += targets as u64;
        self.acc.bytes += targets as u64 * frame_bytes(len);
    }
}

impl Transport for TimedTransport {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn send(&mut self, to: usize, msg: &WireMsg) {
        let t = Instant::now();
        self.inner.send(to, msg);
        self.sent(t, 1, msg.vector().len());
    }

    fn broadcast(&mut self, targets: &[usize], msg: &WireMsg) {
        let t = Instant::now();
        self.inner.broadcast(targets, msg);
        self.sent(t, targets.len(), msg.vector().len());
    }

    // Forwarded, not defaulted: the default would materialise the slice
    // and take the run off the engines' zero-copy scatter path.
    fn broadcast_range(&mut self, targets: &[usize], msg: &WireMsg, range: Range<usize>) {
        let t = Instant::now();
        let len = range.len();
        self.inner.broadcast_range(targets, msg, range);
        self.sent(t, targets.len(), len);
    }

    fn pool_stats(&self) -> PoolStats {
        self.inner.pool_stats()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Incoming, RecvError> {
        let t = Instant::now();
        let got = self.inner.recv_timeout(timeout);
        let waited = t.elapsed();
        match &got {
            Ok(_) => {
                self.acc.recv_wait += waited;
                self.acc.received += 1;
            }
            Err(e) => {
                self.acc.recv_idle += waited;
                if *e == RecvError::Timeout {
                    self.acc.recv_timeouts += 1;
                }
            }
        }
        got
    }

    fn dropped_sends(&self) -> u64 {
        self.inner.dropped_sends()
    }

    fn link_failures(&self) -> u64 {
        self.inner.link_failures()
    }

    fn shutdown(&mut self) {
        // The span ends where the node thread stops working; joining the
        // endpoint's I/O threads is teardown, not the node's time.
        if let Some(sink) = self.sink.take() {
            self.acc.span = self.born.elapsed();
            sink.lock().expect("span lock").push(self.acc);
        }
        self.inner.shutdown();
    }
}

/// Stamps every training forward pass of one model: one per round.
struct StampLayer {
    inner: Box<dyn Layer>,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

/// Times one layer's training passes into the shared [`NnClock`].
struct TimedLayer {
    inner: Box<dyn Layer>,
    first: bool,
    clock: Arc<NnClock>,
}

macro_rules! delegate_layer_state {
    () => {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn params(&self) -> Vec<&Tensor> {
            self.inner.params()
        }

        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            self.inner.params_mut()
        }

        fn grads(&self) -> Vec<&Tensor> {
            self.inner.grads()
        }

        fn zero_grads(&mut self) {
            self.inner.zero_grads();
        }

        fn param_count(&self) -> usize {
            self.inner.param_count()
        }
    };
}

impl Layer for StampLayer {
    delegate_layer_state!();

    fn forward(&mut self, input: &Tensor, train: bool) -> nn::Result<Tensor> {
        if train {
            self.stamps.lock().expect("stamp lock").push(Instant::now());
        }
        self.inner.forward(input, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> nn::Result<Tensor> {
        self.inner.backward(grad_out)
    }
}

impl Layer for TimedLayer {
    delegate_layer_state!();

    fn forward(&mut self, input: &Tensor, train: bool) -> nn::Result<Tensor> {
        if !train {
            return self.inner.forward(input, train);
        }
        let t = Instant::now();
        let out = self.inner.forward(input, train);
        let ns = t.elapsed().as_nanos() as u64;
        self.clock.forward_ns.fetch_add(ns, Ordering::Relaxed);
        if self.first {
            self.clock.gradients.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> nn::Result<Tensor> {
        let t = Instant::now();
        let out = self.inner.backward(grad_out);
        let ns = t.elapsed().as_nanos() as u64;
        self.clock.backward_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guanyu_runtime::ChannelTransport;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let node = NodeSpan {
            span: ms(100),
            send_busy: ms(20),
            recv_wait: ms(30),
            recv_idle: ms(5),
            ..NodeSpan::default()
        };
        assert_eq!(node.self_time(), ms(45));
        // Children measured with their own clock reads can overshoot a
        // short span by nanoseconds; self time floors at zero.
        let tight = NodeSpan {
            span: ms(10),
            send_busy: ms(6),
            recv_wait: ms(6),
            ..NodeSpan::default()
        };
        assert_eq!(tight.self_time(), Duration::ZERO);
    }

    #[test]
    fn closed_form_frame_count() {
        // 3 servers, 6 workers: 18 models + 18 gradients + 6 exchanges.
        assert_eq!(frames_per_round(3, 6), 42);
        assert_eq!(frames_per_round(6, 18), 6 * 18 * 2 + 30);
        assert_eq!(frames_per_round(1, 6), 12, "one server exchanges nothing");
        assert_eq!(frame_bytes(64_970), 13 + 259_880);
    }

    fn model_msg(step: u64) -> WireMsg {
        WireMsg::Model {
            step,
            params: Tensor::from_flat(vec![1.0, 2.0, 3.0, 4.0]),
        }
    }

    #[test]
    fn timed_endpoint_counts_frames_bytes_and_receives() {
        let probes = Probes::new(true);
        let wrap = probes.wrap_transport(1);
        let mut mesh = ChannelTransport::mesh(3).into_iter();
        let mut n0 = wrap(0, Box::new(mesh.next().unwrap()));
        let mut n1 = wrap(1, Box::new(mesh.next().unwrap()));
        let mut n2 = wrap(2, Box::new(mesh.next().unwrap()));

        n0.broadcast(&[1, 2], &model_msg(0));
        n0.broadcast(&[1, 2], &model_msg(0)); // same step: no second stamp
        n0.broadcast_range(&[1], &model_msg(1), 1..3);
        n0.send(2, &model_msg(2));
        for _ in 0..3 {
            n1.recv_timeout(ms(100)).unwrap();
            n2.recv_timeout(ms(100)).unwrap();
        }
        assert_eq!(n1.recv_timeout(ms(1)).unwrap_err(), RecvError::Timeout);
        assert_eq!(n0.pool_stats().fresh, 1, "pool stats pass through");
        for n in [&mut n0, &mut n1, &mut n2] {
            n.shutdown();
            n.shutdown(); // idempotent: one span per node
        }

        let spans = probes.node_spans();
        assert_eq!(spans.len(), 3);
        let (s0, s1) = (spans[0], spans[1]);
        assert!(s0.server && !s1.server);
        assert_eq!((s0.sends, s0.frames), (4, 6));
        assert_eq!(
            s0.bytes,
            4 * frame_bytes(4) + frame_bytes(2) + frame_bytes(4)
        );
        assert_eq!((s1.received, s1.recv_timeouts), (3, 1));
        assert!(s1.span >= s1.recv_wait + s1.recv_idle);
        assert_eq!(probes.round_intervals_ms().len(), 2, "steps 0, 1, 2");
    }

    #[test]
    fn untraced_endpoints_stay_bare_except_node_zero() {
        let probes = Probes::new(false);
        let wrap = probes.wrap_transport(1);
        let mut mesh = ChannelTransport::mesh(2).into_iter();
        let mut n0 = wrap(0, Box::new(mesh.next().unwrap()));
        let mut n1 = wrap(1, Box::new(mesh.next().unwrap()));
        n0.send(1, &model_msg(0));
        n0.send(1, &model_msg(1));
        n0.shutdown();
        n1.shutdown();
        assert!(probes.node_spans().is_empty());
        assert_eq!(probes.round_intervals_ms().len(), 1);
    }

    #[test]
    fn wrapped_model_computes_the_same_gradient_and_is_timed() {
        let kind = ModelKind::SmallCnn { filters: 2 };
        let probes = Probes::new(true).stamping_worker_model();
        let _theta0 = probes.build_model(kind, &mut TensorRng::new(5));
        let mut timed = probes.build_model(kind, &mut TensorRng::new(5));
        let mut plain = kind.build(&mut TensorRng::new(5));
        assert_eq!(
            timed.param_vector().as_slice(),
            plain.param_vector().as_slice()
        );

        let x = TensorRng::new(9).uniform_tensor(&[4, 3, 8, 8], -1.0, 1.0);
        let labels = [0usize, 1, 2, 3];
        let mut grads = Vec::new();
        for model in [&mut timed, &mut plain] {
            model.zero_grads();
            let logits = model.forward(&x, true).unwrap();
            let (_, dl) = nn::softmax_cross_entropy(&logits, &labels).unwrap();
            model.backward(&dl).unwrap();
            grads.push(model.grad_vector());
        }
        assert_eq!(grads[0].as_slice(), grads[1].as_slice());
        timed.forward(&x, false).unwrap(); // evaluation: not counted

        assert_eq!(probes.nn().gradients(), 1);
        assert!(probes.nn().forward() > Duration::ZERO);
        assert!(probes.nn().backward() > Duration::ZERO);
        assert!(probes.round_intervals_ms().is_empty(), "one stamp so far");
        timed.forward(&x, true).unwrap();
        assert_eq!(probes.round_intervals_ms().len(), 1);
    }
}
