//! Threaded deployment of the GuanYu protocol over real transports.
//!
//! The simulation engines in the `guanyu` crate model the network; this
//! crate actually *runs* the protocol across OS threads, one per node,
//! exchanging binary frames through a pluggable [`Transport`]
//! (DESIGN.md §7):
//!
//! * [`TransportKind::Channel`] — in-process `mpsc` channels with
//!   `Arc`-shared broadcast buffers (the zero-copy gradient plane);
//! * [`TransportKind::TcpLoopback`] — real `std::net` TCP sockets over
//!   `127.0.0.1`: length-prefixed stream framing ([`StreamDecoder`]),
//!   id-carrying handshakes, batched per-peer writer threads flushing many
//!   frames per vectored syscall, a single poll-style reader thread per
//!   node, pooled encode buffers ([`BufPool`]), and a graceful shutdown
//!   that joins every I/O thread.
//!
//! Either way, every model and gradient really is serialised to bytes and
//! parsed back on the receiving side, so the serialization path the
//! paper's §5.3 blames for its low-level-runtime overhead is genuinely
//! exercised (and measured by `perf`'s `runtime.wire.encode_ms` /
//! `decode_ms`) — and on TCP the bytes additionally cross the kernel's
//! socket stack. The message the codec carries, [`WireMsg`], is the node
//! machines' own `guanyu::node::NodeMsg`. At full
//! quorums both transports produce bit-identical runs and bit-identical
//! [`guanyu::trace::Trace`] digests, the cross-transport consistency
//! contract `tests/engines_consistency.rs` pins.
//!
//! With [`RuntimeConfig::shards`] > 1 the run uses the *sharded gradient
//! plane* (DESIGN.md §9): the parameter vector splits into contiguous
//! ranges, each owned by its own group of server replicas; a worker
//! runs one machine per group, gathers their per-range model views into
//! one forward/backward pass and scatters the gradient back as per-range
//! slices, and at full quorums the run stays bit-identical to the
//! unsharded one.
//!
//! Scope note: the threaded runtime supports Byzantine *workers* (the
//! attacks that forge from observed traffic); fully-omniscient server
//! attacks are exercised in the deterministic engines where the adversary's
//! global view is well-defined (see DESIGN.md §4).
//!
//! # Example
//!
//! ```
//! use guanyu_runtime::{run_cluster, RuntimeConfig};
//! use guanyu::config::ClusterConfig;
//! use data::{synthetic_cifar, SyntheticConfig};
//! use nn::models;
//!
//! let (train, _) = synthetic_cifar(&SyntheticConfig {
//!     train: 64, test: 0, side: 8, ..Default::default()
//! }).unwrap();
//! let cfg = RuntimeConfig {
//!     cluster: ClusterConfig::new(6, 1, 9, 2).unwrap(),
//!     max_steps: 3,
//!     ..RuntimeConfig::default_for_tests()
//! };
//! let report = run_cluster(&cfg, |rng| models::small_cnn(8, 2, 10, rng), train).unwrap();
//! assert_eq!(report.final_params.len(), 6);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod cluster;
mod pool;
mod soak;
mod tcp;
mod transport;
mod wire;

pub use cluster::{
    run_cluster, run_cluster_with, ClusterReport, RunHooks, RuntimeConfig, TransportKind,
    WrapTransport,
};
pub use pool::{BufPool, PoolStats};
pub use soak::{run_soak, run_soak_with, ChurnSpec, SoakConfig, SoakCounters, SoakReport};
pub use tcp::TcpTransport;
pub use transport::{ChannelTransport, Incoming, RecvError, Transport};
pub use wire::{
    decode, encode, encode_range_shared, encode_shared, prefix_frame, write_frames, StreamDecoder,
    WireError, WireMsg, MAX_ELEMS, MAX_FRAME_BYTES, READ_SLACK,
};
