//! Engine configuration.

use decs_chronos::{Nanos, Timeout};

/// Tunables of the distributed detection engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Period of the extra mid-tick flushes of each site's notification
    /// batch. Every site stages its occurrences and sends them, with its
    /// watermark, in one `Msg::Batch` at the instant its clock enters the
    /// next global tick; an empty batch is its heartbeat. `Nanos::ZERO`
    /// (the default) flushes at those tick edges only, which costs no
    /// release latency: the coordinator cannot release a tick before
    /// every site's watermark has passed it. A positive interval adds a
    /// periodic flush between edges; the edge flush pushes the next one a
    /// full interval out. Detections are identical either way.
    pub batch_interval: Nanos,
    /// Capacity of the simulation trace (0 disables tracing).
    pub trace_capacity: usize,
    /// Base retransmission timeout for unacked site→coordinator messages
    /// (and a replica's relays). The timer restarts on progress, as in
    /// TCP: unacked messages are resent only once this long has passed
    /// since the last ack that trimmed the window (or since the first send
    /// into an empty window), so messages whose acks are still in flight
    /// are never resent. The coordinator acks every in-order delivery and
    /// re-acks every duplicate, so on a healthy link a message is acked
    /// one round trip after it was sent.
    pub retransmit_timeout: Timeout,
    /// Cap on the exponential retransmission backoff. Retries continue at
    /// the cap forever, so any partition that heals is eventually crossed.
    /// A cap at or below [`EngineConfig::retransmit_timeout`] means a
    /// constant backoff: every round waits the base timeout.
    pub retransmit_cap: Nanos,
    /// Stall detector threshold: a site is marked *suspect* when another
    /// site's watermark rises at least this long after its own last rose,
    /// counting only time in which some site's watermark was rising (each
    /// gap between rises counts up to one global tick). The check runs
    /// only as watermarks rise, so a site is called late relative to its
    /// peers' progress, never by a clock: neither a globally idle system
    /// nor an outage of every site suspects anybody.
    pub stall_timeout: Timeout,
    /// Escalate suspect sites to eviction automatically. Off by default:
    /// eviction sacrifices completeness (composites needing the evicted
    /// site's events are suppressed), so it is an explicit opt-in.
    pub auto_evict: bool,
    /// Share structurally identical subexpressions across definitions in
    /// the coordinator's plan, so they execute once per released
    /// notification. On by default. `false` runs the same engine in its
    /// unshared mode (`PlanDetector::unshared`): every definition
    /// compiles into private nodes, the differential oracle perfbench's
    /// reference runs and the equivalence suites compare against.
    /// Detections are bit-for-bit identical either way.
    pub plan_sharing: bool,
    /// Persist a write-ahead log of delivered notifications, periodically
    /// compacted to an operator-state snapshot, so a crashed coordinator
    /// can be rebuilt and resumed
    /// (`Engine::crash_and_recover_coordinator`). Requires
    /// [`EngineConfig::wal_dir`]. Off by default — durability costs a
    /// serialization + fsync-batched write per in-order message.
    pub durability: bool,
    /// Compact the coordinator's log to an operator-state snapshot
    /// whenever the minimum watermark has advanced by at least this many
    /// global ticks since the last snapshot. `0` means snapshot at every
    /// watermark advance and `u64::MAX` never; recovery works with any
    /// interval (larger intervals just replay, and keep, a longer log).
    pub snapshot_interval: u64,
    /// Directory for the write-ahead logs. `None` (the default)
    /// disables durability even if [`EngineConfig::durability`] is set.
    pub wal_dir: Option<String>,
    /// Persist each site's outbound state (unacked send window, sequence
    /// counter, staged batch) to a per-site WAL under
    /// `<wal_dir>/site-<i>`, so a restarted site resumes retransmission
    /// where the crashed incarnation stopped instead of restarting its
    /// sequence space. Requires [`EngineConfig::wal_dir`]. Off by default:
    /// every allocation, ack and staged event is logged before it takes
    /// effect, and the frames whose loss could re-sequence an occurrence
    /// (occurrence-carrying sends, epochs and Hellos) are synced first.
    /// Staged events, acks and empty batches ride along with the next
    /// sync, so the batch that ships a tick's occurrences also commits
    /// them: one sync per occurrence-carrying send. A durable site loses
    /// no staged occurrence to a process crash; a power loss loses those
    /// staged since its last occurrence-carrying send. A site without it
    /// loses, when it crashes, the occurrences it staged since its last
    /// flush.
    pub site_durability: bool,
    /// Seed for per-site retransmission-backoff jitter (each site derives
    /// an independent stream from it). `None` disables jitter: every
    /// round fires exactly at the nominal backoff.
    pub retransmit_jitter_seed: Option<u64>,
    /// Coordinator replicas in the detection plane. `1` (the default) is
    /// the classic single-coordinator deployment. With `n ≥ 2` the global
    /// definitions are partitioned across `n` replicas by rendezvous
    /// hashing, sites route each announcement only to the replicas whose
    /// definitions subscribe to its type, and cross-partition composite
    /// events are forwarded replica → replica as first-class primitive
    /// events. Detections are bit-for-bit identical to `1` (see
    /// `tests/prop_partition.rs`); incompatible with
    /// [`EngineConfig::site_durability`].
    pub coordinator_replicas: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            batch_interval: Nanos::ZERO,
            trace_capacity: 0,
            // Reliability on by default: a 200 ms base timeout, restarted
            // by every ack that makes progress, sits far above LAN/WAN
            // round trips, so a healthy link sees no retransmits (and a
            // spurious copy is just deduped anyway).
            retransmit_timeout: Timeout::from_millis::<200>(),
            retransmit_cap: Nanos::from_millis(3_200),
            // 5 s of one-sided watermark silence before a site is
            // suspected.
            stall_timeout: Timeout::from_millis::<5_000>(),
            auto_evict: false,
            plan_sharing: true,
            durability: false,
            snapshot_interval: 8,
            wal_dir: None,
            site_durability: false,
            retransmit_jitter_seed: None,
            coordinator_replicas: 1,
        }
    }
}
