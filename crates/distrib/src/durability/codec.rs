//! A compact, hand-rolled binary codec for the durability layer.
//!
//! The write-ahead log and operator-state snapshots are long-lived disk
//! artifacts, so their byte layout is owned by this module rather than
//! delegated to a serialization framework: fixed-width little-endian
//! integers, `u64` length prefixes, one-byte enum tags, no self-describing
//! overhead. Every decoder is **total** — arbitrary (corrupted, truncated,
//! bit-flipped) input produces a [`CodecError`], never a panic and never an
//! attacker-sized allocation (length prefixes are validated against the
//! bytes actually remaining before anything is reserved).
//!
//! The frame layer above this (`wal.rs` / `snapshot.rs`) adds a CRC-32 per
//! record, so decode errors here only arise on genuinely novel corruption
//! (a CRC collision) or a version drift; both are reported, not trusted.

use crate::metrics::Metrics;
use crate::protocol::{Msg, PathStep, PlanePos, RelayedEvent, RoutedEvent};
use decs_chronos::{GlobalTicks, LocalTicks, SiteId};
use decs_core::{CompositeTimestamp, PrimitiveTimestamp};
use decs_snoop::{DefTimers, EventId, NodeState, Occurrence, ParamTuple, PlanState, Value};
use std::fmt;
use std::sync::Arc;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Eof,
    /// The bytes are not a valid encoding of the expected type (bad enum
    /// tag, invalid UTF-8, an impossible length, a non-canonical
    /// timestamp…). The payload names the offending construct.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
/// Bitwise (table-free) — the durability layer is nowhere near the hot
/// path, and a 1 KiB static table is not worth it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A bounds-checked cursor over an input buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn u128(&mut self) -> Result<u128, CodecError> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// A length prefix that must plausibly fit in the remaining input:
    /// every encoded element occupies at least one byte, so a claimed
    /// length beyond `remaining` is corruption, rejected *before* any
    /// allocation is sized from it.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::Invalid("length prefix exceeds input"));
        }
        Ok(n as usize)
    }
}

/// Serialize a value into the durability byte format.
pub trait Encode {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Deserialize a value from the durability byte format. Total: corrupt
/// input yields `Err`, never a panic.
pub trait Decode: Sized {
    /// Read one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encode `v` into a fresh buffer.
pub fn to_bytes<T: Encode>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

/// Decode exactly one `T` from `buf`; trailing bytes are corruption.
pub fn from_bytes<T: Decode>(buf: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes after value"));
    }
    Ok(v)
}

// ---------------------------------------------------------------- scalars

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}
impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u8()
    }
}

/// Fixed-width integers encode little-endian.
macro_rules! le_codec {
    ($($t:ident),+) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$t()
            }
        }
    )+};
}
le_codec!(u32, u64, u128);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}
impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        usize::try_from(r.u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}
impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }
}

impl Encode for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}
impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.u64()? as i64)
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}
impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}
impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self {
            v.encode(out);
        }
    }
}
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

/// Tuples encode as their fields in order.
macro_rules! tuple_codec {
    ($($t:ident),+) => {
        impl<$($t: Encode),+> Encode for ($($t,)+) {
            #[allow(non_snake_case)]
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($t,)+) = self;
                $($t.encode(out);)+
            }
        }
        impl<$($t: Decode),+> Decode for ($($t,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    };
}
tuple_codec!(A, B);
tuple_codec!(A, B, C);
tuple_codec!(A, B, C, D);

// ----------------------------------------------------------- time domain

impl Encode for PrimitiveTimestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.site().0.encode(out);
        self.global().get().encode(out);
        self.local().get().encode(out);
    }
}
impl Decode for PrimitiveTimestamp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let site = SiteId(r.u32()?);
        let global = GlobalTicks(r.u64()?);
        let local = LocalTicks(r.u64()?);
        Ok(PrimitiveTimestamp::new(site, global, local))
    }
}

impl Encode for CompositeTimestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.members().len() as u64).encode(out);
        for m in self.members() {
            m.encode(out);
        }
    }
}
impl Decode for CompositeTimestamp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let members: Vec<PrimitiveTimestamp> = Vec::decode(r)?;
        // `try_from_primitives` re-normalizes through `max(ST)`; members
        // written by `encode` are already a max-set, so a clean roundtrip
        // is the identity, while corrupt member lists (including empty
        // ones) fail here instead of poisoning the detector.
        //
        // The version-vector summary (cached band bounds, site mask, and
        // the second-order "excluding site s" bounds the O(|sites|)
        // kernels read) is deliberately NOT on the wire: it is a pure
        // function of the member set, so decoding **rebuilds** it here
        // rather than trusting — and having to cross-validate — a
        // serialized copy. The wire format is unchanged from before the
        // summary existed; `composite_roundtrip_rebuilds_summary` below
        // and `tests/prop_wal_codec.rs` pin that rebuilt stamps are
        // kernel-for-kernel identical to the originals.
        CompositeTimestamp::try_from_primitives(members)
            .map_err(|_| CodecError::Invalid("composite timestamp members"))
    }
}

// ------------------------------------------------------------ event layer

impl Encode for EventId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}
impl Decode for EventId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EventId(r.u32()?))
    }
}

impl Encode for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                out.push(0);
                i.encode(out);
            }
            Value::Float(x) => {
                out.push(1);
                x.encode(out);
            }
            Value::Str(s) => {
                out.push(2);
                s.encode(out);
            }
            Value::Bool(b) => {
                out.push(3);
                b.encode(out);
            }
        }
    }
}
impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(Value::Int(i64::decode(r)?)),
            1 => Ok(Value::Float(f64::decode(r)?)),
            2 => Ok(Value::Str(String::decode(r)?)),
            3 => Ok(Value::Bool(bool::decode(r)?)),
            _ => Err(CodecError::Invalid("Value tag")),
        }
    }
}

impl Encode for ParamTuple {
    fn encode(&self, out: &mut Vec<u8>) {
        self.source.encode(out);
        self.values[..].encode(out);
    }
}
impl Decode for ParamTuple {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let source = EventId::decode(r)?;
        Ok(ParamTuple::new(source, Vec::decode(r)?))
    }
}

impl Encode for Occurrence<CompositeTimestamp> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ty.encode(out);
        self.time.encode(out);
        self.uid.encode(out);
        self.params.encode(out);
    }
}
impl Decode for Occurrence<CompositeTimestamp> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let ty = EventId::decode(r)?;
        let time = CompositeTimestamp::decode(r)?;
        let uid = r.u64()?;
        let params: Vec<ParamTuple> = Vec::decode(r)?;
        Ok(Occurrence {
            ty,
            time,
            params: params.into(),
            uid,
        })
    }
}

impl Encode for RoutedEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ordinal.encode(out);
        self.occ.encode(out);
    }
}
impl Decode for RoutedEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RoutedEvent {
            ordinal: r.u64()?,
            occ: Occurrence::decode(r)?,
        })
    }
}

impl Encode for PathStep {
    fn encode(&self, out: &mut Vec<u8>) {
        self.time.encode(out);
        self.ty.encode(out);
        self.dup.encode(out);
    }
}
impl Decode for PathStep {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PathStep {
            time: CompositeTimestamp::decode(r)?,
            ty: r.u32()?,
            dup: r.u32()?,
        })
    }
}

impl Encode for PlanePos {
    fn encode(&self, out: &mut Vec<u8>) {
        self.g.encode(out);
        self.site.encode(out);
        self.ordinal.encode(out);
        self.depth.encode(out);
    }
}
impl Decode for PlanePos {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PlanePos {
            g: r.u64()?,
            site: r.u32()?,
            ordinal: r.u64()?,
            depth: r.u32()?,
        })
    }
}

impl Encode for RelayedEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        self.root.encode(out);
        self.depth.encode(out);
        self.path.encode(out);
        self.immediate.encode(out);
        self.occ.encode(out);
    }
}
impl Decode for RelayedEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RelayedEvent {
            root: <(u64, u32, u64)>::decode(r)?,
            depth: r.u32()?,
            path: Vec::decode(r)?,
            immediate: bool::decode(r)?,
            occ: Occurrence::decode(r)?,
        })
    }
}

impl Encode for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Start => out.push(0),
            Msg::Inject { ty, values } => {
                out.push(1);
                ty.encode(out);
                values.encode(out);
            }
            Msg::Batch {
                seq,
                epoch,
                watermark,
                events,
            } => {
                out.push(4);
                seq.encode(out);
                epoch.encode(out);
                watermark.encode(out);
                events.as_ref().encode(out);
            }
            Msg::Ack { cum_seq, epoch } => {
                out.push(5);
                cum_seq.encode(out);
                epoch.encode(out);
            }
            Msg::Crash => out.push(6),
            Msg::Evict { site } => {
                out.push(7);
                site.encode(out);
            }
            Msg::Hello {
                seq,
                epoch,
                watermark,
            } => {
                out.push(8);
                seq.encode(out);
                epoch.encode(out);
                watermark.encode(out);
            }
            Msg::Restart => out.push(9),
            Msg::Routed {
                seq,
                epoch,
                watermark,
                events,
            } => {
                out.push(10);
                seq.encode(out);
                epoch.encode(out);
                watermark.encode(out);
                events.as_ref().encode(out);
            }
            Msg::Relay {
                seq,
                promise,
                events,
            } => {
                out.push(11);
                seq.encode(out);
                promise.encode(out);
                events.as_ref().encode(out);
            }
        }
    }
}
impl Decode for Msg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(Msg::Start),
            1 => Ok(Msg::Inject {
                ty: EventId::decode(r)?,
                values: Vec::decode(r)?,
            }),
            4 => Ok(Msg::Batch {
                seq: r.u64()?,
                epoch: r.u64()?,
                watermark: r.u64()?,
                events: Arc::new(Vec::decode(r)?),
            }),
            5 => Ok(Msg::Ack {
                cum_seq: r.u64()?,
                epoch: r.u64()?,
            }),
            6 => Ok(Msg::Crash),
            7 => Ok(Msg::Evict { site: r.u32()? }),
            8 => Ok(Msg::Hello {
                seq: r.u64()?,
                epoch: r.u64()?,
                watermark: r.u64()?,
            }),
            9 => Ok(Msg::Restart),
            10 => Ok(Msg::Routed {
                seq: r.u64()?,
                epoch: r.u64()?,
                watermark: r.u64()?,
                events: Arc::new(Vec::decode(r)?),
            }),
            11 => Ok(Msg::Relay {
                seq: r.u64()?,
                promise: Vec::decode(r)?,
                events: Arc::new(Vec::decode(r)?),
            }),
            _ => Err(CodecError::Invalid("Msg tag")),
        }
    }
}

// -------------------------------------------------------- detector states

impl Encode for NodeState<CompositeTimestamp> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nums.encode(out);
        self.occs.encode(out);
        self.times.encode(out);
    }
}
impl Decode for NodeState<CompositeTimestamp> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NodeState {
            nums: Vec::decode(r)?,
            occs: Vec::decode(r)?,
            times: Vec::decode(r)?,
        })
    }
}

impl Encode for DefTimers {
    fn encode(&self, out: &mut Vec<u8>) {
        self.timers.encode(out);
        self.next_timer.encode(out);
    }
}
impl Decode for DefTimers {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DefTimers {
            timers: Vec::decode(r)?,
            next_timer: r.u64()?,
        })
    }
}

impl Encode for PlanState<CompositeTimestamp> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nodes.encode(out);
        self.execs.encode(out);
        self.defs.encode(out);
    }
}
impl Decode for PlanState<CompositeTimestamp> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PlanState {
            nodes: Vec::decode(r)?,
            execs: Vec::decode(r)?,
            defs: Vec::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------- metrics

impl Encode for Metrics {
    fn encode(&self, out: &mut Vec<u8>) {
        self.events_received.encode(out);
        self.events_released.encode(out);
        self.detections.encode(out);
        self.reassembly_parks.encode(out);
        self.max_buffered.encode(out);
        self.stability_latency_sum_ns.encode(out);
        self.timer_fires.encode(out);
        self.messages_processed.encode(out);
        self.batches_received.encode(out);
        self.batch_size_max.encode(out);
        self.release_batches.encode(out);
        self.shard_count.encode(out);
        self.plan_nodes.encode(out);
        self.shared_nodes.encode(out);
        self.sharing_ratio.encode(out);
        self.gc_evicted.encode(out);
        self.node_buffered.encode(out);
        self.node_buffer_peak.encode(out);
        self.stage_count.encode(out);
        self.retransmits.encode(out);
        self.acks_sent.encode(out);
        self.duplicates_dropped.encode(out);
        self.parked_peak.encode(out);
        self.parked_dropped.encode(out);
        self.suspect_sites.encode(out);
        self.stall_ns.encode(out);
        self.evict_refused.encode(out);
        self.auto_evictions.encode(out);
        self.wal_appends.encode(out);
        self.wal_bytes.encode(out);
        self.snapshots_taken.encode(out);
        self.recovery_replayed.encode(out);
        self.recovery_ns.encode(out);
        self.site_restarts.encode(out);
        self.rejoins.encode(out);
        self.epoch_max.encode(out);
        self.rejoin_latency_ns.encode(out);
        self.stale_refused.encode(out);
        self.epoch_filtered.encode(out);
        self.wal_errors.encode(out);
        self.replica_count.encode(out);
        self.relays_sent.encode(out);
        self.relay_events.encode(out);
        self.relay_retransmits.encode(out);
        self.relays_received.encode(out);
        self.routed_received.encode(out);
    }
}
impl Decode for Metrics {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Metrics {
            events_received: r.u64()?,
            events_released: r.u64()?,
            detections: r.u64()?,
            reassembly_parks: r.u64()?,
            max_buffered: usize::decode(r)?,
            stability_latency_sum_ns: r.u128()?,
            timer_fires: r.u64()?,
            messages_processed: r.u64()?,
            batches_received: r.u64()?,
            batch_size_max: usize::decode(r)?,
            release_batches: r.u64()?,
            shard_count: usize::decode(r)?,
            plan_nodes: usize::decode(r)?,
            shared_nodes: usize::decode(r)?,
            sharing_ratio: f64::decode(r)?,
            gc_evicted: r.u64()?,
            node_buffered: usize::decode(r)?,
            node_buffer_peak: usize::decode(r)?,
            stage_count: usize::decode(r)?,
            retransmits: r.u64()?,
            acks_sent: r.u64()?,
            duplicates_dropped: r.u64()?,
            parked_peak: usize::decode(r)?,
            parked_dropped: r.u64()?,
            suspect_sites: usize::decode(r)?,
            stall_ns: r.u128()?,
            evict_refused: r.u64()?,
            auto_evictions: r.u64()?,
            wal_appends: r.u64()?,
            wal_bytes: r.u64()?,
            snapshots_taken: r.u64()?,
            recovery_replayed: r.u64()?,
            recovery_ns: r.u64()?,
            site_restarts: r.u64()?,
            rejoins: r.u64()?,
            epoch_max: r.u64()?,
            rejoin_latency_ns: r.u64()?,
            stale_refused: r.u64()?,
            epoch_filtered: r.u64()?,
            wal_errors: r.u64()?,
            replica_count: usize::decode(r)?,
            relays_sent: r.u64()?,
            relay_events: r.u64()?,
            relay_retransmits: r.u64()?,
            relays_received: r.u64()?,
            routed_received: r.u64()?,
            // Site-held and summed by the engine, so a coordinator's copy
            // is always 0; not persisted, which keeps the record format.
            gap_resends: 0,
            // Deliberately not persisted: engine-side wall-clock timing of
            // the *current* process, meaningless to a recovered successor.
            busy_ns: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_core::cts;

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 test vector: "123456789" → 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(from_bytes::<u64>(&to_bytes(&7u64)).unwrap(), 7);
        assert!(from_bytes::<bool>(&to_bytes(&true)).unwrap());
        assert_eq!(
            from_bytes::<String>(&to_bytes(&"héllo".to_string())).unwrap(),
            "héllo"
        );
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(from_bytes::<Vec<u64>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn occurrence_roundtrip() {
        let occ = Occurrence::primitive(
            EventId(3),
            cts(&[(0, 5, 50), (1, 5, 51)]),
            vec![Value::Int(-4), Value::Str("x".into()), Value::Bool(false)],
        );
        let back: Occurrence<CompositeTimestamp> = from_bytes(&to_bytes(&occ)).unwrap();
        assert_eq!(back, occ);
        assert_eq!(back.uid, occ.uid);
    }

    /// A tuple's bytes do not depend on whether it holds its values in
    /// place or shared: each case is pinned to the bytes the log has
    /// always held, and decodes to a tuple equal to one built in memory.
    #[test]
    fn param_tuple_bytes_are_pinned() {
        // Type 3, stamp {(site 1, global 8, local 80)}, uid 42, then one
        // tuple from type 3 whose values follow.
        const HEAD: &str = concat!(
            "03000000",
            "0100000000000000",
            "01000000",
            "0800000000000000",
            "5000000000000000",
            "2a00000000000000",
            "0100000000000000",
            "03000000",
        );
        let cases = [
            (vec![], "0000000000000000"),
            // Length, then per value a tag byte and its payload.
            (
                vec![Value::Int(7)],
                concat!("0100000000000000", "00", "0700000000000000"),
            ),
            (
                vec![Value::Str("ab".into())],
                concat!("0100000000000000", "02", "0200000000000000", "6162"),
            ),
            (
                vec![Value::Int(-4), Value::Float(0.5), Value::Bool(true)],
                concat!(
                    "0300000000000000",
                    "00fcffffffffffffff",
                    "01000000000000e03f",
                    "0301"
                ),
            ),
        ];
        for (values, tail) in cases {
            let mut occ = Occurrence::primitive(EventId(3), cts(&[(1, 8, 80)]), values.clone());
            occ.uid = 42;
            let bytes = to_bytes(&occ);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, format!("{HEAD}{tail}"), "{values:?}");
            let back: Occurrence<CompositeTimestamp> = from_bytes(&bytes).unwrap();
            assert_eq!(back.params[0], ParamTuple::new(EventId(3), values));
            assert_eq!(back, occ);
        }
    }

    #[test]
    fn composite_roundtrip_rebuilds_summary() {
        // Wide stamps across 40 sites (heap members, multi-site runs):
        // the wire carries members only; decode must rebuild the cached
        // version-vector summary so the O(|sites|) kernels see the exact
        // same world after recovery. `PartialEq` compares the cached
        // bounds/mask first, and the kernel spot-checks compare decoded
        // stamps against the untouched originals through both fast and
        // oracle paths.
        let wide = CompositeTimestamp::from_primitives(
            (0..40u32).map(|i| decs_core::pts(i, 10 + u64::from(i % 2), 100 + u64::from(i))),
        );
        let shifted = CompositeTimestamp::from_primitives(
            (20..60u32).map(|i| decs_core::pts(i, 11 + u64::from(i % 2), 200 + u64::from(i))),
        );
        for t in [&wide, &shifted] {
            let back: CompositeTimestamp = from_bytes(&to_bytes(t)).unwrap();
            assert_eq!(&back, t);
            assert_eq!(back.min_global(), t.min_global());
            assert_eq!(back.max_global(), t.max_global());
            assert_eq!(back.site_mask(), t.site_mask());
        }
        let back_wide: CompositeTimestamp = from_bytes(&to_bytes(&wide)).unwrap();
        let back_shifted: CompositeTimestamp = from_bytes(&to_bytes(&shifted)).unwrap();
        assert_eq!(
            back_wide.relation(&back_shifted),
            wide.relation_naive(&shifted)
        );
        assert_eq!(
            decs_core::max_op(&back_wide, &back_shifted),
            decs_core::max_op_naive(&wide, &shifted)
        );
    }

    #[test]
    fn msg_roundtrips() {
        let msgs = vec![
            Msg::Start,
            Msg::Inject {
                ty: EventId(1),
                values: vec![Value::Float(2.5)],
            },
            Msg::Batch {
                seq: 11,
                epoch: 2,
                watermark: 9,
                events: Arc::new(vec![Occurrence::bare(EventId(1), cts(&[(0, 9, 90)]))]),
            },
            Msg::Ack {
                cum_seq: 12,
                epoch: 3,
            },
            Msg::Crash,
            Msg::Evict { site: 2 },
            Msg::Hello {
                seq: 13,
                epoch: 4,
                watermark: 10,
            },
            Msg::Restart,
            Msg::Routed {
                seq: 14,
                epoch: 5,
                watermark: 11,
                events: Arc::new(vec![RoutedEvent {
                    ordinal: 42,
                    occ: Occurrence::bare(EventId(2), cts(&[(1, 3, 30)])),
                }]),
            },
            Msg::Relay {
                seq: 15,
                promise: vec![
                    PlanePos {
                        g: 7,
                        site: 1,
                        ordinal: 3,
                        depth: 2,
                    },
                    PlanePos {
                        g: 7,
                        site: 0,
                        ordinal: 1,
                        depth: 1,
                    },
                ],
                events: Arc::new(vec![RelayedEvent {
                    root: (6, 0, 4),
                    depth: 1,
                    path: vec![PathStep {
                        time: cts(&[(0, 6, 60)]),
                        ty: 5,
                        dup: 0,
                    }],
                    immediate: false,
                    occ: Occurrence::bare(EventId(5), cts(&[(0, 6, 60)])),
                }]),
            },
        ];
        for m in msgs {
            let back: Msg = from_bytes(&to_bytes(&m)).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn bad_tags_and_lengths_fail_cleanly() {
        assert_eq!(
            from_bytes::<bool>(&[9]),
            Err(CodecError::Invalid("bool tag"))
        );
        // Tags 2 and 3 are retired: a log holding them is refused, not
        // misread.
        for tag in [2, 3, 99] {
            assert_eq!(
                from_bytes::<Msg>(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]),
                Err(CodecError::Invalid("Msg tag"))
            );
        }
        // A length prefix claiming more elements than bytes remain.
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&buf),
            Err(CodecError::Invalid(_))
        ));
        // Truncation anywhere is an Eof, not a panic.
        let full = to_bytes(&Msg::Batch {
            seq: 1,
            epoch: 0,
            watermark: 2,
            events: Arc::new(vec![]),
        });
        for cut in 0..full.len() {
            assert!(from_bytes::<Msg>(&full[..cut]).is_err());
        }
        // Trailing bytes are rejected.
        let mut extra = to_bytes(&5u64);
        extra.push(0);
        assert_eq!(
            from_bytes::<u64>(&extra),
            Err(CodecError::Invalid("trailing bytes after value"))
        );
    }

    #[test]
    fn empty_composite_timestamp_rejected() {
        let empty: Vec<PrimitiveTimestamp> = Vec::new();
        let buf = to_bytes(&empty);
        assert_eq!(
            from_bytes::<CompositeTimestamp>(&buf),
            Err(CodecError::Invalid("composite timestamp members"))
        );
    }
}
