//! The write-ahead log of every durable node.
//!
//! Every nondeterministic input the coordinator consumes — an in-order
//! message delivery, a detector timer fire, an operator eviction, a drain
//! of the detection outbox — is appended as one framed record *before* its
//! effects are applied (a durable site logs its outbound state the same
//! way, `super::site_wal`). Now and then a node compacts its log to an
//! image of the state those records produced ([`WalWriter::compact`]), the
//! coordinator's being one [`WalRecord::Snapshot`]. Recovery
//! ([`WalWriter::open`]) reads the image and the records after it back;
//! the coordinator re-feeds them through the exact code paths that
//! consumed the inputs live.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! Scanning stops at the first frame that does not check out, classifying
//! the tail as *torn* (the file ends mid-frame — the normal shape after a
//! crash between `write` and `fsync`), *corrupt* (a full-length frame
//! whose CRC fails — bit rot) or *undecodable* (a frame whose CRC holds
//! but whose payload is no record this build knows — a log written by
//! another record format). Everything before the bad frame is trusted.
//! Recovery truncates a torn or corrupt tail back to the valid prefix
//! before appending again, so a future replay never stops early at a
//! stale hole; it refuses an undecodable log and leaves the file as it
//! is.

use super::codec::{crc32, from_bytes, Decode, Encode, Reader};
use super::snapshot::CoordinatorSnapshot;
use crate::protocol::Msg;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::codec::CodecError;

/// File name of the log inside the durability directory.
pub const WAL_FILE: &str = "wal.log";

/// Largest payload a frame may claim (1 GiB). A length beyond this is
/// corruption, not a record — it bounds the scanner's trust in a damaged
/// header.
pub const MAX_FRAME: u32 = 1 << 30;

/// Appends are `sync_data`ed every this many records, batching fsync cost
/// at the price of a bounded unsynced suffix, which the torn-tail scan
/// discards after a power loss.
/// That suffix is not always re-supplied: the coordinator acks a
/// `Delivered` frame as soon as it is appended, up to `SYNC_EVERY − 1`
/// appends before the frame is synced, so a power loss can lose messages
/// their sites have already dropped from their retransmit windows. A
/// process crash alone loses nothing, because the page cache still holds
/// the frames. Site logs sync the frames they cannot lose themselves
/// (`SiteWalRecord::must_sync`): an occurrence-carrying send commits the
/// staged occurrences before it, and this rule bounds the unsynced rest
/// (acks, empty batches and staged frames not yet shipped).
const SYNC_EVERY: u64 = 64;

/// Temporary name of a log image being written by [`WalWriter::compact`]
/// before it is renamed over [`WAL_FILE`]. Recovery never reads it.
pub const WAL_TMP_FILE: &str = "wal.log.tmp";

/// One durable coordinator input.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An in-order protocol message was delivered from `site` (its stream
    /// index) at true time `at` (nanoseconds) and fed to
    /// `handle_in_order`. Parked (out-of-order) messages are *not* logged:
    /// they are logged when they drain in order, and if the coordinator
    /// dies first, the site retransmits them (unacked by construction).
    Delivered {
        /// Stream index of the sending site.
        site: u32,
        /// Simulation true time of the delivery, nanoseconds.
        at: u64,
        /// The message, verbatim.
        msg: Msg,
    },
    /// A detector timer fired. The stamp the coordinator minted for the
    /// fire is logged part-by-part so replay rebuilds the identical
    /// timestamp without consulting a clock.
    TimerFired {
        /// The coordinator timer tag that fired.
        tag: u64,
        /// True time of the fire, nanoseconds.
        at: u64,
        /// Site component of the minted stamp.
        site: u32,
        /// Global-tick component of the minted stamp.
        global: u64,
        /// Local-tick component of the minted stamp.
        local: u64,
    },
    /// The operator evicted `site` at true time `at`.
    Evicted {
        /// Stream index of the evicted site.
        site: u32,
        /// True time of the eviction, nanoseconds.
        at: u64,
    },
    /// The engine drained `count` finished detections out of the
    /// coordinator. Replay re-drops the same prefix so a recovered
    /// coordinator does not re-report detections already handed out.
    Drained {
        /// How many detections were taken.
        count: u64,
    },
    /// First sight of a higher-epoch `Msg::Hello` from `site`: the epoch
    /// transition (parked-state clear, frontier lowering, un-eviction) is
    /// applied out-of-band, *before* sequence handling, so it is logged as
    /// its own record — the `Delivered` record for the Hello follows only
    /// when the Hello is consumed in order.
    HelloSeen {
        /// Stream index of the rejoining site.
        site: u32,
        /// True time of the first sight, nanoseconds.
        at: u64,
        /// The new incarnation epoch.
        epoch: u64,
        /// The Hello's sequence number (base of the new send window).
        base_seq: u64,
        /// The site's first post-rejoin watermark promise.
        watermark: u64,
    },
    /// The coordinator's whole recoverable state after every record that
    /// preceded it. Only valid as the first record: a compaction rewrites
    /// the log to this one record, and later inputs append after it.
    Snapshot(Box<CoordinatorSnapshot>),
}

impl Encode for WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Delivered { site, at, msg } => {
                out.push(0);
                site.encode(out);
                at.encode(out);
                msg.encode(out);
            }
            WalRecord::TimerFired {
                tag,
                at,
                site,
                global,
                local,
            } => {
                out.push(1);
                tag.encode(out);
                at.encode(out);
                site.encode(out);
                global.encode(out);
                local.encode(out);
            }
            WalRecord::Evicted { site, at } => {
                out.push(2);
                site.encode(out);
                at.encode(out);
            }
            WalRecord::Drained { count } => {
                out.push(3);
                count.encode(out);
            }
            WalRecord::HelloSeen {
                site,
                at,
                epoch,
                base_seq,
                watermark,
            } => {
                out.push(4);
                site.encode(out);
                at.encode(out);
                epoch.encode(out);
                base_seq.encode(out);
                watermark.encode(out);
            }
            WalRecord::Snapshot(snap) => {
                out.push(5);
                snap.encode(out);
            }
        }
    }
}

impl Decode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(WalRecord::Delivered {
                site: u32::decode(r)?,
                at: u64::decode(r)?,
                msg: Msg::decode(r)?,
            }),
            1 => Ok(WalRecord::TimerFired {
                tag: u64::decode(r)?,
                at: u64::decode(r)?,
                site: u32::decode(r)?,
                global: u64::decode(r)?,
                local: u64::decode(r)?,
            }),
            2 => Ok(WalRecord::Evicted {
                site: u32::decode(r)?,
                at: u64::decode(r)?,
            }),
            3 => Ok(WalRecord::Drained {
                count: u64::decode(r)?,
            }),
            4 => Ok(WalRecord::HelloSeen {
                site: u32::decode(r)?,
                at: u64::decode(r)?,
                epoch: u64::decode(r)?,
                base_seq: u64::decode(r)?,
                watermark: u64::decode(r)?,
            }),
            5 => Ok(WalRecord::Snapshot(Box::new(CoordinatorSnapshot::decode(
                r,
            )?))),
            _ => Err(CodecError::Invalid("WalRecord tag")),
        }
    }
}

/// How a scanned log ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends exactly on a frame boundary.
    Clean,
    /// The file ends inside a frame (crash between write and sync);
    /// `discarded` bytes of partial frame were dropped.
    Torn {
        /// Bytes of incomplete trailing frame discarded.
        discarded: usize,
    },
    /// A complete frame failed its CRC; it and everything after it
    /// (`discarded` bytes) were dropped.
    Corrupt {
        /// Bytes from the first bad frame onward discarded.
        discarded: usize,
    },
    /// A complete frame passed its CRC but its payload does not decode as
    /// a record: it was written by another record format, not damaged.
    /// The scan stops there; it and everything after it (`discarded`
    /// bytes) are not records this build can read.
    Undecodable {
        /// Bytes from the undecodable frame onward.
        discarded: usize,
    },
}

/// The result of scanning a log: the valid record prefix plus how (and
/// where) validity ended. Generic over the record type — the coordinator
/// logs [`WalRecord`]s, sites log `SiteWalRecord`s — with the same frame
/// format and tail discipline.
#[derive(Debug)]
pub struct WalScan<R> {
    /// Every record up to the first invalid frame, in append order.
    pub records: Vec<R>,
    /// Byte length of the valid prefix — the offset the writer truncates
    /// to before resuming appends.
    pub valid_len: u64,
    /// How the log ended.
    pub tail: WalTail,
}

/// Scan a WAL image already in memory. Total: any byte sequence yields a
/// (possibly empty) valid prefix and a tail classification — never a
/// panic. Exposed for corruption-injection tests; [`read_wal_as`] is the
/// filesystem entry point.
pub fn scan_bytes_as<R: Decode>(bytes: &[u8]) -> WalScan<R> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Clean,
            };
        }
        if remaining < 8 {
            return WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Torn {
                    discarded: remaining,
                },
            };
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_FRAME {
            // An impossible length is corruption of the header itself, not
            // a half-written frame.
            return WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Corrupt {
                    discarded: remaining,
                },
            };
        }
        if (remaining - 8) < len as usize {
            return WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Torn {
                    discarded: remaining,
                },
            };
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            return WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Corrupt {
                    discarded: remaining,
                },
            };
        }
        match from_bytes::<R>(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                // CRC passed but the payload is not a record: version
                // drift (or, far less likely, a CRC collision).
                return WalScan {
                    records,
                    valid_len: pos as u64,
                    tail: WalTail::Undecodable {
                        discarded: remaining,
                    },
                };
            }
        }
        pos += 8 + len as usize;
    }
}

/// Read and scan the log in `dir`. A missing file (or missing directory)
/// is an empty, clean log — the fresh-start case.
pub fn read_wal_as<R: Decode>(dir: &Path) -> io::Result<WalScan<R>> {
    let path = dir.join(WAL_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    Ok(scan_bytes_as(&bytes))
}

/// Where a [`WalWriter`] puts its frames. Production code always writes a
/// [`File`]; tests inject sinks that fail partway through a write or on
/// sync to prove I/O errors surface cleanly and the torn prefix still
/// scans.
pub trait WalSink: Write + Send {
    /// Flush written frames to stable storage (`fsync`-equivalent).
    fn sync_data(&mut self) -> io::Result<()>;
}

impl WalSink for File {
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
}

/// The floor of the compaction rule ([`WalWriter::compaction_due`]): below
/// it, a compaction's two syncs (the image and the directory) would cost
/// more than the replay they save.
pub const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// Appender half of the log, and the owner of the two decisions every
/// durable node makes about it: when to rewrite it to an image
/// ([`WalWriter::compaction_due`], [`WalWriter::compact`]) and how to read
/// it back ([`WalWriter::open`]).
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    /// The directory holding [`WAL_FILE`].
    dir: PathBuf,
    appends: u64,
    bytes: u64,
    since_sync: u64,
    syncs: u64,
    /// Byte length of the image the log was last compacted to (0 for a
    /// log that was created or opened rather than compacted).
    image: u64,
    /// Byte length of the log file: the image plus every frame after it.
    len: u64,
    /// The frame being appended, reused so a warm append allocates nothing;
    /// it keeps the capacity of the largest record appended.
    frame: Vec<u8>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl WalWriter {
    /// Create (truncating any previous log) a fresh WAL in `dir`.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(WAL_FILE))?;
        Ok(WalWriter::with_sink(Box::new(file), dir.to_path_buf()))
    }

    /// Read back the log in `dir` and reopen it for appending: the one
    /// recovery scan of every durable node. A missing log is an empty one;
    /// a torn or corrupt tail is truncated away. A frame whose CRC holds
    /// but which does not decode (another build's record format) is
    /// refused with `InvalidData`, every byte of the log left in place:
    /// cutting it there would silently drop what it recorded. Returns the
    /// writer, counting the valid prefix, and that prefix's records.
    pub fn open<R: Decode>(dir: &Path) -> io::Result<(Self, Vec<R>)> {
        let scan = read_wal_as::<R>(dir)?;
        if let WalTail::Undecodable { discarded } = scan.tail {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} has a frame at byte {} that this build cannot decode \
                     ({discarded} bytes from there on); refusing to truncate it",
                    dir.join(WAL_FILE).display(),
                    scan.valid_len
                ),
            ));
        }
        std::fs::create_dir_all(dir)?;
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL_FILE))?;
        file.set_len(scan.valid_len)?;
        file.seek(SeekFrom::End(0))?;
        let mut w = WalWriter::with_sink(Box::new(file), dir.to_path_buf());
        w.appends = scan.records.len() as u64;
        w.bytes = scan.valid_len;
        w.len = scan.valid_len;
        Ok((w, scan.records))
    }

    /// [`WalWriter::open`] this writer's own log again, as a restarted
    /// node does after a crash: the file is re-read from the directory,
    /// and the append, byte and sync counts carry on from this writer's.
    pub fn reopen<R: Decode>(&mut self) -> io::Result<Vec<R>> {
        let (w, records) = WalWriter::open(&self.dir)?;
        self.sink = w.sink;
        self.since_sync = 0;
        self.image = w.image;
        self.len = w.len;
        Ok(records)
    }

    /// Build a writer over an arbitrary sink — the fault-injection entry
    /// point. `dir` is only used by [`WalWriter::compact`] and
    /// [`WalWriter::reopen`]; nothing is opened.
    pub fn with_sink(sink: Box<dyn WalSink>, dir: PathBuf) -> Self {
        WalWriter {
            sink,
            dir,
            appends: 0,
            bytes: 0,
            since_sync: 0,
            syncs: 0,
            image: 0,
            len: 0,
            frame: Vec::new(),
        }
    }

    /// Append one record; syncs every `SYNC_EVERY` appends.
    pub fn append<R: Encode>(&mut self, rec: &R) -> io::Result<()> {
        encode_frame(rec, &mut self.frame);
        self.sink.write_all(&self.frame)?;
        self.appends += 1;
        self.bytes += self.frame.len() as u64;
        self.len += self.frame.len() as u64;
        self.since_sync += 1;
        if self.since_sync >= SYNC_EVERY {
            self.sync()?;
        }
        Ok(())
    }

    /// Flush buffered appends to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.since_sync > 0 {
            self.sink.sync_data()?;
            self.since_sync = 0;
            self.syncs += 1;
        }
        Ok(())
    }

    /// The compaction rule of every node kind, asked at its quiescent
    /// points: the log is due for a rewrite once the bytes appended after
    /// its last image reach the larger of [`COMPACT_MIN_BYTES`] and twice
    /// that image's size. The factor bounds write amplification when the
    /// image itself is large.
    pub fn compaction_due(&self) -> bool {
        self.len - self.image >= COMPACT_MIN_BYTES.max(2 * self.image)
    }

    /// Atomically rewrite the log to `image`: write it to
    /// [`WAL_TMP_FILE`], sync it, rename it over the log and sync the
    /// directory. A crash at any point leaves either the old log or the
    /// complete new one. The counts carry on (the image's frames count as
    /// appends). After an error the writer must not be used again.
    pub fn compact<R: Encode>(&mut self, image: &[R]) -> io::Result<()> {
        let tmp = self.dir.join(WAL_TMP_FILE);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut len = 0;
        for rec in image {
            encode_frame(rec, &mut self.frame);
            file.write_all(&self.frame)?;
            len += self.frame.len() as u64;
        }
        file.sync_data()?;
        std::fs::rename(&tmp, self.dir.join(WAL_FILE))?;
        File::open(&self.dir)?.sync_all()?;
        self.sink = Box::new(file);
        self.appends += image.len() as u64;
        self.bytes += len;
        self.syncs += 1;
        self.since_sync = 0;
        self.image = len;
        self.len = len;
        Ok(())
    }

    /// Syncs this writer has issued: explicit [`WalWriter::sync`] calls
    /// that had appends to flush, the implicit `SYNC_EVERY` ones and one
    /// per compaction.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Lifetime record count: the prefix the log was opened with, every
    /// append and every image frame.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Lifetime bytes written, frame headers included, counted the way
    /// [`WalWriter::appends`] counts records.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Frame a record exactly as [`WalWriter::append`] would — for tests that
/// build log images in memory.
pub fn frame_record<R: Encode>(rec: &R) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(rec, &mut frame);
    frame
}

/// Replace `frame`'s contents with `rec`'s frame: the record is encoded
/// after 8 placeholder bytes, which then receive its length and CRC.
fn encode_frame<R: Encode>(rec: &R, frame: &mut Vec<u8>) {
    frame.clear();
    frame.extend_from_slice(&[0; 8]);
    rec.encode(frame);
    let payload = &frame[8..];
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    frame[..4].copy_from_slice(&len);
    frame[4..8].copy_from_slice(&crc);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Delivered {
                site: 0,
                at: 1_000,
                msg: Msg::Batch {
                    seq: 0,
                    epoch: 0,
                    watermark: 1,
                    events: std::sync::Arc::new(vec![]),
                },
            },
            WalRecord::TimerFired {
                tag: 7,
                at: 2_000,
                site: 0,
                global: 3,
                local: 30,
            },
            WalRecord::Evicted { site: 1, at: 3_000 },
            WalRecord::Drained { count: 2 },
            WalRecord::HelloSeen {
                site: 2,
                at: 4_000,
                epoch: 1,
                base_seq: 17,
                watermark: 5,
            },
        ]
    }

    #[test]
    fn scan_roundtrips_frames() {
        let recs = sample_records();
        let mut image = Vec::new();
        for r in &recs {
            image.extend_from_slice(&frame_record(r));
        }
        let scan = scan_bytes_as::<WalRecord>(&image);
        assert_eq!(scan.records, recs);
        assert_eq!(scan.valid_len, image.len() as u64);
        assert_eq!(scan.tail, WalTail::Clean);
    }

    #[test]
    fn torn_tail_discards_partial_frame() {
        let recs = sample_records();
        let mut image = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            image.extend_from_slice(&frame_record(r));
            boundaries.push(image.len());
        }
        // Truncate mid-way through the last frame.
        let cut = boundaries[3] + 3;
        let scan = scan_bytes_as::<WalRecord>(&image[..cut]);
        assert_eq!(scan.records, recs[..3]);
        assert_eq!(scan.valid_len, boundaries[3] as u64);
        assert_eq!(
            scan.tail,
            WalTail::Torn {
                discarded: cut - boundaries[3]
            }
        );
    }

    #[test]
    fn crc_mismatch_is_corrupt() {
        let recs = sample_records();
        let mut image = Vec::new();
        for r in &recs {
            image.extend_from_slice(&frame_record(r));
        }
        // Flip one payload byte in the second frame.
        let first_len = frame_record(&recs[0]).len();
        image[first_len + 9] ^= 0xFF;
        let scan = scan_bytes_as::<WalRecord>(&image);
        assert_eq!(scan.records, recs[..1]);
        assert!(matches!(scan.tail, WalTail::Corrupt { .. }));
    }

    #[test]
    fn writer_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("decs-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recs = sample_records();
        {
            let mut w = WalWriter::create(&dir).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
            assert_eq!(w.appends(), recs.len() as u64);
        }
        // Tear the tail by appending garbage, then reopen: the scan must
        // drop the garbage and the writer must truncate it away.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(WAL_FILE))
                .unwrap();
            f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        }
        let scan = read_wal_as::<WalRecord>(&dir).unwrap();
        assert_eq!(scan.records, recs);
        assert!(matches!(scan.tail, WalTail::Torn { discarded: 3 }));
        let (mut w, reopened) = WalWriter::open::<WalRecord>(&dir).unwrap();
        assert_eq!(reopened, recs);
        assert_eq!(w.appends(), recs.len() as u64);
        assert_eq!(w.bytes(), scan.valid_len);
        w.append(&WalRecord::Drained { count: 1 }).unwrap();
        w.sync().unwrap();
        let scan2 = read_wal_as::<WalRecord>(&dir).unwrap();
        assert_eq!(scan2.records.len(), recs.len() + 1);
        assert_eq!(scan2.tail, WalTail::Clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record of about `n` bytes.
    fn sized(n: usize) -> WalRecord {
        WalRecord::Delivered {
            site: 0,
            at: 0,
            msg: Msg::Batch {
                seq: 0,
                epoch: 0,
                watermark: 0,
                events: std::sync::Arc::new(vec![decs_snoop::Occurrence::primitive(
                    decs_snoop::EventId(0),
                    decs_core::cts(&[(0, 1, 10)]),
                    vec![decs_snoop::Value::Str("x".repeat(n))],
                )]),
            },
        }
    }

    #[test]
    fn compaction_is_due_at_the_floor_then_at_twice_the_image() {
        let dir = std::env::temp_dir().join(format!("decs-wal-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = WalWriter::create(&dir).unwrap();
        let small = sized(1_000);
        let frame = frame_record(&small).len() as u64;
        let mut appended = 0;
        while !w.compaction_due() {
            w.append(&small).unwrap();
            appended += frame;
        }
        // Due exactly at the first append that reaches the floor.
        assert!(appended >= COMPACT_MIN_BYTES && appended - frame < COMPACT_MIN_BYTES);
        let (appends, bytes, syncs) = (w.appends(), w.bytes(), w.syncs());
        // An image of about 48 KiB: the next rewrite waits for twice that.
        let image: Vec<WalRecord> = (0..48).map(|_| sized(1_000)).collect();
        let image_len = image
            .iter()
            .map(|r| frame_record(r).len() as u64)
            .sum::<u64>();
        w.compact(&image).unwrap();
        assert!(!w.compaction_due());
        assert_eq!(w.appends(), appends + 48, "counts carry on");
        assert_eq!(w.bytes(), bytes + image_len);
        assert_eq!(w.syncs(), syncs + 1, "the image's sync");
        assert!(!dir.join(WAL_TMP_FILE).exists());
        let mut since = 0;
        while !w.compaction_due() {
            w.append(&small).unwrap();
            since += frame;
        }
        assert!(since >= 2 * image_len && since - frame < 2 * image_len);
        w.sync().unwrap();
        // The log is the image and the frames appended after it.
        let (reopened, records) = WalWriter::open::<WalRecord>(&dir).unwrap();
        assert_eq!(records.len() as u64, 48 + since / frame);
        assert_eq!(reopened.bytes(), image_len + since);
        // A writer reopened from disk has no image: the floor decides.
        assert!(reopened.compaction_due());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_keeps_the_counts_and_truncates_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("decs-wal-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recs = sample_records();
        let mut w = WalWriter::create(&dir).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        let (appends, bytes, syncs) = (w.appends(), w.bytes(), w.syncs());
        let mut image = std::fs::read(dir.join(WAL_FILE)).unwrap();
        image.extend_from_slice(&[1, 2, 3]);
        std::fs::write(dir.join(WAL_FILE), &image).unwrap();
        let back: Vec<WalRecord> = w.reopen().unwrap();
        assert_eq!(back, recs);
        assert_eq!((w.appends(), w.bytes(), w.syncs()), (appends, bytes, syncs));
        assert_eq!(
            std::fs::read(dir.join(WAL_FILE)).unwrap().len(),
            image.len() - 3
        );
        w.append(&WalRecord::Drained { count: 9 }).unwrap();
        w.sync().unwrap();
        assert_eq!(
            read_wal_as::<WalRecord>(&dir).unwrap().records.len(),
            recs.len() + 1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_undecodable_frame_is_refused_and_kept() {
        let dir = std::env::temp_dir().join(format!("decs-wal-undecodable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut image = frame_record(&WalRecord::Drained { count: 1 });
        let payload = [0xEEu8, 1, 2];
        image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        image.extend_from_slice(&crc32(&payload).to_le_bytes());
        image.extend_from_slice(&payload);
        std::fs::write(dir.join(WAL_FILE), &image).unwrap();
        let err = WalWriter::open::<WalRecord>(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cannot decode"), "{err}");
        assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), image);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_empty_clean_log() {
        let scan = read_wal_as::<WalRecord>(Path::new("/nonexistent/decs-nowhere")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, WalTail::Clean);
    }

    use std::sync::{Arc, Mutex};

    /// A sink with a byte budget: writes land in a shared buffer until the
    /// budget runs out, then fail with `WriteZero` — possibly mid-frame,
    /// exactly like a full disk. `sync_data` can be made to fail too.
    struct FailingSink {
        buf: Arc<Mutex<Vec<u8>>>,
        write_budget: usize,
        fail_sync: bool,
    }

    impl Write for FailingSink {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            let mut buf = self.buf.lock().unwrap();
            let n = data.len().min(self.write_budget);
            buf.extend_from_slice(&data[..n]);
            self.write_budget -= n;
            if n == 0 {
                Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
            } else {
                Ok(n)
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WalSink for FailingSink {
        fn sync_data(&mut self) -> io::Result<()> {
            if self.fail_sync {
                Err(io::Error::other("sync failed"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn write_error_mid_frame_surfaces_and_prefix_scans() {
        let recs = sample_records();
        let whole: usize = recs.iter().map(|r| frame_record(r).len()).sum();
        let first_two: usize = recs[..2].iter().map(|r| frame_record(r).len()).sum();
        // Budget covers two frames plus part of the third.
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = FailingSink {
            buf: Arc::clone(&buf),
            write_budget: first_two + 5,
            fail_sync: false,
        };
        let mut w = WalWriter::with_sink(Box::new(sink), PathBuf::from("<mem>"));
        w.append(&recs[0]).unwrap();
        w.append(&recs[1]).unwrap();
        let err = w.append(&recs[2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(whole > first_two + 5, "third frame must not fit");
        // The torn bytes on "disk" are a valid prefix plus a partial frame:
        // the scanner recovers the two durable records and classifies the
        // tail as torn — never misreads the fragment as a record.
        let image = buf.lock().unwrap().clone();
        let scan = scan_bytes_as::<WalRecord>(&image);
        assert_eq!(scan.records, recs[..2]);
        assert_eq!(scan.valid_len, first_two as u64);
        assert_eq!(scan.tail, WalTail::Torn { discarded: 5 });
    }

    #[test]
    fn sync_error_surfaces_cleanly() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = FailingSink {
            buf: Arc::clone(&buf),
            write_budget: usize::MAX,
            fail_sync: true,
        };
        let mut w = WalWriter::with_sink(Box::new(sink), PathBuf::from("<mem>"));
        w.append(&WalRecord::Drained { count: 1 }).unwrap();
        let err = w.sync().unwrap_err();
        assert_eq!(err.to_string(), "sync failed");
        // The frame itself was written intact; only durability failed.
        let image = buf.lock().unwrap().clone();
        let scan = scan_bytes_as::<WalRecord>(&image);
        assert_eq!(scan.records, vec![WalRecord::Drained { count: 1 }]);
        assert_eq!(scan.tail, WalTail::Clean);
    }

    #[test]
    fn sync_every_boundary_propagates_write_error() {
        // The SYNC_EVERY'th append triggers an implicit sync; a failing
        // sync surfaces through append, not silently.
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = FailingSink {
            buf,
            write_budget: usize::MAX,
            fail_sync: true,
        };
        let mut w = WalWriter::with_sink(Box::new(sink), PathBuf::from("<mem>"));
        let mut failed = false;
        for i in 0..SYNC_EVERY {
            if w.append(&WalRecord::Drained { count: i }).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "implicit sync at the batch boundary must surface");
    }
}
