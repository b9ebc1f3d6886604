//! Power-loss property of the site write-ahead log.
//!
//! A site syncs a log frame before acting on it only when losing the
//! frame could re-sequence an occurrence (`SiteWalRecord::must_sync`):
//! staged occurrences are group-committed by the sync of the
//! occurrence-carrying batch that ships them. This suite drives the real
//! `WalWriter` through `SiteWalRecord::log_to`, exactly as a site does,
//! into a sink that remembers how many bytes the last sync made durable.
//! A random run of stage / flush / ack steps is cut at a random point,
//! and the log is recovered from what a power loss could leave: the
//! synced prefix, or any longer prefix of the written bytes. Each
//! recovery must satisfy the release rule's needs and the documented
//! power-loss contract of a durable site (it loses at most what it staged
//! since its last sync):
//!
//! * every occurrence-carrying message sent before the cut is either
//!   below the recovered ack baseline or in the recovered retransmit
//!   window, byte for byte;
//! * the recovered sequence counter is above every occurrence-carrying
//!   sequence number sent, so no such slot is ever reused;
//! * the recovered staged occurrences are a prefix of the live pending
//!   batch, exactly those whose frames the image holds, and every
//!   occurrence staged before the last sync survives, either staged or
//!   inside a recovered (or acked) carrying message.
//!
//! The uncut log must fold to exactly the live site's outbound state.
//!
//! A site also rewrites its log to an image of that state
//! (`WalWriter::compact`: temporary file, sync, rename, directory sync).
//! A kill during the rewrite must meet the same three guarantees: before
//! the rename, a leftover or partial `wal.log.tmp` is ignored and the old
//! log recovers (itself cut anywhere a power loss could cut it); after the
//! rename, the image recovers, holding every pending occurrence.

use decs::core::cts;
use decs::distrib::durability::{
    compaction_records, fold_records, frame_record, scan_bytes_as, to_bytes, SiteWalRecord,
    SiteWalState, WalSink, WalTail, WalWriter, WAL_FILE, WAL_TMP_FILE,
};
use decs::distrib::Msg;
use decs::snoop::{EventId, Occurrence};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Bytes written so far, and how many of them the last sync made durable.
#[derive(Default)]
struct Disk {
    written: Vec<u8>,
    synced: usize,
}

struct RecordingSink(Arc<Mutex<Disk>>);

impl Write for RecordingSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().written.extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WalSink for RecordingSink {
    fn sync_data(&mut self) -> io::Result<()> {
        let mut disk = self.0.lock().unwrap();
        disk.synced = disk.written.len();
        Ok(())
    }
}

/// One step of a site's outbound life.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// An occurrence is staged for the next batch.
    Stage,
    /// The pending batch is flushed (empty or not: an empty batch is the
    /// site's heartbeat).
    Flush,
    /// A cumulative ack arrives; the value picks how far it reaches.
    Ack(u64),
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..3, 0u64..1_000).prop_map(|(kind, n)| match kind {
        0 => Step::Stage,
        1 => Step::Flush,
        _ => Step::Ack(n),
    })
}

/// A durable site's outbound state, logged the way `SiteNode` logs it.
struct Site {
    wal: WalWriter,
    next_seq: u64,
    acked: u64,
    retx: BTreeMap<u64, Msg>,
    pending: Vec<Occurrence<decs::core::CompositeTimestamp>>,
    /// Every occurrence staged, in order, with the log length just past
    /// its `Staged` frame.
    staged: Vec<(Occurrence<decs::core::CompositeTimestamp>, usize)>,
    /// Every occurrence-carrying message sent, in send order.
    carrying: Vec<Msg>,
    tick: u64,
    disk: Arc<Mutex<Disk>>,
}

impl Site {
    fn new(disk: &Arc<Mutex<Disk>>) -> Self {
        let sink = RecordingSink(Arc::clone(disk));
        let mut wal = WalWriter::with_sink(Box::new(sink), PathBuf::from("<mem>"));
        SiteWalRecord::Epoch { epoch: 0 }.log_to(&mut wal).unwrap();
        Site {
            wal,
            next_seq: 0,
            acked: 0,
            retx: BTreeMap::new(),
            pending: Vec::new(),
            staged: Vec::new(),
            carrying: Vec::new(),
            tick: 0,
            disk: Arc::clone(disk),
        }
    }

    fn occurrence(&mut self) -> Occurrence<decs::core::CompositeTimestamp> {
        self.tick += 1;
        Occurrence::bare(EventId(1), cts(&[(0, self.tick, self.tick * 10)]))
    }

    /// Log-before-send of a sequence-numbered message.
    fn send(&mut self, msg: Msg, carries: bool) {
        SiteWalRecord::Sent { msg: msg.clone() }
            .log_to(&mut self.wal)
            .unwrap();
        if carries {
            self.carrying.push(msg.clone());
        }
        self.retx.insert(self.next_seq, msg);
        self.next_seq += 1;
    }

    fn apply(&mut self, step: Step) {
        let seq = self.next_seq;
        match step {
            Step::Stage => {
                let occ = self.occurrence();
                SiteWalRecord::Staged { occ: occ.clone() }
                    .log_to(&mut self.wal)
                    .unwrap();
                let end = self.disk.lock().unwrap().written.len();
                self.staged.push((occ.clone(), end));
                self.pending.push(occ);
            }
            Step::Flush => {
                let events = Arc::new(std::mem::take(&mut self.pending));
                let carries = !events.is_empty();
                let msg = Msg::Batch {
                    seq,
                    epoch: 0,
                    watermark: self.tick,
                    events,
                };
                self.send(msg, carries);
            }
            Step::Ack(n) => {
                // The coordinator acks only what it received, and a site
                // logs only an ack that trims its window.
                if self.next_seq > self.acked {
                    let cum_seq = self.acked + 1 + n % (self.next_seq - self.acked);
                    SiteWalRecord::Acked { cum_seq }
                        .log_to(&mut self.wal)
                        .unwrap();
                    self.retx = self.retx.split_off(&cum_seq);
                    self.acked = cum_seq;
                }
            }
        }
    }
}

impl Site {
    /// How many occurrences of the pending batch the first `len` bytes of
    /// the live log hold.
    fn held(&self, len: usize) -> usize {
        self.staged[self.staged.len() - self.pending.len()..]
            .iter()
            .take_while(|(_, end)| *end <= len)
            .count()
    }

    /// The image a compaction rewrites the log to: the live outbound state.
    fn image(&self) -> Vec<SiteWalRecord> {
        compaction_records(&SiteWalState {
            epoch: 0,
            next_seq: self.next_seq,
            retx: self.retx.clone(),
            staged: self.pending.clone(),
        })
    }
}

/// A fresh directory for one case's log files.
fn case_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decs-prop-site-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recover the log in `dir` the way a restarting site does.
fn recover(dir: &Path) -> Vec<SiteWalRecord> {
    WalWriter::open::<SiteWalRecord>(dir).unwrap().1
}

fn seq_of(msg: &Msg) -> u64 {
    match msg {
        Msg::Batch { seq, .. } => *seq,
        other => unreachable!("not logged by this model: {other:?}"),
    }
}

fn events_of(msg: &Msg) -> &[Occurrence<decs::core::CompositeTimestamp>] {
    match msg {
        Msg::Batch { events, .. } => events,
        other => unreachable!("not logged by this model: {other:?}"),
    }
}

/// Check the records recovered from a log against what the site did
/// before the cut. The log holds the first `held` occurrences of the
/// pending batch, and `synced(end)` says whether the staged occurrence
/// whose frame ended at byte `end` of the live log had been synced.
/// Panics on a violation; the harness reports the panic with the case.
fn check_recovery(
    records: &[SiteWalRecord],
    held: usize,
    synced: impl Fn(usize) -> bool,
    site: &Site,
) {
    let st = fold_records(records);
    let baseline = records
        .iter()
        .filter_map(|r| match r {
            SiteWalRecord::Acked { cum_seq } => Some(*cum_seq),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    for msg in &site.carrying {
        let seq = seq_of(msg);
        assert!(
            st.next_seq > seq,
            "recovered next_seq {} would reuse occurrence slot {seq}",
            st.next_seq
        );
        if seq >= baseline {
            let kept = st.retx.get(&seq).map(to_bytes);
            assert_eq!(kept, Some(to_bytes(msg)), "slot {seq} lost");
        }
    }
    // A power loss may drop the staged frames written since the last
    // sync, so the recovered batch is the pending batch cut after the
    // last `Staged` frame the log holds.
    assert_eq!(
        st.staged,
        site.pending[..held],
        "recovered staged occurrences are not the pending prefix the log holds"
    );
    // The contract: every occurrence staged before the last sync survives,
    // still staged or shipped in a carrying message that was acked or is
    // recovered for retransmission.
    for (occ, _) in site.staged.iter().filter(|(_, end)| synced(*end)) {
        let shipped = site.carrying.iter().any(|m| {
            let seq = seq_of(m);
            (seq < baseline || st.retx.contains_key(&seq)) && events_of(m).contains(occ)
        });
        assert!(
            shipped || st.staged.contains(occ),
            "occurrence staged before the last sync lost: {occ:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn power_loss_never_loses_or_reuses_an_occurrence(
        steps in proptest::collection::vec(step(), 0..64),
        cut in 0usize..65,
        extra in 0usize..10_000,
    ) {
        let disk = Arc::new(Mutex::new(Disk::default()));
        let mut site = Site::new(&disk);
        for &s in &steps[..cut.min(steps.len())] {
            site.apply(s);
        }
        let disk = disk.lock().unwrap();
        // Power loss: the synced prefix survives, and the page cache may
        // have written back any amount of the unsynced rest.
        for len in [
            disk.synced,
            disk.synced + extra % (disk.written.len() - disk.synced + 1),
        ] {
            let records = scan_bytes_as::<SiteWalRecord>(&disk.written[..len]).records;
            check_recovery(&records, site.held(len), |end| end <= disk.synced, &site);
        }
        // Uncut, the log folds to exactly the live outbound state.
        let scan = scan_bytes_as::<SiteWalRecord>(&disk.written);
        prop_assert_eq!(scan.tail, WalTail::Clean);
        let live = SiteWalState {
            epoch: 0,
            next_seq: site.next_seq,
            retx: site.retx.clone(),
            staged: site.pending.clone(),
        };
        prop_assert_eq!(fold_records(&scan.records), live);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_kill_during_compaction_recovers_the_old_log_or_the_image(
        steps in proptest::collection::vec(step(), 0..64),
        extra in 0usize..10_000,
        torn in 0usize..10_000,
        renamed in 0u8..2,
    ) {
        let disk = Arc::new(Mutex::new(Disk::default()));
        let mut site = Site::new(&disk);
        for &s in &steps {
            site.apply(s);
        }
        let disk = disk.lock().unwrap();
        let dir = case_dir();
        let image = site.image();
        if renamed == 0 {
            // Killed before the rename: the old log, cut anywhere a power
            // loss could cut it, beside part (or all) of the image in the
            // temporary file.
            let len = disk.synced + extra % (disk.written.len() - disk.synced + 1);
            std::fs::write(dir.join(WAL_FILE), &disk.written[..len]).unwrap();
            let tmp: Vec<u8> = image.iter().flat_map(frame_record).collect();
            std::fs::write(dir.join(WAL_TMP_FILE), &tmp[..torn % (tmp.len() + 1)]).unwrap();
            let records = recover(&dir);
            let old = scan_bytes_as::<SiteWalRecord>(&disk.written[..len]).records;
            prop_assert_eq!(&records, &old, "the old log recovers, not the image");
            check_recovery(&records, site.held(len), |end| end <= disk.synced, &site);
        } else {
            // Killed after the rename: the image is the log.
            std::fs::write(dir.join(WAL_FILE), &disk.written).unwrap();
            let (mut w, _) = WalWriter::open::<SiteWalRecord>(&dir).unwrap();
            w.compact(&image).unwrap();
            drop(w);
            prop_assert!(!dir.join(WAL_TMP_FILE).exists());
            let records = recover(&dir);
            prop_assert_eq!(&records, &image);
            check_recovery(&records, site.pending.len(), |_| true, &site);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
