//! Durability failure-path suite: torn WAL tails, undecodable frames,
//! missing durability directories, log compaction and its failures, and
//! the restart-dedup handshake between a recovered coordinator and the
//! sites' retransmission protocol.
//!
//! The happy kill-anywhere path lives in `tests/prop_recovery.rs`; this
//! file injects the ways the durable state itself can be damaged and
//! checks the recovery contract: *replay to the last valid frame, discard
//! a torn or corrupt rest, refuse a log this build cannot decode, never
//! panic, and let the ack/retransmit protocol re-supply whatever the log
//! lost.*

use decs::distrib::durability::{
    crc32, frame_record, read_wal, WalRecord, WalTail, WAL_FILE, WAL_TMP_FILE,
};
use decs::distrib::{Detection, Engine, EngineConfig};
use decs::simnet::{LinkConfig, Scenario, ScenarioBuilder};
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos, Timeout};
use std::path::{Path, PathBuf};

const SITES: u32 = 3;

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(SITES, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

fn defs() -> Vec<(&'static str, E, Context)> {
    vec![
        ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        ("Y", E::and(E::prim("B"), E::prim("C")), Context::Recent),
    ]
}

fn engine(seed: u64, wal_dir: Option<&Path>, snapshot_interval: u64) -> Engine {
    let config = EngineConfig {
        durability: wal_dir.is_some(),
        snapshot_interval,
        wal_dir: wal_dir.map(|p| p.to_string_lossy().into_owned()),
        ..EngineConfig::default()
    };
    let d = defs();
    Engine::new(&scenario(seed), config, &["A", "B", "C"], &d).unwrap()
}

/// Engine with *site* durability only: each site logs its outbound window
/// to `<dir>/site-<i>` (log-before-send), the coordinator keeps no WAL.
fn site_durable_engine(seed: u64, wal_dir: &Path) -> Engine {
    let config = EngineConfig {
        site_durability: true,
        wal_dir: Some(wal_dir.to_string_lossy().into_owned()),
        ..EngineConfig::default()
    };
    let d = defs();
    Engine::new(&scenario(seed), config, &["A", "B", "C"], &d).unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decs-recfail-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fixed workload: (ms, site, event) — enough traffic to cross several
/// watermark advances and produce multiple detections.
fn workload() -> Vec<(u64, u32, &'static str)> {
    vec![
        (200, 0, "A"),
        (500, 1, "B"),
        (800, 2, "C"),
        (1_200, 1, "A"),
        (1_500, 0, "C"),
        (1_900, 2, "B"),
        (2_300, 0, "A"),
        (2_700, 1, "B"),
        (3_100, 2, "A"),
        (3_400, 0, "B"),
    ]
}

fn inject_all(e: &mut Engine, w: &[(u64, u32, &'static str)]) {
    for &(ms, site, ev) in w {
        e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
    }
}

fn keys(
    det: Vec<Detection>,
) -> Vec<(
    String,
    decs::snoop::Occurrence<decs::core::CompositeTimestamp>,
)> {
    det.into_iter()
        .map(|d| (d.name.to_string(), d.occ))
        .collect()
}

const HORIZON: Nanos = Nanos(10_000_000_000);

fn uninterrupted() -> Vec<(
    String,
    decs::snoop::Occurrence<decs::core::CompositeTimestamp>,
)> {
    let mut e = engine(11, None, 0);
    inject_all(&mut e, &workload());
    keys(e.run_until(HORIZON))
}

#[test]
fn crash_and_recover_mid_run_matches_uninterrupted() {
    let expect = uninterrupted();
    assert!(!expect.is_empty(), "workload must produce detections");
    let dir = tmp_dir("midrun");
    let mut e = engine(11, Some(&dir), 4);
    inject_all(&mut e, &workload());
    let mut det = keys(e.run_until(Nanos::from_millis(1_700)));
    e.crash_and_recover_coordinator().unwrap();
    det.extend(keys(e.run_until(HORIZON)));
    assert_eq!(det, expect, "recovered run must match uninterrupted run");
    let m = e.metrics();
    assert!(m.wal_appends > 0, "durability must actually log");
    assert!(m.snapshots_taken > 0, "interval 4 must trigger snapshots");
    assert!(m.recovery_replayed > 0, "recovery must replay a WAL suffix");
    assert!(m.recovery_ns > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshots exist to bound replay: killed at the same instant, the
/// coordinator that snapshots every watermark tick re-consumes strictly
/// fewer WAL records than the one that never snapshots, and both recover
/// to the uninterrupted detections.
#[test]
fn snapshots_shorten_replay_at_the_same_kill_point() {
    let expect = uninterrupted();
    let replayed = |tag: &str, snapshot_interval: u64| {
        let dir = tmp_dir(tag);
        let mut e = engine(11, Some(&dir), snapshot_interval);
        inject_all(&mut e, &workload());
        let mut det = keys(e.run_until(Nanos::from_millis(2_000)));
        e.crash_and_recover_coordinator().unwrap();
        det.extend(keys(e.run_until(HORIZON)));
        assert_eq!(
            det, expect,
            "snapshot interval {snapshot_interval}: recovered run must match uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
        e.metrics().recovery_replayed
    };
    let without = replayed("replay-nosnap", u64::MAX);
    let with = replayed("replay-snap1", 1);
    assert!(
        with < without,
        "snapshots must shorten replay: {with} records with, {without} without"
    );
}

/// The stall detector runs at watermark rises, which the WAL logs with
/// their true times, so replay re-derives every suspicion and
/// auto-eviction. Site 2 dies at 50 ms and, 1 s of silence later, is
/// suspected (and, with `auto_evict`, evicted); the coordinator crashes
/// after that with no snapshot taken since genesis, so all of its stall
/// state comes from replay. Both legs must end exactly where the
/// uninterrupted run does.
#[test]
fn recovered_stall_state_matches_uninterrupted() {
    let stall_engine = |auto_evict: bool, wal_dir: Option<&Path>| {
        let config = EngineConfig {
            auto_evict,
            stall_timeout: Timeout::from_millis::<1_000>(),
            durability: wal_dir.is_some(),
            // Larger than the run's whole watermark advance: no snapshot.
            snapshot_interval: 1_000,
            wal_dir: wal_dir.map(|p| p.to_string_lossy().into_owned()),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(&scenario(11), config, &["A", "B", "C"], &defs()).unwrap();
        e.crash_site(Nanos::from_millis(50), 2);
        // The workload on the surviving sites only.
        let w: Vec<_> = workload().into_iter().filter(|&(_, s, _)| s != 2).collect();
        inject_all(&mut e, &w);
        e
    };
    let horizon = Nanos::from_secs(6);
    for auto_evict in [true, false] {
        let mut clean = stall_engine(auto_evict, None);
        let expect = keys(clean.run_until(horizon));
        let want = clean.metrics();
        assert_eq!(want.suspect_sites, 1, "auto_evict {auto_evict}");
        assert_eq!(want.auto_evictions, u64::from(auto_evict));

        let dir = tmp_dir(&format!("stall-{auto_evict}"));
        let mut e = stall_engine(auto_evict, Some(&dir));
        let mut det = keys(e.run_until(Nanos::from_millis(2_500)));
        let before = e.metrics();
        assert_eq!(
            (before.suspect_sites, before.auto_evictions),
            (1, u64::from(auto_evict)),
            "auto_evict {auto_evict}: site 2 is suspect before the crash"
        );
        e.crash_and_recover_coordinator().unwrap();
        det.extend(keys(e.run_until(horizon)));
        let got = e.metrics();
        assert_eq!(
            got.snapshots_taken, 0,
            "replay must rebuild the stall state"
        );
        assert_eq!(det, expect, "auto_evict {auto_evict}: detections");
        assert_eq!(
            (got.suspect_sites, got.auto_evictions, got.stall_ns),
            (want.suspect_sites, want.auto_evictions, want.stall_ns),
            "auto_evict {auto_evict}: (suspect_sites, auto_evictions, stall_ns)"
        );
        if auto_evict {
            assert!(!expect.is_empty(), "eviction must unwedge detection");
        } else {
            assert!(want.stall_ns > 0, "suspect time must accumulate");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_tail_is_truncated_and_replay_stops_at_last_valid_frame() {
    let expect = uninterrupted();
    let dir = tmp_dir("torn");
    // Huge snapshot interval: no snapshots, so recovery replays the whole
    // valid WAL prefix and `recovery_replayed` counts it exactly.
    let mut e = engine(11, Some(&dir), u64::MAX);
    inject_all(&mut e, &workload());
    let mut det = keys(e.run_until(Nanos::from_millis(2_000)));

    // Tear the log mid-frame: chop bytes off the end, leaving a partial
    // final frame (any cut not on a frame boundary works).
    let wal_path = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    let scan_before = decs::distrib::durability::scan_bytes(&bytes);
    assert!(scan_before.tail == WalTail::Clean && scan_before.records.len() > 10);
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();
    let scan = read_wal(&dir).unwrap();
    let valid = scan.records.len() as u64;
    assert!(matches!(scan.tail, WalTail::Torn { .. }));
    assert!(valid < scan_before.records.len() as u64);

    e.crash_and_recover_coordinator().unwrap();
    let m = e.metrics();
    assert_eq!(
        m.recovery_replayed, valid,
        "replay must cover exactly the valid prefix"
    );
    // The truncated suffix was in-order-consumed (hence acked) state the
    // log lost — those inputs are gone for good, exactly like a sync gap.
    // The torn tail itself must be physically truncated so future appends
    // extend a clean log.
    let rescan = read_wal(&dir).unwrap();
    assert_eq!(rescan.tail, WalTail::Clean);
    assert_eq!(rescan.records.len() as u64, valid);

    // The engine keeps running from the rewound state without panicking;
    // the final frames lost were consumption of messages the sites still
    // hold unacked... those the protocol re-supplies. (Events consumed
    // *and acked* before the tear are durable — they sit in frames before
    // the cut.) Detections may legitimately lag the uninterrupted run if
    // the torn frames carried acked-but-lost inputs; what we assert is
    // no panic, a clean log, and that the run still converges to a subset
    // ordered consistently with the uninterrupted run.
    det.extend(keys(e.run_until(HORIZON)));
    for d in &det {
        assert!(expect.contains(d), "recovered run invented a detection");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The coordinator's durable state is one file: each compaction rewrites
/// `wal.log` to a single snapshot record, and the inputs consumed since
/// append after it. Recovery restores the image and replays exactly that
/// suffix, and the lifetime WAL counters survive both.
#[test]
fn compaction_keeps_one_snapshot_record_and_the_suffix_since() {
    let expect = uninterrupted();
    let dir = tmp_dir("compact");
    let mut e = engine(11, Some(&dir), 4);
    inject_all(&mut e, &workload());
    let mut det = keys(e.run_until(Nanos::from_millis(2_000)));
    let before = e.metrics();
    assert!(
        before.snapshots_taken >= 3,
        "{} compactions",
        before.snapshots_taken
    );

    let scan = read_wal(&dir).unwrap();
    assert_eq!(scan.tail, WalTail::Clean);
    let WalRecord::Snapshot(image) = &scan.records[0] else {
        panic!("the log must start with its snapshot record");
    };
    let suffix = scan.records.len() as u64 - 1;
    assert!(suffix > 0, "inputs consumed since the last compaction");
    assert!(!scan.records[1..]
        .iter()
        .any(|r| matches!(r, WalRecord::Snapshot(_))));
    // The image counts what was written before it; the file holds the
    // image and every record appended since, and nothing older.
    assert_eq!(
        image.metrics.wal_appends + 1 + suffix,
        before.wal_appends,
        "the log holds exactly the records since the last compaction"
    );
    assert_eq!(image.metrics.snapshots_taken + 1, before.snapshots_taken);
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, vec![WAL_FILE.to_string()], "one durable file");

    e.crash_and_recover_coordinator().unwrap();
    let after = e.metrics();
    assert_eq!(after.recovery_replayed, suffix);
    assert_eq!(
        (after.wal_appends, after.wal_bytes, after.snapshots_taken),
        (before.wal_appends, before.wal_bytes, before.snapshots_taken),
        "lifetime WAL counters survive recovery"
    );
    det.extend(keys(e.run_until(HORIZON)));
    assert_eq!(det, expect, "recovered run must match uninterrupted run");
    assert!(e.metrics().wal_appends > after.wal_appends);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between a compaction's write and its rename leaves a partial
/// `wal.log.tmp` beside the intact log. Recovery never reads it, and the
/// next compaction overwrites it.
#[test]
fn a_partial_compaction_temp_file_is_ignored_and_overwritten() {
    let expect = uninterrupted();
    let dir = tmp_dir("tmpfile");
    let mut e = engine(11, Some(&dir), 4);
    inject_all(&mut e, &workload());
    let mut det = keys(e.run_until(Nanos::from_millis(1_700)));
    let valid = read_wal(&dir).unwrap();
    assert!(matches!(valid.records[0], WalRecord::Snapshot(_)));
    let partial = frame_record(&valid.records[0]);
    std::fs::write(dir.join(WAL_TMP_FILE), &partial[..partial.len() / 2]).unwrap();

    e.crash_and_recover_coordinator().unwrap();
    let m = e.metrics();
    assert_eq!(m.recovery_replayed, valid.records.len() as u64 - 1);
    det.extend(keys(e.run_until(HORIZON)));
    assert_eq!(det, expect, "recovered run must match uninterrupted run");
    assert!(e.metrics().snapshots_taken > m.snapshots_taken);
    assert!(!dir.join(WAL_TMP_FILE).exists(), "renamed over the log");
    let scan = read_wal(&dir).unwrap();
    assert_eq!(scan.tail, WalTail::Clean);
    assert!(matches!(scan.records[0], WalRecord::Snapshot(_)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A compaction that cannot open its temp file fail-stops the coordinator
/// and leaves the log as it was; once the obstacle is gone, a replacement
/// recovers from that log and the run ends where the uninterrupted one
/// does.
#[test]
fn a_failed_compaction_fail_stops_and_the_old_log_recovers() {
    let expect = uninterrupted();
    let dir = tmp_dir("compactfail");
    let mut e = engine(11, Some(&dir), 4);
    inject_all(&mut e, &workload());
    let mut det = keys(e.run_until(Nanos::from_millis(1_000)));
    assert!(e.metrics().snapshots_taken > 0);
    assert_eq!(e.coordinator_wal_failed(), None);
    // A directory where the temp file goes: opening it for writing fails,
    // whatever the process's privileges.
    std::fs::create_dir(dir.join(WAL_TMP_FILE)).unwrap();
    det.extend(keys(e.run_until(Nanos::from_millis(2_000))));
    assert!(e.coordinator_wal_failed().is_some());
    let m = e.metrics();
    assert_eq!(m.wal_errors, 1);
    let stopped = std::fs::read(dir.join(WAL_FILE)).unwrap();
    det.extend(keys(e.run_until(Nanos::from_millis(2_500))));
    assert_eq!(
        std::fs::read(dir.join(WAL_FILE)).unwrap(),
        stopped,
        "a fail-stopped coordinator writes nothing more"
    );
    let scan = read_wal(&dir).unwrap();
    assert_eq!(scan.tail, WalTail::Clean);
    assert!(matches!(scan.records[0], WalRecord::Snapshot(_)));

    std::fs::remove_dir(dir.join(WAL_TMP_FILE)).unwrap();
    e.crash_and_recover_coordinator().unwrap();
    assert_eq!(e.coordinator_wal_failed(), None);
    assert_eq!(e.metrics().recovery_replayed, scan.records.len() as u64 - 1);
    det.extend(keys(e.run_until(HORIZON)));
    assert_eq!(det, expect, "recovered run must match uninterrupted run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A coordinator whose compaction fails after a release round detected
/// something must not hand those detections out: the drain can no longer
/// be logged, so the replacement's replay would report them again.
/// Swept over the run, with a compaction at every watermark rise, the
/// failure lands on detecting rounds too.
#[test]
fn detections_of_a_fail_stopped_round_are_reported_once() {
    let expect = uninterrupted();
    for fail_ms in (300..3_400).step_by(100) {
        let dir = tmp_dir(&format!("failround-{fail_ms}"));
        let mut e = engine(11, Some(&dir), 1);
        inject_all(&mut e, &workload());
        let mut det = keys(e.run_until(Nanos::from_millis(fail_ms)));
        std::fs::create_dir(dir.join(WAL_TMP_FILE)).unwrap();
        det.extend(keys(e.run_until(Nanos::from_millis(fail_ms + 600))));
        assert!(e.coordinator_wal_failed().is_some(), "at {fail_ms} ms");
        std::fs::remove_dir(dir.join(WAL_TMP_FILE)).unwrap();
        e.crash_and_recover_coordinator().unwrap();
        det.extend(keys(e.run_until(HORIZON)));
        assert_eq!(det, expect, "compaction failed at {fail_ms} ms");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A frame whose CRC holds but whose payload is no record this build
/// knows (a log from another record format) is not damage to cut away:
/// recovery refuses the log and leaves every byte of it in place.
#[test]
fn an_undecodable_frame_refuses_recovery_and_keeps_the_log() {
    let dir = tmp_dir("undecodable");
    let mut e = engine(11, Some(&dir), u64::MAX);
    inject_all(&mut e, &workload());
    e.run_until(Nanos::from_millis(2_000));
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let scan = decs::distrib::durability::scan_bytes(&bytes);
    assert!(scan.tail == WalTail::Clean && scan.records.len() > 10);
    // Valid frames, then a CRC-valid frame with an unknown record tag,
    // then more valid frames.
    let payload = [0xEEu8, 0, 1, 2, 3];
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    for rec in &scan.records[..3] {
        bytes.extend_from_slice(&frame_record(rec));
    }
    std::fs::write(&wal_path, &bytes).unwrap();

    let err = e.crash_and_recover_coordinator().unwrap_err();
    assert!(err.to_string().contains("cannot decode"), "{err}");
    assert_eq!(
        std::fs::read(&wal_path).unwrap(),
        bytes,
        "the log must be left untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_durability_dir_recovers_to_a_fresh_engine() {
    let expect = uninterrupted();
    let dir = tmp_dir("missing");
    let mut e = engine(11, Some(&dir), 4);
    // Nothing has run yet; simulate losing the durable state entirely.
    std::fs::remove_dir_all(&dir).unwrap();
    e.crash_and_recover_coordinator().unwrap();
    let m = e.metrics();
    assert_eq!(m.recovery_replayed, 0, "nothing to replay");
    assert_eq!(m.wal_appends, 0);
    // The fresh coordinator proceeds as if newly built: the full workload
    // still detects identically.
    inject_all(&mut e, &workload());
    let det = keys(e.run_until(HORIZON));
    assert_eq!(det, expect);
    assert!(
        e.metrics().wal_appends > 0,
        "logging resumed after recovery"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_without_durability_is_an_error() {
    let mut e = engine(11, None, 0);
    assert!(e.crash_and_recover_coordinator().is_err());
}

#[test]
fn site_crash_after_log_before_send_delivers_exactly_once() {
    // Crash-during-flush, site side. Log-before-send means the A injected
    // at 1.0 s is appended to site 0's WAL *before* the send — and the
    // partition eats the send, so observationally the site dies "after
    // the append, before the bytes reached anyone". The restarted
    // incarnation recovers the window from the WAL and must deliver that
    // A exactly once: a loss would starve the second X, a double release
    // would shift the chronicle pairing. Equality with the fault-free run
    // rules out both.
    let w: Vec<(u64, u32, &'static str)> = vec![
        (200, 0, "A"),
        (500, 1, "B"),
        (800, 2, "C"),
        (1_000, 0, "A"), // stranded: logged, never delivered pre-crash
        (3_500, 1, "B"), // completes the second X with the recovered A
        (4_000, 2, "C"),
    ];
    let expect = {
        let mut clean = engine(31, None, 0);
        inject_all(&mut clean, &w);
        keys(clean.run_until(HORIZON))
    };
    assert!(expect.len() >= 2, "workload must produce detections");

    let dir = tmp_dir("flushcrash");
    let mut e = site_durable_engine(31, &dir);
    e.partition_site(0, Nanos::from_millis(950), Nanos::from_millis(2_500));
    e.crash_site(Nanos(1_200_500_000), 0);
    e.restart_site(Nanos(3_000_500_000), 0);
    inject_all(&mut e, &w);
    let det = keys(e.run_until(HORIZON));
    assert_eq!(det, expect, "recovered window must deliver exactly once");
    let m = e.metrics();
    assert_eq!(m.site_restarts, 1);
    assert!(m.rejoins >= 1, "coordinator must see the Hello");
    assert_eq!(m.epoch_max, 1);
    assert_eq!(m.wal_errors, 0);
    assert_eq!(e.site_epoch(0), 1);
    assert_eq!(e.coordinator_site_epoch(0), 1);
    // The horizon is a tick edge, where the site's edge heartbeat may
    // still be in flight: read the window mid-tick.
    e.run_until(HORIZON + 50_000_000);
    assert_eq!(e.unacked(0), 0, "recovered backlog must end fully acked");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_site_retransmits_delivered_prefix_which_is_deduped() {
    // Lossy acks leave a durable site holding messages the coordinator
    // already consumed. The restarted incarnation recovers that whole
    // unacked window and retransmits it (it cannot know which copies
    // landed); the coordinator's sequence frontier must drop the
    // delivered prefix as duplicates — under the new epoch — rather than
    // re-consume it.
    let expect = {
        let mut clean = engine(37, None, 0);
        inject_all(&mut clean, &workload());
        keys(clean.run_until(Nanos::from_secs(25)))
    };
    assert!(!expect.is_empty());

    let dir = tmp_dir("sitededup");
    let mut e = site_durable_engine(37, &dir);
    for site in 0..SITES {
        e.set_link_pair(site, LinkConfig::lan().with_faults(150_000, 0));
    }
    // The crash window holds no site-0 injections, so the fault-free
    // oracle needs no filtering.
    e.crash_site(Nanos(1_600_500_000), 0);
    e.restart_site(Nanos(2_200_500_000), 0);
    inject_all(&mut e, &workload());
    let mut det = keys(e.run_until(Nanos::from_millis(2_200)));
    let dups_before_rejoin = e.metrics().duplicates_dropped;
    det.extend(keys(e.run_until(Nanos::from_secs(25))));
    assert_eq!(det, expect, "lossy + site crash must match the clean run");
    let m = e.metrics();
    assert!(
        m.duplicates_dropped > dups_before_rejoin,
        "the recovered window's delivered-but-unacked prefix must be \
         deduped, not re-consumed"
    );
    assert_eq!(m.site_restarts, 1);
    assert_eq!(m.epoch_max, 1);
    assert_eq!(m.wal_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_dedup_drops_retransmitted_prefix() {
    // Lossy links both ways: data and acks get dropped, so sites hold
    // already-delivered messages unacked. After the crash the recovered
    // coordinator's reassembly frontier comes from the WAL; the sites'
    // retransmissions of seqs below it must be recognized as duplicates
    // and dropped, not re-consumed.
    let expect = {
        let mut clean = engine(23, None, 0);
        for site in 0..SITES {
            clean.set_link_pair(site, LinkConfig::lan().with_faults(150_000, 0));
        }
        inject_all(&mut clean, &workload());
        keys(clean.run_until(Nanos::from_secs(25)))
    };
    assert!(!expect.is_empty());

    let dir = tmp_dir("dedup");
    let mut e = engine(23, Some(&dir), 4);
    for site in 0..SITES {
        e.set_link_pair(site, LinkConfig::lan().with_faults(150_000, 0));
    }
    inject_all(&mut e, &workload());
    let mut det = keys(e.run_until(Nanos::from_millis(1_500)));
    e.crash_and_recover_coordinator().unwrap();
    let dup_at_recovery = e.metrics().duplicates_dropped;
    det.extend(keys(e.run_until(Nanos::from_secs(25))));
    assert_eq!(det, expect, "lossy + crash must still match the clean run");
    assert!(
        e.metrics().duplicates_dropped > dup_at_recovery,
        "post-recovery retransmissions of already-logged seqs must be deduped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn site_wal_syncs_are_counted_across_restarts() {
    let dir = tmp_dir("syncs");
    let mut e = site_durable_engine(41, &dir);
    e.crash_site(Nanos(1_600_500_000), 0);
    e.restart_site(Nanos(2_200_500_000), 0);
    inject_all(&mut e, &workload());
    e.run_until(Nanos::from_millis(1_600));
    // One for the Epoch and one for each edge batch that ships one of
    // site 0's events (staged at 0.2 s and 1.5 s, shipped at the 0.3 s and
    // 1.6 s edges). Staging syncs nothing, and empty batches and acks
    // ride along with the next sync.
    let before = e.site_wal_syncs(0);
    assert_eq!(before, 3);
    e.run_until(Nanos::from_millis(2_300));
    // The new incarnation's compaction image and its Hello add one each
    // to the crashed incarnation's count rather than restarting it. The
    // `A` staged at 2.3 s waits for the 2.4 s edge batch.
    assert_eq!(e.site_wal_syncs(0), before + 2);
    assert_eq!(e.site_wal_syncs(SITES), 0, "the coordinator index");
    assert_eq!(e.metrics().wal_errors, 0);

    let mut plain = engine(41, None, 0);
    inject_all(&mut plain, &workload());
    plain.run_until(Nanos::from_millis(2_300));
    assert_eq!(plain.site_wal_syncs(0), 0, "durability off");
    let _ = std::fs::remove_dir_all(&dir);
}
