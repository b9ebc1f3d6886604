//! Durability failure-path suite: torn WAL tails, missing durability
//! directories, and the restart-dedup handshake between a recovered
//! coordinator and the sites' retransmission protocol.
//!
//! The happy kill-anywhere path lives in `tests/prop_recovery.rs`; this
//! file injects the ways the durable state itself can be damaged and
//! checks the recovery contract: *replay to the last valid frame, discard
//! the rest, never panic, and let the ack/retransmit protocol re-supply
//! whatever the log lost.*

use decs::distrib::durability::{read_wal, WalTail, WAL_FILE};
use decs::distrib::{Detection, Engine, EngineConfig};
use decs::simnet::{LinkConfig, Scenario, ScenarioBuilder};
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos};
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
