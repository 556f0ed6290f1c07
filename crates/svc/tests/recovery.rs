//! In-process recovery suites: the pinned WAL record format, the refusal
//! of non-finite times and cost profiles before they reach the journal,
//! a replay that must choose a capped burst as the live service did,
//! cold drops and reopens at sixteen points of one journal, a restart
//! over a journal shaped like the repository benchmark's,
//! the streamed open (scan and replay on two threads) held to `recover`
//! followed by a serial replay over journals of dozens of segments, and
//! segment files damaged by byte surgery (a torn tail, a truncation, a
//! flipped bit) that recovery must detect and cut away.
//!
//! The benchmark-shaped test is `#[ignore]`d: it writes 90k records and
//! is meant for release builds
//! (`cargo test --release -p etrain-svc -- --include-ignored`).

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use etrain_core::{CoreCommand, CoreConfig};
use etrain_sched::{AppProfile, CostProfile};
use etrain_svc::script::script;
use etrain_svc::{
    decode_canonical, execute_line, recover, scan_frames, write_checkpoint, write_frame,
    Checkpoint, DurableService, RecoverySummary, ServiceState, SvcCommand, SvcError,
    SvcHealthConfig, TailStatus, Wal, WalConfig, FRAME_HEADER_BYTES, WAL_MAGIC,
};

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "etrain-recovery-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> (DurableService, RecoverySummary) {
    let mut wal = WalConfig::new(dir);
    wal.fsync = false;
    DurableService::open(wal, CoreConfig::default(), SvcHealthConfig::default())
        .expect("journal opens")
}

/// The segment files in `dir`, in journal order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("WAL directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "seg"))
        .collect();
    segments.sort();
    segments
}

/// Every verified payload of every segment in `dir`, in journal order.
fn payloads(dir: &Path) -> Vec<Vec<u8>> {
    segments(dir)
        .iter()
        .flat_map(|path| {
            let bytes = std::fs::read(path).expect("segment");
            let scan = scan_frames(&bytes);
            scan.frames
                .iter()
                .map(|frame| bytes[frame.clone()].to_vec())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Whether a record is one of the per-request verbs the hand-written
/// reader must always decode.
fn per_request(command: &SvcCommand) -> bool {
    !matches!(command.kind(), "register_train" | "register_cargo")
}

/// One canonical payload per line, written by `serde_json::to_string`
/// when the format was pinned: every `SvcCommand` and `CoreCommand`
/// variant, all three cost profiles, submits with and without a deadline,
/// both transmission results, and names and client ids with `"`, `\`,
/// control and non-ASCII characters.
const WAL_V1: &str = include_str!("golden/wal_v1.jsonl");

/// The service fingerprint after replaying [`WAL_V1`].
const WAL_V1_FINGERPRINT: u64 = 0x9f2f_aca4_0580_3d80;

#[test]
fn wal_v1_fixture_replays_to_its_pinned_state() {
    let lines: Vec<&str> = WAL_V1.lines().collect();
    assert_eq!(lines.len(), 25);
    let dir = tmp_dir("wal-v1");
    std::fs::create_dir_all(&dir).unwrap();
    let mut segment = WAL_MAGIC.to_vec();
    for line in &lines {
        write_frame(&mut segment, line.as_bytes()).unwrap();
    }
    std::fs::write(dir.join("wal-000000.seg"), segment).unwrap();

    let recovery = recover(&dir).unwrap();
    assert_eq!(recovery.commands.len(), lines.len());
    let mut kinds = Vec::new();
    for (command, line) in recovery.commands.iter().zip(&lines) {
        assert_eq!(&serde_json::to_string(command).unwrap(), line);
        let fast = decode_canonical(line.as_bytes());
        if per_request(command) {
            assert_eq!(fast.as_ref(), Some(command), "{line}");
        } else {
            assert_eq!(fast, None, "{line}");
        }
        kinds.push(command.kind());
    }
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 10, "every verb appears: {kinds:?}");

    let (service, summary) = open(&dir);
    assert_eq!(summary.wal.records, lines.len() as u64);
    assert_eq!(summary.replayed, lines.len() as u64);
    assert_eq!(summary.replay_errors, 0);
    assert_eq!(summary.fingerprint, WAL_V1_FINGERPRINT);
    assert_eq!(service.fingerprint(), WAL_V1_FINGERPRINT);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_times_are_refused_before_the_journal() {
    let setup = [
        "REGTRAIN WeChat",
        "REGCARGO Mail mail 300",
        "HB 0 0",
        "SUBMIT c-1 0 up 5000 5",
        "HB 0 270",
    ];
    for line in [
        "TICK inf",
        "TICK -inf",
        "TICK NaN",
        "HB 0 inf",
        "HB 0 NaN",
        "REPORT 0 ok NaN",
        "REPORT 0 fail inf",
        "SUBMIT c-2 0 up 100 inf",
        "SUBMIT c-2 0 down 100 NaN 30",
        "SUBMIT c-2 0 up 100 300 NaN",
        "SUBMIT c-2 0 up 100 300 inf",
        "SUBMIT c-2 0 up 100 300 -inf",
    ] {
        let dir = tmp_dir("non-finite");
        let (service, _) = open(&dir);
        let service = Mutex::new(service);
        for setup_line in setup {
            let reply = execute_line(setup_line, &service);
            assert!(reply.starts_with("OK"), "{setup_line} -> {reply}");
        }
        let (records, live) = {
            let guard = service.lock().unwrap();
            (guard.records(), guard.fingerprint())
        };
        let reply = execute_line(line, &service);
        assert!(reply.starts_with("ERR"), "{line} -> {reply}");
        assert!(reply.contains("not a finite number"), "{line} -> {reply}");
        let service = service.into_inner().unwrap();
        assert_eq!(service.records(), records, "{line} was journaled");
        assert_eq!(service.fingerprint(), live, "{line} changed the state");
        drop(service);
        let (reopened, summary) = open(&dir);
        assert_eq!(summary.replay_errors, 0, "{line}");
        assert_eq!(reopened.fingerprint(), live, "{line}");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn non_finite_cost_profiles_are_refused_before_the_journal() {
    for cost in [
        CostProfile::mail(f64::INFINITY),
        CostProfile::DeadlineLinear {
            deadline_s: f64::NAN,
        },
        CostProfile::LinearThenConstant {
            deadline_s: 120.0,
            ceiling: f64::NAN,
        },
        CostProfile::LinearThenSteep {
            deadline_s: 600.0,
            steepness: f64::NEG_INFINITY,
        },
    ] {
        let dir = tmp_dir("non-finite-profile");
        let (mut service, _) = open(&dir);
        let register = |name: &str, cost| {
            SvcCommand::Core(CoreCommand::RegisterCargo {
                profile: AppProfile::new(name, cost),
            })
        };
        service
            .apply(register("Mail", CostProfile::mail(300.0)))
            .unwrap();
        let (records, live) = (service.records(), service.fingerprint());
        let err = service.apply(register("Bad", cost)).unwrap_err();
        assert!(
            err.to_string().contains("not a finite number"),
            "{cost:?}: {err}"
        );
        assert_eq!(service.records(), records, "{cost:?} was journaled");
        assert_eq!(service.fingerprint(), live, "{cost:?} changed the state");
        drop(service);
        let (reopened, summary) = open(&dir);
        assert_eq!(summary.replayed, records, "{cost:?}");
        assert_eq!(reopened.fingerprint(), live, "{cost:?}");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_capped_burst_after_a_late_registration_reopens_to_the_live_state() {
    // Eight equal-cost requests arrive at one instant, a second app
    // registers, and a heartbeat with k = 2 takes two of them: replay
    // must pick the same two.
    let core = CoreConfig {
        theta: 5.0,
        k: Some(2),
        ..CoreConfig::default()
    };
    let dir = tmp_dir("capped-burst");
    let reopen = || {
        let mut wal = WalConfig::new(&dir);
        wal.fsync = false;
        DurableService::open(wal, core, SvcHealthConfig::default()).expect("journal opens")
    };
    let (service, _) = reopen();
    let service = Mutex::new(service);
    let mut lines = vec![
        "REGTRAIN WeChat".to_owned(),
        "REGCARGO Mail mail 300".to_owned(),
        "HB 0 0".to_owned(),
    ];
    lines.extend((0..8).map(|i| format!("SUBMIT c-{i} 0 up {} 1", 100 + i)));
    lines.push("REGCARGO Weibo weibo 120".to_owned());
    lines.push("HB 0 2".to_owned());
    let replies: Vec<String> = lines.iter().map(|l| execute_line(l, &service)).collect();
    assert_eq!(replies.last().unwrap(), "OK DECISIONS 2 0@0:100 1@0:101");
    let live = service.into_inner().unwrap();
    let (records, fingerprint) = (live.records(), live.fingerprint());
    drop(live);
    let (reopened, summary) = reopen();
    assert_eq!(summary.replayed, records);
    assert_eq!(summary.fingerprint, fingerprint);
    assert_eq!(reopened.fingerprint(), fingerprint);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_drops_at_sixteen_points_reopen_to_the_never_dropped_state() {
    // Dropping the service is the WAL's crash model: nothing between an
    // append and its apply survives, and no checkpoint is written.
    let dir = tmp_dir("cold-drops");
    let mut wal = WalConfig::new(&dir);
    wal.fsync = false;
    wal.segment_bytes = 4096; // several rotations over the script
    let reopen = || {
        DurableService::open(
            wal.clone(),
            CoreConfig::default(),
            SvcHealthConfig::default(),
        )
        .expect("journal opens")
    };
    let steps = script(17, 240);
    let mut reference = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
    let (mut service, _) = reopen();
    let mut applied = 0;
    for k in 1..=16 {
        let drop_at = k * steps.len() / 17;
        for step in &steps[applied..drop_at] {
            let _ = service.apply(step.command.clone());
            let _ = reference.apply(&step.command);
        }
        applied = drop_at;
        drop(service);
        let (recovered, summary) = reopen();
        assert_eq!(summary.wal.records, applied as u64, "dropped at {applied}");
        assert_eq!(summary.replayed, applied as u64, "dropped at {applied}");
        assert_eq!(
            recovered.fingerprint(),
            reference.fingerprint(),
            "dropped at {applied}"
        );
        service = recovered;
    }
    assert!(
        records_per_segment(&dir).len() > 2,
        "the script spans several segments"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark's request mix: per round, 2 clients send 8 SUBMITs each
/// (the first resending the previous round's last id), then one TICK, or
/// an HB every 60 rounds.
fn benchmark_shaped_lines(seed: u64, rounds: u64) -> impl Iterator<Item = String> {
    const SUBMITS: u64 = 8;
    let mix = |x: u64| {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..rounds).flat_map(move |round| {
        (0..2u64)
            .flat_map(move |client| {
                (0..SUBMITS).map(move |k| {
                    let (id_round, id_k) = if k == 0 && round > 0 {
                        (round - 1, SUBMITS - 1)
                    } else {
                        (round, k)
                    };
                    let size = 500 + mix(seed ^ (client << 48) ^ (id_round << 8) ^ id_k) % 19_500;
                    format!(
                        "SUBMIT b{seed}-{client}-{id_round}-{id_k} {} up {size} {round}",
                        id_k % 2
                    )
                })
            })
            .chain(std::iter::once(if round % 60 == 0 {
                format!("HB 0 {round}")
            } else {
                format!("TICK {round}")
            }))
    })
}

#[test]
#[ignore = "writes a 90k-record journal; run in release with --include-ignored"]
fn benchmark_shaped_journal_restarts_to_the_live_state() {
    let dir = tmp_dir("benchmark-shaped");
    let (service, _) = open(&dir);
    let service = Mutex::new(service);
    let prologue = etrain_svc::script::script(0, 0)
        .into_iter()
        .map(|step| step.line);
    for line in prologue.chain(benchmark_shaped_lines(7, 6_000)) {
        let reply = execute_line(&line, &service);
        assert!(reply.starts_with("OK"), "{line} -> {reply}");
    }
    let live = service.into_inner().unwrap();
    let (records, fingerprint) = (live.records(), live.fingerprint());
    assert_eq!(records, 3 + 17 + 15 * 5_999);
    // Every submission's key is cached: the dedup table holds one entry
    // per distinct key the run sent.
    let keys: std::collections::BTreeSet<String> = benchmark_shaped_lines(7, 6_000)
        .filter_map(|line| Some(line.strip_prefix("SUBMIT ")?.split(' ').next()?.to_owned()))
        .collect();
    assert!(keys.len() > 80_000);
    assert!(keys
        .iter()
        .all(|key| live.state().cached_submission(key).is_some()));
    drop(live);

    let payloads = payloads(&dir);
    assert_eq!(payloads.len() as u64, records);
    for payload in &payloads {
        let text = std::str::from_utf8(payload).unwrap();
        let slow: SvcCommand = serde_json::from_str(text).unwrap();
        let fast = decode_canonical(payload);
        if per_request(&slow) {
            assert_eq!(fast, Some(slow), "{text}");
        } else {
            assert_eq!(fast, None, "{text}");
        }
    }

    let (reopened, summary) = open(&dir);
    assert_eq!(summary.replayed, records);
    assert_eq!(summary.replay_errors, 0);
    assert_eq!(reopened.fingerprint(), fingerprint);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 64-byte segment threshold: a segment closes after one or two
/// records, so a short script spans dozens of segments.
fn small_segments(dir: &Path) -> WalConfig {
    let mut wal = WalConfig::new(dir);
    wal.fsync = false;
    wal.segment_bytes = 64;
    wal
}

/// Journals the prologue and `steps` seeded script steps in 64-byte
/// segments.
fn small_segment_journal(dir: &Path, steps: usize) {
    let (mut service, _) = DurableService::open(
        small_segments(dir),
        CoreConfig::default(),
        SvcHealthConfig::default(),
    )
    .expect("journal opens");
    for step in script(5, steps) {
        let _ = service.apply(step.command);
    }
}

/// A frame of `payload` of which only the header and the first half of
/// the payload (rounded down) landed: a SIGKILL mid-`write`.
fn torn_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, payload).unwrap();
    frame.truncate(FRAME_HEADER_BYTES + payload.len() / 2);
    frame
}

/// The records of each segment in `dir`, in journal order.
fn records_per_segment(dir: &Path) -> Vec<u64> {
    segments(dir)
        .iter()
        .map(|path| {
            scan_frames(&std::fs::read(path).expect("segment"))
                .frames
                .len() as u64
        })
        .collect()
}

/// What `DurableService::open` must report over a clean `dir` whose
/// checkpoint covers `covered` records: [`recover`], then
/// `ServiceState::apply` over every command.
fn reference_summary(dir: &Path, covered: u64) -> RecoverySummary {
    let recovery = recover(dir).expect("journal scans");
    let mut state = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
    let mut replay_errors = 0;
    for command in &recovery.commands {
        replay_errors += u64::from(state.apply(command).is_err());
    }
    RecoverySummary {
        replayed: recovery.commands.len() as u64,
        replay_errors,
        checkpoint_verified: Some(covered),
        fingerprint: state.fingerprint(),
        wal: recovery.report,
    }
}

/// The fingerprint after the first `records` commands of `dir`.
fn prefix_fingerprint(dir: &Path, records: u64) -> u64 {
    let mut state = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
    for command in recover(dir)
        .expect("journal scans")
        .commands
        .iter()
        .take(records as usize)
    {
        let _ = state.apply(command);
    }
    state.fingerprint()
}

#[test]
fn a_streamed_open_checks_the_checkpoint_wherever_it_falls() {
    let dir = tmp_dir("streamed-checkpoint");
    small_segment_journal(&dir, 80);
    let per_segment = records_per_segment(&dir);
    assert!(per_segment.len() > 40, "{} segments", per_segment.len());
    let starts: Vec<u64> = per_segment
        .iter()
        .scan(0, |start, &records| {
            let this = *start;
            *start += records;
            Some(this)
        })
        .collect();
    let total: u64 = per_segment.iter().sum();
    let shared = per_segment
        .iter()
        .position(|&records| records >= 2)
        .expect("a segment holding two records");
    let inside = starts[shared] + 1;
    let boundary = starts[per_segment.len() / 2];
    for covered in [0, inside, boundary, total] {
        write_checkpoint(
            &dir,
            Checkpoint {
                records: covered,
                fingerprint: prefix_fingerprint(&dir, covered),
            },
        )
        .unwrap();
        let expected = reference_summary(&dir, covered);
        assert!(
            expected.replay_errors > 0,
            "the script errors on replay too"
        );
        let (service, summary) = DurableService::open(
            small_segments(&dir),
            CoreConfig::default(),
            SvcHealthConfig::default(),
        )
        .expect("journal opens");
        assert_eq!(summary, expected, "checkpoint at {covered}");
        assert_eq!(
            service.fingerprint(),
            expected.fingerprint,
            "checkpoint at {covered}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opens `dir` with 64-byte segments, expecting an error.
fn open_error(dir: &Path) -> SvcError {
    DurableService::open(
        small_segments(dir),
        CoreConfig::default(),
        SvcHealthConfig::default(),
    )
    .expect_err("the open must fail")
}

#[test]
fn an_undecodable_record_after_a_checkpoint_mismatch_is_the_error() {
    let dir = tmp_dir("streamed-mismatch");
    small_segment_journal(&dir, 80);
    let total: u64 = records_per_segment(&dir).iter().sum();
    write_checkpoint(
        &dir,
        Checkpoint {
            records: 3,
            fingerprint: prefix_fingerprint(&dir, 3) ^ 1,
        },
    )
    .unwrap();
    assert!(matches!(
        open_error(&dir),
        SvcError::CheckpointMismatch { records: 3, .. }
    ));
    // A verified frame that is not a command, in a segment of its own
    // dozens of segments after the checkpoint.
    let last = records_per_segment(&dir).len();
    let mut segment = WAL_MAGIC.to_vec();
    write_frame(&mut segment, b"not a command").unwrap();
    std::fs::write(dir.join(format!("wal-{last:06}.seg")), segment).unwrap();
    let err = open_error(&dir);
    assert!(
        matches!(err, SvcError::UndecodableRecord { index } if index == total),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_ahead_of_a_streamed_journal_counts_every_record() {
    let dir = tmp_dir("streamed-ahead");
    small_segment_journal(&dir, 80);
    let total: u64 = records_per_segment(&dir).iter().sum();
    write_checkpoint(
        &dir,
        Checkpoint {
            records: total + 5,
            fingerprint: 0,
        },
    )
    .unwrap();
    let err = open_error(&dir);
    assert!(
        matches!(err, SvcError::CheckpointAhead { records, replayed } if records == total + 5 && replayed == total),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file in `dir` with its bytes, by name.
fn directory_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("WAL directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_streamed_open_truncates_a_torn_tail_once_and_resumes_where_recover_does() {
    // 60 records, and the 61st torn at the end of the last segment, as a
    // kill mid-append leaves it.
    let torn = serde_json::to_string(&script(5, 58)[60].command).unwrap();
    let torn_journal = |dir: &Path| {
        small_segment_journal(dir, 57);
        let last = segments(dir).pop().expect("a segment");
        let mut segment = OpenOptions::new().append(true).open(last).unwrap();
        segment.write_all(&torn_frame(torn.as_bytes())).unwrap();
    };
    let next = SvcCommand::Core(CoreCommand::Tick { now_s: 1e6 });
    // The reference: `recover`, then a `Wal` opened over its outcome.
    let reference = tmp_dir("streamed-torn-reference");
    torn_journal(&reference);
    let recovery = recover(&reference).unwrap();
    assert!(recovery.report.truncated_bytes > 0);
    let mut wal = Wal::open(small_segments(&reference), &recovery).unwrap();
    wal.append(&next).unwrap();
    drop(wal);

    let dir = tmp_dir("streamed-torn");
    torn_journal(&dir);
    let (mut service, summary) = DurableService::open(
        small_segments(&dir),
        CoreConfig::default(),
        SvcHealthConfig::default(),
    )
    .unwrap();
    assert_eq!(summary.wal, recovery.report);
    assert_eq!(summary.replayed, 60);
    service.apply(next).unwrap();
    drop(service);
    assert_eq!(directory_bytes(&dir), directory_bytes(&reference));

    let (_, again) = DurableService::open(
        small_segments(&dir),
        CoreConfig::default(),
        SvcHealthConfig::default(),
    )
    .unwrap();
    assert_eq!(again.wal.truncated_bytes, 0, "truncated once");
    assert_eq!(again.wal.tail, TailStatus::Clean);
    assert_eq!(again.replayed, 61);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference);
}

/// A deliberate on-disk damage to the last segment of a journal.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// A torn write: a frame header promising 80 payload bytes, of which
    /// only 40 landed (SIGKILL mid-`write`).
    TornTail,
    /// The segment loses its last 5 bytes, cutting into its final frame
    /// (a filesystem rollback after power loss).
    TruncatedSegment,
    /// A flipped bit in the final frame's payload: the length is intact
    /// and the checksum is wrong (bit rot, a torn sector rewrite).
    FlippedChecksum,
}

/// Applies `damage` to the last segment in `dir` by byte surgery and
/// returns that segment's bytes before and after.
fn damage_last_segment(dir: &Path, damage: Damage) -> (Vec<u8>, Vec<u8>) {
    let segment = segments(dir).pop().expect("a segment to damage");
    let mut bytes = std::fs::read(&segment).expect("segment");
    let before = bytes.clone();
    match damage {
        Damage::TornTail => bytes.extend(torn_frame(&[0xab; 80])),
        Damage::TruncatedSegment => bytes.truncate(bytes.len() - 5),
        Damage::FlippedChecksum => *bytes.last_mut().expect("a frame") ^= 0x40,
    }
    std::fs::write(&segment, &bytes).expect("damaged segment");
    (before, bytes)
}

#[test]
fn wal_corruptions_are_detected_and_the_prefix_survives() {
    let steps = script(17, 60);
    for damage in [
        Damage::TornTail,
        Damage::TruncatedSegment,
        Damage::FlippedChecksum,
    ] {
        let dir = tmp_dir("corruption");
        let mut wal = WalConfig::new(&dir);
        wal.fsync = false;
        wal.segment_bytes = 2048; // recovery walks several segments
        let reopen = || {
            DurableService::open(
                wal.clone(),
                CoreConfig::default(),
                SvcHealthConfig::default(),
            )
            .expect("journal opens")
        };
        let (mut service, _) = reopen();
        for step in &steps {
            let _ = service.apply(step.command.clone());
        }
        let records = service.records();
        drop(service);
        assert!(
            segments(&dir).len() > 2,
            "the script spans several segments"
        );
        // A stray file is neither damaged nor read as a segment.
        std::fs::write(dir.join("notes.txt"), b"not a segment").unwrap();

        // The checksum path finds exactly the damage: every frame before
        // it still verifies, and at most the final record is lost.
        let (before, after) = damage_last_segment(&dir, damage);
        let frames = scan_frames(&before).frames;
        let last_frame = (frames.last().expect("a frame").start - FRAME_HEADER_BYTES) as u64;
        let (tail, lost) = match damage {
            Damage::TornTail => {
                assert_eq!(after[..before.len()], before[..]);
                assert_eq!(after.len(), before.len() + FRAME_HEADER_BYTES + 40);
                let valid_bytes = before.len() as u64;
                (TailStatus::Torn { valid_bytes }, 0)
            }
            Damage::TruncatedSegment => (
                TailStatus::Torn {
                    valid_bytes: last_frame,
                },
                1,
            ),
            Damage::FlippedChecksum => (
                TailStatus::Corrupt {
                    valid_bytes: last_frame,
                },
                1,
            ),
        };
        let scan = scan_frames(&after);
        assert_eq!(scan.tail, tail, "{damage:?}");
        assert_eq!(scan.frames[..], frames[..frames.len() - lost], "{damage:?}");

        let (recovered, summary) = reopen();
        assert!(
            summary.wal.truncated_bytes > 0,
            "{damage:?} went undetected"
        );
        assert_eq!(summary.wal.records + lost as u64, records, "{damage:?}");
        let mut reference = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
        for step in &steps[..summary.wal.records as usize] {
            let _ = reference.apply(&step.command);
        }
        assert_eq!(
            recovered.fingerprint(),
            reference.fingerprint(),
            "{damage:?}"
        );
        assert_eq!(
            std::fs::read(dir.join("notes.txt")).unwrap(),
            b"not a segment"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
