//! `daemon` and `daemon_recovery`: the real `etrain-svcd` over loopback,
//! with fsync on, its default.
//!
//! `daemon` is the SUBMIT→decision round trip operators see: a closed loop
//! of 2 client connections, each waiting for every reply. It is the only
//! workload with WAL appends and fsync, protocol parsing and dedup.
//! `daemon_recovery` is the restart operators wait for: spawn to `READY`
//! over a journal written in advance.
//!
//! Both start from a prefill journal written in process, so the queue is
//! already in its deadline-bounded steady state and the load stays
//! stationary however many rounds a run covers.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use etrain_core::{CoreConfig, CoreStats};
use etrain_svc::{
    execute_line, recover, DurableService, ServiceState, SvcHealthConfig, Wal, WalConfig,
};

use crate::calib::{self, Timing};
use crate::ledger::{ratio, Ledger};
use crate::{median, mix, quantile, Outcome, Params, WorkDir, MIN_WINDOWS, WORKERS};

/// Prefill rounds before the `daemon` load. Mail, the longer of the two
/// cargo deadlines, is 300 s, i.e. 300 rounds; after that the queue holds
/// only requests that are still within their deadline.
const LOAD_PREFILL_ROUNDS: u64 = 1_000;
/// Prefill rounds of the journal `daemon_recovery` restarts from.
const RECOVERY_PREFILL_ROUNDS: u64 = 6_000;
/// Untimed rounds between the daemon's start and the timed load.
const WARMUP_ROUNDS: u64 = 1;
/// Set-ups per run of either workload: each is long enough that three
/// give a steady median.
const SETUPS: usize = 3;
/// SUBMITs per client per round.
const SUBMITS: u64 = 8;
/// Requests per round: each client's SUBMITs and STATS, and one TICK or HB.
const REQUESTS_PER_ROUND: u64 = WORKERS as u64 * (SUBMITS + 1) + 1;
/// Client 0 sends a heartbeat instead of a tick on every this many rounds.
const HEARTBEAT_EVERY: u64 = 60;
/// Rounds the traced run replays in process, from where the load started.
const REPLICA_ROUNDS: u64 = 100;
/// How long to wait for the daemon's start-up lines and for any reply.
const PATIENCE: Duration = Duration::from_secs(60);

/// The three registration lines every `etrain_svc::script` starts with.
fn prologue() -> Vec<String> {
    etrain_svc::script::script(0, 0)
        .into_iter()
        .map(|step| step.line)
        .collect()
}

fn size(seed: u64, client: u64, round: u64, k: u64) -> u64 {
    500 + mix(seed ^ mix((client << 48) ^ (round << 8) ^ k)) % 19_500
}

/// Client `client`'s SUBMITs of round `round`, stamped `round` seconds.
/// From round 1 on, the first resends the previous round's last id, so 1
/// in 8 submits takes the dedup path.
fn submits(seed: u64, client: u64, round: u64) -> Vec<String> {
    (0..SUBMITS)
        .map(|k| {
            let (id_round, id_k) = if k == 0 && round > 0 {
                (round - 1, SUBMITS - 1)
            } else {
                (round, k)
            };
            format!(
                "SUBMIT b{seed}-{client}-{id_round}-{id_k} {} up {} {round}",
                id_k % 2,
                size(seed, client, id_round, id_k)
            )
        })
        .collect()
}

/// Client 0's closing request of round `round`.
fn tick(round: u64) -> String {
    if round.is_multiple_of(HEARTBEAT_EVERY) {
        format!("HB 0 {round}")
    } else {
        format!("TICK {round}")
    }
}

/// Every line of rounds `rounds` in the order one serial client sends them.
fn serial_lines(seed: u64, rounds: std::ops::Range<u64>) -> impl Iterator<Item = String> {
    rounds.flat_map(move |round| {
        (0..WORKERS as u64)
            .flat_map(move |client| submits(seed, client, round))
            .chain(std::iter::once(tick(round)))
    })
}

/// What a prefill left in its journal.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Prefill {
    records: u64,
    fingerprint: u64,
    submitted: u64,
}

/// Writes the prologue and rounds `0..rounds` into a journal at `dir`
/// through the daemon's own protocol code, in process. The writer skips
/// fsync; the bytes it leaves are the ones the daemon would write.
fn prefill(dir: &Path, seed: u64, rounds: u64) -> Result<Prefill, String> {
    let mut wal = WalConfig::new(dir);
    wal.fsync = false;
    let (service, _) = DurableService::open(wal, CoreConfig::default(), SvcHealthConfig::default())
        .map_err(|e| format!("open prefill journal: {e}"))?;
    let service = Mutex::new(service);
    for line in prologue().into_iter().chain(serial_lines(seed, 0..rounds)) {
        let reply = execute_line(&line, &service);
        if !reply.starts_with("OK") {
            return Err(format!("prefill {line:?} -> {reply:?}"));
        }
    }
    let service = service
        .into_inner()
        .map_err(|_| "prefill lock poisoned".to_owned())?;
    Ok(Prefill {
        records: service.records(),
        fingerprint: service.fingerprint(),
        submitted: service.state().stats().submitted as u64,
    })
}

/// A running `etrain-svcd`; killed with SIGKILL and reaped when dropped.
struct Daemon {
    child: Child,
    reader: Option<JoinHandle<()>>,
    addr: SocketAddr,
    recovered: BTreeMap<String, String>,
    /// Spawn to the `RECOVERED` line, s.
    to_recovered_s: f64,
    /// Spawn to the `READY` line, s.
    to_ready_s: f64,
}

fn next_line(
    lines: &Receiver<(Instant, String)>,
    prefix: &str,
) -> Result<(Instant, String), String> {
    loop {
        let (at, line) = lines
            .recv_timeout(PATIENCE)
            .map_err(|_| format!("etrain-svcd printed no {prefix} line"))?;
        if line.starts_with(prefix) {
            return Ok((at, line));
        }
    }
}

impl Daemon {
    fn spawn(bin: &Path, wal: &Path) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .env("ETRAIN_WAL", wal)
            .env_remove("ETRAIN_SVCD_BIN")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            child,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            recovered: BTreeMap::new(),
            to_recovered_s: 0.0,
            to_ready_s: 0.0,
        };
        let (recovered_at, recovered) = next_line(&lines, "RECOVERED ")?;
        let (ready_at, ready) = next_line(&lines, "READY ")?;
        daemon.recovered = recovered
            .split_whitespace()
            .skip(1)
            .filter_map(|field| field.split_once('='))
            .map(|(key, value)| (key.to_owned(), value.to_owned()))
            .collect();
        daemon.to_recovered_s = recovered_at.duration_since(started).as_secs_f64();
        daemon.to_ready_s = ready_at.duration_since(started).as_secs_f64();
        daemon.addr = ready["READY ".len()..]
            .trim()
            .parse()
            .map_err(|_| format!("unparseable {ready:?}"))?;
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Problems with the `RECOVERED` line, given the journal it replayed.
    fn recovery_problems(&self, records: u64, fingerprint: u64) -> Vec<String> {
        let expected = [
            ("records", records.to_string()),
            ("replay_errors", "0".to_owned()),
            ("fingerprint", format!("{fingerprint:016x}")),
        ];
        expected
            .iter()
            .filter(|(key, value)| self.recovered.get(*key) != Some(value))
            .map(|(key, value)| {
                format!(
                    "RECOVERED {key}={:?}, expected {value}",
                    self.recovered.get(*key)
                )
            })
            .collect()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One connection; every request goes out in one write and waits for its
/// reply.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    request: String,
    reply: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let setup = || -> std::io::Result<Client> {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(PATIENCE))?;
            Ok(Client {
                reader: BufReader::new(stream.try_clone()?),
                stream: stream.try_clone()?,
                request: String::new(),
                reply: String::new(),
            })
        };
        setup().map_err(|e| format!("set up connection: {e}"))
    }

    fn call(&mut self, request: &str) -> Result<&str, String> {
        self.request.clear();
        self.request.push_str(request);
        self.request.push('\n');
        self.stream
            .write_all(self.request.as_bytes())
            .map_err(|e| format!("send {request:?}: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err(format!("connection closed before the reply to {request:?}")),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(format!("reply to {request:?}: {e}")),
        }
    }
}

/// What a load over the live daemon saw.
#[derive(Debug, Default)]
struct LoadStats {
    submit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    requests: u64,
    /// Replies to requests the daemon journals (new SUBMITs, TICK, HB).
    journaled: u64,
    dups: u64,
    resends: u64,
    not_ok: Vec<String>,
    not_ok_count: u64,
    rounds: u64,
    /// Wall time of each round, from its start to the reply to its TICK.
    round_s: Vec<f64>,
    wall_s: f64,
}

impl LoadStats {
    fn absorb(&mut self, other: LoadStats) {
        self.submit_ms.extend(other.submit_ms);
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        self.requests += other.requests;
        self.journaled += other.journaled;
        self.dups += other.dups;
        self.resends += other.resends;
        self.not_ok.extend(other.not_ok);
        self.not_ok_count += other.not_ok_count;
        self.rounds = self.rounds.max(other.rounds);
        self.round_s.extend(other.round_s);
    }

    fn note(&mut self, request: &str, reply: &str, ms: f64) {
        self.requests += 1;
        if !reply.starts_with("OK") {
            self.not_ok_count += 1;
            if self.not_ok.len() < 5 {
                self.not_ok.push(format!("{request:?} -> {reply:?}"));
            }
        }
        if request.starts_with("SUBMIT") {
            self.submit_ms.push(ms);
            if reply.starts_with("OK DUP") {
                self.dups += 1;
            } else {
                self.journaled += 1;
            }
        } else if request == "STATS" {
            self.read_ms.push(ms);
        } else {
            self.write_ms.push(ms);
            self.journaled += 1;
        }
    }
}

/// Sends one request and notes its reply and latency.
fn send(conn: &mut Client, request: &str, stats: &mut LoadStats) -> Result<(), String> {
    let sent = Instant::now();
    let reply = conn.call(request)?;
    stats.note(request, reply, sent.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// When the load ends: shared by the clients, decided by client 0 at the
/// start of a round so both stop after the same round.
struct Pace {
    barrier: Barrier,
    stop: AtomicBool,
    started: Instant,
    seconds: f64,
    min_rounds: u64,
}

/// One client of [`load`]. A client that fails keeps meeting the barriers
/// until the round ends, so the other never waits forever.
fn client(
    addr: SocketAddr,
    seed: u64,
    client: u64,
    first: u64,
    pace: &Pace,
) -> Result<LoadStats, String> {
    let mut stats = LoadStats::default();
    let mut conn = Client::connect(addr);
    let mut failure = None;
    let fail = |e: String, failure: &mut Option<String>| {
        pace.stop.store(true, Ordering::SeqCst);
        failure.get_or_insert(e);
    };
    for round in first.. {
        if client == 0
            && pace.started.elapsed().as_secs_f64() >= pace.seconds
            && stats.rounds >= pace.min_rounds
        {
            pace.stop.store(true, Ordering::SeqCst);
        }
        pace.barrier.wait();
        if pace.stop.load(Ordering::SeqCst) {
            break;
        }
        let round_started = Instant::now();
        if round > 0 {
            stats.resends += 1;
        }
        let requests = submits(seed, client, round)
            .into_iter()
            .chain(std::iter::once("STATS".to_owned()));
        match conn.as_mut() {
            Ok(conn) if failure.is_none() => {
                for request in requests {
                    if let Err(e) = send(conn, &request, &mut stats) {
                        fail(e, &mut failure);
                        break;
                    }
                }
            }
            Ok(_) => {}
            Err(e) => fail(e.clone(), &mut failure),
        }
        pace.barrier.wait();
        if client == 0 && failure.is_none() {
            if let Ok(conn) = conn.as_mut() {
                if let Err(e) = send(conn, &tick(round), &mut stats) {
                    fail(e, &mut failure);
                }
            }
            stats.round_s.push(round_started.elapsed().as_secs_f64());
        }
        stats.rounds += 1;
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// The closed-loop load: from round `first`, each of the 2 clients sends
/// its SUBMITs and a STATS; after a barrier client 0 sends the round's
/// TICK or HB; a second barrier starts the next round. Runs whole rounds
/// until `seconds` have passed and at least `min_rounds` ran. Both clients
/// stamp a round with the same time, so the daemon's clock never goes
/// backwards.
fn load(
    addr: SocketAddr,
    seed: u64,
    first: u64,
    seconds: f64,
    min_rounds: u64,
) -> Result<LoadStats, String> {
    let pace = Pace {
        barrier: Barrier::new(WORKERS),
        stop: AtomicBool::new(false),
        started: Instant::now(),
        seconds,
        min_rounds,
    };
    let results: Vec<Result<LoadStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS as u64)
            .map(|id| {
                let pace = &pace;
                scope.spawn(move || client(addr, seed, id, first, pace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let mut total = LoadStats::default();
    for result in results {
        total.absorb(result?);
    }
    total.wall_s = pace.started.elapsed().as_secs_f64();
    Ok(total)
}

fn daemon_binary() -> Result<PathBuf, String> {
    etrain_chaos::daemon_binary().ok_or_else(|| {
        "etrain-svcd not found next to the benchmark binary; build it (run.sh does) or set ETRAIN_SVCD_BIN".to_owned()
    })
}

/// Runs `daemon` (see the module docs).
pub fn run_load(params: &Params) -> Result<Outcome, String> {
    let bin = daemon_binary()?;
    let prefill_rounds = if params.check {
        500
    } else {
        LOAD_PREFILL_ROUNDS
    };
    let mut outcome = Outcome::default();
    let mut live = None;
    for setup in 0..params.setups(SETUPS) {
        // Dropping the previous set-up kills its daemon and removes its journal.
        drop(live.take());
        // The prefill and the daemon's start follow the cores' speed and
        // are scaled; the warm-up round waits on TCP timers and is not.
        let (started, timing) = calib::timed(|| -> Result<_, String> {
            let dir = WorkDir::new(&format!("daemon-{setup}"));
            let filled = prefill(&dir.0, params.seed, prefill_rounds)?;
            let daemon = Daemon::spawn(&bin, &dir.0)?;
            Ok((dir, filled, daemon))
        });
        let (dir, filled, daemon) = started?;
        for problem in daemon.recovery_problems(filled.records, filled.fingerprint) {
            outcome.fail(1, problem);
        }
        let warm = load(daemon.addr, params.seed, prefill_rounds, 0.0, WARMUP_ROUNDS)?;
        outcome
            .setups
            .push(timing.then(Timing::unscaled(warm.wall_s)));
        live = Some((dir, filled, daemon, warm));
    }
    let (dir, filled, daemon, warm) = live.expect("at least one set-up");
    let first = prefill_rounds + warm.rounds;
    // The daemon's peak memory is read after the first round, for the
    // reasons `Outcome::batch` gives.
    let mut stats = load(daemon.addr, params.seed, first, 0.0, 1)?;
    outcome.peak_rss_mb = crate::peak_rss_mb(Some(daemon.pid()));
    let rest = load(
        daemon.addr,
        params.seed,
        first + stats.rounds,
        params.seconds - stats.wall_s,
        1,
    )?;
    let (rounds, wall_s) = (stats.rounds + rest.rounds, stats.wall_s + rest.wall_s);
    stats.absorb(rest);
    stats.rounds = rounds;
    stats.wall_s = wall_s;
    // A round's time here is mostly replies waiting on TCP timers, which
    // do not follow the cores' speed: the load's times stay as measured.
    for round_s in &stats.round_s {
        outcome
            .windows
            .push((REQUESTS_PER_ROUND, Timing::unscaled(*round_s)));
    }
    outcome.ops = stats
        .submit_ms
        .iter()
        .map(|ms| Timing::unscaled(ms / 1e3))
        .collect();
    outcome.attempted = stats.requests;
    if stats.not_ok_count > 0 {
        outcome.fail(
            stats.not_ok_count,
            format!("replies not OK: {:?}", stats.not_ok),
        );
    }
    let (dups, resends) = (warm.dups + stats.dups, warm.resends + stats.resends);
    if dups != resends {
        outcome.fail(1, format!("{dups} DUP replies for {resends} resends"));
    }

    // The final state: STATS and FPRINT, then SIGKILL, restart, FPRINT.
    let records = filled.records + warm.journaled + stats.journaled;
    let submitted =
        filled.submitted + (warm.journaled - warm.rounds) + (stats.journaled - stats.rounds);
    let mut client = Client::connect(daemon.addr)?;
    let reported: Option<CoreStats> = client
        .call("STATS")?
        .strip_prefix("OK STATS ")
        .and_then(|json| serde_json::from_str(json).ok());
    if reported.map(|s| s.submitted as u64) != Some(submitted) {
        outcome.fail(
            1,
            format!("STATS reports {reported:?}, expected {submitted} submitted"),
        );
    }
    let before = client.call("FPRINT")?.to_owned();
    drop(client);
    drop(daemon);
    let restarted = Daemon::spawn(&bin, &dir.0)?;
    let fingerprint = before
        .strip_prefix("OK FPRINT ")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .unwrap_or(0);
    for problem in restarted.recovery_problems(records, fingerprint) {
        outcome.fail(1, problem);
    }
    let after = Client::connect(restarted.addr)?.call("FPRINT")?.to_owned();
    if after != before {
        outcome.fail(
            1,
            format!("FPRINT {before:?} before SIGKILL, {after:?} after restart"),
        );
    }
    drop(restarted);

    let submit_p50 = median(&stats.submit_ms);
    outcome.detail.extend([
        ("rounds", stats.rounds as f64),
        ("prefill_records", filled.records as f64),
        ("requests_per_s", ratio(stats.requests as f64, stats.wall_s)),
        ("submit_samples", stats.submit_ms.len() as f64),
        ("submit_p50_ms", submit_p50),
        ("submit_p90_ms", quantile(&stats.submit_ms, 0.9)),
        ("read_p50_ms", median(&stats.read_ms)),
        ("tick_p50_ms", median(&stats.write_ms)),
        (
            "svc.dedup.hit_ratio",
            ratio(stats.dups as f64, stats.submit_ms.len() as f64),
        ),
    ]);
    // p99 needs at least ten samples beyond it.
    if stats.submit_ms.len() >= 1000 {
        outcome
            .detail
            .push(("submit_p99_ms", quantile(&stats.submit_ms, 0.99)));
    }
    if params.trace {
        let (mut ledger, submit_us) =
            protocol_replica(params.seed, prefill_rounds, first, REPLICA_ROUNDS)?;
        // The replica's spans cover its rounds; the live load's thread time
        // per round is what they must explain.
        ledger.add_thread_ns(
            WORKERS as f64 * stats.wall_s * 1e9 * REPLICA_ROUNDS as f64 / stats.rounds as f64,
        );
        outcome.detail.push(("svc.submit_in_process_us", submit_us));
        outcome
            .detail
            .push(("svc.transport.us_per_request", submit_p50 * 1e3 - submit_us));
        outcome.ledger = Some(ledger);
        // Nothing the benchmark traces runs inside the live load: its only
        // span source is the in-process replica, which runs afterwards.
        outcome.trace_overhead = 0.0;
    }
    drop(dir);
    Ok(outcome)
}

/// The traced part of `daemon`: the load's first `rounds` rounds replayed
/// through `execute_line` in process, from the same prefill and warm-up,
/// over a `DurableService` whose WAL skips fsync. The commands it journals
/// are then appended to standalone WALs with and without fsync and applied
/// to a standalone state. The protocol's own time is what `execute_line`
/// takes beyond the fsync-less append and the apply; the WAL's is the
/// append with fsync, as the daemon does it.
///
/// Returns the ledger and the in-process cost of a SUBMIT as the daemon
/// pays it, µs: the median `execute_line` plus the mean fsync.
fn protocol_replica(
    seed: u64,
    prefill_rounds: u64,
    first: u64,
    rounds: u64,
) -> Result<(Ledger, f64), String> {
    let dir = WorkDir::new("replica");
    prefill(&dir.0, seed, prefill_rounds)?;
    let mut config = WalConfig::new(&dir.0);
    config.fsync = false;
    let (service, _) =
        DurableService::open(config, CoreConfig::default(), SvcHealthConfig::default())
            .map_err(|e| format!("open replica journal: {e}"))?;
    let service = Mutex::new(service);
    for line in serial_lines(seed, prefill_rounds..first) {
        execute_line(&line, &service);
    }
    let before = service
        .lock()
        .map_err(|_| "replica lock poisoned")?
        .records() as usize;
    let mut ledger = Ledger::new(Instant::now());
    let mut submit_ns = Vec::new();
    let mut execute_ns = 0.0;
    let mut requests = 0u64;
    for round in first..first + rounds {
        let lines = (0..WORKERS as u64)
            .flat_map(|client| {
                submits(seed, client, round)
                    .into_iter()
                    .chain(std::iter::once("STATS".to_owned()))
            })
            .chain(std::iter::once(tick(round)));
        for line in lines {
            let started = Instant::now();
            std::hint::black_box(execute_line(&line, &service));
            let ns = started.elapsed().as_nanos() as f64;
            let verb = match line.split_whitespace().next() {
                Some("SUBMIT") => {
                    submit_ns.push(ns);
                    "svc.execute_line.submit"
                }
                Some("STATS") => "svc.execute_line.stats",
                _ => "svc.execute_line.tick",
            };
            ledger.add_side(verb, ns);
            execute_ns += ns;
            requests += 1;
        }
    }
    drop(service);
    let recovered = recover(&dir.0).map_err(|e| format!("scan replica journal: {e}"))?;
    let (prefix, commands) = recovered.commands.split_at(before);

    let mut encoded = 0u64;
    for command in commands {
        let json = ledger.side("svc.encode.command", || serde_json::to_string(command));
        encoded += json.map_or(0, |json| json.len() as u64);
    }
    ledger.count("svc.encode.bytes", encoded);
    let mut append_ns = [0.0; 2];
    for (fsync, total) in [true, false].into_iter().zip(&mut append_ns) {
        let wal_dir = WorkDir::new(if fsync { "wal-fsync" } else { "wal-nofsync" });
        let mut config = WalConfig::new(&wal_dir.0);
        config.fsync = fsync;
        let empty = recover(&wal_dir.0).map_err(|e| format!("scan empty WAL: {e}"))?;
        let mut wal = Wal::open(config, &empty).map_err(|e| format!("open WAL: {e}"))?;
        for command in commands {
            let started = Instant::now();
            wal.append(command).map_err(|e| format!("append: {e}"))?;
            let end = Instant::now();
            *total += end.duration_since(started).as_nanos() as f64;
            if fsync {
                ledger.record("svc.wal.append", "request", started, end);
            } else {
                ledger.add_side(
                    "svc.wal.append_nofsync",
                    end.duration_since(started).as_nanos() as f64,
                );
            }
        }
    }
    let [fsync_ns, nofsync_ns] = append_ns;
    let mut state = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
    for command in prefix {
        let _ = state.apply(command);
    }
    let mut apply_ns = 0.0;
    for command in commands {
        let started = Instant::now();
        let applied = state.apply(command);
        let end = Instant::now();
        ledger.record("svc.apply.command", "request", started, end);
        apply_ns += end.duration_since(started).as_nanos() as f64;
        if applied.is_err() {
            return Err(format!("replica command {command:?} failed to apply"));
        }
    }
    ledger.add(
        "svc.protocol.request",
        requests,
        execute_ns - nofsync_ns - apply_ns,
    );
    ledger.count("svc.requests", requests);
    ledger.count("svc.journaled", commands.len() as u64);
    let fsync_us = ratio(fsync_ns - nofsync_ns, commands.len() as f64) / 1e3;
    Ok((ledger, median(&submit_ns) / 1e3 + fsync_us))
}

/// Runs `daemon_recovery` (see the module docs).
pub fn run_recovery(params: &Params) -> Result<Outcome, String> {
    let bin = daemon_binary()?;
    let rounds = if params.check {
        500
    } else {
        RECOVERY_PREFILL_ROUNDS
    };
    let mut outcome = Outcome::default();
    let mut journal = None;
    for setup in 0..params.setups(SETUPS) {
        drop(journal.take());
        let dir = WorkDir::new(&format!("recovery-{setup}"));
        let (set_up, timing) = calib::timed(|| -> Result<Prefill, String> {
            let filled = prefill(&dir.0, params.seed, rounds)?;
            let daemon = Daemon::spawn(&bin, &dir.0)?;
            for problem in daemon.recovery_problems(filled.records, filled.fingerprint) {
                outcome.fail(1, problem);
            }
            Ok(filled)
        });
        outcome.setups.push(timing);
        journal = Some((dir, set_up?));
    }
    let (dir, filled) = journal.expect("at least one set-up");
    let epoch = Instant::now();
    let mut ledger = Ledger::new(epoch);
    let mut replica_s = 0.0;
    let mut rss = Vec::new();
    let mut to_recovered_ms = Vec::new();
    while outcome.windows.len() < MIN_WINDOWS || outcome.timed_s() + replica_s < params.seconds {
        let (daemon, timing) = calib::timed(|| Daemon::spawn(&bin, &dir.0));
        let daemon = daemon?;
        outcome.attempted += 1;
        let problems = daemon.recovery_problems(filled.records, filled.fingerprint);
        if !problems.is_empty() {
            outcome.fail(1, problems.join("; "));
        }
        rss.push(crate::peak_rss_mb(Some(daemon.pid())));
        let (ready_s, recovered_s) = (daemon.to_ready_s, daemon.to_recovered_s);
        drop(daemon);
        let restart = timing.part(ready_s);
        outcome.windows.push((1, restart));
        outcome.ops.push(restart);
        to_recovered_ms.push(recovered_s * 1e3);
        // The traced run follows every other restart with the recovery
        // it just did, replayed in process: the journal scan, then the
        // replay into a fresh state.
        if params.trace && outcome.windows.len() % 2 == 0 {
            let started = Instant::now();
            ledger.add_thread_ns(ready_s * 1e9);
            let scanned = ledger.time("svc.wal.recover", "restart", || recover(&dir.0));
            let commands = scanned.map_err(|e| format!("scan journal: {e}"))?.commands;
            let fingerprint = ledger.time("svc.apply.replay", "restart", || {
                let mut state =
                    ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
                for command in &commands {
                    let _ = state.apply(command);
                }
                state.fingerprint()
            });
            ledger.count("svc.recover.restarts", 1);
            ledger.count("svc.recover.records", commands.len() as u64);
            if fingerprint != filled.fingerprint {
                outcome.fail(
                    1,
                    "in-process replay disagrees with the daemon's fingerprint".to_owned(),
                );
            }
            replica_s += started.elapsed().as_secs_f64();
        }
    }
    outcome.peak_rss_mb = median(&rss);
    outcome
        .detail
        .push(("journal_records", filled.records as f64));
    outcome
        .detail
        .push(("spawn_to_recovered_p50_ms", median(&to_recovered_ms)));
    if params.trace {
        let replicas = ledger.counter("svc.recover.restarts").max(1) as f64;
        let replay_ms =
            (ledger.layer_ns("svc.wal") + ledger.layer_ns("svc.apply")) / 1e6 / replicas;
        let restart_ms: Vec<f64> = outcome.ops.iter().map(|t| t.wall_s * 1e3).collect();
        outcome.detail.push((
            "svc.recover.process_overhead_ms",
            median(&restart_ms) - replay_ms,
        ));
        outcome.ledger = Some(ledger);
        // Nothing traced runs inside a restart; the replay runs after it.
        outcome.trace_overhead = 0.0;
    }
    drop(dir);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(line: &str) -> f64 {
        line.split_whitespace()
            .last()
            .and_then(|t| t.parse().ok())
            .expect("stamped line")
    }

    #[test]
    fn round_timestamps_never_decrease() {
        let mut last = f64::NEG_INFINITY;
        for round in 0..200 {
            // Interleave the two clients' submits however the sockets do:
            // every line of a round carries the round's stamp.
            for line in submits(5, 0, round)
                .iter()
                .chain(&submits(5, 1, round))
                .chain(std::iter::once(&tick(round)))
            {
                let t = stamp(line);
                assert_eq!(t, round as f64, "{line}");
                assert!(t >= last);
                last = t;
            }
        }
    }

    #[test]
    fn one_submit_in_eight_resends_the_previous_round() {
        let previous = submits(9, 1, 41);
        let current = submits(9, 1, 42);
        let id = |line: &str| line.split_whitespace().nth(1).expect("id").to_owned();
        assert_eq!(id(&current[0]), id(&previous[SUBMITS as usize - 1]));
        assert!(current[1..]
            .iter()
            .all(|line| !previous.iter().any(|p| id(p) == id(line))));
    }

    #[test]
    fn prefill_applies_with_zero_errors_and_replays_identically() {
        let dir = WorkDir::new("test-prefill");
        let rounds = 120;
        let filled = prefill(&dir.0, 11, rounds).expect("every prefill reply is OK");
        assert_eq!(filled.records, 3 + 17 + 15 * (rounds - 1));
        assert_eq!(filled.submitted, 16 + 14 * (rounds - 1));
        let (reopened, summary) = DurableService::open(
            WalConfig::new(&dir.0),
            CoreConfig::default(),
            SvcHealthConfig::default(),
        )
        .expect("journal reopens");
        assert_eq!(summary.replay_errors, 0);
        assert_eq!(summary.replayed, filled.records);
        assert_eq!(reopened.fingerprint(), filled.fingerprint);
    }
}
