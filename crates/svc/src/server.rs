//! A minimal std-TCP line-protocol front end for [`DurableService`].
//!
//! One request per line, one response per line, plain text — no
//! heavyweight dependencies, trivially driven from `nc`, a test, or the
//! chaos supervisor. Every state-changing verb carries an **explicit
//! timestamp** supplied by the client, mirroring the sans-IO core: the
//! daemon has no clock of its own, so a command stream replayed against
//! a recovered daemon lands on bit-for-bit the same state no matter how
//! long the crash took.
//!
//! Verbs (responses begin `OK` or `ERR`):
//!
//! ```text
//! PING
//! REGTRAIN <name>
//! REGCARGO <name> <mail|weibo|cloud> <deadline_s>
//! SUBMIT <client_id> <app> <up|down> <size_bytes> <now_s> [deadline_s]
//! HB <train> <now_s>
//! TICK <now_s>
//! REPORT <request> <ok|fail> <now_s>
//! CANCEL <request>
//! DRAIN
//! STATS | HEALTH | FPRINT | CHECKPOINT
//! QUIT
//! ```
//!
//! `SUBMIT` is idempotent on `client_id`: a resend (same key) is
//! answered from the dedup table with a `DUP`-prefixed copy of the
//! original outcome and no journal append, which is what makes
//! crash-retry ambiguity safe for clients.
//!
//! Overload posture: at most [`ServerConfig::max_connections`]
//! concurrent connections (excess get one `BUSY` line and a close — the
//! accept backlog is bounded) and per-connection read/write timeouts so a
//! stalled client cannot pin a handler thread. Queue pressure is the
//! core's `AdmissionConfig` shed policy, reported through the typed
//! `SUBMIT` responses (`EVICTED`, `FLUSHED`, `REJECTED`). `etrain-svcd`
//! opens the core with `CoreConfig::default()`, whose admission is
//! unbounded, so the daemon's queue has no bound and it never sends
//! those three replies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use etrain_core::{
    Admission, CommandOutcome, CoreCommand, RequestId, RetryVerdict, TransmitRequest, TxResult,
};
use etrain_sched::{AppProfile, CostProfile};
use etrain_trace::{CargoAppId, TrainAppId};

use crate::error::SvcError;
use crate::service::DurableService;
use crate::state::{SvcCommand, SvcOutcome};

/// Process exit code the daemon uses when the armed WAL fault hook
/// fires: the tail is damaged by design and continuing would apply a
/// command that was never durably journaled.
pub const FAULT_EXIT_CODE: i32 = 42;

/// Longest request line the server reads, its `\n` included. The
/// protocol's own clients send lines under 100 bytes. A longer line is
/// answered with one `ERR` and the connection is closed unexecuted, so a
/// client that never sends `\n` cannot grow the read buffer without bound.
const MAX_LINE_BYTES: usize = 4096;

/// Environment variable naming the listen address.
pub const SVC_ADDR_ENV: &str = "ETRAIN_SVC_ADDR";

/// Strict [`SVC_ADDR_ENV`] reader: `Ok(None)` when unset or empty, the
/// parsed socket address otherwise, `Err` for an unparseable value.
///
/// # Errors
///
/// Returns a description of the malformed address.
pub fn try_addr_from_env() -> Result<Option<SocketAddr>, String> {
    match std::env::var(SVC_ADDR_ENV) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => raw
            .trim()
            .parse::<SocketAddr>()
            .map(Some)
            .map_err(|_| format!("invalid {SVC_ADDR_ENV} {raw:?} (expected host:port)")),
    }
}

/// Tuning of the TCP front end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (the bound
    /// address is reported by [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Concurrent-connection bound; connection `max + 1` is told `BUSY`
    /// and closed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap_or_else(|_| {
                SocketAddr::from(([127, 0, 0, 1], 0)) // unreachable: literal parses
            }),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_connections: 32,
        }
    }
}

/// The accept loop: owns the listener and the shared service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    cfg: ServerConfig,
    service: Arc<Mutex<DurableService>>,
    active: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and wraps the service for shared access.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(cfg: ServerConfig, service: DurableService) -> std::io::Result<Self> {
        let listener = TcpListener::bind(cfg.addr)?;
        Ok(Server {
            listener,
            cfg,
            service: Arc::new(Mutex::new(service)),
            active: Arc::new(AtomicUsize::new(0)),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS lookup failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that makes [`Server::run`] return at the next accept poll
    /// (used by in-process tests; the daemon runs until killed).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Accepts connections until the shutdown flag is raised, spawning
    /// one handler thread per accepted connection (bounded by
    /// [`ServerConfig::max_connections`]).
    ///
    /// # Errors
    ///
    /// Propagates unexpected accept failures.
    pub fn run(&self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.active.load(Ordering::Relaxed) >= self.cfg.max_connections {
                        let _ = reject_busy(stream, self.cfg.write_timeout);
                        continue;
                    }
                    let slot = ConnectionSlot::take(&self.active);
                    let service = Arc::clone(&self.service);
                    let cfg = self.cfg.clone();
                    std::thread::spawn(move || {
                        let _slot = slot;
                        let _ = handle_connection(&stream, &service, &cfg);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// One of the [`ServerConfig::max_connections`] slots, held by a handler
/// thread and given back when dropped — on unwind too, so a handler that
/// panics cannot leak its slot and leave every later client `BUSY`.
struct ConnectionSlot(Arc<AtomicUsize>);

impl ConnectionSlot {
    fn take(active: &Arc<AtomicUsize>) -> Self {
        active.fetch_add(1, Ordering::Relaxed);
        ConnectionSlot(Arc::clone(active))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn reject_busy(stream: TcpStream, write_timeout: Duration) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(write_timeout))?;
    (&stream).write_all(b"BUSY\n")
}

/// Serves one connection until `QUIT`, EOF, a timeout, a reset, or a
/// request line longer than [`MAX_LINE_BYTES`].
///
/// Reply framing: every reply, its `\n` included, leaves in **one**
/// `write_all` on a `TCP_NODELAY` socket. Written as two segments (line,
/// then newline), Nagle's algorithm holds the second until the client's
/// delayed ACK, about 40 ms per request on a long session. A reply is
/// written only after [`execute_line`] returns, so a `SUBMIT` is still
/// acked after its journal append and fsync.
fn handle_connection(
    stream: &TcpStream,
    service: &Mutex<DurableService>,
    cfg: &ServerConfig,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut line = Vec::new();
    let mut reply = String::new();
    loop {
        line.clear();
        let mut limited = (&mut reader).take(MAX_LINE_BYTES as u64);
        match limited.read_until(b'\n', &mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {}
            Err(_) => return Ok(()), // timeout or reset: drop the connection
        }
        if line.len() == MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            let refusal = format!("ERR request line longer than {MAX_LINE_BYTES} bytes\n");
            return writer.write_all(refusal.as_bytes());
        }
        let Ok(request) = std::str::from_utf8(&line) else {
            return Ok(()); // not text: drop the connection
        };
        let request = request.trim();
        if request.is_empty() {
            continue;
        }
        let quit = request.eq_ignore_ascii_case("QUIT");
        reply.clear();
        if quit {
            reply.push_str("OK BYE");
        } else {
            reply.push_str(&execute_line(request, service));
        }
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        if quit {
            return Ok(());
        }
    }
}

fn lock(service: &Mutex<DurableService>) -> std::sync::MutexGuard<'_, DurableService> {
    // A poisoned lock means another handler panicked mid-command; the
    // journal is still consistent (append happens before apply), so
    // serving reads and further appends remains sound.
    service
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Executes one protocol line against the service, returning the
/// response line (without the trailing newline).
///
/// Public so tests and the chaos harness can drive the protocol without
/// a socket; the daemon's fault-crash behaviour (exiting with
/// [`FAULT_EXIT_CODE`]) lives here so a mid-append fault kills the
/// process no matter which connection carried the triggering command.
pub fn execute_line(request: &str, service: &Mutex<DurableService>) -> String {
    match dispatch(request, service) {
        Ok(response) => response,
        Err(SvcError::FaultInjected { at_record }) => {
            // The WAL tail is damaged by design; applying (or answering)
            // would invent un-journaled state. Crash like the SIGKILL
            // this hook stands in for.
            eprintln!("etrain-svcd: WAL fault hook fired at record {at_record}; crashing");
            std::process::exit(FAULT_EXIT_CODE);
        }
        Err(e) => format!("ERR {e}"),
    }
}

fn parse_f64(token: &str, what: &str) -> Result<f64, SvcError> {
    token
        .parse::<f64>()
        .map_err(|_| bad_request(format!("{what} {token:?} is not a number")))
}

fn parse_u64(token: &str, what: &str) -> Result<u64, SvcError> {
    token
        .parse::<u64>()
        .map_err(|_| bad_request(format!("{what} {token:?} is not a non-negative integer")))
}

fn bad_request(msg: String) -> SvcError {
    SvcError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))
}

/// One protocol line, parsed: a journaled command or a verb served
/// outside the journal.
enum Request {
    Ping,
    Apply(SvcCommand),
    Stats,
    Health,
    Fprint,
    Checkpoint,
}

fn parse(request: &str) -> Result<Request, SvcError> {
    let tokens: Vec<&str> = request.split_whitespace().collect();
    let Some((verb, args)) = tokens.split_first() else {
        return Err(bad_request("empty request".into()));
    };
    let verb = verb.to_ascii_uppercase();
    let command = match (verb.as_str(), args) {
        ("PING", []) => return Ok(Request::Ping),
        ("STATS", []) => return Ok(Request::Stats),
        ("HEALTH", []) => return Ok(Request::Health),
        ("FPRINT", []) => return Ok(Request::Fprint),
        ("CHECKPOINT", []) => return Ok(Request::Checkpoint),
        ("REGTRAIN", [name]) => SvcCommand::Core(CoreCommand::RegisterTrain {
            name: (*name).to_string(),
        }),
        ("REGCARGO", [name, kind, deadline]) => {
            let deadline_s = parse_f64(deadline, "deadline")?;
            if !(deadline_s.is_finite() && deadline_s > 0.0) {
                return Err(bad_request(format!(
                    "deadline {deadline:?} must be positive"
                )));
            }
            let cost = match kind.to_ascii_lowercase().as_str() {
                "mail" => CostProfile::mail(deadline_s),
                "weibo" => CostProfile::weibo(deadline_s),
                "cloud" => CostProfile::cloud(deadline_s),
                other => {
                    return Err(bad_request(format!(
                        "unknown profile {other:?} (expected mail, weibo, or cloud)"
                    )))
                }
            };
            SvcCommand::Core(CoreCommand::RegisterCargo {
                profile: AppProfile::new((*name).to_string(), cost),
            })
        }
        ("SUBMIT", [client_id, app, dir, size, now_s, rest @ ..]) if rest.len() <= 1 => {
            let app = CargoAppId(parse_u64(app, "app")? as usize);
            let size_bytes = parse_u64(size, "size")?;
            let now_s = parse_f64(now_s, "time")?;
            let mut request = match dir.to_ascii_lowercase().as_str() {
                "up" => TransmitRequest::upload(size_bytes),
                "down" => TransmitRequest::download(size_bytes),
                other => {
                    return Err(bad_request(format!(
                        "unknown direction {other:?} (expected up or down)"
                    )))
                }
            };
            if let [deadline] = rest {
                request = request.with_deadline(parse_f64(deadline, "deadline")?);
            }
            SvcCommand::SubmitIdem {
                client_id: (*client_id).to_string(),
                app,
                request,
                now_s,
            }
        }
        ("HB", [train, now_s]) => SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(parse_u64(train, "train")? as usize),
            now_s: parse_f64(now_s, "time")?,
        }),
        ("TICK", [now_s]) => SvcCommand::Core(CoreCommand::Tick {
            now_s: parse_f64(now_s, "time")?,
        }),
        ("REPORT", [request_id, result, now_s]) => {
            let request = RequestId(parse_u64(request_id, "request")?);
            let now_s = parse_f64(now_s, "time")?;
            let result = match result.to_ascii_lowercase().as_str() {
                "ok" => TxResult::Delivered,
                "fail" => TxResult::Failed,
                other => {
                    return Err(bad_request(format!(
                        "unknown result {other:?} (expected ok or fail)"
                    )))
                }
            };
            SvcCommand::Core(CoreCommand::ReportResult {
                request,
                result,
                now_s,
            })
        }
        ("CANCEL", [request_id]) => SvcCommand::Core(CoreCommand::Cancel {
            request: RequestId(parse_u64(request_id, "request")?),
        }),
        ("DRAIN", []) => SvcCommand::Core(CoreCommand::Drain),
        _ => return Err(bad_request(format!("unrecognized request {request:?}"))),
    };
    Ok(Request::Apply(command))
}

fn dispatch(request: &str, service: &Mutex<DurableService>) -> Result<String, SvcError> {
    Ok(match parse(request)? {
        Request::Ping => "OK PONG".into(),
        Request::Apply(command) => {
            // Release the lock before formatting: the other connections
            // wait on it, and each append already holds it for an fsync.
            let outcome = lock(service).apply(command)?;
            reply(&outcome)
        }
        Request::Stats => {
            let stats = lock(service).state().stats();
            let json = serde_json::to_string(&stats).unwrap_or_else(|_| "{}".into());
            format!("OK STATS {json}")
        }
        Request::Health => {
            // No fingerprint: hashing the state would hold the lock, and
            // every SUBMIT behind it, for as long as the probe. `FPRINT`
            // has it.
            let guard = lock(service);
            format!(
                "OK HEALTH {} transitions={} records={}",
                guard.state().health(),
                guard.state().transitions().len(),
                guard.records(),
            )
        }
        Request::Fprint => format!("OK FPRINT {:016x}", lock(service).fingerprint()),
        Request::Checkpoint => {
            let ckpt = lock(service).checkpoint()?;
            format!(
                "OK CHECKPOINT records={} fingerprint={:016x}",
                ckpt.records, ckpt.fingerprint
            )
        }
    })
}

/// The reply line for what one journaled command produced.
fn reply(outcome: &SvcOutcome) -> String {
    match outcome {
        SvcOutcome::Core(CommandOutcome::TrainRegistered { train }) => {
            format!("OK TRAIN {}", train.0)
        }
        SvcOutcome::Core(CommandOutcome::CargoRegistered { app }) => format!("OK CARGO {}", app.0),
        SvcOutcome::Core(CommandOutcome::Admitted { admission })
        | SvcOutcome::Submitted { admission } => admission_reply("", admission),
        SvcOutcome::Duplicate { admission } => admission_reply("DUP ", admission),
        SvcOutcome::Core(
            CommandOutcome::Decisions { decisions } | CommandOutcome::Drained { decisions },
        ) => {
            let mut out = format!("OK DECISIONS {}", decisions.len());
            for d in decisions {
                out.push_str(&format!(" {}@{}:{}", d.request.0, d.app.0, d.size_bytes));
            }
            out
        }
        SvcOutcome::Core(CommandOutcome::Verdict { verdict }) => match verdict {
            RetryVerdict::Delivered => "OK VERDICT DELIVERED".into(),
            RetryVerdict::RetryScheduled { resume_at_s } => {
                format!("OK VERDICT RETRY {resume_at_s}")
            }
            RetryVerdict::Abandoned => "OK VERDICT ABANDONED".into(),
        },
        SvcOutcome::Core(CommandOutcome::Cancelled { withdrawn }) => {
            format!("OK CANCELLED {withdrawn}")
        }
    }
}

fn admission_reply(prefix: &str, admission: &Admission) -> String {
    match admission {
        Admission::Admitted { id } => format!("OK {prefix}SUBMITTED {}", id.0),
        Admission::AdmittedWithEviction { id, evicted } => {
            format!("OK {prefix}SUBMITTED {} EVICTED {}", id.0, evicted.0)
        }
        Admission::AdmittedWithFlush { id, flushed } => {
            format!(
                "OK {prefix}SUBMITTED {} FLUSHED {}",
                id.0, flushed.request.0
            )
        }
        Admission::Rejected => format!("OK {prefix}REJECTED"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DurableService;
    use crate::state::SvcHealthConfig;
    use crate::wal::WalConfig;
    use etrain_core::CoreConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "etrain-server-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn service(tag: &str) -> DurableService {
        let mut cfg = WalConfig::new(tmp_dir(tag));
        cfg.fsync = false;
        let (svc, _) = DurableService::open(
            cfg,
            CoreConfig {
                theta: 5.0,
                ..CoreConfig::default()
            },
            SvcHealthConfig::default(),
        )
        .unwrap();
        svc
    }

    fn roundtrip(lines: &[&str], svc: &Mutex<DurableService>) -> Vec<String> {
        lines.iter().map(|l| execute_line(l, svc)).collect()
    }

    #[test]
    fn protocol_walkthrough_without_sockets() {
        let svc = Mutex::new(service("proto"));
        let out = roundtrip(
            &[
                "PING",
                "REGTRAIN WeChat",
                "REGCARGO Mail mail 300",
                "HB 0 0.0",
                "SUBMIT c-1 0 up 4000 1.0",
                "SUBMIT c-1 0 up 4000 2.0",
                "TICK 3.0",
                "HB 0 270.0",
                "STATS",
                "HEALTH",
            ],
            &svc,
        );
        assert_eq!(out[0], "OK PONG");
        assert_eq!(out[1], "OK TRAIN 0");
        assert_eq!(out[2], "OK CARGO 0");
        assert_eq!(out[3], "OK DECISIONS 0");
        assert_eq!(out[4], "OK SUBMITTED 0");
        assert_eq!(out[5], "OK DUP SUBMITTED 0", "resend answered from table");
        assert_eq!(out[6], "OK DECISIONS 0", "deferred below theta");
        assert!(out[7].starts_with("OK DECISIONS 1 0@0:4000"), "{}", out[7]);
        assert!(out[8].starts_with("OK STATS {"), "{}", out[8]);
        assert!(out[9].starts_with("OK HEALTH healthy"), "{}", out[9]);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let svc = Mutex::new(service("badreq"));
        for (line, needle) in [
            ("NONSENSE", "unrecognized"),
            ("SUBMIT", "unrecognized"),
            ("SUBMIT a b up 1 2", "not a non-negative integer"),
            ("SUBMIT a 0 sideways 1 2", "unknown direction"),
            ("REGCARGO X granite 30", "unknown profile"),
            ("HB 0 soon", "not a number"),
            ("REPORT 0 maybe 1", "unknown result"),
            ("REGCARGO X mail -3", "must be positive"),
            ("", "empty request"),
            ("   ", "empty request"),
        ] {
            let out = execute_line(line, &svc);
            assert!(out.starts_with("ERR"), "{line} -> {out}");
            assert!(out.contains(needle), "{line} -> {out}");
        }
        // Unknown train: journaled core rejection, still an ERR line.
        let out = execute_line("HB 9 1.0", &svc);
        assert!(out.starts_with("ERR core rejected"), "{out}");
    }

    #[test]
    fn report_verb_renders_each_verdict() {
        let svc = Mutex::new(service("report"));
        let setup = ["REGTRAIN QQ", "REGCARGO Mail mail 300", "HB 0 0.0"];
        roundtrip(&setup, &svc);
        let submits = ["SUBMIT c-0 0 up 100 1.0", "SUBMIT c-1 0 up 100 1.0"];
        roundtrip(&submits, &svc);
        assert!(execute_line("HB 0 270.0", &svc).starts_with("OK DECISIONS 2"));
        let out = roundtrip(&["REPORT 0 ok 271.0", "REPORT 1 fail 271.0"], &svc);
        assert_eq!(out[0], "OK VERDICT DELIVERED");
        assert!(out[1].starts_with("OK VERDICT RETRY "), "{}", out[1]);
        let again = execute_line("REPORT 0 ok 272.0", &svc);
        assert!(again.starts_with("ERR core rejected"), "{again}");
    }

    #[test]
    fn cancel_and_drain_verbs_settle_the_queue() {
        let svc = Mutex::new(service("cancel"));
        let setup = ["REGTRAIN QQ", "REGCARGO Mail mail 300", "HB 0 0.0"];
        roundtrip(&setup, &svc);
        let submits = ["SUBMIT c-0 0 up 100 1.0", "SUBMIT c-1 0 up 200 1.0"];
        roundtrip(&submits, &svc);
        let out = roundtrip(&["CANCEL 0", "CANCEL 0", "DRAIN", "DRAIN"], &svc);
        assert_eq!(
            out,
            [
                "OK CANCELLED true",
                "OK CANCELLED false",
                "OK DECISIONS 1 1@0:200",
                "OK DECISIONS 0"
            ]
        );
    }

    #[test]
    fn checkpoint_verb_reports_the_journal_position_and_fingerprint() {
        let svc = Mutex::new(service("ckpt"));
        roundtrip(&["REGTRAIN QQ", "HB 0 0.0"], &svc);
        let fprint = execute_line("FPRINT", &svc);
        let fingerprint = fprint.strip_prefix("OK FPRINT ").unwrap();
        let expected = format!("OK CHECKPOINT records=2 fingerprint={fingerprint}");
        assert_eq!(execute_line("CHECKPOINT", &svc), expected);
    }

    #[test]
    fn tcp_server_serves_and_bounds_connections() {
        let svc = service("tcp");
        let server = Server::bind(
            ServerConfig {
                max_connections: 1,
                read_timeout: Duration::from_millis(2_000),
                write_timeout: Duration::from_millis(2_000),
                ..ServerConfig::default()
            },
            svc,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(b"PING\n").unwrap();
        let mut reader = BufReader::new(first.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK PONG");

        // While the first connection is held open, a second one is shed.
        let second = TcpStream::connect(addr).unwrap();
        let mut second_reader = BufReader::new(second);
        let mut busy = String::new();
        second_reader.read_line(&mut busy).unwrap();
        assert_eq!(busy.trim(), "BUSY");

        first.write_all(b"QUIT\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK BYE");
        drop(reader);
        drop(first);

        // After the slot frees, new connections are served again.
        std::thread::sleep(Duration::from_millis(50));
        let mut third = TcpStream::connect(addr).unwrap();
        third.write_all(b"PING\nQUIT\n").unwrap();
        let mut third_reader = BufReader::new(third);
        let mut pong = String::new();
        third_reader.read_line(&mut pong).unwrap();
        assert_eq!(pong.trim(), "OK PONG");

        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn long_session_replies_are_one_line_each_without_nagle_stalls() {
        let server = Server::bind(ServerConfig::default(), service("nagle")).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let client = TcpStream::connect(addr).unwrap();
        client.set_nodelay(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(&client);
        let mut writer = &client;
        let mut ask = |request: &str| {
            writer.write_all(format!("{request}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(reply.ends_with('\n'), "{request} -> {reply:?}");
            reply
        };
        assert_eq!(ask("REGCARGO Mail mail 300"), "OK CARGO 0\n");

        // Linux quick-acks the first ~16 segments of a connection, which
        // hides a reply split across two writes; only a long session
        // shows the ~40 ms Nagle + delayed-ACK stall on every request.
        let started = std::time::Instant::now();
        for i in 0..120 {
            assert_eq!(ask("PING"), "OK PONG\n");
            let reply = ask(&format!("SUBMIT c-{i} 0 up 1000 {i}.0"));
            assert!(reply.starts_with("OK "), "{reply:?}");
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "240 round trips took {elapsed:?}"
        );

        // Nothing but the QUIT reply is left unread: one line per reply.
        writer.write_all(b"QUIT\n").unwrap();
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
        assert_eq!(rest, "OK BYE\n");

        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    fn serve(tag: &str) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let server = Server::bind(ServerConfig::default(), service(tag)).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle();
        (
            addr,
            shutdown,
            std::thread::spawn(move || server.run().unwrap()),
        )
    }

    /// Sends `requests` on a fresh connection, half-closes it, and reads
    /// reply lines until the server closes.
    fn exchange(addr: SocketAddr, requests: &str) -> Vec<String> {
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.write_all(requests.as_bytes()).unwrap();
        let _ = client.shutdown(std::net::Shutdown::Write);
        BufReader::new(client)
            .lines()
            .map_while(Result::ok)
            .collect()
    }

    #[test]
    fn an_oversized_line_is_refused_and_closed_without_touching_the_wal() {
        let (addr, shutdown, handle) = serve("longline");
        let before = exchange(addr, "REGCARGO Mail mail 300\nFPRINT\nHEALTH\n");
        assert_eq!(before[0], "OK CARGO 0");

        // A SUBMIT that never ends: one ERR, then the server closes.
        let endless = format!("SUBMIT c-1 0 up 1000 1.0 {}", "9".repeat(MAX_LINE_BYTES));
        let refused = exchange(addr, &endless);
        assert_eq!(refused.len(), 1, "{refused:?}");
        assert!(refused[0].starts_with("ERR request line longer than"));

        // The server still serves, and the refused line left no record.
        let after = exchange(addr, "PING\nFPRINT\nHEALTH\n");
        assert_eq!(after[0], "OK PONG");
        assert_eq!(after[1..], before[1..]);
        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn a_line_of_exactly_the_limit_is_served() {
        let (addr, shutdown, handle) = serve("atlimit");
        let padded = format!("{:<width$}\n", "PING", width = MAX_LINE_BYTES - 1);
        assert_eq!(exchange(addr, &padded), ["OK PONG"]);
        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn a_last_line_without_a_newline_is_still_served() {
        let (addr, shutdown, handle) = serve("eof");
        assert_eq!(exchange(addr, "PING\nPING"), ["OK PONG", "OK PONG"]);
        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn quit_ends_the_session_before_later_lines() {
        let (addr, shutdown, handle) = serve("quit");
        assert_eq!(exchange(addr, "PING\nQUIT\nPING\n"), ["OK PONG", "OK BYE"]);
        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn a_panicking_handler_gives_its_connection_slot_back() {
        let active = Arc::new(AtomicUsize::new(0));
        let slot = ConnectionSlot::take(&active);
        assert_eq!(active.load(Ordering::Relaxed), 1);
        let handler = std::thread::spawn(move || {
            let _slot = slot;
            panic!("handler bug");
        });
        assert!(handler.join().is_err());
        assert_eq!(active.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn addr_env_knob_parses_strictly() {
        // No env manipulation (tests run in parallel); exercise the
        // parser the knob delegates to.
        assert!("127.0.0.1:7070".parse::<SocketAddr>().is_ok());
        assert!("not-an-addr".parse::<SocketAddr>().is_err());
    }
}
