//! A minimal std-TCP line-protocol front end for [`DurableService`].
//!
//! One request per line, one response per line, plain text — no
//! heavyweight dependencies, trivially driven from `nc` or a test.
//! Every state-changing verb carries an **explicit
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
//! `HEALTH` answers `OK HEALTH <ladder state> transitions=<n>
//! records=<n>`. Once a failed journal write has stopped the WAL it adds
//! ` wal=stopped@<record>`, the index of the record that failed, and the
//! failure itself is reported once on stderr.
//!
//! Overload posture: at most 32 concurrent connections (excess get one
//! `BUSY` line and a close — the accept backlog is bounded), 10 s
//! per-connection read and write timeouts so a stalled client cannot pin
//! a handler thread, and an accept loop that outlives a failed `accept`
//! (out of file descriptors, say) by pausing and trying again, so the
//! held connections keep their daemon. Queue pressure is the
//! core's `AdmissionConfig` shed policy, reported through the typed
//! `SUBMIT` responses (`EVICTED`, `FLUSHED`, `REJECTED`). `etrain-svcd`
//! opens the core with `CoreConfig::default()`, whose admission is
//! unbounded, so the daemon's queue has no bound and it never sends
//! those three replies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Longest request line the server reads, its `\n` included. The
/// protocol's own clients send lines under 100 bytes. A longer line is
/// answered with one `ERR` and the connection is closed unexecuted, so a
/// client that never sends `\n` cannot grow the read buffer without bound.
const MAX_LINE_BYTES: usize = 4096;

/// Per-connection read and write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Concurrent connections served; connection `MAX_CONNECTIONS + 1` is
/// told `BUSY` and closed.
const MAX_CONNECTIONS: usize = 32;

/// The pause after a failed `accept`, doubled after each further failure
/// up to [`MAX_ACCEPT_PAUSE`] and reset by a successful one. A failure
/// such as `EMFILE` lasts until a connection closes; retrying at once
/// would spin, and a long pause would keep the next client waiting.
const MIN_ACCEPT_PAUSE: Duration = Duration::from_millis(5);

/// The longest pause between two `accept` attempts.
const MAX_ACCEPT_PAUSE: Duration = Duration::from_millis(500);

/// The accept loop: owns the listener and the shared service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Mutex<DurableService>>,
    active: Arc<AtomicUsize>,
}

impl Server {
    /// Binds the listener on `addr` (port 0 binds an ephemeral port,
    /// reported by [`Server::local_addr`]) and wraps the service for
    /// shared access.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: SocketAddr, service: DurableService) -> std::io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(Mutex::new(service)),
            active: Arc::new(AtomicUsize::new(0)),
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

    /// Accepts connections for as long as the process lives, spawning one
    /// handler thread per accepted connection (at most 32 at once). A
    /// failed `accept` is reported on stderr and retried after a pause;
    /// it never ends the loop.
    pub fn run(&self) -> ! {
        let mut pause = MIN_ACCEPT_PAUSE;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    pause = MIN_ACCEPT_PAUSE;
                    if self.active.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                        let _ = reject_busy(stream);
                        continue;
                    }
                    let slot = ConnectionSlot::take(&self.active);
                    let service = Arc::clone(&self.service);
                    std::thread::spawn(move || {
                        let _slot = slot;
                        let _ = handle_connection(&stream, &service);
                    });
                }
                Err(e) => {
                    eprintln!("etrain-svcd: accept failed, retrying in {pause:?}: {e}");
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(MAX_ACCEPT_PAUSE);
                }
            }
        }
    }
}

/// One of the [`MAX_CONNECTIONS`] slots, held by a handler thread and
/// given back when dropped — on unwind too, so a handler that panics
/// cannot leak its slot and leave every later client `BUSY`.
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

fn reject_busy(stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
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
fn handle_connection(stream: &TcpStream, service: &Mutex<DurableService>) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
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
/// response line (without the trailing newline). Public so tests can
/// drive the protocol without a socket.
pub fn execute_line(request: &str, service: &Mutex<DurableService>) -> String {
    match dispatch(request, service) {
        Ok(response) => response,
        Err(e) => format!("ERR {e}"),
    }
}

fn parse_f64(token: &str, what: &str) -> Result<f64, SvcError> {
    token
        .parse::<f64>()
        .map_err(|_| SvcError::BadRequest(format!("{what} {token:?} is not a number")))
}

fn parse_u64(token: &str, what: &str) -> Result<u64, SvcError> {
    token.parse::<u64>().map_err(|_| {
        SvcError::BadRequest(format!("{what} {token:?} is not a non-negative integer"))
    })
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
        return Err(SvcError::BadRequest("empty request".into()));
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
                return Err(SvcError::BadRequest(format!(
                    "deadline {deadline:?} must be positive"
                )));
            }
            let cost = match kind.to_ascii_lowercase().as_str() {
                "mail" => CostProfile::mail(deadline_s),
                "weibo" => CostProfile::weibo(deadline_s),
                "cloud" => CostProfile::cloud(deadline_s),
                other => {
                    return Err(SvcError::BadRequest(format!(
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
                    return Err(SvcError::BadRequest(format!(
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
                    return Err(SvcError::BadRequest(format!(
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
        _ => {
            return Err(SvcError::BadRequest(format!(
                "unrecognized request {request:?}"
            )))
        }
    };
    Ok(Request::Apply(command))
}

fn dispatch(request: &str, service: &Mutex<DurableService>) -> Result<String, SvcError> {
    Ok(match parse(request)? {
        Request::Ping => "OK PONG".into(),
        Request::Apply(command) => {
            // Release the lock before formatting: the other connections
            // wait on it, and each append already holds it for an fsync.
            let outcome = journaling(service, |svc| svc.apply(command))?;
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
            let stopped = guard
                .wal_stopped_at()
                .map_or_else(String::new, |at| format!(" wal=stopped@{at}"));
            format!(
                "OK HEALTH {} transitions={} records={}{stopped}",
                guard.state().health(),
                guard.state().transitions().len(),
                guard.records(),
            )
        }
        Request::Fprint => format!("OK FPRINT {:016x}", lock(service).fingerprint()),
        Request::Checkpoint => {
            let ckpt = journaling(service, DurableService::checkpoint)?;
            format!(
                "OK CHECKPOINT records={} fingerprint={:016x}",
                ckpt.records, ckpt.fingerprint
            )
        }
    })
}

/// Runs `call`, which may append to or sync the journal, under the lock,
/// and reports on stderr the failure that stops the journal, once.
fn journaling<T>(
    service: &Mutex<DurableService>,
    call: impl FnOnce(&mut DurableService) -> Result<T, SvcError>,
) -> Result<T, SvcError> {
    let mut guard = lock(service);
    let was_running = guard.wal_stopped_at().is_none();
    let result = call(&mut guard);
    if let (true, Some(at), Err(e)) = (was_running, guard.wal_stopped_at(), &result) {
        eprintln!(
            "etrain-svcd: journal stopped at record {at}: {e}; \
             journaling requests get ERR until a restart recovers it"
        );
    }
    result
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
    use crate::test_dir::{tmp_dir, TestDir};
    use crate::wal::WalConfig;
    use etrain_core::CoreConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// A service journaling into a fresh directory, which lives as long
    /// as the returned guard.
    fn service(tag: &str) -> (TestDir, DurableService) {
        let dir = tmp_dir(tag);
        let mut cfg = WalConfig::new(&dir);
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
        (dir, svc)
    }

    fn roundtrip(lines: &[&str], svc: &Mutex<DurableService>) -> Vec<String> {
        lines.iter().map(|l| execute_line(l, svc)).collect()
    }

    #[test]
    fn protocol_walkthrough_without_sockets() {
        let (_dir, svc) = service("proto");
        let svc = Mutex::new(svc);
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
        let (_dir, svc) = service("badreq");
        let svc = Mutex::new(svc);
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
            assert!(out.starts_with("ERR bad request: "), "{line} -> {out}");
            assert!(out.contains(needle), "{line} -> {out}");
        }
        // Unknown train: journaled core rejection, still an ERR line.
        let out = execute_line("HB 9 1.0", &svc);
        assert!(out.starts_with("ERR core rejected"), "{out}");
    }

    #[test]
    fn report_verb_renders_each_verdict() {
        let (_dir, svc) = service("report");
        let svc = Mutex::new(svc);
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
        let (_dir, svc) = service("cancel");
        let svc = Mutex::new(svc);
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
        let (_dir, svc) = service("ckpt");
        let svc = Mutex::new(svc);
        roundtrip(&["REGTRAIN QQ", "HB 0 0.0"], &svc);
        let fprint = execute_line("FPRINT", &svc);
        let fingerprint = fprint.strip_prefix("OK FPRINT ").unwrap();
        let expected = format!("OK CHECKPOINT records=2 fingerprint={fingerprint}");
        assert_eq!(execute_line("CHECKPOINT", &svc), expected);
    }

    /// A server on an ephemeral port, accepting on a thread the test
    /// leaves running, over a journal that lives as long as the guard.
    fn serve(tag: &str) -> (TestDir, SocketAddr) {
        let (dir, svc) = service(tag);
        let server = Server::bind(SocketAddr::from(([127, 0, 0, 1], 0)), svc).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        (dir, addr)
    }

    /// A connection to `addr` that waits at most 5 s for a reply.
    fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        BufReader::new(client)
    }

    fn next_line(client: &mut BufReader<TcpStream>) -> std::io::Result<String> {
        let mut line = String::new();
        client.read_line(&mut line)?;
        Ok(line)
    }

    #[test]
    fn tcp_server_serves_and_bounds_connections() {
        let (_dir, addr) = serve("tcp");
        // Every slot taken by a connection that has been served.
        let mut held = Vec::new();
        for i in 0..MAX_CONNECTIONS {
            let mut client = connect(addr);
            client.get_mut().write_all(b"PING\n").unwrap();
            assert_eq!(next_line(&mut client).unwrap(), "OK PONG\n", "client {i}");
            held.push(client);
        }

        // The next one is shed before it asks anything.
        assert_eq!(next_line(&mut connect(addr)).unwrap(), "BUSY\n");

        // Once one client quits, its slot serves a new one. The handler
        // gives the slot back just after `OK BYE` leaves, so until then a
        // new client may still be shed: it reads `BUSY`, or a reset when
        // its `PING` reached the closed socket first.
        let mut quitter = held.pop().unwrap();
        quitter.get_mut().write_all(b"QUIT\n").unwrap();
        assert_eq!(next_line(&mut quitter).unwrap(), "OK BYE\n");
        drop(quitter);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut client = connect(addr);
            let _ = client.get_mut().write_all(b"PING\n");
            match next_line(&mut client) {
                Ok(line) if line == "OK PONG\n" => break,
                Ok(line) => assert_eq!(line, "BUSY\n"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
            }
            assert!(std::time::Instant::now() < deadline, "the slot never freed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn long_session_replies_are_one_line_each_without_nagle_stalls() {
        let (_dir, addr) = serve("nagle");
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
        let (_dir, addr) = serve("longline");
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
    }

    #[test]
    fn a_line_of_exactly_the_limit_is_served() {
        let (_dir, addr) = serve("atlimit");
        let padded = format!("{:<width$}\n", "PING", width = MAX_LINE_BYTES - 1);
        assert_eq!(exchange(addr, &padded), ["OK PONG"]);
    }

    #[test]
    fn a_last_line_without_a_newline_is_still_served() {
        let (_dir, addr) = serve("eof");
        assert_eq!(exchange(addr, "PING\nPING"), ["OK PONG", "OK PONG"]);
    }

    #[test]
    fn quit_ends_the_session_before_later_lines() {
        let (_dir, addr) = serve("quit");
        assert_eq!(exchange(addr, "PING\nQUIT\nPING\n"), ["OK PONG", "OK BYE"]);
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
}
