//! `etrain-svcd` — the durable eTrain daemon.
//!
//! Recovers state from the `ETRAIN_WAL` journal directory (creating it
//! on first boot), prints a `RECOVERED` summary line, binds the
//! `ETRAIN_SVC_ADDR` line-protocol listener (127.0.0.1 on an ephemeral
//! port by default), prints `READY <addr>`, and serves until killed.
//!
//! Exit codes follow the repo's binary conventions: `2` for invalid
//! environment knobs (fail fast, never guess), `1` for recovery and bind
//! failures. A failed journal write does not end the process: the
//! journal stops, which one stderr line reports and `HEALTH` shows as a
//! trailing `wal=stopped@<record>`; journaling requests get `ERR` while
//! reads are still served, and a restart recovers.

use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;

use etrain_core::CoreConfig;
use etrain_svc::{DurableService, Server, SvcHealthConfig, WalConfig};

/// Reads the environment knob `name`: `None` when it is unset, blank or
/// not Unicode, else `parse` of its trimmed value. A value `parse`
/// refuses ends the process with exit code 2.
// The one environment read of the crate; its library reads none.
#[allow(clippy::disallowed_methods)]
fn knob<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let value = raw.trim();
    if value.is_empty() {
        return None;
    }
    match parse(value) {
        Ok(parsed) => Some(parsed),
        Err(reason) => {
            eprintln!("etrain-svcd: {reason}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let wal_dir = knob("ETRAIN_WAL", |value| {
        let path = PathBuf::from(value);
        if path.exists() && !path.is_dir() {
            Err(format!(
                "invalid ETRAIN_WAL {value:?} (exists but is not a directory)"
            ))
        } else {
            Ok(path)
        }
    })
    .unwrap_or_else(|| PathBuf::from("etrain-wal"));
    let addr = knob("ETRAIN_SVC_ADDR", |value| {
        value
            .parse()
            .map_err(|_| format!("invalid ETRAIN_SVC_ADDR {value:?} (expected host:port)"))
    })
    .unwrap_or(SocketAddr::from(([127, 0, 0, 1], 0)));

    let (service, recovery) = match DurableService::open(
        WalConfig::new(wal_dir),
        CoreConfig::default(),
        SvcHealthConfig::default(),
    ) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("etrain-svcd: recovery failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "RECOVERED records={} replayed={} replay_errors={} truncated_bytes={} \
         set_aside={} checkpoint_verified={} fingerprint={:016x}",
        recovery.wal.records,
        recovery.replayed,
        recovery.replay_errors,
        recovery.wal.truncated_bytes,
        recovery.wal.segments_set_aside,
        recovery
            .checkpoint_verified
            .map_or_else(|| "none".to_string(), |n| n.to_string()),
        recovery.fingerprint,
    );

    let server = match Server::bind(addr, service) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("etrain-svcd: bind {addr} failed: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(bound) => println!("READY {bound}"),
        Err(e) => {
            eprintln!("etrain-svcd: local_addr failed: {e}");
            std::process::exit(1);
        }
    }
    let _ = std::io::stdout().flush();

    server.run()
}
