//! `etrain-svcd` — the durable eTrain daemon.
//!
//! Recovers state from the `ETRAIN_WAL` journal directory (creating it
//! on first boot), prints a `RECOVERED` summary line, binds the
//! `ETRAIN_SVC_ADDR` line-protocol listener (127.0.0.1 on an ephemeral
//! port by default), prints `READY <addr>`, and serves until killed.
//!
//! Exit codes follow the repo's binary conventions: `2` for invalid
//! environment knobs (fail fast, never guess), `42` when the armed
//! `ETRAIN_WAL_FAULT` hook fires mid-append (the process tests'
//! stand-in for a SIGKILL during `write`), `1` for recovery failures.

use std::io::Write;

use etrain_core::CoreConfig;
use etrain_svc::{
    try_addr_from_env, try_wal_dir_from_env, DurableService, Server, ServerConfig, SvcHealthConfig,
    WalConfig, WalFault,
};

fn main() {
    let wal_dir = match try_wal_dir_from_env() {
        Ok(Some(dir)) => dir,
        Ok(None) => std::path::PathBuf::from("etrain-wal"),
        Err(reason) => {
            eprintln!("etrain-svcd: {reason}");
            std::process::exit(2);
        }
    };
    let addr = match try_addr_from_env() {
        Ok(Some(addr)) => addr,
        Ok(None) => match "127.0.0.1:0".parse() {
            Ok(addr) => addr,
            Err(_) => unreachable!("literal address parses"),
        },
        Err(reason) => {
            eprintln!("etrain-svcd: {reason}");
            std::process::exit(2);
        }
    };
    let fault = match WalFault::try_from_env() {
        Ok(fault) => fault,
        Err(reason) => {
            eprintln!("etrain-svcd: {reason}");
            std::process::exit(2);
        }
    };

    let mut wal_cfg = WalConfig::new(wal_dir);
    wal_cfg.fault = fault;

    let (service, recovery) =
        match DurableService::open(wal_cfg, CoreConfig::default(), SvcHealthConfig::default()) {
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

    let server = match Server::bind(
        ServerConfig {
            addr,
            ..ServerConfig::default()
        },
        service,
    ) {
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

    if let Err(e) = server.run() {
        eprintln!("etrain-svcd: accept loop failed: {e}");
        std::process::exit(1);
    }
}
