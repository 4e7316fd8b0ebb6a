//! `baryon-cli fleet admin` — stage, commit, roll back, and inspect the
//! fleet's A/B configuration over the coordinator's `/v1/admin` surface.
//!
//! ```text
//! baryon-cli fleet admin status   [--addr HOST:PORT]
//! baryon-cli fleet admin stage    --file policy.json [--addr HOST:PORT]
//! baryon-cli fleet admin commit   [--addr HOST:PORT]
//! baryon-cli fleet admin rollback [--addr HOST:PORT]
//! ```
//!
//! Each command prints the coordinator's JSON answer on stdout. Exit
//! statuses mirror the server's typed error codes so scripts can branch
//! without parsing: 0 success, 2 usage, 5 the policy failed validation
//! (`invalid_json` / `invalid_config`), 6 the rollout was refused or
//! rolled back (`conflict` / `rollout_failed`), 7 the coordinator is
//! unreachable, 1 anything else.

use crate::args::Args;
use baryon_serve::client::{Client, ClientError};
use baryon_serve::ErrorCode;
use baryon_sim::json::Json;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

/// Where `baryon-cli fleet` binds by default.
const DEFAULT_ADDR: &str = "127.0.0.1:8678";

/// A committed rollout drains and canaries every shard in turn, so the
/// read timeout must cover the whole fleet roll, not one request.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(600);

fn admin_usage() -> ExitCode {
    eprintln!(
        "usage:\n  baryon-cli fleet admin status   [--addr HOST:PORT]\n  \
         baryon-cli fleet admin stage    --file policy.json [--addr HOST:PORT]\n  \
         baryon-cli fleet admin commit   [--addr HOST:PORT]\n  \
         baryon-cli fleet admin rollback [--addr HOST:PORT]\n\n\
         default --addr is {DEFAULT_ADDR}"
    );
    ExitCode::from(2)
}

/// Runs one admin action against the coordinator.
pub fn cmd_admin(action: Option<&str>, args: &Args) -> ExitCode {
    let addr_text = args.get("addr").unwrap_or_else(|| DEFAULT_ADDR.to_owned());
    let addr: SocketAddr = match addr_text.parse() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("bad --addr {addr_text}: {e}");
            return ExitCode::from(2);
        }
    };
    let client = Client::new(addr)
        .connect_timeout(Duration::from_secs(2))
        .read_timeout(COMMIT_TIMEOUT);
    let outcome = match action {
        Some("status") => client.admin_config(),
        Some("stage") => {
            let Ok(path) = args.try_require("file") else {
                eprintln!("stage needs --file policy.json");
                return ExitCode::from(2);
            };
            let body = match std::fs::read_to_string(&path) {
                Ok(body) => body,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            client.admin_stage(&body)
        }
        Some("commit") => client.admin_commit(),
        Some("rollback") => client.admin_rollback(),
        _ => return admin_usage(),
    };
    match outcome {
        Ok(resp) => {
            println!("{}", resp.body.trim_end());
            if action == Some("status") {
                render_staged_diff(&resp.body);
            }
            ExitCode::SUCCESS
        }
        Err(e) => report(&e),
    }
}

/// Renders the coordinator's `staged_diff` block (if any) as a
/// human-readable summary on stderr, keeping stdout pure JSON for
/// scripts. Silent when nothing is staged or the body is not the
/// expected shape — the JSON on stdout is always the source of truth.
fn render_staged_diff(body: &str) {
    let Ok(doc) = baryon_sim::json::parse(body) else {
        return;
    };
    let Some(diff) = doc.get("staged_diff") else {
        return;
    };
    let from = diff.get("from_generation").and_then(Json::as_u64);
    let to = diff.get("to_generation").and_then(Json::as_u64);
    let (Some(from), Some(to)) = (from, to) else {
        return;
    };
    let Some(Json::Obj(changes)) = diff.get("changes") else {
        return;
    };
    eprintln!(
        "staged: generation {from} -> {to} ({} change{})",
        changes.len(),
        if changes.len() == 1 { "" } else { "s" }
    );
    for (knob, change) in changes {
        let side = |name| change.get(name).and_then(Json::as_str).unwrap_or("?");
        eprintln!("  {knob}: {} -> {}", side("from"), side("to"));
    }
}

/// Maps a client failure onto the documented exit statuses.
fn report(e: &ClientError) -> ExitCode {
    eprintln!("fleet admin: {e}");
    let status = match e {
        ClientError::Connect(_) => 7,
        _ => match e.code() {
            Some(ErrorCode::InvalidJson | ErrorCode::InvalidConfig) => 5,
            Some(ErrorCode::Conflict | ErrorCode::RolloutFailed) => 6,
            _ => 1,
        },
    };
    ExitCode::from(status)
}
