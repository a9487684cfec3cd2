//! The spawned `suud` under test: one keep-alive connection, its stats
//! counters and its peak resident set.

use crate::system;
use std::path::Path;
use std::time::{Duration, Instant};
use suu_core::json::Json;
use suu_serve::client::{Client, Reply};
use suu_serve::spawn::ServerProc;

/// Flags passed on top of the spawn helper's defaults (later flags
/// win): two workers for a two-core host and a short admission queue.
/// A closed loop over one connection never has more than one request
/// queued, so neither setting changes what is measured there.
pub const DAEMON_FLAGS: [&str; 4] = ["--workers", "2", "--queue-depth", "64"];

const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// A running daemon over a cache directory. Killed (and waited for) on
/// drop; the cache directory stays.
pub struct Daemon {
    // Field order matters for drop: the connection closes before the
    // process is killed.
    client: Client,
    _proc: ServerProc,
    pid: Option<u32>,
    /// Spawn-to-first-healthz time, seconds.
    pub spawn_s: f64,
}

/// Cache and front-end counters from `/v1/stats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DaemonCounts {
    /// Cells served from the cache.
    pub hits: u64,
    /// Cells computed anew (cache misses).
    pub misses: u64,
    /// Cells resumed and grown.
    pub extends: u64,
    /// Requests refused with 429.
    pub rejected_429: u64,
}

impl DaemonCounts {
    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &DaemonCounts) -> DaemonCounts {
        DaemonCounts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            extends: self.extends - before.extends,
            rejected_429: self.rejected_429 - before.rejected_429,
        }
    }
}

impl Daemon {
    /// Spawn `suud` (a sibling of this binary) over `cache_dir` and wait
    /// for its first healthz reply.
    pub fn spawn(cache_dir: &Path) -> Result<Daemon, String> {
        let t0 = Instant::now();
        let before = system::child_pids("suud");
        let proc = ServerProc::spawn_with_cache("suud", cache_dir, &DAEMON_FLAGS)?;
        let mut client = proc
            .client(READ_TIMEOUT)
            .map_err(|e| format!("connect to suud at {}: {e}", proc.addr()))?;
        let health = client
            .request("GET", "/v1/healthz", None)
            .map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        let spawn_s = t0.elapsed().as_secs_f64();
        let pid = system::child_pids("suud")
            .into_iter()
            .rfind(|p| !before.contains(p));
        Ok(Daemon {
            client,
            _proc: proc,
            pid,
            spawn_s,
        })
    }

    /// `POST /v1/race` with `body`.
    pub fn race(&mut self, body: &[u8]) -> Result<Reply, String> {
        self.client
            .request("POST", "/v1/race", Some(body))
            .map_err(|e| format!("race request: {e}"))
    }

    /// The `/v1/stats` counters.
    pub fn counts(&mut self) -> Result<DaemonCounts, String> {
        let reply = self
            .client
            .request("GET", "/v1/stats", None)
            .map_err(|e| format!("stats request: {e}"))?;
        let doc = suu_core::json::parse(&String::from_utf8_lossy(&reply.body))
            .map_err(|e| format!("stats body: {e}"))?;
        let field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats lack '{k}'"))
        };
        Ok(DaemonCounts {
            hits: field("hits")?,
            misses: field("misses")?,
            extends: field("extends")?,
            rejected_429: field("rejected_429")?,
        })
    }

    /// The daemon's peak resident set so far, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.pid
            .and_then(system::peak_rss_mb)
            .ok_or_else(|| "cannot read the daemon's VmHWM".to_string())
    }
}
