//! The three workloads: `serve-hit`, `cold-paper`, `sweep-frontier`.
//!
//! Each is a closed loop over one keep-alive connection: the generator
//! sends the next operation only after the previous reply arrived, as
//! the daemon's real callers (`suu-sweep`, scripts) do. With `trace`
//! off a run measures end-to-end metrics for `seconds`; with `trace` on
//! it replays a fixed number of the same generated operations three
//! times — over HTTP, through the in-process `Service::handle`, and
//! through the traced replica — so every count repeats exactly.

use crate::daemon::Daemon;
use crate::gen;
use crate::layers::{self, LayerInputs, SweepLayer};
use crate::replica::Replica;
use crate::report::Outcome;
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use suu_bench::sweep::{run_sweep, SweepSpec};
use suu_core::json::Json;
use suu_serve::http::Request;
use suu_serve::Service;
use suu_sim::PairedMargin;

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["serve-hit", "cold-paper", "sweep-frontier"];

/// `serve-hit` set-ups per run whose median is `setup_s`.
const PREFILL_SETUP_REPS: usize = 3;
/// Spawns per `cold-paper` / `sweep-frontier` run whose median is
/// `setup_s` (a spawn alone is a few milliseconds, so it takes more).
const SPAWN_SETUP_REPS: usize = 5;
/// Timed passes over the hot set in a traced `serve-hit` run.
const TRACE_HIT_PASSES: u64 = 2;
/// Timed requests in one `cold-paper` pass: 35 rotations.
const COLD_PASS_REQUESTS: u64 = 105;
/// Fewest timed passes in an untraced `cold-paper` run, however long a
/// pass takes. At 20 seconds this fixes the count: with the count left
/// to the clock, a fast host also got one more repeat per rotation, and
/// the two effects together split the runs into two groups.
const COLD_MIN_PASSES: usize = 4;
/// Fewest sweeps of each master seed in an untraced `sweep-frontier`
/// run: the second reproduces the first's artifact.
const SWEEP_MIN_REPEATS: usize = 2;

/// One run's settings.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time for an untraced run, seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Private working directory for caches.
    pub dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_path: PathBuf,
    /// Where an untraced run writes every timed repeat of every
    /// operation.
    pub samples_path: PathBuf,
}

impl Ctx {
    /// A fresh, empty cache directory named `tag`.
    fn cache_dir(&self, tag: &str) -> PathBuf {
        let dir = self.dir.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Run workload `name`.
pub fn run(name: &str, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    match name {
        "serve-hit" => serve_hit(ctx, out),
        "cold-paper" => cold_paper(ctx, out),
        "sweep-frontier" => sweep_frontier(ctx, out),
        other => Err(format!("unknown workload {other:?} (known: {WORKLOADS:?})")),
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn list(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().copied().map(Json::Num).collect())
}

fn lists<K>(m: &BTreeMap<K, Vec<f64>>) -> Json {
    Json::Arr(m.values().map(|v| list(v)).collect())
}

/// The end-to-end metrics every untraced run reports.
///
/// An untraced run repeats one fixed set of operations — a pass — until
/// its measuring time is used, so every operation is measured several
/// times, at different moments of the run. An operation's latency is
/// the fastest of its repeats: on a shared host the same work takes up
/// to 1.6 times longer while other tenants load the cores, and the
/// fastest repeat is the one such load disturbed least. `p50_ms` and
/// `p90_ms` are then order statistics over the operations, so they
/// describe how cost varies between inputs, not how the host's load
/// varied during the run.
#[derive(Default)]
struct EndToEnd {
    /// Timed repeats of each operation, ms, keyed by (pass kind,
    /// operation index); one pass kind except in `sweep-frontier`,
    /// whose master seeds each make their own set of race calls.
    ops: BTreeMap<(usize, usize), Vec<f64>>,
    /// Time of each timed pass outside its operations (the generator's
    /// own work, the sweep's orchestration) by pass kind, seconds.
    between_s: BTreeMap<usize, Vec<f64>>,
    setups_s: Vec<f64>,
    rss_mb: Vec<f64>,
}

impl EndToEnd {
    /// Record one timed pass of kind `kind`: its operations' latencies
    /// in operation order, and its wall time.
    fn pass(&mut self, kind: usize, latencies_ms: &[f64], wall_s: f64) {
        for (i, &ms) in latencies_ms.iter().enumerate() {
            self.ops.entry((kind, i)).or_default().push(ms);
        }
        let between_s = wall_s - latencies_ms.iter().sum::<f64>() / 1e3;
        self.between_s.entry(kind).or_default().push(between_s);
    }

    /// Each operation's fastest repeat, ms, in operation order.
    fn best_ms(&self) -> Vec<f64> {
        self.ops.values().filter_map(|r| stats::min(r)).collect()
    }

    fn report(&self, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
        let samples = Json::obj()
            .field("ops_ms", lists(&self.ops))
            .field("between_s", lists(&self.between_s));
        std::fs::write(&ctx.samples_path, samples.to_compact())
            .map_err(|e| format!("write {}: {e}", ctx.samples_path.display()))?;
        out.note("samples", ctx.samples_path.display().to_string());
        let best = self.best_ms();
        let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no samples for {what}"));
        let n = best.len();
        out.metric("p50_ms", need(stats::median(&best), "p50_ms")?, "ms", n);
        out.metric(
            "p90_ms",
            need(stats::percentile(&best, 0.9), "p90_ms")?,
            "ms",
            n,
        );
        let busy_s = best.iter().sum::<f64>() / 1e3;
        out.metric("rate_per_s", n as f64 / busy_s, "1/s", n);
        out.metric(
            "setup_s",
            need(stats::median(&self.setups_s), "setup_s")?,
            "s",
            self.setups_s.len(),
        );
        // A pass of each kind at its operations' fastest repeats plus its
        // fastest time between them, averaged over the kinds.
        let walls: Vec<f64> = self
            .between_s
            .iter()
            .filter_map(|(&kind, between)| {
                let ops_s: f64 = self
                    .ops
                    .range((kind, 0)..(kind + 1, 0))
                    .filter_map(|(_, r)| stats::min(r))
                    .sum::<f64>()
                    / 1e3;
                Some(ops_s + stats::min(between)?)
            })
            .collect();
        out.metric(
            "wall_s",
            need(stats::mean(&walls), "wall_s")?,
            "s",
            self.between_s.values().map(Vec::len).sum(),
        );
        out.metric(
            "peak_rss_mb",
            need(stats::median(&self.rss_mb), "peak_rss_mb")?,
            "MiB",
            self.rss_mb.len(),
        );
        let repeats: Vec<f64> = self.ops.values().map(|r| r.len() as f64).collect();
        out.note("repeats_per_op_min", stats::min(&repeats).unwrap_or(0.0));
        out.note("p90_samples_beyond", stats::beyond(&best, 0.9));
        let deciles = (1..10)
            .filter_map(|d| stats::percentile(&best, f64::from(d) / 10.0))
            .map(Json::Num)
            .collect();
        out.note("latency_deciles_ms", Json::Arr(deciles));
        out.note("setups_s", list(&self.setups_s));
        Ok(())
    }
}

/// Spawn extra daemons until `e2e` holds `SPAWN_SETUP_REPS` set-ups.
fn pad_setups(ctx: &Ctx, e2e: &mut EndToEnd) -> Result<(), String> {
    while e2e.setups_s.len() < SPAWN_SETUP_REPS {
        e2e.setups_s
            .push(Daemon::spawn(&ctx.cache_dir("setup"))?.spawn_s);
    }
    Ok(())
}

fn in_process(service: &Service, body: &str) -> (u16, Option<String>, Vec<u8>) {
    let response = service.handle(&Request {
        method: "POST".to_string(),
        path: "/v1/race".to_string(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    });
    let cache = response
        .headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("x-suu-cache"))
        .map(|(_, v)| v.clone());
    (response.status, cache, response.body)
}

fn index_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("index.json")).map_or(0, |m| m.len())
}

// ---------------------------------------------------------------- serve-hit

/// Check one hit reply against the body captured when it was primed.
fn check_hit(
    out: &mut Outcome,
    what: &str,
    status: u16,
    cache: Option<&str>,
    body: &[u8],
    primed: &str,
) {
    if status != 200 {
        out.fail(format!("{what}: status {status}"));
    } else if cache != Some("hit") {
        out.fail(format!("{what}: X-Suu-Cache {cache:?}, want hit"));
    } else if body != primed.as_bytes() {
        out.fail(format!("{what}: body differs from the primed body"));
    }
}

/// Spawn a daemon on a fresh cache and fill it through `POST /v1/race`:
/// 3840 filler cells, then the 256 hot cells, whose bodies it returns.
fn prefill(
    ctx: &Ctx,
    tag: &str,
    out: &mut Outcome,
) -> Result<(Daemon, PathBuf, Vec<String>, f64), String> {
    let dir = ctx.cache_dir(tag);
    let t0 = Instant::now();
    let mut daemon = Daemon::spawn(&dir)?;
    for (i, body) in gen::filler_requests(ctx.seed).iter().enumerate() {
        out.attempted += 1;
        let reply = daemon.race(body.as_bytes())?;
        if reply.status != 200 || reply.header("x-suu-cache") != Some("miss") {
            out.fail(format!(
                "filler {i}: status {} cache {:?}",
                reply.status,
                reply.header("x-suu-cache")
            ));
        }
    }
    let mut primed = Vec::new();
    for (i, body) in gen::hot_requests(ctx.seed).iter().enumerate() {
        out.attempted += 1;
        let reply = daemon.race(body.as_bytes())?;
        if reply.status != 200 || reply.header("x-suu-cache") != Some("miss") {
            out.fail(format!(
                "prime {i}: status {} cache {:?}",
                reply.status,
                reply.header("x-suu-cache")
            ));
        }
        primed.push(String::from_utf8_lossy(&reply.body).into_owned());
    }
    Ok((daemon, dir, primed, t0.elapsed().as_secs_f64()))
}

/// One pass over the hot set in pass order; latencies, ms, indexed by
/// hot request.
fn hit_pass(
    daemon: &mut Daemon,
    ctx: &Ctx,
    pass: u64,
    hot: &[String],
    primed: &[String],
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let mut lat = vec![0.0; hot.len()];
    for i in gen::pass_order(ctx.seed, pass, hot.len()) {
        out.attempted += 1;
        let t0 = Instant::now();
        let reply = daemon.race(hot[i].as_bytes())?;
        lat[i] = ms_since(t0);
        let what = format!("hit pass {pass} request {i}");
        check_hit(
            out,
            &what,
            reply.status,
            reply.header("x-suu-cache"),
            &reply.body,
            &primed[i],
        );
    }
    Ok(lat)
}

fn serve_hit(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let hot = gen::hot_requests(ctx.seed);
    out.note(
        "cells_in_cache",
        (gen::FILLER_SCENARIOS + gen::HOT_SCENARIOS) * 4,
    );
    if !ctx.trace {
        // Each set-up's daemon gets an equal share of the timed passes,
        // so every hot request's repeats spread over the whole run.
        let mut e2e = EndToEnd::default();
        let mut first: Option<Vec<String>> = None;
        let mut pass = 1;
        for r in 0..PREFILL_SETUP_REPS {
            let (mut daemon, dir, primed, setup_s) = prefill(ctx, &format!("hit-{r}"), out)?;
            e2e.setups_s.push(setup_s);
            if r == 0 {
                out.note("index_bytes", index_bytes(&dir));
            }
            // Warm-up pass, checked but not timed.
            hit_pass(&mut daemon, ctx, 0, &hot, &primed, out)?;
            let share = ctx.seconds / PREFILL_SETUP_REPS as f64;
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < share {
                let t0 = Instant::now();
                let lat = hit_pass(&mut daemon, ctx, pass, &hot, &primed, out)?;
                e2e.pass(0, &lat, t0.elapsed().as_secs_f64());
                pass += 1;
            }
            e2e.rss_mb.push(daemon.peak_rss_mb()?);
            drop(daemon);
            let _ = std::fs::remove_dir_all(&dir);
            match &first {
                None => first = Some(primed),
                Some(f) if *f != primed => {
                    out.breach("primed bodies differ between two set-ups of the same seed".into());
                }
                Some(_) => {}
            }
        }
        return e2e.report(ctx, out);
    }

    let (mut daemon, dir, primed, _) = prefill(ctx, "hit-0", out)?;
    out.note("index_bytes", index_bytes(&dir));
    hit_pass(&mut daemon, ctx, 0, &hot, &primed, out)?;
    // Traced: the same passes over HTTP, in process, and in the replica.
    let before = daemon.counts()?;
    let mut http_lat = Vec::new();
    for pass in 1..=TRACE_HIT_PASSES {
        http_lat.extend(hit_pass(&mut daemon, ctx, pass, &hot, &primed, out)?);
    }
    let counts = daemon.counts()?.since(&before);
    let index = index_bytes(&dir);
    drop(daemon);

    let service = Service::new(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let mut handle_lat = Vec::new();
    for pass in 1..=TRACE_HIT_PASSES {
        for i in gen::pass_order(ctx.seed, pass, hot.len()) {
            out.attempted += 1;
            let t0 = Instant::now();
            let (status, cache, body) = in_process(&service, &hot[i]);
            handle_lat.push(ms_since(t0));
            let what = format!("in-process pass {pass} request {i}");
            check_hit(out, &what, status, cache.as_deref(), &body, &primed[i]);
        }
    }
    drop(service);

    let replica = Replica::open(&dir)?;
    let mut op = 0;
    for pass in 1..=TRACE_HIT_PASSES {
        for i in gen::pass_order(ctx.seed, pass, hot.len()) {
            out.attempted += 1;
            let (body, counts) = replica.race(op, &hot[i])?;
            op += 1;
            let what = format!("replica pass {pass} request {i}");
            check_hit(
                out,
                &what,
                200,
                Some(counts.label()),
                body.as_bytes(),
                &primed[i],
            );
        }
    }
    let inputs = LayerInputs {
        replica: &replica,
        http_ms: &http_lat,
        handle_ms: &handle_lat,
        daemon: counts,
        index_bytes: index,
        sweep: SweepLayer::default(),
    };
    finish_trace(ctx, out, &inputs)
}

fn finish_trace(ctx: &Ctx, out: &mut Outcome, inputs: &LayerInputs<'_>) -> Result<(), String> {
    layers::report(inputs, out);
    inputs
        .replica
        .tracer
        .write_jsonl(&ctx.spans_path)
        .map_err(|e| format!("write {}: {e}", ctx.spans_path.display()))?;
    out.note("spans", ctx.spans_path.display().to_string());
    Ok(())
}

// --------------------------------------------------------------- cold-paper

/// Check one cold reply: 200, all cells computed now (`miss`), every
/// cell with a finite mean and no `error` / `skipped` entry.
fn check_cold(
    out: &mut Outcome,
    what: &str,
    status: u16,
    cache: Option<&str>,
    body: &[u8],
    policies: usize,
) {
    if status != 200 {
        return out.fail(format!("{what}: status {status}"));
    }
    if cache != Some("miss") {
        return out.fail(format!("{what}: X-Suu-Cache {cache:?}, want miss"));
    }
    let doc = match suu_core::json::parse(&String::from_utf8_lossy(body)) {
        Ok(doc) => doc,
        Err(e) => return out.fail(format!("{what}: unparsable body: {e}")),
    };
    let cells = doc.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    if cells.len() != policies {
        return out.fail(format!("{what}: {} cells, want {policies}", cells.len()));
    }
    for cell in cells {
        let bad = cell.get("error").is_some()
            || cell.get("skipped").is_some()
            || !cell
                .get("mean_makespan")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite);
        if bad {
            return out.fail(format!("{what}: bad cell {}", cell.to_compact()));
        }
    }
}

fn cold_policies(body: &str) -> usize {
    suu_core::json::parse(body)
        .ok()
        .and_then(|d| {
            d.get("policies")
                .and_then(Json::as_array)
                .map(<[Json]>::len)
        })
        .unwrap_or(0)
}

/// Send cold request `i`; latency in ms and the body.
fn cold_http(
    daemon: &mut Daemon,
    ctx: &Ctx,
    i: u64,
    out: &mut Outcome,
) -> Result<(f64, Vec<u8>), String> {
    let body = gen::cold_request(ctx.seed, i);
    out.attempted += 1;
    let t0 = Instant::now();
    let reply = daemon.race(body.as_bytes())?;
    let lat = ms_since(t0);
    let what = format!("cold request {i}");
    check_cold(
        out,
        &what,
        reply.status,
        reply.header("x-suu-cache"),
        &reply.body,
        cold_policies(&body),
    );
    Ok((lat, reply.body))
}

/// Requests `0..3` warm the daemon up (one rotation); timed ones follow.
const COLD_WARMUP: u64 = gen::COLD_FAMILIES as u64;

/// Timed requests of one `cold-paper` pass.
const COLD_TIMED: std::ops::Range<u64> = COLD_WARMUP..COLD_WARMUP + COLD_PASS_REQUESTS;

/// Spawn a daemon over the fresh, empty cache `tag` and send it the
/// untimed warm-up rotation.
fn cold_daemon(ctx: &Ctx, tag: &str, out: &mut Outcome) -> Result<Daemon, String> {
    let mut daemon = Daemon::spawn(&ctx.cache_dir(tag))?;
    for i in 0..COLD_WARMUP {
        cold_http(&mut daemon, ctx, i, out)?;
    }
    Ok(daemon)
}

/// Send a pass's timed requests: each one's latency, ms, and body.
fn cold_timed(
    daemon: &mut Daemon,
    ctx: &Ctx,
    out: &mut Outcome,
) -> Result<(Vec<f64>, Vec<Vec<u8>>), String> {
    let mut lat = Vec::new();
    let mut bodies = Vec::new();
    for i in COLD_TIMED {
        let (ms, body) = cold_http(daemon, ctx, i, out)?;
        lat.push(ms);
        bodies.push(body);
    }
    Ok((lat, bodies))
}

fn cold_paper(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    if !ctx.trace {
        // Every pass replays the same never-seen requests into a fresh
        // daemon over an empty cache, so each is a miss every time. An
        // operation is one rotation — a uniform, a chains and a forest
        // request — so its latency covers every family's construction:
        // over single requests the median sat between the cheap
        // (chains, most forests) and the dear (uniform) ones, moved by
        // 18 % when one forest crossed over, and no change to the
        // uniform family's policies could move it.
        let mut e2e = EndToEnd::default();
        let mut first: Option<Vec<Vec<u8>>> = None;
        let start = Instant::now();
        let mut pass = 0;
        while pass < COLD_MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
            let tag = format!("cold-{pass}");
            let mut daemon = cold_daemon(ctx, &tag, out)?;
            let t0 = Instant::now();
            let (lat, bodies) = cold_timed(&mut daemon, ctx, out)?;
            let rotations: Vec<f64> = lat
                .chunks(gen::COLD_FAMILIES)
                .map(|r| r.iter().sum())
                .collect();
            e2e.pass(0, &rotations, t0.elapsed().as_secs_f64());
            e2e.setups_s.push(daemon.spawn_s);
            e2e.rss_mb.push(daemon.peak_rss_mb()?);
            drop(daemon);
            let _ = std::fs::remove_dir_all(ctx.dir.join(tag));
            match &first {
                None => first = Some(bodies),
                Some(f) if *f != bodies => {
                    out.breach(format!("pass {pass}: bodies differ from the first pass's"));
                }
                Some(_) => {}
            }
            pass += 1;
        }
        pad_setups(ctx, &mut e2e)?;
        return e2e.report(ctx, out);
    }

    let mut daemon = cold_daemon(ctx, "cold-http", out)?;
    let before = daemon.counts()?;
    let (http_lat, bodies) = cold_timed(&mut daemon, ctx, out)?;
    let counts = daemon.counts()?.since(&before);
    let index = index_bytes(&ctx.dir.join("cold-http"));
    drop(daemon);

    let handle_dir = ctx.cache_dir("cold-handle");
    let service = Service::new(&handle_dir).map_err(|e| format!("open cache: {e}"))?;
    for i in 0..COLD_WARMUP {
        in_process(&service, &gen::cold_request(ctx.seed, i));
    }
    let mut handle_lat = Vec::new();
    for (k, i) in COLD_TIMED.enumerate() {
        let body = gen::cold_request(ctx.seed, i);
        out.attempted += 1;
        let t0 = Instant::now();
        let (status, cache, reply) = in_process(&service, &body);
        handle_lat.push(ms_since(t0));
        let what = format!("in-process cold request {i}");
        check_cold(
            out,
            &what,
            status,
            cache.as_deref(),
            &reply,
            cold_policies(&body),
        );
        if reply != bodies[k] {
            out.fail(format!("{what}: body differs from the daemon's"));
        }
    }
    drop(service);

    // The replica's cache gets the same warm-up through the service, so
    // its timed requests meet the same cache state the daemon's did.
    let replica_dir = ctx.cache_dir("cold-replica");
    let warm = Service::new(&replica_dir).map_err(|e| format!("open cache: {e}"))?;
    for i in 0..COLD_WARMUP {
        in_process(&warm, &gen::cold_request(ctx.seed, i));
    }
    drop(warm);
    let replica = Replica::open(&replica_dir)?;
    for (k, i) in COLD_TIMED.enumerate() {
        let body = gen::cold_request(ctx.seed, i);
        out.attempted += 1;
        let (reply, counts) = replica.race(k as u64, &body)?;
        let what = format!("replica cold request {i}");
        check_cold(
            out,
            &what,
            200,
            Some(counts.label()),
            reply.as_bytes(),
            cold_policies(&body),
        );
        if reply.as_bytes() != bodies[k].as_slice() {
            out.fail(format!("{what}: document differs from the daemon's body"));
        }
    }
    let inputs = LayerInputs {
        replica: &replica,
        http_ms: &http_lat,
        handle_ms: &handle_lat,
        daemon: counts,
        index_bytes: index,
        sweep: SweepLayer::default(),
    };
    finish_trace(ctx, out, &inputs)
}

// ----------------------------------------------------------- sweep-frontier

/// One sweep from an empty cache to its artifact.
struct SweepRun {
    artifact: String,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    bodies: Vec<String>,
    rounds: u64,
}

/// Run the sweep with `race` answering every call.
fn sweep_with(
    spec: &SweepSpec,
    mut race: impl FnMut(&str) -> Result<String, String>,
) -> Result<SweepRun, String> {
    let mut latencies_ms = Vec::new();
    let mut bodies = Vec::new();
    let mut rounds = 0;
    let start = Instant::now();
    let mut eval = |request: &Json| -> Result<Json, String> {
        let body = request.to_compact();
        let t0 = Instant::now();
        let reply = race(&body)?;
        latencies_ms.push(ms_since(t0));
        let doc = suu_core::json::parse(&reply).map_err(|e| format!("race reply: {e}"))?;
        bodies.push(reply);
        Ok(doc)
    };
    let artifact = run_sweep(spec, &mut eval, &mut |msg: String| {
        if msg.contains(" done: ") {
            rounds += 1;
        }
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(SweepRun {
        artifact: artifact.to_pretty(),
        wall_s,
        latencies_ms,
        bodies,
        rounds,
    })
}

/// Sweep through a daemon over HTTP.
fn http_sweep(
    daemon: &mut Daemon,
    spec: &SweepSpec,
    out: &mut Outcome,
) -> Result<SweepRun, String> {
    let mut attempted = 0;
    let run = sweep_with(spec, |body| {
        attempted += 1;
        let reply = daemon.race(body.as_bytes())?;
        if reply.status != 200 {
            return Err(format!(
                "race answered {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
        }
        Ok(String::from_utf8_lossy(&reply.body).into_owned())
    });
    out.attempted += attempted;
    if run.is_err() {
        out.failed += 1;
    }
    run
}

/// Re-derive every point's winner (argmin mean) and resolution (the
/// winner's margin against every rival clears zero) from its per-policy
/// statistics, and check the artifact says the same.
fn check_artifact(artifact: &str, out: &mut Outcome) {
    let doc = match suu_core::json::parse(artifact) {
        Ok(doc) => doc,
        Err(e) => return out.breach(format!("artifact unparsable: {e}")),
    };
    if doc.get("schema").and_then(Json::as_str) != Some(suu_core::schemas::RESULTS_SWEEP_V1) {
        return out.breach("artifact has the wrong schema".into());
    }
    let cells = doc.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    if cells.is_empty() {
        return out.breach("artifact has no cells".into());
    }
    for cell in cells {
        let point = cell.get("point").and_then(Json::as_str).unwrap_or("?");
        let stats: Vec<(&str, f64, f64)> = cell
            .get("policies")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| {
                Some((
                    p.get("policy")?.as_str()?,
                    p.get("mean_makespan")?.as_f64()?,
                    p.get("ci95")?.as_f64()?,
                ))
            })
            .collect();
        let Some(w) = (0..stats.len()).min_by(|&a, &b| stats[a].1.total_cmp(&stats[b].1)) else {
            out.breach(format!("{point}: no policy statistics"));
            continue;
        };
        if cell.get("winner").and_then(Json::as_str) != Some(stats[w].0) {
            out.breach(format!("{point}: winner is not the argmin mean"));
        }
        let margins: Vec<PairedMargin> = (0..stats.len())
            .filter(|&i| i != w)
            .map(|i| PairedMargin::from_marginals(stats[i].1, stats[i].2, stats[w].1, stats[w].2))
            .collect();
        let resolved = margins.iter().all(PairedMargin::resolved);
        if cell.get("resolved").and_then(Json::as_bool) != Some(resolved) {
            out.breach(format!("{point}: 'resolved' disagrees with the margins"));
        }
        if let Some(closest) = margins.iter().min_by(|a, b| a.delta.total_cmp(&b.delta)) {
            let mean = cell.get("margin_mean").and_then(Json::as_f64);
            let ci = cell.get("margin_ci95").and_then(Json::as_f64);
            if mean.map(f64::to_bits) != Some(closest.delta.to_bits())
                || ci.map(f64::to_bits) != Some(closest.ci95.to_bits())
            {
                out.breach(format!("{point}: margin does not re-derive"));
            }
        }
    }
}

fn artifact_trials(artifact: &str) -> u64 {
    suu_core::json::parse(artifact)
        .ok()
        .and_then(|d| d.get("totals")?.get("trials_adaptive")?.as_u64())
        .unwrap_or(0)
}

fn sweep_frontier(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let specs = (0..gen::SWEEP_SUBSEEDS)
        .map(|k| gen::sweep_spec(ctx.seed, k))
        .collect::<Result<Vec<_>, _>>()?;
    out.note("sweep_points", specs[0].points.len());

    if !ctx.trace {
        let mut e2e = EndToEnd::default();
        // Sweeps alternate between the master seeds until every one is
        // swept `SWEEP_MIN_REPEATS` times and the run's time is used; each
        // repeat must reproduce the seed's first artifact byte for byte.
        let mut artifacts: Vec<Option<String>> = vec![None; specs.len()];
        let start = Instant::now();
        let mut rep = 0usize;
        while rep < SWEEP_MIN_REPEATS * specs.len() || start.elapsed().as_secs_f64() < ctx.seconds {
            let k = rep % specs.len();
            let dir = ctx.cache_dir(&format!("sweep-{rep}"));
            let mut daemon = Daemon::spawn(&dir)?;
            e2e.setups_s.push(daemon.spawn_s);
            let run = http_sweep(&mut daemon, &specs[k], out)?;
            e2e.rss_mb.push(daemon.peak_rss_mb()?);
            drop(daemon);
            let _ = std::fs::remove_dir_all(&dir);
            e2e.pass(k, &run.latencies_ms, run.wall_s);
            match &artifacts[k] {
                None => {
                    check_artifact(&run.artifact, out);
                    artifacts[k] = Some(run.artifact);
                }
                Some(a) if *a != run.artifact => {
                    out.breach(format!(
                        "sweep {rep}: artifact of master seed {k} not reproduced"
                    ));
                }
                Some(_) => {}
            }
            rep += 1;
        }
        pad_setups(ctx, &mut e2e)?;
        out.note("sweeps", rep);
        return e2e.report(ctx, out);
    }

    let spec = &specs[0];
    let dir = ctx.cache_dir("sweep-http");
    let mut daemon = Daemon::spawn(&dir)?;
    let before = daemon.counts()?;
    let http = http_sweep(&mut daemon, spec, out)?;
    let counts = daemon.counts()?.since(&before);
    let index = index_bytes(&dir);
    drop(daemon);
    check_artifact(&http.artifact, out);

    let handle_dir = ctx.cache_dir("sweep-handle");
    let service = Service::new(&handle_dir).map_err(|e| format!("open cache: {e}"))?;
    let mut k = 0;
    let handle = sweep_with(spec, |body| {
        out.attempted += 1;
        let (status, _, reply) = in_process(&service, body);
        if status != 200 {
            return Err(format!("in-process race answered {status}"));
        }
        if http.bodies.get(k).map(String::as_bytes) != Some(reply.as_slice()) {
            out.fail(format!(
                "in-process race call {k}: body differs from the daemon's"
            ));
        }
        k += 1;
        Ok(String::from_utf8_lossy(&reply).into_owned())
    })?;
    drop(service);

    let replica_dir = ctx.cache_dir("sweep-replica");
    let replica = Replica::open(&replica_dir)?;
    let mut op = 0;
    let traced = sweep_with(spec, |body| {
        out.attempted += 1;
        let (reply, _) = replica.race(op, body)?;
        if http.bodies.get(op as usize).map(String::as_str) != Some(reply.as_str()) {
            out.fail(format!(
                "replica race call {op}: document differs from the daemon's body"
            ));
        }
        op += 1;
        Ok(reply)
    })?;
    for (mode, run) in [("in-process", &handle), ("replica", &traced)] {
        if run.artifact != http.artifact {
            out.breach(format!(
                "{mode} sweep artifact differs from the daemon sweep's"
            ));
        }
    }
    let trials = artifact_trials(&http.artifact);
    if replica.work.get().trials != trials {
        out.breach(format!(
            "engine ran {} trials, artifact accounts for {trials}",
            replica.work.get().trials
        ));
    }
    let op_ns: u64 = replica
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| s.dur_ns())
        .sum();
    let sweep = SweepLayer {
        race_calls: http.latencies_ms.len() as u64,
        rounds: http.rounds,
        trials,
        orchestrate_ms: traced.wall_s * 1e3 - op_ns as f64 / 1e6,
    };
    let inputs = LayerInputs {
        replica: &replica,
        http_ms: &http.latencies_ms,
        handle_ms: &handle.latencies_ms,
        daemon: counts,
        index_bytes: index,
        sweep,
    };
    finish_trace(ctx, out, &inputs)
}
