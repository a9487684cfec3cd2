//! `perfbench` — end-to-end and per-layer benchmark of the `suud`
//! serving path. See `perfbench/README.md` for the workloads, the
//! metrics and what each layer metric should move.
//!
//! ```text
//! perfbench --workload <serve-hit|cold-paper|sweep-frontier> --seed N
//!           --seconds S --trace <0|1> [--recheck-seed M]
//! ```
//!
//! Run from the repository root with `suud` built next to this binary
//! (`perfbench/run.py` builds both). Caches live under `.perfbench/`
//! in the working directory. Standard output ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The lines before it are the run record (seed, host cores, cache
//! filesystem, daemon flags, per-metric sample counts).

mod counting;
mod daemon;
mod gen;
mod layers;
mod replica;
mod report;
mod stats;
mod system;
mod trace;
mod workloads;

use report::Outcome;
use std::path::PathBuf;
use suu_core::json::Json;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    recheck_seed: Option<u64>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> [--recheck-seed M]",
        workloads::WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut recheck_seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--recheck-seed" => recheck_seed = Some(number(value()?)?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.filter(|&s| s > 0).ok_or_else(usage)? as f64,
        trace,
        recheck_seed,
    })
}

/// Run the workload on `seed` in its own working directory.
fn run_seed(args: &Args, seed: u64, root: &std::path::Path) -> Result<Outcome, String> {
    let dir = root.join(format!("run-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ctx = workloads::Ctx {
        seed,
        seconds: args.seconds,
        trace: args.trace,
        spans_path: root.join(format!("spans-{}-{seed}.jsonl", args.workload)),
        samples_path: root.join(format!("samples-{}-{seed}.json", args.workload)),
        dir: dir.clone(),
    };
    let mut out = Outcome::default();
    out.note("cache_fs", system::fs_type(&dir));
    let result = workloads::run(&args.workload, &ctx, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| out)
}

fn record(args: &Args, seed: u64, out: &Outcome) -> Json {
    let mut doc = Json::obj()
        .field("workload", args.workload.as_str())
        .field("seed", seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("host_cores", system::host_cores())
        .field(
            "daemon_flags",
            Json::Arr(
                daemon::DAEMON_FLAGS
                    .iter()
                    .map(|f| Json::Str((*f).to_string()))
                    .collect(),
            ),
        )
        .field("correct", out.correct())
        .field("attempted", out.attempted)
        .field("failed", out.failed)
        .field(
            "breaches",
            Json::Arr(out.breaches.iter().map(|b| Json::Str(b.clone())).collect()),
        )
        .field("breaches_not_shown", out.breaches_dropped);
    for (k, v) in &out.notes {
        doc = doc.field(k.as_str(), v.clone());
    }
    doc.field("metrics", out.metrics_json(true))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("perfbench: create {}: {e}", root.display());
        std::process::exit(2);
    }
    let mut seeds = vec![args.seed];
    seeds.extend(args.recheck_seed);
    let mut outcomes = Vec::new();
    for &seed in &seeds {
        match run_seed(&args, seed, &root) {
            Ok(out) => outcomes.push((seed, out)),
            Err(e) => {
                eprintln!("perfbench: {} seed {seed}: {e}", args.workload);
                std::process::exit(1);
            }
        }
    }
    let mut records = Vec::new();
    for (seed, out) in &outcomes {
        records.push(record(&args, *seed, out));
    }
    let doc = Json::Arr(records);
    let record_path = root.join(format!(
        "record-{}-{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record_path, doc.to_pretty()) {
        eprintln!("perfbench: write {}: {e}", record_path.display());
    }
    println!("{}", doc.to_pretty());

    // The result line: the primary seed's metrics, accounting over every
    // seed run.
    let (_, first) = &outcomes[0];
    let mut total = Outcome::default();
    for (_, out) in &outcomes {
        total.absorb_accounting(out);
    }
    let line = Json::obj()
        .field("correct", total.correct())
        .field("attempted", total.attempted.max(1))
        .field("failed", total.failed)
        .field("metrics", first.metrics_json(false));
    println!("{}", line.to_compact());
    if !total.correct() {
        std::process::exit(1);
    }
}
