//! Input generators. Every request the daemon sees is derived here from
//! the workload seed, so the same seed gives the same inputs and a new
//! seed gives new scenarios of the same shape.

use suu_bench::sweep::SweepSpec;
use suu_core::json::Json;

/// The four stationary-or-simple baselines every hit-path cell races.
pub const BASELINES: [&str; 4] = [
    "gang-sequential",
    "round-robin",
    "best-machine",
    "greedy-lr",
];

/// Filler scenarios that bring the cache to its working size.
pub const FILLER_SCENARIOS: usize = 896;
/// Scenarios per filler request (the request-size limit).
pub const FILLER_PER_REQUEST: usize = 64;
/// Hot scenarios the timed hit requests replay.
pub const HOT_SCENARIOS: usize = 128;

const STREAM_FILLER: u64 = 1;
const STREAM_HOT: u64 = 2;
const STREAM_MASTER: u64 = 3;
const STREAM_COLD: u64 = 4;
const STREAM_ORDER: u64 = 5;
const STREAM_SWEEP: u64 = 6;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 40-bit value derived from `(seed, stream, index)` — small enough
/// to survive any float round trip in a JSON consumer.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream)) ^ index) & ((1 << 40) - 1)
}

fn strings(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str((*s).to_string())).collect())
}

fn race(scenarios: Vec<Json>, policies: &[&str], trials: u64, master: u64, lb: bool) -> String {
    Json::obj()
        .field("scenarios", Json::Arr(scenarios))
        .field("policies", strings(policies))
        .field("trials", trials)
        .field("master_seed", master)
        .field("ratios_to_lower_bound", lb)
        .to_compact()
}

fn uniform(m: u64, n: u64, lo: f64, hi: f64, seed: u64) -> Json {
    Json::obj()
        .field("family", "uniform")
        .field("m", m)
        .field("n", n)
        .field("lo", lo)
        .field("hi", hi)
        .field("seed", seed)
}

/// `serve-hit` prefill: 896 tiny scenarios (m=4, n=16) × 4 baselines at
/// 16 trials = 3584 cells, 64 scenarios per request.
pub fn filler_requests(seed: u64) -> Vec<String> {
    let master = derive(seed, STREAM_MASTER, 0);
    (0..FILLER_SCENARIOS / FILLER_PER_REQUEST)
        .map(|r| {
            let scenarios = (0..FILLER_PER_REQUEST)
                .map(|i| {
                    let idx = (r * FILLER_PER_REQUEST + i) as u64;
                    uniform(4, 16, 0.2, 0.9, derive(seed, STREAM_FILLER, idx))
                })
                .collect();
            race(scenarios, &BASELINES, 16, master, false)
        })
        .collect()
}

/// `serve-hit` hot set: 128 requests, each one scenario (m=8, n=64) × 4
/// baselines at 64 trials with lower-bound ratios — 512 cells.
pub fn hot_requests(seed: u64) -> Vec<String> {
    let master = derive(seed, STREAM_MASTER, 1);
    (0..HOT_SCENARIOS as u64)
        .map(|i| {
            let sc = uniform(8, 64, 0.1, 0.9, derive(seed, STREAM_HOT, i));
            race(vec![sc], &BASELINES, 64, master, true)
        })
        .collect()
}

/// Pass `pass` over `n` hot requests: a seeded permutation of `0..n`.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let r = derive(seed, STREAM_ORDER, (pass << 20) | i as u64);
        order.swap(i, (r % (i as u64 + 1)) as usize);
    }
    order
}

/// Scenario families of `cold-paper`, in rotation order.
pub const COLD_FAMILIES: usize = 3;

/// Seed of the fixed `cold-paper` instances. Construction cost varies
/// up to threefold between random forests of the same size, so instances
/// drawn from the workload seed moved the median request by as much; the
/// workload seed sets the trials instead, as in `sweep-frontier`.
const COLD_INSTANCE_SEED: u64 = 1;

/// `cold-paper` request `i`: an m=8, n=96 scenario of family `i mod 3`
/// (uniform, chains, forest) racing that family's paper policy or
/// policies against greedy-lr at 128 trials. The instances are fixed;
/// `seed` sets the master seed, so every seed makes new cells.
pub fn cold_request(seed: u64, i: u64) -> String {
    let master = derive(seed, STREAM_MASTER, 2);
    let s = derive(COLD_INSTANCE_SEED, STREAM_COLD, i);
    let (scenario, policies): (Json, &[&str]) = match i % COLD_FAMILIES as u64 {
        0 => (
            uniform(8, 96, 0.1, 0.9, s),
            &["suu-i-obl", "suu-i-sem", "greedy-lr"],
        ),
        1 => (
            Json::obj()
                .field("family", "chains")
                .field("m", 8u64)
                .field("n", 96u64)
                .field("chains", 8u64)
                .field("seed", s),
            &["suu-c", "greedy-lr"],
        ),
        _ => (
            Json::obj()
                .field("family", "forest")
                .field("m", 8u64)
                .field("n", 96u64)
                .field("roots", 6u64)
                .field("seed", s),
            &["suu-t", "greedy-lr"],
        ),
    };
    race(vec![scenario], policies, 128, master, false)
}

fn pair(lo: f64, hi: f64) -> Json {
    Json::Arr(vec![Json::Num(lo), Json::Num(hi)])
}

fn axis(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::UInt(v)).collect())
}

/// The policies the frontier sweep races: two stationary baselines, so
/// every cell runs on the engine's shared-decision path, and a winner is
/// resolved exactly when its one margin clears zero.
pub const SWEEP_POLICIES: [&str; 2] = ["greedy-lr", "best-machine"];

/// Master seeds a `sweep-frontier` run cycles through.
pub const SWEEP_SUBSEEDS: u64 = 2;

/// `sweep-frontier` grid `k` of `seed`: uniform m × n × q (48 points)
/// plus chains and forests (9 points each), budgets 64..768. The
/// instances are fixed (scenario seed 1); `(seed, k)` sets the master
/// seed, i.e. the trials, and so which points stay contested. The
/// ladder starts at 64 trials rather than 16: race calls of 16 trials
/// are mostly request handling and cache writes, and a run's throughput
/// over them moved twice as much between identical runs.
pub fn sweep_spec(seed: u64, k: u64) -> Result<SweepSpec, String> {
    let doc = Json::obj()
        .field("name", "perfbench-frontier")
        .field("master_seed", derive(seed, STREAM_SWEEP, k))
        .field("scenario_seed", 1u64)
        .field("policies", strings(&SWEEP_POLICIES))
        .field(
            "budget",
            Json::obj().field("initial", 64u64).field("max", 768u64),
        )
        .field(
            "grid",
            Json::Arr(vec![
                Json::obj()
                    .field("family", "uniform")
                    .field("m", axis(&[2, 4, 8, 16]))
                    .field("n", axis(&[64, 128, 256, 512]))
                    .field(
                        "q",
                        Json::Arr(vec![pair(0.05, 0.35), pair(0.35, 0.65), pair(0.65, 0.95)]),
                    ),
                Json::obj()
                    .field("family", "chains")
                    .field("m", axis(&[4, 8, 16]))
                    .field("n", axis(&[128, 256, 512]))
                    .field("params", Json::obj().field("chains", 8u64)),
                Json::obj()
                    .field("family", "forest")
                    .field("m", axis(&[4, 8, 16]))
                    .field("n", axis(&[128, 256, 512]))
                    .field("params", Json::obj().field("roots", 6u64)),
            ]),
        );
    SweepSpec::from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_bench::request::RaceRequest;

    fn parses(body: &str) -> RaceRequest {
        RaceRequest::from_json(&suu_core::json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(hot_requests(7), hot_requests(7));
        assert_ne!(hot_requests(7), hot_requests(8));
        assert_eq!(cold_request(7, 5), cold_request(7, 5));
        assert_ne!(cold_request(7, 5), cold_request(7, 8));
        // Same instance, new trials.
        let (a, b) = (parses(&cold_request(7, 5)), parses(&cold_request(8, 5)));
        assert_eq!(a.scenarios[0].params, b.scenarios[0].params);
        assert_ne!(a.master_seed, b.master_seed);
        assert_eq!(pass_order(3, 1, 64), pass_order(3, 1, 64));
        assert_ne!(pass_order(3, 1, 64), pass_order(3, 2, 64));
        let mut sorted = pass_order(3, 1, 64);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn prefill_shapes_match_the_workload_definition() {
        let fillers = filler_requests(1);
        assert_eq!(fillers.len(), 14);
        let cells: usize = fillers
            .iter()
            .map(|b| {
                let r = parses(b);
                r.scenarios.len() * r.policies.len()
            })
            .sum();
        assert_eq!(cells, 3584);
        let hot = hot_requests(1);
        assert_eq!(hot.len(), 128);
        let r = parses(&hot[0]);
        assert_eq!((r.scenarios.len(), r.policies.len()), (1, 4));
        assert!(r.ratios_to_lower_bound);
        // Distinct scenarios: 896 filler + 128 hot content addresses.
        let mut ids: Vec<String> = fillers
            .iter()
            .chain(&hot)
            .flat_map(|b| {
                parses(b)
                    .scenarios
                    .into_iter()
                    .map(|s| s.params.to_canonical())
            })
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 1024);
    }

    #[test]
    fn cold_requests_rotate_families() {
        let families: Vec<String> = (0..6)
            .map(|i| parses(&cold_request(2, i)).scenarios[0].scenario.id.clone())
            .collect();
        assert!(families[0].starts_with("uniform-m8-n96"));
        assert!(families[1].starts_with("chains-m8-n96"));
        assert!(families[2].starts_with("forest-m8-n96"));
        assert!(families[3].starts_with("uniform-m8-n96"));
        assert_eq!(parses(&cold_request(2, 0)).policies.len(), 3);
    }

    #[test]
    fn sweep_spec_expands() {
        let spec = sweep_spec(1, 0).unwrap();
        assert_eq!(spec.points.len(), 66);
        assert_ne!(spec.master_seed, sweep_spec(1, 1).unwrap().master_seed);
        assert_eq!(spec.policies, SWEEP_POLICIES);
    }
}
