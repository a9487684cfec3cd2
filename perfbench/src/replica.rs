//! A traced replica of `Service::evaluate`, assembled from the layers'
//! public functions.
//!
//! The daemon's race path is one opaque call. The replica walks the same
//! steps in the same order — decode, instantiate, lower bound, cell key,
//! cache load / evaluate / store under the in-flight guard, document
//! assembly and encode — and wraps each call in a span, so the trace can
//! attribute an operation's time layer by layer without instrumenting
//! the program. The benchmark asserts that every document the replica
//! produces is byte-identical to the daemon's body for the same request,
//! so the replica cannot drift from the service unnoticed.
//!
//! Before each cache load that will find a cell, the replica also
//! *probes* the same key: it reads, parses and decodes the cell file
//! itself, inside a `probe` span with `cache.read`, `cache.parse` and
//! `stats.decode` children. `CellStore::load` does those three steps
//! plus the recency-index bookkeeping, so load minus the probe's parts
//! isolates the index work. Probe time is excluded from the operation.

use crate::counting::{counting_registry, Counters};
use crate::trace::Tracer;
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use suu_algos::bounds::lower_bound;
use suu_bench::report::ResultsBuilder;
use suu_bench::request::RaceRequest;
use suu_bench::runner::scenario_master_seed;
use suu_core::json::Json;
use suu_core::SuuInstance;
use suu_serve::cache::CachedCell;
use suu_serve::service::semantics_str;
use suu_serve::{cell_key_fields, CacheCounts, CacheStatus, CellKey, CellStore};
use suu_sim::{
    AdaptiveStats, EvalConfig, EvalStats, Evaluator, PolicyRegistry, PolicySpec, Precision,
    RegistryError, StopReason,
};

/// Deterministic work counts of the replica's operations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Operations handled.
    pub ops: u64,
    /// Cells served from the cache.
    pub hits: u64,
    /// Cells computed anew (cache misses).
    pub misses: u64,
    /// Cells resumed and grown.
    pub extends: u64,
    /// LP lower bounds solved.
    pub solves: u64,
    /// Trials the engine ran.
    pub trials: u64,
}

/// The replica: its own store over a cache directory, a counting
/// registry, and the tracer every span goes to.
pub struct Replica {
    store: CellStore,
    registry: PolicyRegistry,
    /// Policy-layer counters (builds, decides).
    pub counters: Arc<Counters>,
    /// Span recorder.
    pub tracer: Arc<Tracer>,
    /// Work done so far.
    pub work: Cell<Work>,
}

enum CellError {
    Registry(RegistryError),
    Cache(String),
}

impl Replica {
    /// Open `cache_dir` with a counting copy of the standard registry.
    pub fn open(cache_dir: &Path) -> Result<Replica, String> {
        let store = CellStore::open(cache_dir)
            .map_err(|e| format!("cannot open cache {}: {e}", cache_dir.display()))?;
        let tracer = Arc::new(Tracer::new());
        let counters = Arc::new(Counters::default());
        let registry = counting_registry(&suu_algos::standard_registry(), &counters, &tracer);
        Ok(Replica {
            store,
            registry,
            counters,
            tracer,
            work: Cell::new(Work::default()),
        })
    }

    /// Handle one `POST /v1/race` body as operation `op`: the response
    /// body the daemon would send, and the cache accounting of its
    /// headers. Errors are the 400/500 cases.
    pub fn race(&self, op: u64, body: &str) -> Result<(String, CacheCounts), String> {
        self.tracer.set_op(op);
        let root = self.tracer.begin("op");
        let out = self.race_inner(body);
        self.tracer.end(root);
        let mut work = self.work.get();
        work.ops += 1;
        if let Ok((_, counts)) = &out {
            work.hits += counts.hits;
            work.misses += counts.misses;
            work.extends += counts.extends;
        }
        self.work.set(work);
        out
    }

    fn race_inner(&self, body: &str) -> Result<(String, CacheCounts), String> {
        let tracer = self.tracer.clone();
        let (race, specs) = tracer.span("request.decode", || {
            let json = suu_core::json::parse(body).map_err(|e| e.to_string())?;
            let race = RaceRequest::from_json(&json)?;
            let specs: Vec<PolicySpec> = race
                .policies
                .iter()
                .map(|p| PolicySpec::parse(p).map_err(|e| format!("bad policy spec {p:?}: {e}")))
                .collect::<Result<_, _>>()?;
            Ok::<_, String>((race, specs))
        })?;

        let mut builder = ResultsBuilder::new("suud".to_string()).record_wall_clocks(false);
        let mut counts = CacheCounts::default();

        for rs in &race.scenarios {
            tracer.span("report.encode", || builder.add_scenario(&rs.scenario));
            let inst = tracer.span("scenario.instantiate", || rs.scenario.instantiate());
            let lb_result = race.ratios_to_lower_bound.then(|| {
                let mut work = self.work.get();
                work.solves += 1;
                self.work.set(work);
                tracer.span("bounds.lower_bound", || {
                    lower_bound(&inst).map_err(|e| e.to_string())
                })
            });
            let lb = lb_result.as_ref().and_then(|r| r.as_ref().ok()).copied();
            let lb_error = lb_result.as_ref().and_then(|r| r.as_ref().err()).cloned();

            let evaluator = Evaluator::new(EvalConfig {
                trials: race.precision.max_trials(),
                master_seed: scenario_master_seed(race.master_seed, &rs.scenario),
                threads: 0,
                exec: race.exec,
                ..EvalConfig::default()
            });

            for (spec, policy_text) in specs.iter().zip(&race.policies) {
                let key = tracer.span("cache.key", || {
                    CellKey::new(&cell_key_fields(
                        &rs.params,
                        policy_text,
                        race.master_seed,
                        semantics_str(race.exec.semantics),
                        race.exec.max_steps,
                    ))
                });
                match self.evaluate_cell(&key, &evaluator, &inst, spec, race.precision) {
                    Ok((stats, stop_reason, status)) => {
                        match status {
                            CacheStatus::Hit => counts.hits += 1,
                            CacheStatus::Miss => counts.misses += 1,
                            CacheStatus::Extended => counts.extends += 1,
                        }
                        tracer.span("report.encode", || {
                            let mean = stats.mean_makespan();
                            let mut extra: Vec<(&str, Json)> = vec![
                                ("stop_reason", Json::Str(stop_reason.as_str().into())),
                                ("cell_key", Json::Str(key.hex.clone())),
                            ];
                            if let Some(lb) = lb {
                                extra.push(("lower_bound", Json::Num(lb)));
                                extra.push(("ratio_to_lb", Json::Num(mean / lb)));
                            }
                            if let Some(e) = &lb_error {
                                extra.push(("lower_bound_error", Json::Str(e.clone())));
                            }
                            builder.add_cell(&rs.scenario.id, policy_text, &stats, &extra);
                        });
                    }
                    Err(CellError::Registry(e @ RegistryError::UnsupportedStructure { .. })) => {
                        builder.add_failure(&rs.scenario.id, policy_text, "skipped", e.to_string());
                    }
                    Err(CellError::Registry(e)) => {
                        builder.add_failure(&rs.scenario.id, policy_text, "error", e.to_string());
                    }
                    Err(CellError::Cache(e)) => return Err(format!("error: {e}")),
                }
            }
        }
        let body = tracer.span("report.encode", || builder.finish().to_pretty());
        Ok((body, counts))
    }

    /// Read, parse and decode the cell file of `key` in spans of their
    /// own; nothing when the cell is not cached.
    fn probe(&self, key: &CellKey) -> Result<(), String> {
        let path = self.store.dir().join(format!("{}.json", key.hex));
        if !path.exists() {
            return Ok(());
        }
        let tracer = &self.tracer;
        tracer.span("probe", || {
            let text = tracer
                .span("cache.read", || std::fs::read_to_string(&path))
                .map_err(|e| format!("probe read {}: {e}", path.display()))?;
            let doc = tracer
                .span("cache.parse", || suu_core::json::parse(&text))
                .map_err(|e| format!("probe parse {}: {e}", path.display()))?;
            let checkpoint = doc
                .get("checkpoint")
                .ok_or_else(|| format!("probe {}: no checkpoint", path.display()))?;
            tracer
                .span("stats.decode", || EvalStats::from_json(checkpoint))
                .map(|_| ())
        })
    }

    /// Run the engine inside an `engine.evaluate` span (policy builds
    /// nest under it; decide time is counted by the wrappers).
    fn engine<R>(&self, f: impl FnOnce(&PolicyRegistry) -> R) -> R {
        self.tracer.span("engine.evaluate", || f(&self.registry))
    }

    fn store_cell(&self, key: &CellKey, adaptive: &AdaptiveStats) -> Result<(), CellError> {
        self.tracer
            .span("cache.store", || {
                self.store.store(
                    key,
                    &adaptive.stats.policy,
                    &adaptive.stats,
                    adaptive.stop_reason.as_str(),
                )
            })
            .map_err(CellError::Cache)
    }

    /// `Service::evaluate_cell`, step for step.
    fn evaluate_cell(
        &self,
        key: &CellKey,
        evaluator: &Evaluator,
        inst: &Arc<SuuInstance>,
        spec: &PolicySpec,
        precision: Precision,
    ) -> Result<(EvalStats, StopReason, CacheStatus), CellError> {
        self.store.with_inflight(key, || {
            self.probe(key).map_err(CellError::Cache)?;
            let loaded: Option<CachedCell> = self
                .tracer
                .span("cache.load", || self.store.load(key))
                .map_err(CellError::Cache)?;
            match loaded {
                Some(cached) => {
                    let trials = cached.stats.trials() as usize;
                    let satisfied = {
                        let (mean, ci95) = match cached.stats.summary() {
                            Some(s) => (s.mean, s.ci95),
                            None => (0.0, f64::INFINITY),
                        };
                        precision.check(trials, mean, ci95)
                    };
                    if let Some(reason) = satisfied {
                        return Ok((cached.stats, reason, CacheStatus::Hit));
                    }
                    let before = cached.stats.trials();
                    let adaptive = self
                        .engine(|registry| {
                            evaluator.resume_adaptive_spec(
                                registry,
                                inst,
                                spec,
                                cached.stats,
                                precision,
                            )
                        })
                        .map_err(CellError::Registry)?;
                    self.add_trials(adaptive.stats.trials() - before);
                    self.store_cell(key, &adaptive)?;
                    Ok((adaptive.stats, adaptive.stop_reason, CacheStatus::Extended))
                }
                None => {
                    let adaptive = self
                        .engine(|registry| {
                            evaluator.run_adaptive_spec(registry, inst, spec, precision)
                        })
                        .map_err(CellError::Registry)?;
                    self.add_trials(adaptive.stats.trials());
                    self.store_cell(key, &adaptive)?;
                    Ok((adaptive.stats, adaptive.stop_reason, CacheStatus::Miss))
                }
            }
        })
    }

    fn add_trials(&self, trials: u64) {
        let mut work = self.work.get();
        work.trials += trials;
        self.work.set(work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_bench::sweep::{run_sweep, SweepSpec};
    use suu_serve::http::Request;
    use suu_serve::Service;

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-replica-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Sweep the built-in smoke grid through `race`, collecting every
    /// reply body.
    fn sweep(mut race: impl FnMut(&str) -> String) -> (String, Vec<String>) {
        let mut bodies = Vec::new();
        let mut eval = |request: &Json| -> Result<Json, String> {
            let reply = race(&request.to_compact());
            let doc = suu_core::json::parse(&reply).map_err(|e| e.to_string())?;
            bodies.push(reply);
            Ok(doc)
        };
        let artifact = run_sweep(&SweepSpec::smoke(), &mut eval, &mut |_| {}).unwrap();
        (artifact.to_pretty(), bodies)
    }

    fn replica_sweep(tag: &str) -> (String, Vec<String>, Work, (u64, u64), usize) {
        let dir = fresh_dir(tag);
        let replica = Replica::open(&dir).unwrap();
        let mut op = 0;
        let (artifact, bodies) = sweep(|body| {
            op += 1;
            replica.race(op, body).unwrap().0
        });
        let (builds, decides, _) = replica.counters.snapshot();
        let spans = replica.tracer.spans().len();
        let work = replica.work.get();
        let _ = std::fs::remove_dir_all(&dir);
        (artifact, bodies, work, (builds, decides), spans)
    }

    #[test]
    fn replica_documents_are_the_service_bodies() {
        let dir = fresh_dir("service");
        let service = Service::new(&dir).unwrap();
        let (artifact, bodies) = sweep(|body| {
            let response = service.handle(&Request {
                method: "POST".to_string(),
                path: "/v1/race".to_string(),
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            });
            assert_eq!(response.status, 200);
            String::from_utf8(response.body).unwrap()
        });
        let _ = std::fs::remove_dir_all(&dir);
        let (replica_artifact, replica_bodies, work, _, _) = replica_sweep("docs");
        assert_eq!(replica_bodies, bodies);
        assert_eq!(replica_artifact, artifact);
        assert_eq!(work.ops as usize, bodies.len());
        assert!(work.misses > 0 && work.extends > 0, "{work:?}");
    }

    #[test]
    fn counts_repeat_exactly_between_runs() {
        let (artifact_a, _, work_a, policy_a, spans_a) = replica_sweep("repeat-a");
        let (artifact_b, _, work_b, policy_b, spans_b) = replica_sweep("repeat-b");
        assert_eq!(artifact_a, artifact_b);
        assert_eq!(work_a, work_b);
        assert_eq!(policy_a, policy_b);
        assert_eq!(spans_a, spans_b);
        // Each race call builds its one policy once: a single engine
        // chunk runs on one thread.
        assert_eq!(policy_a.0, work_a.ops);
    }

    #[test]
    fn hits_probe_the_cell_and_count_no_engine_work() {
        let dir = fresh_dir("hits");
        let replica = Replica::open(&dir).unwrap();
        let body = r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":7}],
                       "policies":["greedy-lr","best-machine"],"trials":24,"master_seed":11,
                       "ratios_to_lower_bound":true}"#;
        let (first, counts) = replica.race(0, body).unwrap();
        assert_eq!(counts.label(), "miss");
        let trials = replica.work.get().trials;
        assert_eq!(trials, 48);
        let (second, counts) = replica.race(1, body).unwrap();
        assert_eq!(counts.label(), "hit");
        assert_eq!(first, second);
        let work = replica.work.get();
        assert_eq!(
            (work.hits, work.misses, work.solves, work.trials),
            (2, 2, 2, 48)
        );
        let spans = replica.tracer.spans();
        let probes: Vec<_> = spans.iter().filter(|s| s.name == "probe").collect();
        assert_eq!(probes.len(), 2, "one probe per cached load");
        assert!(probes.iter().all(|s| s.op == 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
