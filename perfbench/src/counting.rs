//! Counting wrappers around the policy registry.
//!
//! [`counting_registry`] re-registers every factory of a base registry
//! behind a [`CountingFactory`], whose policies are [`CountingPolicy`]
//! wrappers. Builds are counted and traced as spans, decides counted and
//! timed; everything else — `name`, `reset`, `reseed`, `is_stationary`,
//! the factory's id and capability — is delegated unchanged, so the
//! engine takes exactly the path it takes for the bare policy (the
//! shared-decision cache keys off `is_stationary`) and the statistics
//! come out bitwise the same.

use crate::trace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use suu_core::SuuInstance;
use suu_sim::{
    Assignment, Decision, Policy, PolicyFactory, PolicyRegistry, PolicySpec, RegistryError,
    StateView, StructureClass,
};

/// Work counted at the policy layer.
#[derive(Debug, Default)]
pub struct Counters {
    /// `PolicyFactory::build` calls.
    pub builds: AtomicU64,
    /// `Policy::decide` calls.
    pub decide_calls: AtomicU64,
    /// Time inside `decide`, ns (summed over engine threads).
    pub decide_ns: AtomicU64,
}

impl Counters {
    /// `(builds, decide_calls, decide_ns)` right now.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.builds.load(Ordering::Relaxed),
            self.decide_calls.load(Ordering::Relaxed),
            self.decide_ns.load(Ordering::Relaxed),
        )
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A factory that counts `build` calls, records a
/// `registry.build.<policy>` span, and wraps what it builds in a
/// [`CountingPolicy`].
pub struct CountingFactory {
    inner: Arc<dyn PolicyFactory>,
    counters: Arc<Counters>,
    tracer: Arc<Tracer>,
    span_name: String,
}

impl PolicyFactory for CountingFactory {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn description(&self) -> &str {
        self.inner.description()
    }

    fn capability(&self) -> StructureClass {
        self.inner.capability()
    }

    fn build(
        &self,
        inst: &Arc<SuuInstance>,
        spec: &PolicySpec,
    ) -> Result<Box<dyn Policy>, RegistryError> {
        let start_ns = self.tracer.now_ns();
        let built = self.inner.build(inst, spec);
        self.counters.builds.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .leaf(&self.span_name, start_ns, self.tracer.now_ns());
        let inner = built?;
        Ok(Box::new(CountingPolicy {
            inner,
            counters: self.counters.clone(),
        }))
    }
}

/// A policy that counts and times `decide` and delegates the rest.
pub struct CountingPolicy {
    inner: Box<dyn Policy>,
    counters: Arc<Counters>,
}

impl Policy for CountingPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed)
    }

    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        let t0 = Instant::now();
        let decision = self.inner.decide(view, out);
        self.counters
            .decide_ns
            .fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.counters.decide_calls.fetch_add(1, Ordering::Relaxed);
        decision
    }

    fn is_stationary(&self) -> bool {
        self.inner.is_stationary()
    }
}

/// Every factory of `base`, wrapped. Build spans go to `tracer`.
pub fn counting_registry(
    base: &PolicyRegistry,
    counters: &Arc<Counters>,
    tracer: &Arc<Tracer>,
) -> PolicyRegistry {
    let mut registry = PolicyRegistry::new();
    for name in base.names() {
        if let Some(inner) = base.get(name) {
            registry.register(CountingFactory {
                inner: inner.clone(),
                counters: counters.clone(),
                tracer: tracer.clone(),
                span_name: format!("registry.build.{name}"),
            });
        }
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_bench::scenario::Scenario;
    use suu_sim::{EvalConfig, EvalStats, Evaluator, Precision};

    fn evaluate(
        registry: &PolicyRegistry,
        sc: &Scenario,
        policy: &str,
        trials: usize,
    ) -> EvalStats {
        let inst = sc.instantiate();
        let evaluator = Evaluator::new(EvalConfig {
            trials,
            master_seed: 0xBE7C4,
            threads: 0,
            ..EvalConfig::default()
        });
        let spec = PolicySpec::parse(policy).unwrap();
        evaluator
            .run_adaptive_spec(registry, &inst, &spec, Precision::FixedTrials(trials))
            .unwrap()
            .stats
    }

    fn bits(stats: &EvalStats) -> String {
        // Everything but the wall clock: policy, config, accumulator.
        let mut doc = stats.to_json();
        if let suu_core::json::Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "wall_clock_s");
        }
        doc.to_canonical()
    }

    #[test]
    fn wrapped_statistics_are_bitwise_the_bare_ones() {
        let base = suu_algos::standard_registry();
        let counters = Arc::new(Counters::default());
        let wrapped = counting_registry(&base, &counters, &Arc::new(Tracer::new()));
        assert_eq!(wrapped.names(), base.names());
        let cases = [
            (Scenario::uniform(4, 12, 0.2, 0.9, 3), "greedy-lr"),
            (Scenario::uniform(4, 12, 0.2, 0.9, 3), "suu-i-obl"),
            (Scenario::uniform(4, 12, 0.2, 0.9, 3), "suu-i-sem"),
            (Scenario::chains(4, 12, 3, 5), "suu-c"),
            (Scenario::forest(4, 12, 2, 6), "suu-t"),
            (Scenario::forest(4, 12, 2, 6), "best-machine"),
        ];
        for (sc, policy) in &cases {
            // 600 trials = three engine chunks, so the multi-threaded
            // path is covered too.
            let bare = evaluate(&base, sc, policy, 600);
            let before = counters.snapshot();
            let counted = evaluate(&wrapped, sc, policy, 600);
            let after = counters.snapshot();
            assert_eq!(bits(&bare), bits(&counted), "{policy} on {}", sc.id);
            assert!(after.0 > before.0, "{policy}: builds counted");
            assert!(after.1 > before.1, "{policy}: decides counted");
        }
    }

    #[test]
    fn counts_repeat_exactly_for_single_chunk_cells() {
        let base = suu_algos::standard_registry();
        let run = || {
            let counters = Arc::new(Counters::default());
            let wrapped = counting_registry(&base, &counters, &Arc::new(Tracer::new()));
            for (sc, policy) in [
                (Scenario::uniform(8, 24, 0.1, 0.9, 11), "suu-i-obl"),
                (Scenario::uniform(8, 24, 0.1, 0.9, 11), "greedy-lr"),
                (Scenario::chains(8, 24, 4, 12), "suu-c"),
                (Scenario::forest(8, 24, 3, 13), "suu-t"),
            ] {
                evaluate(&wrapped, &sc, policy, 128);
            }
            let (builds, decides, _) = counters.snapshot();
            (builds, decides)
        };
        let first = run();
        assert_eq!(first.0, 4);
        assert_eq!(first, run());
    }

    #[test]
    fn builds_leave_spans_under_the_open_span() {
        let tracer = Arc::new(Tracer::new());
        let counters = Arc::new(Counters::default());
        let wrapped = counting_registry(&suu_algos::standard_registry(), &counters, &tracer);
        let sc = Scenario::uniform(3, 6, 0.3, 0.9, 1);
        tracer.span("engine.evaluate", || {
            evaluate(&wrapped, &sc, "greedy-lr", 8)
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "registry.build.greedy-lr");
        assert_eq!(spans[1].parent, Some(0));
    }
}
