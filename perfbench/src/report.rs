//! What one workload run produces: named metrics with units and sample
//! counts, operation accounting, and correctness breaches.

use suu_core::json::Json;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `MiB`, `count`, `bytes`, `%`).
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations sent (prefill, warm-up and timed alike).
    pub attempted: u64,
    /// Operations that failed a status or correctness check.
    pub failed: u64,
    /// Every breached check, first few verbatim.
    pub breaches: Vec<String>,
    /// Breaches beyond the ones kept verbatim.
    pub breaches_dropped: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Extra facts for the run record.
    pub notes: Vec<(String, Json)>,
}

const KEPT_BREACHES: usize = 16;

impl Outcome {
    /// Record a breached check.
    pub fn breach(&mut self, what: String) {
        if self.breaches.len() < KEPT_BREACHES {
            self.breaches.push(what);
        } else {
            self.breaches_dropped += 1;
        }
    }

    /// Record a failed operation and why.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.breach(what);
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Add a fact to the run record.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// `true` when no check was breached.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.breaches.is_empty()
    }

    /// Fold another run of the same workload (a recheck seed) into this
    /// one's accounting; its metrics stay with it.
    pub fn absorb_accounting(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for b in &other.breaches {
            self.breach(b.clone());
        }
        self.breaches_dropped += other.breaches_dropped;
    }

    /// Metrics as a JSON object `{name: {value, unit}}`.
    pub fn metrics_json(&self, with_samples: bool) -> Json {
        let mut obj = Json::obj();
        for m in &self.metrics {
            let mut entry = Json::obj().field("value", m.value).field("unit", m.unit);
            if with_samples {
                entry = entry.field("samples", m.samples);
            }
            obj = obj.field(m.name.as_str(), entry);
        }
        obj
    }
}
