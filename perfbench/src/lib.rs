//! Preservation benchmark for the `itrust` workspace.
//!
//! Four workloads drive the public APIs of `archival-core`, `trustdb`,
//! `itrust-service`, `itrust-ledger` and `perganet` from one seed:
//!
//! * `accession` — Table 1 fond mix through `Repository::ingest` and
//!   `Repository::fixity_sweep` (large-object hashing; no WAL).
//! * `tenant_mix` — 64 closed-loop clients on a durable 8-shard service
//!   (`SyncPolicy::GroupCommit`), then recovery from the WALs.
//! * `custody` — ledger appends, checkpoints with witness quorum, custody
//!   proofs and a full ledger audit (small fixed-size hashes).
//! * `perganet` — train the small PergaNet pipeline, then analyse parchments
//!   (CNN layers and `itrust-par`; no storage).
//!
//! Every workload reports the same end-to-end metrics (`setup_s`,
//! `peak_rss_mib`, `write_per_ref_s`, `check_per_ref_s`); what the two
//! rates count is fixed per workload (see `README.md`). Times behind them
//! are reference seconds ([`mod@reference`]): process CPU time, which leaves
//! out time the host steals, scaled for every set-up and for the rates of
//! the hash-bound workloads by how fast the host currently runs a fixed
//! SHA-256 kernel. Wall-clock rates are printed as details. A traced run (`--trace 1`) reports the
//! per-layer metrics of [`layer_metrics`].

pub mod accession;
pub mod custody;
pub mod measure;
pub mod perganet;
pub mod reference;
pub mod tenant_mix;
pub mod trace;

use measure::{median, Metric, Rates, Tally};
use reference::TimeBase;
use std::path::PathBuf;
use trace::Tracer;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["accession", "tenant_mix", "custody", "perganet"];

/// How a layer call's work is counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Bytes; the rate metric is `<op>.mib_s`.
    Bytes,
    /// Items; the rate metric is `<op>.per_s`.
    Items,
}

/// Every timed layer call. Each yields `<op>.share` (self time over the
/// workload's wall time) and a rate (work over busy time). A workload that
/// never calls a layer reports 0 for both.
pub const LAYER_OPS: [(&str, Work); 30] = [
    ("ingest.total", Work::Bytes),
    ("ingest.validate", Work::Bytes),
    ("fixity.sweep", Work::Bytes),
    ("store.put_many", Work::Bytes),
    ("hash.sha256", Work::Bytes),
    ("hash.large_object", Work::Bytes),
    ("hash.leaf_pair", Work::Items),
    ("merkle.build", Work::Items),
    ("store.put", Work::Items),
    ("wal.append", Work::Items),
    ("audit.append", Work::Items),
    ("shard.route", Work::Items),
    ("shard.put", Work::Items),
    ("shard.get", Work::Items),
    ("shard.open", Work::Items),
    ("executor.submit", Work::Items),
    ("executor.tick", Work::Items),
    ("ledger.append", Work::Items),
    ("merkle.incremental_push", Work::Items),
    ("ledger.checkpoint", Work::Items),
    ("witness.collect", Work::Items),
    ("ledger.prove", Work::Items),
    ("proof.verify", Work::Items),
    ("ledger.verify", Work::Items),
    ("perganet.train_classifier", Work::Items),
    ("perganet.train_text", Work::Items),
    ("perganet.train_signum", Work::Items),
    ("perganet.classify", Work::Items),
    ("perganet.detect_text", Work::Items),
    ("perganet.detect_signum", Work::Items),
];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed: the same seed gives byte-identical inputs.
    pub seed: u64,
    /// Measured seconds (passes repeat until this much wall time passed).
    pub seconds: f64,
    /// Traced run: add a traced pass and layer probes.
    pub trace: bool,
    /// Reduced sizes for the benchmark's own tests.
    pub smoke: bool,
    /// Scratch directory for WALs and span files.
    pub out_dir: PathBuf,
}

impl RunOpts {
    /// Seconds of untraced passes: all of `seconds`, or half of it in a
    /// traced run, where they only give the baseline for the tracing
    /// overhead.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Whether to run one unmeasured pass before the measured ones, so the
    /// heap, CPU caches and page cache are warm when timing starts (not in
    /// a smoke run).
    pub fn warm_up(&self) -> bool {
        !self.smoke
    }

    /// Times the set-up is repeated (`full`, or once in a smoke run);
    /// `setup_s` is the median.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// Extra numbers a traced run hands back besides its spans.
#[derive(Debug, Default)]
pub struct TraceExtras {
    /// Median wall time of an untraced pass, seconds.
    pub untraced_pass_s: f64,
    /// Write system calls per put during the traced pass.
    pub write_calls_per_put: f64,
    /// Bytes sent to storage per payload byte during the traced pass.
    pub bytes_written_per_user_byte: f64,
    /// WAL bytes on disk per acknowledged payload byte.
    pub wal_stored_bytes_per_user_byte: f64,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Reference seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// `write_per_ref_s` samples, with their wall-clock twins.
    pub write: Rates,
    /// `check_per_ref_s` samples, with their wall-clock twins.
    pub check: Rates,
    /// Hex SHA-256 over the generated inputs.
    pub input_digest: String,
    /// Workload-specific numbers printed before the result line.
    pub details: Vec<Metric>,
    /// Spans of the traced pass (root `workload`) and probes (root `probes`).
    pub tracer: Option<Tracer>,
    /// Traced-run extras.
    pub extras: TraceExtras,
}

impl Outcome {
    /// The outcome of a run whose rates are timed in reference seconds of
    /// `base`. A traced run prints no end-to-end metrics, so its rates stay
    /// wall-clock only and no kernel runs inside the passes whose wall time
    /// is the baseline for the tracing overhead. A default outcome is the
    /// same wall-clock-only sink, for warm-up and traced passes.
    pub fn for_run(opts: &RunOpts, base: TimeBase) -> Self {
        if opts.trace {
            return Outcome::default();
        }
        Outcome {
            write: Rates::new(base),
            check: Rates::new(base),
            ..Outcome::default()
        }
    }
}

/// Traced passes in a traced run; the one with the median wall time is kept.
pub const TRACED_PASSES: usize = 3;

/// Run `pass` [`TRACED_PASSES`] times, each under a fresh tracer inside a
/// root span named `workload`, and keep the tracer and result of the pass
/// whose root span took the median time.
pub fn traced_median<P>(mut pass: impl FnMut(&Tracer) -> P) -> (Tracer, P) {
    let mut runs: Vec<(Tracer, P)> = (0..TRACED_PASSES)
        .map(|_| {
            let t = Tracer::new();
            let p = t.span("workload", 0.0, || pass(&t));
            (t, p)
        })
        .collect();
    runs.sort_by(|a, b| {
        a.0.duration_s("workload")
            .total_cmp(&b.0.duration_s("workload"))
    });
    runs.swap_remove(TRACED_PASSES / 2)
}

/// Run one workload by name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Option<Outcome> {
    Some(match name {
        "accession" => accession::run(opts),
        "tenant_mix" => tenant_mix::run(opts),
        "custody" => custody::run(opts),
        "perganet" => perganet::run(opts),
        _ => return None,
    })
}

/// The `--trace 0` metrics of an outcome.
pub fn end_to_end_metrics(o: &Outcome) -> Vec<Metric> {
    vec![
        Metric::sampled("setup_s", median(&o.setup_s), "s", o.setup_s.len()),
        Metric::new("peak_rss_mib", measure::peak_rss_mib(), "MiB"),
        Metric::sampled(
            "write_per_ref_s",
            median(&o.write.reference),
            "1/ref-s",
            o.write.len(),
        ),
        Metric::sampled(
            "check_per_ref_s",
            median(&o.check.reference),
            "1/ref-s",
            o.check.len(),
        ),
    ]
}

/// The `--trace 1` metrics of an outcome.
pub fn layer_metrics(o: &Outcome) -> Vec<Metric> {
    let empty = Tracer::new();
    let tracer = o.tracer.as_ref().unwrap_or(&empty);
    let summary = tracer.summary();
    let wall = tracer.duration_s("workload");
    let mut out = Vec::new();
    for (op, work) in LAYER_OPS {
        let s = summary.get(op).copied().unwrap_or_default();
        out.push(Metric::new(
            format!("{op}.share"),
            measure::ratio(s.self_s, wall),
            "ratio",
        ));
        match work {
            Work::Bytes => out.push(Metric::new(
                format!("{op}.mib_s"),
                measure::ratio(s.work / (1024.0 * 1024.0), s.busy_s),
                "MiB/s",
            )),
            Work::Items => out.push(Metric::new(
                format!("{op}.per_s"),
                measure::ratio(s.work, s.busy_s),
                "1/s",
            )),
        }
    }
    let e = &o.extras;
    out.push(Metric::new(
        "attributed_ratio",
        tracer.coverage("workload"),
        "ratio",
    ));
    out.push(Metric::new(
        "tracing_overhead_ratio",
        measure::ratio(wall, e.untraced_pass_s) - 1.0,
        "ratio",
    ));
    out.push(Metric::new(
        "par.par_map_call_us",
        measure::par_map_call_us(),
        "us",
    ));
    out.push(Metric::new(
        "io.write_calls_per_put",
        e.write_calls_per_put,
        "ratio",
    ));
    out.push(Metric::new(
        "io.bytes_written_per_user_byte",
        e.bytes_written_per_user_byte,
        "ratio",
    ));
    out.push(Metric::new(
        "wal.stored_bytes_per_user_byte",
        e.wal_stored_bytes_per_user_byte,
        "ratio",
    ));
    out
}

/// The final result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
