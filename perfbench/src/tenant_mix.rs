//! `tenant_mix`: a closed loop of 64 clients across 4 tenants (Table 1
//! weights 30:15:15:2) on a durable 8-shard service.
//!
//! Each round every client submits one request to `ServiceExecutor::submit`
//! (`ExecutorConfig::unthrottled()`), then one `tick` runs. 80% of requests
//! put a 128–1151 B payload under a new key; 20% get one of the client's
//! own earlier keys. Shards log to `SyncPolicy::GroupCommit` WALs in a fresh
//! directory on the checkout's disk, deleted afterwards. This is the only
//! durable, WAL-bound, small-object workload: it measures the executor's
//! per-tick `par_map` and the acknowledged-write path, and barely touches
//! large-object hashing.
//!
//! `write_per_ref_s` is completed requests per reference second (median over
//! windows of 16 rounds). `check_per_ref_s` is acknowledged puts recovered
//! per reference second: the store is dropped, reopened from its WAL directory,
//! and every acknowledged put is read back and compared, together with the
//! shards' fixity roots.

use crate::measure::{
    another_pass, median, percentile, ref_timed, timed, IoCounters, Metric, Stopwatch, Tally,
};
use crate::reference::TimeBase;
use crate::trace::{call, Tracer};
use crate::{traced_median, Outcome, RunOpts, TraceExtras};
use bytes::Bytes;
use itrust_obs::ObsCtx;
use itrust_service::{
    shard_of, ExecutorConfig, OpOutput, Quota, Request, ServiceExecutor, ShardedConfig,
    ShardedStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trustdb::audit::AuditLog;
use trustdb::event::EventKind;
use trustdb::hash::{sha256, sha256_leaf, sha256_pair, Digest, Sha256};
use trustdb::store::{MemoryBackend, ObjectStore};
use trustdb::wal::{SyncPolicy, Wal};
use trustdb::ManualClock;

/// How this workload counts time: besides system calls, its work is
/// SHA-256 over payloads and WAL frames.
pub const TIME_BASE: TimeBase = TimeBase::Sha256;

/// Tenants and their clients: Table 1 weights 30:15:15:2 spread over 64
/// clients by largest remainder.
pub const TENANTS: [(&str, usize); 4] = [
    ("trademarks", 31),
    ("laws-decrees", 16),
    ("inventories", 15),
    ("declassified", 2),
];

/// Closed-loop clients (sum of [`TENANTS`] client counts).
pub const CLIENTS: usize = 64;
/// Shards of the service.
pub const SHARDS: usize = 8;
/// Share of requests that are gets, in percent.
pub const GET_PERCENT: u32 = 20;
/// Payload sizes, bytes.
pub const PAYLOAD_BYTES: std::ops::RangeInclusive<usize> = 128..=1151;
/// Rounds per `write_per_ref_s` window.
const WINDOW_ROUNDS: usize = 16;
/// The flush policy, the same on both sides of any comparison.
pub const SYNC: SyncPolicy = SyncPolicy::GroupCommit;

/// One scripted request.
#[derive(Debug, Clone)]
pub struct Scripted {
    /// Index into [`TENANTS`].
    pub tenant: usize,
    /// Key within the tenant.
    pub key: String,
    /// Payload of a put; `None` for a get.
    pub payload: Option<Bytes>,
    /// SHA-256 of the payload put (or expected back from a get).
    pub digest: Digest,
}

impl Scripted {
    fn request(&self) -> Request {
        let tenant = TENANTS[self.tenant].0.to_string();
        let key = self.key.clone();
        match &self.payload {
            Some(payload) => Request::Put {
                tenant,
                key,
                payload: payload.clone(),
            },
            None => Request::Get { tenant, key },
        }
    }
}

/// Generate `requests` scripted requests, round by round, for `seed`.
pub fn generate(requests: usize, seed: u64) -> Vec<Scripted> {
    let mut rng = StdRng::seed_from_u64(seed);
    let client_tenant: Vec<usize> = TENANTS
        .iter()
        .enumerate()
        .flat_map(|(t, &(_, n))| std::iter::repeat_n(t, n))
        .collect();
    let mut keys: Vec<Vec<(String, Digest)>> = vec![Vec::new(); CLIENTS];
    let mut out = Vec::with_capacity(requests);
    'rounds: loop {
        for (client, &tenant) in client_tenant.iter().enumerate() {
            if out.len() == requests {
                break 'rounds;
            }
            let own = &mut keys[client];
            if !own.is_empty() && rng.gen_range(0..100u32) < GET_PERCENT {
                let (key, digest) = own[rng.gen_range(0..own.len())].clone();
                out.push(Scripted {
                    tenant,
                    key,
                    payload: None,
                    digest,
                });
            } else {
                let mut payload = vec![0u8; rng.gen_range(PAYLOAD_BYTES)];
                rng.fill(&mut payload[..]);
                let digest = sha256(&payload);
                let key = format!("c{client:02}-{:05}", own.len());
                own.push((key.clone(), digest));
                out.push(Scripted {
                    tenant,
                    key,
                    payload: Some(Bytes::from(payload)),
                    digest,
                });
            }
        }
    }
    out
}

/// SHA-256 over every request's tenant, key, kind and digest.
pub fn input_digest(script: &[Scripted]) -> Digest {
    let mut h = Sha256::new();
    for s in script {
        h.update(&[s.tenant as u8, s.payload.is_some() as u8]);
        h.update(s.key.as_bytes());
        h.update(&s.digest.0);
    }
    h.finalize()
}

fn config(dir: &Path) -> ShardedConfig {
    ShardedConfig::durable(SHARDS, dir, SYNC)
}

fn open(dir: &Path) -> trustdb::Result<ShardedStore> {
    let store = ShardedStore::open(&config(dir), ObsCtx::null())?;
    for (name, _) in TENANTS {
        store.register_tenant(name, Quota::unlimited())?;
    }
    Ok(store)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty scratch directory under `opts.out_dir`.
fn fresh_dir(opts: &RunOpts, label: &str) -> PathBuf {
    let dir = opts
        .out_dir
        .join(format!("tenant_mix-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Totals of one pass.
struct Pass {
    roots: Vec<Digest>,
    acked_puts: u64,
    acked_bytes: u64,
    wal_bytes: u64,
}

/// Run the script once against a fresh durable store, then recover it.
fn pass(
    script: &[Scripted],
    dir: &Path,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
    out: &mut Outcome,
    latencies_ms: &mut Vec<f64>,
) -> Pass {
    let store = match open(dir) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            tally.op(false, || format!("open {}: {e}", dir.display()));
            return Pass {
                roots: Vec::new(),
                acked_puts: 0,
                acked_bytes: 0,
                wal_bytes: 0,
            };
        }
    };
    let clock = Arc::new(ManualClock::new());
    let exec = ServiceExecutor::new(store.clone(), clock.clone(), ExecutorConfig::unthrottled());
    let mut by_seq: BTreeMap<u64, usize> = BTreeMap::new();
    let mut completions = Vec::with_capacity(script.len());

    let mut window_start = Stopwatch::start();
    let mut window_ops = 0usize;
    for (round, chunk) in script.chunks(CLIENTS).enumerate() {
        let base = round * CLIENTS;
        let requests: Vec<Request> = chunk.iter().map(Scripted::request).collect();
        let mut submitted = Vec::with_capacity(chunk.len());
        for (i, req) in requests.into_iter().enumerate() {
            let t = Instant::now();
            match call(tracer, "executor.submit", 1.0, || exec.submit(req)) {
                Ok(seq) => {
                    by_seq.insert(seq, base + i);
                    submitted.push(t);
                }
                Err(e) => tally.op(false, || format!("submit {}: {e}", script[base + i].key)),
            }
        }
        let done = call(tracer, "executor.tick", submitted.len() as f64, || {
            exec.tick()
        });
        let now = Instant::now();
        latencies_ms.extend(submitted.iter().map(|t| (now - *t).as_secs_f64() * 1e3));
        window_ops += done.len();
        completions.extend(done);
        clock.advance_ms(1);
        if (round + 1) % WINDOW_ROUNDS == 0 {
            out.write.push(window_ops as f64, window_start);
            window_start = Stopwatch::start();
            window_ops = 0;
        }
    }

    if window_ops > 0 {
        out.write.push(window_ops as f64, window_start);
    }

    let mut acked: Vec<usize> = Vec::new();
    let mut acked_bytes = 0u64;
    tally.op(completions.len() == by_seq.len(), || {
        format!(
            "{} requests submitted, {} completed",
            by_seq.len(),
            completions.len()
        )
    });
    for c in &completions {
        let Some(&idx) = by_seq.get(&c.seq) else {
            tally.op(false, || format!("completion for unknown seq {}", c.seq));
            continue;
        };
        let s = &script[idx];
        let ok = match &c.outcome {
            Ok(OpOutput::Put(p)) => p.digest == s.digest && !p.deduplicated,
            Ok(OpOutput::Get(bytes)) => sha256(bytes) == s.digest,
            Err(_) => false,
        };
        tally.op(ok, || {
            format!(
                "{}/{}: wrong result {:?}",
                TENANTS[s.tenant].0,
                s.key,
                c.outcome.as_ref().err()
            )
        });
        if ok {
            if let Some(p) = &s.payload {
                acked.push(idx);
                acked_bytes += p.len() as u64;
            }
        }
    }
    let roots = store.fixity_roots();
    drop(exec);
    drop(store);
    let wal_bytes = dir_bytes(dir);

    // Recovery: reopen from the WAL directory alone and read back every
    // acknowledged put.
    let t = Stopwatch::start();
    match call(tracer, "shard.open", acked.len() as f64, || open(dir)) {
        Ok(store) => {
            for &idx in &acked {
                let s = &script[idx];
                let ok = store
                    .get(TENANTS[s.tenant].0, &s.key)
                    .map(|b| sha256(&b) == s.digest);
                tally.op(ok.unwrap_or(false), || {
                    format!("{} lost after reopen", s.key)
                });
            }
            tally.op(store.fixity_roots() == roots, || {
                "fixity roots changed after reopen".into()
            });
            out.check.push(acked.len() as f64, t);
        }
        Err(e) => tally.op(false, || format!("reopen: {e}")),
    }
    let _ = std::fs::remove_dir_all(dir);
    Pass {
        roots,
        acked_puts: acked.len() as u64,
        acked_bytes,
        wal_bytes,
    }
}

/// Time the layers under a put and a get one public call at a time, on the
/// workload's own payloads, with the same flush policy and disk.
fn probes(script: &[Scripted], opts: &RunOpts, tracer: &Tracer, tally: &mut Tally) {
    let names: Vec<(&str, &str)> = script
        .iter()
        .map(|s| (TENANTS[s.tenant].0, s.key.as_str()))
        .collect();
    let routes = tracer.span("shard.route", names.len() as f64, || {
        names
            .iter()
            .map(|(t, k)| shard_of(SHARDS, t, k))
            .collect::<Vec<_>>()
    });
    tally.op(routes.iter().all(|&r| r < SHARDS), || {
        "shard_of out of range".into()
    });

    let puts: Vec<&Scripted> = script.iter().filter(|s| s.payload.is_some()).collect();
    let payload = |s: &Scripted| s.payload.clone().unwrap_or_default();

    let dir = fresh_dir(opts, "probe");
    match open(&dir) {
        Ok(store) => {
            for (i, s) in puts.iter().enumerate() {
                let p = payload(s);
                let r = tracer.span("shard.put", 1.0, || {
                    store.put(TENANTS[s.tenant].0, &s.key, p, i as u64)
                });
                tally.op(r.ok() == Some(s.digest), || format!("probe put {}", s.key));
            }
            for s in script.iter().filter(|s| s.payload.is_none()) {
                let r = tracer.span("shard.get", 1.0, || store.get(TENANTS[s.tenant].0, &s.key));
                tally.op(r.map(|b| sha256(&b) == s.digest).unwrap_or(false), || {
                    format!("probe get {}", s.key)
                });
            }
        }
        Err(e) => tally.op(false, || format!("probe open: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let dir = fresh_dir(opts, "wal");
    let wal = std::fs::create_dir_all(&dir)
        .map_err(trustdb::Error::from)
        .and_then(|_| Wal::open(dir.join("probe.wal"), SYNC));
    match wal {
        Ok(wal) => {
            for s in &puts {
                let mut frame = Vec::with_capacity(64 + s.key.len());
                frame.extend_from_slice(TENANTS[s.tenant].0.as_bytes());
                frame.extend_from_slice(s.key.as_bytes());
                frame.extend_from_slice(&s.digest.0);
                frame.extend_from_slice(&payload(s));
                let r = tracer.span("wal.append", 1.0, || wal.append(&frame));
                tally.op(r.is_ok(), || format!("wal append {}", s.key));
            }
        }
        Err(e) => tally.op(false, || format!("probe wal: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let audit = AuditLog::new();
    let objects = ObjectStore::new(MemoryBackend::new());
    for (i, s) in puts.iter().enumerate() {
        let actor = format!("tenant:{}", TENANTS[s.tenant].0);
        let subject = format!("{}/{}", TENANTS[s.tenant].0, s.key);
        let detail = s.digest.to_hex();
        let r = tracer.span("audit.append", 1.0, || {
            audit.append(i as u64, actor, EventKind::Ingest, subject, detail)
        });
        tally.op(r.is_ok(), || format!("audit append {}", s.key));
        let p = payload(s);
        let r = tracer.span("store.put", 1.0, || objects.put(p));
        tally.op(r.ok() == Some(s.digest), || format!("store put {}", s.key));
    }

    let bytes: usize = puts
        .iter()
        .map(|s| s.payload.as_ref().map_or(0, |p| p.len()))
        .sum();
    let digests = tracer.span("hash.sha256", bytes as f64, || {
        puts.iter()
            .map(|s| sha256(s.payload.as_deref().unwrap_or_default()))
            .collect::<Vec<_>>()
    });
    tally.op(
        digests.iter().zip(&puts).all(|(d, s)| *d == s.digest),
        || "probe sha256".into(),
    );
    tracer.span("hash.leaf_pair", (2 * puts.len()) as f64, || {
        let mut acc = Digest::zero();
        for s in &puts {
            acc = sha256_pair(&acc, &sha256_leaf(&s.digest.0));
        }
        std::hint::black_box(acc)
    });
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let requests = if opts.smoke { 10 * CLIENTS } else { 20_000 };
    let mut out = Outcome::for_run(opts, TIME_BASE);
    let mut tally = Tally::default();

    let mut script = Vec::new();
    let mut digests = Vec::new();
    for rep in 0..opts.setup_reps(9) {
        let dir = fresh_dir(opts, &format!("setup{rep}"));
        let ((generated, store), dt) =
            ref_timed(TIME_BASE, || (generate(requests, opts.seed), open(&dir)));
        out.setup_s.push(dt);
        tally.op(store.is_ok(), || format!("open {}", dir.display()));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        digests.push(input_digest(&generated));
        script = generated;
    }
    tally.op(digests.windows(2).all(|w| w[0] == w[1]), || {
        "inputs differ between set-ups".into()
    });
    out.input_digest = digests[0].to_hex();

    let mut latencies = Vec::with_capacity(4 * requests);
    let mut pass_s = Vec::new();
    let mut first: Option<Pass> = None;
    // Warm-up: one pass whose rates are dropped (its checks still count).
    if opts.warm_up() {
        let dir = fresh_dir(opts, "warmup");
        let sink = &mut Outcome::default();
        pass(&script, &dir, None, &mut tally, sink, &mut Vec::new());
    }
    let start = Instant::now();
    let mut n = 0;
    while another_pass(start, &pass_s, opts.untraced_seconds()) {
        let dir = fresh_dir(opts, &format!("pass{n}"));
        n += 1;
        let (p, dt) = timed(|| pass(&script, &dir, None, &mut tally, &mut out, &mut latencies));
        pass_s.push(dt);
        match &first {
            None => first = Some(p),
            Some(f) => tally.op(f.roots == p.roots, || {
                "fixity roots differ between passes".into()
            }),
        }
    }
    let first = first.expect("at least one pass runs");

    if opts.trace {
        let mut traced = Outcome::default();
        let mut traced_lat = Vec::new();
        let mut k = 0;
        let (tracer, (p, io)) = traced_median(|t| {
            let dir = fresh_dir(opts, &format!("traced{k}"));
            k += 1;
            let io = IoCounters::now();
            let p = pass(
                &script,
                &dir,
                Some(t),
                &mut tally,
                &mut traced,
                &mut traced_lat,
            );
            (p, IoCounters::now().since(io))
        });
        tracer.span("probes", 0.0, || probes(&script, opts, &tracer, &mut tally));
        out.extras = TraceExtras {
            untraced_pass_s: median(&pass_s),
            write_calls_per_put: io.write_calls as f64 / p.acked_puts.max(1) as f64,
            bytes_written_per_user_byte: io.write_bytes as f64 / p.acked_bytes.max(1) as f64,
            wal_stored_bytes_per_user_byte: p.wal_bytes as f64 / p.acked_bytes.max(1) as f64,
        };
        out.tracer = Some(tracer);
    }

    out.details = vec![
        Metric::sampled("ops_s", median(&out.write.wall), "ops/s", out.write.len()),
        Metric::sampled(
            "request_p50_ms",
            percentile(&latencies, 0.50),
            "ms",
            latencies.len(),
        ),
        Metric::sampled(
            "request_p99_ms",
            percentile(&latencies, 0.99),
            "ms",
            latencies.len(),
        ),
        Metric::new(
            "stored_bytes_per_user_byte",
            first.wal_bytes as f64 / first.acked_bytes.max(1) as f64,
            "ratio",
        ),
        Metric::sampled(
            "recovered_puts_s",
            median(&out.check.wall),
            "puts/s",
            out.check.len(),
        ),
        Metric::new("requests", requests as f64, "count"),
        Metric::new("passes", pass_s.len() as f64, "count"),
    ];
    out.tally = tally;
    out
}
