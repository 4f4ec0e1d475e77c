//! `custody`: `Ledger::append` of synthetic provenance events with 4
//! evenly spaced checkpoints; after each, `WitnessExchange::collect` runs
//! with 3 witnesses (quorum 2). Then seeded `Ledger::prove` calls, each
//! checked with `CustodyProof::verify`, and a full `Ledger::verify`.
//!
//! This is the small fixed-size hash path (event seals, leaf and pair
//! hashes, HMAC signatures), with appends (write) beside proofs and the
//! audit (read). It uses no WAL, no large objects, and makes no `par_map`
//! call of its own.
//!
//! `write_per_ref_s` is events per reference second, counting appends,
//! checkpoints and witness collection (median over the 4 rounds of each
//! pass). `check_per_ref_s` is events per reference second through
//! `Ledger::verify` (median over passes).

use crate::measure::{another_pass, median, ref_timed, secs, timed, Metric, Stopwatch, Tally};
use crate::reference::TimeBase;
use crate::trace::{call, Tracer};
use crate::{traced_median, Outcome, RunOpts, TraceExtras};
use itrust_ledger::{IncrementalMerkle, Keyring, Ledger, SecretKey, Witness, WitnessExchange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use trustdb::antientropy::PartitionedBackend;
use trustdb::event::{EventBuilder, EventKind, LedgerEvent};
use trustdb::hash::{sha256_leaf, sha256_pair, Digest, Sha256};
use trustdb::store::MemoryBackend;
use trustdb::{Clock, ManualClock};

/// How this workload counts time: its dominant work is SHA-256 and HMAC
/// over small event records.
pub const TIME_BASE: TimeBase = TimeBase::Sha256;

/// Checkpoints cut per pass, evenly spaced.
pub const CHECKPOINTS: usize = 4;
/// Witnesses countersigning each checkpoint.
pub const WITNESSES: usize = 3;
/// Endorsements a proof must carry.
pub const QUORUM: usize = 2;
/// Distinct record subjects the events refer to.
const SUBJECTS: u32 = 997;

const KINDS: [EventKind; 5] = [
    EventKind::Ingest,
    EventKind::FixityCheck,
    EventKind::Access,
    EventKind::Migration,
    EventKind::Repair,
];
const ACTORS: [&str; 4] = ["ingestd", "auditor", "migrator", "reading-room"];

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Events appended per pass.
    pub events: usize,
    /// Custody proofs built and verified per pass.
    pub proofs: usize,
}

impl Config {
    /// 400k events and 4000 proofs, or 4000 and 100 for the smoke test.
    pub fn for_opts(opts: &RunOpts) -> Self {
        if opts.smoke {
            Config {
                events: 4_000,
                proofs: 100,
            }
        } else {
            Config {
                events: 400_000,
                proofs: 4_000,
            }
        }
    }
}

/// One generated event: kind, actor, subject, timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSpec {
    kind: u8,
    actor: u8,
    subject: u32,
    timestamp_ms: u64,
}

/// Seeded event stream and proof sample.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Events in append order (timestamps non-decreasing).
    pub events: Vec<EventSpec>,
    /// Event sequence numbers to prove.
    pub proofs: Vec<u64>,
}

/// Generate the inputs for `seed`.
pub fn generate(config: Config, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 1_000u64;
    let events = (0..config.events)
        .map(|_| {
            t += rng.gen_range(0..3u64);
            EventSpec {
                kind: rng.gen_range(0..KINDS.len() as u8),
                actor: rng.gen_range(0..ACTORS.len() as u8),
                subject: rng.gen_range(0..SUBJECTS),
                timestamp_ms: t,
            }
        })
        .collect();
    let proofs = (0..config.proofs)
        .map(|_| rng.gen_range(0..config.events as u64))
        .collect();
    Inputs { events, proofs }
}

/// SHA-256 over the event stream and the proof sample.
pub fn input_digest(inputs: &Inputs) -> Digest {
    let mut h = Sha256::new();
    for e in &inputs.events {
        h.update(&[e.kind, e.actor]);
        h.update(&e.subject.to_le_bytes());
        h.update(&e.timestamp_ms.to_le_bytes());
    }
    for p in &inputs.proofs {
        h.update(&p.to_le_bytes());
    }
    h.finalize()
}

fn builders(events: &[EventSpec]) -> Vec<EventBuilder> {
    events
        .iter()
        .map(|e| {
            LedgerEvent::builder(KINDS[e.kind as usize])
                .at(e.timestamp_ms)
                .actor(ACTORS[e.actor as usize])
                .subject(format!("rec-{:04}", e.subject))
                .outcome("success")
        })
        .collect()
}

fn keyring() -> Keyring {
    let mut ring = Keyring::new().with("custodian", SecretKey::derive("custodian"));
    for w in 1..=WITNESSES {
        let id = format!("w{w}");
        ring.insert(id.clone(), SecretKey::derive(&id));
    }
    ring
}

/// A fresh ledger and a witness exchange over partition-aware links.
fn open() -> (Ledger, WitnessExchange<MemoryBackend>) {
    let ledger = Ledger::new("custody", "custodian", keyring());
    let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
    let mut exchange = WitnessExchange::new();
    for w in 0..WITNESSES {
        let link = Arc::new(PartitionedBackend::new(
            MemoryBackend::new(),
            w,
            clock.clone(),
        ));
        exchange.register(Witness::new(format!("w{}", w + 1), keyring()), link);
    }
    (ledger, exchange)
}

/// Results of one pass that later passes must reproduce.
struct Pass {
    root: Option<Digest>,
    /// Event hashes in append order, kept only when tracing (for the probes).
    hashes: Vec<Digest>,
    proofs_s: f64,
}

fn pass(inputs: &Inputs, tracer: Option<&Tracer>, tally: &mut Tally, out: &mut Outcome) -> Pass {
    let (ledger, exchange) = open();
    let n = inputs.events.len();
    let mut builders = builders(&inputs.events).into_iter();
    let mut hashes = Vec::new();
    let last_ts = inputs.events.last().map_or(0, |e| e.timestamp_ms);
    let mut appended = 0;
    for round in 0..CHECKPOINTS {
        let upto = n * (round + 1) / CHECKPOINTS;
        let t = Stopwatch::start();
        for b in builders.by_ref().take(upto - appended) {
            match call(tracer, "ledger.append", 1.0, || ledger.append(b)) {
                Ok(e) if tracer.is_some() => hashes.push(e.hash),
                Ok(_) => {}
                Err(e) => tally.op(false, || format!("append: {e}")),
            }
        }
        let cp = call(tracer, "ledger.checkpoint", 1.0, || {
            ledger.checkpoint(last_ts + round as u64)
        });
        tally.op(cp.is_ok(), || {
            format!("checkpoint {round}: {:?}", cp.as_ref().err())
        });
        let report = call(tracer, "witness.collect", 1.0, || exchange.collect(&ledger));
        let ok = report
            .as_ref()
            .is_ok_and(|r| r.quorum && r.endorsements == WITNESSES);
        tally.op(ok, || format!("witness round {round}: {report:?}"));
        out.write.push((upto - appended) as f64, t);
        tally.attempted += (upto - appended) as u64;
        appended = upto;
    }

    let t = Instant::now();
    let mut sample = None;
    for &seq in &inputs.proofs {
        match call(tracer, "ledger.prove", 1.0, || ledger.prove(seq)) {
            Ok(proof) => {
                let v = call(tracer, "proof.verify", 1.0, || {
                    proof.verify(ledger.name(), ledger.keyring(), QUORUM)
                });
                tally.op(v.is_ok(), || format!("proof of {seq} rejected: {v:?}"));
                sample.get_or_insert(proof);
            }
            Err(e) => tally.op(false, || format!("prove {seq}: {e}")),
        }
    }
    let proofs_s = inputs.proofs.len() as f64 / secs(t);

    if let Some(mut proof) = sample {
        match proof.inclusion.path.first_mut() {
            Some(step) => step.sibling.0[0] ^= 1,
            None => proof.event.hash.0[0] ^= 1,
        }
        let v = proof.verify(ledger.name(), ledger.keyring(), QUORUM);
        tally.op(v.is_err(), || "a bit-flipped proof verified".into());
    }

    let t = Stopwatch::start();
    let v = call(tracer, "ledger.verify", n as f64, || ledger.verify());
    out.check.push(n as f64, t);
    tally.op(v.is_ok(), || format!("ledger audit failed: {v:?}"));

    let root = ledger.latest_checkpoint().map(|s| s.checkpoint.events_root);
    Pass {
        root,
        hashes,
        proofs_s,
    }
}

/// Time the ledger's hashing layers on the pass's own event hashes.
fn probes(hashes: &[Digest], root: Option<Digest>, tracer: &Tracer, tally: &mut Tally) {
    let leaves = tracer.span(
        "hash.leaf_pair",
        (hashes.len() + hashes.len() / 2) as f64,
        || {
            let leaves: Vec<Digest> = hashes.iter().map(|h| sha256_leaf(&h.0)).collect();
            let pairs: Vec<Digest> = leaves
                .chunks_exact(2)
                .map(|p| sha256_pair(&p[0], &p[1]))
                .collect();
            std::hint::black_box(pairs);
            leaves
        },
    );
    let mut tree = IncrementalMerkle::new();
    tracer.span("merkle.incremental_push", leaves.len() as f64, || {
        for l in &leaves {
            tree.push(*l);
        }
    });
    tally.op(tree.root() == root, || {
        "incremental merkle root differs from the checkpoint".into()
    });
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let config = Config::for_opts(opts);
    let mut out = Outcome::for_run(opts, TIME_BASE);
    let mut tally = Tally::default();

    let mut inputs = None;
    let mut digests = Vec::new();
    for _ in 0..opts.setup_reps(5) {
        let ((generated, staged, opened), dt) = ref_timed(TIME_BASE, || {
            let generated = generate(config, opts.seed);
            let staged = builders(&generated.events);
            (generated, staged, open())
        });
        drop((staged, opened));
        out.setup_s.push(dt);
        digests.push(input_digest(&generated));
        inputs = Some(generated);
    }
    let inputs = inputs.expect("set-up runs at least once");
    tally.op(digests.windows(2).all(|w| w[0] == w[1]), || {
        "inputs differ between set-ups".into()
    });
    out.input_digest = digests[0].to_hex();

    let mut pass_s = Vec::new();
    let mut proofs_s = Vec::new();
    let mut first_root = None;
    // Warm-up: one pass whose rates are dropped (its checks still count).
    if opts.warm_up() {
        pass(&inputs, None, &mut tally, &mut Outcome::default());
    }
    let start = Instant::now();
    while another_pass(start, &pass_s, opts.untraced_seconds()) {
        let (p, dt) = timed(|| pass(&inputs, None, &mut tally, &mut out));
        pass_s.push(dt);
        proofs_s.push(p.proofs_s);
        match first_root {
            None => first_root = Some(p.root),
            Some(r) => tally.op(r == p.root, || {
                "checkpoint roots differ between passes".into()
            }),
        }
    }

    if opts.trace {
        let mut traced = Outcome::default();
        let (tracer, p) = traced_median(|t| pass(&inputs, Some(t), &mut tally, &mut traced));
        tracer.span("probes", 0.0, || {
            probes(&p.hashes, p.root, &tracer, &mut tally)
        });
        out.extras = TraceExtras {
            untraced_pass_s: median(&pass_s),
            ..TraceExtras::default()
        };
        out.tracer = Some(tracer);
    }

    out.details = vec![
        Metric::sampled(
            "append_events_s",
            median(&out.write.wall),
            "events/s",
            out.write.len(),
        ),
        Metric::sampled("proofs_s", median(&proofs_s), "proofs/s", proofs_s.len()),
        Metric::sampled(
            "audit_events_s",
            median(&out.check.wall),
            "events/s",
            out.check.len(),
        ),
        Metric::new("events", config.events as f64, "count"),
        Metric::new("passes", pass_s.len() as f64, "count"),
    ];
    out.tally = tally;
    out
}
