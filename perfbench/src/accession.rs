//! `accession`: the Table 1 fond mix ingested through `Repository::ingest`
//! on a `MemoryBackend`, then `Repository::fixity_sweep`.
//!
//! This is the hash-bound large-object path. Object sizes straddle the
//! store's 64 KiB parallel-hash threshold (32 KiB, 256 KiB and 4 MiB by
//! count 70:25:5), so a change to large-object hashing shows here. The
//! workload never touches a WAL and computes only a few small hashes.
//!
//! `write_per_ref_s` is MiB ingested per reference second (median over
//! single-SIP ingests); `check_per_ref_s` is MiB fixity-swept per reference
//! second (median over sweeps).

use crate::measure::{
    another_pass, median, mib, ref_timed, timed, IoCounters, Metric, Stopwatch, Tally,
};
use crate::reference::TimeBase;
use crate::trace::{call, Tracer};
use crate::{traced_median, Outcome, RunOpts, TraceExtras};
use archival_core::ingest::Repository;
use archival_core::oais::{Sip, SubmissionItem};
use archival_core::provenance::ProvenanceChain;
use archival_core::record::{Classification, DocumentaryForm, Record};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use trustdb::event::EventKind;
use trustdb::hash::{sha256, sha256_leaf, sha256_pair, Digest, Sha256};
use trustdb::merkle::MerkleTree;
use trustdb::store::{MemoryBackend, ObjectStore};

/// How this workload counts time: its dominant work is SHA-256 hashing of
/// the objects.
pub const TIME_BASE: TimeBase = TimeBase::Sha256;

/// Table 1 of the paper: fond and size in TB. SIPs are drawn from these
/// fonds in proportion to their size.
pub const FONDS: [(&str, f64); 8] = [
    ("Trademarks series (UIBM)", 30.0),
    ("Official collection of laws and decrees", 15.0),
    ("Fund A5G (First World War)", 1.0),
    ("Special collections (declassified)", 2.0),
    ("Judgments of military courts", 3.0),
    ("Various photographic funds", 2.0),
    ("Digitised study room inventories", 15.0),
    ("National Archives of the US", 1323.0),
];

/// Object size classes and their share of objects, in percent.
pub const OBJECT_CLASSES: [(usize, u32); 3] = [(32 << 10, 70), (256 << 10, 25), (4 << 20, 5)];

/// Objects at or above this size take the store's parallel-hash path.
pub const LARGE_OBJECT_BYTES: usize = 64 << 10;

/// Fixity sweeps per pass.
const SWEEPS_PER_PASS: usize = 2;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Bytes ingested per pass.
    pub total_bytes: usize,
    /// Bytes per SIP.
    pub sip_bytes: usize,
}

impl Config {
    /// Sizes for `opts`: 128 MiB in 16 MiB SIPs, or 8 MiB in 4 MiB SIPs for
    /// the smoke test.
    pub fn for_opts(opts: &RunOpts) -> Self {
        if opts.smoke {
            Config {
                total_bytes: 8 << 20,
                sip_bytes: 4 << 20,
            }
        } else {
            Config {
                total_bytes: 128 << 20,
                sip_bytes: 16 << 20,
            }
        }
    }
}

fn pick_fond(rng: &mut StdRng) -> &'static str {
    let total: f64 = FONDS.iter().map(|f| f.1).sum();
    let mut x = rng.gen::<f64>() * total;
    for (name, tb) in FONDS {
        if x < tb {
            return name;
        }
        x -= tb;
    }
    FONDS[FONDS.len() - 1].0
}

fn pick_size(rng: &mut StdRng) -> usize {
    let mut x = rng.gen_range(0..100u32);
    for (size, pct) in OBJECT_CLASSES {
        if x < pct {
            return size;
        }
        x -= pct;
    }
    OBJECT_CLASSES[0].0
}

/// Generate the SIPs for `seed`: byte-identical for the same seed.
pub fn generate(config: Config, seed: u64) -> Vec<Sip> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sips = config.total_bytes.div_ceil(config.sip_bytes);
    let mut out = Vec::with_capacity(sips);
    for s in 0..sips {
        let fond = pick_fond(&mut rng);
        let slug = fond.to_lowercase().replace(' ', "-");
        let mut sip = Sip::new("State Central Archives", 1_000 + s as u64);
        let mut left = config
            .sip_bytes
            .min(config.total_bytes - s * config.sip_bytes);
        let mut i = 0usize;
        while left > 0 {
            let size = pick_size(&mut rng).min(left);
            left -= size;
            let mut blob = vec![0u8; size];
            rng.fill(&mut blob[..]);
            let id = format!("{slug}/{s:03}/{i:05}");
            let record = Record::over_content(
                id.clone(),
                format!("{fond}: scan {i}"),
                "State Central Archives",
                500,
                "digitisation-programme",
                DocumentaryForm::visual("image/tiff"),
                Classification::Public,
                &blob,
            );
            let mut provenance = ProvenanceChain::new(id);
            provenance
                .append(
                    400,
                    "scanner-lab",
                    EventKind::Creation,
                    "success",
                    "digitised master",
                )
                .expect("a fresh chain accepts its first event");
            sip = sip.with_item(SubmissionItem {
                record,
                content: blob,
                provenance,
            });
            i += 1;
        }
        out.push(sip);
    }
    out
}

/// SHA-256 over every record id and content digest, in order.
pub fn input_digest(sips: &[Sip]) -> Digest {
    let mut h = Sha256::new();
    for sip in sips {
        for item in &sip.items {
            h.update(item.record.id.as_str().as_bytes());
            h.update(&item.record.content_digest.0);
        }
    }
    h.finalize()
}

fn open_repository() -> Repository<MemoryBackend> {
    Repository::new(ObjectStore::new(MemoryBackend::new()))
}

/// Results of one pass that later passes must reproduce.
struct Pass {
    roots: Vec<Digest>,
}

/// Ingest every SIP into a fresh repository, then sweep it.
fn pass(sips: &[Sip], tracer: Option<&Tracer>, tally: &mut Tally, out: &mut Outcome) -> Pass {
    let repo = open_repository();
    let mut roots = Vec::with_capacity(sips.len());
    let mut objects = 0usize;
    for (s, sip) in sips.iter().enumerate() {
        let sip = sip.clone();
        let items = sip.items.len();
        let bytes = sip.payload_bytes();
        let t = Stopwatch::start();
        let result = call(tracer, "ingest.total", bytes as f64, || {
            repo.ingest(sip, 2_000 + s as u64, "archivist")
        });
        match result {
            Ok(receipt) => {
                let ok = receipt.record_count == items && receipt.payload_bytes == bytes;
                tally.attempted += items as u64;
                if !ok {
                    tally.op(false, || format!("SIP {s}: receipt counts do not match"));
                }
                out.write.push(mib(bytes), t);
                roots.push(receipt.merkle_root);
                objects += items + 1;
            }
            Err(e) => {
                tally.attempted += items as u64;
                tally.failed += items as u64;
                tally.problems.push(format!("SIP {s}: ingest failed: {e}"));
            }
        }
    }
    for k in 0..SWEEPS_PER_PASS {
        let t = Stopwatch::start();
        let result = call(
            tracer,
            "fixity.sweep",
            repo.store().payload_bytes() as f64,
            || repo.fixity_sweep(10_000 + k as u64),
        );
        match result {
            Ok(report) => {
                tally.attempted += report.checked as u64;
                tally.failed += report.incidents.len() as u64;
                tally.op(report.is_clean() && report.checked == objects, || {
                    format!(
                        "fixity sweep: {} checked, {} expected, {} incidents",
                        report.checked,
                        objects,
                        report.incidents.len()
                    )
                });
                out.check.push(mib(report.bytes_verified), t);
            }
            Err(e) => tally.op(false, || format!("fixity sweep failed: {e}")),
        }
    }
    Pass { roots }
}

/// Time each layer the ingest path uses, one public call at a time, over the
/// same SIPs.
fn probes(sips: &[Sip], roots: &[Digest], tracer: &Tracer, tally: &mut Tally) {
    for (s, sip) in sips.iter().enumerate() {
        let problems = tracer.span("ingest.validate", sip.payload_bytes() as f64, || {
            sip.validate()
        });
        tally.op(problems.is_empty(), || {
            format!("SIP {s}: {} validation problems", problems.len())
        });

        let large = ObjectStore::new(MemoryBackend::new());
        for item in &sip.items {
            let expected = item.record.content_digest;
            let d = tracer.span("hash.sha256", item.content.len() as f64, || {
                sha256(&item.content)
            });
            tally.op(d == expected, || {
                format!("{}: sha256 mismatch", item.record.id)
            });
            if item.content.len() >= LARGE_OBJECT_BYTES {
                let b = Bytes::from(item.content.clone());
                let d = tracer.span("hash.large_object", b.len() as f64, || large.put(b));
                tally.op(d.ok() == Some(expected), || {
                    format!("{}: store digest mismatch", item.record.id)
                });
            }
        }

        let store = ObjectStore::new(MemoryBackend::new());
        let contents: Vec<Vec<u8>> = sip.items.iter().map(|i| i.content.clone()).collect();
        let digests = tracer.span("store.put_many", sip.payload_bytes() as f64, || {
            store.put_many(contents)
        });
        let expected: Vec<Digest> = sip.items.iter().map(|i| i.record.content_digest).collect();
        tally.op(digests.as_ref().ok() == Some(&expected), || {
            format!("SIP {s}: put_many digests")
        });

        let leaves: Vec<Vec<u8>> = expected.iter().map(|d| d.0.to_vec()).collect();
        let tree = tracer.span("merkle.build", leaves.len() as f64, || {
            MerkleTree::from_leaves(leaves)
        });
        tally.op(tree.map(|t| t.root()) == roots.get(s).copied(), || {
            format!("SIP {s}: merkle root differs from the receipt")
        });

        tracer.span("hash.leaf_pair", (2 * expected.len()) as f64, || {
            let leaves: Vec<Digest> = expected.iter().map(|d| sha256_leaf(&d.0)).collect();
            let mut acc = Digest::zero();
            for l in &leaves {
                acc = sha256_pair(&acc, l);
            }
            std::hint::black_box(acc)
        });
    }
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let config = Config::for_opts(opts);
    let mut out = Outcome::for_run(opts, TIME_BASE);
    let mut tally = Tally::default();

    let mut sips = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..opts.setup_reps(3) {
        drop(std::mem::take(&mut sips));
        let ((generated, repo), dt) = ref_timed(TIME_BASE, || {
            (generate(config, opts.seed), open_repository())
        });
        drop(repo);
        out.setup_s.push(dt);
        digests.push(input_digest(&generated));
        sips = generated;
    }
    tally.op(digests.windows(2).all(|w| w[0] == w[1]), || {
        "inputs differ between set-ups".into()
    });
    out.input_digest = digests[0].to_hex();

    // Warm-up: one pass whose rates are dropped (its checks still count).
    if opts.warm_up() {
        pass(&sips, None, &mut tally, &mut Outcome::default());
    }
    let start = Instant::now();
    let mut pass_s = Vec::new();
    let mut first: Option<Pass> = None;
    while another_pass(start, &pass_s, opts.untraced_seconds()) {
        let (p, dt) = timed(|| pass(&sips, None, &mut tally, &mut out));
        pass_s.push(dt);
        match &first {
            None => first = Some(p),
            Some(f) => tally.op(f.roots == p.roots, || {
                "merkle roots differ between passes".into()
            }),
        }
    }
    let roots = first.map(|p| p.roots).unwrap_or_default();

    if opts.trace {
        let mut traced = Outcome::default();
        let (tracer, io) = traced_median(|t| {
            let io = IoCounters::now();
            pass(&sips, Some(t), &mut tally, &mut traced);
            IoCounters::now().since(io)
        });
        tracer.span("probes", 0.0, || probes(&sips, &roots, &tracer, &mut tally));
        let objects: usize = sips.iter().map(|s| s.items.len()).sum();
        let bytes: u64 = sips.iter().map(|s| s.payload_bytes()).sum();
        out.extras = TraceExtras {
            untraced_pass_s: median(&pass_s),
            write_calls_per_put: io.write_calls as f64 / objects.max(1) as f64,
            bytes_written_per_user_byte: io.write_bytes as f64 / bytes.max(1) as f64,
            wal_stored_bytes_per_user_byte: 0.0,
        };
        out.tracer = Some(tracer);
    }

    let objects: Vec<usize> = sips
        .iter()
        .flat_map(|s| s.items.iter().map(|i| i.content.len()))
        .collect();
    let large = objects.iter().filter(|&&n| n >= LARGE_OBJECT_BYTES).count();
    out.details = vec![
        Metric::sampled(
            "ingest_mib_s",
            median(&out.write.wall),
            "MiB/s",
            out.write.len(),
        ),
        Metric::sampled(
            "fixity_mib_s",
            median(&out.check.wall),
            "MiB/s",
            out.check.len(),
        ),
        Metric::new(
            "input_mib",
            mib(objects.iter().sum::<usize>() as u64),
            "MiB",
        ),
        Metric::new("objects", objects.len() as f64, "count"),
        Metric::new("large_objects", large as f64, "count"),
        Metric::new("passes", pass_s.len() as f64, "count"),
    ];
    out.tally = tally;
    out
}
