//! `perganet`: train the PergaNet pipeline (Fig. 1) with the small config
//! (100 parchments; 4/5/12 epochs), then `analyze_batch` 512 damage-1
//! parchments.
//!
//! Without this workload the `neural` conv layers and `itrust-par`'s
//! heaviest caller go unmeasured; it is where the cost of the parallel
//! substrate shows, and it never touches storage.
//!
//! `write_per_ref_s` is image-epochs trained per reference second;
//! `check_per_ref_s` is images analysed per reference second (medians over
//! passes; each pass trains a fresh model from the same seed). This
//! workload's reference seconds are plain CPU seconds.

use crate::measure::{another_pass, median, ref_timed, timed, Metric, Stopwatch, Tally};
use crate::reference::TimeBase;
use crate::trace::Tracer;
use crate::{traced_median, Outcome, RunOpts, TraceExtras};
use ::perganet::corpus::{generate as generate_corpus, CorpusConfig, Parchment, Side};
use ::perganet::image::GrayImage;
use ::perganet::pipeline::{PergaNet, TrainConfig};
use std::time::Instant;
use trustdb::hash::{Digest, Sha256};

/// How this workload counts the time behind its rates: plain CPU seconds
/// (see [`crate::reference`]). Its set-up, which renders the corpora with
/// integer and scalar arithmetic, is timed in SHA-256 reference seconds
/// like every other workload's: scaled so, its spread over eight runs fell
/// from 0.11 to 0.03.
pub const TIME_BASE: TimeBase = TimeBase::Cpu;

/// Training parchments (undamaged).
pub const TRAIN_COUNT: usize = 100;
/// The small training configuration.
pub const TRAIN: TrainConfig = TrainConfig {
    classifier_epochs: 4,
    text_epochs: 5,
    signum_epochs: 12,
    lr: 0.005,
    signum_lr: 0.002,
};
/// Seed of the training corpus. The training corpus and the model's
/// initialisation are fixed: with the small config, training converges for
/// only some corpora and initialisations (side accuracy 0.47–1.0 over 30
/// seed-derived pairs), and this pair converges, so the accuracy floor
/// checks the analysis path rather than training luck. Training time does
/// not depend on pixel values. The analysed parchments come from `--seed`.
pub const TRAIN_SEED: u64 = 85;
/// Model initialisation seed (see [`TRAIN_SEED`]).
pub const MODEL_SEED: u64 = 87;
/// Lowest recto/verso accuracy on the damage-1 set that counts as correct
/// (the fixed model scores 0.998–1.0 on seeds 1–16).
pub const SIDE_ACCURACY_FLOOR: f64 = 0.9;

/// Training and analysis corpora.
pub struct Inputs {
    /// Training parchments.
    pub train: Vec<Parchment>,
    /// Parchments to analyse.
    pub test: Vec<Parchment>,
}

/// Generate the inputs for `seed`; `analyze` parchments are damage level 1.
pub fn generate(analyze: usize, seed: u64) -> Inputs {
    Inputs {
        train: generate_corpus(CorpusConfig {
            count: TRAIN_COUNT,
            damage: 0,
            seed: TRAIN_SEED,
        }),
        test: generate_corpus(CorpusConfig {
            count: analyze,
            damage: 1,
            seed,
        }),
    }
}

/// SHA-256 over every pixel and side label.
pub fn input_digest(inputs: &Inputs) -> Digest {
    let mut h = Sha256::new();
    for p in inputs.train.iter().chain(&inputs.test) {
        for px in p.image.pixels() {
            h.update(&px.to_le_bytes());
        }
        h.update(&[p.truth.side.class() as u8]);
    }
    h.finalize()
}

/// What one analysis pass decided, compared across passes.
#[derive(Debug, PartialEq)]
struct Decisions {
    sides: Vec<Side>,
    text_boxes: Vec<usize>,
    signa: Vec<usize>,
}

fn train(net: &mut PergaNet, corpus: &[Parchment], tracer: Option<&Tracer>) {
    let n = corpus.len();
    match tracer {
        None => net.train(corpus, TRAIN),
        Some(t) => {
            t.span(
                "perganet.train_classifier",
                (n * TRAIN.classifier_epochs) as f64,
                || {
                    net.classifier
                        .train(corpus, TRAIN.classifier_epochs, TRAIN.lr)
                },
            );
            t.span(
                "perganet.train_text",
                (n * TRAIN.text_epochs) as f64,
                || net.text_detector.train(corpus, TRAIN.text_epochs, TRAIN.lr),
            );
            t.span(
                "perganet.train_signum",
                (n * TRAIN.signum_epochs) as f64,
                || {
                    net.signum_detector
                        .train(corpus, TRAIN.signum_epochs, TRAIN.signum_lr)
                },
            );
        }
    }
}

/// Analyse `images`: one `analyze_batch` call, or stage by stage through
/// the pipeline's public stage fields when tracing.
fn analyze(net: &mut PergaNet, images: &[GrayImage], tracer: Option<&Tracer>) -> Decisions {
    let Some(t) = tracer else {
        let analyses = net.analyze_batch(images);
        return Decisions {
            sides: analyses.iter().map(|a| a.side).collect(),
            text_boxes: analyses.iter().map(|a| a.text_boxes.len()).collect(),
            signa: analyses.iter().map(|a| a.signum_detections.len()).collect(),
        };
    };
    let mut d = Decisions {
        sides: Vec::new(),
        text_boxes: Vec::new(),
        signa: Vec::new(),
    };
    for image in images {
        let (side, _) = t.span("perganet.classify", 1.0, || net.classifier.predict(image));
        let boxes = t.span("perganet.detect_text", 1.0, || {
            net.text_detector.detect(image)
        });
        let mut masked = image.clone();
        for b in &boxes {
            masked.mask_rect(
                b.x0 as usize,
                b.y0 as usize,
                (b.x1 - b.x0) as usize,
                (b.y1 - b.y0) as usize,
            );
        }
        let signa = t.span("perganet.detect_signum", 1.0, || {
            net.signum_detector.detect(&masked)
        });
        d.sides.push(side);
        d.text_boxes.push(boxes.len());
        d.signa.push(signa.len());
    }
    d
}

fn pass(
    inputs: &Inputs,
    images: &[GrayImage],
    tracer: Option<&Tracer>,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Decisions {
    let mut net = PergaNet::new(MODEL_SEED);
    let t = Stopwatch::start();
    train(&mut net, &inputs.train, tracer);
    out.write.push(
        (inputs.train.len() * (TRAIN.classifier_epochs + TRAIN.text_epochs + TRAIN.signum_epochs))
            as f64,
        t,
    );

    let t = Stopwatch::start();
    let d = analyze(&mut net, images, tracer);
    out.check.push(images.len() as f64, t);

    tally.op(d.sides.len() == images.len(), || {
        format!("{} analyses for {} images", d.sides.len(), images.len())
    });
    let correct = d
        .sides
        .iter()
        .zip(&inputs.test)
        .filter(|(s, p)| **s == p.truth.side)
        .count();
    tally.attempted += images.len() as u64;
    let accuracy = correct as f64 / images.len().max(1) as f64;
    tally.op(accuracy >= SIDE_ACCURACY_FLOOR, || {
        format!("side accuracy {accuracy:.3} below {SIDE_ACCURACY_FLOOR}")
    });
    d
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let analyze_count = if opts.smoke { 32 } else { 512 };
    let mut out = Outcome::for_run(opts, TIME_BASE);
    let mut tally = Tally::default();

    let mut inputs = None;
    let mut digests = Vec::new();
    for _ in 0..opts.setup_reps(25) {
        let ((generated, net), dt) = ref_timed(TimeBase::Sha256, || {
            let generated = generate(analyze_count, opts.seed);
            let net = PergaNet::new(MODEL_SEED);
            (generated, net)
        });
        drop(net);
        out.setup_s.push(dt);
        digests.push(input_digest(&generated));
        inputs = Some(generated);
    }
    let inputs = inputs.expect("set-up runs at least once");
    tally.op(digests.windows(2).all(|w| w[0] == w[1]), || {
        "inputs differ between set-ups".into()
    });
    out.input_digest = digests[0].to_hex();
    let images: Vec<GrayImage> = inputs.test.iter().map(|p| p.image.clone()).collect();

    let mut pass_s = Vec::new();
    let mut first: Option<Decisions> = None;
    // Warm-up: one pass whose rates are dropped (its checks still count).
    if opts.warm_up() {
        pass(&inputs, &images, None, &mut tally, &mut Outcome::default());
    }
    let start = Instant::now();
    while another_pass(start, &pass_s, opts.untraced_seconds()) {
        let (d, dt) = timed(|| pass(&inputs, &images, None, &mut tally, &mut out));
        pass_s.push(dt);
        match &first {
            None => first = Some(d),
            Some(f) => tally.op(*f == d, || "analyses differ between passes".into()),
        }
    }
    let first = first.expect("at least one pass runs");
    let correct = first
        .sides
        .iter()
        .zip(&inputs.test)
        .filter(|(s, p)| **s == p.truth.side)
        .count();

    if opts.trace {
        let mut traced = Outcome::default();
        let (tracer, d) =
            traced_median(|t| pass(&inputs, &images, Some(t), &mut tally, &mut traced));
        tally.op(d == first, || {
            "stage-by-stage analysis differs from analyze_batch".into()
        });
        out.extras = TraceExtras {
            untraced_pass_s: median(&pass_s),
            ..TraceExtras::default()
        };
        out.tracer = Some(tracer);
    }

    out.details = vec![
        Metric::sampled(
            "train_images_s",
            median(&out.write.wall),
            "images/s",
            out.write.len(),
        ),
        Metric::sampled(
            "analyze_images_s",
            median(&out.check.wall),
            "images/s",
            out.check.len(),
        ),
        Metric::new(
            "side_accuracy",
            correct as f64 / images.len().max(1) as f64,
            "ratio",
        ),
        Metric::new("passes", pass_s.len() as f64, "count"),
    ];
    out.tally = tally;
    out
}
