//! Reduced-size runs of every workload: each passes its correctness checks,
//! and every metric it prints is named as in `BENCHMARK.json`.

use itrust_perfbench::{
    accession, custody, end_to_end_metrics, layer_metrics, perganet, run_workload, tenant_mix,
    valid_metric_name, RunOpts, WORKLOADS,
};
use serde_json::Value;
use std::path::PathBuf;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => {
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key}"))
                .1
        }
        _ => panic!("not an object"),
    }
}

fn string(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        _ => panic!("not a string"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => panic!("not an array"),
    }
}

/// `(name, unit)` of every entry in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let root = serde_json::parse_value(text.as_bytes()).expect("BENCHMARK.json parses");
    array(field(&root, list))
        .iter()
        .map(|m| (string(field(m, "name")), string(field(m, "unit"))))
        .collect()
}

fn smoke_opts(trace: bool) -> RunOpts {
    RunOpts {
        seed: 7,
        seconds: 0.01,
        trace,
        smoke: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{trace}")),
    }
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let root =
        serde_json::parse_value(&std::fs::read(path).expect("BENCHMARK.json")).expect("parses");
    let workloads: Vec<String> = array(field(&root, "workloads"))
        .iter()
        .map(|w| string(field(w, "name")))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = declared("end_to_end");
    assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
    for (name, _) in e2e.iter().chain(&declared("per_layer")) {
        assert!(valid_metric_name(name), "bad metric name {name}");
    }
}

#[test]
fn every_workload_passes_its_checks_and_prints_declared_metrics() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in WORKLOADS {
        for trace in [false, true] {
            let outcome = run_workload(w, &smoke_opts(trace)).expect("known workload");
            assert!(
                outcome.tally.correct(),
                "{w} (trace {trace}): {} of {} failed: {:?}",
                outcome.tally.failed,
                outcome.tally.attempted,
                outcome.tally.problems
            );
            for m in &outcome.details {
                assert!(
                    valid_metric_name(&m.name),
                    "{w}: bad detail name {}",
                    m.name
                );
            }
            let (metrics, names) = if trace {
                (layer_metrics(&outcome), &layers)
            } else {
                (end_to_end_metrics(&outcome), &e2e)
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&printed, names, "{w} (trace {trace})");
            for m in &metrics {
                assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
            }
            if !trace {
                assert!(
                    metrics.iter().all(|m| m.value > 0.0),
                    "{w}: zero metric in {metrics:?}"
                );
            } else {
                let coverage = metrics
                    .iter()
                    .find(|m| m.name == "attributed_ratio")
                    .unwrap();
                assert!(
                    coverage.value > 0.5 && coverage.value <= 1.0,
                    "{w}: {coverage:?}"
                );
            }
        }
    }
}

#[test]
fn the_same_seed_gives_identical_inputs() {
    let a = accession::Config {
        total_bytes: 1 << 20,
        sip_bytes: 1 << 19,
    };
    assert_eq!(
        accession::input_digest(&accession::generate(a, 3)),
        accession::input_digest(&accession::generate(a, 3))
    );
    assert_ne!(
        accession::input_digest(&accession::generate(a, 3)),
        accession::input_digest(&accession::generate(a, 4))
    );

    assert_eq!(
        tenant_mix::input_digest(&tenant_mix::generate(300, 3)),
        tenant_mix::input_digest(&tenant_mix::generate(300, 3))
    );
    assert_ne!(
        tenant_mix::input_digest(&tenant_mix::generate(300, 3)),
        tenant_mix::input_digest(&tenant_mix::generate(300, 4))
    );

    let c = custody::Config {
        events: 500,
        proofs: 10,
    };
    assert_eq!(
        custody::input_digest(&custody::generate(c, 3)),
        custody::input_digest(&custody::generate(c, 3))
    );
    assert_ne!(
        custody::input_digest(&custody::generate(c, 3)),
        custody::input_digest(&custody::generate(c, 4))
    );

    assert_eq!(
        perganet::input_digest(&perganet::generate(8, 3)),
        perganet::input_digest(&perganet::generate(8, 3))
    );
    assert_ne!(
        perganet::input_digest(&perganet::generate(8, 3)),
        perganet::input_digest(&perganet::generate(8, 4))
    );
}

#[test]
fn tenant_mix_gets_only_read_keys_the_same_client_put_earlier() {
    let script = tenant_mix::generate(20 * tenant_mix::CLIENTS, 5);
    let gets = script.iter().filter(|s| s.payload.is_none()).count();
    assert!(
        gets > 0 && gets < script.len() / 3,
        "{gets} gets of {}",
        script.len()
    );
    for (i, s) in script
        .iter()
        .enumerate()
        .filter(|(_, s)| s.payload.is_none())
    {
        let round_start = i - i % tenant_mix::CLIENTS;
        assert!(
            script[..round_start]
                .iter()
                .any(|p| p.payload.is_some() && p.key == s.key && p.tenant == s.tenant),
            "get of {} before its put completed",
            s.key
        );
    }
}
