//! The benchmark's own contract: every workload, at a tiny size, reports
//! every declared metric with its unit and no failed run; a wrong oracle
//! fingerprint is counted as failure; `BENCHMARK.json` declares exactly
//! the workloads and metrics the benchmark prints.

use lsds_perfbench::layers::PER_LAYER;
use lsds_perfbench::{run, Size, Spec, END_TO_END, WORKLOADS};

fn spec(workload: &str, trace: bool) -> Spec {
    Spec {
        workload: workload.into(),
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        corrupt_oracle: false,
    }
}

fn names_and_units(report: &lsds_perfbench::harness::Report) -> Vec<(&str, &str)> {
    report.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for &w in WORKLOADS {
        let r = run(&spec(w, false)).expect("known workload");
        assert_eq!(names_and_units(&r), END_TO_END, "{w}");
        assert_eq!(r.tally.failed, 0, "{w}: {:?}", r.lines);
        assert!(r.tally.attempted >= 2, "{w}: oracle plus a timed run");
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{w}: {m:?}");
        }
        let line = r.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for &w in WORKLOADS {
        let r = run(&spec(w, true)).expect("known workload");
        assert_eq!(names_and_units(&r), PER_LAYER, "{w}");
        assert_eq!(r.tally.failed, 0, "{w}: {:?}", r.lines);
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value >= 0.0, "{w}: {m:?}");
        }
        assert!(r.get("core.events").unwrap() > 0.0, "{w}");
        assert!(r.get("trace.wall_s").unwrap() > 0.0, "{w}");
        assert!(r.get("trace.untraced_wall_s").unwrap() > 0.0, "{w}");
    }
}

#[test]
fn layers_light_up_on_their_workloads() {
    let net = run(&spec("net_1m_100k", true)).unwrap();
    assert!(net.get("core.queue.ops").unwrap() > 0.0);
    assert!(net.get("net.flow.calls").unwrap() > 0.0);
    assert_eq!(net.get("grid.jobs"), Some(0.0));
    let lhc = run(&spec("lhc_analysis", true)).unwrap();
    assert_eq!(lhc.get("grid.jobs"), Some(2000.0));
    assert!(lhc.get("grid.shipped").unwrap() > 0.0);
    assert!(net.get("obs.tracer_overhead").unwrap() > 0.0);
    for engine in ["cmb", "timestep", "timewarp"] {
        let r = run(&spec(&format!("e4_ring.{engine}"), true)).unwrap();
        for metric in ["speedup", "cpus_busy", "model_share"] {
            let name = format!("parallel.{engine}.{metric}");
            assert!(r.get(&name).unwrap() > 0.0, "{name}");
        }
        assert_eq!(r.get("core.queue.ops"), Some(0.0), "{engine}");
    }
    let cmb = run(&spec("e4_ring.cmb", true)).unwrap();
    assert!(cmb.get("parallel.cmb.nulls_per_event").unwrap() > 0.0);
    assert!(cmb.get("obs.tracer_overhead").unwrap() > 0.0);
    assert_eq!(cmb.get("parallel.worksteal.speedup"), Some(0.0));
    let ts = run(&spec("e4_ring.timestep", true)).unwrap();
    assert!(ts.get("parallel.timestep.windows").unwrap() > 0.0);
    let tw = run(&spec("e4_ring.timewarp", true)).unwrap();
    assert!(tw.get("parallel.timewarp.gvt_rounds").unwrap() > 0.0);
    let zipf = run(&spec("zipf_32lp.worksteal", true)).unwrap();
    assert!(zipf.get("parallel.partition.imbalance").unwrap() >= 1.0);
    assert!(zipf.get("parallel.worksteal.speedup").unwrap() > 0.0);
    assert!(zipf.get("parallel.worksteal.steals").unwrap() > 0.0);
}

#[test]
fn wrong_oracle_fingerprint_counts_every_run_as_failed() {
    for &w in WORKLOADS {
        for trace in [false, true] {
            let mut s = spec(w, trace);
            s.corrupt_oracle = true;
            let r = run(&s).expect("known workload");
            // the oracle run itself succeeded; every checked run disagrees
            assert!(r.tally.attempted >= 2, "{w}");
            assert_eq!(r.tally.failed, r.tally.attempted - 1, "{w}");
            assert!(r.result_line().starts_with("{\"correct\": false"), "{w}");
            assert!(r.lines.iter().any(|l| l.starts_with("FAILED")), "{w}");
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run(&spec("no_such_workload", false)).is_err());
}

/// `"name": "...", … "unit": "..."` pairs in order, from a slice of JSON.
fn declared(section: &str) -> Vec<(String, String)> {
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let end = s[at..].find('"')? + at;
        Some((s[at..end].to_string(), end))
    };
    let mut out = Vec::new();
    let mut rest = section;
    while let Some((name, end)) = field(rest, "name") {
        rest = &rest[end..];
        let unit = field(rest, "unit").map(|(u, _)| u).unwrap_or_default();
        out.push((name, unit));
    }
    out
}

#[test]
fn benchmark_json_matches_the_metrics_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let w = text.find("\"workloads\"").unwrap();
    let e = text.find("\"end_to_end\"").unwrap();
    let p = text.find("\"per_layer\"").unwrap();
    assert!(
        w < e && e < p,
        "sections in order: workloads, end_to_end, per_layer"
    );
    let workloads: Vec<String> = declared(&text[w..e]).into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&text[e..p]), owned(END_TO_END));
    assert_eq!(declared(&text[p..]), owned(PER_LAYER));
}
