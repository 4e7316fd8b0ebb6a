//! `baryon-perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-baryon --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one named workload for `--seconds`, checks every output against
//! an in-process reference, prints notes and then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced run reports the per-layer ones. Exits non-zero when a
//! correctness check fails. See `perfbench/README.md` for the glossary.

mod drive;
mod fleet;
mod report;
mod sim;
mod stats;
mod trace;

use report::Report;
use std::path::Path;
use std::process::ExitCode;

/// Scratch and span output, relative to the checkout root.
pub const OUT_DIR: &str = "perfbench/out";

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["sim-baryon", "sim-baseline-ckpt", "jobs-fleet"];

/// End-to-end metrics, with units, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_minsts_per_s", "Minst/s"),
    ("peak_rss_mb", "MiB"),
    ("interactive_p50_ms", "ms"),
    ("batch_minsts_per_s", "Minst/s"),
];

/// Per-layer metrics of the sim workloads, with units.
pub const SIM_PER_LAYER: [(&str, &str); 32] = [
    ("workloads.next_op.self_ms", "ms"),
    ("workloads.next_op.ns_per_call", "ns"),
    ("workloads.ops", "count"),
    ("cache.private.self_ms", "ms"),
    ("cache.private.ns_per_call", "ns"),
    ("cache.shared.self_ms", "ms"),
    ("cache.shared.ns_per_call", "ns"),
    ("cache.l1d_hit_rate", "ratio"),
    ("cache.l2_hit_rate", "ratio"),
    ("cache.llc_mpki", "1/kinst"),
    ("core.read.self_ms", "ms"),
    ("core.read.ns_per_call", "ns"),
    ("core.reads", "count"),
    ("core.writeback.self_ms", "ms"),
    ("core.writeback.ns_per_call", "ns"),
    ("core.writebacks", "count"),
    ("core.stage_hit_rate", "ratio"),
    ("core.commit_abort_rate", "ratio"),
    ("core.remap_cache_hit_rate", "ratio"),
    ("core.fast_serve_rate", "ratio"),
    ("core.bloat_factor", "ratio"),
    ("compress.decompressions", "count"),
    ("compress.avg_cf", "ratio"),
    ("mem.fast_row_hit_rate", "ratio"),
    ("mem.slow_bytes_per_read", "B/read"),
    ("sim.merge.self_ms", "ms"),
    ("ckpt.serialize.ms_per_snapshot", "ms"),
    ("ckpt.write.ms_per_snapshot", "ms"),
    ("ckpt.bytes_per_snapshot", "B"),
    ("ckpt.snapshots", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace is 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Every metric the mode promises is present once, and no other. In a
/// traced run, a layer the workload does not exercise reads 0.
fn check_metric_set(report: &mut Report, trace: bool) {
    let expected: Vec<(&str, &str)> = if trace {
        SIM_PER_LAYER
            .iter()
            .chain(&fleet::PER_LAYER)
            .copied()
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    if trace {
        for (name, unit) in &expected {
            if !report.metrics.iter().any(|m| m.name == *name) {
                report.metric(name, 0.0, unit);
            }
        }
    }
    let got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let missing: Vec<_> = expected.iter().filter(|e| !got.contains(e)).collect();
    let extra: Vec<_> = got.iter().filter(|g| !expected.contains(g)).collect();
    let ok = missing.is_empty() && extra.is_empty() && got.len() == expected.len();
    let what = format!("metric set: missing {missing:?}, unexpected {extra:?}");
    report.check(ok, || what);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--shard") {
        return fleet::run_shard(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let mut report = match args.workload.as_str() {
        "sim-baryon" => sim::run(
            sim::SimKind::Baryon,
            args.seed,
            args.seconds,
            args.trace,
            out,
        ),
        "sim-baseline-ckpt" => sim::run(
            sim::SimKind::BaselineCkpt,
            args.seed,
            args.seconds,
            args.trace,
            out,
        ),
        _ => fleet::run(args.seed, args.seconds, args.trace, out),
    };
    check_metric_set(&mut report, args.trace);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "failed_frac = {} / {} = {}",
        report.failed,
        report.attempted,
        report.failed_frac()
    );
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.result_json().render());
    if report.failed == 0 && report.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_sim::json::{parse, Json};

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Json::Obj(pairs) = doc else {
            panic!("object")
        };
        let Some((_, Json::Arr(items))) = pairs.iter().find(|(k, _)| k == key) else {
            panic!("{key} is an array")
        };
        items
            .iter()
            .map(|item| {
                let Json::Obj(fields) = item else {
                    panic!("entry")
                };
                let field = |f: &str| match fields.iter().find(|(k, _)| k == f) {
                    Some((_, Json::Str(s))) => s.clone(),
                    _ => String::new(),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_benchmark_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        let per_layer: Vec<(&str, &str)> = SIM_PER_LAYER
            .iter()
            .chain(&fleet::PER_LAYER)
            .copied()
            .collect();
        assert_eq!(names(&doc, "per_layer"), own(&per_layer));
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_are_checked_where_they_enter() {
        let ok = |s: &str| parse_args(&s.split(' ').map(str::to_owned).collect::<Vec<_>>());
        let a = ok("--workload jobs-fleet --seed 3 --seconds 2 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(ok("--workload nope --seed 1").is_err());
        assert!(ok("--workload sim-baryon --seed x").is_err());
        assert!(ok("--workload sim-baryon --seed 1 --trace 2").is_err());
        assert!(ok("--workload sim-baryon --seed 1 --seconds 0").is_err());
        assert!(ok("--workload sim-baryon").is_err());
    }
}
