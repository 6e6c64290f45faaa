//! The repository benchmark. Runs one seeded workload through the
//! cs-traffic crates' public API, checks the outputs, and prints every
//! metric by name and unit; the last stdout line is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records
//! spans around the calls into each layer and prints the per-layer
//! metrics instead. `BENCHMARK.json` at the repository root names each
//! metric with its unit and direction; `catalogue.json` defines it.

mod city;
mod common;
mod fleet;

use common::{Outcome, RunArgs, Tracer};
use std::path::{Path, PathBuf};
use telemetry::json::Json;

const CATALOGUE: &str = include_str!("../catalogue.json");
const WORKLOADS: [&str; 2] = ["fleet-ingest", "city-lowrank"];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (want one of {WORKLOADS:?})"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok((workload, RunArgs { seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) }))
}

/// One metric of `BENCHMARK.json`, with the workloads that drive it
/// from `catalogue.json`.
struct Metric {
    name: String,
    unit: String,
    per_layer: bool,
    workloads: Vec<String>,
}

/// The metrics of `BENCHMARK.json` and the per-workload NMAE ceilings
/// of `catalogue.json`.
struct Catalogue {
    metrics: Vec<Metric>,
    nmae_ceiling: Vec<(String, f64)>,
}

fn str_list(j: Option<&Json>) -> Vec<String> {
    match j {
        Some(Json::Arr(items)) => {
            items.iter().filter_map(|s| s.as_str().map(String::from)).collect()
        }
        _ => Vec::new(),
    }
}

impl Catalogue {
    /// Names and units come from `BENCHMARK.json`; `catalogue.json`
    /// must define exactly those metrics.
    fn load() -> Result<Self, String> {
        let path = manifest_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let bench = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let doc = Json::parse(CATALOGUE).map_err(|e| format!("catalogue.json: {e}"))?;
        let Some(defined @ Json::Obj(pairs)) = doc.get("metrics") else {
            return Err("catalogue.json: missing metrics".into());
        };
        let mut metrics = Vec::new();
        for (section, per_layer) in [("end_to_end", false), ("per_layer", true)] {
            let Some(Json::Arr(items)) = bench.get(section) else {
                return Err(format!("BENCHMARK.json: missing {section}"));
            };
            for m in items {
                let field = |k: &str| m.get(k).and_then(Json::as_str).map(String::from);
                let name = field("name").ok_or("BENCHMARK.json: metric without name")?;
                let def = defined.get(&name);
                if def.and_then(|d| d.get("definition")).is_none() {
                    return Err(format!("catalogue.json: no definition of {name}"));
                }
                metrics.push(Metric {
                    unit: field("unit").ok_or(format!("BENCHMARK.json: {name} has no unit"))?,
                    workloads: str_list(def.and_then(|d| d.get("workloads"))),
                    name,
                    per_layer,
                });
            }
        }
        if let Some((extra, _)) = pairs.iter().find(|(k, _)| !metrics.iter().any(|m| m.name == *k))
        {
            return Err(format!(
                "catalogue.json defines {extra}, which BENCHMARK.json does not list"
            ));
        }
        let nmae_ceiling = WORKLOADS
            .iter()
            .map(|w| {
                doc.get("nmae_ceiling")
                    .and_then(|c| c.get(w))
                    .and_then(Json::as_num)
                    .map(|v| (w.to_string(), v))
                    .ok_or(format!("catalogue.json: no nmae_ceiling for {w}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { metrics, nmae_ceiling })
    }
}

/// Writes the traced run's spans under `perfbench/out/`.
pub fn write_trace(tr: &Tracer, workload: &str, seed: u64, out: &mut Outcome) {
    let name = format!("{workload}-seed{seed}.spans.jsonl");
    match tr.write_jsonl(&manifest_dir().join("out").join(&name)) {
        Ok(()) => out.note("spans_file", format!("perfbench/out/{name}")),
        Err(e) => out.fail(format!("writing perfbench/out/{name}: {e}")),
    }
}

/// `git rev-parse HEAD` without running git: read `.git` of the
/// repository root when there is one.
fn git_rev() -> String {
    let git = manifest_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the program sources (`crates/`) and the benchmark's own,
/// so results from a checkout without git history stay attributable.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = manifest_dir().join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&manifest_dir().join("src"), &mut files);
    files.sort();
    let mut h = common::Digest::default();
    for f in files {
        h.write_bytes(&std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let catalogue = match Catalogue::load() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    let mut out = match workload.as_str() {
        "fleet-ingest" => fleet::run(args),
        _ => city::run(args),
    };

    let (_, limit) = catalogue
        .nmae_ceiling
        .iter()
        .find(|(w, _)| *w == workload)
        .expect("Catalogue::load requires a ceiling for every workload");
    let nmae = out.nmae;
    out.check(nmae.is_finite() && nmae <= *limit, || {
        format!("nmae {nmae} is over the {workload} ceiling {limit}")
    });

    // Exactly the catalogued metrics of this mode; a per-layer metric of
    // a layer this workload does not drive reads 0.
    let mut metrics = Vec::new();
    for m in catalogue.metrics.iter().filter(|m| m.per_layer == args.trace) {
        let value = match out.metrics.get(m.name.as_str()) {
            Some(&v) => v,
            None if m.per_layer && !m.workloads.contains(&workload) => 0.0,
            None => {
                out.fail(format!("metric {} was not measured", m.name));
                continue;
            }
        };
        if !value.is_finite() {
            out.fail(format!("metric {} is not finite", m.name));
            continue;
        }
        metrics.push((m.name.clone(), m.unit.clone(), value));
    }
    let unknown: Vec<String> = out
        .metrics
        .keys()
        .filter(|name| {
            !catalogue.metrics.iter().any(|m| m.name == **name && m.per_layer == args.trace)
        })
        .map(|name| format!("metric {name} is not in BENCHMARK.json"))
        .collect();
    out.failures.extend(unknown);

    println!(
        "# perfbench {workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, unit, value) in &metrics {
        println!("# {name:<34} {value:>16.6} {unit}");
    }
    for note in &out.sample_notes {
        println!("# samples {note}");
    }
    for f in &out.failures {
        eprintln!("perfbench: FAIL: {f}");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut context = vec![
        ("workload".to_string(), Json::Str(workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("git_rev".into(), Json::Str(git_rev())),
        ("source_digest".into(), Json::Str(source_digest())),
        ("nproc".into(), Json::Num(nproc as f64)),
    ];
    context.extend(out.context.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))));
    context.push((
        "samples".into(),
        Json::Arr(out.sample_notes.iter().map(|s| Json::Str(s.clone())).collect()),
    ));
    println!("{}", Json::Obj(vec![("context".into(), Json::Obj(context))]).encode());

    let correct = out.failures.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, value)| {
                        let v = Json::Obj(vec![
                            ("value".into(), Json::Num(value)),
                            ("unit".into(), Json::Str(unit)),
                        ]);
                        (name, v)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.encode());
    std::process::exit(if correct { 0 } else { 1 });
}
