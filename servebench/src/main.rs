//! `servebench` — the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload paper-forest --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run generates the workload's fixed corpus, derives the session
//! script from `--seed`, sets the server up (three times; the median is
//! `setup_s`), drives load over loopback TCP for `--seconds`, checks
//! every answer, and prints the metrics `BENCHMARK.json` declares:
//! the end-to-end ones with `--trace 0`, the per-layer ones from the
//! traced run with `--trace 1`. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--steadiness N` runs the workload N times in child processes, with
//! seeds `--seed`..`--seed`+N-1, and prints each end-to-end metric's
//! median, quartiles and spread against its bound. See `README.md`.

mod json;
mod replay;
mod stats;
mod steady;
mod tcp;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use seesaw_core::{save_index, PreprocessConfig, Preprocessor};
use seesaw_metrics::{average_precision, SearchTrace};

use crate::replay::Shown;
use crate::stats::{median, percentile};
use crate::tcp::TcpRun;
use crate::trace::{Span, Tracer};
use crate::workload::{Op, Setup, Workload, CONNECTIONS, PROTOCOL};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    /// Defaults to `run_seconds` in `BENCHMARK.json`.
    seconds: Option<f64>,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        steadiness: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if secs.is_nan() || secs <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(secs);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steadiness" => {
                args.steadiness = Some(value()?.parse().map_err(|e| format!("--steadiness: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The benchmark's directory; `BENCHMARK.json` is in its parent, the
/// repository root.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares: the end-to-end and per-layer metric
/// lists and the run length.
pub struct Declaration {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: f64,
}

pub fn declared() -> Result<Declaration, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Vec<Declared> {
        doc.get(key)
            .map(json::Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|m| Declared {
                name: m
                    .get("name")
                    .and_then(json::Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                unit: m
                    .get("unit")
                    .and_then(json::Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                better: m
                    .get("better")
                    .and_then(json::Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                bound: m.get("bound").and_then(json::Value::as_f64),
            })
            .collect()
    };
    let run_seconds = doc
        .get("run_seconds")
        .and_then(json::Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    Ok(Declaration {
        end_to_end: list("end_to_end"),
        per_layer: list("per_layer"),
        run_seconds,
    })
}

/// A measured metric with the number of samples behind it.
struct Measured {
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    metrics: BTreeMap<String, Measured>,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.into(),
            Measured {
                value,
                unit,
                samples,
            },
        );
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload::find(&args.workload) else {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        eprintln!("servebench: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let declaration = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(declaration.run_seconds);
    if let Some(n) = args.steadiness {
        return steady::run(&wl, args.seed, seconds, n, &declaration.end_to_end);
    }
    let declared = if args.trace {
        &declaration.per_layer
    } else {
        &declaration.end_to_end
    };
    println!(
        "# servebench workload={} seed={} seconds={} trace={}",
        wl.name,
        args.seed,
        seconds,
        u8::from(args.trace)
    );
    let outcome = run(&wl, args.seed, seconds, args.trace);
    let (report, attempted, failed, error) = match outcome {
        Ok((report, attempted, failed)) => (report, attempted, failed, None),
        Err(e) => (Report::default(), 1, 0, Some(e)),
    };
    for line in &report.notes {
        println!("# {line}");
    }
    let mut out = Vec::new();
    let mut missing = Vec::new();
    for d in declared {
        match report.metrics.get(&d.name) {
            Some(m) => {
                println!("metric {} {} {} (n={})", d.name, m.value, m.unit, m.samples);
                if m.unit != d.unit {
                    missing.push(format!(
                        "{} has unit {} but BENCHMARK.json says {}",
                        d.name, m.unit, d.unit
                    ));
                }
                out.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&d.name),
                    json::num(m.value),
                    json::quote(m.unit)
                ));
            }
            None if error.is_none() => missing.push(format!("{} was not measured", d.name)),
            None => {}
        }
    }
    for (name, m) in &report.metrics {
        if !declared.iter().any(|d| &d.name == name) {
            println!("# also {name} {} {} (n={})", m.value, m.unit, m.samples);
        }
    }
    if let Some(e) = &error {
        println!("# FAILED: {e}");
        eprintln!("servebench: {e}");
    }
    for m in &missing {
        eprintln!("servebench: {m}");
    }
    let correct = error.is_none() && missing.is_empty();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        attempted,
        failed,
        out.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resident-set high-water mark of this process, in MiB.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One run of a workload. Returns the report and the request counts.
fn run(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Report, usize, usize), String> {
    let mut report = Report::default();
    let dataset = Arc::new(wl.dataset());
    let plans = wl.script(&dataset, seed);
    let work = bench_dir().join("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let index_file = work.join(format!("{}-{}.ssawidx", wl.name, std::process::id()));
    let result = run_in(
        wl,
        seed,
        seconds,
        traced,
        &dataset,
        &plans,
        &index_file,
        &mut report,
    );
    let _ = std::fs::remove_file(&index_file);
    result.map(|(a, f)| (report, a, f))
}

#[allow(clippy::too_many_arguments)]
fn run_in(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    dataset: &Arc<seesaw_dataset::SyntheticDataset>,
    plans: &[workload::Plan],
    index_file: &Path,
    report: &mut Report,
) -> Result<(usize, usize), String> {
    let mut tracer = Tracer::new(traced);
    let cfg = PreprocessConfig::fast();
    if wl.setup == Setup::Load {
        // The index file the cold start loads, written before timing.
        let id = tracer.id();
        let index = tracer.time(id, "preprocess.build", wl.name, None, 0, false, || {
            Preprocessor::new(cfg.clone()).build(dataset)
        });
        let id = tracer.id();
        tracer
            .time(id, "persist.save_index", wl.name, None, 0, false, || {
                save_index(&index, index_file)
            })
            .map_err(|e| format!("save_index: {e}"))?;
    }

    // Set-up: several times untraced (median), once traced.
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        if let Some(old) = served.take() {
            let old: tcp::Served = old;
            old.server.shutdown();
        }
        let (s, secs) = tcp::set_up(wl, dataset, index_file, plans[0].concept, &mut tracer)?;
        setup_s.push(secs);
        served = Some(s);
    }
    let served = served.ok_or("no set-up ran")?;
    let index = Arc::clone(&served.index);
    if traced && wl.setup == Setup::Build {
        // Time the persist layer on the index just built.
        let id = tracer.id();
        tracer
            .time(id, "persist.save_index", wl.name, None, 0, false, || {
                save_index(&index, index_file)
            })
            .map_err(|e| format!("save_index: {e}"))?;
        let id = tracer.id();
        tracer
            .time(id, "persist.load_index", wl.name, None, 0, false, || {
                seesaw_core::load_index(index_file, &cfg)
            })
            .map_err(|e| format!("load_index: {e}"))?;
    }

    report.note(format!(
        "meta nproc={} simd={:?} rows={} images={} dim={} store={} load=closed connections={CONNECTIONS} server=ServerConfig::default()",
        nproc(),
        seesaw_linalg::active_tier(),
        index.n_patches(),
        index.n_images(),
        index.dim,
        wl.store_label(),
    ));
    report.note(format!(
        "script sessions={} queries={} methods={} stop={}found/{}shown abandoned={}",
        plans.len(),
        wl.queries,
        wl.methods
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join(","),
        PROTOCOL.target_results,
        PROTOCOL.image_budget,
        plans.iter().filter(|p| p.abandon).count()
    ));

    let live = traced.then(|| served.service.as_ref());
    let tcp_run = tcp::run(
        served.server.local_addr(),
        dataset,
        plans,
        seed,
        seconds,
        live,
    )?;
    let rss_mb = vm_hwm_mb();
    let server_stats = served.server.shutdown();

    // Correctness of the TCP run on its own.
    for s in &tcp_run.sessions {
        if let Some(f) = &s.fault {
            if f.is_correctness() {
                return Err(format!(
                    "{} (session {} pass {})",
                    f.describe(),
                    s.plan,
                    s.pass
                ));
            }
        }
    }
    let first_pass: Vec<Option<Shown>> = (0..plans.len())
        .map(|i| {
            tcp_run
                .sessions
                .iter()
                .find(|s| s.plan == i && s.pass == 0 && s.fault.is_none())
                .map(|s| Shown {
                    images: s.shown.clone(),
                    relevance: s.relevance.clone(),
                })
        })
        .collect();
    for s in tcp_run.sessions.iter().filter(|s| s.fault.is_none()) {
        if let Some(Some(first)) = first_pass.get(s.plan) {
            if first.images != s.shown {
                return Err(format!(
                    "sequence_mismatch: script session {} shows different images in pass {} than in pass 0",
                    s.plan, s.pass
                ));
            }
        }
    }

    let attempted: usize = tcp_run.sessions.iter().map(|s| s.requests.len()).sum();
    let failed: usize = tcp_run
        .sessions
        .iter()
        .map(|s| s.requests.iter().filter(|r| !r.ok).count())
        .sum();
    let ap_tcp = mean_ap(dataset, plans, &first_pass);

    // In-process replays: A untraced always; traced runs add a traced A
    // and replay B.
    let mut untraced = Tracer::new(false);
    let replay_a = replay::replay_a(dataset, &index, plans, &mut untraced)
        .map_err(|f| format!("replay A: {}", f.describe()))?;
    compare("replay A", &first_pass, &replay_a.sessions)?;
    let ap_a = mean_ap(
        dataset,
        plans,
        &replay_a
            .sessions
            .iter()
            .cloned()
            .map(Some)
            .collect::<Vec<_>>(),
    );
    if ap_tcp.map(f64::to_bits) != ap_a.map(f64::to_bits) {
        return Err(format!(
            "mean_ap_mismatch: TCP {ap_tcp:?} vs replay A {ap_a:?}"
        ));
    }
    let Some(ap) = ap_tcp else {
        return Err("first pass of the script did not complete".into());
    };

    if !traced {
        end_to_end(&tcp_run, &setup_s, rss_mb, ap, attempted, failed, report);
        return Ok((attempted, failed));
    }

    let a_start = tracer.spans.len();
    let traced_a = replay::replay_a(dataset, &index, plans, &mut tracer)
        .map_err(|f| format!("traced replay A: {}", f.describe()))?;
    compare("traced replay A", &first_pass, &traced_a.sessions)?;
    // A second untraced replay brackets the traced one; the faster of
    // the two is the baseline for the tracing overhead.
    let again = replay::replay_a(dataset, &index, plans, &mut untraced)
        .map_err(|f| format!("replay A: {}", f.describe()))?;
    let untraced_a_wall_s = replay_a.wall_s.min(again.wall_s);
    let b_start = tracer.spans.len();
    let replay_b = replay::replay_b(dataset, &index, plans, &mut tracer)
        .map_err(|f| format!("replay B: {}", f.describe()))?;
    compare("replay B", &first_pass, &replay_b.sessions)?;
    let ap_b = mean_ap(
        dataset,
        plans,
        &replay_b
            .sessions
            .iter()
            .cloned()
            .map(Some)
            .collect::<Vec<_>>(),
    );
    if ap_b.map(f64::to_bits) != Some(ap.to_bits()) {
        return Err(format!("mean_ap_mismatch: TCP {ap} vs replay B {ap_b:?}"));
    }

    let file_mb = std::fs::metadata(index_file).map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0));
    let spans = &tracer.spans;
    per_layer(
        &spans[..a_start],
        &spans[a_start..b_start],
        &spans[b_start..replay_b.script_spans],
        &spans[b_start..],
        &replay_b,
        &tcp_run,
        &traced_a,
        untraced_a_wall_s,
        server_stats.requests_rejected_saturated,
        file_mb,
        report,
    );
    let trace_file = bench_dir()
        .join("work")
        .join(format!("trace-{}-{}.tsv", wl.name, seed));
    std::fs::write(&trace_file, tracer.to_tsv())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    report.note(format!(
        "spans written to {} ({} spans)",
        trace_file.display(),
        tracer.spans.len()
    ));
    Ok((attempted, failed))
}

/// A session's shown images must be the same in every path.
fn compare(what: &str, tcp: &[Option<Shown>], replay: &[Shown]) -> Result<(), String> {
    for (i, (t, r)) in tcp.iter().zip(replay).enumerate() {
        if let Some(t) = t {
            if t != r {
                return Err(format!(
                    "sequence_mismatch: script session {i} differs between the TCP run and {what} \
                     (first {} vs {} images)",
                    t.images.len(),
                    r.images.len()
                ));
            }
        }
    }
    Ok(())
}

/// Mean §5.1 Average Precision over the script; `None` unless every
/// session of it completed.
fn mean_ap(
    dataset: &seesaw_dataset::SyntheticDataset,
    plans: &[workload::Plan],
    sessions: &[Option<Shown>],
) -> Option<f64> {
    if sessions.len() != plans.len() {
        return None;
    }
    let mut aps = Vec::with_capacity(plans.len());
    for (plan, s) in plans.iter().zip(sessions) {
        let s = s.as_ref()?;
        let total = dataset.truth.relevant_images(plan.concept).len();
        aps.push(average_precision(
            &SearchTrace::new(s.relevance.clone()),
            total,
            &PROTOCOL,
        ));
    }
    // Sum in a fixed order: the script's order follows the seed, and
    // the mean must not.
    aps.sort_by(f64::total_cmp);
    let sum: f64 = aps.iter().sum();
    Some(sum / plans.len() as f64)
}

fn end_to_end(
    run: &TcpRun,
    setup_s: &[f64],
    rss_mb: f64,
    mean_ap: f64,
    attempted: usize,
    failed: usize,
    report: &mut Report,
) {
    // Latency: requests written inside the window. Throughput: replies
    // that arrived inside it.
    let (start, end) = (run.warmup_s, run.warmup_s + run.window_s);
    let mut by_op: BTreeMap<Op, Vec<f64>> = BTreeMap::new();
    let mut iter_ms = Vec::new();
    let mut completed = 0usize;
    for s in &run.sessions {
        for (i, r) in s.requests.iter().enumerate() {
            completed += usize::from(r.ok && r.done_s >= start && r.done_s < end);
            if r.sent_s < start || r.sent_s >= end {
                continue;
            }
            by_op.entry(r.op).or_default().push(r.latency_s * 1e3);
            if r.op == Op::Feedback {
                if let Some(next) = s.requests.get(i + 1).filter(|n| n.op == Op::NextBatch) {
                    iter_ms.push((r.latency_s + next.latency_s) * 1e3);
                }
            }
        }
    }
    let empty = Vec::new();
    let ms = |op: Op| by_op.get(&op).unwrap_or(&empty);
    report.put("setup_s", median(setup_s), "s", setup_s.len());
    report.put(
        "req_per_s",
        completed as f64 / run.window_s,
        "1/s",
        completed,
    );
    for (name, v, p) in [
        ("iter_p50_ms", &iter_ms, 0.5),
        ("iter_p99_ms", &iter_ms, 0.99),
        ("next_batch_p50_ms", ms(Op::NextBatch), 0.5),
        ("next_batch_p99_ms", ms(Op::NextBatch), 0.99),
        ("feedback_p50_ms", ms(Op::Feedback), 0.5),
        ("feedback_p99_ms", ms(Op::Feedback), 0.99),
        ("create_p50_ms", ms(Op::Create), 0.5),
    ] {
        report.put(name, percentile(v, p), "ms", v.len());
        let beyond = v.len() - ((p * v.len() as f64 - 1e-9).ceil() as usize).min(v.len());
        if beyond < 10 {
            report.note(format!(
                "{name}: only {beyond} samples beyond the percentile (of {})",
                v.len()
            ));
        }
    }
    report.put(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted,
    );
    report.put("rss_peak_mb", rss_mb, "MiB", 1);
    report.put(
        "mean_ap",
        mean_ap,
        "ratio",
        run.sessions.iter().filter(|s| s.pass == 0).count(),
    );
    let passes = run.sessions.iter().map(|s| s.pass + 1).max().unwrap_or(0);
    report.note(format!(
        "run warmup={}s window={}s sessions={} passes={} requests={} failed={} setups={:?}",
        run.warmup_s,
        run.window_s,
        run.sessions.len(),
        passes,
        attempted,
        failed,
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
    ));
}

fn durs(spans: &[Span], name: &str, tag: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
        .map(Span::us)
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    setup: &[Span],
    replay_a: &[Span],
    b_script: &[Span],
    b_all: &[Span],
    b: &replay::ReplayB,
    tcp_run: &TcpRun,
    traced_a: &replay::ReplayA,
    untraced_a_wall_s: f64,
    rejected: u64,
    file_mb: f64,
    report: &mut Report,
) {
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let frac = |v: &[bool]| v.iter().filter(|&&b| b).count() as f64 / v.len().max(1) as f64;
    let put_pct = |report: &mut Report, name: &str, v: &[f64], p: f64, unit: &'static str| {
        report.put(name.to_string(), percentile(v, p), unit, v.len());
    };

    // vecstore
    let top_k = durs(b_script, "vecstore.top_k_budgeted", None);
    put_pct(report, "vecstore.top_k_us_p50", &top_k, 0.5, "us");
    put_pct(report, "vecstore.top_k_us_p99", &top_k, 0.99, "us");
    put_pct(
        report,
        "vecstore.budget_over_rows",
        &b.budget_over_rows,
        0.5,
        "ratio",
    );
    let next_batch = durs(b_script, "session.next_batch", None);
    report.put(
        "vecstore.share_of_next_batch",
        sum(&top_k) / sum(&next_batch).max(1e-9),
        "ratio",
        top_k.len(),
    );
    report.put(
        "vecstore.shadow_match_frac",
        frac(&b.top_k_match),
        "ratio",
        b.top_k_match.len(),
    );

    // aligner
    let solve = durs(b_script, "aligner.align_detailed", None);
    put_pct(report, "aligner.solve_us_p50", &solve, 0.5, "us");
    put_pct(report, "aligner.solve_us_p99", &solve, 0.99, "us");
    let examples: Vec<f64> = b.align.iter().map(|a| a.examples as f64).collect();
    put_pct(report, "aligner.examples_p50", &examples, 0.5, "count");
    report.put(
        "aligner.examples_max",
        examples.iter().copied().fold(0.0, f64::max),
        "count",
        examples.len(),
    );
    let iterations: Vec<f64> = b.align.iter().map(|a| a.iterations as f64).collect();
    put_pct(report, "aligner.iterations_p50", &iterations, 0.5, "count");
    let converged: Vec<bool> = b.align.iter().map(|a| a.converged).collect();
    report.put(
        "aligner.converged_frac",
        frac(&converged),
        "ratio",
        converged.len(),
    );
    let feedback = durs(b_script, "session.try_feedback", None);
    report.put(
        "aligner.share_of_feedback",
        sum(&solve) / sum(&feedback).max(1e-9),
        "ratio",
        solve.len(),
    );
    let matched: Vec<bool> = b.align.iter().map(|a| a.matched).collect();
    report.put(
        "aligner.shadow_match_frac",
        frac(&matched),
        "ratio",
        matched.len(),
    );

    // session
    put_pct(
        report,
        "session.start_us_p50",
        &durs(b_script, "session.start", None),
        0.5,
        "us",
    );
    put_pct(report, "session.next_batch_us_p50", &next_batch, 0.5, "us");
    put_pct(report, "session.next_batch_us_p99", &next_batch, 0.99, "us");
    put_pct(report, "session.feedback_us_p50", &feedback, 0.5, "us");
    put_pct(report, "session.feedback_us_p99", &feedback, 0.99, "us");
    for m in workload::TABLE6_METHODS {
        let name = m.name();
        put_pct(
            report,
            &format!("session.start_us_p50.{name}"),
            &durs(b_all, "session.start", Some(name)),
            0.5,
            "us",
        );
        put_pct(
            report,
            &format!("session.next_batch_us_p50.{name}"),
            &durs(b_all, "session.next_batch", Some(name)),
            0.5,
            "us",
        );
    }

    // service
    for op in [Op::Create, Op::NextBatch, Op::Feedback] {
        let v = durs(replay_a, "service.handle", Some(op.name()));
        put_pct(
            report,
            &format!("service.{}_us_p50", op.name()),
            &v,
            0.5,
            "us",
        );
    }
    report.put(
        "service.live_sessions_max",
        tcp_run.live_max as f64,
        "count",
        tcp_run.sessions.len(),
    );

    // protocol
    put_pct(
        report,
        "protocol.decode_us_p50",
        &durs(replay_a, "protocol.decode", None),
        0.5,
        "us",
    );
    put_pct(
        report,
        "protocol.encode_us_p50",
        &durs(replay_a, "protocol.encode", None),
        0.5,
        "us",
    );
    put_pct(
        report,
        "protocol.response_bytes_p50",
        &traced_a.response_bytes,
        0.5,
        "bytes",
    );

    // server: each TCP round trip minus the in-process time of the same
    // request in replay A.
    let mut overhead = Vec::new();
    for s in tcp_run.sessions.iter().filter(|s| s.fault.is_none()) {
        if let Some(inproc) = traced_a.request_us.get(s.plan) {
            for (r, us) in s.requests.iter().zip(inproc) {
                overhead.push(r.latency_s * 1e6 - us);
            }
        }
    }
    put_pct(report, "server.overhead_us_p50", &overhead, 0.5, "us");
    put_pct(report, "server.overhead_us_p99", &overhead, 0.99, "us");
    report.put("server.rejected_saturated", rejected as f64, "count", 1);

    // set-up layers
    let secs = |name: &str| durs(setup, name, None).first().map_or(0.0, |us| us / 1e6);
    report.put("preprocess.build_s", secs("preprocess.build"), "s", 1);
    report.put("persist.save_s", secs("persist.save_index"), "s", 1);
    report.put("persist.load_s", secs("persist.load_index"), "s", 1);
    report.put("persist.file_mb", file_mb, "MiB", 1);

    report.put(
        "trace.overhead_frac",
        traced_a.wall_s / untraced_a_wall_s.max(1e-9) - 1.0,
        "ratio",
        1,
    );
    report.note(format!(
        "trace replays: A untraced {:.3}s (faster of two), A traced {:.3}s",
        untraced_a_wall_s, traced_a.wall_s
    ));
}
