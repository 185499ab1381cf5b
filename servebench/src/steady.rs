//! Steadiness mode: run one workload N times, each in a child process
//! with its own seed, and report each end-to-end metric's median,
//! quartiles and spread (interquartile range over median) against its
//! bound in `BENCHMARK.json`.

use std::process::{Command, ExitCode, Stdio};

use crate::json;
use crate::stats::quartiles;
use crate::workload::Workload;
use crate::Declared;

pub fn run(wl: &Workload, seed: u64, seconds: f64, n: usize, declared: &[Declared]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("servebench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); declared.len()];
    for i in 0..n {
        let run_seed = seed + i as u64;
        let output = Command::new(&exe)
            .args([
                "--workload",
                wl.name,
                "--seed",
                &run_seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                "0",
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("servebench: run {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let result = match json::parse(last) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("servebench: run {i} (seed {run_seed}) printed no result: {e}");
                return ExitCode::FAILURE;
            }
        };
        if result.get("correct") != Some(&json::Value::Bool(true)) || !output.status.success() {
            eprintln!("servebench: run {i} (seed {run_seed}) failed:\n{stdout}");
            return ExitCode::FAILURE;
        }
        let mut line = format!("run {i} seed {run_seed}:");
        for (d, vals) in declared.iter().zip(values.iter_mut()) {
            let v = result
                .get("metrics")
                .and_then(|m| m.get(&d.name))
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_f64);
            if let Some(v) = v {
                vals.push(v);
                line.push_str(&format!(" {}={v:.4}", d.name));
            }
        }
        println!("{line}");
    }
    println!(
        "{:<20} {:>6} {:>7} {:>12} {:>12} {:>12} {:>8} {:>6} {:>8}",
        "metric", "unit", "better", "q1", "median", "q3", "spread", "bound", "verdict"
    );
    let mut steady = true;
    for (d, vals) in declared.iter().zip(&values) {
        let (q1, med, q3) = quartiles(vals);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let bound = d.bound.unwrap_or(0.0);
        // A spread below a third of the bound leaves room for the
        // parent-vs-change comparison; set-up time is exempt.
        let ok = d.name == "setup_s" || spread < bound / 3.0;
        steady &= ok;
        println!(
            "{:<20} {:>6} {:>7} {:>12.5} {:>12.5} {:>12.5} {:>8.4} {:>6} {:>8}",
            d.name,
            d.unit,
            d.better,
            q1,
            med,
            q3,
            spread,
            bound,
            if ok { "steady" } else { "NOISY" }
        );
    }
    println!(
        "{} runs of {}: {}",
        n,
        wl.name,
        if steady { "steady" } else { "not steady" }
    );
    ExitCode::SUCCESS
}
