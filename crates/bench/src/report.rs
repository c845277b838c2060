//! Output helpers: markdown tables on stdout plus JSON result files under
//! `results/` so EXPERIMENTS.md can be regenerated mechanically.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Directory all experiment binaries write their JSON results into.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Serialize a result value to `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    write_to(results_dir().join(format!("{name}.json")), value);
}

/// Write a bench report: `results/<name>.json` in full mode, or
/// `target/bench-smoke/<name>_smoke.json` in a smoke mode. Smoke runs
/// (`scripts/check.sh`, CI) record host timings, so they go under the
/// git-ignored `target/` and never rewrite a tracked file.
pub fn write_report<T: Serialize>(name: &str, smoke: bool, value: &T) {
    if !smoke {
        return write_json(name, value);
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-smoke");
    fs::create_dir_all(&dir).expect("create smoke report dir");
    write_to(dir.join(format!("{name}_smoke.json")), value);
}

fn write_to<T: Serialize>(path: PathBuf, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    fs::write(&path, json).expect("write results file");
    eprintln!("[results] wrote {}", path.display());
}

/// Print a markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Format simulated seconds compactly.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format an accuracy as a percentage.
pub fn pct(v: f32) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(123.4), "123");
        assert_eq!(secs(12.34), "12.3");
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(pct(0.876), "87.6%");
    }

    #[test]
    fn json_roundtrip() {
        #[derive(Serialize)]
        struct T {
            x: u32,
        }
        write_json("test-report", &T { x: 7 });
        let path = results_dir().join("test-report.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"x\": 7"));
        std::fs::remove_file(path).ok();
    }
}
