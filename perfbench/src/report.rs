//! Metrics, the result line and the run record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: u64,
    /// For a ratio: what it is a share of, and that base's value.
    pub base: Option<(&'static str, f64)>,
}

#[derive(Default)]
pub struct Metrics(pub BTreeMap<&'static str, Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(
            name,
            Metric {
                value,
                unit,
                samples,
                base: None,
            },
        );
    }

    /// A ratio `num / den`, recorded with its base.
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64, base: &'static str) {
        let value = if den > 0.0 { num / den } else { 0.0 };
        self.0.insert(
            name,
            Metric {
                value,
                unit: "ratio",
                samples: den as u64,
                base: Some((base, den)),
            },
        );
    }

    fn json(&self, full: bool) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, m)| {
                let mut s = format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"",
                    m.value, m.unit
                );
                if full {
                    s.push_str(&format!(", \"samples\": {}", m.samples));
                    if let Some((base, den)) = m.base {
                        s.push_str(&format!(", \"base\": \"{base}\", \"base_value\": {den}"));
                    }
                }
                s.push('}');
                s
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// What a run produced.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// False when a check other than the per-operation one failed (the
    /// counter replay, the traced-vs-untraced comparison).
    pub consistent: bool,
    pub metrics: Metrics,
    /// Extra record fields, as raw JSON values.
    pub notes: Vec<(&'static str, String)>,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.consistent
    }

    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.json(false)
        )
    }
}

pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The benchmark's directory in the checkout.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
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

/// FNV-1a over the program's sources (`crates/`, the workspace manifest
/// and lock file) and this benchmark's, naming the code a counter replay
/// belongs to.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let root = bench_dir().join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&bench_dir().join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Git must not look for a repository above the checkout.
    let root = bench_dir().join("..").canonicalize().ok()?;
    let ceiling = root.parent().unwrap_or(&root).to_path_buf();
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes the run record: host, toolchain, commit, seed, and every
/// metric with its unit, sample count and (for ratios) base.
pub fn write_record(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    run: &Run,
) -> std::io::Result<PathBuf> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit =
        command_line("git", &["rev-parse", "HEAD"]).map_or("null".to_string(), |c| json_str(&c));
    let mut fields = vec![
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        (
            "host",
            format!("{{\"nproc\": {nproc}, \"cpu\": {}}}", json_str(&cpu)),
        ),
        ("rustc", json_str(&rustc)),
        ("git_commit", commit),
        ("source_digest", json_str(&source_digest())),
        ("correct", run.correct().to_string()),
        ("attempted", run.attempted.to_string()),
        ("failed", run.failed.to_string()),
        ("metrics", run.metrics.json(true)),
    ];
    fields.extend(run.notes.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-s{seed}-t{}.json", u8::from(trace)));
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))?;
    Ok(path)
}
