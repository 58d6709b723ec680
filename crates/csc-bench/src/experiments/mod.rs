//! The experiment implementations, one module per paper artifact.

pub mod ablation;
pub mod case_study;
pub mod churn_drift;
pub mod deletion_churn;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig9;
pub mod order_ablation;
pub mod overload_surge;
pub mod stream_replay;
pub mod table4;

use crate::datasets::{DatasetSpec, DATASETS};
use crate::table::Table;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The environment variable naming the file [`ExpContext::save_json`]
/// appends to.
const BENCH_JSON: &str = "BENCH_JSON";

/// Shared experiment configuration.
#[derive(Clone, Debug)]
pub struct ExpContext {
    /// Dataset size multiplier (1.0 = laptop defaults; see `datasets`).
    pub scale: f64,
    /// Root seed for every generator and sampler.
    pub seed: u64,
    /// Quick mode trims per-cluster query counts and skips the slowest
    /// strategy/dataset combinations, mirroring the paper's own omissions
    /// (minimality is skipped for its two largest graphs).
    pub quick: bool,
    /// Datasets to run on (defaults to all nine).
    pub datasets: Vec<&'static DatasetSpec>,
    /// Directory for CSV archives (`None` = stdout only).
    pub out_dir: Option<PathBuf>,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            scale: 1.0,
            seed: 42,
            quick: false,
            datasets: DATASETS.iter().collect(),
            out_dir: None,
        }
    }
}

impl ExpContext {
    /// A configuration sized for CI / smoke tests.
    pub fn smoke() -> Self {
        ExpContext {
            scale: 0.05,
            quick: true,
            datasets: DATASETS.iter().take(3).collect(),
            ..Default::default()
        }
    }

    /// Restricts the run to the named dataset codes (unknown codes are
    /// ignored).
    pub fn with_datasets(mut self, codes: &[&str]) -> Self {
        let selected: Vec<_> = DATASETS
            .iter()
            .filter(|d| codes.iter().any(|c| c.eq_ignore_ascii_case(d.code)))
            .collect();
        if !selected.is_empty() {
            self.datasets = selected;
        }
        self
    }

    /// Archives a table as CSV under the output directory, if configured.
    pub fn save_csv(&self, name: &str, table: &Table) {
        if let Some(dir) = &self.out_dir {
            if std::fs::create_dir_all(dir).is_ok() {
                let path = dir.join(format!("{name}.csv"));
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                }
            }
        }
    }

    /// Appends machine-readable result lines to the file `BENCH_JSON`
    /// names, if it is set. Each call first writes one
    /// `{"group":"env",…}` line with the host's core count, the worker
    /// width, and this context's scale, seed and quick flag, so every
    /// record can be read against the run that produced it.
    pub fn save_json(&self, records: impl IntoIterator<Item = String>) {
        let path = std::env::var_os(BENCH_JSON);
        self.append_json(path.as_deref().map(Path::new), records);
    }

    fn append_json(&self, path: Option<&Path>, records: impl IntoIterator<Item = String>) {
        let Some(path) = path else {
            return;
        };
        let mut f = match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => f,
            Err(e) => {
                eprintln!("warning: could not open {}: {e}", path.display());
                return;
            }
        };
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = csc_core::ParallelismConfig::default().width();
        let mut out = format!(
            "{{\"group\":\"env\",\"nproc\":{nproc},\"threads\":{threads},\
             \"scale\":{},\"seed\":{},\"quick\":{}}}\n",
            self.scale, self.seed, self.quick
        );
        for r in records {
            out.push_str(&r);
            out.push('\n');
        }
        if let Err(e) = f.write_all(out.as_bytes()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_covers_all_datasets() {
        let ctx = ExpContext::default();
        assert_eq!(ctx.datasets.len(), 9);
        assert!(!ctx.quick);
    }

    #[test]
    fn dataset_filter() {
        let ctx = ExpContext::default().with_datasets(&["g04", "WSR"]);
        assert_eq!(ctx.datasets.len(), 2);
        // Unknown codes leave the selection untouched.
        let ctx = ExpContext::default().with_datasets(&["nope"]);
        assert_eq!(ctx.datasets.len(), 9);
    }

    #[test]
    fn csv_archival() {
        let dir = std::env::temp_dir().join("csc-bench-test-out");
        let ctx = ExpContext {
            out_dir: Some(dir.clone()),
            ..ExpContext::smoke()
        };
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        ctx.save_csv("unit", &t);
        let written = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert!(written.contains("a"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_sink_leads_each_call_with_an_env_line() {
        let path = std::env::temp_dir().join(format!("csc-bench-json-{}", std::process::id()));
        std::fs::remove_file(&path).ok();
        let ctx = ExpContext {
            scale: 0.25,
            seed: 7,
            ..ExpContext::smoke()
        };
        let records = || {
            [
                "{\"group\":\"a\"}".to_string(),
                "{\"group\":\"b\"}".to_string(),
            ]
        };

        // No variable, no file.
        ctx.append_json(None, records());
        assert!(!path.exists());

        // Two calls append two runs, each led by its env line.
        ctx.append_json(Some(&path), records());
        ctx.append_json(Some(&path), records());
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.len(), 6);
        for run in lines.chunks(3) {
            assert!(
                run[0].starts_with("{\"group\":\"env\",\"nproc\":"),
                "{}",
                run[0]
            );
            assert!(run[0].contains("\"scale\":0.25,\"seed\":7,\"quick\":true}"));
            assert_eq!(&run[1..], ["{\"group\":\"a\"}", "{\"group\":\"b\"}"]);
        }
    }
}
