//! # csc-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! CSC paper's evaluation (Section VI), plus the extension regimes the
//! repository's benchmark does not run. Its one CLI is the `repro`
//! binary:
//!
//! | Artifact | Module | `repro` subcommand |
//! |----------|--------|--------------------|
//! | Table IV (datasets) | [`experiments::table4`] | `table4` |
//! | Figure 9 (index time & size) | [`experiments::fig9`] | `fig9` |
//! | Figure 10 (query time by degree cluster) | [`experiments::fig10`] | `fig10` |
//! | Figure 11 (incremental updates) | [`experiments::fig11`] | `fig11` |
//! | Figure 12 (decremental updates) | [`experiments::fig12`] | `fig12` |
//! | Figure 13 (fraud case study) | [`experiments::case_study`] | `case-study` |
//! | (extension) churn drift and online rejuvenation | [`experiments::churn_drift`] | `churn-drift` |
//! | (extension) pure-deletion windows | [`experiments::deletion_churn`] | `deletion-churn` |
//! | (extension) vertex-ordering ablation | [`experiments::ablation`] | `ablation` |
//! | (extension) coverage-sampled vs degree ordering | [`experiments::order_ablation`] | `order-ablation` |
//! | (extension) overload, deadlines, recovery under I/O faults | [`experiments::overload_surge`] | `overload-surge` |
//!
//! End-to-end performance numbers come from one place: the benchmark in
//! `perfbench/`, which `BENCHMARK.json` declares. It builds its inputs
//! from [`datasets`], [`experiments::stream_replay`] and
//! [`experiments::churn_drift`]. `docs/BENCHMARKING.md` says how to run
//! both harnesses and how to read their outputs.
//!
//! The paper's nine SNAP/Konect graphs are replaced by seeded synthetic
//! analogs; [`datasets`] records why. Absolute numbers therefore differ
//! from the paper's, and the experiments compare the *shapes*.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod experiments;
pub mod measure;
pub mod table;
