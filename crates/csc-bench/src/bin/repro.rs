//! `repro` — regenerates the CSC paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] <COMMAND>
//!
//! Commands:
//!   table4       Table IV  — dataset statistics
//!   fig9         Figure 9  — index construction time and size
//!   fig10        Figure 10 — query time by degree cluster
//!   fig11        Figure 11 — incremental update time and index growth
//!   fig12        Figure 12 — decremental updates by edge degree
//!   case-study     Figure 13 — fraud-screening case study
//!   churn-drift    Extension — churn drift and online rejuvenation
//!   deletion-churn Extension — windowed deletion repair under churn
//!   ablation       Extension — how much the vertex ordering matters
//!   order-ablation Extension — coverage-sampled vs degree-based ordering
//!   overload-surge Extension — reader latency under overload & deadlines
//!   all            Everything above, in order
//!
//! Options:
//!   --scale <f64>    dataset size multiplier, finite and above 0 (default 1.0)
//!   --seed <u64>     RNG seed (default 42)
//!   --quick          smaller samples; skips the slowest combinations
//!   --datasets <a,b> restrict to these dataset codes (e.g. G04,WKT)
//!   --out <dir>      also write each table as CSV into <dir>
//! ```
//!
//! A bad argument prints what is wrong with it and the usage line, and
//! exits with status 2.

use csc_bench::datasets::{by_code, DATASETS};
use csc_bench::experiments::{
    ablation, case_study, churn_drift, deletion_churn, fig10, fig11, fig12, fig9, order_ablation,
    overload_surge, table4, ExpContext,
};
use std::process::ExitCode;

/// Every command `all` runs, in order.
const COMMANDS: [&str; 11] = [
    "table4",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "case-study",
    "churn-drift",
    "deletion-churn",
    "ablation",
    "order-ablation",
    "overload-surge",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale F] [--seed N] [--quick] [--datasets A,B] [--out DIR] <{}|all>",
        COMMANDS.join("|")
    );
    std::process::exit(2);
}

fn bad_value(flag: &str, value: &str, want: &str) -> ! {
    eprintln!("bad {flag} value: {value} ({want})");
    usage()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = ExpContext::default();
    let mut command: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                ctx.scale = match v.parse::<f64>() {
                    Ok(scale) if scale.is_finite() && scale > 0.0 => scale,
                    _ => bad_value("--scale", v, "want a finite number above 0"),
                };
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                ctx.seed = v
                    .parse()
                    .unwrap_or_else(|_| bad_value("--seed", v, "want an unsigned integer"));
            }
            "--quick" => ctx.quick = true,
            "--datasets" => {
                let v = it.next().unwrap_or_else(|| usage());
                let codes: Vec<&str> = v.split(',').collect();
                if let Some(unknown) = codes.iter().find(|c| by_code(c).is_none()) {
                    let known: Vec<&str> = DATASETS.iter().map(|d| d.code).collect();
                    bad_value(
                        "--datasets",
                        v,
                        &format!("unknown code {unknown:?}; known: {}", known.join(",")),
                    );
                }
                ctx = ctx.with_datasets(&codes);
            }
            "--out" => {
                let v = it.next().unwrap_or_else(|| usage());
                ctx.out_dir = Some(v.into());
            }
            "--help" | "-h" => usage(),
            cmd if command.is_none() && !cmd.starts_with('-') => {
                command = Some(cmd.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let Some(command) = command else { usage() };
    let run_one = |name: &str, ctx: &ExpContext| -> bool {
        match name {
            "table4" => println!("{}", table4::run(ctx)),
            "fig9" => println!("{}", fig9::run(ctx)),
            "fig10" => println!("{}", fig10::run(ctx)),
            "fig11" => println!("{}", fig11::run(ctx)),
            "fig12" => println!("{}", fig12::run(ctx)),
            "case-study" | "case_study" | "fig13" => println!("{}", case_study::run(ctx)),
            "churn-drift" | "churn_drift" => println!("{}", churn_drift::run(ctx)),
            "deletion-churn" | "deletion_churn" => println!("{}", deletion_churn::run(ctx)),
            "ablation" => println!("{}", ablation::run(ctx)),
            "order-ablation" | "order_ablation" => println!("{}", order_ablation::run(ctx)),
            "overload-surge" | "overload_surge" => println!("{}", overload_surge::run(ctx)),
            _ => return false,
        }
        true
    };

    if command == "all" {
        for name in COMMANDS {
            eprintln!("==> {name}");
            run_one(name, &ctx);
        }
        ExitCode::SUCCESS
    } else if run_one(&command, &ctx) {
        ExitCode::SUCCESS
    } else {
        eprintln!("unknown command: {command}");
        usage()
    }
}
