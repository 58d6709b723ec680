//! Figure 13 / case study: screening suspicious accounts in a transaction
//! network by shortest-cycle counting.
//!
//! The paper's MAHINDAS economic network is proprietary-ish (network
//! repository export); we substitute a seeded laundering network with
//! *planted* criminal rings (see [`crate::datasets`] for why the harness
//! runs on analogs), which upgrades the case study
//! from an anecdote to a measurable retrieval task: rank accounts by their
//! shortest-cycle profile and check that the planted criminals surface.

use super::ExpContext;
use crate::table::Table;
use csc_core::{CscConfig, CscIndex};
use csc_graph::generators::{laundering_network, LaunderingParams};
use csc_graph::VertexId;

/// The screening outcome.
#[derive(Clone, Debug)]
pub struct ScreeningResult {
    /// `(vertex, cycle length, cycle count, planted?)`, best suspects first.
    pub ranked: Vec<(VertexId, u32, u64, bool)>,
    /// Planted criminals recovered within the top-`k` (k = number planted).
    pub hits_at_k: usize,
    /// Number of planted criminals.
    pub planted: usize,
}

/// Ranks accounts by laundering suspicion: among accounts whose shortest
/// cycle is *short* (`<= max_ring_len` — rings are short by construction,
/// Figure 1), more cycles is more suspicious; shorter length breaks ties.
/// Long-cycle accounts are excluded: shortest-path counts multiply
/// combinatorially with length, so a raw count comparison across different
/// lengths would surface benign hubs instead of rings.
pub fn screen(index: &CscIndex, max_ring_len: u32) -> Vec<(VertexId, u32, u64)> {
    let mut scored: Vec<(VertexId, u32, u64)> = (0..index.original_vertex_count() as u32)
        .filter_map(|v| {
            let v = VertexId(v);
            index.query(v).map(|c| (v, c.length, c.count))
        })
        .filter(|&(_, len, _)| len <= max_ring_len)
        .collect();
    scored.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)).then(a.0.cmp(&b.0)));
    scored
}

/// Runs the full screening experiment.
pub fn measure(ctx: &ExpContext) -> ScreeningResult {
    let accounts = ((2_000.0 * ctx.scale) as usize).clamp(400, 200_000);
    let params = LaunderingParams {
        accounts,
        background_edges: accounts * 3,
        criminals: 5,
        cycles_per_criminal: 8,
        cycle_len: 4,
    };
    let net = laundering_network(params, ctx.seed ^ 0x13);
    let index = CscIndex::build(&net.graph, CscConfig::default()).expect("build");
    let ranked_raw = screen(&index, net.cycle_len);
    let planted: std::collections::HashSet<u32> = net.criminals.iter().map(|v| v.0).collect();
    let ranked: Vec<_> = ranked_raw
        .into_iter()
        .map(|(v, len, count)| (v, len, count, planted.contains(&v.0)))
        .collect();
    let k = net.criminals.len();
    let hits_at_k = ranked.iter().take(k).filter(|r| r.3).count();
    ScreeningResult {
        ranked,
        hits_at_k,
        planted: k,
    }
}

/// Runs the experiment and returns the rendered report.
pub fn run(ctx: &ExpContext) -> String {
    let result = measure(ctx);
    let mut table = Table::new(["rank", "account", "cycle len", "cycle count", "planted?"]);
    for (i, (v, len, count, planted)) in result.ranked.iter().take(10).enumerate() {
        table.row([
            (i + 1).to_string(),
            v.to_string(),
            len.to_string(),
            count.to_string(),
            if *planted { "YES" } else { "" }.to_string(),
        ]);
    }
    ctx.save_csv("case_study", &table);
    format!(
        "Case study (Figure 13 analog) — laundering-ring screening:\n\n{}\n\
         Planted criminals recovered in top-{}: {}/{}\n\
         Paper expectation: accounts with many short cycles are exactly the \
         suspicious ones (vertices 281/241/169/1159/888 in MAHINDAS).\n",
        table.render(),
        result.planted,
        result.hits_at_k,
        result.planted
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screening_recovers_planted_criminals() {
        let ctx = ExpContext {
            scale: 0.5,
            ..ExpContext::smoke()
        };
        let result = measure(&ctx);
        assert_eq!(result.planted, 5);
        // Planted rings stack 8 shortest cycles on each criminal, far above
        // background noise; expect at least 4 of 5 in the top 5.
        assert!(
            result.hits_at_k >= 4,
            "screening found only {}/5 planted criminals",
            result.hits_at_k
        );
    }

    #[test]
    fn report_structure() {
        let ctx = ExpContext {
            scale: 0.3,
            ..ExpContext::smoke()
        };
        let report = run(&ctx);
        assert!(report.contains("Case study"));
        assert!(report.contains("cycle count"));
    }
}
