//! Synthetic analogs of the paper's nine evaluation graphs (Table IV).
//!
//! The paper evaluates on nine SNAP/Konect graphs; this harness runs on
//! seeded synthetic analogs of them instead, for two reasons. It has to
//! run offline, so it cannot fetch the originals. And index builds over
//! the full-size originals take up to 61 hours, far past any test or CI
//! budget. Each analog keeps what drives the experiments: the
//! real dataset's density `m / n` and the structural family of its degree
//! distribution (flat p2p overlays; heavy-tailed email, web, talk and
//! encyclopedia graphs with their reciprocity), at a size `--scale`
//! controls. Absolute numbers therefore differ from the paper's; the
//! experiments compare the *shapes*: who wins, by what factor, and where
//! the trends bend. The fraud case study substitutes in the same way: a
//! laundering network with planted rings stands in for the paper's
//! economic network ([`crate::experiments::case_study`]).
//!
//! Each spec records the real dataset's size and the generator family that
//! matches its structure; [`generate`] produces a seeded analog scaled by
//! `--scale` so the full suite runs on a laptop. At `scale = 1.0` the
//! default caps keep the largest graphs around 2–3 × 10^5 edges; larger
//! scales approach the paper's sizes at the cost of (much) longer builds.

use csc_graph::generators::{gnm, preferential_attachment, sprinkle_random_edges};
use csc_graph::DiGraph;

/// Structural family of a dataset, mapped to a generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Peer-to-peer overlay: flat degree distribution (Erdős–Rényi).
    P2p,
    /// Email/communication: heavy-tailed in-degree, some reciprocity.
    Email,
    /// Web crawl: heavy-tailed, low reciprocity, denser.
    Web,
    /// Talk/interaction network: heavy-tailed and strongly reciprocal.
    WikiTalk,
    /// Encyclopedia hyperlinks: dense heavy-tailed.
    Encyclopedia,
}

/// One row of the paper's Table IV plus its generator family.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Short code used in the paper's figures (e.g. `G04`).
    pub code: &'static str,
    /// Full dataset name in the paper.
    pub paper_name: &'static str,
    /// Vertex count of the real dataset.
    pub paper_n: usize,
    /// Edge count of the real dataset.
    pub paper_m: usize,
    /// Generator family for the synthetic analog.
    pub family: Family,
    /// Cap on the analog's vertex count at `scale = 1.0`.
    pub base_cap_n: usize,
}

/// The nine datasets of Table IV, in the paper's order.
pub const DATASETS: [DatasetSpec; 9] = [
    DatasetSpec {
        code: "G04",
        paper_name: "p2p-Gnutella04",
        paper_n: 10_879,
        paper_m: 39_994,
        family: Family::P2p,
        base_cap_n: 10_879, // small enough to run at full size
    },
    DatasetSpec {
        code: "G30",
        paper_name: "p2p-Gnutella30",
        paper_n: 36_682,
        paper_m: 88_328,
        family: Family::P2p,
        base_cap_n: 18_000,
    },
    DatasetSpec {
        code: "EME",
        paper_name: "email-EuAll",
        paper_n: 265_214,
        paper_m: 420_045,
        family: Family::Email,
        base_cap_n: 40_000,
    },
    DatasetSpec {
        code: "WBN",
        paper_name: "web-NotreDame",
        paper_n: 325_729,
        paper_m: 1_497_134,
        family: Family::Web,
        base_cap_n: 30_000,
    },
    DatasetSpec {
        code: "WKT",
        paper_name: "wiki-Talk",
        paper_n: 2_394_385,
        paper_m: 5_021_410,
        family: Family::WikiTalk,
        base_cap_n: 40_000,
    },
    DatasetSpec {
        code: "WBB",
        paper_name: "web-BerkStan",
        paper_n: 685_231,
        paper_m: 7_600_595,
        family: Family::Web,
        base_cap_n: 25_000,
    },
    DatasetSpec {
        code: "HDR",
        paper_name: "Hudong-Related",
        paper_n: 2_452_715,
        paper_m: 18_854_882,
        family: Family::Encyclopedia,
        base_cap_n: 25_000,
    },
    DatasetSpec {
        code: "WAR",
        paper_name: "wikilink-War",
        paper_n: 2_093_450,
        paper_m: 38_631_915,
        family: Family::Encyclopedia,
        base_cap_n: 20_000,
    },
    DatasetSpec {
        code: "WSR",
        paper_name: "wikilink-SR",
        paper_n: 3_175_009,
        paper_m: 139_586_199,
        family: Family::Encyclopedia,
        base_cap_n: 15_000,
    },
];

/// Looks a dataset up by its short code (case-insensitive).
pub fn by_code(code: &str) -> Option<&'static DatasetSpec> {
    DATASETS.iter().find(|d| d.code.eq_ignore_ascii_case(code))
}

/// Generates the synthetic analog of `spec` at the given scale.
///
/// `scale` multiplies the capped base size (so `1.0` is the laptop default
/// and larger values approach the paper's sizes). The edge budget keeps the
/// real dataset's density `m / n`.
pub fn generate(spec: &DatasetSpec, scale: f64, seed: u64) -> DiGraph {
    assert!(scale > 0.0, "scale must be positive");
    let n = ((spec.base_cap_n as f64 * scale) as usize)
        .clamp(64, spec.paper_n)
        .min(4_000_000);
    let density = spec.paper_m as f64 / spec.paper_n as f64;
    let m_target = ((n as f64 * density) as usize).max(n);
    let seed = seed ^ (spec.code.bytes().fold(0u64, |h, b| h * 31 + b as u64));
    match spec.family {
        Family::P2p => gnm(n, m_target.min(n * (n - 1) / 2), seed),
        Family::Email => grow_to(
            preferential_attachment(n, k_for(n, m_target, 0.15), 0.15, seed),
            m_target,
            seed,
        ),
        Family::Web => grow_to(
            preferential_attachment(n, k_for(n, m_target, 0.05), 0.05, seed),
            m_target,
            seed,
        ),
        Family::WikiTalk => grow_to(
            preferential_attachment(n, k_for(n, m_target, 0.35), 0.35, seed),
            m_target,
            seed,
        ),
        Family::Encyclopedia => grow_to(
            preferential_attachment(n, k_for(n, m_target, 0.20), 0.20, seed),
            m_target,
            seed,
        ),
    }
}

fn k_for(n: usize, m: usize, recip: f64) -> usize {
    (((m as f64) / (n as f64 * (1.0 + recip))).round() as usize).max(1)
}

/// Tops a generated graph up with uniform noise edges to reach the target
/// density (preferential attachment under-shoots on early vertices).
fn grow_to(mut g: DiGraph, m_target: usize, seed: u64) -> DiGraph {
    let missing = m_target.saturating_sub(g.edge_count());
    if missing > 0 {
        sprinkle_random_edges(&mut g, missing, seed ^ 0xD1CE);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_datasets_generate_deterministically() {
        for spec in &DATASETS {
            let g1 = generate(spec, 0.05, 7);
            let g2 = generate(spec, 0.05, 7);
            assert_eq!(g1, g2, "{} must be deterministic", spec.code);
            g1.validate().unwrap();
            assert!(g1.vertex_count() >= 64);
            assert!(g1.edge_count() > 0);
        }
    }

    #[test]
    fn density_tracks_the_paper() {
        for spec in &DATASETS {
            let g = generate(spec, 0.1, 3);
            let got = g.edge_count() as f64 / g.vertex_count() as f64;
            let want = spec.paper_m as f64 / spec.paper_n as f64;
            assert!(
                got > want * 0.5 && got < want * 1.6,
                "{}: density {got:.2} vs paper {want:.2}",
                spec.code
            );
        }
    }

    #[test]
    fn lookup_by_code() {
        assert_eq!(by_code("g04").unwrap().paper_name, "p2p-Gnutella04");
        assert_eq!(by_code("WSR").unwrap().paper_m, 139_586_199);
        assert!(by_code("nope").is_none());
    }

    #[test]
    fn scale_grows_size() {
        let spec = by_code("WKT").unwrap();
        let small = generate(spec, 0.05, 1);
        let large = generate(spec, 0.2, 1);
        assert!(large.vertex_count() > 2 * small.vertex_count());
    }

    #[test]
    fn scale_never_exceeds_paper_size() {
        let spec = by_code("G04").unwrap();
        let g = generate(spec, 1000.0, 1);
        assert!(g.vertex_count() <= spec.paper_n);
    }
}
