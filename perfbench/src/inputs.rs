//! The two workloads and the inputs each one generates from a seed.
//!
//! The program under test only ever receives the generated starting graph
//! and the update windows; the seed stays here.

use csc_bench::datasets::{by_code, generate};
use csc_bench::experiments::churn_drift::build_churn_trace;
use csc_bench::experiments::stream_replay::build_trace;
use csc_core::{CscConfig, CscIndex, DurabilityConfig, GraphUpdate};
use csc_graph::traversal::shortest_cycle_oracle;
use csc_graph::{DiGraph, VertexId};

/// Seed of the dataset analogs. The graph stays fixed, as the paper's
/// datasets are: regenerating it per seed changes the workload itself
/// (label size moved 16% between two G04 seeds at this scale). The run's
/// seed draws what varies in service: the order of arrivals and removals,
/// which edges churn, how new vertices are wired, and which vertices are
/// read.
pub const DATASET_SEED: u64 = 1;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Pure arrivals on a wiki-Talk analog whose label arena is far larger
    /// than a core's L2: reads are memory-bound and a write window is
    /// mostly snapshot publication.
    Serve,
    /// Insert/delete/vertex churn on a small p2p-Gnutella04 analog whose
    /// arena fits in L2: a write window is mostly deletion repair.
    Churn,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve" => Some(Workload::Serve),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Churn => "churn",
        }
    }
}

/// Everything a run does, fixed before it starts. Work is sized from the
/// requested seconds through per-window costs measured on the reference
/// machine (2-vCPU Xeon VM), never by reading the clock during the run,
/// so two runs of one seed do identical work.
///
/// A run is one or more epochs, each a cold start, a write phase, a crash
/// and its recoveries, on inputs drawn from its own seed.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Scale of the dataset analog (see `csc_bench::datasets::generate`).
    pub scale: f64,
    /// Epochs in a run.
    pub epochs: usize,
    /// Write windows in each epoch.
    pub windows: usize,
    /// Updates per write window.
    pub window_ops: usize,
    /// Uniform point reads after each window.
    pub reads_per_window: usize,
    /// Checkpoint cadence in windows.
    pub checkpoint_every: u32,
    /// Cold starts per epoch timed for `setup_s` (the median over the run
    /// is reported).
    pub setups: usize,
    /// Copies of each crash image recovered for `recover_s` (the median
    /// over the run is reported).
    pub recoveries: usize,
    /// Vertices per epoch whose SCCnt is checked against the BFS oracle.
    pub check_sample: usize,
}

impl Spec {
    /// The workload as benchmarked, with about `seconds` of measured
    /// write-and-read loop on the reference machine.
    pub fn new(workload: Workload, seconds: u64) -> Spec {
        let checkpoint_every = DurabilityConfig::default().checkpoint_every;
        let cadence = checkpoint_every as usize;
        // (scale, reads per window, seconds per window on the reference
        // machine, windows between the last checkpoint and the crash,
        // cold starts and recoveries per epoch). `serve` crashes a few
        // windows past a checkpoint so recovery is bound by the
        // checkpoint; `churn` half a cadence past one so recovery is bound
        // by log replay.
        let (scale, reads_per_window, window_s, crash_after, setups, recoveries) = match workload {
            Workload::Serve => (0.5, 8192, 0.065, 4, 3, 3),
            Workload::Churn => (0.05, 4096, 0.031, 32, 4, 1),
        };
        let seconds = seconds as f64;
        // `serve` spends the time in one epoch. `churn` spends it in
        // epochs of two cadences: its label size drifts upward with every
        // wired vertex, and the share of windows that fall back to a
        // rebuild differs from seed to seed (36% to 59% over 160 windows),
        // so several short epochs on their own seeds average out what one
        // long trajectory would compound.
        let (epochs, cadences) = match workload {
            Workload::Serve => (1, (seconds / window_s / cadence as f64).round() as usize),
            Workload::Churn => {
                let epoch_s = window_s * (2 * cadence + crash_after) as f64;
                ((seconds / epoch_s).round() as usize, 2)
            }
        };
        Spec {
            workload,
            scale,
            epochs: epochs.max(1),
            windows: cadences.max(1) * cadence + crash_after,
            window_ops: 8,
            reads_per_window,
            checkpoint_every,
            setups,
            recoveries,
            check_sample: 200,
        }
    }

    /// Window counts after which an epoch's write phase leaves a crash
    /// image: the end of the phase, and one cadence earlier, both the same
    /// distance past a checkpoint. What a `churn` recovery replays differs
    /// from one crash to the next (per-epoch replays of one run ranged
    /// from 588 to 696 ms), so two images per epoch double the states
    /// `recover_s` samples at no extra write work.
    pub fn crash_points(&self) -> [usize; 2] {
        [
            self.windows.saturating_sub(self.checkpoint_every as usize),
            self.windows,
        ]
    }

    /// The index configuration every run uses: durability defaults except
    /// the cadence, a republish after every window, and a one-wide pool.
    pub fn config(&self) -> CscConfig {
        CscConfig::default()
            .with_snapshot_every(1)
            .with_threads(1)
            .with_checkpoint_every(self.checkpoint_every)
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The starting graph (the arrival pool held out).
    pub graph: DiGraph,
    /// The update windows, in submission order.
    pub windows: Vec<Vec<GraphUpdate>>,
    /// Vertex count after each window; the reads that follow it sample
    /// uniformly below it.
    pub vertices_after: Vec<u32>,
    /// Edge count after each window.
    pub edges_after: Vec<usize>,
    /// The benchmark's own replay of the windows onto `graph` up to each
    /// of [`Spec::crash_points`]: the states the index's answers are
    /// checked against. The last is the final graph.
    pub crash_graphs: Vec<DiGraph>,
}

impl Inputs {
    /// Generates the inputs of `spec` from `seed`.
    ///
    /// # Errors
    ///
    /// Fails if the generated trace is shorter than the spec or holds an
    /// update that is invalid where it stands.
    pub fn generate(spec: &Spec, seed: u64) -> Result<Inputs, String> {
        let total = spec.windows * spec.window_ops;
        let (graph, trace): (DiGraph, Vec<GraphUpdate>) = match spec.workload {
            Workload::Serve => {
                let g = generate(
                    by_code("WKT").expect("WKT is a dataset"),
                    spec.scale,
                    DATASET_SEED,
                );
                let (reduced, ops) = build_trace(&g, total, total, 100, seed);
                (reduced, ops.into_iter().map(|op| op.update).collect())
            }
            Workload::Churn => {
                let g = generate(
                    by_code("G04").expect("G04 is a dataset"),
                    spec.scale,
                    DATASET_SEED,
                );
                // The churn trace splices three vertex ops after every
                // eighth edge op.
                let edge_ops = total * 8 / 11 + 8;
                let pool = (edge_ops / 2).min(g.edge_count() / 4).max(1);
                let (reduced, mut ops) = build_churn_trace(&g, pool, edge_ops, seed);
                ops.truncate(total);
                (reduced, ops)
            }
        };
        if trace.len() != total {
            return Err(format!("trace holds {} of {total} updates", trace.len()));
        }
        let crash_points = spec.crash_points();
        let mut crash_graphs = Vec::with_capacity(crash_points.len());
        let mut replayed = graph.clone();
        let mut vertices_after = Vec::with_capacity(spec.windows);
        let mut edges_after = Vec::with_capacity(spec.windows);
        for (k, &u) in trace.iter().enumerate() {
            let applied = match u {
                GraphUpdate::InsertEdge(a, b) => replayed.try_add_edge(a, b),
                GraphUpdate::RemoveEdge(a, b) => replayed.try_remove_edge(a, b),
                GraphUpdate::AddVertex => {
                    replayed.add_vertex();
                    Ok(())
                }
            };
            applied.map_err(|e| format!("trace update {k} ({u:?}) is invalid: {e}"))?;
            if (k + 1) % spec.window_ops == 0 {
                vertices_after.push(replayed.vertex_count() as u32);
                edges_after.push(replayed.edge_count());
                if crash_points.contains(&vertices_after.len()) {
                    crash_graphs.push(replayed.clone());
                }
            }
        }
        Ok(Inputs {
            graph,
            windows: trace.chunks(spec.window_ops).map(<[_]>::to_vec).collect(),
            vertices_after,
            edges_after,
            crash_graphs,
        })
    }

    /// The graph after every window.
    pub fn final_graph(&self) -> &DiGraph {
        self.crash_graphs
            .last()
            .expect("the last crash point ends the phase")
    }
}

/// One epoch's seed, inputs and oracle answers.
pub struct Epoch {
    /// The epoch's own seed, derived from the run's.
    pub seed: u64,
    /// The generated inputs.
    pub inputs: Inputs,
    /// SCCnt of a seeded vertex sample of each crash graph.
    pub expected: Vec<Vec<Expected>>,
}

impl Epoch {
    /// Generates epoch `index` of a run of `spec` with `seed`. Epoch 0
    /// uses the run's seed itself.
    ///
    /// # Errors
    ///
    /// As [`Inputs::generate`].
    pub fn generate(spec: &Spec, seed: u64, index: usize) -> Result<Epoch, String> {
        let seed = seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let inputs = Inputs::generate(spec, seed)?;
        let expected = inputs
            .crash_graphs
            .iter()
            .map(|g| oracle_sample(g, spec.check_sample, seed))
            .collect();
        Ok(Epoch {
            seed,
            inputs,
            expected,
        })
    }

    /// The generator of the vertices read after each window; the untraced
    /// and the traced run read the same ones.
    pub fn read_rng(&self) -> Rng {
        Rng::new(self.seed ^ 0x00ea_d5ee)
    }
}

/// One oracle-checked answer: a vertex and its `(length, count)` SCCnt.
pub type Expected = (VertexId, Option<(u32, u64)>);

/// A seeded uniform vertex sample of `g` (every vertex when `g` is
/// smaller than `size`), each with the BFS oracle's SCCnt.
pub fn oracle_sample(g: &DiGraph, size: usize, seed: u64) -> Vec<Expected> {
    let n = g.vertex_count() as u32;
    let mut rng = Rng::new(seed ^ 0x0c1e_c4ed);
    let vertices: Vec<VertexId> = if (n as usize) <= size {
        g.vertices().collect()
    } else {
        (0..size).map(|_| VertexId(rng.below(n))).collect()
    };
    vertices
        .into_iter()
        .map(|v| (v, shortest_cycle_oracle(g, v)))
        .collect()
}

/// Sample answers that `answer` gets wrong.
pub fn wrong_answers(
    expected: &[Expected],
    answer: impl Fn(VertexId) -> Option<csc_core::CycleCount>,
) -> usize {
    expected
        .iter()
        .filter(|&&(v, want)| answer(v).map(|c| (c.length, c.count)) != want)
        .count()
}

/// `true` when `index` holds exactly the vertices and edges of `g`.
pub fn same_graph(index: &CscIndex, g: &DiGraph) -> bool {
    if index.original_vertex_count() != g.vertex_count() {
        return false;
    }
    let mut have: Vec<(u32, u32)> = index.original_edges().map(|(a, b)| (a.0, b.0)).collect();
    let mut want = g.edge_vec();
    have.sort_unstable();
    want.sort_unstable();
    have == want
}

/// A small deterministic generator (64-bit LCG, high bits out).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 32) % u64::from(n)) as u32
    }
}
