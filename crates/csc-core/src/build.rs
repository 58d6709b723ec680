//! CSC index construction: Algorithms 3–4 (bipartite hub labeling with
//! couple-vertex skipping).
//!
//! Only `V_in` vertices ever act as hubs: on any `v_o ~> v_i` path the
//! highest-ranked vertex is always an incoming vertex, because every
//! interior outgoing vertex is immediately preceded by its (higher-ranked)
//! couple and the source `v_o` is outranked by the target `v_i`. A hub's
//! forward BFS therefore only ever *queues* `V_in` vertices: when `w_i` is
//! dequeued and labeled, its couple `w_o` is labeled in the same step at
//! distance `+1` with the same count (every path into `w_o` runs through
//! `w_i`), and expansion continues from `w_o`'s out-neighbors. The backward
//! BFS mirrors this on `V_out`, with one special case: reaching the hub's
//! own couple `u_o` means a cycle closed back to the hub — the entry goes
//! into `L_out(u_o)` (this is exactly the entry a cycle query reads) and the
//! traversal prunes there, since the only backward continuation would
//! re-enter the hub.
//!
//! The same traversal, switched from append-only to upsert mode and
//! followed by [`LabelWriter::sweep`], is the re-labeling pass of
//! decremental maintenance (`csc-core::delete`).
//!
//! Every label traversal — this couple BFS and the resumed multi-source
//! pass of `csc-core::repair` — hands each visit it does not prune to a
//! [`VisitSink`]: a writer applies it to the label store at once, a
//! [`VisitBuffer`] keeps it for a writer to [`commit`] later. The
//! traversal reads the labels it prunes against through the same sink, so
//! one body serves both the serial pass and the parallel build waves.
//! Label repair only ever writes: its passes run serially at every width.

use crate::config::ParallelismConfig;
use crate::invert::InvertedIndex;
use crate::parallel::par_map_indexed;
use csc_graph::bipartite::{couple, is_in_vertex};
use csc_graph::{Csr, DiGraph, RankTable, VertexId, WorkspacePool};
use csc_labeling::{HubCache, LabelEntry, LabelSide, LabelingError, Labels, SearchState};

/// Adjacency access abstraction: the static build runs over a cache-friendly
/// [`Csr`] snapshot, while dynamic maintenance traverses the live
/// [`DiGraph`].
pub(crate) trait Adjacency {
    /// Out-neighbors of `v`.
    fn succ(&self, v: VertexId) -> &[u32];
    /// In-neighbors of `v`.
    fn pred(&self, v: VertexId) -> &[u32];
}

impl Adjacency for Csr {
    #[inline]
    fn succ(&self, v: VertexId) -> &[u32] {
        self.nbr_out(v)
    }
    #[inline]
    fn pred(&self, v: VertexId) -> &[u32] {
        self.nbr_in(v)
    }
}

impl Adjacency for DiGraph {
    #[inline]
    fn succ(&self, v: VertexId) -> &[u32] {
        self.nbr_out(v)
    }
    #[inline]
    fn pred(&self, v: VertexId) -> &[u32] {
        self.nbr_in(v)
    }
}

/// How label writes behave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteMode {
    /// Push entries in hub-rank order (static construction: each hub's rank
    /// exceeds all previously appended ones).
    Append,
    /// Insert-or-replace, skipping writes whose value is unchanged, and
    /// recording every vertex for [`LabelWriter::sweep`] (decremental
    /// re-labeling).
    Upsert,
}

/// Counters for one or more traversals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TraversalCounters {
    pub inserted: usize,
    pub updated: usize,
    pub unchanged: usize,
    pub pruned: usize,
    pub dequeues: usize,
    pub canonical: usize,
    pub non_canonical: usize,
    pub saturated: usize,
}

impl TraversalCounters {
    /// Folds another counter set (e.g. one worker's traversal counters)
    /// into this one.
    pub(crate) fn merge(&mut self, other: &TraversalCounters) {
        self.inserted += other.inserted;
        self.updated += other.updated;
        self.unchanged += other.unchanged;
        self.pruned += other.pruned;
        self.dequeues += other.dequeues;
        self.canonical += other.canonical;
        self.non_canonical += other.non_canonical;
        self.saturated += other.saturated;
    }
}

/// One visit a traversal did not prune: vertex `w` at distance `dw` from
/// the hub, reached by `cw` hub-maximal shortest paths. `tie` records that
/// the prune scan matched `dw` exactly (a non-canonical entry).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Visit {
    pub w: VertexId,
    pub dw: u32,
    pub cw: u64,
    pub tie: bool,
}

/// Whatever receives the visits of a label traversal.
///
/// Traversals pass their label side as a constant into the inlined
/// [`visit`](Self::visit), so a writer's side dispatch folds away at
/// compile time.
pub(crate) trait VisitSink {
    /// The labels the traversal prunes against.
    fn labels(&self) -> &Labels;

    /// Takes one unpruned visit of `hub`'s traversal writing `side`.
    fn visit(
        &mut self,
        counters: &mut TraversalCounters,
        side: LabelSide,
        hub: VertexId,
        hub_rank: u32,
        v: Visit,
    ) -> Result<(), LabelingError>;
}

/// The buffering sink: keeps every visit, in traversal order, against a
/// label view that stays unchanged until a writer [`commit`]s them.
pub(crate) struct VisitBuffer<'a> {
    labels: &'a Labels,
    pub visits: Vec<Visit>,
}

impl<'a> VisitBuffer<'a> {
    pub(crate) fn new(labels: &'a Labels) -> Self {
        VisitBuffer {
            labels,
            visits: Vec::new(),
        }
    }
}

impl VisitSink for VisitBuffer<'_> {
    fn labels(&self) -> &Labels {
        self.labels
    }

    #[inline]
    fn visit(
        &mut self,
        _: &mut TraversalCounters,
        _: LabelSide,
        _: VertexId,
        _: u32,
        v: Visit,
    ) -> Result<(), LabelingError> {
        self.visits.push(v);
        Ok(())
    }
}

/// The writing sink of the couple BFS: applies each visit to the label
/// store at once, as `w`'s entry plus — couple skipping — its couple's
/// entry at `dw + 1`.
pub(crate) struct LabelWriter<'a> {
    labels: &'a mut Labels,
    inverted: Option<&'a mut InvertedIndex>,
    mode: WriteMode,
    /// Upsert mode: every vertex written or found unchanged since the last
    /// [`sweep`](Self::sweep).
    written: Vec<u32>,
}

impl<'a> LabelWriter<'a> {
    pub(crate) fn new(
        labels: &'a mut Labels,
        inverted: Option<&'a mut InvertedIndex>,
        mode: WriteMode,
    ) -> Self {
        LabelWriter {
            labels,
            inverted,
            mode,
            written: Vec::new(),
        }
    }

    /// Upsert mode: removes every `side` entry of hub `hub_rank` that was
    /// neither written nor found unchanged since the last sweep, so the
    /// side holds exactly what the traversal in between produced. The
    /// carriers come from the inverted index. Returns the entries removed.
    pub(crate) fn sweep(&mut self, side: LabelSide, hub_rank: u32) -> usize {
        let LabelWriter {
            labels,
            inverted,
            written,
            ..
        } = self;
        let inv = inverted
            .as_deref_mut()
            .expect("a sweep needs the inverted index");
        written.sort_unstable();
        let mut removed = 0;
        inv.retain(side, hub_rank, |x| {
            let keep = written.binary_search(&x).is_ok();
            if !keep {
                labels.remove(VertexId(x), side, hub_rank);
                removed += 1;
            }
            keep
        });
        written.clear();
        removed
    }

    /// Writes one entry according to `mode`, maintaining the inverted index
    /// and counters. Returns the error on capacity overflow.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn write(
        &mut self,
        counters: &mut TraversalCounters,
        v: VertexId,
        side: LabelSide,
        hub: VertexId,
        hub_rank: u32,
        dist: u32,
        count: u64,
    ) -> Result<(), LabelingError> {
        let entry =
            LabelEntry::new(hub_rank, dist, count).map_err(|source| LabelingError::Entry {
                hub,
                vertex: v,
                source,
            })?;
        if entry.count_saturated() {
            counters.saturated += 1;
        }
        match self.mode {
            WriteMode::Append => {
                self.labels.append(v, side, entry);
                counters.inserted += 1;
                if let Some(inv) = self.inverted.as_deref_mut() {
                    inv.add(side, hub_rank, v);
                }
            }
            WriteMode::Upsert => {
                self.written.push(v.0);
                if self.labels.entry_for(v, side, hub_rank) == Some(entry) {
                    counters.unchanged += 1;
                    return Ok(());
                }
                match self.labels.upsert(v, side, entry) {
                    Some(_) => counters.updated += 1,
                    None => {
                        counters.inserted += 1;
                        if let Some(inv) = self.inverted.as_deref_mut() {
                            inv.add(side, hub_rank, v);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl VisitSink for LabelWriter<'_> {
    fn labels(&self) -> &Labels {
        self.labels
    }

    // Always inlined, with `write`: the traversal's constant side, and the
    // mode of a writer built next to the loop, fold away only when the
    // whole write lands in the traversal loop. Left to the inliner, the
    // width-1 build of the benchmark graphs ran about 5% slower.
    #[inline(always)]
    fn visit(
        &mut self,
        counters: &mut TraversalCounters,
        side: LabelSide,
        hub: VertexId,
        hub_rank: u32,
        v: Visit,
    ) -> Result<(), LabelingError> {
        self.write(counters, v.w, side, hub, hub_rank, v.dw, v.cw)?;
        if side == LabelSide::Out && (v.w == hub || v.w == couple(hub)) {
            // The hub's own out-entry, or a cycle closed back onto the
            // hub's couple (the entry SCCnt queries read): neither has a
            // couple to label.
            counters.canonical += 1;
            return Ok(());
        }
        if v.tie {
            counters.non_canonical += 2;
        } else {
            counters.canonical += 2;
        }
        self.write(counters, couple(v.w), side, hub, hub_rank, v.dw + 1, v.cw)
    }
}

/// Fills `cache` with `vk`'s own `own_side` label for the prune scans of
/// `vk`'s traversal: the entries of strictly higher-ranked hubs, with
/// `vk`'s own slot left unset. That is the static build's rule, and the
/// couple BFS keeps it in every mode: a re-label pass must not prune at
/// `vk`'s own stale entries, which is what it is there to replace. The
/// resumed passes of `csc-core::repair` add the own slot at distance 0 on
/// top, so their scans read `vk`'s stored entries too.
#[inline]
pub(crate) fn fill_hub_cache(
    labels: &Labels,
    cache: &mut HubCache,
    vk: VertexId,
    vk_rank: u32,
    own_side: LabelSide,
) {
    cache.fill(labels.side_of(vk, own_side), vk_rank);
}

/// `D_G(v_k, w)` (or `D_G(w, v_k)` when `target_side` is `Out`) under the
/// current index, restricted to the hubs scattered in `cache`: the
/// strictly higher-ranked hubs, whose entries are final when passes run in
/// descending rank order, plus `v_k` itself when the caller set its slot.
/// Every scattered rank is at most `vk_rank` (a hub's own label only
/// stores higher-ranked hubs plus itself), so the rank-sorted scan of
/// [`HubCache::covered`] stops at that prefix.
#[inline]
pub(crate) fn covered_dist(
    labels: &Labels,
    cache: &HubCache,
    vk_rank: u32,
    w: VertexId,
    target_side: LabelSide,
) -> u32 {
    cache.covered(labels.side_of(w, target_side), vk_rank)
}

/// Commits a [`VisitBuffer`]'s visits of `hub`'s traversal on `side`
/// through `writer`, in traversal order. With `validate` (a scratch hub
/// cache) the prune scan re-runs against the labels at commit time and
/// drops every visit the serial pass would have pruned; a wave validates
/// every pass after its first. See [`CoupleBfs::traverse_in`] for why this
/// reproduces the serial pass exactly.
pub(crate) fn commit<W: VisitSink>(
    writer: &mut W,
    counters: &mut TraversalCounters,
    side: LabelSide,
    hub: VertexId,
    hub_rank: u32,
    visits: &[Visit],
    mut validate: Option<&mut HubCache>,
) -> Result<(), LabelingError> {
    if let Some(cache) = validate.as_deref_mut() {
        fill_hub_cache(writer.labels(), cache, hub, hub_rank, side.flip());
    }
    for &(mut v) in visits {
        if let Some(cache) = validate.as_deref() {
            let d_idx = covered_dist(writer.labels(), cache, hub_rank, v.w, side);
            if d_idx < v.dw {
                counters.pruned += 1;
                continue;
            }
            v.tie = d_idx == v.dw;
        }
        writer.visit(counters, side, hub, hub_rank, v)?;
    }
    Ok(())
}

/// The reusable couple-skipping traversal engine.
pub(crate) struct CoupleBfs {
    state: SearchState,
    cache: HubCache,
}

impl CoupleBfs {
    pub(crate) fn new(n: usize) -> Self {
        CoupleBfs {
            state: SearchState::new(n),
            cache: HubCache::new(n),
        }
    }

    pub(crate) fn ensure(&mut self, n: usize) {
        self.state.ensure(n);
        self.cache.ensure(n);
    }

    /// Splits the workspace into its BFS state and hub cache (used by the
    /// plain — non-couple-skipping — maintenance passes, and as the
    /// validation scratch of [`commit`]).
    pub(crate) fn parts_mut(&mut self) -> (&mut SearchState, &mut HubCache) {
        (&mut self.state, &mut self.cache)
    }

    /// Heap bytes held by the BFS state and hub cache (memory-budget
    /// accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.state.heap_bytes() + self.cache.heap_bytes()
    }

    /// Forward traversal from `hub` (must be a `V_in` vertex): hands `sink`
    /// the in-label visit of every vertex for which `hub` is the
    /// highest-ranked vertex on at least one shortest `hub ~> ·` path.
    ///
    /// # Buffered passes
    ///
    /// Within one traversal a pass never reads its own writes: the hub
    /// cache is scattered once up front, the prune scan at a vertex runs
    /// before that vertex's write, and couples are never dequeued on their
    /// writing side. The same holds for [`traverse_out`](Self::traverse_out).
    /// So filling a [`VisitBuffer`] and then [`commit`]ting it onto the
    /// labels it was filled against is the writer's pass exactly.
    ///
    /// A parallel build wave fills its buffers concurrently against the
    /// labels as they stood when the wave started, then commits them in
    /// rank order. A buffer may therefore miss the commits of earlier
    /// passes of its own wave, and its pruning can only be *weaker* than
    /// the serial pass's: build writes are monotone (entries are only
    /// appended, never lengthened or removed), so more committed labels
    /// mean more pruning, never less. A validated commit re-runs the prune
    /// scan against the labels at commit time and drops every visit the
    /// serial pass would have pruned; a dropped visit takes its whole
    /// buffered subtree with it (coverage at a vertex extends to everything
    /// it expanded to, at strictly smaller slack), so the surviving writes
    /// — distances *and* counts — are the serial ones. The first pass of a
    /// wave needs no validation: nothing was committed between its
    /// traversal and its commit.
    pub(crate) fn traverse_in<S: VisitSink>(
        &mut self,
        graph: &impl Adjacency,
        ranks: &RankTable,
        hub: VertexId,
        sink: &mut S,
        counters: &mut TraversalCounters,
    ) -> Result<(), LabelingError> {
        debug_assert!(is_in_vertex(hub), "hubs must be incoming vertices");
        let hub_rank = ranks.rank(hub);
        fill_hub_cache(
            sink.labels(),
            &mut self.cache,
            hub,
            hub_rank,
            LabelSide::Out,
        );

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        state.queue.push_back(hub.0);

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w); // always in V_in
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            // Shortest hub ~> w distance through strictly higher-ranked
            // hubs.
            let d_idx = covered_dist(sink.labels(), &self.cache, hub_rank, w, LabelSide::In);
            if d_idx < dw {
                counters.pruned += 1;
                continue;
            }
            let tie = d_idx == dw;
            sink.visit(
                counters,
                LabelSide::In,
                hub,
                hub_rank,
                Visit { w, dw, cw, tie },
            )?;

            // Couple skipping: continue from w's outgoing couple.
            let wo = couple(w);
            state.visit(wo, dw + 1, cw);
            for &u in graph.succ(wo) {
                let u = VertexId(u); // back in V_in
                if !state.visited(u) {
                    if hub_rank < ranks.rank(u) {
                        state.visit(u, dw + 2, cw);
                        state.queue.push_back(u.0);
                    }
                } else if state.dist[u.index()] == dw + 2 {
                    state.accumulate(u, cw);
                }
            }
        }
        Ok(())
    }

    /// Backward traversal from `hub` (a `V_in` vertex): hands `sink` the
    /// hub's own out-entry, then every out-label visit.
    pub(crate) fn traverse_out<S: VisitSink>(
        &mut self,
        graph: &impl Adjacency,
        ranks: &RankTable,
        hub: VertexId,
        sink: &mut S,
        counters: &mut TraversalCounters,
    ) -> Result<(), LabelingError> {
        debug_assert!(is_in_vertex(hub), "hubs must be incoming vertices");
        let hub_rank = ranks.rank(hub);
        let hub_couple = couple(hub);
        fill_hub_cache(sink.labels(), &mut self.cache, hub, hub_rank, LabelSide::In);

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        counters.dequeues += 1;
        let root = Visit {
            w: hub,
            dw: 0,
            cw: 1,
            tie: false,
        };
        sink.visit(counters, LabelSide::Out, hub, hub_rank, root)?;
        for &xo in graph.pred(hub) {
            let xo = VertexId(xo); // in V_out (self-loops are impossible)
            if hub_rank < ranks.rank(xo) {
                state.visit(xo, 1, 1);
                state.queue.push_back(xo.0);
            }
        }

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w); // always in V_out
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            let d_idx = covered_dist(sink.labels(), &self.cache, hub_rank, w, LabelSide::Out);
            if d_idx < dw {
                counters.pruned += 1;
                continue;
            }
            let tie = d_idx == dw;
            sink.visit(
                counters,
                LabelSide::Out,
                hub,
                hub_rank,
                Visit { w, dw, cw, tie },
            )?;
            if w == hub_couple {
                // The traversal closed a cycle back onto the hub's couple;
                // continuing backward would re-enter the hub, so prune.
                continue;
            }

            let wi = couple(w);
            state.visit(wi, dw + 1, cw);
            for &yo in graph.pred(wi) {
                let yo = VertexId(yo); // in V_out
                if !state.visited(yo) {
                    if hub_rank < ranks.rank(yo) {
                        state.visit(yo, dw + 2, cw);
                        state.queue.push_back(yo.0);
                    }
                } else if state.dist[yo.index()] == dw + 2 {
                    state.accumulate(yo, cw);
                }
            }
        }
        Ok(())
    }
}

/// A resumable run of the static construction (Algorithm 3): hubs are
/// processed in descending rank order, and [`advance`](Self::advance)
/// covers a bounded number of ranks per call. A cooperative caller — the
/// maintenance plane's rejuvenation rebuild — can therefore interleave
/// other work (accepting writes into its replay queue, publishing
/// snapshots) between chunks instead of disappearing into one monolithic
/// build. [`build_labels`] is the degenerate single-chunk driver, so the
/// static and rejuvenation builds share one code path.
pub(crate) struct LabelBuildTask {
    labels: Labels,
    bfs: CoupleBfs,
    counters: TraversalCounters,
    next_rank: u32,
    par: ParallelismConfig,
    /// Per-worker traversal workspaces for the wider waves; lazily
    /// populated on first use, reused across waves and `advance` calls.
    pool: WorkspacePool<CoupleBfs>,
}

impl LabelBuildTask {
    /// Starts a build over `n` bipartite vertices.
    pub(crate) fn new(n: usize, par: ParallelismConfig) -> Result<Self, LabelingError> {
        let max = (csc_labeling::MAX_HUB_RANK as usize) + 1;
        if n > max {
            return Err(LabelingError::TooManyVertices { got: n, max });
        }
        Ok(LabelBuildTask {
            labels: Labels::new(n),
            bfs: CoupleBfs::new(n),
            counters: TraversalCounters::default(),
            next_rank: 0,
            par,
            pool: WorkspacePool::new(),
        })
    }

    /// `(ranks processed, ranks total)` — total is only meaningful against
    /// the rank table passed to [`advance`](Self::advance).
    pub(crate) fn ranks_done(&self) -> u32 {
        self.next_rank
    }

    /// Processes up to `rank_budget` further ranks of `ranks` over the
    /// adjacency snapshot `csr`. Returns `true` once every rank has been
    /// processed (construction complete). `csr` and `ranks` must be the
    /// same on every call of one task.
    ///
    /// Ranks are processed in *waves* of `width` consecutive ranks. A wave
    /// holding one hub pass (every wave at width 1 or 2, since a `V_in`
    /// rank is followed by its couple's `V_out` rank) traverses straight
    /// into the label writer. A wider wave fills its passes' buffers
    /// concurrently against the pre-wave labels, then [`commit`]s them in
    /// rank order, re-validating every pass after the first — so the
    /// labels, and thus the serialized arenas, are identical at every
    /// width. Waves are aligned to absolute rank boundaries and a budget is
    /// rounded up to the next boundary, so a chunked build takes the exact
    /// same waves as a monolithic one.
    pub(crate) fn advance(
        &mut self,
        csr: &Csr,
        ranks: &RankTable,
        rank_budget: usize,
    ) -> Result<bool, LabelingError> {
        let width = self.par.width().max(1);
        let total = ranks.len();
        let requested = (self.next_rank as usize).saturating_add(rank_budget.max(1));
        let end = requested.div_ceil(width).saturating_mul(width).min(total);
        let n = csr.vertex_count();

        while (self.next_rank as usize) < end {
            let wave_start = self.next_rank;
            let wave_end = ((wave_start as usize / width + 1) * width).min(total) as u32;
            let passes = (wave_start..wave_end)
                .filter(|&r| is_in_vertex(ranks.vertex_at_rank(r)))
                .count();
            if passes <= 1 {
                for rank in wave_start..wave_end {
                    let hub = ranks.vertex_at_rank(rank);
                    if is_in_vertex(hub) {
                        let mut writer =
                            LabelWriter::new(&mut self.labels, None, WriteMode::Append);
                        let c = &mut self.counters;
                        self.bfs.traverse_in(csr, ranks, hub, &mut writer, c)?;
                        self.bfs.traverse_out(csr, ranks, hub, &mut writer, c)?;
                    } else {
                        Self::vout_self_entries(&mut self.labels, &mut self.counters, hub, ranks)?;
                    }
                    self.next_rank += 1;
                }
                continue;
            }

            let results = {
                let labels = &self.labels;
                let pool = &self.pool;
                par_map_indexed(width, (wave_end - wave_start) as usize, |i| {
                    // On worker threads: an injected panic here must
                    // cross the scope join and reach the engine's
                    // degradation catch, like any real worker bug.
                    faultpoint!("build.wave.worker");
                    let hub = ranks.vertex_at_rank(wave_start + i as u32);
                    if !is_in_vertex(hub) {
                        return Ok(None);
                    }
                    let mut ws = pool.checkout_with(|| CoupleBfs::new(n));
                    ws.ensure(n);
                    let mut counters = TraversalCounters::default();
                    let mut fwd = VisitBuffer::new(labels);
                    ws.traverse_in(csr, ranks, hub, &mut fwd, &mut counters)?;
                    let mut bwd = VisitBuffer::new(labels);
                    ws.traverse_out(csr, ranks, hub, &mut bwd, &mut counters)?;
                    Ok(Some((fwd.visits, bwd.visits, counters)))
                })
            };

            let mut first = true;
            for (rank, result) in (wave_start..).zip(results) {
                let hub = ranks.vertex_at_rank(rank);
                match result? {
                    Some((fwd, bwd, wave_counters)) => {
                        self.counters.merge(&wave_counters);
                        let mut validate = (!first).then_some(&mut self.bfs.cache);
                        first = false;
                        let mut writer =
                            LabelWriter::new(&mut self.labels, None, WriteMode::Append);
                        for (side, visits) in [(LabelSide::In, fwd), (LabelSide::Out, bwd)] {
                            let (c, cache) = (&mut self.counters, validate.as_deref_mut());
                            commit(&mut writer, c, side, hub, rank, &visits, cache)?;
                        }
                    }
                    None => {
                        Self::vout_self_entries(&mut self.labels, &mut self.counters, hub, ranks)?;
                    }
                }
                self.next_rank += 1;
            }
        }
        Ok(self.next_rank as usize >= total)
    }

    /// `V_out` vertices never act as hubs for other vertices (Algorithm 3
    /// lines 6-8): self labels only.
    fn vout_self_entries(
        labels: &mut Labels,
        counters: &mut TraversalCounters,
        hub: VertexId,
        ranks: &RankTable,
    ) -> Result<(), LabelingError> {
        let r = ranks.rank(hub);
        let self_entry = LabelEntry::new(r, 0, 1).map_err(|source| LabelingError::Entry {
            hub,
            vertex: hub,
            source,
        })?;
        labels.append(hub, LabelSide::In, self_entry);
        labels.append(hub, LabelSide::Out, self_entry);
        counters.canonical += 2;
        counters.inserted += 2;
        Ok(())
    }

    /// Consumes the task, yielding the built labels and counters.
    pub(crate) fn finish(self) -> (Labels, TraversalCounters) {
        (self.labels, self.counters)
    }
}

/// Builds the full CSC label set for a bipartite graph under `ranks`
/// (Algorithm 3) in one go. Returns labels and traversal counters.
pub(crate) fn build_labels(
    csr: &Csr,
    ranks: &RankTable,
    counters: &mut TraversalCounters,
    par: ParallelismConfig,
) -> Result<Labels, LabelingError> {
    let mut task = LabelBuildTask::new(csr.vertex_count(), par)?;
    while !task.advance(csr, ranks, usize::MAX)? {}
    let (labels, built) = task.finish();
    *counters = built;
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::bipartite::{in_vertex, out_vertex, BipartiteGraph};
    use csc_graph::fixtures::{figure2, figure2_order, pv};
    use csc_graph::generators::directed_cycle;
    use csc_graph::OrderingStrategy;

    fn build_for(g: &DiGraph, order: OrderingStrategy) -> (Labels, RankTable) {
        let gb = BipartiteGraph::from_graph(g);
        let ranks = RankTable::build(g, order).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let labels =
            build_labels(&csr, &ranks, &mut counters, ParallelismConfig::default()).unwrap();
        labels.validate_sorted().unwrap();
        assert_eq!(
            counters.inserted,
            labels.total_entries(),
            "append mode inserts exactly the stored entries"
        );
        (labels, ranks)
    }

    #[test]
    fn chunked_build_equals_monolithic() {
        let g = csc_graph::generators::gnm(30, 100, 8);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let whole =
            build_labels(&csr, &ranks, &mut counters, ParallelismConfig::default()).unwrap();

        let mut task =
            LabelBuildTask::new(csr.vertex_count(), ParallelismConfig::default()).unwrap();
        let mut chunks = 0;
        while !task.advance(&csr, &ranks, 7).unwrap() {
            chunks += 1;
            assert!(task.ranks_done() > 0 && (task.ranks_done() as usize) < ranks.len());
        }
        let (labels, chunk_counters) = task.finish();
        assert!(chunks > 2, "the budget actually chunked the build");
        assert_eq!(labels, whole);
        assert_eq!(chunk_counters, counters);
    }

    #[test]
    fn wave_parallel_build_matches_serial_at_any_width() {
        let g = csc_graph::generators::gnm(40, 160, 11);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let serial_par = ParallelismConfig { threads: 1 };
        let mut serial_counters = TraversalCounters::default();
        let serial = build_labels(&csr, &ranks, &mut serial_counters, serial_par).unwrap();

        for threads in [2, 3, 4, 7] {
            let par = ParallelismConfig { threads };
            let mut counters = TraversalCounters::default();
            let labels = build_labels(&csr, &ranks, &mut counters, par).unwrap();
            labels.validate_sorted().unwrap();
            assert_eq!(labels, serial, "width {threads} diverged from serial");
            // The validated commit reproduces the serial write set, so the
            // write-side counters agree; only the traversal-shape counters
            // (dequeues / pruned) may differ across widths.
            assert_eq!(counters.inserted, labels.total_entries());
            assert_eq!(counters.canonical, serial_counters.canonical, "w{threads}");
            assert_eq!(
                counters.non_canonical, serial_counters.non_canonical,
                "w{threads}"
            );
        }
    }

    #[test]
    fn chunked_wave_build_equals_monolithic_wave_build() {
        let g = csc_graph::generators::gnm(30, 100, 8);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let par = ParallelismConfig { threads: 4 };
        let mut counters = TraversalCounters::default();
        let whole = build_labels(&csr, &ranks, &mut counters, par).unwrap();

        // Budget 3 < width 4: each call rounds up to one whole wave, so
        // the chunked run takes the exact same waves as the monolithic
        // one — labels *and* counters agree.
        let mut task = LabelBuildTask::new(csr.vertex_count(), par).unwrap();
        while !task.advance(&csr, &ranks, 3).unwrap() {}
        let (labels, chunk_counters) = task.finish();
        assert_eq!(labels, whole);
        assert_eq!(chunk_counters, counters);
    }

    #[test]
    fn triangle_cycle_entries() {
        let g = directed_cycle(3);
        let (labels, _) = build_for(&g, OrderingStrategy::Degree);
        // SCCnt(0) via labels: distance v_o ~> v_i must be 5 (= 2*3 - 1).
        let dc = labels
            .dist_count(out_vertex(VertexId(0)), in_vertex(VertexId(0)))
            .unwrap();
        assert_eq!((dc.dist, dc.count), (5, 1));
    }

    #[test]
    fn figure2_table_iii_entries() {
        // Table III: Lin(v7_i) = {(v1_i, 4, 2), (v7_i, 0, 1)};
        // Lout(v7_o) = {(v1_i, 7, 1), (v7_i, 11, 1), (v7_o, 0, 1)}.
        let g = figure2();
        let ranks = RankTable::from_order(&figure2_order()).bipartite_order();
        let csr = Csr::from_digraph(BipartiteGraph::from_graph(&g).graph());
        let mut counters = TraversalCounters::default();
        let labels =
            build_labels(&csr, &ranks, &mut counters, ParallelismConfig::default()).unwrap();

        let v7i = in_vertex(pv(7));
        let v7o = out_vertex(pv(7));
        let r = |v: VertexId| ranks.rank(v);

        let lin = labels.in_of(v7i);
        assert_eq!(lin.len(), 2, "Lin(v7_i): {lin:?}");
        assert_eq!(
            (lin[0].hub_rank(), lin[0].dist(), lin[0].count()),
            (r(in_vertex(pv(1))), 4, 2)
        );
        assert_eq!(
            (lin[1].hub_rank(), lin[1].dist(), lin[1].count()),
            (r(v7i), 0, 1)
        );

        let lout = labels.out_of(v7o);
        assert_eq!(lout.len(), 3, "Lout(v7_o): {lout:?}");
        assert_eq!(
            (lout[0].hub_rank(), lout[0].dist(), lout[0].count()),
            (r(in_vertex(pv(1))), 7, 1)
        );
        assert_eq!(
            (lout[1].hub_rank(), lout[1].dist(), lout[1].count()),
            (r(v7i), 11, 1)
        );
        assert_eq!(
            (lout[2].hub_rank(), lout[2].dist(), lout[2].count()),
            (r(v7o), 0, 1)
        );

        // Example 6: SCCnt(v7) = (11+1)/2 = 6 with count 2*1 + 1*1 = 3.
        let dc = labels.dist_count(v7o, in_vertex(pv(7))).unwrap();
        assert_eq!((dc.dist, dc.count), (11, 3));
    }

    #[test]
    fn only_vin_vertices_are_hubs() {
        let g = figure2();
        let (labels, ranks) = build_for(&g, OrderingStrategy::Degree);
        for v in 0..labels.vertex_count() as u32 {
            let v = VertexId(v);
            for e in labels.in_of(v).iter().chain(labels.out_of(v)) {
                let hub = ranks.vertex_at_rank(e.hub_rank());
                assert!(
                    is_in_vertex(hub) || hub == v,
                    "non-self V_out hub {hub:?} on {v:?}"
                );
            }
        }
    }

    #[test]
    fn couple_edge_label_exists() {
        // (v_i, 1, 1) must be in Lin(v_o) for every vertex (Section IV-B).
        let g = figure2();
        let (labels, ranks) = build_for(&g, OrderingStrategy::Degree);
        for v in g.vertices() {
            let (vi, vo) = (in_vertex(v), out_vertex(v));
            let e = labels
                .entry_for(vo, LabelSide::In, ranks.rank(vi))
                .unwrap_or_else(|| panic!("missing (v_i, 1, 1) in Lin({vo:?})"));
            assert_eq!((e.dist(), e.count()), (1, 1));
        }
    }
}
