//! Model test of the copy-on-write label arena ([`Labels`]): random
//! `append`, `try_extend_sorted`, `upsert`, `remove`, `drain_matching`,
//! `push_vertex`, seal, publish and compaction steps, checked after each
//! step against a plain `Vec<Vec<LabelEntry>>` model:
//!
//! * every list reads as the model holds it, and the lists the layout does
//!   not store read as empty;
//! * the entry counts (per side and in total) match, and the arena's dead
//!   and spare slots are what it holds beyond them;
//! * every snapshot published earlier still reads exactly the lists of its
//!   publish point, however the store was written and compacted since —
//!   the isolation copy-on-write promises.

use csc_graph::VertexId;
use csc_labeling::{FrozenLabels, LabelEntry, LabelSide, LabelStore, Labels, ListLayout};
use proptest::prelude::*;

/// One step: `(kind, pick, hub, dist, count, extra)`.
type Step = (u32, u32, u32, u32, u64, u32);

/// Both lists of every vertex, in-list first.
type Model = Vec<[Vec<LabelEntry>; 2]>;

fn e(hub: u32, dist: u32, count: u64) -> LabelEntry {
    LabelEntry::new(hub, dist, count).unwrap()
}

fn ix(side: LabelSide) -> usize {
    usize::from(side == LabelSide::Out)
}

/// The stored list `pick` names: any list under `Both`, the one list of
/// the picked vertex under `Reduced`.
fn list_of(layout: ListLayout, n: usize, pick: u32) -> (VertexId, LabelSide) {
    let v = (pick / 2) as usize % n;
    let side = match layout {
        ListLayout::Both if pick.is_multiple_of(2) => LabelSide::In,
        ListLayout::Both => LabelSide::Out,
        ListLayout::Reduced if v.is_multiple_of(2) => LabelSide::In,
        ListLayout::Reduced => LabelSide::Out,
    };
    (VertexId(v as u32), side)
}

fn check(labels: &Labels, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(labels.vertex_count(), model.len());
    let mut count = [0, 0];
    for (v, lists) in model.iter().enumerate() {
        for side in [LabelSide::In, LabelSide::Out] {
            let got = labels.side_of(VertexId(v as u32), side);
            prop_assert_eq!(got, &lists[ix(side)][..], "{}/{:?}", v, side);
            count[ix(side)] += got.len();
        }
    }
    prop_assert_eq!(labels.side_entries(LabelSide::In), count[0]);
    prop_assert_eq!(labels.side_entries(LabelSide::Out), count[1]);
    prop_assert_eq!(labels.total_entries(), count[0] + count[1]);
    prop_assert!(labels.arena_entries() >= labels.total_entries());
    prop_assert!(labels.validate_sorted().is_ok());
    Ok(())
}

fn check_snapshot(
    snapshot: &FrozenLabels,
    model: &Model,
    per_vertex: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(snapshot.vertex_count(), model.len());
    let mut total = 0;
    for (v, lists) in model.iter().enumerate() {
        for side in [LabelSide::In, LabelSide::Out] {
            let got = snapshot.side_of(VertexId(v as u32), side);
            prop_assert_eq!(got, &lists[ix(side)][..], "snapshot {}/{:?}", v, side);
            total += got.len();
        }
    }
    prop_assert_eq!(snapshot.total_entries(), total);
    // Every slot is a live entry, or dead or spare: 8 bytes each, next to
    // 12 bytes per span.
    let spans = model.len() * per_vertex * 12;
    prop_assert_eq!(
        snapshot.dead_entries() + total,
        (snapshot.arena_bytes() - spans) / 8
    );
    Ok(())
}

fn run(layout: ListLayout, n: usize, steps: Vec<Step>) -> Result<(), TestCaseError> {
    let mut labels = match layout {
        ListLayout::Both => Labels::new(n),
        ListLayout::Reduced => Labels::reduced(n),
    };
    let mut model: Model = vec![[Vec::new(), Vec::new()]; n];
    let per_vertex = if layout == ListLayout::Both { 2 } else { 1 };
    let mut published: Vec<(FrozenLabels, Model)> = Vec::new();
    for (kind, pick, hub, dist, count, extra) in steps {
        let (v, side) = list_of(layout, model.len(), pick);
        let list = &mut model[v.index()][ix(side)];
        let last = list.last().map(|l| l.hub_rank());
        let next = last.map_or(hub, |l| l + 1 + hub % 4);
        match kind {
            0 => {
                labels.append(v, side, e(next, dist, count));
                list.push(e(next, dist, count));
            }
            1 => {
                let fresh: Vec<_> = (0..extra % 5)
                    .map(|k| e(next + 2 * k, dist, count))
                    .collect();
                if extra % 7 == 3 && !fresh.is_empty() {
                    // A fault midway installs nothing.
                    let failing = fresh.iter().map(|&x| Ok(x)).chain([Err(())]);
                    let failing: Vec<_> = failing.collect();
                    prop_assert!(labels
                        .try_extend_sorted(v, side, failing.into_iter())
                        .is_err());
                } else {
                    let ok = fresh.iter().map(|&x| Ok::<_, ()>(x));
                    labels.try_extend_sorted(v, side, ok).unwrap();
                    list.extend(fresh);
                }
            }
            2 => {
                let entry = e(hub, dist, count);
                let previous = match list.binary_search_by_key(&hub, |x| x.hub_rank()) {
                    Ok(pos) => Some(std::mem::replace(&mut list[pos], entry)),
                    Err(pos) => {
                        list.insert(pos, entry);
                        None
                    }
                };
                prop_assert_eq!(labels.upsert(v, side, entry), previous);
            }
            3 => {
                // Mostly hubs the list holds: the first, the last, or one
                // in between.
                let hub = match (list.len(), extra % 4) {
                    (0, _) | (_, 3) => hub,
                    (len, 0) => list[len - 1].hub_rank(),
                    (len, k) => list[(k as usize * len / 3).min(len - 1)].hub_rank(),
                };
                let removed = list
                    .binary_search_by_key(&hub, |x| x.hub_rank())
                    .ok()
                    .map(|pos| list.remove(pos));
                prop_assert_eq!(labels.remove(v, side, hub), removed);
            }
            4 => {
                let cut = dist % 12;
                let drained: Vec<_> = list.iter().copied().filter(|x| x.dist() >= cut).collect();
                list.retain(|x| x.dist() < cut);
                prop_assert_eq!(labels.drain_matching(v, side, |x| x.dist() >= cut), drained);
            }
            5 => {
                labels.push_vertex();
                model.push([Vec::new(), Vec::new()]);
            }
            6 => {
                labels.seal();
                prop_assert_eq!(labels.dirty_len(), 0);
            }
            7 => {
                // Compact, sometimes after dropping the oldest snapshot,
                // whose segments may then come back for a later compaction
                // to refill: only segments no snapshot reads come back.
                if extra % 2 == 0 && !published.is_empty() {
                    published.remove(0);
                }
                labels.compact();
                prop_assert_eq!(labels.arena_entries(), labels.total_entries());
                prop_assert_eq!(labels.segment_count(), 1);
            }
            _ => {
                let snapshot = labels.publish();
                prop_assert_eq!(labels.dirty_len(), 0);
                prop_assert_eq!(labels.tail_entries(), 0);
                prop_assert_eq!(snapshot.segment_count(), labels.segment_count());
                let dead = labels.arena_entries() - labels.total_entries();
                prop_assert_eq!(snapshot.dead_entries(), dead);
                published.push((snapshot, model.clone()));
            }
        }
        check(&labels, &model)?;
        for (snapshot, then) in &published {
            check_snapshot(snapshot, then, per_vertex)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_arena_matches_a_nested_model_and_snapshots_stay_isolated(
        reduced in any::<bool>(),
        n in 1usize..7,
        steps in proptest::collection::vec(
            (0u32..9, 0u32..64, 0u32..24, 0u32..40, 1u64..9, any::<u32>()),
            1..80,
        ),
    ) {
        let layout = if reduced { ListLayout::Reduced } else { ListLayout::Both };
        run(layout, n, steps)?;
    }
}
