//! Runtime membership: node joins and departures.
//!
//! "When a node joins the infrastructure, it contacts an existing node that
//! forwards the join request to its coordinator. The request is propagated
//! up the hierarchy and the top level coordinator assigns it to the top
//! level node that is closest to the new node. This top level node passes
//! the request down to its child that is closest to the new node … until the
//! node is assigned to a bottom level cluster." (Section 2.1.1.)
//!
//! [`join_route`] implements that routing decision (and counts protocol
//! messages); [`add_node`] applies it, splitting any cluster that overflows
//! `max_cs` — recursively up the hierarchy, growing a new top level if the
//! root itself splits. [`remove_node`] handles departures, including
//! coordinator re-election and collapse of emptied clusters/levels.
//!
//! A change is the business of the clusters it touched: both operations
//! re-elect only those clusters and their ancestor chains, bottom-up, and
//! return the [`HierarchyDelta`] they caused — equal to diffing
//! [`Hierarchy::snapshot`]s taken around the operation, without taking
//! them. Only after the distances changed under the coordinators (see
//! [`Hierarchy::refresh_statistics`]) does the same election run over every
//! cluster.

use crate::hierarchy::{Cluster, ClusterId, Hierarchy, HierarchyDelta};
use dsq_net::{DistanceMatrix, NodeId};
use std::collections::HashMap;

/// Why a membership operation could not be applied.
///
/// Returned (never panicked) so callers driving the overlay from fault
/// schedules — the chaos harness, the adaptivity runtime — can degrade
/// gracefully instead of aborting the whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipError {
    /// The node is not currently an overlay member.
    NotAMember(NodeId),
    /// Removing the node would leave the overlay empty: a one-member
    /// hierarchy has no surviving cluster to re-elect or collapse into.
    LastMember,
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::NotAMember(n) => {
                write!(f, "node {} is not an overlay member", n.0)
            }
            MembershipError::LastMember => {
                write!(f, "cannot remove the last overlay member")
            }
        }
    }
}

impl std::error::Error for MembershipError {}

/// Result of routing a join request through the hierarchy.
#[derive(Clone, Debug)]
pub struct JoinOutcome {
    /// Coordinators consulted, from the first contact's leaf coordinator up
    /// to the top and back down to the chosen leaf.
    pub route: Vec<NodeId>,
    /// Leaf cluster the new node is assigned to (valid at decision time).
    pub leaf: ClusterId,
    /// Number of protocol messages exchanged.
    pub messages: usize,
}

/// Route a join request for `node`, contacted via existing member `via`.
/// Pure decision: the hierarchy is not modified.
pub fn join_route(h: &Hierarchy, dm: &DistanceMatrix, node: NodeId, via: NodeId) -> JoinOutcome {
    assert!(h.is_active(via), "contact node must be an overlay member");
    let mut route = Vec::new();
    // Upward propagation: the contact's coordinator chain to the top.
    for level in 1..=h.height() {
        route.push(h.cluster(h.ancestor(via, level)).coordinator);
    }
    // Downward assignment: at each level pick the member closest to `node`.
    let mut cluster = h.top();
    loop {
        let c = h.cluster(cluster);
        let nearest = *c
            .members
            .iter()
            .min_by(|&&a, &&b| {
                dm.get(a, node)
                    .total_cmp(&dm.get(b, node))
                    .then(a.0.cmp(&b.0))
            })
            .expect("clusters are never empty");
        route.push(nearest);
        if cluster.level == 1 {
            let messages = route.len();
            return JoinOutcome {
                route,
                leaf: cluster,
                messages,
            };
        }
        let member_idx = c.members.iter().position(|&m| m == nearest).unwrap();
        cluster = h.child_of_member(cluster, member_idx);
    }
}

/// Add `node` to the overlay: route the join, insert into the chosen leaf
/// cluster, split any cluster that overflows, re-elect the touched
/// clusters' coordinators and refresh the statistics. Returns the routing
/// outcome and the clusters the join changed.
pub fn add_node(
    h: &mut Hierarchy,
    dm: &DistanceMatrix,
    node: NodeId,
    via: NodeId,
) -> (JoinOutcome, HierarchyDelta) {
    assert!(!h.is_active(node), "node is already an overlay member");
    let outcome = join_route(h, dm, node, via);
    let leaf_idx = outcome.leaf.index;
    let mut t = Touched::new(h);
    t.touch(h, 1, leaf_idx);
    h.level_mut(1)[leaf_idx].members.push(node);
    h.leaf_of_mut()[node.index()] = Some(leaf_idx);
    split_overflowing(h, &mut t, dm, 1, leaf_idx);
    let delta = t.reelect(h, dm);
    #[cfg(debug_assertions)]
    h.check_invariants();
    (outcome, delta)
}

/// Remove `node` from the overlay, re-electing coordinators and collapsing
/// empty clusters/levels. Returns the clusters the departure changed.
///
/// Returns [`MembershipError::NotAMember`] if `node` is not active and
/// [`MembershipError::LastMember`] if it is the only member left; in both
/// cases the hierarchy is untouched.
pub fn remove_node(
    h: &mut Hierarchy,
    dm: &DistanceMatrix,
    node: NodeId,
) -> Result<HierarchyDelta, MembershipError> {
    if !h.is_active(node) {
        return Err(MembershipError::NotAMember(node));
    }
    if h.active_count() <= 1 {
        return Err(MembershipError::LastMember);
    }
    let leaf_idx = h.leaf_cluster(node).index;
    let mut t = Touched::new(h);
    t.touch(h, 1, leaf_idx);
    let members = &mut h.level_mut(1)[leaf_idx].members;
    members.retain(|&m| m != node);
    let now_empty = members.is_empty();
    h.leaf_of_mut()[node.index()] = None;
    if now_empty {
        remove_cluster(h, &mut t, 1, leaf_idx);
    }
    collapse_redundant_top(h);
    let delta = t.reelect(h, dm);
    #[cfg(debug_assertions)]
    h.check_invariants();
    Ok(delta)
}

/// The cluster positions one membership operation changed, each with the
/// content (members, coordinator) it held before the operation — `None`
/// for a position the operation created.
struct Touched {
    height: usize,
    before: HashMap<ClusterId, Option<(Vec<NodeId>, NodeId)>>,
}

impl Touched {
    fn new(h: &Hierarchy) -> Self {
        Touched {
            height: h.height(),
            before: HashMap::new(),
        }
    }

    /// Record what position `(level, index)` holds, unless an earlier step
    /// of this operation already did. Call before changing it.
    fn touch(&mut self, h: &Hierarchy, level: usize, index: usize) {
        let id = ClusterId { level, index };
        self.before.entry(id).or_insert_with(|| h.content(id));
    }

    /// Re-elect the touched clusters that still exist and their ancestor
    /// chains — every cluster, if the distances changed since the last
    /// election — and return the delta: the positions whose content now
    /// differs from what they held before the operation, or a full delta
    /// if the height changed. Clusters left out hold the same members
    /// under the same distances, so electing them again would change
    /// nothing.
    fn reelect(mut self, h: &mut Hierarchy, dm: &DistanceMatrix) -> HierarchyDelta {
        let mut ids: Vec<(usize, usize)> = Vec::new();
        if h.elected_against(dm) {
            for id in self.before.keys() {
                let (mut level, mut index) = (id.level, id.index);
                if level > h.height() || index >= h.level(level).len() {
                    continue;
                }
                loop {
                    ids.push((level, index));
                    match h.level(level)[index].parent {
                        Some(p) => (level, index) = (level + 1, p),
                        None => break,
                    }
                }
            }
            ids.sort_unstable();
            ids.dedup();
        } else {
            for level in 1..=h.height() {
                ids.extend((0..h.level(level).len()).map(|i| (level, i)));
            }
        }
        for &(level, index) in &ids {
            self.touch(h, level, index);
        }
        h.elect(dm, &ids);
        if h.height() != self.height {
            return HierarchyDelta {
                full: true,
                dirty: Default::default(),
            };
        }
        let dirty = self
            .before
            .into_iter()
            .filter(|(id, old)| h.content(*id) != *old)
            .map(|(id, _)| id)
            .collect();
        HierarchyDelta { full: false, dirty }
    }
}

/// Split cluster `index` at `level` while it exceeds `max_cs`, propagating
/// overflow to the parent (growing a new top level if the root splits).
fn split_overflowing(
    h: &mut Hierarchy,
    t: &mut Touched,
    dm: &DistanceMatrix,
    level: usize,
    index: usize,
) {
    let max_cs = h.config().max_cs;
    if h.level(level)[index].members.len() <= max_cs {
        return;
    }
    // The kept half, the split-off half's new position, and the parent
    // (or the new root) that gains it.
    t.touch(h, level, index);
    t.touch(h, level, h.level(level).len());
    t.touch(h, level + 1, h.level(level)[index].parent.unwrap_or(0));
    // Partition members around the farthest pair (complete-linkage style
    // 2-split on actual costs).
    let cluster = h.level(level)[index].clone();
    let (sa, sb) = farthest_pair(&cluster.members, dm);
    let mut keep_members = Vec::new();
    let mut keep_children = Vec::new();
    let mut new_members = Vec::new();
    let mut new_children = Vec::new();
    for (k, &m) in cluster.members.iter().enumerate() {
        let to_a = dm.get(m, sa) <= dm.get(m, sb);
        if to_a {
            keep_members.push(m);
            if !cluster.children.is_empty() {
                keep_children.push(cluster.children[k]);
            }
        } else {
            new_members.push(m);
            if !cluster.children.is_empty() {
                new_children.push(cluster.children[k]);
            }
        }
    }
    debug_assert!(!keep_members.is_empty() && !new_members.is_empty());

    let keep_coord = dm
        .medoid(&keep_members, &keep_members)
        .expect("split halves are non-empty");
    let new_coord = dm
        .medoid(&new_members, &new_members)
        .expect("split halves are non-empty");
    let parent = cluster.parent;

    // Rewrite the kept half in place; push the split-off half.
    {
        let c = &mut h.level_mut(level)[index];
        c.members = keep_members.clone();
        c.children = keep_children;
        c.coordinator = keep_coord;
    }
    let new_index = h.level(level).len();
    h.level_mut(level).push(Cluster {
        members: new_members.clone(),
        children: new_children.clone(),
        coordinator: new_coord,
        parent,
        diameter: 0.0,
    });

    // Fix downward references of the split-off half.
    if level == 1 {
        for &m in &new_members {
            h.leaf_of_mut()[m.index()] = Some(new_index);
        }
    } else {
        for &child in &new_children {
            h.level_mut(level - 1)[child].parent = Some(new_index);
        }
    }

    // Register the new cluster with the parent (or grow a new root level).
    match parent {
        Some(p) => {
            let pc = &mut h.level_mut(level + 1)[p];
            pc.members.push(new_coord);
            pc.children.push(new_index);
            split_overflowing(h, t, dm, level + 1, p);
        }
        None => {
            // The root split: create a new top level over both halves.
            let members = vec![keep_coord, new_coord];
            let coordinator = dm
                .medoid(&members, &members)
                .expect("root split has two members");
            let top_level = level + 1;
            let new_top = Cluster {
                members,
                children: vec![index, new_index],
                coordinator,
                parent: None,
                diameter: 0.0,
            };
            debug_assert_eq!(h.height() + 1, top_level, "root split grows one level");
            h.push_level(vec![new_top]);
            h.level_mut(level)[index].parent = Some(0);
            h.level_mut(level)[new_index].parent = Some(0);
        }
    }
}

/// The pair of members with maximum pairwise traversal cost, used to seed a
/// 2-way cluster split.
fn farthest_pair(members: &[NodeId], dm: &DistanceMatrix) -> (NodeId, NodeId) {
    debug_assert!(members.len() >= 2);
    let mut best = (members[0], members[1]);
    let mut best_d = -1.0;
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            let d = dm.get(a, b);
            if d > best_d {
                best_d = d;
                best = (a, b);
            }
        }
    }
    best
}

/// Remove cluster `index` from `level`, fixing all cross-references (the
/// last cluster of the level is swapped into the hole). Recursively removes
/// emptied parents.
fn remove_cluster(h: &mut Hierarchy, t: &mut Touched, level: usize, index: usize) {
    t.touch(h, level, index);
    t.touch(h, level, h.level(level).len() - 1);
    if let Some(p) = h.level(level)[index].parent {
        t.touch(h, level + 1, p);
    }
    let removed = h.level_mut(level).swap_remove(index);

    // The cluster that moved from the end into `index` (if any) must have
    // its references fixed.
    if index < h.level(level).len() {
        let moved = h.level(level)[index].clone();
        if level == 1 {
            for &m in &moved.members {
                h.leaf_of_mut()[m.index()] = Some(index);
            }
        } else {
            for &child in &moved.children {
                h.level_mut(level - 1)[child].parent = Some(index);
            }
        }
        if let Some(p) = moved.parent {
            let old_index = h.level(level).len();
            for c in h.level_mut(level + 1)[p].children.iter_mut() {
                if *c == old_index {
                    *c = index;
                }
            }
        }
    }

    // Detach from the parent; recurse if the parent emptied.
    if let Some(p) = removed.parent {
        // `removed` sat at `index` before the swap; the parent references it
        // by that child index paired with its coordinator member.
        let pc = &mut h.level_mut(level + 1)[p];
        if let Some(k) = pc.children.iter().position(|&c| c == index) {
            // Careful: after the swap the moved cluster now also claims
            // child index `index`; disambiguate by coordinator identity.
            if pc.members[k] == removed.coordinator {
                pc.members.remove(k);
                pc.children.remove(k);
            } else if let Some(k2) = pc.members.iter().position(|&m| m == removed.coordinator) {
                pc.members.remove(k2);
                pc.children.remove(k2);
            }
        } else if let Some(k) = pc.members.iter().position(|&m| m == removed.coordinator) {
            pc.members.remove(k);
            pc.children.remove(k);
        }
        if h.level(level + 1)[p].members.is_empty() {
            remove_cluster(h, t, level + 1, p);
        }
    }
}

/// Drop top levels that sit above a level that already has a single cluster.
fn collapse_redundant_top(h: &mut Hierarchy) {
    while h.height() > 1 && h.level(h.height() - 1).len() == 1 {
        h.pop_level();
        let top = h.height();
        h.level_mut(top)[0].parent = None;
    }
}

impl Hierarchy {
    /// Append a new top level (membership surgery).
    pub(crate) fn push_level(&mut self, clusters: Vec<Cluster>) {
        self.levels_push(clusters);
    }

    /// Drop the top level (membership surgery).
    pub(crate) fn pop_level(&mut self) {
        self.levels_pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use dsq_net::{CostSpace, Metric, TransitStubConfig};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn setup(max_cs: usize) -> (Hierarchy, DistanceMatrix, Vec<NodeId>) {
        let ts = TransitStubConfig::paper_64().generate(9);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let cs = CostSpace::embed(&dm, 9, 40);
        let all: Vec<NodeId> = ts.network.nodes().collect();
        // Start with half the nodes active, so the rest can join later.
        let active: Vec<NodeId> = all.iter().copied().filter(|n| n.0 % 2 == 0).collect();
        let inactive: Vec<NodeId> = all.iter().copied().filter(|n| n.0 % 2 == 1).collect();
        let h = Hierarchy::build(&active, &dm, &cs, HierarchyConfig::new(max_cs));
        (h, dm, inactive)
    }

    #[test]
    fn join_route_reaches_a_leaf_and_counts_messages() {
        let (h, dm, inactive) = setup(8);
        let via = h.active_nodes()[0];
        let out = join_route(&h, &dm, inactive[0], via);
        assert_eq!(out.leaf.level, 1);
        assert_eq!(out.messages, out.route.len());
        assert!(out.messages >= h.height(), "must traverse up and down");
    }

    #[test]
    fn join_prefers_nearby_cluster() {
        let (h, dm, inactive) = setup(8);
        let via = h.active_nodes()[0];
        let node = inactive[3];
        let out = join_route(&h, &dm, node, via);
        // The chosen leaf's coordinator should be (weakly) closer than the
        // median leaf coordinator: the greedy descent is a heuristic, but on
        // transit-stub networks it must not land in a far-away stub domain.
        let chosen = dm.get(h.cluster(out.leaf).coordinator, node);
        let mut all: Vec<f64> = h
            .level(1)
            .iter()
            .map(|c| dm.get(c.coordinator, node))
            .collect();
        all.sort_by(f64::total_cmp);
        let median = all[all.len() / 2];
        assert!(chosen <= median, "chosen {chosen} median {median}");
    }

    #[test]
    fn add_then_remove_preserves_invariants() {
        let (mut h, dm, inactive) = setup(4);
        let via = h.active_nodes()[0];
        for &n in inactive.iter().take(12) {
            add_node(&mut h, &dm, n, via);
            h.check_invariants();
            assert!(h.is_active(n));
        }
        for &n in inactive.iter().take(12) {
            remove_node(&mut h, &dm, n).unwrap();
            h.check_invariants();
            assert!(!h.is_active(n));
        }
    }

    #[test]
    fn overflow_splits_keep_cap() {
        let (mut h, dm, inactive) = setup(4);
        let via = h.active_nodes()[0];
        for &n in &inactive {
            add_node(&mut h, &dm, n, via);
        }
        h.check_invariants(); // includes the max_cs check
        assert_eq!(h.active_nodes().len(), 64);
    }

    #[test]
    fn randomized_membership_churn() {
        let (mut h, dm, mut pool) = setup(4);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for step in 0..80 {
            let active = h.active_nodes();
            if (rng.gen_bool(0.5) && !pool.is_empty()) || active.len() <= 2 {
                let n = pool.pop().unwrap();
                let via = *active.choose(&mut rng).unwrap();
                add_node(&mut h, &dm, n, via);
            } else {
                let n = *active.choose(&mut rng).unwrap();
                remove_node(&mut h, &dm, n).unwrap();
                pool.push(n);
            }
            h.check_invariants();
            assert!(step < 100);
        }
    }

    #[test]
    fn remove_errors_are_typed_and_leave_the_hierarchy_untouched() {
        let (mut h, dm, inactive) = setup(8);
        // Not a member → NotAMember, nothing changes.
        let outsider = inactive[0];
        assert_eq!(
            remove_node(&mut h, &dm, outsider),
            Err(MembershipError::NotAMember(outsider))
        );
        h.check_invariants();

        // Drain down to a single member: that removal must refuse with
        // LastMember instead of panicking (the chaos harness relies on this
        // when a schedule crashes every overlay member).
        let mut active = h.active_nodes();
        while active.len() > 1 {
            remove_node(&mut h, &dm, active[0]).unwrap();
            active = h.active_nodes();
        }
        let last = active[0];
        assert_eq!(
            remove_node(&mut h, &dm, last),
            Err(MembershipError::LastMember)
        );
        assert!(
            h.is_active(last),
            "failed removal must not alter membership"
        );
        h.check_invariants();
    }

    #[test]
    fn removing_coordinator_reelects() {
        let (mut h, dm, _) = setup(8);
        let coord = h.cluster(h.top()).coordinator;
        remove_node(&mut h, &dm, coord).unwrap();
        h.check_invariants();
        assert!(!h.is_active(coord));
        assert_ne!(h.cluster(h.top()).coordinator, coord);
    }

    #[test]
    fn removing_the_last_member_of_a_leaf_collapses_the_cluster() {
        let (mut h, dm, _) = setup(4);
        // Drain one leaf cluster down to a single member…
        let leaf = h.level(1)[0].clone();
        for &n in &leaf.members[1..] {
            remove_node(&mut h, &dm, n).unwrap();
        }
        let survivor = leaf.members[0];
        assert_eq!(h.cluster(h.leaf_cluster(survivor)).members, vec![survivor]);
        let leaves_before = h.level(1).len();
        // …then remove that last member: the emptied cluster must vanish
        // (and its parent's member/child lists must be fixed up).
        remove_node(&mut h, &dm, survivor).unwrap();
        h.check_invariants();
        assert!(!h.is_active(survivor));
        assert_eq!(h.level(1).len(), leaves_before - 1);
    }

    #[test]
    fn backup_coordinator_takeover_survives_immediate_refailure() {
        let (mut h, dm, _) = setup(8);
        let top = h.top();
        assert!(
            h.backup_coordinator(top, &dm).is_some(),
            "multi-member clusters always designate a backup"
        );
        let first = h.cluster(top).coordinator;
        remove_node(&mut h, &dm, first).unwrap();
        h.check_invariants();
        let second = h.cluster(h.top()).coordinator;
        assert_ne!(second, first);
        assert!(h.is_active(second));
        // The just-elected backup fails before it ever hands off: the
        // overlay must re-elect a third, distinct coordinator.
        remove_node(&mut h, &dm, second).unwrap();
        h.check_invariants();
        let third = h.cluster(h.top()).coordinator;
        assert!(third != first && third != second);
        assert!(!h.is_active(first) && !h.is_active(second));
        assert!(h.is_active(third));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Seeded join/leave/rejoin churn preserves every structural
        /// invariant *and* the Theorem 1 estimate bound after each step:
        /// `|c_act − c_est^l| ≤ Σ_{i<l} 2·d_i` must keep holding as the
        /// clusters shrink, split and re-elect.
        #[test]
        fn churn_preserves_invariants_and_theorem1(seed in 0u64..1000, max_cs in 3usize..=8) {
            let (mut h, dm, mut pool) = setup(max_cs);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..30 {
                let active = h.active_nodes();
                if (rng.gen_bool(0.5) && !pool.is_empty()) || active.len() <= 2 {
                    let n = pool.pop().unwrap();
                    let via = *active.choose(&mut rng).unwrap();
                    add_node(&mut h, &dm, n, via);
                } else {
                    let n = *active.choose(&mut rng).unwrap();
                    remove_node(&mut h, &dm, n).unwrap();
                    pool.push(n);
                }
                h.check_invariants();
                let nodes = h.active_nodes();
                for level in 1..=h.height() {
                    let slack = h.theorem1_slack(level);
                    for (i, &a) in nodes.iter().enumerate().step_by(5) {
                        for &b in nodes.iter().skip(i + 1).step_by(5) {
                            let act = dm.get(a, b);
                            let est = h.estimated_cost(&dm, a, b, level);
                            proptest::prop_assert!(
                                (act - est).abs() <= slack + 1e-9,
                                "Theorem 1 violated at level {level}: \
                                 act {act} est {est} slack {slack}"
                            );
                        }
                    }
                }
            }
        }
    }
}
