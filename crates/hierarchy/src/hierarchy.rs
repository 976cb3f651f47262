//! The clustering hierarchy: levels, coordinators and distance estimates.

use crate::agglomerative::agglomerative;
use crate::kmeans::capped_kmeans;
use dsq_net::{CostSpace, DistanceMatrix, NodeId};

/// Which clustering algorithm forms each level's partitions.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ClusteringMethod {
    /// K-Means over the cost-space embedding (the paper's choice).
    KMeans,
    /// Complete-linkage agglomeration over actual traversal costs
    /// (ablation alternative).
    Agglomerative,
}

/// Hierarchy construction parameters.
#[derive(Copy, Clone, Debug)]
pub struct HierarchyConfig {
    /// Maximum number of members per cluster (the paper's `max_cs` knob).
    pub max_cs: usize,
    /// Seed for the clustering (K-Means initialization).
    pub seed: u64,
    /// Clustering algorithm.
    pub method: ClusteringMethod,
}

impl HierarchyConfig {
    /// K-Means hierarchy with the given cluster-size cap.
    pub fn new(max_cs: usize) -> Self {
        HierarchyConfig {
            max_cs,
            seed: 0x5eed,
            method: ClusteringMethod::KMeans,
        }
    }
}

/// Identifier of a cluster: its (1-based, paper-style) level and its index
/// within that level.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct ClusterId {
    /// Paper-style level, 1-based (level 1 holds physical nodes).
    pub level: usize,
    /// Index within the level.
    pub index: usize,
}

/// One cluster of the hierarchy.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Physical node ids of the members. At level 1 these are ordinary
    /// nodes; at level `l > 1` they are the coordinators of the child
    /// clusters at level `l − 1`.
    pub members: Vec<NodeId>,
    /// For levels above 1: index (at level − 1) of the child cluster each
    /// member coordinates, parallel to `members`. Empty at level 1.
    pub children: Vec<usize>,
    /// Coordinator: the member with minimum summed distance to the others
    /// (medoid); promoted to the next level.
    pub coordinator: NodeId,
    /// Index of the parent cluster at level + 1 (`None` at the top level).
    pub parent: Option<usize>,
    /// Largest traversal cost between two members, as of the cluster's
    /// last election; `d_i` is the maximum of these over level `i`.
    pub(crate) diameter: f64,
}

/// The virtual clustering hierarchy over the active nodes of a network.
///
/// The hierarchy is built over a subset of the network's nodes (the
/// *active* overlay members), so runtime joins/leaves (see
/// [`crate::membership`]) activate or deactivate nodes without invalidating
/// the distance matrix or the embedding.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// `levels[l-1]` holds the clusters of paper-level `l`.
    levels: Vec<Vec<Cluster>>,
    /// Per physical node: leaf (level 1) cluster index, if active.
    leaf_of: Vec<Option<usize>>,
    /// `d[i-1]` = `d_i`: maximum intra-cluster traversal cost at level `i`.
    d: Vec<f64>,
    config: HierarchyConfig,
    /// [`DistanceMatrix::version`] every coordinator and diameter was last
    /// computed against; `None` once the statistics were refreshed against
    /// other distances than the coordinators were elected under.
    elected_against: Option<u64>,
}

impl Hierarchy {
    /// Build the hierarchy over `active` nodes.
    ///
    /// `dm` supplies actual traversal costs (for medoid election and the
    /// `d_i` statistics); `space` supplies the embedded coordinates K-Means
    /// clusters on.
    pub fn build(
        active: &[NodeId],
        dm: &DistanceMatrix,
        space: &CostSpace,
        config: HierarchyConfig,
    ) -> Self {
        assert!(!active.is_empty(), "hierarchy needs at least one node");
        assert!(config.max_cs >= 2, "max_cs < 2 cannot form a hierarchy");
        let mut h = Hierarchy {
            levels: Vec::new(),
            leaf_of: vec![None; dm.len()],
            d: Vec::new(),
            config,
            elected_against: None,
        };
        h.rebuild(active, dm, space);
        h
    }

    /// (Re)build all levels from scratch over `active` nodes.
    pub(crate) fn rebuild(&mut self, active: &[NodeId], dm: &DistanceMatrix, space: &CostSpace) {
        self.levels.clear();
        self.leaf_of = vec![None; dm.len()];

        // Level 1 over the active physical nodes.
        let mut current: Vec<NodeId> = active.to_vec();
        current.sort_unstable();
        current.dedup();
        let mut child_indices: Option<Vec<usize>> = None; // None at level 1

        loop {
            let groups = self.cluster_nodes(&current, dm, space);
            let level_no = self.levels.len() + 1;
            let mut clusters = Vec::with_capacity(groups.len());
            for group in &groups {
                let members: Vec<NodeId> = group.iter().map(|&i| current[i]).collect();
                dsq_obs::counter("hierarchy.coordinator_elections", 1);
                let coordinator = dm
                    .medoid(&members, &members)
                    .expect("clustering never produces an empty group");
                let children = match &child_indices {
                    Some(ci) => group.iter().map(|&i| ci[i]).collect(),
                    None => Vec::new(),
                };
                clusters.push(Cluster {
                    diameter: max_pairwise(&members, dm),
                    members,
                    children,
                    coordinator,
                    parent: None,
                });
            }
            // Wire child → parent pointers and the leaf index.
            for (ci, cluster) in clusters.iter().enumerate() {
                if level_no == 1 {
                    for &m in &cluster.members {
                        self.leaf_of[m.index()] = Some(ci);
                    }
                } else {
                    for &child in &cluster.children {
                        self.levels[level_no - 2][child].parent = Some(ci);
                    }
                }
            }
            let done = clusters.len() == 1;
            let coords: Vec<NodeId> = clusters.iter().map(|c| c.coordinator).collect();
            let child_idx: Vec<usize> = (0..clusters.len()).collect();
            self.levels.push(clusters);
            if done {
                break;
            }
            current = coords;
            child_indices = Some(child_idx);
        }
        self.recompute_d();
        self.elected_against = Some(dm.version());
    }

    fn cluster_nodes(
        &self,
        nodes: &[NodeId],
        dm: &DistanceMatrix,
        space: &CostSpace,
    ) -> Vec<Vec<usize>> {
        match self.config.method {
            ClusteringMethod::KMeans => {
                let pts: Vec<_> = nodes.iter().map(|&n| space.coord(n)).collect();
                capped_kmeans(&pts, self.config.max_cs, self.config.seed)
            }
            ClusteringMethod::Agglomerative => agglomerative(nodes, dm, self.config.max_cs),
        }
    }

    /// Refresh the `d_i` statistics against updated distances (e.g. after
    /// runtime link-cost changes detected by the adaptivity middleware).
    /// The cluster structure and the coordinators are kept; the next
    /// membership operation re-elects every coordinator against `dm`.
    pub fn refresh_statistics(&mut self, dm: &DistanceMatrix) {
        let all: Vec<(usize, usize)> = (1..=self.height())
            .flat_map(|level| (0..self.level(level).len()).map(move |i| (level, i)))
            .collect();
        self.remeasure(dm, &all);
    }

    /// [`refresh_statistics`](Self::refresh_statistics) after a change that
    /// moved only distance pairs with an endpoint in `cover` (a
    /// [`dsq_net::ChangedEntries::cover`]): only the clusters with a member
    /// in the cover are measured again — any other cluster's member pairs
    /// all kept their distances, so its diameter would come out the same.
    pub fn refresh_statistics_near(&mut self, dm: &DistanceMatrix, cover: &[NodeId]) {
        let mut ids: Vec<(usize, usize)> = cover
            .iter()
            .flat_map(|&node| self.member_clusters(node))
            .map(|id| (id.level, id.index))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        self.remeasure(dm, &ids);
    }

    /// Measure the diameters of the clusters `ids` — `(level, index)`
    /// pairs — against `dm`, keeping members and coordinators, then
    /// refresh `d_i` from the cached diameters. Unless the coordinators
    /// were elected against `dm`, the next membership operation re-elects
    /// every cluster.
    fn remeasure(&mut self, dm: &DistanceMatrix, ids: &[(usize, usize)]) {
        dsq_obs::counter("hierarchy.clusters_remeasured", ids.len() as u64);
        for &(level, i) in ids {
            let c = &mut self.levels[level - 1][i];
            c.diameter = max_pairwise(&c.members, dm);
        }
        self.recompute_d();
        if self.elected_against != Some(dm.version()) {
            self.elected_against = None;
        }
    }

    /// Whether every coordinator and diameter is current for `dm`, so an
    /// election needs to visit only the clusters a change touched.
    pub(crate) fn elected_against(&self, dm: &DistanceMatrix) -> bool {
        self.elected_against == Some(dm.version())
    }

    /// Re-elect the clusters `ids` — `(level, index)` pairs, sorted so
    /// that every level comes before the one above it — against `dm`: a
    /// cluster above level 1 first takes its children's coordinators as
    /// members, then the medoid becomes its coordinator and its diameter
    /// is measured. `d_i` is then refreshed from the cached diameters.
    /// Afterwards the hierarchy counts as current for `dm`, so `ids` must
    /// be every cluster unless [`Self::elected_against`] already held.
    pub(crate) fn elect(&mut self, dm: &DistanceMatrix, ids: &[(usize, usize)]) {
        dsq_obs::counter("hierarchy.coordinator_elections", ids.len() as u64);
        for &(level, i) in ids {
            if level > 1 {
                let (below, here) = self.levels.split_at_mut(level - 1);
                let c = &mut here[0][i];
                c.members.clear();
                c.members
                    .extend(c.children.iter().map(|&k| below[level - 2][k].coordinator));
            }
            let c = &mut self.levels[level - 1][i];
            c.coordinator = dm
                .medoid(&c.members, &c.members)
                .expect("surgery never leaves an empty cluster");
            c.diameter = max_pairwise(&c.members, dm);
        }
        self.recompute_d();
        self.elected_against = Some(dm.version());
    }

    /// `d_i` as the maximum of level `i`'s cached cluster diameters.
    fn recompute_d(&mut self) {
        self.d = self
            .levels
            .iter()
            .map(|clusters| clusters.iter().map(|c| c.diameter).fold(0.0, f64::max))
            .collect();
    }

    /// Members and coordinator of the cluster at `id`, or `None` when no
    /// cluster holds that position — what [`Hierarchy::snapshot`] records.
    pub(crate) fn content(&self, id: ClusterId) -> Option<(Vec<NodeId>, NodeId)> {
        let c = self.levels.get(id.level.checked_sub(1)?)?.get(id.index)?;
        Some((c.members.clone(), c.coordinator))
    }

    /// Number of levels `h` in the hierarchy.
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Configuration the hierarchy was built with.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// Clusters at a (1-based) level.
    pub fn level(&self, level: usize) -> &[Cluster] {
        &self.levels[level - 1]
    }

    /// Mutable clusters at a level (membership surgery).
    pub(crate) fn level_mut(&mut self, level: usize) -> &mut Vec<Cluster> {
        &mut self.levels[level - 1]
    }

    /// Per-node leaf indices (membership surgery).
    pub(crate) fn leaf_of_mut(&mut self) -> &mut Vec<Option<usize>> {
        &mut self.leaf_of
    }

    /// Append a new top level (membership surgery).
    pub(crate) fn levels_push(&mut self, clusters: Vec<Cluster>) {
        self.levels.push(clusters);
    }

    /// Drop the top level (membership surgery).
    pub(crate) fn levels_pop(&mut self) {
        self.levels.pop();
    }

    /// A cluster by id.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.levels[id.level - 1][id.index]
    }

    /// The single top cluster.
    pub fn top(&self) -> ClusterId {
        debug_assert_eq!(self.levels.last().map(Vec::len), Some(1));
        ClusterId {
            level: self.levels.len(),
            index: 0,
        }
    }

    /// Whether a node is an active overlay member.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.leaf_of
            .get(node.index())
            .map(|o| o.is_some())
            .unwrap_or(false)
    }

    /// All active nodes.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.active().collect()
    }

    /// The active nodes, leaf cluster by leaf cluster, without collecting
    /// them.
    pub fn active(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.levels[0]
            .iter()
            .flat_map(|c| c.members.iter().copied())
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.levels[0].iter().map(|c| c.members.len()).sum()
    }

    /// The leaf (level 1) cluster containing an active node.
    pub fn leaf_cluster(&self, node: NodeId) -> ClusterId {
        ClusterId {
            level: 1,
            index: self.leaf_of[node.index()].expect("node is not an active overlay member"),
        }
    }

    /// The clusters `node` is a member of, lowest first: its leaf cluster,
    /// then each parent while `node` coordinates the cluster below (a
    /// level's members are its children's coordinators). Empty when `node`
    /// is not an active overlay member.
    pub fn member_clusters(&self, node: NodeId) -> Vec<ClusterId> {
        let Some(mut index) = self.leaf_of.get(node.index()).copied().flatten() else {
            return Vec::new();
        };
        let mut out = vec![ClusterId { level: 1, index }];
        for level in 1..self.height() {
            let c = &self.levels[level - 1][index];
            match c.parent {
                Some(p) if c.coordinator == node => index = p,
                _ => break,
            }
            out.push(ClusterId {
                level: level + 1,
                index,
            });
        }
        out
    }

    /// The cluster at `level` whose subtree contains `node`.
    pub fn ancestor(&self, node: NodeId, level: usize) -> ClusterId {
        assert!(level >= 1 && level <= self.height());
        let mut idx = self.leaf_of[node.index()].expect("node is not an active overlay member");
        for l in 2..=level {
            idx = self.levels[l - 2][idx]
                .parent
                .expect("non-top cluster must have a parent");
        }
        ClusterId { level, index: idx }
    }

    /// The member node that represents `node` at `level`: the node itself at
    /// level 1, otherwise the coordinator of its level-(`level` − 1)
    /// ancestor cluster. This is the node whose position stands in for
    /// `node` in any level-`level` planning step.
    pub fn representative(&self, node: NodeId, level: usize) -> NodeId {
        if level == 1 {
            node
        } else {
            self.cluster(self.ancestor(node, level - 1)).coordinator
        }
    }

    /// Which member slot of `cluster` represents `node` (i.e. contains it in
    /// its subtree). `None` if `node` is outside the cluster's subtree.
    pub fn member_of(&self, cluster: ClusterId, node: NodeId) -> Option<usize> {
        if !self.is_active(node) {
            return None;
        }
        let rep = self.representative(node, cluster.level);
        self.cluster(cluster).members.iter().position(|&m| m == rep)
    }

    /// All physical nodes in the subtree of `cluster`.
    pub fn subtree_nodes(&self, cluster: ClusterId) -> Vec<NodeId> {
        let c = self.cluster(cluster);
        if cluster.level == 1 {
            return c.members.clone();
        }
        let mut out = Vec::new();
        for &child in &c.children {
            out.extend(self.subtree_nodes(ClusterId {
                level: cluster.level - 1,
                index: child,
            }));
        }
        out
    }

    /// Physical nodes under member `member_idx` of `cluster`: the member
    /// itself at level 1, otherwise the subtree of the child cluster it
    /// coordinates.
    pub fn member_subtree(&self, cluster: ClusterId, member_idx: usize) -> Vec<NodeId> {
        let c = self.cluster(cluster);
        if cluster.level == 1 {
            vec![c.members[member_idx]]
        } else {
            self.subtree_nodes(ClusterId {
                level: cluster.level - 1,
                index: c.children[member_idx],
            })
        }
    }

    /// The child cluster a member of `cluster` coordinates (levels > 1).
    pub fn child_of_member(&self, cluster: ClusterId, member_idx: usize) -> ClusterId {
        assert!(cluster.level > 1, "level-1 members have no child clusters");
        ClusterId {
            level: cluster.level - 1,
            index: self.cluster(cluster).children[member_idx],
        }
    }

    /// Maximum intra-cluster traversal cost at a level (`d_i`, Theorem 1).
    pub fn d_at(&self, level: usize) -> f64 {
        self.d[level - 1]
    }

    /// The designated backup coordinator of a cluster: the best medoid
    /// among the members excluding the current coordinator ("failure of
    /// coordinator … nodes can be handled by maintaining active back-ups
    /// of those nodes within each cluster", Section 2.1.1). `None` for
    /// single-member clusters.
    pub fn backup_coordinator(&self, cluster: ClusterId, dm: &DistanceMatrix) -> Option<NodeId> {
        let c = self.cluster(cluster);
        let candidates: Vec<NodeId> = c
            .members
            .iter()
            .copied()
            .filter(|&m| m != c.coordinator)
            .collect();
        dm.medoid(&candidates, &c.members)
    }

    /// Every coordinator role a physical node currently holds, as the
    /// clusters it coordinates (one per level it was promoted through).
    pub fn coordinator_roles(&self, node: NodeId) -> Vec<ClusterId> {
        let mut roles = Vec::new();
        for (li, clusters) in self.levels.iter().enumerate() {
            for (ci, c) in clusters.iter().enumerate() {
                if c.coordinator == node {
                    roles.push(ClusterId {
                        level: li + 1,
                        index: ci,
                    });
                }
            }
        }
        roles
    }

    /// Theorem 1 slack at a level: `Σ_{i<level} 2·d_i` — the maximum error
    /// of a level-`level` distance estimate.
    pub fn theorem1_slack(&self, level: usize) -> f64 {
        (1..level).map(|i| 2.0 * self.d_at(i)).sum()
    }

    /// Distance between two nodes as estimated at `level`: the actual
    /// distance between their level-`level` representatives (`c_est^l`).
    pub fn estimated_cost(&self, dm: &DistanceMatrix, a: NodeId, b: NodeId, level: usize) -> f64 {
        dm.get(self.representative(a, level), self.representative(b, level))
    }

    /// The lowest level at which `a` and `b` fall in the same cluster.
    pub fn common_level(&self, a: NodeId, b: NodeId) -> usize {
        for level in 1..=self.height() {
            if self.ancestor(a, level) == self.ancestor(b, level) {
                return level;
            }
        }
        unreachable!("top level is a single cluster")
    }

    /// Render the hierarchy as a DOT digraph: clusters as boxes per level,
    /// coordinator-promotion edges between levels. Render with
    /// `dot -Tsvg hierarchy.dot`.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "digraph hierarchy {{");
        let _ = writeln!(
            out,
            "  rankdir=BT; node [shape=box,fontname=\"monospace\"];"
        );
        for (li, clusters) in self.levels.iter().enumerate() {
            let level = li + 1;
            let _ = writeln!(out, "  subgraph cluster_level{level} {{");
            let _ = writeln!(out, "    label=\"level {level}\";");
            for (ci, c) in clusters.iter().enumerate() {
                let members: Vec<String> = c.members.iter().map(|m| m.to_string()).collect();
                let _ = writeln!(
                    out,
                    "    l{level}c{ci} [label=\"coord {}\\n[{}]\"];",
                    c.coordinator,
                    members.join(",")
                );
            }
            let _ = writeln!(out, "  }}");
        }
        for (li, clusters) in self.levels.iter().enumerate() {
            let level = li + 1;
            for (ci, c) in clusters.iter().enumerate() {
                if let Some(p) = c.parent {
                    let _ = writeln!(out, "  l{level}c{ci} -> l{}c{p};", level + 1);
                }
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Structural invariants; used by tests and after membership surgery.
    /// Panics with a description on violation.
    pub fn check_invariants(&self) {
        assert!(!self.levels.is_empty());
        assert_eq!(self.levels.last().unwrap().len(), 1, "single top cluster");
        for (li, clusters) in self.levels.iter().enumerate() {
            let level = li + 1;
            for (ci, c) in clusters.iter().enumerate() {
                assert!(!c.members.is_empty(), "empty cluster at level {level}");
                assert!(
                    c.members.len() <= self.config.max_cs,
                    "cluster size {} exceeds max_cs {} at level {level}",
                    c.members.len(),
                    self.config.max_cs
                );
                assert!(
                    c.members.contains(&c.coordinator),
                    "coordinator must be a member"
                );
                if level == 1 {
                    assert!(c.children.is_empty());
                    for &m in &c.members {
                        assert_eq!(self.leaf_of[m.index()], Some(ci), "leaf index mismatch");
                    }
                } else {
                    assert_eq!(c.children.len(), c.members.len());
                    for (k, &child) in c.children.iter().enumerate() {
                        let childc = &self.levels[level - 2][child];
                        assert_eq!(childc.parent, Some(ci), "parent pointer mismatch");
                        assert_eq!(
                            childc.coordinator, c.members[k],
                            "member must be its child's coordinator"
                        );
                    }
                }
                if level == self.levels.len() {
                    assert!(c.parent.is_none());
                } else {
                    assert!(c.parent.is_some(), "non-top cluster must have parent");
                }
            }
        }
        // Every level-1 member appears in exactly one cluster.
        let mut seen = vec![false; self.leaf_of.len()];
        for c in &self.levels[0] {
            for &m in &c.members {
                assert!(!seen[m.index()], "node {m} in two leaf clusters");
                seen[m.index()] = true;
            }
        }
    }

    /// Content fingerprint of every cluster, for diffing across membership
    /// surgery. Keyed by [`ClusterId`], which is *positional*: surgery may
    /// reuse an index for a different cluster (`remove_cluster` swap-removes),
    /// so the snapshot records the content — members and coordinator — and
    /// [`HierarchySnapshot::diff`] reports any id whose content moved.
    pub fn snapshot(&self) -> HierarchySnapshot {
        let mut clusters = std::collections::HashMap::new();
        for (li, level) in self.levels.iter().enumerate() {
            for (ci, c) in level.iter().enumerate() {
                let id = ClusterId {
                    level: li + 1,
                    index: ci,
                };
                clusters.insert(id, (c.members.clone(), c.coordinator));
            }
        }
        HierarchySnapshot {
            height: self.height(),
            clusters,
        }
    }

    /// The ancestors of `node` from its leaf cluster up to `max_level`
    /// (clamped to the height). Empty when `node` is not an active overlay
    /// member. This is the "dirty-ancestor walk": a memoized subplan that
    /// referenced `node` is stale exactly when some cluster on this chain
    /// changed, because `node`'s level-`l` representative is the coordinator
    /// of its level-(`l`−1) ancestor.
    pub fn ancestor_chain(&self, node: NodeId, max_level: usize) -> Vec<ClusterId> {
        if !self.is_active(node) {
            return Vec::new();
        }
        let top = max_level.min(self.height());
        let mut chain = Vec::with_capacity(top);
        let mut idx = self.leaf_of[node.index()].expect("checked active");
        chain.push(ClusterId {
            level: 1,
            index: idx,
        });
        for l in 2..=top {
            idx = self.levels[l - 2][idx]
                .parent
                .expect("non-top cluster must have a parent");
            chain.push(ClusterId {
                level: l,
                index: idx,
            });
        }
        chain
    }
}

/// Per-cluster content fingerprints of a [`Hierarchy`] at one instant
/// (see [`Hierarchy::snapshot`]).
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchySnapshot {
    height: usize,
    clusters: std::collections::HashMap<ClusterId, (Vec<NodeId>, NodeId)>,
}

impl HierarchySnapshot {
    /// Diff against a later snapshot: which [`ClusterId`]s now denote a
    /// cluster whose members or coordinator differ from what this snapshot
    /// recorded (including ids that appeared or disappeared). If the height
    /// changed, every level's numbering shifted meaning and the delta is
    /// marked [`full`](HierarchyDelta::full) instead.
    pub fn diff(&self, new: &HierarchySnapshot) -> HierarchyDelta {
        if self.height != new.height {
            return HierarchyDelta {
                full: true,
                dirty: std::collections::HashSet::new(),
            };
        }
        let mut dirty = std::collections::HashSet::new();
        for (id, content) in &new.clusters {
            if self.clusters.get(id) != Some(content) {
                dirty.insert(*id);
            }
        }
        for id in self.clusters.keys() {
            if !new.clusters.contains_key(id) {
                dirty.insert(*id);
            }
        }
        HierarchyDelta { full: false, dirty }
    }
}

/// Dirty-cluster set between two hierarchy snapshots — or reported by the
/// membership operation itself; consumed by the plan cache's scoped
/// retirement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HierarchyDelta {
    /// The hierarchy's height changed: level numbering itself shifted, so
    /// nothing keyed on [`ClusterId`]s can be trusted.
    pub full: bool,
    /// Ids whose cluster content (members or coordinator) changed.
    pub dirty: std::collections::HashSet<ClusterId>,
}

impl HierarchyDelta {
    /// True when the change touched nothing (no retirement needed).
    pub fn is_empty(&self) -> bool {
        !self.full && self.dirty.is_empty()
    }
}

fn max_pairwise(members: &[NodeId], dm: &DistanceMatrix) -> f64 {
    let mut max = 0.0f64;
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            max = max.max(dm.get(a, b));
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_net::{Metric, TransitStubConfig};

    fn build(max_cs: usize) -> (Hierarchy, DistanceMatrix) {
        let ts = TransitStubConfig::paper_64().generate(1);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let cs = CostSpace::embed(&dm, 1, 40);
        let active: Vec<NodeId> = ts.network.nodes().collect();
        let h = Hierarchy::build(&active, &dm, &cs, HierarchyConfig::new(max_cs));
        (h, dm)
    }

    #[test]
    fn a_refresh_near_the_cover_measures_what_a_full_refresh_does() {
        let mut net = TransitStubConfig::paper_64().generate(1).network;
        let (mut near, mut dm) = build(4);
        let mut full = near.clone();
        for (step, factor) in [4.0, 0.25, 3.0, 0.5, 10.0].into_iter().enumerate() {
            let a = NodeId((step * 13 % net.len()) as u32);
            let link = net.neighbors(a)[0];
            let old_w = Metric::Cost.weight(&link);
            net.set_link_cost(a, link.to, link.cost * factor);
            let (_, changed) = dm.repair_link_change(&net, a, link.to, old_w);
            full.refresh_statistics(&dm);
            near.refresh_statistics_near(&dm, changed.cover());
            for level in 1..=full.height() {
                assert_eq!(near.d_at(level).to_bits(), full.d_at(level).to_bits());
                for (n, f) in near.level(level).iter().zip(full.level(level)) {
                    assert_eq!(n.diameter.to_bits(), f.diameter.to_bits(), "step {step}");
                }
            }
        }
        // The member side the refresh walks: every cluster listing the node.
        for node in near.active_nodes() {
            let mut listing = Vec::new();
            for level in 1..=near.height() {
                for (index, c) in near.level(level).iter().enumerate() {
                    if c.members.contains(&node) {
                        listing.push(ClusterId { level, index });
                    }
                }
            }
            assert_eq!(near.member_clusters(node), listing);
        }
    }

    #[test]
    fn invariants_hold_for_various_max_cs() {
        for max_cs in [2, 4, 8, 16, 32, 64] {
            let (h, _) = build(max_cs);
            h.check_invariants();
            assert!(h.height() >= 1);
        }
    }

    #[test]
    fn smaller_max_cs_means_taller_hierarchy() {
        let (h2, _) = build(2);
        let (h32, _) = build(32);
        assert!(
            h2.height() > h32.height(),
            "h(max_cs=2) = {} vs h(max_cs=32) = {}",
            h2.height(),
            h32.height()
        );
        let (h64, _) = build(64);
        assert_eq!(h64.height(), 1, "64 nodes fit in one cluster of 64");
    }

    #[test]
    fn representatives_chain_to_top_coordinator() {
        let (h, _) = build(8);
        let top = h.top();
        let top_members = &h.cluster(top).members;
        for node in h.active_nodes() {
            assert_eq!(h.representative(node, 1), node);
            let rep_top = h.representative(node, h.height());
            assert!(top_members.contains(&rep_top));
            assert!(h.member_of(top, node).is_some());
        }
    }

    #[test]
    fn theorem1_estimate_error_is_bounded() {
        // |c_act − c_est^l| ≤ Σ_{i<l} 2·d_i for every pair and level.
        let (h, dm) = build(8);
        let nodes = h.active_nodes();
        for level in 1..=h.height() {
            let slack = h.theorem1_slack(level);
            for (i, &a) in nodes.iter().enumerate() {
                for &b in nodes.iter().skip(i + 1) {
                    let act = dm.get(a, b);
                    let est = h.estimated_cost(&dm, a, b, level);
                    assert!(
                        (act - est).abs() <= slack + 1e-9,
                        "level {level}: act {act} est {est} slack {slack}"
                    );
                }
            }
        }
    }

    #[test]
    fn level1_estimates_are_exact() {
        let (h, dm) = build(8);
        let nodes = h.active_nodes();
        assert_eq!(h.theorem1_slack(1), 0.0);
        for &a in nodes.iter().take(10) {
            for &b in nodes.iter().take(10) {
                assert_eq!(h.estimated_cost(&dm, a, b, 1), dm.get(a, b));
            }
        }
    }

    #[test]
    fn subtree_partitions_the_network() {
        let (h, _) = build(8);
        let mut all = h.subtree_nodes(h.top());
        all.sort_unstable();
        let mut active = h.active_nodes();
        active.sort_unstable();
        assert_eq!(all, active);

        // Member subtrees of the top cluster partition the node set.
        let top = h.top();
        let k = h.cluster(top).members.len();
        let mut union = Vec::new();
        for m in 0..k {
            union.extend(h.member_subtree(top, m));
        }
        union.sort_unstable();
        assert_eq!(union, active);
    }

    #[test]
    fn common_level_is_symmetric_and_sane() {
        let (h, _) = build(8);
        let nodes = h.active_nodes();
        for &a in nodes.iter().take(8) {
            for &b in nodes.iter().take(8) {
                let l = h.common_level(a, b);
                assert_eq!(l, h.common_level(b, a));
                if a == b {
                    assert_eq!(l, 1);
                }
                assert_eq!(h.ancestor(a, l), h.ancestor(b, l));
            }
        }
    }

    #[test]
    fn d_is_monotone_enough_to_be_positive_above_level_one() {
        let (h, _) = build(4);
        for level in 1..=h.height() {
            assert!(h.d_at(level) >= 0.0);
        }
        if h.height() > 1 {
            assert!(h.theorem1_slack(h.height()) > 0.0);
        }
    }

    #[test]
    fn agglomerative_method_also_builds_valid_hierarchy() {
        let ts = TransitStubConfig::paper_64().generate(2);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let cs = CostSpace::embed(&dm, 2, 40);
        let active: Vec<NodeId> = ts.network.nodes().collect();
        let h = Hierarchy::build(
            &active,
            &dm,
            &cs,
            HierarchyConfig {
                max_cs: 8,
                seed: 0,
                method: ClusteringMethod::Agglomerative,
            },
        );
        h.check_invariants();
    }

    #[test]
    fn dot_export_is_balanced_and_complete() {
        let (h, _) = build(8);
        let dot = h.to_dot();
        assert!(dot.starts_with("digraph hierarchy {"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
        // One subgraph per level, one node per cluster, one edge per
        // non-top cluster.
        assert_eq!(dot.matches("subgraph").count(), h.height());
        let clusters: usize = (1..=h.height()).map(|l| h.level(l).len()).sum();
        assert_eq!(dot.matches("coord").count(), clusters);
        assert_eq!(dot.matches("->").count(), clusters - 1);
    }

    #[test]
    fn partial_overlay_membership() {
        let ts = TransitStubConfig::paper_64().generate(3);
        let dm = DistanceMatrix::build(&ts.network, Metric::Cost);
        let cs = CostSpace::embed(&dm, 3, 40);
        let active: Vec<NodeId> = ts.network.nodes().filter(|n| n.0 % 2 == 0).collect();
        let h = Hierarchy::build(&active, &dm, &cs, HierarchyConfig::new(8));
        h.check_invariants();
        assert!(h.is_active(NodeId(0)));
        assert!(!h.is_active(NodeId(1)));
        assert_eq!(h.active_nodes().len(), active.len());
    }

    #[test]
    fn ancestor_chain_matches_ancestor_and_clamps() {
        let (h, _) = build(8);
        for node in h.active_nodes() {
            let chain = h.ancestor_chain(node, h.height());
            assert_eq!(chain.len(), h.height());
            for (i, &id) in chain.iter().enumerate() {
                assert_eq!(id, h.ancestor(node, i + 1));
            }
            // Clamped walks are prefixes; over-asking clamps to the height.
            assert_eq!(h.ancestor_chain(node, 2)[..], chain[..2.min(chain.len())]);
            assert_eq!(h.ancestor_chain(node, h.height() + 7), chain);
        }
        assert!(
            h.ancestor_chain(NodeId(u32::MAX - 1), 3).is_empty(),
            "inactive nodes have no chain"
        );
    }

    #[test]
    fn snapshot_diff_is_empty_without_surgery_and_local_after_removal() {
        let (mut h, dm) = build(8);
        let before = h.snapshot();
        assert!(before.diff(&h.snapshot()).is_empty(), "no-op diff is empty");

        // Remove one ordinary (non-coordinator) node: its leaf cluster must
        // be dirty, and the delta must cover every cluster whose coordinator
        // re-election actually changed something.
        let victim = *h
            .level(1)
            .iter()
            .flat_map(|c| c.members.iter())
            .find(|&&m| {
                h.coordinator_roles(m).is_empty()
                    && h.level(1)[h.leaf_cluster(m).index].members.len() > 1
            })
            .expect("some non-coordinator exists");
        let leaf = h.leaf_cluster(victim);
        crate::membership::remove_node(&mut h, &dm, victim).unwrap();
        let delta = before.diff(&h.snapshot());
        assert!(
            !delta.full,
            "single removal does not change the height here"
        );
        assert!(delta.dirty.contains(&leaf), "the victim's leaf is dirty");
        // Soundness of the fingerprint: every id *not* in the delta holds a
        // cluster with identical members and coordinator as before surgery.
        for l in 1..=h.height() {
            for i in 0..h.level(l).len() {
                let id = ClusterId { level: l, index: i };
                if !delta.dirty.contains(&id) {
                    let c = h.cluster(id);
                    assert_eq!(
                        before.clusters.get(&id),
                        Some(&(c.members.clone(), c.coordinator)),
                        "undirty cluster {id:?} changed content"
                    );
                }
            }
        }
    }
}
