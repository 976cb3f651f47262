//! Self-adaptivity middleware (the IFLOW Middleware Layer \[13\]).
//!
//! "Self-adaptivity is incorporated into the system through the Middleware
//! Layer which re-triggers the query optimization algorithm when the
//! changes in network, load or data conditions demand recomputing of query
//! plans and deployments." This module reproduces that loop for network
//! (link-cost) changes: standing deployments are re-costed against the
//! updated distances, and any whose cost degraded beyond a configurable
//! threshold is re-optimized and migrated.

use crate::failures::{
    classify_crash, data_available, degraded, CrashAction, FailureReport, RecoveryReport,
};
use dsq_core::{catalog_dirty_streams, Environment, InvalidationMode};
use dsq_net::NodeId;
use dsq_query::{Catalog, Deployment, Query, QueryId};

/// A runtime link-cost change (congestion, re-pricing, failure-as-cost).
#[derive(Clone, Copy, Debug)]
pub struct LinkChange {
    /// Link endpoint.
    pub a: NodeId,
    /// Link endpoint.
    pub b: NodeId,
    /// New per-unit cost of the link.
    pub new_cost: f64,
}

/// What an adaptation pass did.
#[derive(Clone, Debug, Default)]
pub struct MigrationReport {
    /// Queries whose deployments were re-optimized.
    pub migrated: Vec<QueryId>,
    /// Queries whose replanning produced a better deployment that was
    /// nevertheless skipped because the state-transfer cost would not pay
    /// for itself within the migration horizon.
    pub skipped_unprofitable: Vec<QueryId>,
    /// Total standing cost right after the change (before migrations).
    pub cost_before: f64,
    /// Total standing cost after migrations.
    pub cost_after: f64,
    /// Costed migration plans for the queries that moved.
    pub plans: Vec<crate::migrate::MigrationPlan>,
    /// Total one-time state-transfer cost paid by the adopted migrations.
    pub state_transfer_cost: f64,
}

/// Standing deployments plus the machinery to keep them efficient.
pub struct AdaptiveRuntime {
    /// The (mutable) environment; link changes are applied to its network
    /// and distance matrix.
    pub env: Environment,
    queries: Vec<Query>,
    deployments: Vec<Deployment>,
    baseline_cost: Vec<f64>,
    /// Queries that lost their deployment and could not be replanned yet;
    /// retried on membership changes instead of being silently retired.
    parked: Vec<Query>,
    /// Relative cost degradation that triggers re-optimization (e.g. 0.2 =
    /// re-plan when a deployment got ≥ 20% more expensive).
    pub threshold: f64,
    /// Expected remaining lifetime of queries: a replanned deployment is
    /// only adopted when its one-time state-transfer cost amortizes within
    /// this horizon ("run-time query plan migrations", Section 5).
    /// `None` migrates unconditionally on any improvement.
    pub migration_horizon: Option<f64>,
    /// Join window length used to estimate operator state sizes.
    pub window: f64,
    /// How stale memoized subplans are retired when conditions change:
    /// [`InvalidationMode::Scoped`] (the default) retires only the entries
    /// the actual change can reach; [`InvalidationMode::Flush`] then drops
    /// the rest as well — the always-sound reference arm the differential
    /// harnesses compare against, not a product setting.
    pub invalidation: InvalidationMode,
    /// Catalog as of the last observed data conditions; the baseline that
    /// [`Self::handle_data_changes`] diffs against to scope retirement.
    /// `None` until primed ([`Self::observe_catalog`]) — the first data
    /// change then falls back to a full flush.
    last_catalog: Option<Catalog>,
    /// Lifetime count of replanning invocations this runtime issued
    /// (failure repairs, parked retries, degradation-triggered
    /// re-optimizations); see [`Self::queries_replanned`].
    queries_replanned: u64,
}

impl AdaptiveRuntime {
    /// Wrap an environment with an empty deployment set (unconditional
    /// migration; see [`Self::with_migration_horizon`]).
    pub fn new(env: Environment, threshold: f64) -> Self {
        AdaptiveRuntime {
            env,
            queries: Vec::new(),
            deployments: Vec::new(),
            baseline_cost: Vec::new(),
            parked: Vec::new(),
            threshold,
            migration_horizon: None,
            window: 0.5,
            invalidation: InvalidationMode::default(),
            last_catalog: None,
            queries_replanned: 0,
        }
    }

    /// How many replanning invocations this runtime has issued over its
    /// lifetime — the incremental-replanning work metric the chaos soak
    /// bounds against the event count.
    pub fn queries_replanned(&self) -> u64 {
        self.queries_replanned
    }

    /// Lifetime count of memoized subplans retired from this runtime's
    /// cache (scoped retirement and full flushes alike).
    pub fn cache_retired(&self) -> u64 {
        self.env.plan_cache.retired()
    }

    /// Record the current data conditions so the next
    /// [`Self::handle_data_changes`] can diff against them instead of
    /// flushing the whole plan cache.
    pub fn observe_catalog(&mut self, catalog: &Catalog) {
        self.last_catalog = Some(catalog.clone());
    }

    /// The one place the reference arm differs. Every change has already
    /// retired the entries it could reach (that is what the shared fault
    /// surgery and the catalog diff do); [`InvalidationMode::Flush`] then
    /// drops whatever survived, so the differential harness compares scoped
    /// retirement against a cache that can never serve a stale entry.
    fn flush_if_reference_arm(&self) {
        if self.invalidation == InvalidationMode::Flush {
            self.env.plan_cache.invalidate();
        }
    }

    /// Only adopt replanned deployments whose state-transfer cost pays for
    /// itself within `horizon` time units.
    pub fn with_migration_horizon(mut self, horizon: f64) -> Self {
        self.migration_horizon = Some(horizon);
        self
    }

    /// Register a deployed query.
    pub fn install(&mut self, query: Query, deployment: Deployment) {
        let baseline = deployment.cost;
        self.stand(query, deployment, baseline);
    }

    /// Append one standing deployment judged against `baseline`.
    fn stand(&mut self, query: Query, deployment: Deployment, baseline: f64) {
        self.queries.push(query);
        self.deployments.push(deployment);
        self.baseline_cost.push(baseline);
    }

    /// Standing deployments.
    pub fn deployments(&self) -> &[Deployment] {
        &self.deployments
    }

    /// Installed queries, parallel to [`Self::deployments`].
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Queries waiting for a placement to become feasible again.
    pub fn parked(&self) -> &[Query] {
        &self.parked
    }

    /// Total standing cost.
    pub fn total_cost(&self) -> f64 {
        self.deployments.iter().map(|d| d.cost).sum()
    }

    /// Handle the crash of a physical node: fail over its coordinator
    /// roles, excise it from the overlay and redeploy, park or retire the
    /// affected queries (see [`crate::failures`]). `replan` receives the
    /// repaired environment, in which the node is no longer a member.
    ///
    /// At the overlay floor ([`dsq_core::OVERLAY_FLOOR`]) the node cannot
    /// be excised — the machine is gone, but its membership slot must
    /// survive — so every query touching it is forfeited without
    /// replanning and the report says so
    /// ([`FailureReport::last_member_forfeit`]).
    pub fn handle_node_failure(
        &mut self,
        catalog: &Catalog,
        node: NodeId,
        mut replan: impl FnMut(&Environment, &Query) -> Option<Deployment>,
    ) -> FailureReport {
        let mut report = FailureReport {
            cost_before: self.total_cost(),
            coordinator_roles_failed_over: self.env.hierarchy.coordinator_roles(node).len(),
            ..Default::default()
        };

        // 1. Hierarchy repair. An already-excised node (a repeated crash
        //    report) needs none: the standing deployments can still be
        //    repaired against the current overlay.
        let retired_before = self.env.plan_cache.retired();
        let overlay_repaired = !self.env.hierarchy.is_active(node) || self.env.crash_node(node);
        self.flush_if_reference_arm();
        report.cache_retired = self.env.plan_cache.retired() - retired_before;
        report.last_member_forfeit = !overlay_repaired;

        // 2. Classify every standing deployment and act on it: untouched
        //    ones stand as they were, the rest are torn down and retired
        //    (accounting for their forfeited service), parked, or replanned
        //    against the repaired environment.
        let standing = std::mem::take(&mut self.queries)
            .into_iter()
            .zip(std::mem::take(&mut self.deployments))
            .zip(std::mem::take(&mut self.baseline_cost));
        let mut replanned = 0u64;
        for ((q, d), baseline) in standing {
            let mut action = classify_crash(catalog, &q, Some(&d), node);
            if action == CrashAction::Keep {
                self.stand(q, d, baseline);
                continue;
            }
            if !overlay_repaired {
                action = CrashAction::Lost;
            }
            match action {
                CrashAction::Keep => unreachable!("stood above"),
                CrashAction::Lost => {
                    report.lost.push(q.id);
                    report.forfeited_cost += d.cost;
                }
                CrashAction::Park => {
                    report.source_parked.push(q.id);
                    report.parked_cost += d.cost;
                    self.parked.push(q);
                }
                CrashAction::Replan => {
                    replanned += 1;
                    match replan(&self.env, &q) {
                        Some(new_d) => {
                            report.redeployed.push(q.id);
                            report.redeploy_cost_delta += new_d.cost - d.cost;
                            // A replacement is a *repair*, not a
                            // re-baselining: keep measuring degradation
                            // against the cost the query was originally
                            // admitted at, otherwise a bad emergency
                            // placement silently becomes the new normal and
                            // adaptation stops firing for it.
                            self.stand(q, new_d, baseline);
                        }
                        None => {
                            report.unplaced.push(q.id);
                            report.parked_cost += d.cost;
                            self.parked.push(q);
                        }
                    }
                }
            }
        }
        self.note_replans(replanned);
        report.cost_after = self.total_cost();
        let parked = report.unplaced.len() + report.source_parked.len();
        dsq_obs::counter("adapt.node_failures", 1);
        dsq_obs::counter("adapt.redeployed", report.redeployed.len() as u64);
        dsq_obs::counter("adapt.lost", report.lost.len() as u64);
        dsq_obs::counter("adapt.parked", parked as u64);
        if report.last_member_forfeit {
            dsq_obs::counter("adapt.forfeited", report.lost.len() as u64);
        }
        dsq_obs::observe("adapt.redeploy_cost_delta", report.redeploy_cost_delta);
        dsq_obs::event("adapt.node_failure", || {
            vec![
                ("node", node.0.into()),
                ("redeployed", report.redeployed.len().into()),
                ("lost", report.lost.len().into()),
                ("parked", parked.into()),
                ("cost_delta", report.redeploy_cost_delta.into()),
            ]
        });
        report
    }

    /// Account `n` replanning invocations (lifetime total + obs counter).
    fn note_replans(&mut self, n: u64) {
        if n > 0 {
            dsq_obs::counter("adapt.queries_replanned", n);
        }
        self.queries_replanned += n;
    }

    /// Re-attempt placement of every parked query whose data is available
    /// again (see [`data_available`]); successfully placed ones are
    /// (re)installed with their new cost as the baseline. Returns the ids
    /// that found a home.
    pub fn retry_parked(
        &mut self,
        catalog: &Catalog,
        mut replan: impl FnMut(&Environment, &Query) -> Option<Deployment>,
    ) -> Vec<QueryId> {
        let mut placed = Vec::new();
        let mut attempts = 0u64;
        for q in std::mem::take(&mut self.parked) {
            if !data_available(&self.env.hierarchy, catalog, &q) {
                self.parked.push(q);
                continue;
            }
            attempts += 1;
            match replan(&self.env, &q) {
                Some(d) => {
                    placed.push(q.id);
                    self.install(q, d);
                }
                None => self.parked.push(q),
            }
        }
        self.note_replans(attempts);
        placed
    }

    /// Handle the recovery of a previously failed node: rejoin it to the
    /// overlay via the membership protocol (contacting its nearest active
    /// member) and retry the parked queries, whose placement (or source
    /// data) may now be available again on the enlarged overlay.
    pub fn handle_node_recovery(
        &mut self,
        catalog: &Catalog,
        node: NodeId,
        replan: impl FnMut(&Environment, &Query) -> Option<Deployment>,
    ) -> RecoveryReport {
        let retired_before = self.env.plan_cache.retired();
        let join_messages = self.env.rejoin_node(node).map_or(0, |o| o.messages);
        self.flush_if_reference_arm();
        let cache_retired = self.env.plan_cache.retired() - retired_before;
        let redeployed = self.retry_parked(catalog, replan);
        RecoveryReport {
            join_messages,
            redeployed,
            still_parked: self.parked.len(),
            cache_retired,
        }
    }

    /// Handle *data*-condition changes: the catalog's stream rates /
    /// selectivities were updated by monitoring (mutate it before calling).
    /// Standing deployments are re-estimated structurally — same plan, same
    /// placement, fresh statistics — and those whose cost degraded past the
    /// threshold are re-optimized, subject to the same migration-horizon
    /// gate as link changes.
    ///
    /// Data changes move what a query *should* cost (they can also make a
    /// deployment cheaper), so every deployment that stands through the
    /// pass adopts its re-estimated cost as the new baseline and later
    /// drift is measured from reality.
    pub fn handle_data_changes(
        &mut self,
        catalog: &Catalog,
        replan: impl FnMut(&Environment, &Query) -> Option<Deployment>,
    ) -> MigrationReport {
        // The catalog's rates/selectivities feed the cache keys and the
        // cached costs. With a baseline catalog on hand, only the entries
        // covering a stream whose statistics actually moved are stale;
        // without one (first observation) everything might be.
        match self.last_catalog.replace(catalog.clone()) {
            Some(old) => {
                let dirty = catalog_dirty_streams(&old, catalog);
                self.env.plan_cache.retire_catalog(&dirty);
            }
            None => self.env.plan_cache.invalidate(),
        }
        self.flush_if_reference_arm();
        for (d, q) in self.deployments.iter_mut().zip(&self.queries) {
            *d = d.reestimate(q, catalog, &self.env.dm);
        }
        self.reoptimize_degraded(true, replan)
    }

    /// Apply link changes, detect degraded deployments and re-trigger
    /// optimization for them.
    ///
    /// `replan` receives the *updated* environment and the degraded query
    /// and returns a fresh deployment (typically by running one of the
    /// `dsq-core` optimizers against that environment). A replanned
    /// deployment is only adopted when it actually improves on the
    /// re-costed standing one.
    pub fn handle_changes(
        &mut self,
        changes: &[LinkChange],
        replan: impl FnMut(&Environment, &Query) -> Option<Deployment>,
    ) -> MigrationReport {
        for ch in changes {
            self.env
                .reprice_link(ch.a, ch.b, ch.new_cost)
                .expect("link change references a missing link");
        }
        self.flush_if_reference_arm();
        for d in &mut self.deployments {
            d.recompute_cost(&self.env.dm);
        }
        self.reoptimize_degraded(false, replan)
    }

    /// Re-optimize every standing deployment whose freshly re-costed cost
    /// [`degraded`] past the threshold, adopting a replacement only when it
    /// improves on the standing one and its state transfer pays for itself
    /// within the migration horizon. With `rebaseline_standing`, each
    /// deployment that stands through the pass (not degraded, or degraded
    /// with its replacement declined) is re-baselined at its current cost.
    fn reoptimize_degraded(
        &mut self,
        rebaseline_standing: bool,
        mut replan: impl FnMut(&Environment, &Query) -> Option<Deployment>,
    ) -> MigrationReport {
        let mut report = MigrationReport {
            cost_before: self.total_cost(),
            ..Default::default()
        };
        let mut replanned = 0u64;
        for i in 0..self.deployments.len() {
            let standing_cost = self.deployments[i].cost;
            if degraded(standing_cost, self.baseline_cost[i], self.threshold) {
                replanned += 1;
                let Some(new_d) = replan(&self.env, &self.queries[i]) else {
                    continue;
                };
                if new_d.cost < standing_cost {
                    let plan = crate::migrate::plan_migration(
                        &self.deployments[i],
                        &new_d,
                        &self.env.dm,
                        self.window,
                    );
                    if self.migration_horizon.is_none_or(|h| plan.worthwhile(h)) {
                        report.migrated.push(self.queries[i].id);
                        report.state_transfer_cost += plan.state_transfer_cost;
                        report.plans.push(plan);
                        self.baseline_cost[i] = new_d.cost;
                        self.deployments[i] = new_d;
                        continue;
                    }
                    report.skipped_unprofitable.push(self.queries[i].id);
                }
            }
            if rebaseline_standing {
                self.baseline_cost[i] = standing_cost;
            }
        }
        self.note_replans(replanned);
        report.cost_after = self.total_cost();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::{Optimal, Optimizer, SearchStats, TopDown};
    use dsq_net::TransitStubConfig;
    use dsq_query::ReuseRegistry;
    use dsq_workload::{WorkloadConfig, WorkloadGenerator};

    fn workload(env: &Environment) -> dsq_workload::Workload {
        WorkloadGenerator::new(
            WorkloadConfig {
                streams: 12,
                queries: 6,
                joins_per_query: 2..=3,
                ..WorkloadConfig::default()
            },
            61,
        )
        .generate(&env.network)
    }

    fn runtime() -> (AdaptiveRuntime, dsq_workload::Workload) {
        let net = TransitStubConfig::paper_64().generate(17).network;
        let env = Environment::build(net, 16);
        let wl = workload(&env);
        let mut rt = AdaptiveRuntime::new(env, 0.2);
        let reg = ReuseRegistry::new();
        let mut stats = SearchStats::new();
        for q in &wl.queries {
            let d = TopDown::new(&rt.env)
                .optimize(&wl.catalog, q, &reg, &mut stats)
                .unwrap();
            rt.install(q.clone(), d);
        }
        (rt, wl)
    }

    /// Links crossing the deployments' hot paths, made 50× more expensive.
    fn congestion(rt: &AdaptiveRuntime) -> Vec<LinkChange> {
        let sim = crate::flow::FlowSimulator::new(&rt.env.network);
        let refs: Vec<&Deployment> = rt.deployments().iter().collect();
        let report = sim.evaluate(&refs);
        report
            .hottest_links(4)
            .into_iter()
            .map(|((a, b), _)| {
                let old = rt.env.network.find_link(a, b).unwrap().cost;
                LinkChange {
                    a,
                    b,
                    new_cost: old * 50.0,
                }
            })
            .collect()
    }

    #[test]
    fn congestion_triggers_migration_and_reduces_cost() {
        let (mut rt, wl) = runtime();
        let changes = congestion(&rt);
        let report = rt.handle_changes(&changes, |env, q| {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            Optimal::new(env).optimize(&wl.catalog, q, &reg, &mut stats)
        });
        assert!(
            !report.migrated.is_empty(),
            "50× congestion on hot links must trigger migrations"
        );
        assert!(
            report.cost_after <= report.cost_before,
            "migration must not increase cost: {} -> {}",
            report.cost_before,
            report.cost_after
        );
    }

    #[test]
    fn small_changes_do_not_trigger() {
        let (mut rt, wl) = runtime();
        let (a, b) = {
            let n = rt.env.network.nodes().next().unwrap();
            (n, rt.env.network.neighbors(n)[0].to)
        };
        let old = rt.env.network.find_link(a, b).unwrap().cost;
        let report = rt.handle_changes(
            &[LinkChange {
                a,
                b,
                new_cost: old * 1.01,
            }],
            |env, q| {
                let reg = ReuseRegistry::new();
                let mut stats = SearchStats::new();
                Optimal::new(env).optimize(&wl.catalog, q, &reg, &mut stats)
            },
        );
        assert!(report.migrated.is_empty());
    }

    #[test]
    fn data_rate_surge_triggers_replanning() {
        let (mut rt, wl) = runtime();
        // Surge the rates of the first query's sources 20×: its plan's
        // transport volumes balloon and a different placement (or ordering)
        // wins.
        let mut catalog = wl.catalog.clone();
        let victim = &wl.queries[0];
        for &s in &victim.sources {
            let old = catalog.stream(s).rate;
            catalog.set_rate(s, old * 20.0);
        }
        let report = rt.handle_data_changes(&catalog, |env, q| {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            Optimal::new(env).optimize(&catalog, q, &reg, &mut stats)
        });
        assert!(
            report.cost_before > 0.0,
            "re-estimated costs reflect the surge"
        );
        assert!(
            report.migrated.contains(&victim.id) || report.cost_after <= report.cost_before,
            "either the victim migrates or nothing got worse"
        );
        // Re-estimated standing costs must match a from-scratch evaluation.
        for d in rt.deployments() {
            let q = wl.queries.iter().find(|q| q.id == d.query).unwrap();
            let fresh = d.reestimate(q, &catalog, &rt.env.dm);
            assert!((fresh.cost - d.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn improving_data_changes_do_not_churn() {
        let (mut rt, wl) = runtime();
        // All rates drop: every deployment gets cheaper, nothing migrates.
        let mut catalog = wl.catalog.clone();
        for s in 0..catalog.len() as u32 {
            let old = catalog.stream(dsq_query::StreamId(s)).rate;
            catalog.set_rate(dsq_query::StreamId(s), old * 0.5);
        }
        let before = rt.total_cost();
        let report = rt.handle_data_changes(&catalog, |_, _| panic!("must not replan"));
        assert!(report.migrated.is_empty());
        assert!(report.cost_after < before);
    }

    #[test]
    fn short_horizon_skips_unprofitable_migrations() {
        let (rt_base, wl) = runtime();
        let changes = congestion(&rt_base);
        let replan = |env: &Environment, q: &Query| {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            Optimal::new(env).optimize(&wl.catalog, q, &reg, &mut stats)
        };

        // Unconditional migration moves some queries…
        let mut rt_free = AdaptiveRuntime::new(rt_base.env.clone(), rt_base.threshold);
        for (q, d) in wl.queries.iter().zip(rt_base.deployments()) {
            rt_free.install(q.clone(), d.clone());
        }
        let free = rt_free.handle_changes(&changes, replan);
        assert!(!free.migrated.is_empty());
        assert!(free.state_transfer_cost > 0.0);
        for p in &free.plans {
            assert!(p.steady_state_saving > 0.0, "adopted plans must save");
        }

        // …while a near-zero horizon rejects every one of them.
        let mut rt_tight = AdaptiveRuntime::new(rt_base.env.clone(), rt_base.threshold)
            .with_migration_horizon(1e-9);
        for (q, d) in wl.queries.iter().zip(rt_base.deployments()) {
            rt_tight.install(q.clone(), d.clone());
        }
        let tight = rt_tight.handle_changes(&changes, replan);
        assert!(tight.migrated.is_empty());
        assert_eq!(tight.skipped_unprofitable.len(), free.migrated.len());
        assert_eq!(tight.state_transfer_cost, 0.0);
    }

    #[test]
    fn link_change_keeps_a_latency_environment_on_delay_distances() {
        // Regression: the runtime used to rebuild distances with a
        // hard-coded `Metric::Cost`, silently switching a response-time
        // environment to cost distances after its first link change.
        let net = TransitStubConfig::paper_64().generate(17).network;
        let mut rt = AdaptiveRuntime::new(Environment::build_latency(net, 16), 0.2);
        let a = rt.env.network.nodes().next().unwrap();
        let b = rt.env.network.neighbors(a)[0].to;
        let old = rt.env.network.find_link(a, b).unwrap().cost;
        rt.handle_changes(
            &[LinkChange {
                a,
                b,
                new_cost: old * 3.0,
            }],
            |_, _| None,
        );
        assert_eq!(rt.env.dm.metric(), dsq_net::Metric::DelayMs);
        let fresh = dsq_net::DistanceMatrix::build(&rt.env.network, dsq_net::Metric::DelayMs);
        for u in rt.env.network.nodes() {
            for v in rt.env.network.nodes() {
                assert_eq!(
                    rt.env.dm.get(u, v).to_bits(),
                    fresh.get(u, v).to_bits(),
                    "distance ({u:?},{v:?}) left the delay metric"
                );
            }
        }
    }

    #[test]
    fn a_cost_change_costs_a_latency_environment_nothing() {
        // Regression: a cost re-pricing leaves every delay weight as it
        // was, yet the runtime used to clone the whole matrix and scan all
        // n²/2 pairs to retire nothing.
        let net = TransitStubConfig::paper_64().generate(17).network;
        let mut env = Environment::build_latency(net, 16);
        env.isolate_cache(true);
        let wl = workload(&env);
        let reg = ReuseRegistry::new();
        for q in &wl.queries {
            TopDown::new(&env)
                .optimize(&wl.catalog, q, &reg, &mut SearchStats::new())
                .unwrap();
        }
        let warm = env.plan_cache.len();
        assert!(warm > 0, "planning warmed the cache");
        let dm_before = env.dm.clone();
        let d_of = |env: &Environment| -> Vec<u64> {
            (1..=env.hierarchy.height())
                .map(|l| env.hierarchy.d_at(l).to_bits())
                .collect()
        };
        let d_before = d_of(&env);

        let a = env.network.nodes().next().unwrap();
        let b = env.network.neighbors(a)[0].to;
        let old = env.network.find_link(a, b).unwrap().cost;
        let sink = dsq_obs::Sink::new(dsq_obs::ClockMode::Virtual);
        let repair = {
            let _g = dsq_obs::scoped(sink.clone());
            env.reprice_link(a, b, old * 3.0)
        };

        assert_eq!(repair, Some(dsq_net::LinkRepair::Incremental { rows: 0 }));
        assert_eq!(
            sink.snapshot().counters.get("net.repair.nodes_settled"),
            Some(&0),
            "a weight no-op settles no node"
        );
        assert_eq!(env.network.find_link(a, b).unwrap().cost, old * 3.0);
        assert_eq!(env.plan_cache.len(), warm);
        assert_eq!(env.plan_cache.retired(), 0);
        assert_eq!(d_of(&env), d_before);
        for u in env.network.nodes() {
            for v in env.network.nodes() {
                assert_eq!(
                    env.dm.get(u, v).to_bits(),
                    dm_before.get(u, v).to_bits(),
                    "distance ({u:?},{v:?}) moved"
                );
            }
        }
    }

    #[test]
    fn adaptation_is_idempotent_when_nothing_changes() {
        let (mut rt, wl) = runtime();
        let before = rt.total_cost();
        let report = rt.handle_changes(&[], |env, q| {
            let reg = ReuseRegistry::new();
            let mut stats = SearchStats::new();
            Optimal::new(env).optimize(&wl.catalog, q, &reg, &mut stats)
        });
        assert!(report.migrated.is_empty());
        assert!((rt.total_cost() - before).abs() < 1e-9);
    }
}
