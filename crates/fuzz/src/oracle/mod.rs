//! The invariant oracle: every planner arm runs over the same instance and
//! every result is checked against the others and against the paper's
//! analytical bounds.
//!
//! [`run_oracle`] builds one context per case and runs the thirteen checks
//! of [`CheckId::ALL`], in that order, each as one function of the context:
//!
//! 1. **Generation** — the case materializes.
//! 2. **Hierarchy** — the built hierarchy satisfies its structural
//!    invariants.
//! 3. **Service differential** — service-mode cases drive a generated
//!    request script through the resident [`dsq_server`] service three
//!    ways: uncrashed, killed-and-recovered at every scheduled journal
//!    index, and pure journal replay. All three must agree on responses,
//!    fingerprints and epochs; admission counters must conserve against
//!    the acked responses; stale flags must only ever point at strictly
//!    older epochs; and the replay's virtual-clock obs trace must be
//!    byte-identical to the live run's. No drain may leave a slot whose
//!    plan was still valid without a plan, or serving one costlier than
//!    its standing plan re-costed, and one drain of the script's
//!    registrations must plan alike in either arrival order. It runs even
//!    when the planner batch is empty.
//! 4. **Cross-arm equivalence** — serial, parallel, cache-on, cache-off and
//!    warm-replay arms of `optimize_all` produce bit-identical deployments,
//!    costs and search statistics.
//! 5. **Cache accounting** — a no-change warm replay produces zero new
//!    misses; hit/miss/retired counters are conserved across events.
//! 6. **Deployment validity** — every operator sits on an active node,
//!    leaves sit at their stream's origin, every data-flow edge is routed
//!    over finite (live) distances, and the stored cost matches a
//!    recomputation.
//! 7. **Cost bounds** — Top-Down and Bottom-Up never beat the exact
//!    [`Optimal`] yardstick, Top-Down's gap respects Theorem 3, and the
//!    In-network baseline is feasible and no better than optimal.
//! 8. **Theorem 1** — level-k estimated costs bound true distances within
//!    the hierarchy's accumulated slack, at every level.
//! 9. **Restricted placement** — `Optimal::restricted` never places a join
//!    outside its candidate set, returns a typed error on empty or
//!    fully-inactive candidate sets, and respects churned (inactive) nodes.
//! 10. **Containment reuse** — every derived-stream leaf a planner consumes
//!     is backed by an advertisement whose covered set is contained in the
//!     query's own source set, and (against the exact yardstick) planning
//!     with the advertisement registry never costs more than without it.
//! 11. **Incremental equivalence** — after a seeded link drift, scoped
//!     retirement + `optimize_dirty` matches a from-scratch full replan
//!     bit-for-bit; and over the fault schedule, every crash and rejoin
//!     returns the delta that diffing hierarchy snapshots around it finds.
//! 12. **Protocol accounting** — a zero-drop [`dsq_sim::emulab::LossyProtocol`]
//!     reproduces the reliable model bit-for-bit, per-send waits follow the
//!     exponential-backoff schedule exactly for the observed retry count,
//!     and certain loss exhausts the whole retry budget.
//! 13. **Chaos equivalence** — every degrade event's matrix repair matches
//!     a rebuild, and the scoped, flush and cache-off arms of the service's
//!     chaos runner agree on every report field that is
//!     schedule-determined.
//!
//! Any panic inside a check (internal assertion, unwrap, overflow) becomes
//! a violation of that check, so library bugs surface as shrinkable
//! findings rather than aborting the campaign. A value several checks read
//! is built the first time one asks for it, inside that check, so a panic
//! while building is charged to the check that needed it and leaves the
//! value unbuilt: the checks that need the instance or the reference batch
//! then do not run, and any other value is retried by the next check that
//! asks.

mod faults;
mod planner;
mod protocol;
mod reuse;
mod service;

use crate::case::{FuzzCase, Instance};
use dsq_core::consolidate::{deploy_all, BatchOutcome};
use dsq_core::{Environment, MultiQueryOutcome, Optimal, PlacementError, SearchStats, TopDown};
use dsq_query::{Catalog, Deployment, Query, ReuseRegistry};
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which invariant a violation falls under. The slug doubles as the
/// repro-file prefix and the shrinker's "same bug" predicate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum CheckId {
    /// The case failed to materialize at all.
    Generation,
    /// `Hierarchy::check_invariants` failed on the built instance.
    Hierarchy,
    /// The resident service's three-way differential diverged (uncrashed vs
    /// crash-recovered vs journal replay), or a service invariant broke:
    /// admission accounting, drain-epoch monotonicity, stale-flag
    /// direction, journal conservation, obs-trace equality, the adoption
    /// rule or arrival-order independence.
    Service,
    /// Two planner arms disagreed bit-for-bit.
    CrossArm,
    /// Cache hit/miss/retired accounting was not conserved.
    CacheAccounting,
    /// A deployment referenced an inactive node, a mis-placed leaf, an
    /// unroutable edge or an inconsistent stored cost.
    Validity,
    /// A heuristic beat the exact optimum, or exceeded its Theorem-3 gap.
    CostBound,
    /// A level-k cost estimate fell outside Theorem 1's slack.
    Theorem1,
    /// Restricted/zone placement used a node outside the (active) candidate
    /// set, or accepted an empty one.
    Restricted,
    /// A reuse (advertisement) hit violated containment — a derived leaf's
    /// covered set escaped the consuming query's source set or disagreed
    /// with its advertisement — or a lifecycle invariant broke: a plan
    /// consumed a derived stream that was not live or was hosted on an
    /// inactive node, crash/rejoin churn failed to restore the candidate
    /// set, advert accounting was not conserved under a budget, or an
    /// unbounded budget changed planner output. Enabling reuse must also
    /// never raise the exact optimum.
    Reuse,
    /// Incremental replanning diverged from the full replan, or a
    /// membership operation returned a delta other than the snapshot diff.
    Incremental,
    /// Lossy-protocol retry accounting broke: a zero-drop protocol diverged
    /// from the reliable model, waits disagreed with the retry count and
    /// backoff schedule, or a certain-loss send failed to exhaust the
    /// budget exactly.
    Protocol,
    /// Chaos arms (scoped/flush/cache-off) diverged, a degrade event's
    /// matrix repair disagreed with a rebuild, or a chaos-run invariant
    /// fired.
    Chaos,
}

impl CheckId {
    /// Every check, in the order [`run_oracle`] runs them.
    pub const ALL: [CheckId; 13] = [
        CheckId::Generation,
        CheckId::Hierarchy,
        CheckId::Service,
        CheckId::CrossArm,
        CheckId::CacheAccounting,
        CheckId::Validity,
        CheckId::CostBound,
        CheckId::Theorem1,
        CheckId::Restricted,
        CheckId::Reuse,
        CheckId::Incremental,
        CheckId::Protocol,
        CheckId::Chaos,
    ];

    /// Short kebab-case slug (repro file names, reports).
    pub fn slug(&self) -> &'static str {
        match self {
            CheckId::Generation => "generation",
            CheckId::Hierarchy => "hierarchy",
            CheckId::Service => "service",
            CheckId::CrossArm => "cross-arm",
            CheckId::CacheAccounting => "cache-accounting",
            CheckId::Validity => "validity",
            CheckId::CostBound => "cost-bound",
            CheckId::Theorem1 => "theorem1",
            CheckId::Restricted => "restricted",
            CheckId::Reuse => "reuse",
            CheckId::Incremental => "incremental",
            CheckId::Protocol => "protocol",
            CheckId::Chaos => "chaos",
        }
    }

    /// Inverse of [`CheckId::slug`] (for `dsqctl fuzz --check <slug>`).
    pub fn from_slug(slug: &str) -> Option<CheckId> {
        Self::ALL.into_iter().find(|c| c.slug() == slug)
    }

    /// The check's function, when it applies to `ctx`'s case. The instance
    /// and the reference batch count as present only once built without a
    /// panic.
    fn check(self, ctx: &Ctx) -> Option<fn(&Ctx) -> Vec<String>> {
        let built = ctx.inst.get().is_some();
        let planned = ctx.reference.get().is_some();
        let (applies, run): (bool, fn(&Ctx) -> Vec<String>) = match self {
            CheckId::Generation => (true, generation),
            CheckId::Hierarchy => (built, planner::hierarchy),
            CheckId::Service => (built && ctx.case.service, service::service),
            CheckId::CrossArm => (built && !ctx.queries().is_empty(), planner::cross_arm),
            CheckId::CacheAccounting => (planned, planner::cache_accounting),
            CheckId::Validity => (planned, planner::validity),
            CheckId::CostBound => (planned && ctx.small(), planner::cost_bound),
            CheckId::Theorem1 => (planned && ctx.small(), planner::theorem1),
            CheckId::Restricted => (planned, planner::restricted),
            CheckId::Reuse => (planned, reuse::reuse),
            CheckId::Incremental => (planned, faults::incremental),
            CheckId::Protocol => (planned, protocol::protocol),
            CheckId::Chaos => (
                planned && !ctx.inst().schedule.faults.is_empty() && ctx.reference().planned() > 0,
                faults::chaos,
            ),
        };
        applies.then_some(run)
    }
}

/// One oracle violation: the check that fired and a human-readable detail.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant fired.
    pub check: CheckId,
    /// What exactly diverged (first line is the summary).
    pub detail: String,
}

/// Size guard for the exact-optimum and all-pairs checks: the DP yardstick
/// and the O(n²·h) Theorem-1 sweep only run on instances at or below this
/// node count (the generator's default ceiling).
const EXACT_CHECK_MAX_NODES: usize = 64;

/// What the checks of one case share. Each value is built the first time a
/// check asks for it (see the module doc).
struct Ctx<'a> {
    case: &'a FuzzCase,
    inst: OnceCell<Instance>,
    /// The batch planned serial with the cache off: the cross-arm reference.
    /// The cross-arm check builds it; the checks after it apply only once
    /// it is built.
    reference: OnceCell<MultiQueryOutcome>,
    /// The batch planned serial twice over one warm cache: the last pass's
    /// outcome and the cache's `[hits, misses, retired]` after each pass.
    warm_replay: OnceCell<(MultiQueryOutcome, Vec<[u64; 3]>)>,
    /// Per query, the exact optimum planned with a fresh registry.
    exact: OnceCell<Vec<Result<Deployment, PlacementError>>>,
    /// One top-down `deploy_all` of the batch with reuse on, and the
    /// registry it leaves behind.
    td_batch: OnceCell<(BatchOutcome, ReuseRegistry)>,
}

impl<'a> Ctx<'a> {
    fn new(case: &'a FuzzCase) -> Self {
        Ctx {
            case,
            inst: OnceCell::new(),
            reference: OnceCell::new(),
            warm_replay: OnceCell::new(),
            exact: OnceCell::new(),
            td_batch: OnceCell::new(),
        }
    }

    fn inst(&self) -> &Instance {
        self.inst.get_or_init(|| self.case.build())
    }

    fn env(&self) -> &Environment {
        &self.inst().env
    }

    fn catalog(&self) -> &Catalog {
        &self.inst().workload.catalog
    }

    fn queries(&self) -> &[Query] {
        &self.inst().workload.queries
    }

    fn small(&self) -> bool {
        self.env().network.len() <= EXACT_CHECK_MAX_NODES
    }

    fn reference(&self) -> &MultiQueryOutcome {
        self.reference
            .get_or_init(|| planner::run_arm(self, false, false, 1).0)
    }

    fn warm_replay(&self) -> &(MultiQueryOutcome, Vec<[u64; 3]>) {
        self.warm_replay
            .get_or_init(|| planner::run_arm(self, false, true, 2))
    }

    fn exact(&self) -> &[Result<Deployment, PlacementError>] {
        self.exact.get_or_init(|| {
            let optimal = Optimal::new(self.env());
            self.queries()
                .iter()
                .map(|q| {
                    optimal.try_optimize(
                        self.catalog(),
                        q,
                        &ReuseRegistry::new(),
                        &mut SearchStats::new(),
                    )
                })
                .collect()
        })
    }

    fn td_batch(&self) -> &(BatchOutcome, ReuseRegistry) {
        self.td_batch.get_or_init(|| {
            let mut reg = ReuseRegistry::new();
            let td = TopDown::new(self.env());
            let batch = deploy_all(&td, self.catalog(), self.queries(), &mut reg, true);
            (batch, reg)
        })
    }
}

/// The generation check: materialize the instance.
fn generation(ctx: &Ctx) -> Vec<String> {
    ctx.inst();
    Vec::new()
}

/// Extract a printable message from a panic payload.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run every check against `case`. An empty result means the case survived
/// the whole oracle.
pub fn run_oracle(case: &FuzzCase) -> Vec<Violation> {
    let ctx = Ctx::new(case);
    let mut violations = Vec::new();
    for check in CheckId::ALL {
        let Some(run) = check.check(&ctx) else {
            continue;
        };
        let details = catch_unwind(AssertUnwindSafe(|| run(&ctx)))
            .unwrap_or_else(|p| vec![format!("panic: {}", panic_message(p))]);
        violations.extend(
            details
                .into_iter()
                .map(|detail| Violation { check, detail }),
        );
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::CheckId;

    #[test]
    fn check_slugs_are_unique_and_round_trip() {
        // `from_slug` returns the first check with the slug, so a slug
        // taken twice fails the round trip of its second holder.
        for c in CheckId::ALL {
            assert_eq!(CheckId::from_slug(c.slug()), Some(c), "{}", c.slug());
        }
    }
}
