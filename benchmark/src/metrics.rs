//! The end-to-end metric catalog: names, units, direction, and the share
//! of the baseline's median by which each may worsen before a change
//! counts as a regression. `BENCHMARK.json` states the same list (a test
//! holds the two together); every workload reports every one of them.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("plan_qps", "1/s", Better::Higher, 0.25),
    e2e("drain_p50_ms", "ms", Better::Lower, 0.25),
    e2e("crash_repair_p10_ms", "ms", Better::Lower, 0.25),
    e2e("degrade_repair_min_ms", "ms", Better::Lower, 0.25),
    e2e("recovery_s", "s", Better::Lower, 0.25),
    e2e("wire_rtt_p50_ms", "ms", Better::Lower, 0.10),
    e2e("wire_ops_per_s", "1/s", Better::Higher, 0.10),
    e2e("cost_vs_optimal", "ratio", Better::Lower, 0.2),
];

pub fn find(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

impl EndToEnd {
    /// By what share of `base` is `value` worse (negative: better)?
    pub fn worsening(&self, base: f64, value: f64) -> f64 {
        match self.better {
            Better::Lower => (value - base) / base,
            Better::Higher => (base - value) / base,
        }
    }
}
