//! Property tests for the chaos script generator: same seed must mean a
//! byte-identical script, and every generated script must be
//! protocol-valid — each line parses back through `protocol::Request`, the
//! mutating prefix of every script is drain-terminated, and registrations
//! pass the catalog/topology validation a live service would apply.

use dsq_server::chaos::FaultConfig;
use dsq_server::{generate_script, Request, ScriptConfig, ServiceConfig};

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    /// Same `(ServiceConfig, ScriptConfig)` ⇒ byte-identical script, for
    /// arbitrary knob combinations (not just the defaults).
    #[test]
    fn generate_script_is_deterministic(
        seed in 0u64..1000,
        queries in 1usize..=8,
        replans in 0usize..=4,
        unregisters in 0usize..=3,
        batch in 1usize..=6,
        reads in 0usize..=6,
        events in 0usize..=6,
    ) {
        let cfg = ServiceConfig { seed, ..ServiceConfig::default() };
        let script = ScriptConfig {
            seed,
            queries,
            replans,
            unregisters,
            batch,
            reads,
            faults: FaultConfig {
                events,
                mean_gap_ms: 400.0,
                ..FaultConfig::default()
            },
            ..ScriptConfig::default()
        };
        let a = generate_script(&cfg, &script);
        let b = generate_script(&cfg, &script);
        proptest::prop_assert_eq!(&a, &b, "script generation consumed nondeterministic state");
        proptest::prop_assert!(!a.is_empty());
    }

    /// Every generated line is protocol-valid: it parses, registrations
    /// reference real streams/nodes without duplicates, and the script ends
    /// on a drain so no admitted work is left unapplied.
    #[test]
    fn generated_scripts_are_protocol_valid(
        seed in 0u64..1000,
        queries in 1usize..=8,
        reads in 0usize..=8,
        events in 0usize..=6,
    ) {
        let cfg = ServiceConfig { seed, ..ServiceConfig::default() };
        let script = ScriptConfig {
            seed,
            queries,
            reads,
            faults: FaultConfig {
                events,
                mean_gap_ms: 400.0,
                ..FaultConfig::default()
            },
            ..ScriptConfig::default()
        };
        let (env, catalog) = cfg.build();
        let lines = generate_script(&cfg, &script);
        let mut registers = 0usize;
        for line in &lines {
            let req = Request::parse(line);
            proptest::prop_assert!(
                req.is_ok(),
                "unparseable script line {:?}: {:?}",
                line,
                req.as_ref().err()
            );
            let req = req.unwrap();
            if let Request::Register { sources, sink, .. } = &req {
                registers += 1;
                proptest::prop_assert!(!sources.is_empty());
                let mut seen = std::collections::HashSet::new();
                for &s in sources {
                    proptest::prop_assert!((s as usize) < catalog.len(), "unknown stream {}", s);
                    proptest::prop_assert!(seen.insert(s), "duplicate stream {}", s);
                }
                proptest::prop_assert!((*sink as usize) < env.network.len(), "unknown sink {}", sink);
            }
        }
        proptest::prop_assert_eq!(registers, queries, "one register per configured query");
        let last = lines.last().unwrap();
        proptest::prop_assert!(
            last.contains(r#""op":"drain""#),
            "script must end on a drain, got {}", last
        );
    }
}
