//! Service snapshots: a compact, textual checkpoint of the core that lets
//! recovery replay only the journal suffix.
//!
//! A snapshot does **not** serialize the environment (networks, distance
//! matrices and hierarchies are large and path-dependent). Instead it
//! stores the recipe: the config plus the fault history, which
//! [`restore`] re-applies — surgery only, via
//! [`crate::state::apply_fault_surgery`] — to a freshly built
//! environment, and the last observed rate of each observed stream, which
//! it sets in the fresh catalog. Deployments are stored as their join-tree
//! shape plus placement; [`Deployment::evaluate`] re-derives edges and cost, and the
//! recorded cost bits are asserted to match, so a snapshot whose
//! environment reconstruction diverged even by one ULP refuses to load
//! rather than silently serving wrong plans.
//!
//! The file is a [`dsq_obs::kv`] document, the one definition of the
//! format; only the `tree=` values inside `slot` records use a grammar of
//! their own (`B<id>` / `J(l,r)`, recursive rather than `key = value`).
//! Nothing read back is trusted: a slot must pass the same checks a
//! registration does, and every node and stream id must be in range.
//!
//! The last line is a trailer, `end = <lines> <fnv64>`: the number of lines
//! before it and the [`dsq_obs::fnv64`] of their bytes. A document's last
//! lines are optional scalars, so a snapshot cut short could otherwise
//! parse and load a wrong state; [`restore`] refuses any document whose
//! trailer is missing or does not match, naming the trailer in its error.
//! Version 1 documents had no trailer and are refused the same way.
//!
//! Plans are guaranteed tree-reconstructible because drain waves always
//! plan against a fresh [`dsq_query::ReuseRegistry`] — every plan leaf is
//! a base stream, never a derived operator owned by another query.

use dsq_net::NodeId;
use dsq_obs::kv::{self, Bits, Flag, List, Record, RecordWriter};
use dsq_query::{
    AdvertStats, Deployment, DerivedId, DerivedStream, FlatNode, FlatPlan, JoinTree, LeafSource,
    OperatorId, Query, QueryId, StreamId, StreamSet,
};

use crate::config::ServiceConfig;
use crate::journal::JournalEntry;
use crate::state::{apply_fault_surgery, set_rate, QuerySlot, ServiceCore, ServiceCounters};

/// Serialize a core (call only with an empty queue, i.e. right after a
/// drain — the service enforces this by snapshotting from the drain path).
pub fn write(core: &ServiceCore) -> String {
    let mut out = String::from("# dsq-server snapshot v2\n");
    kv::write_fields(&mut out, ServiceConfig::PREFIX, &core.cfg);
    kv::put(&mut out, "epoch", core.epoch);
    kv::put(&mut out, "now_ms", core.now_ms);
    kv::put(&mut out, "entries_applied", core.entries_applied);
    kv::write_fields(&mut out, "counter.", &core.counters);
    for f in &core.fault_log {
        kv::put(&mut out, "fault", f);
    }
    for (stream, rate_milli) in &core.rates {
        kv::put(&mut out, "rate", format_args!("{stream} {rate_milli}"));
    }
    for (id, slot) in &core.slots {
        out.push_str("slot = ");
        let mut r = RecordWriter::new(&mut out, "")
            .put("id", id)
            .put("status", slot.status.name())
            .put("epoch", slot.planned_epoch)
            .put("stale", Flag(slot.stale))
            .put("dirty", Flag(slot.dirty))
            .put("sources", List(slot.query.sources.iter().map(|s| s.0)))
            .put("sink", slot.query.sink.0)
            .put("baseline", Bits(slot.baseline_cost));
        if let Some(d) = &slot.deployment {
            let mut tree = String::new();
            render_tree(&d.plan, d.plan.root(), &mut tree);
            r = r
                .put("cost", Bits(d.cost))
                .put("tree", tree)
                .put("placement", List(d.placement.iter().map(|n| n.0)));
        }
        out.push('\n');
    }
    // The advert mirror is serialized verbatim (slot lines in id order plus
    // the scalars): unlike the environment it is cheap, and recovery must
    // reproduce its fingerprint bit-for-bit.
    for adv in core.registry.deriveds() {
        // Service queries are plain joins: adverts carry no selection
        // predicates, which keeps this line losslessly textual.
        assert!(
            adv.selections.is_empty(),
            "service adverts never carry selections"
        );
        let (gone, down, evicted, last) = core
            .registry
            .slot_flags(adv.id)
            .expect("iterating live registry");
        out.push_str("advert = ");
        RecordWriter::new(&mut out, "")
            .put("id", adv.id.0)
            .put("op", adv.operator.0)
            .put("covered", List(adv.covered.as_slice().iter().map(|s| s.0)))
            .put("rate", Bits(adv.rate))
            .put("host", adv.host.0)
            .put("origin", adv.origin.0)
            .put("gone", Flag(gone))
            .put("down", Flag(down))
            .put("evicted", Flag(evicted))
            .put("last", last);
        out.push('\n');
    }
    kv::put(&mut out, "registry.clock", core.registry.clock());
    kv::put(
        &mut out,
        "registry.next_operator",
        core.registry.next_operator(),
    );
    kv::write_fields(&mut out, "advert_stat.", &core.registry.stats());
    seal(&mut out);
    out
}

/// The trailer value for `body`: its line count and FNV-1a hash.
fn trailer(body: &str) -> String {
    let hash = dsq_obs::fnv64(body.as_bytes());
    format!("{} {hash:016x}", body.lines().count())
}

/// Append the `end` trailer that seals everything written so far.
fn seal(out: &mut String) {
    let end = trailer(out);
    kv::put(out, "end", end);
}

/// The body a whole document's trailer seals.
fn unseal(text: &str) -> Result<&str, String> {
    let sealed = text.strip_suffix('\n').and_then(|t| {
        let start = t.rfind('\n').map_or(0, |i| i + 1);
        Some((&text[..start], t[start..].strip_prefix("end = ")?))
    });
    let Some((body, end)) = sealed else {
        return Err("snapshot has no `end` trailer: it was cut short, or predates v2".into());
    };
    let want = trailer(body);
    if end != want {
        return Err(format!(
            "snapshot trailer `end = {end}` does not match the {} lines before it \
             (`end = {want}`): the file is torn or was edited",
            body.lines().count()
        ));
    }
    Ok(body)
}

/// Rebuild a core from [`write`]'s output.
pub fn restore(text: &str) -> Result<ServiceCore, String> {
    let text = unseal(text)?;
    let mut config = ServiceConfig::default();
    let mut counters = ServiceCounters::default();
    let mut advert_stats = AdvertStats::default();
    let (mut epoch, mut now_ms, mut entries_applied) = (0, 0, 0);
    let (mut reg_clock, mut reg_next_operator) = (0, 0);
    let mut faults: Vec<JournalEntry> = Vec::new();
    // Rate, slot and advert records are read once the core they index
    // exists.
    let mut rates: Vec<kv::Line> = Vec::new();
    let mut slots: Vec<kv::Line> = Vec::new();
    let mut adverts: Vec<kv::Line> = Vec::new();
    for line in kv::lines(text) {
        let line = line?;
        if line.set_in(ServiceConfig::PREFIX, &mut config)?
            || line.set_in("counter.", &mut counters)?
            || line.set_in("advert_stat.", &mut advert_stats)?
        {
            continue;
        }
        match line.key {
            "epoch" => epoch = line.parse()?,
            "now_ms" => now_ms = line.parse()?,
            "entries_applied" => entries_applied = line.parse()?,
            "registry.clock" => reg_clock = line.parse()?,
            "registry.next_operator" => reg_next_operator = line.parse()?,
            "fault" => faults.push(line.parse()?),
            "rate" => rates.push(line),
            "slot" => slots.push(line),
            "advert" => adverts.push(line),
            other => {
                return Err(line
                    .error(format_args!("unknown snapshot key {other:?}"))
                    .into())
            }
        }
    }
    config.validate()?;
    let mut core = ServiceCore::new(config);
    core.epoch = epoch;
    core.now_ms = now_ms;
    core.entries_applied = entries_applied;
    core.counters = counters;

    // Re-run the fault surgery in order: the environment is a pure
    // function of (config, fault history).
    for f in faults {
        let JournalEntry::Fault { fault, .. } = &f else {
            return Err("snapshot fault line is not a fault entry".into());
        };
        apply_fault_surgery(&mut core.env, fault);
        core.fault_log.push(f);
    }
    for line in rates {
        restore_rate(line.value, &mut core).map_err(|e| line.error(e))?;
    }

    for line in slots {
        let (id, slot) = parse_slot(line.value, &core).map_err(|e| line.error(e))?;
        core.insert_slot(id, slot);
    }

    for line in adverts {
        restore_advert(line.value, &mut core).map_err(|e| line.error(e))?;
    }
    core.registry
        .restore_finish(reg_clock, reg_next_operator, advert_stats)?;
    Ok(core)
}

/// Parse one `rate = <stream> <rate_milli>` line back into the catalog.
fn restore_rate(text: &str, core: &mut ServiceCore) -> Result<(), String> {
    let parsed = text
        .split_once(' ')
        .and_then(|(stream, rate)| Some((stream.parse().ok()?, rate.parse().ok()?)));
    let Some((stream, rate_milli)) = parsed else {
        return Err(format!(
            "rate: expected `<stream> <rate_milli>`, got {text:?}"
        ));
    };
    core.validate_observe(stream, rate_milli)
        .map_err(|e| format!("rate: {e}"))?;
    if core.rates.insert(stream, rate_milli).is_some() {
        return Err(format!("rate: stream {stream} appears twice"));
    }
    set_rate(&mut core.catalog, stream, rate_milli);
    Ok(())
}

/// Parse one `advert = …` record back into a registry slot.
fn restore_advert(text: &str, core: &mut ServiceCore) -> Result<(), String> {
    let r = Record::parse(text)?;
    let covered: Vec<u32> = r.list("covered")?;
    let host: u32 = r.get("host")?;
    // The registry indexes adverts by host and by stream in dense tables.
    if host as usize >= core.env.network.len() {
        return Err(format!("advert: unknown host node {host}"));
    }
    if let Some(s) = covered.iter().find(|&&s| s as usize >= core.catalog.len()) {
        return Err(format!("advert: unknown stream {s}"));
    }
    let stream = DerivedStream {
        id: DerivedId(r.get("id")?),
        operator: OperatorId(r.get("op")?),
        covered: covered.into_iter().map(StreamId).collect(),
        selections: Vec::new(),
        rate: r.bits("rate")?,
        host: NodeId(host),
        origin: QueryId(r.get("origin")?),
    };
    core.registry.restore_slot(
        stream,
        r.flag("gone")?,
        r.flag("down")?,
        r.flag("evicted")?,
        r.get("last")?,
    )
}

/// Parse one `slot = …` record, checked as a registration would be.
fn parse_slot(text: &str, core: &ServiceCore) -> Result<(u32, QuerySlot), String> {
    let r = Record::parse(text)?;
    let id: u32 = r.get("id")?;
    let sources: Vec<u32> = r.list("sources")?;
    let sink: u32 = r.get("sink")?;
    core.validate_register(id, &sources, sink)?;
    let query = Query::join(
        QueryId(id),
        sources.iter().map(|&s| StreamId(s)),
        NodeId(sink),
    );
    let deployment = match r.raw("tree") {
        None => None,
        Some(tree) => {
            let tree = parse_tree(tree)?;
            if tree.leaf_count() != sources.len()
                || tree.covered() != StreamSet::from_iter(query.sources.iter().copied())
            {
                return Err(format!("slot {id}: tree leaves are not its sources"));
            }
            let plan = FlatPlan::from_tree(&tree, &query, &core.catalog);
            let placement: Vec<u32> = r.list("placement")?;
            if placement.len() != plan.nodes().len() {
                return Err(format!(
                    "slot {id}: placement length {} does not match plan size {}",
                    placement.len(),
                    plan.nodes().len()
                ));
            }
            if let Some(n) = placement
                .iter()
                .find(|&&n| n as usize >= core.env.network.len())
            {
                return Err(format!("slot {id}: unknown placement node {n}"));
            }
            let placement = placement.into_iter().map(NodeId).collect();
            let d = Deployment::evaluate(QueryId(id), plan, placement, NodeId(sink), &core.env.dm);
            let recorded = r.bits("cost")?;
            if d.cost.to_bits() != recorded.to_bits() {
                return Err(format!(
                    "slot {id}: reconstructed cost {} != recorded {recorded} — \
                     environment reconstruction diverged, refusing to load",
                    d.cost
                ));
            }
            Some(d)
        }
    };
    Ok((
        id,
        QuerySlot {
            query,
            deployment,
            status: r.get("status")?,
            planned_epoch: r.get("epoch")?,
            stale: r.flag("stale")?,
            dirty: r.flag("dirty")?,
            baseline_cost: r.bits("baseline")?,
        },
    ))
}

/// Render a plan's join tree in the compact `B<id>` / `J(l,r)` grammar.
fn render_tree(plan: &FlatPlan, idx: usize, out: &mut String) {
    match &plan.nodes()[idx] {
        FlatNode::Leaf { source, .. } => match source {
            LeafSource::Base(sid) => out.push_str(&format!("B{}", sid.0)),
            // Drain waves plan against a fresh registry, so derived leaves
            // cannot appear in a servable plan.
            LeafSource::Derived { .. } => {
                unreachable!("service plans never contain derived leaves")
            }
        },
        FlatNode::Join { left, right, .. } => {
            out.push_str("J(");
            render_tree(plan, *left, out);
            out.push(',');
            render_tree(plan, *right, out);
            out.push(')');
        }
    }
}

/// Parse the `B<id>` / `J(l,r)` grammar back into a [`JoinTree`].
fn parse_tree(text: &str) -> Result<JoinTree, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let tree = parse_tree_at(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(format!("tree: trailing input at byte {pos} in {text:?}"));
    }
    Ok(tree)
}

fn parse_tree_at(bytes: &[u8], pos: &mut usize) -> Result<JoinTree, String> {
    match bytes.get(*pos) {
        Some(b'B') => {
            *pos += 1;
            let start = *pos;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            if start == *pos {
                return Err("tree: expected digits after B".into());
            }
            let id: u32 = std::str::from_utf8(&bytes[start..*pos])
                .unwrap()
                .parse()
                .map_err(|e| format!("tree: {e}"))?;
            Ok(JoinTree::base(StreamId(id)))
        }
        Some(b'J') => {
            *pos += 1;
            if bytes.get(*pos) != Some(&b'(') {
                return Err("tree: expected ( after J".into());
            }
            *pos += 1;
            let left = parse_tree_at(bytes, pos)?;
            if bytes.get(*pos) != Some(&b',') {
                return Err("tree: expected , between join inputs".into());
            }
            *pos += 1;
            let right = parse_tree_at(bytes, pos)?;
            if bytes.get(*pos) != Some(&b')') {
                return Err("tree: expected ) after join".into());
            }
            *pos += 1;
            Ok(JoinTree::join(left, right))
        }
        other => Err(format!("tree: unexpected {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FaultReq;

    fn populated_core() -> ServiceCore {
        let mut core = ServiceCore::new(ServiceConfig::default());
        core.drain(
            &[
                JournalEntry::Register {
                    id: 1,
                    sources: vec![0, 1, 2],
                    sink: 3,
                    deadline_ms: None,
                    at_ms: 10,
                },
                JournalEntry::Register {
                    id: 2,
                    sources: vec![4, 5],
                    sink: 6,
                    deadline_ms: None,
                    at_ms: 11,
                },
            ],
            20,
        );
        core.drain(
            &[
                JournalEntry::Fault {
                    fault: FaultReq::Degrade {
                        a: 0,
                        b: 1,
                        factor_milli: 7000,
                    },
                    at_ms: 25,
                },
                JournalEntry::Fault {
                    fault: FaultReq::Crash(9),
                    at_ms: 26,
                },
            ],
            30,
        );
        core
    }

    /// `text` with its trailer recomputed, so that a test's edit reaches
    /// the checks behind the trailer.
    fn reseal(text: &str) -> String {
        let mut body = text[..text.rfind("end = ").unwrap()].to_string();
        seal(&mut body);
        body
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let core = populated_core();
        let restored = restore(&write(&core)).unwrap();
        assert_eq!(restored.fingerprint(), core.fingerprint());
        assert_eq!(restored.entries_applied, core.entries_applied);
        // And the restored snapshot re-serializes identically.
        assert_eq!(write(&restored), write(&core));
    }

    /// [`populated_core`] after a drain that observed two stream rates,
    /// one of them twice.
    fn observed_core() -> ServiceCore {
        let mut core = populated_core();
        let observe = |stream, rate_milli| JournalEntry::Observe {
            stream,
            rate_milli,
            at_ms: 35,
        };
        core.drain(&[observe(0, 9_999), observe(5, 7), observe(0, 123_456)], 40);
        core
    }

    #[test]
    fn a_snapshot_after_observations_restores_the_catalog_bit_for_bit() {
        let core = observed_core();
        assert_eq!(core.catalog.stream(StreamId(0)).rate, 123.456);
        let text = write(&core);
        // One line per observed stream, holding its last rate.
        assert!(text.contains("rate = 0 123456\nrate = 5 7\nslot = "));
        assert_eq!(text.matches("rate = ").count(), 2);
        let restored = restore(&text).unwrap();
        for (a, b) in core
            .catalog
            .streams()
            .iter()
            .zip(restored.catalog.streams())
        {
            assert_eq!(a.rate.to_bits(), b.rate.to_bits(), "stream {:?}", a.id);
        }
        assert_eq!(restored.fingerprint(), core.fingerprint());
        assert_eq!(write(&restored), text);
    }

    #[test]
    fn a_tampered_observation_refuses_to_load() {
        let text = write(&observed_core());
        let line = "rate = 0 123456";
        for edit in [
            "rate = 99 123456",
            "rate = 0 0",
            "rate = 0",
            "rate = 0 12.5",
            "rate = 5 123456",
            "fault = observe stream=0 rate_milli=123456 at=40",
        ] {
            let tampered = reseal(&text.replacen(line, edit, 1));
            assert_ne!(tampered, text);
            assert!(restore(&tampered).is_err(), "{edit} loaded");
        }
    }

    #[test]
    fn tree_grammar_round_trips() {
        let tree = JoinTree::join(
            JoinTree::join(JoinTree::base(StreamId(0)), JoinTree::base(StreamId(2))),
            JoinTree::base(StreamId(5)),
        );
        let core = ServiceCore::new(ServiceConfig::default());
        let q = Query::join(
            QueryId(7),
            [StreamId(0), StreamId(2), StreamId(5)],
            NodeId(1),
        );
        let plan = FlatPlan::from_tree(&tree, &q, &core.catalog);
        let mut text = String::new();
        render_tree(&plan, plan.root(), &mut text);
        assert_eq!(text, "J(J(B0,B2),B5)");
        let back = parse_tree(&text).unwrap();
        assert_eq!(format!("{back:?}"), format!("{tree:?}"));
        assert!(parse_tree("J(B0").is_err());
        assert!(parse_tree("B0,B1").is_err());
    }

    #[test]
    fn tampered_snapshots_refuse_to_load() {
        let core = populated_core();
        let text = write(&core);
        // Flip one placement digit in a slot line: the recomputed cost no
        // longer matches the recorded bits.
        let tampered: String = text
            .lines()
            .map(|l| {
                if l.starts_with("slot = id=1") {
                    let idx = l.rfind("placement=").unwrap() + "placement=".len();
                    let (head, tail) = l.split_at(idx);
                    let digit = tail.chars().next().unwrap();
                    let flipped = if digit == '0' { '1' } else { '0' };
                    format!("{head}{flipped}{}\n", &tail[1..])
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let err = restore(&tampered).unwrap_err();
        assert!(err.contains("trailer"), "{err}");
        let err = restore(&reseal(&tampered)).unwrap_err();
        assert!(
            err.contains("diverged") || err.contains("placement"),
            "{err}"
        );

        // Ids read from the file are checked before anything indexes by
        // them, and flags are strictly 0 or 1. `tamper` rewrites one token
        // of the first line starting with `prefix`.
        type Edit = fn(&str) -> String;
        let tamper = |prefix: &str, key: &str, edit: Edit| -> String {
            let mut done = false;
            text.lines()
                .map(|l| {
                    if done || !l.starts_with(prefix) {
                        return format!("{l}\n");
                    }
                    done = true;
                    let tokens: Vec<String> = l
                        .split(' ')
                        .map(|t| match t.split_once('=') {
                            Some((k, v)) if k == key => format!("{k}={}", edit(v)),
                            _ => t.to_string(),
                        })
                        .collect();
                    format!("{}\n", tokens.join(" "))
                })
                .collect()
        };
        let cases: [(&str, &str, Edit); 12] = [
            ("slot = ", "placement", |v| {
                format!("4000000000{}", &v[v.find(',').unwrap()..])
            }),
            ("slot = ", "sink", |_| "4000000000".into()),
            ("slot = ", "sources", |v| format!("{v},999")),
            ("slot = ", "sources", |v| format!("{v},{v}")),
            ("slot = ", "tree", |v| v.replacen('B', "B99", 1)),
            ("slot = ", "stale", |_| "2".into()),
            ("slot = ", "dirty", |_| "x".into()),
            ("slot = id=2", "id", |_| "1".into()),
            ("advert = ", "host", |_| "4294967297".into()),
            ("advert = ", "host", |_| "4000000000".into()),
            ("advert = ", "covered", |v| format!("{v},4000000000")),
            ("advert = ", "origin", |_| "4294967296".into()),
        ];
        for (prefix, key, edit) in cases {
            let tampered = tamper(prefix, key, edit);
            assert_ne!(tampered, text, "{prefix}{key}: nothing tampered");
            let err = restore(&tampered).unwrap_err();
            assert!(err.contains("trailer"), "{prefix}{key}: {err}");
            let err = restore(&reseal(&tampered)).unwrap_err();
            assert!(!err.contains("trailer"), "{prefix}{key}: {err}");
        }
    }

    #[test]
    fn cut_or_edited_snapshots_fail_the_trailer() {
        let text = write(&populated_core());
        assert!(text.starts_with("# dsq-server snapshot v2\n"));
        assert!(text.lines().last().unwrap().starts_with("end = "));
        // Every cut, at a line end or inside a line, loses or breaks it.
        for cut in 0..text.len() {
            let err = restore(&text[..cut]).err();
            let err = err.unwrap_or_else(|| panic!("cut at byte {cut} loaded"));
            assert!(err.contains("trailer"), "cut at byte {cut}: {err}");
        }
        // So does one changed byte anywhere before it, and a wrong count.
        let body_len = text.rfind("end = ").unwrap();
        for at in (0..body_len).step_by(7) {
            let mut bytes = text.clone().into_bytes();
            bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
            let edited = String::from_utf8(bytes).unwrap();
            let err = restore(&edited).unwrap_err();
            assert!(err.contains("trailer"), "byte {at}: {err}");
        }
        let (lines, hash) = text[body_len + 6..].trim_end().split_once(' ').unwrap();
        let lines: usize = lines.parse().unwrap();
        let miscounted = format!("{}end = {} {hash}\n", &text[..body_len], lines + 1);
        assert!(restore(&miscounted).unwrap_err().contains("trailer"));
        // A v1 document (same lines, no trailer) is refused too.
        let v1 = text[..body_len].replacen("snapshot v2", "snapshot v1", 1);
        assert!(restore(&v1).unwrap_err().contains("trailer"));
        assert!(restore(&text).is_ok());
    }
}
