//! The resident planning service: admission control in front of the
//! [`ServiceCore`] state machine, a write-ahead [`Journal`] underneath it,
//! and snapshot + replay crash recovery.
//!
//! Request lifecycle:
//!
//! 1. **Admission** — read-only requests answer immediately; mutating
//!    requests pass validation, deadline and backpressure checks. Shed
//!    requests get a typed error and a [`JournalEntry::Shed`] marker —
//!    they never enter a drain batch, but replay must reproduce the
//!    admission accounting (the `shed` counter is part of the
//!    fingerprint), so the rejection itself is journaled.
//! 2. **Journal** — admitted requests are appended to the write-ahead
//!    journal *before* being queued (crash after the append replays the
//!    request; crash before it means the client never got an ack).
//! 3. **Drain** — a `drain` request applies the whole queue as one batch
//!    and runs one planning wave ([`ServiceCore::drain`]), bumping the
//!    plan epoch.
//!
//! Recovery ([`PlanningService::recover_from_path`]) rebuilds the service
//! by replaying the journal through the exact same code path — optionally
//! fast-forwarded from a snapshot — so the recovered service is
//! bit-identical to the crashed one (see `tests/recovery.rs`).

use std::path::{Path, PathBuf};

use crate::config::ServiceConfig;
use crate::journal::{Journal, JournalEntry};
use crate::protocol::{render_f64, resp_error, resp_ok, Request};
use crate::snapshot;
use crate::state::{ServiceCore, SlotStatus};

/// The resident planning service.
#[derive(Debug)]
pub struct PlanningService {
    core: ServiceCore,
    journal: Journal,
    /// Admitted-but-undrained entries (the current batch).
    queue: Vec<JournalEntry>,
}

impl PlanningService {
    /// Start a fresh service. When `journal_path` is given, every admitted
    /// request is durably journaled there and snapshots (if configured) go
    /// to `<journal_path>.snap`.
    pub fn new(cfg: ServiceConfig, journal_path: Option<&Path>) -> std::io::Result<Self> {
        let journal = Journal::create(cfg.clone(), journal_path)?;
        Ok(PlanningService {
            core: ServiceCore::new(cfg),
            journal,
            queue: Vec::new(),
        })
    }

    /// The deterministic core (inspection / tests).
    pub fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// Entries admitted since the last drain.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total entries ever journaled (drain markers and any compacted
    /// prefix included).
    pub fn journal_len(&self) -> usize {
        self.journal.absolute_len()
    }

    /// Entries currently retained on disk / in memory (compaction drops
    /// the snapshot-covered prefix).
    pub fn journal_retained(&self) -> usize {
        self.journal.entries.len()
    }

    /// Delegates to [`ServiceCore::fingerprint`].
    pub fn fingerprint(&self) -> String {
        self.core.fingerprint()
    }

    /// Where this service's snapshots go, if journaled to disk.
    pub fn snapshot_path(&self) -> Option<PathBuf> {
        self.journal
            .path()
            .map(|p| PathBuf::from(format!("{}.snap", p.display())))
    }

    /// Handle one raw protocol line.
    pub fn submit_line(&mut self, line: &str) -> String {
        match Request::parse(line) {
            Ok(req) => self.submit(&req),
            Err(e) => resp_error("parse", None, &e),
        }
    }

    /// Handle one parsed request, returning the JSONL response line.
    pub fn submit(&mut self, req: &Request) -> String {
        match req {
            Request::Query { id } => return self.answer_query(*id),
            Request::Stats => return self.answer_stats(),
            Request::Drain { at_ms } => return self.apply_drain(*at_ms),
            _ => {}
        }
        // Mutating, non-drain: validate, then admission-control, then
        // journal (write-ahead) and queue.
        if let Request::Observe {
            stream, rate_milli, ..
        } = req
        {
            if let Err(e) = self.core.validate_observe(*stream, *rate_milli) {
                return resp_error(req.op(), req.id(), &e);
            }
        }
        if let Request::Register {
            id, sources, sink, ..
        } = req
        {
            if let Err(e) = self.core.validate_register(*id, sources, *sink) {
                return resp_error(req.op(), req.id(), &e);
            }
            if self
                .queue
                .iter()
                .any(|e| matches!(e, JournalEntry::Register { id: qid, .. } if qid == id))
            {
                return resp_error(req.op(), req.id(), &format!("query id {id} already queued"));
            }
        }
        if let Some(resp) = self.admission_check(req) {
            return resp;
        }
        let entry = JournalEntry::from_request(req).expect("mutating requests journal");
        if let Err(e) = self.journal.append(entry.clone()) {
            return resp_error(req.op(), req.id(), &format!("journal append failed: {e}"));
        }
        self.queue.push(entry);
        self.core.counters.admitted += 1;
        dsq_obs::counter("server.requests_admitted", 1);
        let mut fields: Vec<(&str, String)> = Vec::new();
        if let Some(id) = req.id() {
            fields.push(("id", id.to_string()));
        }
        fields.push(("queued", self.queue.len().to_string()));
        fields.push(("epoch", self.core.epoch.to_string()));
        resp_ok(req.op(), &fields)
    }

    /// Backpressure: at `max_queue` queued entries new registrations are
    /// shed; at twice that, every mutating request is — so under overload
    /// the service stops taking on *new* work first and keeps servicing
    /// replans and fault reports for the queries it already owns.
    fn admission_check(&mut self, req: &Request) -> Option<String> {
        let limit = if req.is_register() {
            self.core.cfg.max_queue
        } else {
            self.core.cfg.max_queue * 2
        };
        if self.queue.len() >= limit {
            // Write-ahead even for rejections: a recovered service must
            // report the same `shed` counter as the live run did, and the
            // only way replay can know about a rejection is the journal.
            let at_ms = JournalEntry::from_request(req).map_or(0, |e| e.at_ms());
            let entry = JournalEntry::Shed {
                op: req.op().to_string(),
                id: req.id(),
                at_ms,
            };
            if let Err(e) = self.journal.append(entry) {
                return Some(resp_error(
                    req.op(),
                    req.id(),
                    &format!("journal append failed: {e}"),
                ));
            }
            self.core.note_shed();
            return Some(resp_error(req.op(), req.id(), "overloaded"));
        }
        None
    }

    fn apply_drain(&mut self, at_ms: u64) -> String {
        if let Err(e) = self.journal.append(JournalEntry::Drain { at_ms }) {
            return resp_error("drain", None, &format!("journal append failed: {e}"));
        }
        let batch = std::mem::take(&mut self.queue);
        let summary = self.core.drain(&batch, at_ms);
        self.maybe_snapshot();
        resp_ok(
            "drain",
            &[
                ("epoch", summary.epoch.to_string()),
                ("applied", summary.applied.to_string()),
                ("planned", summary.planned.to_string()),
                ("replanned", summary.replanned.to_string()),
                ("deferred", summary.deferred.to_string()),
                ("timed_out", summary.timed_out.to_string()),
                ("stale", summary.stale.to_string()),
                ("parked", summary.parked.to_string()),
                ("lost", summary.lost.to_string()),
                ("total_cost", render_f64(summary.total_cost)),
            ],
        )
    }

    fn maybe_snapshot(&mut self) {
        let every = self.core.cfg.snapshot_every;
        if every == 0 || !self.core.counters.drains.is_multiple_of(every as u64) {
            return;
        }
        if let Some(path) = self.snapshot_path() {
            // Snapshots are an optimization; failing to write one only
            // costs recovery time, so errors are not fatal. The text goes
            // to a sibling file and is renamed over the live snapshot, so
            // a kill mid-write leaves the previous snapshot whole (like the
            // journal, this guards against process death, not power loss).
            // Compaction runs only once the rename has succeeded — until
            // then the journal must still hold the prefix.
            let tmp = PathBuf::from(format!("{}.tmp", path.display()));
            let installed = std::fs::write(&tmp, snapshot::write(&self.core))
                .and_then(|()| std::fs::rename(&tmp, &path));
            if installed.is_ok() {
                let _ = self.journal.compact(self.core.entries_applied);
            }
        }
    }

    fn answer_query(&self, id: u32) -> String {
        let Some(slot) = self.core.slots.get(&id) else {
            return resp_error("query", Some(id), "unknown query");
        };
        let mut fields: Vec<(&str, String)> = vec![
            ("id", id.to_string()),
            ("status", json_str(slot.status.name())),
            ("epoch", self.core.epoch.to_string()),
            ("planned_epoch", slot.planned_epoch.to_string()),
            ("stale", slot.stale.to_string()),
        ];
        if let Some(d) = &slot.deployment {
            fields.push(("cost", render_f64(d.cost)));
            fields.push(("sink", d.sink.0.to_string()));
            let placement: Vec<String> = d.placement.iter().map(|n| n.0.to_string()).collect();
            fields.push(("placement", format!("[{}]", placement.join(","))));
        }
        resp_ok("query", &fields)
    }

    fn answer_stats(&self) -> String {
        let mut fields: Vec<(&str, String)> = vec![
            ("epoch", self.core.epoch.to_string()),
            ("queued", self.queue.len().to_string()),
            ("queries", self.core.slots.len().to_string()),
            (
                "planned",
                self.core
                    .slots
                    .values()
                    .filter(|s| s.status == SlotStatus::Planned)
                    .count()
                    .to_string(),
            ),
        ];
        for (k, v) in self.core.counters.fields() {
            fields.push((k, v.to_string()));
        }
        let adverts = self.core.registry.stats();
        fields.push(("adverts_published", adverts.published.to_string()));
        fields.push(("adverts_live", adverts.live.to_string()));
        fields.push(("adverts_retired", adverts.retired.to_string()));
        fields.push(("adverts_evicted", adverts.evicted.to_string()));
        fields.push(("adverts_rederived", adverts.rederived.to_string()));
        let fields: Vec<(&str, String)> = fields;
        resp_ok("stats", &fields)
    }

    /// Recover a service from its on-disk journal: restore the latest
    /// snapshot if one exists (verifying it matches the journal's config),
    /// then replay the journal suffix through the normal drain path. The
    /// journal is reattached for continued appends.
    ///
    /// A snapshot that does not parse or whose config mismatches is an
    /// error only when the journal is compacted behind it; an uncompacted
    /// journal still holds every entry, so recovery falls back to a full
    /// replay (counted as `server.snapshot.fallback`).
    pub fn recover_from_path(journal_path: &Path) -> Result<Self, String> {
        let journal = Journal::load(journal_path)?;
        let snap_path = PathBuf::from(format!("{}.snap", journal_path.display()));
        let snap_core = match std::fs::read_to_string(&snap_path) {
            Ok(text) => match snapshot::restore(&text).and_then(|core| {
                if core.cfg == journal.config {
                    Ok(core)
                } else {
                    Err("snapshot config does not match journal config".into())
                }
            }) {
                Ok(core) => Some(core),
                Err(_) if journal.base() == 0 => {
                    dsq_obs::counter("server.snapshot.fallback", 1);
                    None
                }
                Err(e) => return Err(e),
            },
            Err(_) => None,
        };
        Self::recover_with(journal, snap_core)
    }

    /// Recover purely from an in-memory journal (full replay, no snapshot).
    pub fn recover(journal: Journal) -> Result<Self, String> {
        Self::recover_with(journal, None)
    }

    fn recover_with(mut journal: Journal, snap_core: Option<ServiceCore>) -> Result<Self, String> {
        journal.config.validate()?;
        let (mut core, skip) = match snap_core {
            Some(core) => {
                // Entry indices in the snapshot are absolute; the journal
                // may have compacted everything the snapshot covers.
                if core.entries_applied < journal.base() {
                    return Err("snapshot is behind the compacted journal".into());
                }
                let skip = core.entries_applied - journal.base();
                if skip > journal.entries.len() {
                    return Err("snapshot is ahead of the journal".into());
                }
                (core, skip)
            }
            None => {
                if journal.base() > 0 {
                    return Err(
                        "journal is compacted but no snapshot covers the dropped prefix".into(),
                    );
                }
                (ServiceCore::new(journal.config.clone()), 0)
            }
        };
        let suffix = &journal.entries[skip..];
        let replayed = suffix.len();
        let mut queue: Vec<JournalEntry> = Vec::new();
        for entry in suffix {
            // Same path as live traffic: entries batch up until a drain
            // marker applies them as one wave, and admission counters are
            // re-emitted so the recovered trace matches the original.
            match entry {
                JournalEntry::Drain { at_ms } => {
                    let batch = std::mem::take(&mut queue);
                    core.drain(&batch, *at_ms);
                }
                JournalEntry::Shed { .. } => {
                    // Rejected at admission: re-count, never queue — shed
                    // entries must not consume queue capacity on replay.
                    core.note_shed();
                }
                other => {
                    core.counters.admitted += 1;
                    dsq_obs::counter("server.requests_admitted", 1);
                    queue.push(other.clone());
                }
            }
        }
        core.counters.recovery_replayed += replayed as u64;
        dsq_obs::counter("server.recovery_replayed", replayed as u64);
        dsq_obs::observe("server.recovery_replay_len", replayed as f64);
        journal
            .reattach()
            .map_err(|e| format!("cannot reattach journal: {e}"))?;
        Ok(PlanningService {
            core,
            journal,
            queue,
        })
    }
}

/// Render a JSON string literal (for pre-rendered response fields).
fn json_str(s: &str) -> String {
    let mut out = String::new();
    dsq_obs::json::push_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(cfg: ServiceConfig) -> PlanningService {
        PlanningService::new(cfg, None).unwrap()
    }

    #[test]
    fn register_drain_query_round_trip() {
        let mut s = svc(ServiceConfig::default());
        let r = s.submit_line(r#"{"op":"register","id":1,"sources":[0,1],"sink":3,"at_ms":10}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        let r = s.submit_line(r#"{"op":"drain","at_ms":20}"#);
        assert!(r.contains("\"planned\":1"), "{r}");
        let r = s.submit_line(r#"{"op":"query","id":1}"#);
        assert!(r.contains("\"status\":\"planned\""), "{r}");
        assert!(r.contains("\"placement\":["), "{r}");
        let r = s.submit_line(r#"{"op":"stats"}"#);
        assert!(r.contains("\"admitted\":1"), "{r}");
    }

    #[test]
    fn invalid_registrations_are_rejected_not_journaled() {
        let mut s = svc(ServiceConfig::default());
        let r = s.submit_line(r#"{"op":"register","id":1,"sources":[999],"sink":3,"at_ms":1}"#);
        assert!(r.contains("unknown stream"), "{r}");
        let r = s.submit_line(r#"{"op":"register","id":1,"sources":[0,0],"sink":3,"at_ms":1}"#);
        assert!(r.contains("duplicate stream"), "{r}");
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.core().counters.admitted, 0);
    }

    #[test]
    fn invalid_observations_are_rejected_not_journaled() {
        let mut s = svc(ServiceConfig::default());
        let r = s.submit_line(r#"{"op":"observe","stream":8,"rate_milli":500,"at_ms":1}"#);
        assert_eq!(
            r,
            r#"{"ok":false,"op":"observe","error":"unknown stream 8"}"#
        );
        let r = s.submit_line(r#"{"op":"observe","stream":0,"rate_milli":0,"at_ms":1}"#);
        assert_eq!(
            r,
            r#"{"ok":false,"op":"observe","error":"rate_milli must be positive"}"#
        );
        assert_eq!(s.journal_len(), 0);
        let r = s.submit_line(r#"{"op":"observe","stream":0,"rate_milli":500,"at_ms":1}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        s.submit_line(r#"{"op":"drain","at_ms":2}"#);
        assert_eq!(s.core().catalog.stream(dsq_query::StreamId(0)).rate, 0.5);
    }

    #[test]
    fn registrations_shed_before_replans() {
        let mut s = svc(ServiceConfig {
            max_queue: 2,
            ..ServiceConfig::default()
        });
        for id in 0..2 {
            let r = s.submit_line(&format!(
                r#"{{"op":"register","id":{id},"sources":[0,1],"sink":3,"at_ms":1}}"#
            ));
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        // Queue is at max_queue: registers shed, replans still admitted.
        let r = s.submit_line(r#"{"op":"register","id":9,"sources":[0,1],"sink":3,"at_ms":2}"#);
        assert!(r.contains("overloaded"), "{r}");
        let r = s.submit_line(r#"{"op":"replan","id":0,"at_ms":2}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        assert_eq!(s.core().counters.shed, 1);
        // At 2× max_queue everything mutating is shed.
        s.submit_line(r#"{"op":"fault","kind":"crash","node":0,"at_ms":3}"#);
        let r = s.submit_line(r#"{"op":"replan","id":1,"at_ms":3}"#);
        assert!(r.contains("overloaded"), "{r}");
        // Drain is never shed — it is the pressure release.
        let r = s.submit_line(r#"{"op":"drain","at_ms":10}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn shed_requests_survive_recovery() {
        // A shed request never reaches a drain batch, but its accounting is
        // part of the fingerprint — so the rejection must be journaled and
        // replayed, or recovery diverges from the live run.
        let mut s = svc(ServiceConfig {
            max_queue: 1,
            ..ServiceConfig::default()
        });
        s.submit_line(r#"{"op":"register","id":1,"sources":[0,1],"sink":3,"at_ms":10}"#);
        let r = s.submit_line(r#"{"op":"register","id":2,"sources":[2,3],"sink":5,"at_ms":11}"#);
        assert!(r.contains("overloaded"), "{r}");
        s.submit_line(r#"{"op":"drain","at_ms":20}"#);
        assert_eq!(s.core().counters.shed, 1);
        // Shed entries hold journal indexes: drain folds them into the
        // applied count so snapshot compaction stays index-consistent.
        assert_eq!(s.core().entries_applied, s.journal_len());
        let text = s.journal.to_text();
        let recovered = PlanningService::recover(Journal::parse(&text).unwrap()).unwrap();
        assert_eq!(recovered.core().counters.shed, 1);
        assert_eq!(recovered.fingerprint(), s.fingerprint());
        assert_eq!(recovered.core().entries_applied, s.core().entries_applied);
    }

    #[test]
    fn recovery_replays_the_journal() {
        let mut s = svc(ServiceConfig::default());
        s.submit_line(r#"{"op":"register","id":1,"sources":[0,1],"sink":3,"at_ms":10}"#);
        s.submit_line(r#"{"op":"drain","at_ms":20}"#);
        s.submit_line(r#"{"op":"register","id":2,"sources":[2,3],"sink":5,"at_ms":30}"#);
        let text = s.journal.to_text();
        // "Crash": rebuild purely from the journal text.
        let recovered = PlanningService::recover(Journal::parse(&text).unwrap()).unwrap();
        assert_eq!(recovered.fingerprint(), s.fingerprint());
        assert_eq!(recovered.queue_len(), 1, "undrained register survives");
        assert_eq!(recovered.core().counters.recovery_replayed, 3);
    }
}
