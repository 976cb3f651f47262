//! Deterministic write-ahead journal.
//!
//! Every state-mutating request is appended *before* it is applied, as one
//! `entry = <kind> k=v ...` line of [`dsq_obs::kv`], the one definition of
//! the format (`#` comments, `key = value`, human-diffable). Drain markers
//! are journaled too, so the journal is a complete replayable session: a
//! fresh service fed the entries through its normal processing path
//! reconstructs the crashed service bit-for-bit — state, responses and
//! virtual-clock obs trace alike (see `tests/recovery.rs`).
//!
//! The journal header carries the [`ServiceConfig`], making a journal file
//! self-contained the same way a `.case` file is.

use crate::config::ServiceConfig;
use crate::protocol::{FaultReq, Request};
use dsq_obs::kv::{self, List, Record, RecordWriter};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// One journaled, admitted, state-mutating request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalEntry {
    /// An admitted registration.
    Register {
        /// Query id.
        id: u32,
        /// Catalog stream ids.
        sources: Vec<u32>,
        /// Result sink node.
        sink: u32,
        /// Deadline override.
        deadline_ms: Option<u64>,
        /// Arrival time.
        at_ms: u64,
    },
    /// An admitted unregistration.
    Unregister {
        /// Query id.
        id: u32,
        /// Arrival time.
        at_ms: u64,
    },
    /// An admitted forced replan.
    Replan {
        /// Query id.
        id: u32,
        /// Deadline override.
        deadline_ms: Option<u64>,
        /// Arrival time.
        at_ms: u64,
    },
    /// An admitted fault report.
    Fault {
        /// The fault.
        fault: FaultReq,
        /// Arrival time.
        at_ms: u64,
    },
    /// An admitted stream-rate observation.
    Observe {
        /// Catalog stream id.
        stream: u32,
        /// Measured rate in thousandths.
        rate_milli: u64,
        /// Arrival time.
        at_ms: u64,
    },
    /// A drain marker: everything journaled since the previous marker was
    /// applied in one wave at `at_ms`.
    Drain {
        /// Drain time.
        at_ms: u64,
    },
    /// A mutating request rejected by admission control (`overloaded`).
    /// Shed requests never reach a drain wave, but they *are* journaled so
    /// replay reproduces the admission accounting — a recovered service
    /// must report the same `shed` counter (and fingerprint) as the live
    /// run did.
    Shed {
        /// The rejected request's op name (`register`, `replan`, ...).
        op: String,
        /// Query id, when the rejected request carried one.
        id: Option<u32>,
        /// Arrival time.
        at_ms: u64,
    },
}

impl JournalEntry {
    /// Convert an admitted mutating request; `None` for read-only ops.
    pub fn from_request(req: &Request) -> Option<JournalEntry> {
        match req {
            Request::Register {
                id,
                sources,
                sink,
                deadline_ms,
                at_ms,
            } => Some(JournalEntry::Register {
                id: *id,
                sources: sources.clone(),
                sink: *sink,
                deadline_ms: *deadline_ms,
                at_ms: *at_ms,
            }),
            Request::Unregister { id, at_ms } => Some(JournalEntry::Unregister {
                id: *id,
                at_ms: *at_ms,
            }),
            Request::Replan {
                id,
                deadline_ms,
                at_ms,
            } => Some(JournalEntry::Replan {
                id: *id,
                deadline_ms: *deadline_ms,
                at_ms: *at_ms,
            }),
            Request::Fault { fault, at_ms } => Some(JournalEntry::Fault {
                fault: fault.clone(),
                at_ms: *at_ms,
            }),
            Request::Observe {
                stream,
                rate_milli,
                at_ms,
            } => Some(JournalEntry::Observe {
                stream: *stream,
                rate_milli: *rate_milli,
                at_ms: *at_ms,
            }),
            Request::Drain { at_ms } => Some(JournalEntry::Drain { at_ms: *at_ms }),
            Request::Query { .. } | Request::Stats => None,
        }
    }

    /// The request arrival / drain time.
    pub fn at_ms(&self) -> u64 {
        match self {
            JournalEntry::Register { at_ms, .. }
            | JournalEntry::Unregister { at_ms, .. }
            | JournalEntry::Replan { at_ms, .. }
            | JournalEntry::Fault { at_ms, .. }
            | JournalEntry::Observe { at_ms, .. }
            | JournalEntry::Drain { at_ms }
            | JournalEntry::Shed { at_ms, .. } => *at_ms,
        }
    }
}

/// The payload of one `entry = ...` line.
impl fmt::Display for JournalEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = match self {
            JournalEntry::Register {
                id,
                sources,
                sink,
                deadline_ms,
                ..
            } => RecordWriter::new(f, "register")
                .put("id", id)
                .put("sources", List(sources))
                .put("sink", sink)
                .opt("deadline", *deadline_ms),
            JournalEntry::Unregister { id, .. } => RecordWriter::new(f, "unregister").put("id", id),
            JournalEntry::Replan {
                id, deadline_ms, ..
            } => RecordWriter::new(f, "replan")
                .put("id", id)
                .opt("deadline", *deadline_ms),
            JournalEntry::Fault { fault, .. } => {
                let r = RecordWriter::new(f, "fault");
                match fault {
                    FaultReq::Crash(n) => r.put("kind", "crash").put("node", n),
                    FaultReq::Rejoin(n) => r.put("kind", "rejoin").put("node", n),
                    FaultReq::Degrade { a, b, factor_milli } => r
                        .put("kind", "degrade")
                        .put("a", a)
                        .put("b", b)
                        .put("factor_milli", factor_milli),
                }
            }
            JournalEntry::Observe {
                stream, rate_milli, ..
            } => RecordWriter::new(f, "observe")
                .put("stream", stream)
                .put("rate_milli", rate_milli),
            JournalEntry::Drain { .. } => RecordWriter::new(f, "drain"),
            JournalEntry::Shed { op, id, .. } => {
                RecordWriter::new(f, "shed").put("op", op).opt("id", *id)
            }
        };
        r.put("at", self.at_ms()).finish()
    }
}

/// Reads the payload of one `entry = ...` line back.
impl FromStr for JournalEntry {
    type Err = String;
    fn from_str(line: &str) -> Result<JournalEntry, String> {
        let r = Record::parse(line)?;
        let at_ms = r.get("at")?;
        Ok(match r.kind() {
            "register" => JournalEntry::Register {
                id: r.get("id")?,
                sources: r.list("sources")?,
                sink: r.get("sink")?,
                deadline_ms: r.opt("deadline")?,
                at_ms,
            },
            "unregister" => JournalEntry::Unregister {
                id: r.get("id")?,
                at_ms,
            },
            "replan" => JournalEntry::Replan {
                id: r.get("id")?,
                deadline_ms: r.opt("deadline")?,
                at_ms,
            },
            "fault" => JournalEntry::Fault {
                fault: match r.raw("kind") {
                    Some("crash") => FaultReq::Crash(r.get("node")?),
                    Some("rejoin") => FaultReq::Rejoin(r.get("node")?),
                    Some("degrade") => FaultReq::Degrade {
                        a: r.get("a")?,
                        b: r.get("b")?,
                        factor_milli: r.get("factor_milli")?,
                    },
                    other => return Err(format!("fault: unknown kind {other:?}")),
                },
                at_ms,
            },
            "observe" => JournalEntry::Observe {
                stream: r.get("stream")?,
                rate_milli: r.get("rate_milli")?,
                at_ms,
            },
            "drain" => JournalEntry::Drain { at_ms },
            "shed" => JournalEntry::Shed {
                op: r.get("op")?,
                id: r.opt("id")?,
                at_ms,
            },
            other => return Err(format!("unknown journal entry kind {other:?}")),
        })
    }
}

/// The write-ahead journal: config header plus the admitted entries, in
/// admission order. Optionally backed by a file, in which case every
/// [`Journal::append`] lands on disk before the entry is applied.
#[derive(Debug)]
pub struct Journal {
    /// The service configuration the journal opens with.
    pub config: ServiceConfig,
    /// Admitted entries in order, starting at absolute index [`Journal::base`].
    pub entries: Vec<JournalEntry>,
    /// Number of entries compacted away: `entries[0]` is absolute entry
    /// `base`. A non-zero base means a snapshot covers the dropped prefix.
    base: usize,
    file: Option<File>,
    path: Option<PathBuf>,
}

impl Journal {
    /// Start a fresh journal; when `path` is given, the header is written
    /// immediately and appends go straight to disk.
    pub fn create(config: ServiceConfig, path: Option<&Path>) -> std::io::Result<Journal> {
        let mut file = None;
        if let Some(p) = path {
            let mut f = File::create(p)?;
            f.write_all(Self::header(&config).as_bytes())?;
            f.flush()?;
            file = Some(f);
        }
        Ok(Journal {
            config,
            entries: Vec::new(),
            base: 0,
            file,
            path: path.map(Path::to_path_buf),
        })
    }

    /// Absolute index of the first retained entry (0 = nothing compacted).
    pub fn base(&self) -> usize {
        self.base
    }

    /// Total entries ever journaled, the compacted prefix included.
    pub fn absolute_len(&self) -> usize {
        self.base + self.entries.len()
    }

    fn header(config: &ServiceConfig) -> String {
        format!("# dsq-server journal v1\n{}", config.to_lines())
    }

    /// The file backing this journal, when there is one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Write-ahead append: the entry is durable (when file-backed) before
    /// this returns.
    pub fn append(&mut self, entry: JournalEntry) -> std::io::Result<()> {
        if let Some(f) = &mut self.file {
            let mut line = String::new();
            kv::put(&mut line, "entry", &entry);
            f.write_all(line.as_bytes())?;
            f.flush()?;
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Serialize the whole journal (header + compaction marker + entries).
    pub fn to_text(&self) -> String {
        let mut out = Self::header(&self.config);
        if self.base > 0 {
            kv::put(&mut out, "compacted", self.base);
        }
        for e in &self.entries {
            kv::put(&mut out, "entry", e);
        }
        out
    }

    /// Parse a journal written by [`Journal::to_text`] / the append path.
    /// Tolerates a torn final line (a crash mid-append): a last line that
    /// does not parse is dropped, matching the write-ahead contract that an
    /// entry is applied only once fully journaled.
    pub fn parse(text: &str) -> Result<Journal, String> {
        let mut j = Journal {
            config: ServiceConfig::default(),
            entries: Vec::new(),
            base: 0,
            file: None,
            path: None,
        };
        let last = text.lines().count();
        for line in kv::lines(text) {
            let line = match line {
                Ok(line) => line,
                Err(e) if e.line == last => break, // torn tail
                Err(e) => return Err(e.into()),
            };
            if line.set_in(ServiceConfig::PREFIX, &mut j.config)? {
                continue;
            }
            match line.key {
                "compacted" => j.base = line.parse()?,
                "entry" => match line.value.parse() {
                    Ok(e) => j.entries.push(e),
                    Err(_) if line.no == last => break, // torn tail
                    Err(e) => return Err(line.error(e).into()),
                },
                other => return Err(line.error(format_args!("unknown key {other:?}")).into()),
            }
        }
        j.config.validate()?;
        Ok(j)
    }

    /// Load a journal from disk (recovery entry point). The returned
    /// journal is *detached* from the file; pass the path to
    /// [`crate::service::PlanningService::recover`] to reattach for
    /// continued appends.
    pub fn load(path: &Path) -> Result<Journal, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut j = Self::parse(&text)?;
        j.path = Some(path.to_path_buf());
        Ok(j)
    }

    /// Reattach to the backing file for appends, rewriting it from the
    /// in-memory state (drops any torn tail).
    pub fn reattach(&mut self) -> std::io::Result<()> {
        self.rewrite()
    }

    /// Drop every entry below absolute index `upto` (they are covered by a
    /// durable snapshot) and rewrite the backing file so recovery never
    /// re-reads the replayed prefix. No-op when `upto` is not past the
    /// current base; `upto` past the end is clamped.
    pub fn compact(&mut self, upto: usize) -> std::io::Result<()> {
        if upto <= self.base {
            return Ok(());
        }
        let upto = upto.min(self.absolute_len());
        self.entries.drain(..upto - self.base);
        self.base = upto;
        dsq_obs::counter("server.journal_compactions", 1);
        self.rewrite()
    }

    fn rewrite(&mut self) -> std::io::Result<()> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        let mut f = OpenOptions::new()
            .write(true)
            .truncate(true)
            .create(true)
            .open(&path)?;
        f.write_all(self.to_text().as_bytes())?;
        f.flush()?;
        self.file = Some(f);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry::Register {
                id: 3,
                sources: vec![0, 2, 5],
                sink: 7,
                deadline_ms: Some(500),
                at_ms: 120,
            },
            JournalEntry::Replan {
                id: 3,
                deadline_ms: None,
                at_ms: 130,
            },
            JournalEntry::Fault {
                fault: FaultReq::Degrade {
                    a: 1,
                    b: 2,
                    factor_milli: 8000,
                },
                at_ms: 140,
            },
            JournalEntry::Fault {
                fault: FaultReq::Crash(5),
                at_ms: 150,
            },
            JournalEntry::Observe {
                stream: 2,
                rate_milli: 45_000,
                at_ms: 155,
            },
            JournalEntry::Drain { at_ms: 160 },
            JournalEntry::Unregister { id: 3, at_ms: 170 },
            JournalEntry::Shed {
                op: "register".to_string(),
                id: Some(9),
                at_ms: 180,
            },
            JournalEntry::Shed {
                op: "fault".to_string(),
                id: None,
                at_ms: 190,
            },
        ]
    }

    #[test]
    fn journal_round_trips() {
        let mut j = Journal::create(ServiceConfig::default(), None).unwrap();
        for e in sample_entries() {
            j.append(e).unwrap();
        }
        let back = Journal::parse(&j.to_text()).unwrap();
        assert_eq!(back.config, j.config);
        assert_eq!(back.entries, j.entries);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let mut j = Journal::create(ServiceConfig::default(), None).unwrap();
        for e in sample_entries() {
            j.append(e).unwrap();
        }
        let mut text = j.to_text();
        text.push_str("entry = register id=9 sou"); // torn mid-append
        let back = Journal::parse(&text).unwrap();
        assert_eq!(back.entries.len(), j.entries.len());
    }

    #[test]
    fn malformed_fields_are_line_errors() {
        let header = Journal::create(ServiceConfig::default(), None)
            .unwrap()
            .to_text();
        let body = |first: &str| format!("{header}entry = {first}\nentry = drain at=9\n");
        let ok = body("register id=1 sources=0,1 sink=2 at=5");
        assert_eq!(Journal::parse(&ok).unwrap().entries.len(), 2);
        for bad in [
            "register id=1 sources=0,1 sink=2 deadline=x at=5",
            "register id=1 sources=0,1 sink=2 deadline=-5 at=5",
            "replan id=1 deadline= at=5",
            "register id=1 sources=0,,1 sink=2 at=5",
            "shed op=register id=4294967296 at=5",
        ] {
            let err = Journal::parse(&body(bad)).unwrap_err();
            assert!(err.starts_with("line 16: "), "{bad}: {err}");
        }
        // The torn-tail rule still covers the last line only.
        let torn = format!("{header}entry = replan id=1 deadline=x at=5\n");
        assert!(Journal::parse(&torn).unwrap().entries.is_empty());
    }

    #[test]
    fn compaction_drops_the_prefix_and_round_trips() {
        let mut j = Journal::create(ServiceConfig::default(), None).unwrap();
        for e in sample_entries() {
            j.append(e).unwrap();
        }
        let total = j.entries.len();
        j.compact(4).unwrap();
        assert_eq!(j.base(), 4);
        assert_eq!(j.entries.len(), total - 4);
        assert_eq!(j.absolute_len(), total);
        // Compacting backwards or to the same point is a no-op.
        j.compact(2).unwrap();
        assert_eq!(j.base(), 4);
        // The marker survives serialization.
        let back = Journal::parse(&j.to_text()).unwrap();
        assert_eq!(back.base(), 4);
        assert_eq!(back.entries, j.entries);
        // Past-the-end requests clamp.
        j.compact(total + 10).unwrap();
        assert_eq!(j.base(), total);
        assert!(j.entries.is_empty());
    }

    #[test]
    fn file_backed_appends_are_durable() {
        let dir = std::env::temp_dir().join(format!("dsq-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.journal");
        let mut j = Journal::create(ServiceConfig::default(), Some(&path)).unwrap();
        for e in sample_entries() {
            j.append(e).unwrap();
        }
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.entries, j.entries);
        std::fs::remove_dir_all(&dir).ok();
    }
}
