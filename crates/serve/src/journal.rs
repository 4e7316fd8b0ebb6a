//! Write-ahead job journal: crash durability for accepted work.
//!
//! Every job lifecycle transition is appended to `journal.wal` inside the
//! journal directory *before* the transition is acknowledged, as a
//! CRC-framed record:
//!
//! ```text
//! [u32 payload length][u32 crc32(payload)][payload]      (little-endian)
//! ```
//!
//! The payload is a [`baryon_sim::wire`] encoding of one [`JournalEvent`].
//! Appends are `sync_data`'d, so an acknowledged submission survives a
//! `SIGKILL`. Replay is tolerant of a torn tail by construction: decoding
//! stops at the first incomplete or CRC-mismatching record — the write
//! that was in flight when the process died — and every record before it
//! is returned intact. A record is *committed* once its bytes and CRC are
//! fully on disk; truncation can only ever lose the uncommitted tail.
//!
//! [`recover`] folds a replayed event stream back into per-job fates:
//! jobs that never started are re-enqueued, jobs that were mid-run are
//! re-run (single runs resume from their newest checkpoint under
//! `<journal_dir>/ckpt-<id>/`; grids restart from scratch), and settled
//! jobs are re-installed with their journaled outcome.

use baryon_compress::crc::crc32;
use baryon_sim::faultfs;
use baryon_sim::wire::{Reader, WireError, Writer};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// The journal file's name inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// One journaled job lifecycle transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// A job was accepted; `spec_json` is its spec rendered as JSON.
    Submit {
        /// The job's ID.
        id: u64,
        /// The submitted spec, rendered as JSON.
        spec_json: String,
    },
    /// A worker began executing the job.
    Start {
        /// The job's ID.
        id: u64,
    },
    /// The job settled. `ok` selects the meaning of `body`: a rendered
    /// result document on success, an error message on failure.
    Finish {
        /// The job's ID.
        id: u64,
        /// Whether the job succeeded.
        ok: bool,
        /// Result JSON (on success) or error message (on failure).
        body: String,
    },
    /// The job was cancelled while queued (or its enqueue was refused
    /// after the submit record was already durable).
    Cancel {
        /// The job's ID.
        id: u64,
    },
    /// This incarnation of the server booted under a fleet config
    /// generation (stamped once at bind time when non-zero). Not a job
    /// lifecycle transition — it marks which policy produced the results
    /// journaled after it.
    PolicyGeneration {
        /// The fleet config generation.
        generation: u64,
    },
}

impl JournalEvent {
    /// The job this event refers to (0 for non-job marker events).
    pub fn id(&self) -> u64 {
        match self {
            JournalEvent::Submit { id, .. }
            | JournalEvent::Start { id }
            | JournalEvent::Finish { id, .. }
            | JournalEvent::Cancel { id } => *id,
            JournalEvent::PolicyGeneration { .. } => 0,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            JournalEvent::Submit { id, spec_json } => {
                w.u8(0);
                w.u64(*id);
                w.str(spec_json);
            }
            JournalEvent::Start { id } => {
                w.u8(1);
                w.u64(*id);
            }
            JournalEvent::Finish { id, ok, body } => {
                w.u8(2);
                w.u64(*id);
                w.bool(*ok);
                w.str(body);
            }
            JournalEvent::Cancel { id } => {
                w.u8(3);
                w.u64(*id);
            }
            JournalEvent::PolicyGeneration { generation } => {
                w.u8(4);
                w.u64(*generation);
            }
        }
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<JournalEvent, WireError> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let id = r.u64()?;
        let event = match tag {
            0 => JournalEvent::Submit {
                id,
                spec_json: r.str()?,
            },
            1 => JournalEvent::Start { id },
            2 => JournalEvent::Finish {
                id,
                ok: r.bool()?,
                body: r.str()?,
            },
            3 => JournalEvent::Cancel { id },
            // The u64 after the tag is the generation for this variant.
            4 => JournalEvent::PolicyGeneration { generation: id },
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(event)
    }
}

/// An open, append-only journal. Appends are serialized by an internal
/// lock, so the HTTP handlers and every worker can share one instance.
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Opens (creating as needed) the journal inside `dir`, cutting any
    /// damaged tail first: replay stops at the first torn or corrupt
    /// record, so without the cut every record this incarnation appends
    /// would land behind the damage, unreachable by the next replay.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, open, read, and truncate failures.
    pub fn open(dir: &Path) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let valid = decode_records(&fs::read(&path)?).1 as u64;
        if valid < file.metadata()?.len() {
            file.set_len(valid)?;
        }
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// Appends one record and syncs it to disk. Once this returns, the
    /// event survives a crash. The write and sync go through
    /// [`baryon_sim::faultfs`], so chaos runs inject torn appends, silent
    /// record corruption, and fsync failures exactly here — the CRC
    /// framing plus [`Journal::replay`]'s stop-at-first-bad-frame rule
    /// are what keep those faults from ever mis-replaying.
    ///
    /// # Errors
    ///
    /// Propagates write and sync failures (real or injected).
    pub fn append(&self, event: &JournalEvent) -> io::Result<()> {
        let payload = event.encode();
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let mut file = self.file.lock().expect("journal lock poisoned");
        faultfs::append(&mut file, &record)?;
        faultfs::sync_data(&file)
    }

    /// Replays every committed record of the journal in `dir`, in append
    /// order. A missing journal replays as empty; a torn tail is dropped
    /// silently (it was never acknowledged).
    ///
    /// # Errors
    ///
    /// Propagates read failures other than the file not existing.
    pub fn replay(dir: &Path) -> io::Result<Vec<JournalEvent>> {
        let bytes = match fs::read(dir.join(JOURNAL_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        Ok(decode_records(&bytes).0)
    }
}

/// Decodes as many whole, CRC-valid records as the buffer holds, stopping
/// at the first incomplete or corrupt one, and returns them with the byte
/// length of that valid prefix. Never panics: any byte prefix of a valid
/// journal decodes to a prefix of its records.
fn decode_records(bytes: &[u8]) -> (Vec<JournalEvent>, usize) {
    let mut events = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break; // torn tail: the length outruns the file
        };
        if crc32(payload) != stored {
            break; // torn or corrupt tail
        }
        let Ok(event) = JournalEvent::decode(payload) else {
            break; // framed correctly but undecodable: treat as tail damage
        };
        events.push(event);
        pos += 8 + len;
    }
    (events, pos)
}

/// What a journaled job resolved to after replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveredState {
    /// Submitted, never started: safe to re-enqueue as-is.
    Queued,
    /// A worker had started it when the process died: re-run it (single
    /// runs resume from their newest checkpoint, grids restart).
    Interrupted,
    /// Settled before the crash; the journaled outcome is authoritative.
    Finished {
        /// Whether the job succeeded.
        ok: bool,
        /// Result JSON (on success) or error message (on failure).
        body: String,
    },
    /// Cancelled while queued; it must never run.
    Cancelled,
}

/// One job reconstructed from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJob {
    /// The job's original ID (IDs keep their meaning across restarts).
    pub id: u64,
    /// The spec as submitted, rendered as JSON.
    pub spec_json: String,
    /// The job's reconstructed fate.
    pub state: RecoveredState,
}

/// Folds a replayed event stream into per-job fates, in ID order, plus
/// the highest ID ever issued (the restart's ID counter floor). Events
/// for IDs with no committed submit record are ignored — they cannot
/// occur in a journal written by this module, but a defensive recovery
/// never panics on one.
pub fn recover(events: &[JournalEvent]) -> (Vec<RecoveredJob>, u64) {
    let mut jobs: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
    let mut max_id = 0;
    for event in events {
        max_id = max_id.max(event.id());
        match event {
            JournalEvent::Submit { id, spec_json } => {
                jobs.insert(
                    *id,
                    RecoveredJob {
                        id: *id,
                        spec_json: spec_json.clone(),
                        state: RecoveredState::Queued,
                    },
                );
            }
            JournalEvent::Start { id } => {
                if let Some(job) = jobs.get_mut(id) {
                    // Only a queued (or previously interrupted) job can
                    // start; settled states stay authoritative.
                    if matches!(
                        job.state,
                        RecoveredState::Queued | RecoveredState::Interrupted
                    ) {
                        job.state = RecoveredState::Interrupted;
                    }
                }
            }
            JournalEvent::Finish { id, ok, body } => {
                if let Some(job) = jobs.get_mut(id) {
                    job.state = RecoveredState::Finished {
                        ok: *ok,
                        body: body.clone(),
                    };
                }
            }
            JournalEvent::Cancel { id } => {
                if let Some(job) = jobs.get_mut(id) {
                    if matches!(job.state, RecoveredState::Queued) {
                        job.state = RecoveredState::Cancelled;
                    }
                }
            }
            // A boot marker, not a job transition.
            JournalEvent::PolicyGeneration { .. } => {}
        }
    }
    (jobs.into_values().collect(), max_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Submit {
                id: 1,
                spec_json: r#"{"workload":"ycsb-a"}"#.to_owned(),
            },
            JournalEvent::Start { id: 1 },
            JournalEvent::Finish {
                id: 1,
                ok: true,
                body: r#"{"total_cycles":123}"#.to_owned(),
            },
            JournalEvent::Submit {
                id: 2,
                spec_json: r#"{"workload":"pr.twi"}"#.to_owned(),
            },
            JournalEvent::Cancel { id: 2 },
            JournalEvent::Submit {
                id: 3,
                spec_json: r#"{"workload":"505.mcf_r"}"#.to_owned(),
            },
            JournalEvent::Start { id: 3 },
        ]
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("baryon-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_replay_round_trips() {
        let dir = temp_dir("roundtrip");
        let journal = Journal::open(&dir).expect("open");
        for event in events() {
            journal.append(&event).expect("append");
        }
        drop(journal);
        let back = Journal::replay(&dir).expect("replay");
        assert_eq!(back, events());
        // A journal can be reopened for further appends.
        let journal = Journal::open(&dir).expect("reopen");
        journal
            .append(&JournalEvent::Finish {
                id: 3,
                ok: false,
                body: "killed".to_owned(),
            })
            .expect("append after reopen");
        assert_eq!(Journal::replay(&dir).expect("replay").len(), 8);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn policy_generation_round_trips_and_is_not_a_job() {
        let dir = temp_dir("policy-gen");
        let journal = Journal::open(&dir).expect("open");
        let marker = JournalEvent::PolicyGeneration { generation: 7 };
        assert_eq!(marker.id(), 0, "marker events carry no job ID");
        journal.append(&marker).expect("append");
        journal
            .append(&JournalEvent::Submit {
                id: 1,
                spec_json: "{}".to_owned(),
            })
            .expect("append");
        drop(journal);
        let back = Journal::replay(&dir).expect("replay");
        assert_eq!(back[0], marker);
        let (jobs, max_id) = recover(&back);
        assert_eq!(jobs.len(), 1, "the marker recovers no job");
        assert_eq!(max_id, 1);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_journal_replays_empty() {
        let dir = temp_dir("missing");
        assert_eq!(Journal::replay(&dir).expect("replay"), Vec::new());
    }

    /// The crash-tolerance contract (satellite of the checkpoint PR):
    /// truncating the journal at *every* byte boundary of the last record
    /// never panics and never loses a committed (earlier) record.
    #[test]
    fn truncation_at_every_byte_loses_only_the_tail() {
        let dir = temp_dir("truncate");
        let journal = Journal::open(&dir).expect("open");
        let all = events();
        for event in &all {
            journal.append(event).expect("append");
        }
        drop(journal);
        let path = dir.join(JOURNAL_FILE);
        let full = fs::read(&path).expect("read journal");

        // Find where the last record begins by walking the frames.
        let mut offsets = vec![0usize];
        let mut pos = 0usize;
        while pos < full.len() {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            pos += 8 + len;
            offsets.push(pos);
        }
        assert_eq!(pos, full.len(), "journal ends on a record boundary");
        let last_start = offsets[offsets.len() - 2];

        for cut in last_start..full.len() {
            fs::write(&path, &full[..cut]).expect("write truncated");
            let back = Journal::replay(&dir).expect("replay never errors");
            assert_eq!(
                back,
                all[..all.len() - 1],
                "truncation at byte {cut} damaged a committed record"
            );
            // Recovery over the survivors must also be panic-free.
            let (jobs, max_id) = recover(&back);
            assert_eq!(jobs.len(), 3);
            assert_eq!(max_id, 3);
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_damage() {
        let dir = temp_dir("corrupt");
        let journal = Journal::open(&dir).expect("open");
        for event in events() {
            journal.append(&event).expect("append");
        }
        drop(journal);
        let path = dir.join(JOURNAL_FILE);
        let full = fs::read(&path).expect("read");
        // Flip a byte inside the second record's payload: replay keeps
        // record one and drops everything from the damage on.
        let second = {
            let len = u32::from_le_bytes(full[0..4].try_into().expect("4 bytes")) as usize;
            8 + len
        };
        let mut damaged = full.clone();
        damaged[second + 9] ^= 0xff;
        fs::write(&path, &damaged).expect("write damaged");
        let back = Journal::replay(&dir).expect("replay");
        assert_eq!(back, events()[..1]);
        // The next incarnation cuts the damage off on open, so what it
        // appends is reachable by the replay after that.
        let journal = Journal::open(&dir).expect("reopen");
        let late = JournalEvent::Cancel { id: 9 };
        journal.append(&late).expect("append after reopen");
        drop(journal);
        let back = Journal::replay(&dir).expect("replay");
        assert_eq!(back, [events()[0].clone(), late]);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The chaos-PR extension of the truncation property: flip one byte at
    /// *every* offset of the journal (two masks — a full inversion and a
    /// single-bit flip). Replay must recover exactly the records before
    /// the damaged frame — a typed prefix, never a panic, never a
    /// mis-replayed (altered) record — and recovery over the survivors
    /// must be panic-free too.
    #[test]
    fn single_byte_corruption_at_every_offset_recovers_a_prefix() {
        let dir = temp_dir("flip-everywhere");
        let journal = Journal::open(&dir).expect("open");
        let all = events();
        for event in &all {
            journal.append(event).expect("append");
        }
        drop(journal);
        let path = dir.join(JOURNAL_FILE);
        let full = fs::read(&path).expect("read journal");

        // Record index covering each byte offset, from the frame walk.
        let mut record_of = vec![0usize; full.len()];
        let mut pos = 0usize;
        let mut index = 0usize;
        while pos < full.len() {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            record_of[pos..pos + 8 + len].fill(index);
            pos += 8 + len;
            index += 1;
        }
        assert_eq!(index, all.len(), "frame walk covers every record");

        for offset in 0..full.len() {
            for mask in [0xffu8, 0x01] {
                let mut damaged = full.clone();
                damaged[offset] ^= mask;
                fs::write(&path, &damaged).expect("write damaged");
                let back = Journal::replay(&dir).expect("replay never errors");
                // CRC framing guarantees the damaged frame (and therefore
                // everything after it) is dropped whole, and everything
                // before it survives byte-identically.
                assert_eq!(
                    back,
                    all[..record_of[offset]],
                    "flip {mask:#04x} at byte {offset} mis-replayed"
                );
                let (jobs, _) = recover(&back);
                assert!(jobs.len() <= 3, "recovery invented jobs");
            }
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn recover_folds_lifecycles() {
        let (jobs, max_id) = recover(&events());
        assert_eq!(max_id, 3);
        assert_eq!(jobs.len(), 3);
        assert_eq!(
            jobs[0].state,
            RecoveredState::Finished {
                ok: true,
                body: r#"{"total_cycles":123}"#.to_owned()
            }
        );
        assert_eq!(jobs[1].state, RecoveredState::Cancelled);
        assert_eq!(jobs[2].state, RecoveredState::Interrupted);

        // A submit with no further events recovers as queued; stray
        // events for unknown IDs are ignored.
        let (jobs, max_id) = recover(&[
            JournalEvent::Start { id: 9 },
            JournalEvent::Submit {
                id: 4,
                spec_json: "{}".to_owned(),
            },
        ]);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, RecoveredState::Queued);
        assert_eq!(max_id, 9, "the counter floor covers every ID seen");
    }

    #[test]
    fn finish_beats_late_cancel_and_restart_start() {
        // finish then a (bogus) cancel: the settled outcome stays.
        let (jobs, _) = recover(&[
            JournalEvent::Submit {
                id: 1,
                spec_json: "{}".to_owned(),
            },
            JournalEvent::Start { id: 1 },
            JournalEvent::Finish {
                id: 1,
                ok: false,
                body: "boom".to_owned(),
            },
            JournalEvent::Cancel { id: 1 },
        ]);
        assert_eq!(
            jobs[0].state,
            RecoveredState::Finished {
                ok: false,
                body: "boom".to_owned()
            }
        );
        // A job restarted after an earlier interruption journals a second
        // start; it stays interrupted until a finish lands.
        let (jobs, _) = recover(&[
            JournalEvent::Submit {
                id: 1,
                spec_json: "{}".to_owned(),
            },
            JournalEvent::Start { id: 1 },
            JournalEvent::Start { id: 1 },
        ]);
        assert_eq!(jobs[0].state, RecoveredState::Interrupted);
    }
}
