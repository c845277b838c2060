//! The store's append-only ingest journal — the durability commit
//! point.
//!
//! Every ingest appends exactly one record to `journal.log` *after* the
//! clip payload file is durably in place
//! ([`otif_core::durable::write_atomic`]). A record is one checksummed
//! line of the shared codec ([`otif_core::durable::encode_line`]) whose
//! body is the clip's [`ClipMeta`] as JSON.
//!
//! The checksum makes torn appends self-detecting: a crash mid-append
//! leaves a trailing line whose checksum cannot match (or no newline at
//! all), and [`replay`] classifies it as a *torn tail* — expected
//! crash debris, truncated by `store-fsck --repair`, never data loss.
//! The store's replay policy is a dense-id valid prefix: the first bad
//! record ends it, and everything after it is untrusted.
//! Because the clip file is renamed into place before its record is
//! appended, every valid journal record refers to a clip file that
//! exists on disk: an acknowledged ingest (journal append returned Ok)
//! can always be recovered by replaying the journal, which is the
//! zero-acknowledged-loss invariant the robustness bench sweeps.
//!
//! `catalog.json` is demoted to a rewritable *checkpoint* of the same
//! entries — convenient for tools, never authoritative: `open()`
//! replays the journal when one exists.

use crate::store::ClipMeta;
use otif_core::durable;

/// File name of the ingest journal inside a store directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// Outcome of replaying journal bytes: the valid record prefix plus a
/// classification of whatever follows it.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Catalog entries recovered from valid records, in journal order.
    pub entries: Vec<ClipMeta>,
    /// Whether the journal ends in crash debris (a final line that is
    /// unterminated or fails its checksum).
    pub torn_tail: bool,
    /// Complete, newline-terminated records that failed their checksum
    /// or did not parse — corruption beyond a simple torn tail.
    pub invalid_records: usize,
    /// Byte length of the valid record prefix; truncating the journal
    /// to this length drops only debris.
    pub valid_bytes: usize,
}

impl JournalReplay {
    /// Whether the journal is pristine: every byte belongs to a valid
    /// record.
    pub fn clean(&self) -> bool {
        !self.torn_tail && self.invalid_records == 0
    }
}

/// Replay raw journal bytes. Reading stops being "valid prefix" at the
/// first bad record; a bad *final* line with no records after it is a
/// torn tail (crash debris), anything else bad counts as an invalid
/// record. Ids must be dense (`0..n` in order) — a gap means records
/// from a foreign store were spliced in, and replay reports the prefix
/// up to the gap as valid with the rest invalid.
pub fn replay(bytes: &[u8]) -> JournalReplay {
    let mut out = JournalReplay::default();
    for line in durable::lines(bytes) {
        match line
            .body
            .and_then(|b| serde_json::from_str::<ClipMeta>(b).ok())
        {
            Some(meta) if meta.id == out.entries.len() => {
                out.entries.push(meta);
                out.valid_bytes = line.end;
            }
            // bad but final line: a torn append (possibly one that
            // landed a newline inside the half-written bytes)
            _ if line.last => out.torn_tail = true,
            _ => {
                // everything after a mid-journal bad record is untrusted
                out.invalid_records = 1 + bytes[line.end..].iter().filter(|&&b| b == b'\n').count();
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_line(meta: &ClipMeta) -> Vec<u8> {
        durable::encode_line(&serde_json::to_string(meta).unwrap())
    }

    fn meta(id: usize) -> ClipMeta {
        ClipMeta {
            id,
            num_frames: 100,
            fps: 10.0,
            width: 640.0,
            height: 352.0,
            num_tracks: 3,
            max_concurrent_tracks: 2,
            fingerprint: 0xdead_beef ^ id as u64,
            cell_size: 13.0,
            occupied_cells: vec![(1, 2), (3, 4)],
            source: None,
        }
    }

    fn journal(n: usize) -> Vec<u8> {
        (0..n).flat_map(|i| journal_line(&meta(i))).collect()
    }

    #[test]
    fn round_trip_replays_all_records() {
        let bytes = journal(3);
        let r = replay(&bytes);
        assert!(r.clean());
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.valid_bytes, bytes.len());
        for (i, e) in r.entries.iter().enumerate() {
            assert_eq!(e.id, i);
            assert_eq!(e.fingerprint, meta(i).fingerprint);
        }
    }

    #[test]
    fn empty_journal_is_clean_and_empty() {
        let r = replay(b"");
        assert!(r.clean());
        assert!(r.entries.is_empty());
        assert_eq!(r.valid_bytes, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_truncatable() {
        let mut bytes = journal(2);
        let good = bytes.len();
        let extra = journal_line(&meta(2));
        bytes.extend_from_slice(&extra[..extra.len() / 2]); // torn append
        let r = replay(&bytes);
        assert!(r.torn_tail);
        assert_eq!(r.invalid_records, 0);
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.valid_bytes, good, "truncation point = valid prefix");
        // truncating to valid_bytes yields a clean journal
        let r2 = replay(&bytes[..r.valid_bytes]);
        assert!(r2.clean());
        assert_eq!(r2.entries.len(), 2);
    }

    #[test]
    fn corrupt_mid_journal_record_invalidates_suffix() {
        let mut bytes = journal(3);
        // flip a byte inside record 1's body
        let rec0 = journal_line(&meta(0)).len();
        bytes[rec0 + 20] ^= 0xff;
        let r = replay(&bytes);
        assert!(!r.clean());
        assert_eq!(r.entries.len(), 1, "only the prefix before the damage");
        assert_eq!(r.invalid_records, 2, "bad record + untrusted suffix");
        assert!(!r.torn_tail);
    }

    #[test]
    fn id_gap_stops_the_valid_prefix() {
        let mut bytes: Vec<u8> = journal_line(&meta(0));
        bytes.extend(journal_line(&meta(2))); // gap: 1 missing
        let r = replay(&bytes);
        assert_eq!(r.entries.len(), 1);
        assert!(r.torn_tail, "bad final line classifies as tail debris");
    }
}
