//! The durability layer shared by the serving tier's track store and
//! the engine's run journal: one filesystem seam, one deterministic
//! fault injector, one atomic-replace helper and one checksummed-line
//! codec.
//!
//! - [`Io`] is the seam every durable byte flows through. [`RealIo`]
//!   is production (fsync after every write and append, atomic
//!   renames); errors name their path and keep the OS
//!   [`io::ErrorKind`], so callers can tell absence from other failures.
//! - [`FaultyIo`] wraps any [`Io`] with an [`IoFaultPlan`] addressed by
//!   `(operation, ordinal)`. Both directories perform their operations
//!   in a fixed order, so a plan perturbs the same point of the
//!   computation on every run: torn writes, failed renames, read errors,
//!   transient read errors and hard crash points are all reproducible.
//! - [`write_atomic`] replaces a file through `<name>.tmp` in the same
//!   directory: one `write`, then one `rename`. A crash leaves the old
//!   bytes or the new ones, plus at most the tmp file as debris.
//! - A journal is a sequence of checksummed lines,
//!   `<16 hex chars: FNV-1a of body> <body>\n` ([`encode_line`]). A
//!   crash mid-append leaves a final line that is unterminated or fails
//!   its checksum; [`lines`] reports it so each journal's replay can
//!   classify it as a torn tail. The codec works on body strings: each
//!   caller keeps its own record type, serde and replay policy.

use crate::fnv1a;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The primitive filesystem operations a durable directory performs.
/// Thread-safe: the store shares one instance across query threads and
/// the run journal across stream workers.
pub trait Io: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create/truncate `path`, write `bytes`, fsync.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Append `bytes` to `path` (creating it if needed), fsync.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Create a directory and all parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// File names (not full paths) inside a directory, sorted.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
}

/// `e` with `path` prefixed to its message and its kind kept.
fn at(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// The production [`Io`]: real filesystem, durable writes (fsync after
/// write/append) and atomic renames.
#[derive(Debug, Default)]
pub struct RealIo;

impl Io for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path).map_err(|e| at(path, e))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        (|| {
            let mut f = std::fs::File::create(path)?;
            f.write_all(bytes)?;
            f.sync_all()
        })()
        .map_err(|e| at(path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to).map_err(|e| at(from, e))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        (|| {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            f.write_all(bytes)?;
            f.sync_all()
        })()
        .map_err(|e| at(path, e))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path).map_err(|e| at(path, e))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path).map_err(|e| at(path, e))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| at(dir, e))? {
            let entry = entry.map_err(|e| at(dir, e))?;
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }
}

/// The sibling tmp path [`write_atomic`] stages through: `<name>.tmp`
/// in the same directory (so the rename never crosses filesystems).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Replace `path` with `bytes` atomically: write (and fsync) the
/// [`tmp_path`], then rename it over `path`. Exactly one `write` and one
/// `rename`, so fault addresses count it as one of each. On any failure
/// `path` still holds its old bytes; the tmp file is the only debris.
pub fn write_atomic(io: &dyn Io, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    io.write(&tmp, bytes)?;
    io.rename(&tmp, path)
}

/// Encode one journal line: checksum, space, `body`, newline. `body`
/// must not contain a newline (compact JSON never does).
pub fn encode_line(body: &str) -> Vec<u8> {
    format!("{:016x} {body}\n", fnv1a(body.as_bytes())).into_bytes()
}

/// Decode one journal line (without its newline) to its body, or
/// `None` when it is not UTF-8, malformed or fails its checksum.
fn decode_line(line: &[u8]) -> Option<&str> {
    let line = std::str::from_utf8(line).ok()?;
    let (sum, body) = line.split_at_checked(16)?;
    let body = body.strip_prefix(' ')?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    (sum == fnv1a(body.as_bytes())).then_some(body)
}

/// One line of journal bytes, as [`lines`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<'a> {
    /// The checked body; `None` when the line is unterminated, not
    /// UTF-8, malformed or fails its checksum.
    pub body: Option<&'a str>,
    /// Byte offset just past this line (and its newline): truncating
    /// the journal here keeps exactly the lines up to this one.
    pub end: usize,
    /// Whether this is the final line. A bad final line is crash debris
    /// (a torn tail); a bad line with lines after it is corruption.
    pub last: bool,
}

/// Walk journal bytes line by line. An unterminated final line (a torn
/// append) is yielded last with no body.
pub fn lines(bytes: &[u8]) -> impl Iterator<Item = Line<'_>> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos >= bytes.len() {
            return None;
        }
        let rest = &bytes[pos..];
        let (body, end) = match rest.iter().position(|&b| b == b'\n') {
            Some(nl) => (decode_line(&rest[..nl]), pos + nl + 1),
            None => (None, bytes.len()),
        };
        pos = end;
        Some(Line {
            body,
            end,
            last: end == bytes.len(),
        })
    })
}

/// The primitive operations fault specs address, by kind plus a 0-based
/// per-kind invocation ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IoOp {
    /// Whole-file read.
    Read,
    /// Whole-file create/truncate + write + fsync.
    Write,
    /// Atomic rename (the commit step of [`write_atomic`]).
    Rename,
    /// Append + fsync (a journal's commit step).
    Append,
}

impl IoOp {
    /// All operations, in a fixed order (sweep enumeration).
    pub const ALL: [IoOp; 4] = [IoOp::Read, IoOp::Write, IoOp::Rename, IoOp::Append];

    /// Stable lowercase label (reports, bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Rename => "rename",
            IoOp::Append => "append",
        }
    }
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The operation fails outright without touching the filesystem.
    Error,
    /// A write/append persists only the first half of its bytes, then
    /// fails — the torn-write crash model.
    Torn,
    /// Process death: this operation and every later one fail. The
    /// directory is left exactly as the preceding operations left it.
    Crash,
    /// The next `failures` invocations (starting at the spec's ordinal)
    /// fail, then the operation succeeds — models transient read
    /// faults healed by retry.
    Transient {
        /// Number of consecutive failing invocations.
        failures: u64,
    },
}

/// One injected fault: fire `kind` on the `ordinal`-th invocation
/// (0-based, counted per operation kind) of `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct IoFaultSpec {
    /// Operation kind the fault targets.
    pub op: IoOp,
    /// 0-based invocation ordinal within that kind.
    pub ordinal: u64,
    /// What happens when it fires.
    pub kind: IoFaultKind,
}

/// A deterministic schedule of injected faults (empty default).
/// Same plan + same operation sequence → same perturbation, every run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoFaultPlan {
    specs: Vec<IoFaultSpec>,
}

impl IoFaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A single fault of `kind` at `(op, ordinal)`.
    pub fn at(op: IoOp, ordinal: u64, kind: IoFaultKind) -> Self {
        IoFaultPlan::none().with(IoFaultSpec { op, ordinal, kind })
    }

    /// A single hard crash at `(op, ordinal)`.
    pub fn crash_at(op: IoOp, ordinal: u64) -> Self {
        Self::at(op, ordinal, IoFaultKind::Crash)
    }

    /// A single non-crash error at `(op, ordinal)`.
    pub fn error_at(op: IoOp, ordinal: u64) -> Self {
        Self::at(op, ordinal, IoFaultKind::Error)
    }

    /// A torn write/append at `(op, ordinal)`.
    pub fn torn_at(op: IoOp, ordinal: u64) -> Self {
        Self::at(op, ordinal, IoFaultKind::Torn)
    }

    /// `failures` consecutive transient read errors starting at read
    /// ordinal `ordinal`.
    pub fn transient_reads(ordinal: u64, failures: u64) -> Self {
        Self::at(IoOp::Read, ordinal, IoFaultKind::Transient { failures })
    }

    /// Add `spec` (builder style).
    pub fn with(mut self, spec: IoFaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The fault (if any) scheduled for the `ordinal`-th invocation of
    /// `op`. Pure: same inputs, same answer.
    fn fire(&self, op: IoOp, ordinal: u64) -> Option<&IoFaultSpec> {
        self.specs.iter().find(|s| {
            s.op == op
                && match s.kind {
                    IoFaultKind::Transient { failures } => {
                        ordinal >= s.ordinal && ordinal < s.ordinal + failures
                    }
                    _ => ordinal == s.ordinal,
                }
        })
    }
}

fn injected(path: &Path, what: impl fmt::Display) -> io::Error {
    io::Error::other(format!("{}: injected {what}", path.display()))
}

/// An [`Io`] wrapper injecting an [`IoFaultPlan`] over an inner
/// implementation. Each operation kind counts its invocations; when the
/// plan addresses the current `(op, ordinal)`, the fault fires. After an
/// [`IoFaultKind::Crash`] fires, *every* subsequent operation fails —
/// the process is dead as far as the directory is concerned, and it
/// holds exactly what the completed operations persisted.
pub struct FaultyIo<I: Io> {
    inner: I,
    plan: IoFaultPlan,
    counters: [AtomicU64; 4],
    crashed: AtomicBool,
}

impl<I: Io> FaultyIo<I> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: I, plan: IoFaultPlan) -> Self {
        FaultyIo {
            inner,
            plan,
            counters: Default::default(),
            crashed: AtomicBool::new(false),
        }
    }

    /// Invocation counts per operation kind so far (crash-point sweeps
    /// enumerate these).
    pub fn ops(&self) -> BTreeMap<IoOp, u64> {
        IoOp::ALL
            .into_iter()
            .map(|op| (op, self.counters[op as usize].load(Ordering::Relaxed)))
            .collect()
    }

    /// Whether an injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Fail if an injected crash already fired.
    fn alive(&self, path: &Path) -> io::Result<()> {
        if self.crashed() {
            return Err(injected(path, "crash: process is dead"));
        }
        Ok(())
    }

    /// Count the invocation and decide its fate: `Ok(false)` proceed
    /// normally, `Ok(true)` proceed torn, `Err` fail.
    fn gate(&self, op: IoOp, path: &Path) -> io::Result<bool> {
        self.alive(path)?;
        let ordinal = self.counters[op as usize].fetch_add(1, Ordering::Relaxed);
        match self.plan.fire(op, ordinal).map(|s| s.kind) {
            None => Ok(false),
            Some(IoFaultKind::Error) | Some(IoFaultKind::Transient { .. }) => Err(injected(
                path,
                format_args!("{op} error at ordinal {ordinal}"),
            )),
            Some(IoFaultKind::Crash) => {
                self.crashed.store(true, Ordering::Relaxed);
                Err(injected(
                    path,
                    format_args!("crash at {op} ordinal {ordinal}"),
                ))
            }
            Some(IoFaultKind::Torn) => Ok(true),
        }
    }
}

impl<I: Io> Io for FaultyIo<I> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.gate(IoOp::Read, path)?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if !self.gate(IoOp::Write, path)? {
            return self.inner.write(path, bytes);
        }
        // torn write: half the bytes land, then the op fails
        self.inner.write(path, &bytes[..bytes.len() / 2])?;
        Err(injected(path, "torn write"))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if !self.gate(IoOp::Rename, from)? {
            return self.inner.rename(from, to);
        }
        // a rename cannot tear — treat as outright failure
        Err(injected(from, "rename failure"))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if !self.gate(IoOp::Append, path)? {
            return self.inner.append(path, bytes);
        }
        self.inner.append(path, &bytes[..bytes.len() / 2])?;
        Err(injected(path, "torn append"))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.alive(path)?;
        self.inner.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.alive(path)?;
        self.inner.remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("otif-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_io_keeps_the_error_kind_and_names_the_path() {
        let dir = scratch("missing");
        let path = dir.join("nope.json");
        let err = RealIo.read(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("nope.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_io_fires_at_exact_ordinal_only() {
        let dir = scratch("ordinal");
        let io = FaultyIo::new(RealIo, IoFaultPlan::error_at(IoOp::Write, 1));
        io.write(&dir.join("a"), b"aa").unwrap();
        let err = io.write(&dir.join("b"), b"bb").unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::NotFound, "{err}");
        assert!(!io.exists(&dir.join("b")), "failed write must not land");
        io.write(&dir.join("c"), b"cc").unwrap();
        assert_eq!(io.ops()[&IoOp::Write], 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_persists_half_then_fails() {
        let dir = scratch("torn");
        let io = FaultyIo::new(RealIo, IoFaultPlan::torn_at(IoOp::Write, 0));
        assert!(io.write(&dir.join("t"), b"12345678").is_err());
        assert_eq!(std::fs::read(dir.join("t")).unwrap(), b"1234");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_kills_all_subsequent_operations() {
        let dir = scratch("crash");
        let io = FaultyIo::new(RealIo, IoFaultPlan::crash_at(IoOp::Append, 1));
        io.append(&dir.join("j"), b"one\n").unwrap();
        assert!(io.append(&dir.join("j"), b"two\n").is_err());
        assert!(io.crashed());
        assert!(io.read(&dir.join("j")).is_err(), "reads die after crash");
        assert!(io.write(&dir.join("x"), b"x").is_err());
        assert!(io.create_dir_all(&dir.join("d")).is_err());
        assert_eq!(std::fs::read(dir.join("j")).unwrap(), b"one\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_reads_heal_after_n_failures() {
        let dir = scratch("transient");
        std::fs::write(dir.join("f"), b"payload").unwrap();
        let io = FaultyIo::new(RealIo, IoFaultPlan::transient_reads(0, 2));
        assert!(io.read(&dir.join("f")).is_err());
        assert!(io.read(&dir.join("f")).is_err());
        assert_eq!(io.read(&dir.join("f")).unwrap(), b"payload");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_path_is_a_sibling() {
        assert_eq!(
            tmp_path(Path::new("store/clips/clip_3.json")),
            Path::new("store/clips/clip_3.json.tmp")
        );
    }

    #[test]
    fn line_round_trip_and_checksum() {
        let line = encode_line(r#"{"id":0}"#);
        assert_eq!(line.last(), Some(&b'\n'));
        let body = &line[..line.len() - 1];
        assert_eq!(decode_line(body), Some(r#"{"id":0}"#));
        let mut damaged = body.to_vec();
        damaged[20] ^= 0x01;
        assert_eq!(decode_line(&damaged), None);
        assert_eq!(decode_line(b"0123"), None, "shorter than a checksum");
        assert_eq!(decode_line(b"zzzzzzzzzzzzzzzz {}"), None, "not hex");
    }

    #[test]
    fn lines_report_torn_and_bad_final_lines() {
        let mut bytes = encode_line("a");
        bytes.extend(encode_line("b"));
        let whole = bytes.len();
        let got: Vec<Line> = lines(&bytes).collect();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].body, got[0].last), (Some("a"), false));
        assert_eq!(
            (got[1].body, got[1].end, got[1].last),
            (Some("b"), whole, true)
        );

        // unterminated tail: yielded last, with no body
        let extra = encode_line("c");
        bytes.extend_from_slice(&extra[..extra.len() - 1]);
        let tail = lines(&bytes).last().unwrap();
        assert_eq!((tail.body, tail.end, tail.last), (None, bytes.len(), true));

        // a damaged middle line is bad but not last
        let mut mid = encode_line("a");
        mid[17] = b'x';
        mid.extend(encode_line("b"));
        let got: Vec<Line> = lines(&mid).collect();
        assert_eq!((got[0].body, got[0].last), (None, false));
        assert_eq!(got[1].body, Some("b"));
        assert_eq!(lines(b"").count(), 0);
    }

    proptest! {
        // Property: a fault aimed at any `write` or `rename` of a
        // sequence of atomic replacements over an existing target
        // leaves the target holding exactly its previous bytes (the
        // call failed) or exactly the new ones (it succeeded), never a
        // prefix; the only debris is the tmp file.
        #[test]
        fn write_atomic_is_all_or_nothing_under_every_fault(
            old in proptest::collection::vec(0u8..255, 0..48),
            new in proptest::collection::vec(0u8..255, 1..48),
            calls in 1u64..4,
        ) {
            let kinds = [
                IoFaultKind::Error,
                IoFaultKind::Torn,
                IoFaultKind::Crash,
                IoFaultKind::Transient { failures: 1 },
                IoFaultKind::Transient { failures: 2 },
            ];
            let dir = scratch("atomic");
            let target = dir.join("target.json");
            for op in [IoOp::Write, IoOp::Rename] {
                for ordinal in 0..calls {
                    for kind in kinds {
                        let _ = std::fs::remove_file(tmp_path(&target));
                        std::fs::write(&target, &old).unwrap();
                        let io = FaultyIo::new(RealIo, IoFaultPlan::at(op, ordinal, kind));
                        let mut expected = old.clone();
                        for k in 0..calls {
                            let mut bytes = new.clone();
                            bytes.push(k as u8);
                            match write_atomic(&io, &target, &bytes) {
                                Ok(()) => expected = bytes,
                                Err(_) => prop_assert!(k >= ordinal, "fault fired early"),
                            }
                            prop_assert_eq!(std::fs::read(&target).unwrap(), expected.clone());
                        }
                        let names = RealIo.list(&dir).unwrap();
                        prop_assert!(
                            names.iter().all(|n| n == "target.json" || n == "target.json.tmp"),
                            "unexpected debris {names:?}"
                        );
                    }
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
