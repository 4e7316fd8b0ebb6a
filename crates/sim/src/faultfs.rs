//! Deterministic fault injection for file I/O — the "hostile disk".
//!
//! Production Baryon deployments journal and checkpoint to real disks,
//! and real disks lie: writes tear, volumes fill, fsync fails, bytes rot,
//! reads flip. This module injects every one of those faults *under* the
//! durability layer (checkpoint writes, journal appends, checkpoint
//! reads) so the recovery ladder above can be exercised in CI instead of
//! assumed.
//!
//! Everything is seeded and rate-configured in parts-per-million, so a
//! failing chaos run reproduces bit-for-bit from its seed. When every
//! rate is zero (the default) the module is disabled and the free
//! functions below compile down to the plain `std::fs` calls plus one
//! atomic-pointer load.
//!
//! # Environment knobs
//!
//! | Variable | Meaning |
//! |----------|---------|
//! | `BARYON_CHAOS_SEED` | RNG seed for all injection decisions (default 0) |
//! | `BARYON_CHAOS_WRITE_FAIL_PPM` | short write: a prefix persists, the call errors |
//! | `BARYON_CHAOS_ENOSPC_PPM` | write fails with "no space", nothing persists |
//! | `BARYON_CHAOS_FSYNC_FAIL_PPM` | `sync_data` errors (data stays in page cache) |
//! | `BARYON_CHAOS_CORRUPT_PPM` | silent post-write single-byte flip on disk |
//! | `BARYON_CHAOS_READ_FLIP_PPM` | single-byte flip in a read buffer (disk is untouched) |
//! | `BARYON_CHAOS_RESPONSE_CORRUPT_PPM` | single-byte flip in an HTTP response body or event-stream chunk after its CRC is stamped (the "lying shard") |
//!
//! The process-global injector is initialized from the environment on
//! first use; set the variables before the process starts (the fleet
//! launcher passes them to shard children explicitly).

use crate::rng::SimRng;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One injection decision per million operations, per fault class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Short write: a random prefix persists and the call errors.
    pub write_fail_ppm: u32,
    /// Write fails with an out-of-space error; nothing persists.
    pub enospc_ppm: u32,
    /// `sync_data` errors without syncing.
    pub fsync_fail_ppm: u32,
    /// Silent single-byte corruption of just-written data.
    pub corrupt_ppm: u32,
    /// Single-byte flip in a read buffer (the file itself is untouched).
    pub read_flip_ppm: u32,
    /// Single-byte flip in an outgoing HTTP response body after its CRC
    /// header was computed.
    pub response_corrupt_ppm: u32,
}

impl FaultRates {
    /// Whether any fault class can fire.
    pub fn any(&self) -> bool {
        self.write_fail_ppm > 0
            || self.enospc_ppm > 0
            || self.fsync_fail_ppm > 0
            || self.corrupt_ppm > 0
            || self.read_flip_ppm > 0
            || self.response_corrupt_ppm > 0
    }
}

/// How many faults of each class have fired so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Injected short writes.
    pub writes_failed: u64,
    /// Injected out-of-space errors.
    pub enospc: u64,
    /// Injected fsync failures.
    pub fsyncs_failed: u64,
    /// Silent post-write corruptions.
    pub corrupted: u64,
    /// Read-buffer byte flips.
    pub read_flips: u64,
    /// Response-body byte flips.
    pub responses_corrupted: u64,
}

/// A seeded, rate-configured fault injector for file I/O.
///
/// # Examples
///
/// ```
/// use baryon_sim::faultfs::{FaultFs, FaultRates};
///
/// // Every write fails with "no space".
/// let fs = FaultFs::new(7, FaultRates { enospc_ppm: 1_000_000, ..FaultRates::default() });
/// let path = std::env::temp_dir().join(format!("faultfs-doc-{}", std::process::id()));
/// assert!(fs.write_file(&path, b"payload").is_err());
/// assert!(!path.exists());
/// assert_eq!(fs.counts().enospc, 1);
/// ```
#[derive(Debug)]
pub struct FaultFs {
    rates: FaultRates,
    rng: Mutex<SimRng>,
    writes_failed: AtomicU64,
    enospc: AtomicU64,
    fsyncs_failed: AtomicU64,
    corrupted: AtomicU64,
    read_flips: AtomicU64,
    responses_corrupted: AtomicU64,
}

impl FaultFs {
    /// Creates an injector with the given seed and rates.
    pub fn new(seed: u64, rates: FaultRates) -> FaultFs {
        FaultFs {
            rates,
            rng: Mutex::new(SimRng::from_seed(seed)),
            writes_failed: AtomicU64::new(0),
            enospc: AtomicU64::new(0),
            fsyncs_failed: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            read_flips: AtomicU64::new(0),
            responses_corrupted: AtomicU64::new(0),
        }
    }

    /// Builds an injector from `BARYON_CHAOS_*` environment variables, or
    /// `None` when every rate is zero (chaos disabled).
    pub fn from_env() -> Option<FaultFs> {
        let rates = FaultRates {
            write_fail_ppm: env_ppm("BARYON_CHAOS_WRITE_FAIL_PPM"),
            enospc_ppm: env_ppm("BARYON_CHAOS_ENOSPC_PPM"),
            fsync_fail_ppm: env_ppm("BARYON_CHAOS_FSYNC_FAIL_PPM"),
            corrupt_ppm: env_ppm("BARYON_CHAOS_CORRUPT_PPM"),
            read_flip_ppm: env_ppm("BARYON_CHAOS_READ_FLIP_PPM"),
            response_corrupt_ppm: env_ppm("BARYON_CHAOS_RESPONSE_CORRUPT_PPM"),
        };
        if !rates.any() {
            return None;
        }
        let seed = std::env::var("BARYON_CHAOS_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        Some(FaultFs::new(seed, rates))
    }

    /// The rates this injector was built with.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// A snapshot of how many faults have fired.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            writes_failed: self.writes_failed.load(Ordering::Relaxed),
            enospc: self.enospc.load(Ordering::Relaxed),
            fsyncs_failed: self.fsyncs_failed.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            read_flips: self.read_flips.load(Ordering::Relaxed),
            responses_corrupted: self.responses_corrupted.load(Ordering::Relaxed),
        }
    }

    /// One seeded dice roll against a PPM rate.
    fn roll(&self, ppm: u32) -> bool {
        if ppm == 0 {
            return false;
        }
        let mut rng = self.rng.lock().expect("faultfs rng poisoned");
        rng.gen_range(0, 1_000_000) < ppm as u64
    }

    /// A seeded index into `0..len` (for picking flip offsets / prefix
    /// lengths).
    fn pick(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let mut rng = self.rng.lock().expect("faultfs rng poisoned");
        rng.gen_range(0, len as u64) as usize
    }

    /// `std::fs::write` with injected ENOSPC, short writes, and silent
    /// post-write corruption.
    ///
    /// # Errors
    ///
    /// Real filesystem errors, plus the injected ones described above. On
    /// an injected short write a prefix of `bytes` persists at `path`;
    /// on injected ENOSPC nothing does.
    pub fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.roll(self.rates.enospc_ppm) {
            self.enospc.fetch_add(1, Ordering::Relaxed);
            return Err(injected("no space left on device"));
        }
        if self.roll(self.rates.write_fail_ppm) {
            self.writes_failed.fetch_add(1, Ordering::Relaxed);
            let keep = self.pick(bytes.len());
            let _ = std::fs::write(path, &bytes[..keep]);
            return Err(injected("short write: disk persisted a prefix"));
        }
        if self.roll(self.rates.corrupt_ppm) && !bytes.is_empty() {
            self.corrupted.fetch_add(1, Ordering::Relaxed);
            let mut rotted = bytes.to_vec();
            let at = self.pick(rotted.len());
            rotted[at] ^= 1 << self.pick(8);
            // Silent: the caller sees success, the disk holds a lie.
            return std::fs::write(path, &rotted);
        }
        std::fs::write(path, bytes)
    }

    /// `std::fs::read` with injected single-byte flips in the returned
    /// buffer (the file on disk is untouched).
    ///
    /// # Errors
    ///
    /// Real filesystem errors only; read flips are silent.
    pub fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = std::fs::read(path)?;
        if self.roll(self.rates.read_flip_ppm) && !bytes.is_empty() {
            self.read_flips.fetch_add(1, Ordering::Relaxed);
            let at = self.pick(bytes.len());
            bytes[at] ^= 1 << self.pick(8);
        }
        Ok(bytes)
    }

    /// `File::write_all` (journal append) with injected ENOSPC, short
    /// writes, and silent corruption of the appended record.
    ///
    /// # Errors
    ///
    /// Real I/O errors, plus the injected ones. On an injected short
    /// write a prefix of `buf` lands in the file (a torn tail); on
    /// injected ENOSPC nothing is appended.
    pub fn append(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        if self.roll(self.rates.enospc_ppm) {
            self.enospc.fetch_add(1, Ordering::Relaxed);
            return Err(injected("no space left on device"));
        }
        if self.roll(self.rates.write_fail_ppm) {
            self.writes_failed.fetch_add(1, Ordering::Relaxed);
            let keep = self.pick(buf.len());
            let _ = file.write_all(&buf[..keep]);
            return Err(injected("short append: a torn tail persisted"));
        }
        if self.roll(self.rates.corrupt_ppm) && !buf.is_empty() {
            self.corrupted.fetch_add(1, Ordering::Relaxed);
            let mut rotted = buf.to_vec();
            let at = self.pick(rotted.len());
            rotted[at] ^= 1 << self.pick(8);
            return file.write_all(&rotted);
        }
        file.write_all(buf)
    }

    /// `File::sync_data` with injected fsync failures.
    ///
    /// # Errors
    ///
    /// Real fsync errors, plus injected ones (the data may still be
    /// sitting unsynced in the page cache, exactly like a real fsync
    /// failure).
    pub fn sync_data(&self, file: &File) -> io::Result<()> {
        if self.roll(self.rates.fsync_fail_ppm) {
            self.fsyncs_failed.fetch_add(1, Ordering::Relaxed);
            return Err(injected("fsync failed"));
        }
        file.sync_data()
    }

    /// Flips one byte of an outgoing response body (the "lying shard").
    /// Returns whether a flip happened.
    pub fn corrupt_response(&self, body: &mut [u8]) -> bool {
        if body.is_empty() || !self.roll(self.rates.response_corrupt_ppm) {
            return false;
        }
        self.responses_corrupted.fetch_add(1, Ordering::Relaxed);
        let at = self.pick(body.len());
        body[at] ^= 1 << self.pick(8);
        true
    }
}

/// An injected-fault error, distinguishable in logs by its message.
fn injected(what: &str) -> io::Error {
    io::Error::other(format!("faultfs injected: {what}"))
}

fn env_ppm(name: &str) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// The process-global injector, initialized from `BARYON_CHAOS_*` on
/// first use. `None` when chaos is disabled.
pub fn global() -> Option<&'static FaultFs> {
    static GLOBAL: OnceLock<Option<FaultFs>> = OnceLock::new();
    GLOBAL.get_or_init(FaultFs::from_env).as_ref()
}

/// `std::fs::write` through the global injector (a plain write when chaos
/// is disabled).
///
/// # Errors
///
/// Real filesystem errors plus injected ones; see [`FaultFs::write_file`].
pub fn write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    match global() {
        Some(fs) => fs.write_file(path, bytes),
        None => std::fs::write(path, bytes),
    }
}

/// `std::fs::read` through the global injector.
///
/// # Errors
///
/// Real filesystem errors; see [`FaultFs::read_file`].
pub fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    match global() {
        Some(fs) => fs.read_file(path),
        None => std::fs::read(path),
    }
}

/// `File::write_all` through the global injector.
///
/// # Errors
///
/// Real I/O errors plus injected ones; see [`FaultFs::append`].
pub fn append(file: &mut File, buf: &[u8]) -> io::Result<()> {
    match global() {
        Some(fs) => fs.append(file, buf),
        None => file.write_all(buf),
    }
}

/// `File::sync_data` through the global injector.
///
/// # Errors
///
/// Real fsync errors plus injected ones; see [`FaultFs::sync_data`].
pub fn sync_data(file: &File) -> io::Result<()> {
    match global() {
        Some(fs) => fs.sync_data(file),
        None => file.sync_data(),
    }
}

/// Flips one byte of `body` through the global injector; `false` (and
/// zero cost beyond one atomic load) when chaos is disabled.
pub fn corrupt_response(body: &mut [u8]) -> bool {
    global().is_some_and(|fs| fs.corrupt_response(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const ALWAYS: u32 = 1_000_000;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("baryon-faultfs-{tag}-{}", std::process::id()))
    }

    #[test]
    fn disabled_rates_never_fire() {
        let fs = FaultFs::new(1, FaultRates::default());
        let path = tmp("clean");
        for _ in 0..100 {
            fs.write_file(&path, b"payload").expect("clean write");
            assert_eq!(fs.read_file(&path).expect("clean read"), b"payload");
        }
        assert_eq!(fs.counts(), FaultCounts::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn enospc_persists_nothing() {
        let fs = FaultFs::new(
            2,
            FaultRates {
                enospc_ppm: ALWAYS,
                ..FaultRates::default()
            },
        );
        let path = tmp("enospc");
        let _ = std::fs::remove_file(&path);
        assert!(fs.write_file(&path, b"payload").is_err());
        assert!(!path.exists(), "ENOSPC must not create the file");
        assert_eq!(fs.counts().enospc, 1);
    }

    #[test]
    fn short_write_persists_a_strict_prefix() {
        let fs = FaultFs::new(
            3,
            FaultRates {
                write_fail_ppm: ALWAYS,
                ..FaultRates::default()
            },
        );
        let path = tmp("short");
        assert!(fs.write_file(&path, b"0123456789").is_err());
        let on_disk = std::fs::read(&path).expect("prefix exists");
        assert!(on_disk.len() < 10, "must be short: {}", on_disk.len());
        assert_eq!(&on_disk[..], &b"0123456789"[..on_disk.len()]);
        assert_eq!(fs.counts().writes_failed, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_is_silent_and_single_byte() {
        let fs = FaultFs::new(
            4,
            FaultRates {
                corrupt_ppm: ALWAYS,
                ..FaultRates::default()
            },
        );
        let path = tmp("rot");
        fs.write_file(&path, b"0123456789")
            .expect("reports success");
        let on_disk = std::fs::read(&path).expect("file exists");
        let diffs = on_disk
            .iter()
            .zip(b"0123456789".iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1, "exactly one byte rotted");
        assert_eq!(fs.counts().corrupted, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_flip_leaves_disk_intact() {
        let fs = FaultFs::new(
            5,
            FaultRates {
                read_flip_ppm: ALWAYS,
                ..FaultRates::default()
            },
        );
        let path = tmp("flip");
        std::fs::write(&path, b"0123456789").expect("setup");
        let seen = fs.read_file(&path).expect("read ok");
        assert_ne!(seen, b"0123456789", "buffer was flipped");
        assert_eq!(
            std::fs::read(&path).expect("reread"),
            b"0123456789",
            "disk untouched"
        );
        assert_eq!(fs.counts().read_flips, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_and_fsync_faults_fire() {
        let fs = FaultFs::new(
            6,
            FaultRates {
                fsync_fail_ppm: ALWAYS,
                ..FaultRates::default()
            },
        );
        let path = tmp("fsync");
        let mut file = File::create(&path).expect("create");
        fs.append(&mut file, b"record").expect("append ok");
        assert!(fs.sync_data(&file).is_err(), "fsync injected");
        assert_eq!(fs.counts().fsyncs_failed, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn same_seed_same_decisions() {
        let rates = FaultRates {
            corrupt_ppm: 500_000,
            ..FaultRates::default()
        };
        let path_a = tmp("det-a");
        let path_b = tmp("det-b");
        let run = |path: &Path| {
            let fs = FaultFs::new(99, rates);
            let mut outcomes = Vec::new();
            for i in 0..64u8 {
                fs.write_file(path, &[i; 16]).expect("write");
                outcomes.push(std::fs::read(path).expect("read"));
            }
            outcomes
        };
        assert_eq!(run(&path_a), run(&path_b), "seeded chaos replays exactly");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn response_corruption_respects_rate() {
        let fs = FaultFs::new(
            7,
            FaultRates {
                response_corrupt_ppm: ALWAYS,
                ..FaultRates::default()
            },
        );
        let mut body = b"{\"ok\":true}".to_vec();
        assert!(fs.corrupt_response(&mut body));
        assert_ne!(body, b"{\"ok\":true}");
        let clean = FaultFs::new(7, FaultRates::default());
        let mut body = b"{\"ok\":true}".to_vec();
        assert!(!clean.corrupt_response(&mut body));
        assert_eq!(body, b"{\"ok\":true}");
    }

    #[test]
    fn from_env_is_none_without_rates() {
        // The test runner may set chaos vars in other tests' processes but
        // not here; guard on the actual environment.
        if std::env::vars().any(|(k, _)| k.starts_with("BARYON_CHAOS_")) {
            return;
        }
        assert!(FaultFs::from_env().is_none());
    }
}
