//! Replays of the scan and storage layers on the production drivers.
//!
//! After the traced phase, every round shape the decorator saw is replayed
//! with the public `pir` and `storage` calls the front makes, on the same
//! drivers (`db.server().file_driver(..)`, the `ChecksumFile` over the
//! snapshot's `MmapFile`), with nothing else running:
//!
//! * `LinearScanStore::fetch_batch` with the round's fetch count per file:
//!   one scan pass, what the front's loop thread does per round;
//! * `PagedFile::read_run_into` over the whole file in 64-page runs: the
//!   driver read with per-page CRC verification, without the lane select;
//! * `storage::crc32` alone over the same pages.

use crate::spans::Recorder;
use crate::stats::median;
use privpath_pir::{FileId, LinearScanStore, ObliviousStore, PirServer};
use privpath_storage::{crc32, PageBuf, PagedFile};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pages per `read_run_into` call, as the scan kernel streams them.
const RUN_PAGES: u32 = 64;

/// Replays an operation until `budget` has passed (at least `min` and at
/// most `max` times) after two untimed warm-up calls, recording one span
/// per replay, and returns the median duration in ms.
fn time_median(
    rec: &mut Recorder,
    name: &'static str,
    label: &str,
    budget: Duration,
    (min, max): (usize, usize),
    mut op: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    op()?;
    op()?;
    let mut ms = Vec::new();
    let begin = Instant::now();
    while ms.len() < min || (ms.len() < max && begin.elapsed() < budget) {
        let t0 = Instant::now();
        op()?;
        let t1 = Instant::now();
        rec.push_labelled(name, label, t0, t1);
        ms.push((t1 - t0).as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// Median ms of one `fetch_batch` pass over file `f` serving `fetches`
/// requested pages (spread evenly over the file).
pub fn scan_pass_ms(
    rec: &mut Recorder,
    server: &PirServer,
    f: FileId,
    fetches: u32,
    budget: Duration,
) -> Result<f64, String> {
    let driver = server.file_driver(f).map_err(|e| e.to_string())?;
    let name = server.file_name(f).map_err(|e| e.to_string())?.to_string();
    let pages = driver.num_pages();
    let wanted: Vec<u32> = (0..fetches)
        .map(|i| (u64::from(i) * u64::from(pages) / u64::from(fetches.max(1))) as u32)
        .collect();
    let mut out = vec![PageBuf::zeroed(driver.page_size()); wanted.len()];
    let mut store = LinearScanStore::from_driver(driver);
    time_median(rec, "pir.scan_pass", &name, budget, (5, 400), || {
        store
            .fetch_batch(&wanted, &mut out)
            .map_err(|e| format!("scan replay of {name}: {e}"))
    })
}

/// Median ms of reading every page of `drivers` through them in
/// 64-page `read_run_into` runs (checksum verification included).
pub fn read_verify_ms(
    rec: &mut Recorder,
    drivers: &[Arc<dyn PagedFile>],
    budget: Duration,
) -> Result<f64, String> {
    let max_run = drivers.iter().map(|d| d.page_size()).max().unwrap_or(0) * RUN_PAGES as usize;
    let mut buf = vec![0u8; max_run];
    time_median(
        rec,
        "storage.read_verify",
        "plan files",
        budget,
        (5, 400),
        || {
            for d in drivers {
                read_all(&**d, &mut buf, |_| {})?;
            }
            Ok(())
        },
    )
}

/// Median ms of `crc32` over every page of `drivers`, on bytes read once
/// beforehand (so only the checksum is timed).
pub fn crc_ms(
    rec: &mut Recorder,
    drivers: &[Arc<dyn PagedFile>],
    budget: Duration,
) -> Result<f64, String> {
    let mut pages: Vec<(usize, Vec<u8>)> = Vec::new();
    for d in drivers {
        let ps = d.page_size();
        let mut bytes = Vec::with_capacity(d.size_bytes() as usize);
        let mut buf = vec![0u8; ps * RUN_PAGES as usize];
        read_all(&**d, &mut buf, |run| bytes.extend_from_slice(run))?;
        pages.push((ps, bytes));
    }
    let mut sink = 0u32;
    let ms = time_median(rec, "storage.crc", "plan files", budget, (5, 400), || {
        for (ps, bytes) in &pages {
            for page in bytes.chunks_exact(*ps) {
                sink ^= crc32(std::hint::black_box(page));
            }
        }
        Ok(())
    })?;
    std::hint::black_box(sink);
    Ok(ms)
}

/// Streams a whole file through `read_run_into`, handing each run to `f`.
fn read_all(d: &dyn PagedFile, buf: &mut [u8], mut f: impl FnMut(&[u8])) -> Result<(), String> {
    let ps = d.page_size();
    let n = d.num_pages();
    let mut first = 0u32;
    while first < n {
        let count = RUN_PAGES.min(n - first);
        let run = &mut buf[..ps * count as usize];
        d.read_run_into(first, run)
            .map_err(|e| format!("read_run_into at page {first}: {e}"))?;
        f(run);
        first += count;
    }
    Ok(())
}
