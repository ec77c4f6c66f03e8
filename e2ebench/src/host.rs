//! The run record's host side: fingerprint, calibration kernel, peak RSS.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// `key=value` pairs naming the host and the code under test.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "nproc={nproc} cpu={cpu:?} rustc={rustc:?} commit={}",
        commit().unwrap_or_else(|| "unknown".to_owned())
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it (a source export has no `.git` and reports none).
fn commit() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// The calibration kernel: breadth-first searches over a fixed random
/// graph of the benchmark's own, about the size of the benchmark's data
/// instance, in memory allocated once per phase. It allocates nothing
/// while timed, so the program's heap cannot move it, and it shares no
/// code with the program, so a change to the program cannot either. It
/// slows with the host the way the requests do (branchy, dependent loads
/// from L1 and L2) where a pure arithmetic loop barely moves, so its time
/// measures how fast the host ran the round.
pub struct Calib {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    seen: Vec<u64>,
    queue: Vec<u32>,
}

const CALIB_NODES: usize = 5_000;
const CALIB_EDGES: usize = 10_000;
/// Searches per timed pass, from fixed sources.
const CALIB_SEARCHES: u32 = 4;

impl Calib {
    pub fn new() -> Calib {
        let mut x = 7u64;
        let mut next = || {
            x = x
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            ((x >> 33) % CALIB_NODES as u64) as u32
        };
        let mut edges: Vec<(u32, u32)> = (0..CALIB_EDGES).map(|_| (next(), next())).collect();
        edges.sort_unstable();
        let mut offsets = vec![0u32; CALIB_NODES + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..CALIB_NODES {
            offsets[i + 1] += offsets[i];
        }
        Calib {
            offsets,
            targets: edges.iter().map(|&(_, v)| v).collect(),
            seen: vec![0; CALIB_NODES.div_ceil(64)],
            queue: Vec::with_capacity(CALIB_NODES),
        }
    }

    /// Nodes reached from `source`.
    #[inline(never)]
    fn search(&mut self, source: u32) -> usize {
        self.seen.fill(0);
        self.queue.clear();
        self.queue.push(source);
        self.seen[source as usize / 64] |= 1 << (source % 64);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            for &v in &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                let (w, bit) = (v as usize / 64, 1u64 << (v % 64));
                if self.seen[w] & bit == 0 {
                    self.seen[w] |= bit;
                    self.queue.push(v);
                }
            }
        }
        self.queue.len()
    }

    /// One untimed search to bring the graph back into cache, then the
    /// time of [`CALIB_SEARCHES`] searches, in µs.
    pub fn time_us(&mut self) -> f64 {
        black_box(self.search(0));
        let start = Instant::now();
        for s in 0..CALIB_SEARCHES {
            black_box(self.search(s * 1_229));
        }
        start.elapsed().as_secs_f64() * 1e6
    }
}

/// `cpu_set_t` of glibc: 1024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, ascending; empty if unknown.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Pin the calling thread, and every thread it starts afterwards, to `cpu`.
/// Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= CPU_SET_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the byte size passed,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
