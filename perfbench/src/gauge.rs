//! The machine's speed, read with a fixed reference kernel.
//!
//! The benchmark shares a small virtual machine with other tenants, whose
//! load slows memory-bound code by 20–40% for seconds at a time: a fixed
//! sort, a fixed run of random table writes and a fixed allocation loop
//! each showed run-to-run spreads of 0.15–0.36 when timed alone, but
//! their ratios to one another only 0.09. The slowdown hits every piece of
//! code that runs at the time about alike, so the benchmark times this
//! kernel between its ops and scales each op by how fast the kernel ran
//! around it (see [`Speed`]).
//!
//! The kernel uses nothing from the repository, only the standard
//! library, and does the same work on every call, on fixed data of its
//! own that it allocates once: a change to the program cannot change how
//! fast it runs. Each sample runs it twice and times the second pass, so
//! what the op before it left in the caches does not count either. Its
//! mix follows the program's ops: scanning text byte by byte, filling a
//! hash table, chasing indices through a table about the size of the
//! ops' own data, and sorting.

use std::time::{Duration, Instant};

/// The kernel's time, in ms, on the machine the benchmark was built on
/// when no other tenant slowed it. Scaled timings are the times the ops
/// would have taken at that speed.
pub const NOMINAL_MS: f64 = 0.3;

/// Bytes of text the kernel scans.
const TEXT: usize = 16 << 10;
/// Entries of the table the kernel chases indices through (1 MB, so it
/// adds little to `peak_rss_mb`).
const TABLE: usize = 256 << 10;
/// Steps of the index chase.
const CHASE: usize = 16_000;
/// Keys the kernel inserts into its hash table, and sorts.
const KEYS: usize = 2_000;
/// Slots of the hash table (a power of two, four per key).
const SLOTS: usize = 8_192;
/// How long a sample runs the kernel before timing it. Right after an
/// op the kernel runs up to three times slower for a millisecond or two,
/// by how much depending on the op (whether it blocked, started threads
/// or freed memory); warmed up, it reads the machine alone.
const WARM: Duration = Duration::from_millis(2);
/// Timed passes per sample.
const PASSES: usize = 4;

/// The reference kernel's fixed data.
pub struct Gauge {
    text: Vec<u8>,
    table: Vec<u32>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    slots: Vec<u64>,
    sink: u64,
}

/// SplitMix64 over a fixed start, for the kernel's data.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Gauge {
    /// Generate the kernel's data: the same on every call.
    pub fn new() -> Self {
        let mut x = 0x5EED;
        let alphabet = b"{}[]\":, 0123456789abcdefghij\n";
        let text = (0..TEXT)
            .map(|_| alphabet[(mix(&mut x) % alphabet.len() as u64) as usize])
            .collect();
        // One random cycle through the whole table (Sattolo's shuffle), so
        // the chase visits a fresh entry on every step.
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        for i in (1..TABLE).rev() {
            order.swap(i, (mix(&mut x) % i as u64) as usize);
        }
        let mut table = vec![0u32; TABLE];
        for k in 0..TABLE {
            table[order[k] as usize] = order[(k + 1) % TABLE];
        }
        let keys = (0..KEYS).map(|_| mix(&mut x)).collect();
        Gauge {
            text,
            table,
            keys,
            sorted: vec![0; KEYS],
            slots: vec![0; SLOTS],
            sink: 0,
        }
    }

    /// Run the kernel for [`WARM`], then [`PASSES`] more times; the mean
    /// wall time of those passes, in ms.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        while t0.elapsed() < WARM {
            self.pass();
        }
        let t0 = Instant::now();
        for _ in 0..PASSES {
            self.pass();
        }
        t0.elapsed().as_secs_f64() * 1e3 / PASSES as f64
    }

    fn pass(&mut self) {
        let mut acc = 0u64;
        let mut depth = 0u64;
        for &b in &self.text {
            match b {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth = depth.saturating_sub(1),
                b'"' => acc ^= depth,
                b'0'..=b'9' => acc = acc.wrapping_mul(10).wrapping_add(u64::from(b - b'0')),
                _ => {}
            }
        }
        // Open addressing with linear probing; 0 marks a free slot.
        self.slots.fill(0);
        for &key in &self.keys {
            let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 51) as usize;
            while self.slots[at] != 0 && self.slots[at] != key {
                at = (at + 1) % SLOTS;
            }
            self.slots[at] = key;
        }
        acc = acc.wrapping_add(self.slots.iter().filter(|&&k| k != 0).count() as u64);
        let mut at = (acc % TABLE as u64) as u32;
        for _ in 0..CHASE {
            at = self.table[at as usize];
        }
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.sink = self
            .sink
            .wrapping_add(acc ^ u64::from(at) ^ self.sorted[KEYS / 2]);
    }
}

/// Gauge samples taken between a run's ops, and the scaling they give.
pub struct Speed {
    /// `(op index the sample was taken before, kernel ms)`, in run order.
    marks: Vec<(usize, f64)>,
}

impl Speed {
    pub fn new() -> Self {
        Speed { marks: Vec::new() }
    }

    /// Record a sample taken before op `i` (after the last op: `i` = the
    /// op count).
    pub fn mark(&mut self, i: usize, ms: f64) {
        self.marks.push((i, ms));
    }

    /// Factor that scales op `i` to the nominal speed: [`NOMINAL_MS`] over
    /// the mean of the samples taken just before and just after it.
    pub fn factor(&self, i: usize) -> f64 {
        let after = self.marks.partition_point(|&(at, _)| at <= i);
        let before = after.saturating_sub(1);
        let after = after.min(self.marks.len() - 1);
        NOMINAL_MS / ((self.marks[before].1 + self.marks[after].1) / 2.0)
    }

    /// Median kernel time of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.marks.iter().map(|m| m.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_op_takes_the_samples_around_it() {
        let mut s = Speed::new();
        s.mark(0, 2.0);
        s.mark(3, 4.0);
        s.mark(5, 1.0);
        assert_eq!(s.factor(0), NOMINAL_MS / 3.0);
        assert_eq!(s.factor(2), NOMINAL_MS / 3.0);
        assert_eq!(s.factor(3), NOMINAL_MS / 2.5);
        assert_eq!(s.factor(4), NOMINAL_MS / 2.5);
    }
}
