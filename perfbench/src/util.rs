//! Small measurement helpers: order statistics, a stable hash, seed
//! expansion, peak memory and a run-length budget.

use std::time::{Duration, Instant};

/// The median of `values` (mean of the middle two for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `values` (`q` in `[0, 1]`); `NaN`
/// when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The arithmetic mean of `values`; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a, 64-bit: a hash that is the same on every host and build, for
/// outcome and spec digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a whole byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    Fnv::default().bytes(bytes).finish()
}

/// The `i`-th output of SplitMix64 seeded with `seed`: how a workload
/// expands `--seed` into the seeds its inputs are drawn with.
pub fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident memory of process `pid` (`"self"` for this one) in
/// MiB, from the kernel's `VmHWM` high-water mark; `None` when the
/// process is gone or the field is missing.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A run-length budget: how long a phase of a run may keep starting
/// new laps.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    length: Duration,
}

impl Budget {
    /// A budget of `secs` seconds starting now.
    pub fn secs(secs: f64) -> Budget {
        Budget {
            start: Instant::now(),
            length: Duration::from_secs_f64(secs.max(0.0)),
        }
    }

    /// Whether another lap may start: always before the first lap
    /// (`laps == 0`), afterwards only while the budget lasts.
    pub fn another(&self, laps: usize) -> bool {
        laps == 0 || self.start.elapsed() < self.length
    }
}

/// Share of a run spent warming up before the timed laps: caches fill,
/// the heap grows to its working size, and lazy set-up finishes.
pub const WARM_UP_SHARE: f64 = 0.1;

/// Runs `lap` untimed for [`WARM_UP_SHARE`] of `seconds` (at least
/// once).
pub fn warm_up(seconds: u64, mut lap: impl FnMut()) {
    let budget = Budget::secs(seconds as f64 * WARM_UP_SHARE);
    let mut laps = 0;
    while budget.another(laps) {
        lap();
        laps += 1;
    }
}

/// The fastest of `laps`: the figure a run reports for a repeated
/// timing. On a shared host other tenants only ever add time to a lap,
/// and they do so for seconds at a time, so the median lap of one run
/// can sit 30% above another run's while the fastest laps of both agree
/// within a few percent. `NaN` when empty.
pub fn fastest(laps: &[f64]) -> f64 {
    laps.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Shortest sample a [`SetupClock`] times: set-ups that take less are
/// timed in batches this long, so a microsecond set-up is not timed at
/// the clock's grain.
pub const SETUP_SAMPLE_SECS: f64 = 1e-3;

/// Times a workload's set-up. Each [`SetupClock::sample`] times a batch
/// of back-to-back set-ups lasting at least [`SETUP_SAMPLE_SECS`];
/// workloads take samples between their laps, so that the samples are
/// spread over the whole run rather than caught in one burst of the
/// host's noise. Dropping what a batch built is not timed.
pub struct SetupClock<T, F: FnMut() -> T> {
    setup: F,
    batch: u32,
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupClock<T, F> {
    /// A clock for `setup`, with its batch size found by doubling.
    pub fn new(setup: F) -> Self {
        let mut clock = SetupClock {
            setup,
            batch: 1,
            samples: Vec::new(),
        };
        while clock.time_batch().1 < SETUP_SAMPLE_SECS && clock.batch < 1 << 20 {
            clock.batch *= 2;
        }
        clock
    }

    fn time_batch(&mut self) -> (Vec<T>, f64) {
        let mut built = Vec::with_capacity(self.batch as usize);
        let ((), s) = timed(|| {
            for _ in 0..self.batch {
                built.push((self.setup)());
            }
        });
        (built, s)
    }

    /// Takes one sample and returns the last set-up it built.
    pub fn sample(&mut self) -> T {
        let (mut built, s) = self.time_batch();
        self.samples.push(s / f64::from(self.batch));
        built.pop().expect("a batch builds at least once")
    }

    /// Seconds one set-up takes: the median over the samples.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// Laps [`resident_peak_mb`] runs.
pub const MEMORY_LAPS: usize = 5;

/// Resident memory one lap needs, in MiB: the median over
/// [`MEMORY_LAPS`] laps of this process's high-water mark during the
/// lap. Before each lap the allocator hands its free pages back to the
/// kernel (`malloc_trim`) and the mark is reset to the current resident
/// size (Linux `/proc/self/clear_refs`, value 5), so the figure is the
/// live set plus what the lap allocates, not what earlier laps left
/// fragmented in the allocator's per-thread arenas: that part wanders by
/// a third from one process to the next on identical inputs.
pub fn resident_peak_mb(mut lap: impl FnMut()) -> f64 {
    let peaks: Vec<f64> = (0..MEMORY_LAPS)
        .map(|_| {
            trim_heap();
            let _ = std::fs::write("/proc/self/clear_refs", "5");
            lap();
            peak_rss_mb("self").unwrap_or(f64::NAN)
        })
        .collect();
    median(&peaks)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointer and may be called
    // from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert!(fastest(&[]).is_nan());
    }

    #[test]
    fn seed_expansion_is_stable_and_seed_dependent() {
        assert_eq!(splitmix(1, 0), splitmix(1, 0));
        assert_ne!(splitmix(1, 0), splitmix(2, 0));
        assert_ne!(splitmix(1, 0), splitmix(1, 1));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
