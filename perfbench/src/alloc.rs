//! Allocations per operation, counted in a separate process.
//!
//! The `stp-prof` counting allocator is a global allocator, so it
//! cannot be installed in the binary whose runs are timed without
//! touching their numbers. The traced run therefore starts the
//! `stp-perfbench-alloc` executable, which installs it, runs one lap of
//! the workload and prints the allocation counts of that lap.

use crate::args::Workload;
use crate::trace::Tracer;
use crate::{certify, reproduce, sessions, sweep};
use std::path::Path;
use stp_sim::PhaseProfiler;

/// Allocations made by one lap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    /// Operations in the lap.
    pub ops: u64,
    /// Allocation calls during the lap, on every thread.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocCount {
    /// The line the counting executable prints.
    pub fn line(&self) -> String {
        format!(
            "ops={} allocs={} bytes={}",
            self.ops, self.allocs, self.bytes
        )
    }

    /// Parses [`AllocCount::line`]; `None` for anything else.
    pub fn parse(line: &str) -> Option<AllocCount> {
        let mut fields = line.split_whitespace().map(|f| f.split_once('='));
        let mut next = |key: &str| match fields.next()? {
            Some((k, v)) if k == key => v.parse().ok(),
            _ => None,
        };
        let count = AllocCount {
            ops: next("ops")?,
            allocs: next("allocs")?,
            bytes: next("bytes")?,
        };
        (count.ops > 0).then_some(count)
    }
}

/// Runs one lap of `workload` (set-up excluded) and counts the
/// allocations it makes. The counts are zero unless the calling binary
/// installed `stp_prof::CountingAlloc`.
pub fn count(
    workload: Workload,
    seed: u64,
    root: &Path,
) -> Result<AllocCount, reproduce::ReproduceError> {
    let mut off = Tracer::off();
    let (ops, prof) = match workload {
        Workload::Reproduce => {
            let want = reproduce::setup(root)?;
            let prof = PhaseProfiler::new(1);
            reproduce::in_process(&mut off, 0);
            (want.0.len() as u64, prof)
        }
        Workload::Sweep => {
            let cells = sweep::setup(seed, sweep::threads());
            let prof = PhaseProfiler::new(1);
            for c in &cells {
                c.engine.run(&*c.family);
            }
            (cells.iter().map(|c| c.runs as u64).sum(), prof)
        }
        Workload::Sessions => {
            let spec = sessions::churn_spec(seed, sessions::shards());
            let lap = sessions::setup(&spec, false);
            let prof = PhaseProfiler::new(1);
            sessions::drive(lap, &mut off, 0);
            (spec.sessions, prof)
        }
        Workload::Certify => {
            let expected = certify::setup();
            let prof = PhaseProfiler::new(1);
            certify::lap(&expected, &mut off, 0);
            (expected.len() as u64, prof)
        }
    };
    let record = prof.report("perfbench", workload.name());
    Ok(AllocCount {
        ops,
        allocs: record.allocs_total,
        bytes: record.alloc_bytes_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_count_line_round_trips() {
        let c = AllocCount {
            ops: 3,
            allocs: 7,
            bytes: 99,
        };
        assert_eq!(AllocCount::parse(&c.line()), Some(c));
        assert_eq!(AllocCount::parse("ops=3 allocs=x bytes=1"), None);
        assert_eq!(AllocCount::parse("ops=0 allocs=1 bytes=1"), None);
        assert_eq!(AllocCount::parse(""), None);
    }
}
