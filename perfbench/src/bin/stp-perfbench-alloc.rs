//! `stp-perfbench-alloc --workload <name> --seed <n> --seconds <s>`
//!
//! Counts the allocations of one lap of a workload with the `stp-prof`
//! counting allocator installed, and prints `ops=… allocs=… bytes=…`.
//! The traced run of `stp-perfbench` starts it; see `src/alloc.rs`.

use std::path::Path;
use std::process::ExitCode;
use stp_perfbench::{alloc, args};
use stp_prof::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-alloc: {e}");
            return ExitCode::from(2);
        }
    };
    match alloc::count(args.workload, args.seed, Path::new(".")) {
        Ok(count) => {
            println!("{}", count.line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-alloc: {e}");
            ExitCode::FAILURE
        }
    }
}
