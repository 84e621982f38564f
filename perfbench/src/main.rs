//! `stp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the checkout root and prints, as its last two
//! lines, a `{"provenance": …}` record and the result line
//! (`correct`, `attempted`, `failed`, `metrics`). The traced run also
//! writes its spans to `<target>/perfbench/spans-<workload>-<seed>.jsonl`,
//! where `<target>` is `$CARGO_TARGET_DIR` (default `.bench_build`).
//! Exits 2 on a malformed command line, 1 when the workload cannot run.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use stp_perfbench::alloc::AllocCount;
use stp_perfbench::args::{self, Args, Workload};
use stp_perfbench::report::{result_line, Provenance, Report};
use stp_perfbench::trace::Tracer;
use stp_perfbench::{certify, reproduce, sessions, sweep};

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
}

/// Allocation counts for the traced run, from `stp-perfbench-alloc` (see
/// `src/alloc.rs`), which sits next to this executable.
fn count_allocs(args: &Args) -> Result<AllocCount, Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?.with_file_name("stp-perfbench-alloc");
    let out = Command::new(&exe)
        .args(["--workload", args.workload.name(), "--seconds", "1"])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.lines().last().and_then(AllocCount::parse) {
        Some(count) if out.status.success() => Ok(count),
        _ => Err(format!(
            "{} gave no allocation count ({})",
            exe.display(),
            out.status
        )
        .into()),
    }
}

fn run(args: &Args) -> Result<(Report, Option<Tracer>), Box<dyn std::error::Error>> {
    let root = Path::new(".");
    let run_all = target_dir().join("release").join("run_all");
    let (seed, secs) = (args.seed, args.seconds);
    let (mut report, tracer) = match (args.workload, args.trace) {
        (Workload::Reproduce, false) => (reproduce::measure(root, &run_all, secs)?, None),
        (Workload::Reproduce, true) => {
            let (r, t) = reproduce::traced(root, &run_all, secs)?;
            (r, Some(t))
        }
        (Workload::Sweep, false) => (sweep::measure(seed, secs), None),
        (Workload::Sweep, true) => {
            let (r, t) = sweep::traced(seed, secs);
            (r, Some(t))
        }
        (Workload::Sessions, false) => (sessions::measure(seed, secs), None),
        (Workload::Sessions, true) => {
            let (r, t) = sessions::traced(seed, secs);
            (r, Some(t))
        }
        (Workload::Certify, false) => (certify::measure(secs), None),
        (Workload::Certify, true) => {
            let (r, t) = certify::traced(secs);
            (r, Some(t))
        }
    };
    if args.trace {
        let count = count_allocs(args)?;
        report.set("alloc.per_op", count.allocs as f64 / count.ops as f64);
        report.set("alloc.bytes_per_op", count.bytes as f64 / count.ops as f64);
    }
    Ok((report, tracer))
}

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, tracer) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let provenance = Provenance::of(&args, &report);
    if let Some(tracer) = tracer {
        let dir = target_dir().join("perfbench");
        let path = dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let body = format!(
            "{}\n{}",
            provenance.line(),
            tracer.to_jsonl(&provenance.run_id())
        );
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let line = match result_line(&report, args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!("{}", provenance.line());
    println!("{line}");
    ExitCode::SUCCESS
}
