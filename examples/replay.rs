//! Record/replay: one trace file, two ways to replay it.
//!
//! **I/O-log replay** (PAPER.md §2.1): all nondeterministic inputs are
//! explicit device events at the root, so logging them suffices to
//! reproduce an entire parallel execution bit-for-bit by *re-running*
//! it — no internal event logging. The inputs are the trace's
//! `DevRead` events; `Trace::io_log` projects them out.
//!
//! **Syscall-trace replay** (DESIGN.md §7): attach a [`TraceSink`] and
//! the kernel records every syscall-level transition it feeds its pure
//! core; the collected [`Trace`] re-applies through `apply(state,
//! event)` **without running any program code at all** — no threads,
//! no VM, no devices — and reproduces the same exit status, virtual
//! clock, kernel stats, and per-space memory digests.
//!
//! ```sh
//! cargo run --release --example replay
//! ```

use determinator::kernel::{DeviceId, IoMode, Kernel, KernelConfig, Trace, TraceSink};
use determinator::runtime::proc::{ProgramRegistry, run_process_tree_on};

fn app(p: &mut determinator::runtime::Proc<'_>) -> determinator::runtime::Result<i32> {
    // A parallel app mixing console input, clock reads, and entropy.
    let mut line = [0u8; 64];
    let n = p.read(0, &mut line)?;
    let who = String::from_utf8_lossy(&line[..n]).trim().to_string();

    let clock = p.ctx().dev_read(DeviceId::Clock)?.unwrap_or_default();
    let seed = p.ctx().dev_read(DeviceId::Random)?.unwrap_or_default();
    let t = u64::from_le_bytes(clock.try_into().unwrap_or_default());
    let s = u64::from_le_bytes(seed.try_into().unwrap_or_default());

    let pid = p.fork(move |c| {
        c.charge(1_000_000)?;
        c.print(&format!(
            "child computed token {:x}\n",
            s.rotate_left(17) ^ 0xD15C
        ))?;
        Ok(0)
    })?;
    p.waitpid(pid)?;
    p.print(&format!("hello {who}, clock={t}, seed={s:x}\n"))?;
    Ok(0)
}

fn main() {
    // --- Run 1: record the syscall trace — the one file on disk. ------
    let sink = TraceSink::new();
    let kernel = Kernel::new(KernelConfig::builder().trace(sink.clone()).build());
    kernel.push_input(DeviceId::ConsoleIn, b"ada\n".to_vec());
    let rec = run_process_tree_on(kernel, ProgramRegistry::new(), app);
    assert_eq!(rec.exit, Ok(0));
    println!("--- recorded run ---");
    print!("{}", rec.console_string());
    let trace_json = sink.collect().expect("sink recorded the run").to_json();
    let trace = Trace::from_json(&trace_json).expect("trace parses");
    let log = trace.io_log();
    assert_eq!(log, rec.io_log, "the trace carries the run's input log");
    println!("({} input events captured)", log.events.len());

    // --- Run 2: re-execute from the trace's inputs (no pushed input!).
    let kernel = Kernel::new(KernelConfig::builder().io(IoMode::Replay(log)).build());
    let rep = run_process_tree_on(kernel, ProgramRegistry::new(), app);
    println!("--- replayed run (re-executed from I/O log) ---");
    print!("{}", rep.console_string());
    assert_eq!(rec.console(), rep.console(), "replay must be bit-identical");
    assert_eq!(rec.vclock_ns, rep.vclock_ns, "even virtual time matches");

    // --- Run 3: re-apply the syscall trace — no program code runs. ---
    println!(
        "--- replayed run (pure state machine, {} events, {} bytes of trace) ---",
        trace.len(),
        trace_json.len()
    );
    let pure = trace.replay().expect("trace replays");
    print!(
        "{}",
        String::from_utf8_lossy(
            pure.outputs
                .get(&DeviceId::ConsoleOut)
                .map(Vec::as_slice)
                .unwrap_or(&[])
        )
    );
    assert_eq!(pure.exit, rec.exit, "exit status replays");
    assert_eq!(pure.outputs, rec.outputs, "device outputs replay");
    assert_eq!(pure.vclock_ns, rec.vclock_ns, "virtual clock replays");
    assert_eq!(pure.spaces, rec.spaces, "per-space artifacts replay");
    // Host scheduling noise lives in `rec.host`, not in the stats —
    // so the comparison needs no carve-outs.
    assert_eq!(pure.stats, rec.stats, "kernel stats replay");

    println!(
        "\nreplay identical: {} syscall events re-applied with zero vehicles;",
        trace.len()
    );
    println!("output, stats, digests, and virtual clock all match exactly");
}
