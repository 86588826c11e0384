//! The process runtime's side of the two-clock contract, where plain
//! `cargo test` sees it (DESIGN.md §12).
//!
//! *Results*: a make tree's exit code, console bytes and final file
//! system are constants — recorded at commit 6b8e6fe, when every
//! fork/wait rendezvous still shipped the whole replica both ways.
//! Shipping only what changed may not move one of them.
//!
//! *Cost shape*: a child costs its parent what the child wrote, not
//! what the file system holds. Seven more one-file children over a
//! replica padded with unchanged files add less virtual time than one
//! pass over the padding; at 6b8e6fe they added almost thirteen (a stage
//! at each fork and a parse at each wait, 3 342 284 ns against 262 144).

use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

use determinator::kernel::{DeviceId, Kernel, KernelConfig, RunOutcome, TraceSink};
use determinator::memory::ContentDigest;
use determinator::runtime::{
    ExitStatus, Proc, ProgramRegistry, Result, run_process_tree, run_process_tree_on,
};

fn write_file(p: &mut Proc<'_>, path: &str, data: &[u8]) -> Result<()> {
    let fd = p.open_write(path)?;
    p.write(fd, data)?;
    p.close(fd)
}

fn wait_all(p: &mut Proc<'_>) -> Result<()> {
    while p.has_children() {
        let (_, status) = p.wait()?;
        assert_eq!(status, ExitStatus::Exited(0));
    }
    Ok(())
}

/// Digest of `(path, contents)` over every live file; a conflicted
/// file contributes the copy reconciliation kept.
fn fs_digest(p: &Proc<'_>) -> u64 {
    let mut d = ContentDigest::new();
    for path in p.fs().list("") {
        d.update(path.as_bytes());
        d.update(&p.fs().lookup(&path).expect("listed").data);
    }
    d.value()
}

/// Three make rounds: a nested grandchild, a two-sibling conflict next
/// to a console-input rendezvous, then rewrites, a deletion and a log
/// shared by append. Every child also writes to the console.
fn make_tree(p: &mut Proc<'_>) -> Result<i32> {
    // Round 0: three compilers; the middle one forks a generator first
    // and compiles what it generated.
    for i in 0..3u8 {
        p.fork(move |c| {
            let mut object = vec![i; 3000 + 1000 * i as usize];
            if i == 1 {
                let generator = c.fork(|g| {
                    write_file(g, "obj/r0/gen.h", b"#define ANSWER 42\n")?;
                    g.print("gen gen.h\n")?;
                    Ok(0)
                })?;
                assert_eq!(c.waitpid(generator)?, ExitStatus::Exited(0));
                object.extend_from_slice(&c.fs().read("obj/r0/gen.h")?);
            }
            write_file(c, &format!("obj/r0/c{i}.o"), &object)?;
            c.print(&format!("cc r0/c{i}\n"))?;
            Ok(0)
        })?;
    }
    wait_all(p)?;
    p.print("round 0 done\n")?;

    // Round 1: two siblings race on one output (a conflict, §4.2)
    // while a third blocks on console input the root must fetch.
    for name in ["ld-a", "ld-b"] {
        p.fork(move |c| {
            write_file(c, "obj/shared.o", name.as_bytes())?;
            c.print(&format!("{name} shared.o\n"))?;
            Ok(0)
        })?;
    }
    p.fork(|c| {
        let mut line = [0u8; 64];
        let n = c.read(0, &mut line)?;
        write_file(c, "obj/r1/cmdline", &line[..n])?;
        c.print("read cmdline\n")?;
        Ok(0)
    })?;
    wait_all(p)?;
    p.print("round 1 done\n")?;

    // Round 2: recompile one object, delete another, and append to a
    // build log from two children in turn.
    write_file(p, "build.log", b"log:\n")?;
    p.fork(|c| {
        write_file(c, "obj/r0/c0.o", &[0xc0; 5000])?;
        c.print("cc r0/c0 again\n")?;
        Ok(0)
    })?;
    p.fork(|c| {
        c.fs_mut().unlink("obj/r0/c2.o")?;
        c.print("rm r0/c2\n")?;
        Ok(0)
    })?;
    wait_all(p)?;
    for who in ["first", "second"] {
        p.fork(move |c| {
            let fd = c.open("build.log", false, true, false, false, true)?;
            c.write(fd, format!("{who} was here\n").as_bytes())?;
            c.close(fd)?;
            Ok(0)
        })?;
        wait_all(p)?;
    }
    p.print("round 2 done\n")?;

    let live = p.fs().list("");
    let conflicted = live.iter().filter(|f| p.fs().is_conflicted(f)).count();
    Ok((conflicted * 100 + live.len()) as i32)
}

fn run_make_tree(config: KernelConfig) -> (RunOutcome, u64) {
    let kernel = Kernel::new(config);
    kernel.push_input(DeviceId::ConsoleIn, b"make -j3 all\n".to_vec());
    let digest = Arc::new(AtomicU64::new(0));
    let root_digest = Arc::clone(&digest);
    let out = run_process_tree_on(kernel, ProgramRegistry::new(), move |p| {
        let code = make_tree(p)?;
        root_digest.store(fs_digest(p), Ordering::Relaxed);
        Ok(code)
    });
    (out, digest.load(Ordering::Relaxed))
}

#[test]
fn make_tree_results_are_what_they_were_at_6b8e6fe() {
    let (out, digest) = run_make_tree(KernelConfig::default());
    assert_eq!(out.exit, Ok(EXIT));
    assert_eq!(out.console_string(), CONSOLE);
    assert_eq!(digest, FS_DIGEST);
    // And it repeats, clock included.
    let (again, digest_again) = run_make_tree(KernelConfig::default());
    assert_eq!(again.console(), out.console());
    assert_eq!(digest_again, digest);
    assert_eq!(again.vclock_ns, out.vclock_ns);
}

/// *Vehicles*: every fork starts one — that is a decision, so it
/// replays — while the OS threads behind them are the pool's business:
/// rounds are joined before the next begins, so the tree never needs
/// more threads than its widest moment has processes running.
#[test]
fn make_tree_starts_a_vehicle_per_fork_on_a_round_of_threads() {
    let sink = TraceSink::new();
    let (out, _) = run_make_tree(KernelConfig::builder().trace(sink.clone()).build());
    assert_eq!(out.exit, Ok(EXIT));
    assert_eq!(out.stats.threads_spawned, FORKS);
    let replayed = sink.collect().expect("recorded").replay().expect("replays");
    assert_eq!(replayed.stats.threads_spawned, FORKS);
    let created = out.host.os_threads_created;
    assert!(
        (1..=WIDEST_ROUND + 1).contains(&created),
        "{created} OS threads for rounds at most {WIDEST_ROUND} wide"
    );
}

/// Round 0 forks three compilers and a generator, round 1 three
/// linkers, round 2 two editors and then two appenders in turn.
const FORKS: u64 = 4 + 3 + 2 + 2;
/// Round 0's three compilers — plus one for the generator nested in it.
const WIDEST_ROUND: u64 = 3;

/// One conflicted file (`obj/shared.o`) among eight live ones.
const EXIT: i32 = 108;
const CONSOLE: &str = "cc r0/c0\ngen gen.h\ncc r0/c1\ncc r0/c2\nround 0 done\n\
    ld-a shared.o\nld-b shared.o\nread cmdline\nround 1 done\n\
    cc r0/c0 again\nrm r0/c2\nround 2 done\n";
const FS_DIGEST: u64 = 0x7b57_071c_d7ba_3efa;

const PAD_FILES: usize = 64;
const PAD_FILE_LEN: usize = 16 << 10;

/// Virtual time of: pad the replica, fork `children` one-file
/// children in a burst, wait for them all.
fn fork_wait_vclock(children: usize) -> u64 {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), move |p| {
        for f in 0..PAD_FILES {
            write_file(p, &format!("pad/{f}"), &vec![f as u8; PAD_FILE_LEN])?;
        }
        for i in 0..children {
            p.fork(move |c| write_file(c, &format!("out/{i}"), b"one small file").map(|()| 0))?;
        }
        wait_all(p)?;
        Ok(p.fs().list("out/").len() as i32)
    });
    assert_eq!(out.exit, Ok(children as i32));
    out.vclock_ns
}

#[test]
fn a_child_costs_what_it_wrote_not_what_the_file_system_holds() {
    let one_pass_ns = (PAD_FILES * PAD_FILE_LEN / 4) as u64;
    let (one, eight) = (fork_wait_vclock(1), fork_wait_vclock(8));
    let seven_more = eight - one;
    assert!(
        seven_more < one_pass_ns,
        "seven more children cost {seven_more} ns of virtual time; \
         one serialisation of the unchanged padding is {one_pass_ns} ns"
    );
}
