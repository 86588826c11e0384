//! `proc_fs` — the §4 Unix emulation: make-style rounds of `fork` →
//! `open_write`/`write`/`close` → deterministic `wait`, then one shell
//! pipeline. Fork/wait and file-system replica reconciliation are the
//! only heavy layer, so this is the row that moves for rendezvous
//! fan-out or fs-reconcile work and stays flat for VM or codec work.

use std::sync::Arc;

use determinator::kernel::KernelConfig;
use determinator::memory::ContentDigest;
use determinator::runtime::{Proc, ProgramRegistry, Result as RtResult, run_process_tree, shell};

use super::{Part, Workload, part};
use crate::seed::Rng;
use crate::span;

/// One make-style job shape: `procs` children, each writing `files`
/// files of `len` bytes.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub procs: usize,
    pub files: usize,
    pub len: usize,
}

#[derive(Clone, Debug)]
pub struct Inputs {
    pub rounds: usize,
    pub shapes: [Shape; 2],
    /// File contents are slices of this.
    pub bytes: Arc<Vec<u8>>,
}

pub fn inputs(mut rng: Rng) -> Inputs {
    // Just under 16 KiB and 1 KiB: a file that straddles a page
    // boundary on some seeds only would make two workloads of one.
    let big = rng.jitter(16_000, 3) as usize;
    let small = rng.jitter(1_000, 3) as usize;
    Inputs {
        rounds: 20,
        shapes: [
            Shape {
                procs: 4,
                files: 4,
                len: big,
            },
            Shape {
                procs: 8,
                files: 8,
                len: small,
            },
        ],
        bytes: Arc::new(rng.fill(2 * big)),
    }
}

const SCRIPT: &str = "
echo deterministic make finished > log.txt
ls obj0 | wc >> log.txt
cat log.txt | upper
";

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    reg.register("upper", |p, _args| {
        let data = p.read_to_end(0)?;
        p.write(1, &data.to_ascii_uppercase())?;
        Ok(0)
    });
    reg
}

/// One child of a round: writes its files, every one a different slice
/// of the seeded bytes so no two files are equal.
fn compile(p: &mut Proc<'_>, parent: u64, i: &Inputs, shape: usize, proc: usize) -> RtResult<i32> {
    let s = i.shapes[shape];
    for f in 0..s.files {
        let _w = span::enter_under(parent, "runtime", "fs_write");
        let at = (proc * s.files + f) * 37 % (i.bytes.len() - s.len);
        let fd = p.open_write(&format!("obj{shape}/p{proc}/f{f}.o"))?;
        p.write(fd, &i.bytes[at..at + s.len])?;
        p.close(fd)?;
    }
    Ok(0)
}

fn make(p: &mut Proc<'_>, i: &Arc<Inputs>) -> RtResult<i32> {
    for _ in 0..i.rounds {
        for (shape, s) in i.shapes.iter().enumerate() {
            for proc in 0..s.procs {
                let _f = span::enter("runtime", "fork");
                let parent = span::current();
                let i = Arc::clone(i);
                p.fork(move |c| compile(c, parent, &i, shape, proc))?;
            }
            while p.has_children() {
                let _w = span::enter("runtime", "wait");
                p.wait()?;
            }
        }
    }
    {
        let _s = span::enter("runtime", "shell_script");
        shell::run_script(p, SCRIPT)?;
    }
    let mut files = ContentDigest::new();
    for path in p.fs().list("") {
        files.update(path.as_bytes());
        files.update(&p.fs().read(&path)?);
    }
    Ok((files.value() & 0x7fff_ffff) as i32)
}

pub struct ProcFs {
    inputs: Arc<Inputs>,
}

impl ProcFs {
    pub fn build(rng: Rng) -> ProcFs {
        ProcFs {
            inputs: Arc::new(inputs(rng)),
        }
    }
}

impl Workload for ProcFs {
    fn iterate(&mut self) -> Vec<Part> {
        vec![part("runtime", "make", || {
            let i = Arc::clone(&self.inputs);
            let out = run_process_tree(KernelConfig::default(), registry(), move |p| make(p, &i));
            let i = &self.inputs;
            let written: usize = i.shapes.iter().map(|s| s.procs * s.files * s.len).sum();
            Ok(Part {
                counts: vec![("fs_bytes", (written * i.rounds) as u64)],
                ..Part::of_outcome(out)?
            })
        })]
    }
}
