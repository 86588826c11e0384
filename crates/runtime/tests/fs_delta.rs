//! Delta ≡ full, differentially (DESIGN.md §12). The oracle is the
//! in-memory `reconcile` of the child's whole replica — no codec
//! anywhere in it; the subject is what the process runtime does,
//! `reconcile(decode(delta bytes))`. Over random process trees the two
//! must leave equal parents and equal stats, and the staged fork bytes
//! must decode to exactly `fork_image()`.

use det_kernel::KernelConfig;
use det_runtime::fs::{CONSOLE_OUT, FileSys, ImageForm};
use det_runtime::proc::{ExitStatus, ProgramRegistry, run_process_tree};
use proptest::prelude::*;

/// Regular files and logs, few enough that processes collide.
const PATHS: [(&str, bool); 6] = [
    ("a", false),
    ("b", false),
    ("dir/c", false),
    ("poisoned", false),
    ("log", true),
    (CONSOLE_OUT, true),
];

#[derive(Clone, Debug)]
enum Op {
    Create,
    WriteAt(u8),
    Append,
    Unlink,
}

/// One step: `actor` 0 is the parent, 1–3 its children, 4 the first
/// child's own child. Errors (missing, conflicted, not-at-end writes
/// to a log) are part of the space being explored.
#[derive(Clone, Debug)]
struct Step {
    actor: usize,
    path: usize,
    op: Op,
    data: Vec<u8>,
}

fn apply(fs: &mut FileSys, step: &Step) {
    let (path, append_only) = PATHS[step.path];
    let _ = match step.op {
        Op::Create => fs.create(path, append_only),
        Op::WriteAt(offset) => fs.write_at(path, offset as u64 % 12, &step.data),
        Op::Append => fs.append(path, &step.data),
        Op::Unlink => fs.unlink(path),
    };
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let op = prop_oneof![
        Just(Op::Create),
        any::<u8>().prop_map(Op::WriteAt),
        Just(Op::Append),
        Just(Op::Append),
        Just(Op::Unlink),
    ];
    let data = proptest::collection::vec(any::<u8>(), 0..6);
    let step =
        (0usize..5, 0usize..PATHS.len(), op, data).prop_map(|(actor, path, op, data)| Step {
            actor,
            path,
            op,
            data,
        });
    proptest::collection::vec(step, 0..40)
}

fn decode(fs: &FileSys, form: ImageForm) -> FileSys {
    let mut bytes = Vec::new();
    fs.encode_into(form, &mut bytes);
    FileSys::from_image(bytes.into()).expect("an encoded replica decodes")
}

/// Forks `parent` the way the process runtime does — through staged
/// bytes — after checking they are the model's fork image.
fn fork(parent: &FileSys) -> FileSys {
    let child = decode(parent, ImageForm::Fork);
    assert_eq!(child, parent.fork_image());
    // What a child adopts is already staged for its own forks.
    let mut restaged = Vec::new();
    child.encode_into(ImageForm::Fork, &mut restaged);
    let mut staged = Vec::new();
    parent.encode_into(ImageForm::Fork, &mut staged);
    assert_eq!(restaged, staged);
    child
}

/// Reconciles `child` into `parent` both ways and checks they agree.
fn reconcile_both_ways(parent: &mut FileSys, child: &FileSys) {
    let mut by_delta = parent.clone();
    let oracle_stats = parent.reconcile(child);
    let delta_stats = by_delta.reconcile(&decode(child, ImageForm::Delta));
    assert_eq!(delta_stats, oracle_stats);
    assert_eq!(&by_delta, parent);
    assert_eq!(by_delta.stamp(), parent.stamp());
}

/// A parent that already holds a conflicted file and some history.
fn seasoned_parent() -> FileSys {
    let mut parent = FileSys::with_console();
    parent.create("poisoned", false).unwrap();
    parent.create("log", true).unwrap();
    parent.append("log", b"begin;").unwrap();
    let (mut one, mut two) = (parent.fork_image(), parent.fork_image());
    one.write_at("poisoned", 0, b"one").unwrap();
    two.write_at("poisoned", 0, b"two").unwrap();
    parent.reconcile(&one);
    assert_eq!(parent.reconcile(&two).conflicts, 1);
    parent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reconciling_a_delta_is_reconciling_the_replica(
        steps in steps(),
        children in 1usize..=3,
        fork_at in proptest::collection::vec(0usize..100, 4),
    ) {
        let mut parent = seasoned_parent();
        // procs[1..=3] are the children, procs[4] the grandchild.
        let mut procs: Vec<Option<FileSys>> = vec![None; 5];
        for (now, step) in steps.iter().enumerate() {
            for (who, at) in fork_at.iter().enumerate() {
                let who = who + 1;
                let absent = who < 4 && who > children;
                if absent || procs[who].is_some() || at * steps.len() / 100 != now {
                    continue;
                }
                procs[who] = match who {
                    4 => procs[1].as_ref().map(fork),
                    _ => Some(fork(&parent)),
                };
            }
            match step.actor {
                0 => apply(&mut parent, step),
                who => {
                    if let Some(fs) = &mut procs[who] {
                        apply(fs, step);
                    }
                }
            }
        }
        // The grandchild joins its parent first, as `wait` nests.
        if let (Some(grandchild), Some(child)) = (procs[4].take(), procs[1].as_mut()) {
            reconcile_both_ways(child, &grandchild);
        }
        let forked: Vec<&FileSys> = procs.iter().flatten().collect();
        let mut forward = parent.clone();
        for child in &forked {
            reconcile_both_ways(&mut forward, child);
        }
        let mut backward = parent;
        for child in forked.iter().rev() {
            reconcile_both_ways(&mut backward, child);
        }
    }
}

/// Staging is skipped only while the replica is unmutated: a file
/// created through `fs_mut()` between two forks — no `Proc` method
/// involved — reaches the second child and not the first.
#[test]
fn a_mutation_between_two_forks_reaches_the_second_child() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let sees_late = |c: &mut det_runtime::Proc<'_>| Ok(c.fs().lookup("late").is_some() as i32);
        let first = p.fork(sees_late)?;
        let burst = p.fork(sees_late)?;
        p.fs_mut().create("late", false)?;
        let second = p.fork(sees_late)?;
        assert_eq!(p.waitpid(first)?, ExitStatus::Exited(0));
        assert_eq!(p.waitpid(burst)?, ExitStatus::Exited(0));
        assert_eq!(p.waitpid(second)?, ExitStatus::Exited(1));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

/// A resumed child holds its parent's replica as of the resume, and
/// forks from it: what a sibling wrote before the rendezvous reaches
/// the grandchild, and the grandchild's own file comes all the way up.
#[test]
fn a_resumed_child_forks_from_the_replica_it_was_resumed_with() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let writer = p.fork(|c| {
            c.fs_mut().create("from-sibling", false)?;
            Ok(0)
        })?;
        let syncer = p.fork(|c| {
            assert!(c.fs().lookup("from-sibling").is_none());
            c.fs_mut().create("before-sync", false)?;
            c.fsync()?;
            let grandchild = c.fork(|g| {
                assert!(g.fs().lookup("from-sibling").is_some());
                assert!(g.fs().lookup("before-sync").is_some());
                g.fs_mut().create("from-grandchild", false)?;
                Ok(0)
            })?;
            assert_eq!(c.waitpid(grandchild)?, ExitStatus::Exited(0));
            Ok(0)
        })?;
        assert_eq!(p.waitpid(writer)?, ExitStatus::Exited(0));
        assert_eq!(p.waitpid(syncer)?, ExitStatus::Exited(0));
        for path in ["from-sibling", "before-sync", "from-grandchild"] {
            assert!(p.fs().lookup(path).is_some(), "{path} did not arrive");
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}
