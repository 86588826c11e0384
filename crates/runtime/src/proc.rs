//! Unix process emulation: `fork`/`exec`/`wait` and file descriptors
//! (§4.1), plus the I/O rendezvous protocol (§4.3).
//!
//! A *process* is a space whose program runs under a [`Proc`] wrapper
//! holding process-local runtime state: the file-system replica, the
//! descriptor table, and a **process-local PID namespace** — PIDs are
//! meaningless outside the process that issued them, eliminating the
//! shared-namespace nondeterminism of global PIDs (§2.4).
//!
//! `wait()` (wait for "any" child) deterministically collects the
//! *earliest-forked* uncollected child, not the first to finish —
//! the paper's deliberate trade-off that Figure 4 illustrates.
//!
//! File-system images cross a rendezvous through the image region at
//! [`layout::FS_IMAGE_BASE`], and each direction carries only what its
//! receiver lacks (DESIGN.md §12):
//!
//! * *parent → child*, at `fork` and at an I/O resume: the replica in
//!   [`ImageForm::Fork`], copied into the child copy-on-write. It is
//!   staged only if the replica was mutated since the last staging
//!   ([`FileSys::stamp`]), so a burst of forks serialises once; a
//!   process that has just loaded its inherited image holds a current
//!   staging already.
//! * *child → parent*, at exit and at an I/O request: an
//!   [`ImageForm::Delta`] — the files the child changed, which are
//!   all that reconciliation reads.
//!
//! I/O protocol: a child needing console input appends nothing itself;
//! it publishes its delta, `Ret`s with [`IoRequest::NeedInput`], and
//! its parent — inside `wait`/`waitpid` — reconciles, feeds any new
//! input, and resumes it transparently.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use det_kernel::{
    CopySpec, GetSpec, Kernel, KernelConfig, Program, PutSpec, Region, RunOutcome, SpaceCtx,
    StopReason, TrapKind,
};

use crate::error::{Result, RtError};
use crate::fs::{CONSOLE_IN, CONSOLE_OUT, FileSys, ImageForm};
use crate::layout;

/// Process identifier, local to the issuing process (§2.4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u32);

/// Exit status of a collected child.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ExitStatus {
    /// Clean exit with a code.
    Exited(i32),
    /// Terminated by a trap.
    Trapped(TrapKind),
}

/// Why a child process returned control without exiting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoRequest {
    /// Needs console input.
    NeedInput,
    /// Requests an immediate output flush (`fsync`).
    Flush,
}

const RET_EXIT_BASE: u64 = 0x100;
const RET_NEED_INPUT: u64 = 1;
const RET_FLUSH: u64 = 2;

/// A program executable by a process: named in the [`ProgramRegistry`]
/// and invocable via [`Proc::exec`] or the shell.
pub type ProcProgram = Arc<dyn Fn(&mut Proc<'_>, &[String]) -> Result<i32> + Send + Sync>;

/// The "binary store": a name → program map playing the role of
/// executable files. (The paper loads ELF images from the file system;
/// our native programs are host closures, so the registry is the
/// analogous host-side store. VM-code binaries could live in the file
/// system directly.)
#[derive(Clone, Default)]
pub struct ProgramRegistry {
    programs: BTreeMap<String, ProcProgram>,
}

impl ProgramRegistry {
    /// Returns an empty registry.
    pub fn new() -> ProgramRegistry {
        ProgramRegistry::default()
    }

    /// Registers a program under `name`.
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut Proc<'_>, &[String]) -> Result<i32> + Send + Sync + 'static,
    {
        self.programs.insert(name.to_string(), Arc::new(f));
    }

    /// Looks a program up.
    pub fn get(&self, name: &str) -> Option<ProcProgram> {
        self.programs.get(name).cloned()
    }

    /// Registered program names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.programs.keys().cloned().collect();
        v.sort();
        v
    }
}

/// An open-file description.
#[derive(Clone, Debug)]
struct OpenFile {
    path: String,
    pos: u64,
    readable: bool,
    writable: bool,
    append: bool,
}

/// Records of a forked, not-yet-collected child.
struct ChildRec {
    pid: Pid,
    child_num: u64,
    collected: bool,
}

/// A process: the user-level view of a space running under the
/// process runtime.
pub struct Proc<'a> {
    ctx: &'a mut SpaceCtx,
    fs: FileSys,
    fds: Vec<Option<OpenFile>>,
    registry: Arc<ProgramRegistry>,
    children: Vec<ChildRec>,
    pids: BTreeMap<Pid, usize>,
    next_pid: u32,
    free_child_nums: VecDeque<u64>,
    next_child_num: u64,
    /// Console-out bytes already pushed to the kernel device (root) or
    /// already visible at fork time (non-root).
    console_flushed: u64,
    /// [`FileSys::stamp`] of `fs` when the image region last held its
    /// fork image; `None` once the region holds anything else.
    staged: Option<(usize, u64)>,
}

impl<'a> Proc<'a> {
    fn new(ctx: &'a mut SpaceCtx, fs: FileSys, registry: Arc<ProgramRegistry>) -> Proc<'a> {
        let mut p = Proc {
            ctx,
            fs,
            fds: Vec::new(),
            registry,
            children: Vec::new(),
            pids: BTreeMap::new(),
            next_pid: 2,
            free_child_nums: VecDeque::new(),
            next_child_num: 0,
            console_flushed: 0,
            staged: None,
        };
        // Descriptors 0/1 are the console, as in Unix.
        p.fds.push(Some(OpenFile {
            path: CONSOLE_IN.into(),
            pos: 0,
            readable: true,
            writable: false,
            append: false,
        }));
        p.fds.push(Some(OpenFile {
            path: CONSOLE_OUT.into(),
            pos: 0,
            readable: false,
            writable: true,
            append: true,
        }));
        p
    }

    /// The underlying kernel context (for charges and advanced use).
    pub fn ctx(&mut self) -> &mut SpaceCtx {
        self.ctx
    }

    /// Declares compute work on the virtual clock.
    pub fn charge(&mut self, ns: u64) -> Result<()> {
        self.ctx.charge(ns).map_err(RtError::from)
    }

    /// Direct access to this process's file-system replica.
    pub fn fs(&self) -> &FileSys {
        &self.fs
    }

    /// Mutable access to the replica (for tools and tests).
    pub fn fs_mut(&mut self) -> &mut FileSys {
        &mut self.fs
    }

    // ------------------------------------------------------------------
    // File API
    // ------------------------------------------------------------------

    /// Opens `path`. `create` makes the file if missing; `trunc`
    /// empties it; `append` positions writes at the end.
    pub fn open(
        &mut self,
        path: &str,
        readable: bool,
        writable: bool,
        create: bool,
        trunc: bool,
        append: bool,
    ) -> Result<usize> {
        if self.fs.is_conflicted(path) {
            return Err(RtError::Conflicted(path.into()));
        }
        match self.fs.lookup(path) {
            Some(_) if trunc && writable => self.fs.create(path, false)?,
            Some(_) => {}
            None if create => self.fs.create(path, false)?,
            None => return Err(RtError::NotFound(path.into())),
        }
        let pos = if append {
            self.fs.read(path)?.len() as u64
        } else {
            0
        };
        let of = OpenFile {
            path: path.to_string(),
            pos,
            readable,
            writable,
            append,
        };
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(of);
                return Ok(i);
            }
        }
        self.fds.push(Some(of));
        Ok(self.fds.len() - 1)
    }

    /// Opens for reading.
    pub fn open_read(&mut self, path: &str) -> Result<usize> {
        self.open(path, true, false, false, false, false)
    }

    /// Creates/truncates for writing.
    pub fn open_write(&mut self, path: &str) -> Result<usize> {
        self.open(path, false, true, true, true, false)
    }

    /// Duplicates descriptor `src` onto `dst` (closing what `dst`
    /// held), Unix `dup2` style — how the shell wires redirections.
    pub fn dup2(&mut self, src: usize, dst: usize) -> Result<()> {
        let of = self
            .fds
            .get(src)
            .and_then(|o| o.as_ref())
            .ok_or(RtError::BadFd(src))?
            .clone();
        while self.fds.len() <= dst {
            self.fds.push(None);
        }
        self.fds[dst] = Some(of);
        Ok(())
    }

    /// Closes a descriptor.
    pub fn close(&mut self, fd: usize) -> Result<()> {
        let slot = self.fds.get_mut(fd).ok_or(RtError::BadFd(fd))?;
        if slot.take().is_none() {
            return Err(RtError::BadFd(fd));
        }
        Ok(())
    }

    /// Reads up to `buf.len()` bytes; 0 means end-of-file (regular
    /// files) — on the console it means "wait for input", which blocks
    /// through the parent I/O rendezvous.
    pub fn read(&mut self, fd: usize, buf: &mut [u8]) -> Result<usize> {
        loop {
            let of = self
                .fds
                .get(fd)
                .and_then(|o| o.as_ref())
                .ok_or(RtError::BadFd(fd))?
                .clone();
            if !of.readable {
                return Err(RtError::BadMode("fd not readable"));
            }
            let data = self.fs.read(&of.path)?;
            let avail = data.len() as u64 - of.pos.min(data.len() as u64);
            if avail > 0 {
                let n = (buf.len() as u64).min(avail) as usize;
                let start = of.pos as usize;
                buf[..n].copy_from_slice(&data[start..start + n]);
                self.fds[fd].as_mut().expect("checked").pos += n as u64;
                self.charge_io(n as u64)?;
                return Ok(n);
            }
            if of.path != CONSOLE_IN {
                return Ok(0); // Regular EOF.
            }
            // Console with no data: rendezvous with the parent for
            // more input (§4.3). The root asks the kernel device.
            if self.ctx.is_root() {
                match self.ctx.dev_read(det_kernel::DeviceId::ConsoleIn)? {
                    Some(bytes) => {
                        self.fs.append(CONSOLE_IN, &bytes)?;
                        continue;
                    }
                    None => return Ok(0), // No more input exists.
                }
            }
            self.sync_with_parent(RET_NEED_INPUT)?;
        }
    }

    /// Reads the whole remaining contents of `fd`.
    pub fn read_to_end(&mut self, fd: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            let n = self.read(fd, &mut chunk)?;
            if n == 0 {
                return Ok(out);
            }
            out.extend_from_slice(&chunk[..n]);
        }
    }

    /// Writes `data` at the descriptor's position.
    pub fn write(&mut self, fd: usize, data: &[u8]) -> Result<usize> {
        let of = self
            .fds
            .get(fd)
            .and_then(|o| o.as_ref())
            .ok_or(RtError::BadFd(fd))?
            .clone();
        if !of.writable {
            return Err(RtError::BadMode("fd not writable"));
        }
        if of.append {
            self.fs.append(&of.path, data)?;
            let len = self.fs.read(&of.path)?.len() as u64;
            self.fds[fd].as_mut().expect("checked").pos = len;
        } else {
            self.fs.write_at(&of.path, of.pos, data)?;
            self.fds[fd].as_mut().expect("checked").pos += data.len() as u64;
        }
        self.charge_io(data.len() as u64)?;
        if of.path == CONSOLE_OUT && self.ctx.is_root() {
            self.flush_console()?;
        }
        Ok(data.len())
    }

    /// Convenience: write a string to stdout (fd 1).
    pub fn print(&mut self, s: &str) -> Result<()> {
        self.write(1, s.as_bytes()).map(|_| ())
    }

    /// Repositions a descriptor.
    pub fn seek(&mut self, fd: usize, pos: u64) -> Result<()> {
        let of = self
            .fds
            .get_mut(fd)
            .and_then(|o| o.as_mut())
            .ok_or(RtError::BadFd(fd))?;
        if of.append {
            return Err(RtError::BadMode("cannot seek append-only fd"));
        }
        of.pos = pos;
        Ok(())
    }

    /// Flushes pending output toward the kernel console: the root
    /// pushes directly; children rendezvous with their parent (§4.3).
    pub fn fsync(&mut self) -> Result<()> {
        if self.ctx.is_root() {
            self.flush_console()
        } else {
            self.sync_with_parent(RET_FLUSH)
        }
    }

    fn charge_io(&mut self, bytes: u64) -> Result<()> {
        // Byte-proportional I/O work keeps file-heavy workloads honest
        // in virtual time (~1 ns per 2 bytes, memcpy-like).
        self.ctx.charge(bytes / 2 + 1).map_err(RtError::from)
    }

    /// Root only: push unflushed console-out bytes to the device.
    fn flush_console(&mut self) -> Result<()> {
        let data = self.fs.read(CONSOLE_OUT)?;
        if (data.len() as u64) > self.console_flushed {
            let new = &data[self.console_flushed as usize..];
            self.ctx.dev_write(det_kernel::DeviceId::ConsoleOut, new)?;
            self.console_flushed = data.len() as u64;
        }
        Ok(())
    }

    /// Publishes what this process changed, `Ret`s with `code`, and
    /// adopts the replica the parent resumes it with.
    fn sync_with_parent(&mut self, code: u64) -> Result<()> {
        self.publish_delta()?;
        self.ctx.ret(code)?;
        self.adopt_inherited_image()
    }

    /// Overwrites the image region with this replica's changes since
    /// fork (or since the last resume), for the parent to reconcile.
    fn publish_delta(&mut self) -> Result<()> {
        self.staged = None;
        store_fs_image(self.ctx, &self.fs, ImageForm::Delta)
    }

    /// Loads the replica a parent's `put` left in the image region.
    /// Those bytes are this replica's own fork image — every file in
    /// it is at its base — so they are already staged for a fork of
    /// ours.
    fn adopt_inherited_image(&mut self) -> Result<()> {
        self.fs = load_fs_image(self.ctx, layout::FS_IMAGE_BASE)?;
        self.staged = Some(self.fs.stamp());
        Ok(())
    }

    /// Makes the image region hold this replica's fork image, at no
    /// cost if it still does.
    fn stage_fork_image(&mut self) -> Result<()> {
        let stamp = self.fs.stamp();
        if self.staged != Some(stamp) {
            store_fs_image(self.ctx, &self.fs, ImageForm::Fork)?;
            self.staged = Some(stamp);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Forks a child process running `f`. Returns its (process-local)
    /// PID immediately; the child runs concurrently.
    pub fn fork<F>(&mut self, f: F) -> Result<Pid>
    where
        F: FnOnce(&mut Proc<'_>) -> Result<i32> + Send + 'static,
    {
        let child_num = self.free_child_nums.pop_front().unwrap_or_else(|| {
            let n = self.next_child_num;
            self.next_child_num += 1;
            n
        });
        let pid = Pid(self.next_pid);
        self.next_pid += 1;

        // Stage the child's inherited replica in our own image region
        // (unless it is there already), then virtually copy it into the
        // child (COW: no bytes move until modified). The mirror copy is
        // leaf-congruent (see layout.rs), so the kernel shares whole
        // page-table leaves — the fork costs O(leaves), not O(image
        // pages) (DESIGN.md §5).
        self.stage_fork_image()?;
        let registry = Arc::clone(&self.registry);
        self.ctx.put(
            child_num,
            PutSpec::new()
                .program(Program::native(move |c| {
                    let mut proc = Proc::new(c, FileSys::default(), registry);
                    proc.adopt_inherited_image().map_err(RtError::into_kernel)?;
                    proc.console_flushed = proc
                        .fs
                        .read(CONSOLE_OUT)
                        .map(|d| d.len() as u64)
                        .unwrap_or(0);
                    let code = f(&mut proc).map_err(RtError::into_kernel)?;
                    // Publish what changed for the parent's
                    // reconciliation, then halt.
                    proc.publish_delta().map_err(RtError::into_kernel)?;
                    Ok(code)
                }))
                .copy(CopySpec::mirror(layout::fs_image_region()))
                .start(),
        )?;
        self.children.push(ChildRec {
            pid,
            child_num,
            collected: false,
        });
        self.pids.insert(pid, self.children.len() - 1);
        Ok(pid)
    }

    /// Waits for a specific child, servicing its I/O requests
    /// transparently (§4.1, §4.3).
    pub fn waitpid(&mut self, pid: Pid) -> Result<ExitStatus> {
        let idx = *self.pids.get(&pid).ok_or(RtError::NoChild(pid.0))?;
        if self.children[idx].collected {
            return Err(RtError::NoChild(pid.0));
        }
        let child_num = self.children[idx].child_num;
        let collect = || {
            GetSpec::new().copy(CopySpec {
                src: layout::fs_image_region(),
                dst: layout::FS_SCRATCH_BASE,
            })
        };
        let mut r = self.ctx.get(child_num, collect())?;
        let status = loop {
            match r.stop {
                StopReason::Halted => {
                    self.reconcile_child_image()?;
                    break ExitStatus::Exited(r.code as i32);
                }
                StopReason::Trap(t) => {
                    // Trapped before publishing a final image; do not
                    // reconcile (state may be mid-operation).
                    break ExitStatus::Trapped(t);
                }
                StopReason::Ret => {
                    self.reconcile_child_image()?;
                    match r.code {
                        RET_NEED_INPUT => self.feed_child_input()?,
                        RET_FLUSH if self.ctx.is_root() => self.flush_console()?,
                        // Non-root flush: our own later sync propagates.
                        RET_FLUSH => {}
                        other if other >= RET_EXIT_BASE => {}
                        _ => {}
                    }
                    // Hand the child its updated replica, resume it,
                    // and collect its next stop — one fused PutGet
                    // rendezvous per I/O round trip (§4.3).
                    self.stage_fork_image()?;
                    r = self.ctx.put_get(
                        child_num,
                        PutSpec::new()
                            .copy(CopySpec::mirror(layout::fs_image_region()))
                            .start(),
                        collect(),
                    )?;
                }
                StopReason::LimitReached => {
                    r = self
                        .ctx
                        .put_get(child_num, PutSpec::new().start(), collect())?;
                }
                StopReason::Unstarted => return Err(RtError::Invalid("child never started")),
            }
        };
        self.children[idx].collected = true;
        self.free_child_nums.push_back(child_num);
        Ok(status)
    }

    /// Waits for "any" child: deterministically the earliest-forked
    /// uncollected one (§4.1 — the Figure 4 semantics).
    pub fn wait(&mut self) -> Result<(Pid, ExitStatus)> {
        let pid = self
            .children
            .iter()
            .find(|c| !c.collected)
            .map(|c| c.pid)
            .ok_or(RtError::Invalid("no children to wait for"))?;
        let status = self.waitpid(pid)?;
        Ok((pid, status))
    }

    /// True if any child remains uncollected.
    pub fn has_children(&self) -> bool {
        self.children.iter().any(|c| !c.collected)
    }

    /// Replaces this process's program image: looks `name` up in the
    /// registry and runs it in place, Unix `exec` style (the PID
    /// namespace, descriptors, and file system carry over, §4.1).
    /// Callers should `return proc.exec(...)` — nothing after it runs
    /// in a real exec.
    pub fn exec(&mut self, name: &str, args: &[String]) -> Result<i32> {
        let prog = self
            .registry
            .get(name)
            .ok_or_else(|| RtError::NoSuchProgram(name.into()))?;
        // Model the exec trampoline's memory replacement cost: the new
        // image replaces the old one page-for-page.
        self.ctx.charge(50_000)?;
        prog(self, args)
    }

    fn reconcile_child_image(&mut self) -> Result<()> {
        let child_fs = load_fs_image(self.ctx, layout::FS_SCRATCH_BASE)?;
        self.fs.reconcile(&child_fs);
        if self.ctx.is_root() {
            self.flush_console()?;
        }
        Ok(())
    }

    /// Appends fresh console input (if the root) into the child-visible
    /// replica before resuming an input-starved child.
    fn feed_child_input(&mut self) -> Result<()> {
        if self.ctx.is_root() {
            if let Some(bytes) = self.ctx.dev_read(det_kernel::DeviceId::ConsoleIn)? {
                self.fs.append(CONSOLE_IN, &bytes)?;
            }
        }
        // Non-root parents rely on input already reconciled from their
        // own parents; a full implementation would forward the request
        // upward (§4.3). Our tree-structured tests pre-stage input.
        Ok(())
    }
}

/// Writes `fs` in `form` to the image region, behind its length.
fn store_fs_image(ctx: &mut SpaceCtx, fs: &FileSys, form: ImageForm) -> Result<()> {
    // Header and payload are built as the one buffer they are written
    // as: one range validation, one page-table walk, one generation
    // bump per staging.
    let mut image = vec![0u8; 8];
    fs.encode_into(form, &mut image);
    let total = image.len() as u64;
    if total > layout::FS_IMAGE_SIZE {
        return Err(RtError::FsImageOverflow {
            need: total,
            cap: layout::FS_IMAGE_SIZE,
        });
    }
    let payload_len = total - 8;
    image[..8].copy_from_slice(&payload_len.to_le_bytes());
    // Map only the pages the image needs, and keep pages that are
    // already mapped: re-staging would otherwise discard their frames
    // and grow the space's dirty write-set by the whole image region
    // each time (and, since the VM fast path arrived, spuriously
    // invalidate the space's cached translations —
    // `map_zero_if_unmapped` over an already-mapped range is a
    // generation no-op). The write overlays the new image; stale bytes
    // past `total` are unreachable (loads read only the
    // length-prefixed payload) and a deterministic function of prior
    // images.
    let base = layout::FS_IMAGE_BASE;
    let end_page = (base + total + 0xfff) & !0xfff;
    ctx.mem_mut()
        .map_zero_if_unmapped(Region::new(base, end_page), det_memory::Perm::RW)?;
    ctx.mem_mut().write(base, &image)?;
    // Serializing the image costs memcpy-like work.
    ctx.charge(payload_len / 4)?;
    Ok(())
}

/// Reads the length-prefixed image at `base` out of paged memory once;
/// the replica's files are views into that one buffer.
fn load_fs_image(ctx: &mut SpaceCtx, base: u64) -> Result<FileSys> {
    let len = ctx.mem().read_u64(base)?;
    if len > layout::FS_IMAGE_SIZE - 8 {
        return Err(RtError::FsImageCorrupt("image length out of range"));
    }
    let bytes = ctx.mem().read_vec(base + 8, len as usize)?;
    ctx.charge(len / 4)?;
    FileSys::from_image(bytes.into())
}

/// Runs a root process under a fresh kernel: the entry point of the
/// process runtime.
///
/// # Examples
///
/// ```
/// use det_runtime::proc::{run_process_tree, ProgramRegistry};
///
/// let out = run_process_tree(
///     det_kernel::KernelConfig::default(),
///     ProgramRegistry::new(),
///     |p| {
///         p.print("hello\n")?;
///         Ok(0)
///     },
/// );
/// assert_eq!(out.exit, Ok(0));
/// assert_eq!(out.console(), b"hello\n");
/// ```
pub fn run_process_tree<F>(config: KernelConfig, registry: ProgramRegistry, root: F) -> RunOutcome
where
    F: FnOnce(&mut Proc<'_>) -> Result<i32> + Send + 'static,
{
    let kernel = Kernel::new(config);
    run_process_tree_on(kernel, registry, root)
}

/// Like [`run_process_tree`] but on a caller-built kernel (e.g., with
/// pushed console input or replay mode).
pub fn run_process_tree_on<F>(kernel: Kernel, registry: ProgramRegistry, root: F) -> RunOutcome
where
    F: FnOnce(&mut Proc<'_>) -> Result<i32> + Send + 'static,
{
    let registry = Arc::new(registry);
    kernel.run(move |ctx| {
        let fs = FileSys::with_console();
        let mut proc = Proc::new(ctx, fs, registry);
        let code = root(&mut proc).map_err(RtError::into_kernel)?;
        proc.flush_console().map_err(RtError::into_kernel)?;
        Ok(code)
    })
}
