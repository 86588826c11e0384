//! The logically shared, physically replicated file system (§4.2–4.3).
//!
//! Every process holds a complete replica of the file system and works
//! on it privately, so replicas may diverge. When a parent collects a
//! child (`wait` or an I/O rendezvous) it *reconciles* the child's
//! replica into its own with file versioning [Parker et al. 1983]:
//!
//! * a file changed on one side propagates to the other;
//! * regular files changed on both sides **conflict** — one copy is
//!   kept, the file is poisoned, and later `open`s fail (§4.2);
//! * *append-only* files (console, logs) merge by exchanging the
//!   suffixes each side appended, so concurrent logging never
//!   conflicts and every replica accumulates all writes (§4.3).
//!
//! Reconciliation looks only at files the child changed since its fork
//! (`version != base_version`), and that is what makes the images that
//! cross a rendezvous cheap (DESIGN.md §12). One record format, one
//! encoder body and one decoder serve three [`ImageForm`]s: *fork* (every file, re-based to its
//! current version — what a child inherits, and byte for byte what
//! [`FileSys::fork_image`] models), *delta* (only the changed files —
//! what a child hands back; reconciling it is reconciling the whole
//! replica, by the skip above) and *full* (every file as it stands).
//!
//! File data uses [`bytes::Bytes`]: replicas share contents
//! copy-on-write exactly as the kernel shares pages, and a decoded
//! replica's files are views into the one image buffer they were read
//! from ([`FileSys::from_image`]).

use std::collections::BTreeMap;
use std::ops::Range;

use bytes::Bytes;

use crate::error::{Result, RtError};

/// The console input special file (append-only).
pub const CONSOLE_IN: &str = ".dev/console-in";
/// The console output special file (append-only).
pub const CONSOLE_OUT: &str = ".dev/console-out";

/// One file in a replica.
#[derive(Clone, Debug, PartialEq)]
pub struct File {
    /// Contents.
    pub data: Bytes,
    /// Version counter, bumped on every mutation in this replica.
    pub version: u64,
    /// The version this replica inherited at fork (used by the
    /// parent's reconciliation to detect "changed since fork").
    pub base_version: u64,
    /// Data length at fork (append-only merge needs to know which
    /// suffix is new).
    pub base_len: u64,
    /// Append-only files reconcile by suffix exchange.
    pub append_only: bool,
    /// Set when an unsynchronized concurrent write was detected;
    /// `open` then fails until the file is removed.
    pub conflict: bool,
    /// Tombstone: the file was deleted in this replica.
    pub deleted: bool,
}

impl File {
    fn new(append_only: bool) -> File {
        File {
            data: Bytes::new(),
            version: 1,
            base_version: 0,
            base_len: 0,
            append_only,
            conflict: false,
            deleted: false,
        }
    }

    /// True if this replica modified the file since fork.
    fn changed(&self) -> bool {
        self.version != self.base_version
    }

    /// Records a mutation. Versions are only ever compared for
    /// equality, so one taken over from a hostile image may wrap.
    fn bump(&mut self) {
        self.version = self.version.wrapping_add(1);
    }
}

/// A file-system replica.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FileSys {
    files: BTreeMap<String, File>,
}

/// Which files an encoded image carries, and with what fork base.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ImageForm {
    /// Every file as this replica holds it.
    Full,
    /// Every file, its base snapshot to its current state: what a
    /// forked or resumed child inherits. Decodes to
    /// [`FileSys::fork_image`].
    Fork,
    /// Only the files changed since fork, as this replica holds them:
    /// what a child hands its parent for [`FileSys::reconcile`].
    Delta,
}

/// Summary of one reconciliation pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconcileStats {
    /// Files taken from the child.
    pub taken_from_child: u64,
    /// Append-only files whose suffixes were exchanged.
    pub appended: u64,
    /// New conflicts flagged.
    pub conflicts: u64,
}

impl FileSys {
    /// Returns an empty file system with the console special files.
    pub fn with_console() -> FileSys {
        let mut fs = FileSys::default();
        fs.files.insert(CONSOLE_IN.into(), File::new(true));
        fs.files.insert(CONSOLE_OUT.into(), File::new(true));
        fs
    }

    /// Looks a file up (tombstones and missing both yield `None`).
    pub fn lookup(&self, path: &str) -> Option<&File> {
        self.files.get(path).filter(|f| !f.deleted)
    }

    /// Creates or truncates a regular file.
    pub fn create(&mut self, path: &str, append_only: bool) -> Result<()> {
        match self.files.get_mut(path) {
            Some(f) if f.conflict => Err(RtError::Conflicted(path.into())),
            Some(f) => {
                f.data = Bytes::new();
                f.deleted = false;
                f.append_only = append_only;
                f.bump();
                Ok(())
            }
            None => {
                self.files.insert(path.into(), File::new(append_only));
                Ok(())
            }
        }
    }

    /// Reads the whole file.
    pub fn read(&self, path: &str) -> Result<Bytes> {
        let f = self
            .files
            .get(path)
            .filter(|f| !f.deleted)
            .ok_or_else(|| RtError::NotFound(path.into()))?;
        if f.conflict {
            return Err(RtError::Conflicted(path.into()));
        }
        Ok(f.data.clone())
    }

    /// Overwrites `data` at byte `offset`, extending the file if
    /// needed (zero-filling any gap).
    pub fn write_at(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        let f = self
            .files
            .get_mut(path)
            .filter(|f| !f.deleted)
            .ok_or_else(|| RtError::NotFound(path.into()))?;
        if f.conflict {
            return Err(RtError::Conflicted(path.into()));
        }
        if f.append_only && offset != f.data.len() as u64 {
            return Err(RtError::BadMode("append-only file requires appending"));
        }
        let mut buf = f.data.to_vec();
        let end = offset as usize + data.len();
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf[offset as usize..end].copy_from_slice(data);
        f.data = Bytes::from(buf);
        f.bump();
        Ok(())
    }

    /// Appends to a file.
    pub fn append(&mut self, path: &str, data: &[u8]) -> Result<()> {
        let len = self
            .files
            .get(path)
            .filter(|f| !f.deleted)
            .ok_or_else(|| RtError::NotFound(path.into()))?
            .data
            .len() as u64;
        self.write_at(path, len, data)
    }

    /// Deletes a file (leaves a tombstone so the deletion reconciles).
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        let f = self
            .files
            .get_mut(path)
            .filter(|f| !f.deleted)
            .ok_or_else(|| RtError::NotFound(path.into()))?;
        f.deleted = true;
        f.conflict = false;
        f.data = Bytes::new();
        f.bump();
        Ok(())
    }

    /// Lists live paths with the given prefix, in sorted order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .iter()
            .filter(|(p, f)| !f.deleted && p.starts_with(prefix))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// True if the file exists and carries a conflict flag.
    pub fn is_conflicted(&self, path: &str) -> bool {
        self.files.get(path).map(|f| f.conflict).unwrap_or(false)
    }

    /// A value that is different after any mutation of this replica:
    /// the file count and the sum of all versions. Files are never
    /// removed (`unlink` leaves a tombstone), so an insertion raises the
    /// count for good, and every other mutator bumps one version by
    /// one — whoever holds `&mut FileSys`, there is no flag to forget.
    pub fn stamp(&self) -> (usize, u64) {
        let versions = self.files.values().map(|f| f.version);
        (self.files.len(), versions.fold(0, u64::wrapping_add))
    }

    /// The replica a freshly forked child inherits: every file's
    /// `base_version`/`base_len` snapshot to its current state. The
    /// process runtime never builds it — it stages
    /// [`ImageForm::Fork`] bytes, which decode to exactly this.
    pub fn fork_image(&self) -> FileSys {
        let mut child = self.clone();
        for f in child.files.values_mut() {
            f.base_version = f.version;
            f.base_len = f.data.len() as u64;
        }
        child
    }

    /// Reconciles a collected child's replica into this one (§4.2).
    ///
    /// Only files the child changed since its fork are looked at, so a
    /// replica holding nothing else ([`ImageForm::Delta`]) reconciles
    /// exactly as the whole one would.
    ///
    /// Total on any decodable child: an append-only file shorter than
    /// its own `base_len` has no suffix to exchange — the child
    /// truncated a log others may have appended to, which is a
    /// concurrent-write conflict like any other. It is flagged here
    /// rather than rejected at decode because an honest child gets
    /// there too (`create(CONSOLE_OUT, true)` truncates), and failing
    /// its parent's `wait` would turn a detectable conflict into a
    /// lost child.
    pub fn reconcile(&mut self, child: &FileSys) -> ReconcileStats {
        let mut stats = ReconcileStats::default();
        for (path, cf) in child.files.iter().filter(|(_, cf)| cf.changed()) {
            let Some(pf) = self.files.get_mut(path) else {
                // Child created it. The file did not exist at *this*
                // replica's own fork point either, so it must stay
                // marked as changed (base 0) for the next level of
                // reconciliation — grandchild creations propagate
                // all the way up the process tree.
                let mut nf = cf.clone();
                nf.base_version = 0;
                nf.base_len = 0;
                self.files.insert(path.clone(), nf);
                stats.taken_from_child += 1;
                continue;
            };
            let parent_changed = pf.version != cf.base_version;
            let suffix = usize::try_from(cf.base_len)
                .ok()
                .and_then(|at| cf.data.get(at..));
            match (cf.append_only && pf.append_only, suffix) {
                // Append-only: splice the child's new suffix onto the
                // parent's copy (§4.3). The parent's own appends are
                // already in pf.
                (true, Some([])) => {}
                (true, Some(suffix)) => {
                    let mut buf = pf.data.to_vec();
                    buf.extend_from_slice(suffix);
                    pf.data = Bytes::from(buf);
                    pf.bump();
                    stats.appended += 1;
                }
                // Only the child changed: take its copy.
                (false, _) if !parent_changed => {
                    pf.data = cf.data.clone();
                    pf.deleted = cf.deleted;
                    pf.conflict = cf.conflict;
                    pf.append_only = cf.append_only;
                    pf.bump();
                    stats.taken_from_child += 1;
                }
                // Both changed, or a truncated log: conflict. Keep the
                // parent's copy, poison the file (§4.2).
                _ => {
                    pf.conflict = true;
                    pf.bump();
                    stats.conflicts += 1;
                }
            }
        }
        stats
    }

    /// Serializes the whole replica as it stands
    /// ([`ImageForm::Full`]; deterministic layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(ImageForm::Full, &mut out);
        out
    }

    /// Appends this replica's image in `form` to `out` (which may
    /// already hold a caller's framing), growing it once.
    pub fn encode_into(&self, form: ImageForm, out: &mut Vec<u8>) {
        let carried = || {
            let all = self.files.iter();
            all.filter(|(_, f)| form != ImageForm::Delta || f.changed())
        };
        let records = carried().map(|(path, f)| RECORD_FIXED_LEN + path.len() + f.data.len());
        out.reserve(16 + records.sum::<usize>());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(carried().count() as u64).to_le_bytes());
        for (path, f) in carried() {
            let (base_version, base_len) = match form {
                ImageForm::Fork => (f.version, f.data.len() as u64),
                ImageForm::Full | ImageForm::Delta => (f.base_version, f.base_len),
            };
            out.extend_from_slice(&(path.len() as u64).to_le_bytes());
            out.extend_from_slice(path.as_bytes());
            out.extend_from_slice(&f.version.to_le_bytes());
            out.extend_from_slice(&base_version.to_le_bytes());
            out.extend_from_slice(&base_len.to_le_bytes());
            out.push(f.append_only as u8);
            out.push(f.conflict as u8);
            out.push(f.deleted as u8);
            out.extend_from_slice(&(f.data.len() as u64).to_le_bytes());
            out.extend_from_slice(&f.data);
        }
    }

    /// Deserializes a replica from a copy of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Result<FileSys> {
        FileSys::from_image(Bytes::copy_from_slice(bytes))
    }

    /// Deserializes a replica whose file contents are views into
    /// `image` — the buffer is read once and never copied. Any byte
    /// string is either a replica or a typed error: lengths and counts
    /// come from the image and are trusted for nothing.
    pub fn from_image(image: Bytes) -> Result<FileSys> {
        let mut rd = Reader { b: &image, at: 0 };
        if rd.u64()? != MAGIC {
            return Err(RtError::FsImageCorrupt("bad magic"));
        }
        let n = rd.u64()?;
        let mut files = BTreeMap::new();
        for _ in 0..n {
            let path = rd.string()?;
            let version = rd.u64()?;
            let base_version = rd.u64()?;
            let base_len = rd.u64()?;
            let append_only = rd.u8()? != 0;
            let conflict = rd.u8()? != 0;
            let deleted = rd.u8()? != 0;
            let data = image.slice(rd.field()?);
            files.insert(
                path,
                File {
                    data,
                    version,
                    base_version,
                    base_len,
                    append_only,
                    conflict,
                    deleted,
                },
            );
        }
        if rd.at != image.len() {
            return Err(RtError::FsImageCorrupt("bytes after the last file"));
        }
        Ok(FileSys { files })
    }
}

const MAGIC: u64 = 0x4445_545f_4653_0001; // "DET_FS" v1.

/// Bytes of a file record besides its path and data: two length
/// prefixes, three version words, three flags.
const RECORD_FIXED_LEN: usize = 8 + 3 * 8 + 3 + 8;

struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    /// The next `n` bytes' position, if the image has that many.
    fn take(&mut self, n: u64) -> Result<Range<usize>> {
        let end = usize::try_from(n)
            .ok()
            .and_then(|n| self.at.checked_add(n))
            .filter(|&end| end <= self.b.len())
            .ok_or(RtError::FsImageCorrupt("truncated image"))?;
        let taken = self.at..end;
        self.at = end;
        Ok(taken)
    }

    fn u64(&mut self) -> Result<u64> {
        let word = &self.b[self.take(8)?];
        Ok(u64::from_le_bytes(word.try_into().expect("8")))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.b[self.take(1)?][0])
    }

    /// A length-prefixed field's position.
    fn field(&mut self) -> Result<Range<usize>> {
        let n = self.u64()?;
        self.take(n)
    }

    fn string(&mut self) -> Result<String> {
        let bytes = &self.b[self.field()?];
        String::from_utf8(bytes.to_vec()).map_err(|_| RtError::FsImageCorrupt("non-utf8 path"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_write_roundtrip() {
        let mut fs = FileSys::default();
        fs.create("a.txt", false).unwrap();
        fs.write_at("a.txt", 0, b"hello").unwrap();
        assert_eq!(&fs.read("a.txt").unwrap()[..], b"hello");
        fs.write_at("a.txt", 3, b"LO!").unwrap();
        assert_eq!(&fs.read("a.txt").unwrap()[..], b"helLO!");
        // Gap writes zero-fill.
        fs.write_at("a.txt", 8, b"x").unwrap();
        assert_eq!(&fs.read("a.txt").unwrap()[..], b"helLO!\0\0x");
    }

    #[test]
    fn unlink_leaves_tombstone_that_reconciles() {
        let mut parent = FileSys::default();
        parent.create("tmp", false).unwrap();
        let mut child = parent.fork_image();
        child.unlink("tmp").unwrap();
        assert!(child.read("tmp").is_err());
        parent.reconcile(&child);
        assert!(parent.lookup("tmp").is_none());
    }

    #[test]
    fn child_only_changes_propagate() {
        let mut parent = FileSys::default();
        parent.create("obj/a.o", false).unwrap();
        let mut child = parent.fork_image();
        child.write_at("obj/a.o", 0, b"compiled").unwrap();
        child.create("obj/new.o", false).unwrap();
        child.write_at("obj/new.o", 0, b"fresh").unwrap();
        let stats = parent.reconcile(&child);
        assert_eq!(&parent.read("obj/a.o").unwrap()[..], b"compiled");
        assert_eq!(&parent.read("obj/new.o").unwrap()[..], b"fresh");
        assert_eq!(stats.taken_from_child, 2);
        assert_eq!(stats.conflicts, 0);
    }

    #[test]
    fn parent_changes_survive_unchanged_child() {
        let mut parent = FileSys::default();
        parent.create("f", false).unwrap();
        let child = parent.fork_image();
        parent.write_at("f", 0, b"parent").unwrap();
        parent.reconcile(&child);
        assert_eq!(&parent.read("f").unwrap()[..], b"parent");
    }

    #[test]
    fn both_changed_conflicts_and_poisons_open() {
        let mut parent = FileSys::default();
        parent.create("f", false).unwrap();
        let mut child = parent.fork_image();
        parent.write_at("f", 0, b"P").unwrap();
        child.write_at("f", 0, b"C").unwrap();
        let stats = parent.reconcile(&child);
        assert_eq!(stats.conflicts, 1);
        assert!(parent.is_conflicted("f"));
        assert!(matches!(parent.read("f"), Err(RtError::Conflicted(_))));
        // Removal clears the conflict; recreation works.
        parent.unlink("f").unwrap();
        parent.create("f", false).unwrap();
        assert!(parent.read("f").is_ok());
    }

    #[test]
    fn two_siblings_same_file_conflict_at_second_reconcile() {
        let mut parent = FileSys::default();
        parent.create("out", false).unwrap();
        let mut c1 = parent.fork_image();
        let mut c2 = parent.fork_image();
        c1.write_at("out", 0, b"one").unwrap();
        c2.write_at("out", 0, b"two").unwrap();
        assert_eq!(parent.reconcile(&c1).conflicts, 0);
        assert_eq!(parent.reconcile(&c2).conflicts, 1);
        assert!(parent.is_conflicted("out"));
    }

    #[test]
    fn append_only_merges_suffixes_without_conflict() {
        let mut parent = FileSys::with_console();
        parent.append(CONSOLE_OUT, b"boot\n").unwrap();
        let mut c1 = parent.fork_image();
        let mut c2 = parent.fork_image();
        c1.append(CONSOLE_OUT, b"child1\n").unwrap();
        c2.append(CONSOLE_OUT, b"child2\n").unwrap();
        parent.append(CONSOLE_OUT, b"parent\n").unwrap();
        let s1 = parent.reconcile(&c1);
        let s2 = parent.reconcile(&c2);
        assert_eq!((s1.conflicts, s2.conflicts), (0, 0));
        let out = parent.read(CONSOLE_OUT).unwrap();
        let text = std::str::from_utf8(&out).unwrap();
        // All four lines present; parent order deterministic.
        assert_eq!(text, "boot\nparent\nchild1\nchild2\n");
    }

    #[test]
    fn append_only_rejects_random_access() {
        let mut fs = FileSys::with_console();
        // Appending at the current end is fine (offset 0 of empty).
        fs.write_at(CONSOLE_OUT, 0, b"line").unwrap();
        // Rewriting earlier bytes is not.
        assert!(matches!(
            fs.write_at(CONSOLE_OUT, 0, b"x"),
            Err(RtError::BadMode(_))
        ));
    }

    #[test]
    fn nested_fork_levels_accumulate_appends() {
        // Grandchild appends propagate through two reconciliations.
        let mut root = FileSys::with_console();
        let mut mid = root.fork_image();
        let mut leaf = mid.fork_image();
        leaf.append(CONSOLE_OUT, b"leaf\n").unwrap();
        mid.reconcile(&leaf);
        mid.append(CONSOLE_OUT, b"mid\n").unwrap();
        root.reconcile(&mid);
        assert_eq!(&root.read(CONSOLE_OUT).unwrap()[..], b"leaf\nmid\n");
    }

    #[test]
    fn serialization_roundtrip_preserves_everything() {
        let mut fs = FileSys::with_console();
        fs.create("x/y/z", false).unwrap();
        fs.write_at("x/y/z", 0, &[0u8, 1, 255, 3]).unwrap();
        fs.append(CONSOLE_OUT, b"log line").unwrap();
        fs.create("gone", false).unwrap();
        fs.unlink("gone").unwrap();
        let bytes = fs.to_bytes();
        let back = FileSys::from_bytes(&bytes).unwrap();
        assert_eq!(fs, back);
        // Determinism: same fs serializes to the same bytes.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn corrupt_images_rejected() {
        assert!(FileSys::from_bytes(&[1, 2, 3]).is_err());
        let mut bytes = FileSys::default().to_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(
            FileSys::from_bytes(&bytes),
            Err(RtError::FsImageCorrupt("bad magic"))
        ));
        // Truncation detected.
        let mut fs = FileSys::default();
        fs.create("f", false).unwrap();
        fs.write_at("f", 0, b"data").unwrap();
        let good = fs.to_bytes();
        assert!(FileSys::from_bytes(&good[..good.len() - 2]).is_err());
    }

    #[test]
    fn list_filters_prefix_and_tombstones() {
        let mut fs = FileSys::default();
        for p in ["a/1", "a/2", "b/1"] {
            fs.create(p, false).unwrap();
        }
        fs.unlink("a/2").unwrap();
        assert_eq!(fs.list("a/"), vec!["a/1".to_string()]);
        assert_eq!(fs.list("").len(), 2);
    }
}
