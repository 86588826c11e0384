//! The file-system image is hostile input (ROADMAP 9(c)): a parent
//! parses bytes its child wrote. Any byte string is either a typed
//! `FsImageCorrupt` or a replica that is well-formed — it re-encodes
//! to bytes that decode back to it — and that reconciles into a parent
//! without a panic. Run in a debug build, where arithmetic on a length
//! taken from the image panics instead of wrapping.

use det_kernel::KernelConfig;
use det_runtime::fs::{CONSOLE_OUT, FileSys};
use det_runtime::proc::{ProgramRegistry, run_process_tree};
use det_runtime::{RtError, layout};
use proptest::prelude::*;

/// A replica with one of everything: appended console output past its
/// fork base, a regular file, an empty one, a tombstone, a conflict.
fn real_image() -> Vec<u8> {
    let mut parent = FileSys::with_console();
    parent.append(CONSOLE_OUT, b"boot\n").unwrap();
    for path in ["obj/a.o", "obj/empty", "tmp", "shared"] {
        parent.create(path, false).unwrap();
    }
    let mut child = parent.fork_image();
    child.append(CONSOLE_OUT, b"child line\n").unwrap();
    child.write_at("obj/a.o", 0, &[0xa5; 40]).unwrap();
    child.unlink("tmp").unwrap();
    let mut grandchild = child.fork_image();
    grandchild.write_at("shared", 0, b"theirs").unwrap();
    child.write_at("shared", 0, b"ours").unwrap();
    assert_eq!(child.reconcile(&grandchild).conflicts, 1);
    child.to_bytes()
}

/// Decodes `bytes`; an accepted replica must round-trip and reconcile.
/// Returns whether it was accepted.
fn survives(bytes: &[u8]) -> bool {
    let fs = match FileSys::from_bytes(bytes) {
        Ok(fs) => fs,
        Err(RtError::FsImageCorrupt(_)) => return false,
        Err(other) => panic!("untyped rejection: {other:?}"),
    };
    let again = FileSys::from_bytes(&fs.to_bytes()).expect("a re-encoded replica decodes");
    assert_eq!(again, fs, "accepted a replica that does not round-trip");
    // Twice: the second pass meets the files the first one took over,
    // hostile versions included.
    let mut parent = FileSys::with_console();
    parent.reconcile(&fs);
    parent.reconcile(&fs);
    true
}

/// Offsets of every count and length word in a well-formed image, with
/// the value each holds: the file count, then per record the path
/// length, `base_len` and the data length.
fn length_fields(image: &[u8]) -> Vec<(usize, u64)> {
    let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
    let mut fields = vec![(8, word(8))];
    let mut at = 16;
    for _ in 0..word(8) {
        let path_len = (at, word(at));
        at += 8 + path_len.1 as usize + 16; // Path, version, base_version.
        let base_len = (at, word(at));
        at += 8 + 3; // base_len, three flags.
        let data_len = (at, word(at));
        at += 8 + data_len.1 as usize;
        fields.extend([path_len, base_len, data_len]);
    }
    assert_eq!(at, image.len(), "walked the whole image");
    fields
}

#[test]
fn the_real_image_is_accepted() {
    assert!(survives(&real_image()));
}

#[test]
fn every_truncation_is_rejected() {
    let image = real_image();
    for cut in 0..image.len() {
        assert!(!survives(&image[..cut]), "accepted a cut to {cut} bytes");
    }
}

#[test]
fn bytes_after_the_last_file_are_rejected() {
    let mut image = real_image();
    image.push(0);
    assert!(!survives(&image));
}

#[test]
fn every_length_field_survives_every_extreme() {
    let image = real_image();
    let fields = length_fields(&image);
    assert_eq!(fields.len(), 1 + 3 * 6);
    let mut accepted = 0;
    for (at, value) in fields {
        for hostile in [u64::MAX, 1 << 63, value + 1] {
            let mut bytes = image.clone();
            bytes[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            accepted += survives(&bytes) as u32;
        }
    }
    // `base_len` is not a length *of the image*: every value decodes,
    // and reconciliation is what has to stay total.
    assert_eq!(accepted, 3 * 6, "exactly the base_len cases decode");
}

#[test]
fn a_log_shorter_than_its_base_is_a_conflict() {
    let image = real_image();
    let console_out_base_len = length_fields(&image)[1 + 3 + 1].0;
    for hostile in [u64::MAX, 1 << 63, 17] {
        let mut bytes = image.clone();
        bytes[console_out_base_len..][..8].copy_from_slice(&hostile.to_le_bytes());
        let child = FileSys::from_bytes(&bytes).unwrap();
        let mut parent = FileSys::with_console();
        let stats = parent.reconcile(&child);
        assert_eq!((stats.appended, stats.conflicts), (0, 1));
        assert!(parent.is_conflicted(CONSOLE_OUT));
    }
    // The honest way there: a child truncates the console log.
    let mut parent = FileSys::with_console();
    parent.append(CONSOLE_OUT, b"boot\n").unwrap();
    let mut child = parent.fork_image();
    child.create(CONSOLE_OUT, true).unwrap();
    let child = FileSys::from_bytes(&child.to_bytes()).unwrap();
    assert_eq!(parent.reconcile(&child).conflicts, 1);
    assert!(matches!(
        parent.read(CONSOLE_OUT),
        Err(RtError::Conflicted(_))
    ));
}

#[test]
fn no_single_bit_flip_panics() {
    let image = real_image();
    for pos in 0..image.len() {
        for bit in 0..8 {
            let mut bytes = image.clone();
            bytes[pos] ^= 1 << bit;
            survives(&bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Byte soup: raw, behind a valid magic and a small count (so the
    /// record parser is what meets it), and spliced over a window of
    /// the real image.
    #[test]
    fn byte_soup_never_panics(
        soup in proptest::collection::vec(any::<u8>(), 0..160),
        shape in 0u8..3,
        count in 0u64..4,
        at_frac in 0u64..=1000,
    ) {
        let image = real_image();
        let bytes = match shape {
            0 => soup,
            1 => [&image[..8], &count.to_le_bytes()[..], &soup[..]].concat(),
            _ => {
                let at = 8 + ((image.len() - 8) as u64 * at_frac / 1000) as usize;
                let end = (at + soup.len()).min(image.len());
                [&image[..at], &soup[..end - at], &image[end..]].concat()
            }
        };
        survives(&bytes);
    }
}

/// The length header in front of the image is read out of the child's
/// memory by the parent: a child that fakes it and returns on its own
/// fails its parent's `waitpid` with a typed error.
#[test]
fn a_hostile_length_header_fails_the_wait_not_the_parent() {
    for header in [u64::MAX, 1 << 63, layout::FS_IMAGE_SIZE - 7] {
        let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), move |p| {
            let pid = p.fork(move |c| {
                c.ctx().mem_mut().write_u64(layout::FS_IMAGE_BASE, header)?;
                c.ctx().ret(2)?;
                Ok(0)
            })?;
            match p.waitpid(pid) {
                Err(RtError::FsImageCorrupt(_)) => Ok(7),
                other => panic!("expected a corrupt-image error, got {other:?}"),
            }
        });
        assert_eq!(out.exit, Ok(7), "header {header:#x}");
    }
}

/// A child that scribbles over the image body (valid header, soup
/// behind it) is a typed error too.
#[test]
fn a_scribbled_image_body_fails_the_wait_not_the_parent() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let pid = p.fork(|c| {
            // The inherited image's first record starts 24 bytes in;
            // its path length now reaches past any image.
            c.ctx()
                .mem_mut()
                .write_u64(layout::FS_IMAGE_BASE + 24, u64::MAX)?;
            c.ctx().ret(2)?;
            Ok(0)
        })?;
        assert!(matches!(p.waitpid(pid), Err(RtError::FsImageCorrupt(_))));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}
