//! Every byte string the kernel parses is hostile input: a damaged
//! trace, checkpoint or wire delta is a typed error, never a panic, a
//! hang or a silently shortened value.
//!
//! All three decoders read the same derived mappings through the serde
//! shim — the trace as JSON text, the checkpoint payload and the wire
//! delta in its binary rendering — so one suite covers them: every
//! truncation, sampled single-bit flips, nesting bombs and count-prefix
//! bombs. Two more inputs arrive as arguments rather than artifacts and
//! get the same treatment: the `--fault` spec text, and the image range
//! and bytes a space hands to `analyze_footprint`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use det_kernel::wire::{delta_from_bytes, delta_to_bytes};
use det_kernel::{
    CHECKPOINT_FORMAT_VERSION, Checkpoint, DeviceId, Fault, FaultAction, FaultPlan, FaultSite,
    GetSpec, Kernel, KernelConfig, KernelError, Program, PutSpec, Region, Trace, TraceSink,
};
use det_memory::{AccessTracker, PageDelta, PageDeltaOp, Perm, SpaceDelta};
use det_vm::{Cpu, Opcode, VmExit};
use proptest::prelude::*;

/// The system allocator, recording per thread the largest single
/// allocation asked for — so a test can show that a decoder never
/// sized a buffer from a count it read.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping only reads the layout
// and touches no allocation.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller's guarantees on `layout` are the ones
        // `System.alloc` asks for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` (via `alloc` above or
        // the default `realloc`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// The largest single allocation `f` asks for on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// What a decoder made of a damaged text.
#[derive(Debug, PartialEq)]
enum Decoded {
    Rejected,
    /// Accepted a value that is not the original (a flipped digit is
    /// still a digit; only the checkpoint carries a digest).
    Other,
    Original,
}

type Decode = Box<dyn Fn(&[u8]) -> Decoded>;

/// One persisted artifact: its pristine bytes and its decoder.
struct Artifact {
    name: &'static str,
    bytes: Vec<u8>,
    decode: Decode,
}

/// Wraps a codec. An accepted value must itself be well-formed: it
/// encodes, and decodes back to itself.
fn codec_artifact<T: PartialEq + 'static>(
    name: &'static str,
    original: T,
    encode: fn(&T) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<T>,
) -> Artifact {
    let bytes = encode(&original);
    Artifact {
        name,
        bytes,
        decode: Box::new(move |b| {
            let Some(v) = decode(b) else {
                return Decoded::Rejected;
            };
            assert!(
                decode(&encode(&v)).as_ref() == Some(&v),
                "{name}: accepted a value that does not round-trip"
            );
            if v == original {
                Decoded::Original
            } else {
                Decoded::Other
            }
        }),
    }
}

/// A small recorded run touching devices, a child, a fused exchange
/// and a checkpoint mark, and the three artifacts it leaves behind.
fn artifacts() -> Vec<Artifact> {
    let sink = TraceSink::new();
    let kernel = Kernel::new(KernelConfig::builder().trace(sink.clone()).build());
    kernel.push_input(DeviceId::ConsoleIn, b"in".to_vec());
    let out = kernel.run(|ctx| {
        let data = ctx.dev_read(DeviceId::ConsoleIn)?.unwrap_or_default();
        ctx.dev_write(DeviceId::ConsoleOut, &data)?;
        let child = Program::native(|c| {
            c.ret(1)?;
            Ok(3)
        });
        ctx.put(1, PutSpec::new().program(child).start())?;
        ctx.get(1, GetSpec::new().regs())?;
        ctx.put_get(1, PutSpec::new().start(), GetSpec::new())?;
        ctx.checkpoint()?;
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    let trace = sink.collect().expect("sink recorded");
    let ckpt = Checkpoint::capture(&trace, trace.len() - 1).expect("capture");
    let page = |vpn, perm, op| PageDelta { vpn, perm, op };
    let delta = SpaceDelta {
        pages: vec![
            page(
                4,
                Perm::RW,
                PageDeltaOp::Write(vec![0xde, 0xad, 0x00, 0xff]),
            ),
            page(5, Perm::R, PageDeltaOp::WriteZero),
            page(6, Perm::NONE, PageDeltaOp::SetPerm),
            page(7, Perm::W, PageDeltaOp::MarkDirty),
        ],
        unmapped: vec![42],
    };
    vec![
        // Bytes that are not UTF-8 cannot even be handed to the trace
        // parser.
        codec_artifact(
            "trace",
            trace,
            |t| t.to_json().into_bytes(),
            |b| Trace::from_json(std::str::from_utf8(b).ok()?).ok(),
        ),
        codec_artifact("wire delta", delta, delta_to_bytes, |b| {
            delta_from_bytes(b).ok()
        }),
        Artifact {
            name: "checkpoint",
            bytes: ckpt.to_bytes(),
            decode: Box::new(move |b| match Checkpoint::from_bytes(b) {
                Err(_) => Decoded::Rejected,
                Ok(c) if c == ckpt => Decoded::Original,
                Ok(_) => Decoded::Other,
            }),
        },
    ]
}

#[test]
fn every_truncation_is_rejected() {
    for a in artifacts() {
        assert_eq!((a.decode)(&a.bytes), Decoded::Original, "{}", a.name);
        for cut in 0..a.bytes.len() {
            assert_eq!(
                (a.decode)(&a.bytes[..cut]),
                Decoded::Rejected,
                "{} cut to {cut} of {} bytes",
                a.name,
                a.bytes.len()
            );
        }
    }
}

/// `payload` behind a header whose digest vouches for it, so the
/// payload parser is what has to refuse it.
fn vouched_bundle(payload: &[u8]) -> Vec<u8> {
    let fnv1a64 = payload.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    [
        format!("detckpt {CHECKPOINT_FORMAT_VERSION} {fnv1a64:016x}\n").as_bytes(),
        payload,
    ]
    .concat()
}

/// The binary rendering's tags this file builds inputs from.
const STR: u8 = 6;
const BYTES: u8 = 7;
const ARRAY: u8 = 8;
const OBJECT: u8 = 9;

#[test]
fn nesting_bombs_are_rejected() {
    assert!(Trace::from_json(&"[".repeat(1 << 20)).is_err());
    // A million one-item arrays, one inside the other.
    let bomb = [ARRAY, 1].repeat(1 << 20);
    assert!(delta_from_bytes(&bomb).is_err());
    assert!(matches!(
        Checkpoint::from_bytes(&vouched_bundle(&bomb)),
        Err(KernelError::CheckpointMalformed("payload does not parse"))
    ));
}

/// A count or length is bounded by the bytes behind it before anything
/// is allocated for it: at most 16 bytes claiming 2^32 elements fail at
/// once, with no allocation anywhere near that size.
#[test]
fn count_prefix_bombs_are_rejected_without_allocating() {
    const CLAIM_2_POW_32: [u8; 5] = [0x80, 0x80, 0x80, 0x80, 0x10];
    for tag in [ARRAY, OBJECT, STR, BYTES] {
        // A wire delta whose page list claims 2^32 entries (its first
        // field key included)...
        let delta = [&[OBJECT, 2, 5][..], b"pages", &[tag], &CLAIM_2_POW_32].concat();
        // ... and a checkpoint payload that is one such value.
        let bundle = vouched_bundle(&[&[tag][..], &CLAIM_2_POW_32].concat());
        assert!(delta.len() <= 16);
        let largest = largest_allocation(|| {
            assert!(delta_from_bytes(&delta).is_err(), "tag {tag}");
            assert!(
                matches!(
                    Checkpoint::from_bytes(&bundle),
                    Err(KernelError::CheckpointMalformed("payload does not parse"))
                ),
                "tag {tag}"
            );
        });
        assert!(largest < 1024, "tag {tag}: allocated {largest} bytes");
    }
}

/// A space's `analyze_footprint` arguments are its own word: a length
/// no mapping could back is a typed error before anything is
/// allocated for it — never an abort that takes the kernel and every
/// sibling space down with it.
#[test]
fn analyze_footprint_rejects_hostile_ranges() {
    let out = Kernel::new(KernelConfig::default()).run(|ctx| {
        ctx.mem_mut()
            .map_zero(Region::new(0x1000, 0x3000), Perm::RW)?;
        for (base, len) in [
            (0x1000, 0),
            (0x1000, 0x2001),
            (0x1000, 1 << 32),
            (0x1000, 1 << 60),
            (0x1000, u64::MAX),
            (u64::MAX - 4, 16),
            (u64::MAX, 1),
        ] {
            assert!(
                matches!(
                    ctx.analyze_footprint(base, len),
                    Err(KernelError::InvalidSpec(_))
                ),
                "base {base:#x} len {len:#x}"
            );
        }
        // Small enough to allocate, but not all of it is mapped.
        assert!(matches!(
            ctx.analyze_footprint(0x2000, 0x2000),
            Err(KernelError::Mem(_))
        ));
        // The space and its kernel are still in working order.
        ctx.analyze_footprint(0x1000, 0x2000)?;
        ctx.put(
            1,
            PutSpec::new().program(Program::native(|_| Ok(9))).start(),
        )?;
        Ok(ctx.get(1, GetSpec::new())?.code as i32)
    });
    assert_eq!(out.exit, Ok(9));
}

/// The documented `--fault` examples parse to the documented
/// coordinates.
#[test]
fn documented_fault_specs_parse() {
    assert_eq!(
        FaultPlan::parse("kill@syscall:path=/,n=12"),
        Ok(Fault::new(FaultSite::Syscall, FaultAction::KillKernel)
            .at_path("/")
            .at_syscall(12))
    );
    assert_eq!(
        FaultPlan::parse("fail@device:n=0"),
        Ok(Fault::new(FaultSite::Device, FaultAction::FailOp).at_syscall(0))
    );
    assert_eq!(
        FaultPlan::parse("panic@syscall:path=/3,vt=1000000"),
        Ok(Fault::new(FaultSite::Syscall, FaultAction::PanicVehicle)
            .at_path("/3")
            .at_vtime_ps(1_000_000))
    );
}

#[test]
fn malformed_fault_specs_are_errors() {
    for spec in [
        "",
        "@",
        "kill@",
        "@syscall",
        "fail@device:n=",
        "fail@device:n=18446744073709551616",
        "fail@device:n=-1",
        "fail@device:vt=1e3",
        "kill@syscall:",
        "kill@syscall:,",
        "kill@syscall:path",
        "kill@syscall:q=1",
        "kill\0@syscall",
        "kill@sys\0call",
        "kill@syscall\0:n=1",
        "kílľ@syscall",
        "kill@syscall:ń=1",
        "kill\u{1F980}@\u{1F980}syscall",
        "Kill@syscall",
        " kill@syscall",
    ] {
        assert!(FaultPlan::parse(spec).is_err(), "accepted {spec:?}");
    }
    // The largest ordinal still parses; a path is taken verbatim.
    assert_eq!(
        FaultPlan::parse("fail@alloc:n=18446744073709551615,path=\u{1F980}=\0")
            .map(|f| (f.nth_syscall, f.path)),
        Ok((Some(u64::MAX), Some("\u{1F980}=\0".to_string())))
    );
}

/// Fragments a fault spec is glued from, chosen to land multi-byte
/// UTF-8, NULs and empty fields on every split point (`@`, `:`, `,`,
/// `=`) and overflowing digits in the numeric fields.
const SPEC_FRAGMENTS: &[&str] = &[
    "",
    "@",
    ":",
    ",",
    "=",
    "kill",
    "panic",
    "fail",
    "syscall",
    "device",
    "trace",
    "alloc",
    "path",
    "n",
    "vt",
    "/3",
    "12",
    "18446744073709551616",
    "-1",
    " ",
    "\0",
    "é",
    "\u{1F980}",
];

/// A VM image of raw bytes. `ops` overwrites the opcode byte of seven
/// words in eight with a defined opcode, so the interpreter and the
/// analyzer get past the first fetch more often than noise alone
/// would let them.
fn hostile_image(mut bytes: Vec<u8>, ops: &[(u8, usize)]) -> Vec<u8> {
    for (word, &(keep, op)) in bytes.chunks_exact_mut(4).zip(ops) {
        if keep != 0 {
            word[3] = Opcode::ALL[op % Opcode::ALL.len()] as u8;
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Arbitrary spec text gives a `Fault` or an `Err`, never a panic.
    #[test]
    fn arbitrary_fault_specs_never_panic(
        picks in proptest::collection::vec(0usize..SPEC_FRAGMENTS.len(), 0..8),
        raw in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let glued: String = picks.iter().map(|&i| SPEC_FRAGMENTS[i]).collect();
        let noise = String::from_utf8_lossy(&raw);
        let _ = FaultPlan::parse(&glued);
        let _ = FaultPlan::parse(&noise);
        let _ = FaultPlan::parse(&format!("kill@syscall:{noise}"));
    }

    /// `analyze_footprint` over arbitrary image bytes — not assembled
    /// source — terminates with a footprint, and a bounded concrete
    /// run of the same bytes stays inside it.
    #[test]
    fn arbitrary_image_bytes_analyze_soundly(
        bytes in proptest::collection::vec(any::<u8>(), 1..513),
        ops in proptest::collection::vec((0u8..8, any::<usize>()), 128),
    ) {
        let image = hostile_image(bytes, &ops);
        let len = image.len() as u64;
        let out = Kernel::new(KernelConfig::default()).run(move |ctx| {
            ctx.mem_mut().map_zero(Region::new(0, 0x10000), Perm::RW)?;
            ctx.mem_mut().write(0, &image)?;
            let fp = ctx.analyze_footprint(0, len)?;

            let mut mem = ctx.mem().clone();
            let tracker = AccessTracker::new();
            mem.set_tracker(Some(tracker.clone()));
            let mut cpu = Cpu::new();
            // Like the analyzer's gate: resume across `sys` exits with
            // the registers untouched.
            while cpu.insn_count < 20_000 {
                match cpu.run(&mut mem, Some(20_000 - cpu.insn_count)) {
                    VmExit::Sys(_) => continue,
                    _ => break,
                }
            }
            for p in tracker.pages_written() {
                assert!(fp.writes.contains(p), "wrote page {p:#x} outside {}", fp.writes);
            }
            for p in tracker.pages_read() {
                assert!(
                    fp.reads.contains(p) || fp.writes.contains(p),
                    "read page {p:#x} outside {} / {}",
                    fp.reads,
                    fp.writes
                );
            }
            Ok(0)
        });
        prop_assert_eq!(out.exit, Ok(0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A single flipped bit anywhere in any artifact never panics or
    /// hangs a decoder, and what a decoder does accept round-trips
    /// (checked inside `decode`). The checkpoint's digest goes further:
    /// no flipped bit ever decodes at all.
    #[test]
    fn single_bit_flips_never_panic(pos_frac in 0u64..=1000, bit in 0u8..8) {
        for a in artifacts() {
            let mut bytes = a.bytes.clone();
            let pos = ((bytes.len() - 1) as u64 * pos_frac / 1000) as usize;
            bytes[pos] ^= 1 << bit;
            let got = (a.decode)(&bytes);
            if a.name == "checkpoint" {
                prop_assert_eq!(got, Decoded::Rejected);
            }
        }
    }
}
