//! Every byte string the kernel parses is hostile input: a damaged
//! trace, checkpoint or wire delta is a typed error, never a panic, a
//! hang or a silently shortened value.
//!
//! All three decoders read the same derived mappings through the serde
//! shim — the trace as JSON text, the checkpoint payload and the wire
//! delta in its binary rendering — so one suite covers them: every
//! truncation, sampled single-bit flips, nesting bombs and count-prefix
//! bombs; a checkpoint whose digest vouches for a damaged memory image
//! is refused too. The `--fault` spec text arrives as an argument
//! rather than an artifact and gets the same treatment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use det_kernel::wire::{delta_from_bytes, delta_to_bytes};
use det_kernel::{
    CHECKPOINT_FORMAT_VERSION, Checkpoint, CostModel, DeviceId, Fault, FaultAction, FaultPlan,
    FaultSite, GetSpec, Kernel, KernelConfig, KernelError, Program, PutSpec, Region, Trace,
    TraceMeta, TraceSink,
};
use det_memory::{MemError, PageDelta, PageDeltaOp, Perm, SpaceDelta};
use proptest::prelude::*;
use serde::{Serialize, Value};

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
    // Byte-serial FNV-1a, an independent reference on purpose: the
    // checkpoint reader's digest (`ContentDigest`, with its zero-run
    // shortcut) must agree with it for the header to vouch.
    let fnv1a64 = payload.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    [
        format!("detckpt {CHECKPOINT_FORMAT_VERSION} {fnv1a64:016x}\n").as_bytes(),
        payload,
    ]
    .concat()
}

/// The field `key` of an object value.
fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = v else {
        panic!("no object holding `{key}`");
    };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
}

/// The text of the region [`recorded_zero_put`] zeroes.
const ZEROED: &str = r#"{"start":65536,"end":73728}"#;

/// The trace of a root that zeroes `[0x10000, 0x12000)` in a child; the
/// region's text ([`ZEROED`]) occurs in it once.
fn recorded_zero_put() -> String {
    let sink = TraceSink::new();
    let kernel = Kernel::new(KernelConfig::builder().trace(sink.clone()).build());
    let out = kernel.run(|ctx| {
        ctx.put(1, PutSpec::new().zero(Region::new(0x10000, 0x12000)))?;
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    let json = sink.collect().expect("sink recorded").to_json();
    assert_eq!(json.matches(ZEROED).count(), 1, "{json}");
    let trace = Trace::from_json(&json).expect("the recorded trace decodes");
    assert!(trace.replay().is_ok());
    json
}

/// A decoded `Region` keeps `Region::new`'s `end >= start`: a trace
/// whose `Put` zeroes an inverted range is refused at decode, in debug
/// and release alike, instead of underflowing in replay's page count.
#[test]
fn inverted_regions_are_rejected() {
    let inverted = recorded_zero_put().replacen(ZEROED, r#"{"start":73728,"end":65536}"#, 1);
    assert!(Trace::from_json(&inverted).is_err());
    // The binary rendering (checkpoint payloads, wire deltas) decodes
    // through the same mapping.
    let bound = |k: &str, v| (k.to_string(), Value::UInt(v));
    let inverted = Value::Object(vec![bound("start", 0x12000), bound("end", 0x10000)]);
    assert!(serde::bin::from_slice::<Region>(&serde::bin::to_vec(&inverted)).is_err());
}

/// A region is bounded in size as well as order: a forged `Put` that
/// zeroes up to 2^47 decodes, and replay refuses the range at once, as
/// a live `Put` of it is refused, instead of walking tens of millions
/// of page-table leaves. The forged trace replays to the outcome of the
/// live run whose `Put` was refused.
#[test]
fn oversized_regions_are_refused_live_and_in_replay() {
    let huge = Region::new(0x10000, 1 << 47);
    let live = Kernel::new(KernelConfig::default()).run(move |ctx| {
        let refused = ctx.put(1, PutSpec::new().zero(huge));
        assert_eq!(
            refused.unwrap_err(),
            KernelError::Mem(MemError::RangeTooLarge {
                pages: huge.page_count()
            })
        );
        Ok(0)
    });
    let forged = format!(r#"{{"start":65536,"end":{}}}"#, huge.end);
    let forged = recorded_zero_put().replacen(ZEROED, &forged, 1);
    let trace = Trace::from_json(&forged).expect("a forged end still decodes");
    let began = Instant::now();
    let rep = trace.replay().expect("the forged trace replays");
    let took = began.elapsed();
    assert!(took < Duration::from_millis(250), "replay took {took:?}");
    assert_eq!(
        (rep.exit, rep.vclock_ns, rep.stats),
        (live.exit, live.vclock_ns, live.stats)
    );
}

/// A payload that parses and that its digest vouches for, but whose
/// memory image cannot be rebuilt, reaches the memory decoder and is
/// refused there as malformed, not a panic.
#[test]
fn damaged_memory_images_are_malformed() {
    let trace = Trace {
        meta: TraceMeta {
            costs: CostModel::default(),
        },
        events: Vec::new(),
    };
    let bytes = Checkpoint::capture(&trace, 0).expect("capture").to_bytes();
    let newline = bytes.iter().position(|&b| b == b'\n').expect("header");
    let payload: Value = serde::bin::from_slice(&bytes[newline + 1..]).expect("payload");
    let restore = |payload: &Value| {
        Checkpoint::from_bytes(&vouched_bundle(&serde::bin::to_vec(payload)))
            .expect("the digest vouches and the boundary parses")
            .restore()
    };
    assert!(restore(&payload).is_ok());
    let damaged = [
        // A page of four bytes.
        (
            4,
            Perm::RW,
            PageDeltaOp::Write(vec![0xde, 0xad, 0x00, 0xff]),
        ),
        // New permissions for a page that was never mapped.
        (9, Perm::R, PageDeltaOp::SetPerm),
    ];
    for (vpn, perm, op) in damaged {
        let mut payload = payload.clone();
        let Value::Array(slots) = field_mut(field_mut(&mut payload, "kernel"), "slots") else {
            panic!("slots are a pair list");
        };
        let Value::Array(root) = &mut slots[0] else {
            panic!("a slot is an [id, slot] pair");
        };
        let clean = SpaceDelta {
            pages: vec![PageDelta { vpn, perm, op }],
            unmapped: Vec::new(),
        };
        *field_mut(field_mut(&mut root[1], "state"), "mem") = Value::Object(vec![
            ("clean".to_string(), clean.to_value()),
            ("dirty".to_string(), SpaceDelta::default().to_value()),
        ]);
        assert!(
            matches!(restore(&payload), Err(KernelError::CheckpointMalformed(_))),
            "page {vpn} restored"
        );
    }
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
        FaultPlan::parse("panic@syscall:path=/3"),
        Ok(Fault::new(FaultSite::Syscall, FaultAction::PanicVehicle).at_path("/3"))
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
        "panic@syscall:path=/3,vt=1000000",
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
        "fail@trace",
    ] {
        assert!(FaultPlan::parse(spec).is_err(), "accepted {spec:?}");
    }
    // The largest ordinal still parses; a path is taken verbatim.
    assert_eq!(
        FaultPlan::parse("fail@alloc:n=18446744073709551615,path=\u{1F980}=\0")
            .map(|f| (f.nth_syscall, f.path)),
        Ok((Some(u64::MAX), "\u{1F980}=\0".to_string()))
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
