//! Every byte string the kernel parses is hostile input: a damaged
//! trace, checkpoint, wire delta or input log is a typed error, never a
//! panic, a hang or a silently shortened value.
//!
//! All four decoders read the same JSON shim through the same derived
//! mappings, so one suite covers them: every truncation, sampled
//! single-bit flips, and nesting bombs.

use det_kernel::wire::{delta_from_json, delta_to_json};
use det_kernel::{
    CHECKPOINT_FORMAT_VERSION, Checkpoint, DeviceId, GetSpec, IoLog, Kernel, KernelConfig,
    KernelError, Program, PutSpec, Trace, TraceSink,
};
use det_memory::{PageDelta, PageDeltaOp, Perm, SpaceDelta};
use proptest::prelude::*;

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

/// Wraps a text decoder; bytes that are not UTF-8 cannot even be
/// handed to it. An accepted value must itself be well-formed: it
/// encodes, and decodes back to itself.
fn text_artifact<T: PartialEq + 'static>(
    name: &'static str,
    original: T,
    encode: fn(&T) -> String,
    decode: fn(&str) -> Option<T>,
) -> Artifact {
    let bytes = encode(&original).into_bytes();
    Artifact {
        name,
        bytes,
        decode: Box::new(move |b| {
            let Some(v) = std::str::from_utf8(b).ok().and_then(decode) else {
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
/// and a checkpoint mark, and the four artifacts it leaves behind.
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
        text_artifact("trace", trace, Trace::to_json, |s| Trace::from_json(s).ok()),
        text_artifact("wire delta", delta, delta_to_json, |s| {
            delta_from_json(s).ok()
        }),
        text_artifact("io log", out.io_log, IoLog::to_json, |s| {
            IoLog::from_json(s).ok()
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

#[test]
fn nesting_bombs_are_rejected() {
    let bomb = "[".repeat(1 << 20);
    assert!(Trace::from_json(&bomb).is_err());
    assert!(IoLog::from_json(&bomb).is_err());
    assert!(delta_from_json(&bomb).is_err());
    // Behind a header whose digest vouches for it, so the payload
    // parser is what has to refuse.
    let fnv1a64 = bomb.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let bundle = format!("detckpt {CHECKPOINT_FORMAT_VERSION} {fnv1a64:016x}\n{bomb}");
    assert!(matches!(
        Checkpoint::from_bytes(bundle.as_bytes()),
        Err(KernelError::CheckpointMalformed(
            "payload is not valid JSON"
        ))
    ));
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
