//! I/O devices: the only sources of nondeterminism, mediated by the
//! root space (§2.1, §3.1).
//!
//! All nondeterministic inputs are explicit events consumed through
//! the device hub. In [`IoMode::Record`] every consumed input is
//! appended to an [`IoLog`]; rerunning the kernel in
//! [`IoMode::Replay`] with that log reproduces the execution
//! bit-for-bit — the paper's replay-debugging/intrusion-analysis use
//! case (§2.1).

use std::collections::BTreeMap;
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Device identifiers.
///
/// `Ord` is part of the contract: device outputs are keyed by
/// `BTreeMap<DeviceId, _>` so every serialized artifact enumerates
/// them in one canonical order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum DeviceId {
    /// Console input (host-pushed bytes).
    ConsoleIn,
    /// Console output.
    ConsoleOut,
    /// A real-time clock: reads return 8-byte little-endian
    /// timestamps. Host-pushed values if any, else synthesized from a
    /// deterministic step counter.
    Clock,
    /// An entropy source: reads return 8 bytes. Host-pushed values if
    /// any, else synthesized from a seeded generator.
    Random,
}

/// One consumed nondeterministic input.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct InputEvent {
    /// Sequence number (order of consumption by the root space).
    pub seq: u64,
    /// Which device produced it.
    pub device: DeviceId,
    /// Payload (`None` encodes "no input available").
    pub data: Option<Vec<u8>>,
}

/// A log of all nondeterministic inputs an execution consumed.
///
/// It has no persisted form of its own: a recorded [`Trace`] carries
/// the same inputs in its `DevRead` events, and
/// [`Trace::io_log`] projects them back out.
///
/// [`Trace`]: crate::Trace
/// [`Trace::io_log`]: crate::Trace::io_log
#[derive(Clone, Default, PartialEq, Eq, Debug, Serialize)]
pub struct IoLog {
    /// Events in consumption order.
    pub events: Vec<InputEvent>,
}

/// Whether the kernel records fresh inputs or replays a log.
#[derive(Clone, Debug, Default)]
pub enum IoMode {
    /// Consume real (host-pushed or synthesized) inputs, recording them.
    #[default]
    Record,
    /// Reproduce inputs from a previous run's log.
    Replay(IoLog),
}

/// The kernel's device state.
#[derive(Debug)]
pub(crate) struct DeviceHub {
    mode: IoMode,
    recorded: IoLog,
    replay_next: usize,
    inputs: BTreeMap<DeviceId, VecDeque<Vec<u8>>>,
    outputs: BTreeMap<DeviceId, Vec<u8>>,
    clock_now_ns: u64,
    clock_step_ns: u64,
    rng_state: u64,
    seq: u64,
}

impl DeviceHub {
    pub(crate) fn new(mode: IoMode) -> DeviceHub {
        DeviceHub {
            mode,
            recorded: IoLog::default(),
            replay_next: 0,
            inputs: BTreeMap::new(),
            outputs: BTreeMap::new(),
            clock_now_ns: 0,
            clock_step_ns: 1_000_000,
            rng_state: 0x9e37_79b9_7f4a_7c15,
            seq: 0,
        }
    }

    /// Host side: queue input for a device.
    pub(crate) fn push_input(&mut self, dev: DeviceId, data: Vec<u8>) {
        self.inputs.entry(dev).or_default().push_back(data);
    }

    /// Root space: consume the next input from `dev`.
    pub(crate) fn read(
        &mut self,
        dev: DeviceId,
    ) -> Result<Option<Vec<u8>>, crate::error::KernelError> {
        let data = match &self.mode {
            IoMode::Replay(log) => {
                let ev = log
                    .events
                    .get(self.replay_next)
                    .ok_or(crate::error::KernelError::ReplayDivergence("log exhausted"))?;
                if ev.device != dev {
                    return Err(crate::error::KernelError::ReplayDivergence(
                        "device mismatch",
                    ));
                }
                self.replay_next += 1;
                ev.data.clone()
            }
            IoMode::Record => {
                let fresh = match self.inputs.get_mut(&dev).and_then(|q| q.pop_front()) {
                    Some(d) => Some(d),
                    None => match dev {
                        DeviceId::Clock => {
                            self.clock_now_ns += self.clock_step_ns;
                            Some(self.clock_now_ns.to_le_bytes().to_vec())
                        }
                        DeviceId::Random => {
                            // SplitMix64 step: deterministic default
                            // entropy when the host supplies none.
                            self.rng_state = self.rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                            let mut z = self.rng_state;
                            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                            z ^= z >> 31;
                            Some(z.to_le_bytes().to_vec())
                        }
                        _ => None,
                    },
                };
                self.recorded.events.push(InputEvent {
                    seq: self.seq,
                    device: dev,
                    data: fresh.clone(),
                });
                self.seq += 1;
                fresh
            }
        };
        Ok(data)
    }

    /// Root space: append output bytes to `dev`.
    pub(crate) fn write(&mut self, dev: DeviceId, data: &[u8]) {
        self.outputs.entry(dev).or_default().extend_from_slice(data);
    }

    pub(crate) fn into_parts(self) -> (BTreeMap<DeviceId, Vec<u8>>, IoLog) {
        (self.outputs, self.recorded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushed_input_consumed_fifo_and_recorded() {
        let mut hub = DeviceHub::new(IoMode::Record);
        hub.push_input(DeviceId::ConsoleIn, b"one".to_vec());
        hub.push_input(DeviceId::ConsoleIn, b"two".to_vec());
        assert_eq!(
            hub.read(DeviceId::ConsoleIn).unwrap(),
            Some(b"one".to_vec())
        );
        assert_eq!(
            hub.read(DeviceId::ConsoleIn).unwrap(),
            Some(b"two".to_vec())
        );
        assert_eq!(hub.read(DeviceId::ConsoleIn).unwrap(), None);
        let (_, log) = hub.into_parts();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events[2].data, None);
    }

    #[test]
    fn synthesized_clock_and_random_are_deterministic() {
        let run = || {
            let mut hub = DeviceHub::new(IoMode::Record);
            let c1 = hub.read(DeviceId::Clock).unwrap();
            let r1 = hub.read(DeviceId::Random).unwrap();
            (c1, r1)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn replay_reproduces_and_detects_divergence() {
        let mut hub = DeviceHub::new(IoMode::Record);
        hub.push_input(DeviceId::ConsoleIn, b"x".to_vec());
        let a = hub.read(DeviceId::ConsoleIn).unwrap();
        let b = hub.read(DeviceId::Clock).unwrap();
        let (_, log) = hub.into_parts();

        let mut replay = DeviceHub::new(IoMode::Replay(log.clone()));
        assert_eq!(replay.read(DeviceId::ConsoleIn).unwrap(), a);
        assert_eq!(replay.read(DeviceId::Clock).unwrap(), b);
        // Exhausted log.
        assert!(replay.read(DeviceId::Clock).is_err());

        // Wrong device order diverges.
        let mut replay = DeviceHub::new(IoMode::Replay(log));
        assert!(replay.read(DeviceId::Clock).is_err());
    }

    #[test]
    fn outputs_accumulate() {
        let mut hub = DeviceHub::new(IoMode::Record);
        hub.write(DeviceId::ConsoleOut, b"hello ");
        hub.write(DeviceId::ConsoleOut, b"world");
        let (out, _) = hub.into_parts();
        assert_eq!(out[&DeviceId::ConsoleOut], b"hello world");
    }
}
