//! The network cost model.

/// Link parameters for the simulated interconnect.
///
/// The paper's protocol "runs directly atop Ethernet" with two
/// request/response message types and no TCP; the `tcp_like` flag adds
/// the round-trip timing and retransmission overhead the authors
/// measured at under 2 % (§6.3) for the ablation in Figure 12.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// One-way message latency in picoseconds.
    pub latency_ps: u64,
    /// Transfer cost per byte in picoseconds (inverse bandwidth).
    pub per_byte_ps: u64,
    /// Add TCP-like acking/windowing overhead.
    pub tcp_like: bool,
}

impl NetworkModel {
    /// Gigabit Ethernet with commodity-switch latency (~80 µs one-way
    /// through the 2009-era software stack, 1 Gbit/s ≈ 8 ns/byte).
    pub fn ethernet_1g() -> NetworkModel {
        NetworkModel {
            latency_ps: 80_000_000,
            per_byte_ps: 8_000,
            tcp_like: false,
        }
    }

    /// The same link with TCP-like round-trip behaviour.
    pub fn ethernet_1g_tcp() -> NetworkModel {
        NetworkModel {
            tcp_like: true,
            ..NetworkModel::ethernet_1g()
        }
    }

    /// Cost of one one-way message of `bytes` payload.
    pub fn message_ps(&self, bytes: u64) -> u64 {
        let base = self.latency_ps + self.per_byte_ps.saturating_mul(bytes);
        if self.tcp_like {
            // Delayed-ack / windowing overhead: ~1.5 % extra time.
            base + base / 64
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-page response (4 KiB of page plus its wire keys and
    /// lengths) costs more than the latency and less than two.
    #[test]
    fn page_message_dominated_by_latency_then_bytes() {
        let net = NetworkModel::ethernet_1g();
        let msg = net.message_ps(4096 + 64);
        assert!(msg > net.latency_ps);
        assert!(msg < 2 * net.latency_ps);
    }

    #[test]
    fn tcp_overhead_is_small() {
        for bytes in [64, 4096 + 64] {
            let plain = NetworkModel::ethernet_1g().message_ps(bytes) as f64;
            let tcp = NetworkModel::ethernet_1g_tcp().message_ps(bytes) as f64;
            let overhead = tcp / plain - 1.0;
            assert!(overhead > 0.0 && overhead < 0.02, "overhead {overhead}");
        }
    }
}
