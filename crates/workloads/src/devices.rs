//! Device classes: speed relative to the reference device, memory cap `B̂ᵐᵃˣ`
//! (95% GPU memory, paper footnote 5) and saturation point `B̂ᵐⁱⁿ` (paper
//! footnote 4) used as the box constraints in AntDT-DD's Eq. 4.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceClass {
    pub name: &'static str,
    /// Throughput multiplier on the reference device (reference = 1.0).
    pub speed: f64,
    /// `B̂ᵐⁱⁿ` — smallest batch worth scheduling (below it the BPT is flat).
    pub saturation_batch: u64,
    /// `B̂ᵐᵃˣ` — largest batch that fits in memory.
    pub mem_cap_batch: u64,
}

impl DeviceClass {
    /// Tesla V100 — the reference GPU (paper: "V100s are consistently about
    /// three times faster than P100").
    pub fn v100() -> Self {
        DeviceClass { name: "V100", speed: 1.0, saturation_batch: 16, mem_cap_batch: 112 }
    }

    /// Tesla P100 — 1/3 of V100 throughput, slightly smaller usable batch.
    pub fn p100() -> Self {
        DeviceClass { name: "P100", speed: 1.0 / 3.0, saturation_batch: 16, mem_cap_batch: 96 }
    }

    /// P100 under a memory-bandwidth-bound model (MobileNets): the gap to the
    /// V100 widens to ~3.5×.
    pub fn p100_membound() -> Self {
        DeviceClass { name: "P100", speed: 1.0 / 3.5, saturation_batch: 16, mem_cap_batch: 96 }
    }

    /// A 16-core CPU worker — the reference device for CPU profiles.
    pub fn cpu_worker() -> Self {
        DeviceClass { name: "cpu16", speed: 1.0, saturation_batch: 1, mem_cap_batch: u64::MAX / 2 }
    }

    /// A parameter-server node (4–12 cores; only relative speed matters).
    pub fn cpu_server() -> Self {
        DeviceClass {
            name: "cpu-server",
            speed: 1.0,
            saturation_batch: 1,
            mem_cap_batch: u64::MAX / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_is_three_times_p100() {
        let r = DeviceClass::v100().speed / DeviceClass::p100().speed;
        assert!((r - 3.0).abs() < 1e-9);
    }

    #[test]
    fn caps_are_sane() {
        for d in [DeviceClass::v100(), DeviceClass::p100(), DeviceClass::cpu_worker()] {
            assert!(d.saturation_batch <= d.mem_cap_batch, "{}", d.name);
            assert!(d.speed > 0.0);
        }
    }
}
