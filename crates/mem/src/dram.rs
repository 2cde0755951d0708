//! DRAM interface model: bandwidth for timing, picojoules for energy.
//!
//! Table V evaluates two memory bandwidths (250 GB/s and 1 TB/s) at a 1 GHz
//! core clock. Off-chip energy (Fig 14) is charged per byte moved; the default
//! constant corresponds to ~3.9 pJ/bit HBM-class signaling — only *relative*
//! energy appears in the paper, so the constant cancels in every reported
//! ratio.

/// Off-chip memory model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramModel {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Access energy in picojoules per byte.
    pub energy_pj_per_byte: f64,
}

impl DramModel {
    /// Paper configuration: 1 TB/s.
    pub fn one_tb_per_sec() -> Self {
        Self {
            bandwidth_bytes_per_sec: 1.0e12,
            energy_pj_per_byte: 31.2,
        }
    }

    /// Paper configuration: 250 GB/s.
    pub fn gb250_per_sec() -> Self {
        Self {
            bandwidth_bytes_per_sec: 250.0e9,
            energy_pj_per_byte: 31.2,
        }
    }

    /// Time (seconds) to transfer `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_sec
    }

    /// Cycles at `freq_hz` to transfer `bytes` (rounded up).
    pub fn transfer_cycles(&self, bytes: u64, freq_hz: f64) -> u64 {
        (self.transfer_time(bytes) * freq_hz).ceil() as u64
    }

    /// Energy (picojoules) to transfer `bytes`.
    pub fn transfer_energy_pj(&self, bytes: u64) -> f64 {
        bytes as f64 * self.energy_pj_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_at_1tbs() {
        let d = DramModel::one_tb_per_sec();
        assert!((d.transfer_time(1_000_000_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_round_up() {
        let d = DramModel::one_tb_per_sec();
        // 1 byte at 1 GHz over 1 TB/s = 0.001 cycles -> rounds to 1.
        assert_eq!(d.transfer_cycles(1, 1.0e9), 1);
        // 4096 bytes = 4.096 ns = 4.096 cycles -> 5.
        assert_eq!(d.transfer_cycles(4096, 1.0e9), 5);
    }

    #[test]
    fn bandwidth_ratio_is_four() {
        let fast = DramModel::one_tb_per_sec();
        let slow = DramModel::gb250_per_sec();
        let ratio = fast.bandwidth_bytes_per_sec / slow.bandwidth_bytes_per_sec;
        assert!((ratio - 4.0).abs() < 1e-12);
    }

    #[test]
    fn energy_linear_in_bytes() {
        let d = DramModel::one_tb_per_sec();
        assert!((d.transfer_energy_pj(100) - 3120.0).abs() < 1e-9);
    }
}
