//! The overlap-aware cycle timeline — *when* DRAM transfers happen.
//!
//! The engine walks phases and charges DRAM traffic; this module is the one
//! place that converts those per-phase byte demands into cycles under a
//! [`TransferTuning`].
//!
//! ## The model
//!
//! With prefetch depth `d = 0` (the default), every phase is serialized:
//!
//! ```text
//! t_p = max(compute_p, transfer(inbound_p + outbound_p)) + noc_p
//! ```
//!
//! — bit-identical to the pre-overlap engine.
//!
//! With `d ≥ 1`, a DMA engine may stage the *inbound* operands of up to `d`
//! upcoming phases while earlier phases execute. The ledger walks phases in
//! order and keeps a window of **prefetch credits**, in bytes:
//!
//! - while phase `q` runs for `t_q` cycles, the DRAM interface can move
//!   `t_q × B` bytes (`B` = bytes per cycle from [`CelloConfig::dram`]).
//!   With **double-buffering** the staging banks ping-pong, so the whole
//!   `t_q × B` is available to prefetch concurrently with `q`'s own demand
//!   traffic; **single-buffered** staging can only use the bandwidth `q`
//!   leaves idle, `max(0, t_q × B − exposed_bytes_q)`.
//! - phase `p` redeems credits minted by phases `p−d … p−1` (older credits
//!   expire — the staging region only holds `d` phases of operands), oldest
//!   first, each byte at most once. The redeemed amount — capped by `p`'s
//!   inbound bytes — is *hidden*; the rest stays exposed:
//!
//! ```text
//! hidden_p  = min(inbound_p, credits in window)
//! t_p       = max(compute_p, transfer(inbound_p − hidden_p + outbound_p), noc_p)
//! ```
//!
//! NoC exchanges fold into the same `max` when overlap is on: the mesh moves
//! words while compute and the DMA engine run. Outbound bytes are never
//! prefetched (they do not exist until the phase computes them) and the
//! terminal drain writeback stays fully exposed.
//!
//! Overlap is paid for in SRAM: each unit of depth carves
//! [`CelloConfig::staging_quantum_words`] (×2 when double-buffered) out of
//! CHORD's capacity — see
//! [`crate::evaluate::phase_chord_capacity_words`].

use cello_core::accel::CelloConfig;
use cello_core::score::transfer::TransferTuning;
use std::collections::VecDeque;

/// One phase's timing under the ledger: how long it ran and how much of its
/// DRAM traffic stayed exposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Cycles the phase occupies on the timeline (compute, exposed transfer
    /// and NoC combined per the model above).
    pub cycles: u64,
    /// Transfer cycles for the *exposed* DRAM bytes — equals the full
    /// transfer time at depth 0. This is what [`crate::report::RunReport`]
    /// records as the phase's memory cycles.
    pub exposed_mem_cycles: u64,
}

/// Incremental credit ledger for one schedule walk. Feed it phases in
/// execution order via [`OverlapLedger::phase`]; the drain writeback goes
/// through [`OverlapLedger::drain`].
#[derive(Clone, Debug)]
pub struct OverlapLedger {
    tuning: TransferTuning,
    accel: CelloConfig,
    /// DRAM bytes the interface moves per core cycle.
    bytes_per_cycle: f64,
    /// Open credits: `(minting phase index, remaining bytes)`.
    credits: VecDeque<(u64, u64)>,
    /// Index of the next phase to be fed.
    next_phase: u64,
}

impl OverlapLedger {
    /// A ledger for one walk of a schedule tuned by `tuning` on `accel`.
    pub fn new(tuning: TransferTuning, accel: &CelloConfig) -> Self {
        Self {
            tuning: tuning.normalized(),
            accel: *accel,
            bytes_per_cycle: accel.dram.bandwidth_bytes_per_sec / accel.freq_hz,
            credits: VecDeque::new(),
            next_phase: 0,
        }
    }

    /// Times the next phase: `compute` cycles of MAC work, `inbound_bytes`
    /// of DRAM reads, `outbound_bytes` of DRAM writes, `noc_cycles` of
    /// inter-node exchange.
    pub fn phase(
        &mut self,
        compute: u64,
        inbound_bytes: u64,
        outbound_bytes: u64,
        noc_cycles: u64,
    ) -> PhaseTiming {
        let p = self.next_phase;
        self.next_phase += 1;
        let total_bytes = inbound_bytes.saturating_add(outbound_bytes);
        if self.tuning.is_off() {
            // Serialized model, bit-identical to the pre-overlap engine.
            let mem = self
                .accel
                .dram
                .transfer_cycles(total_bytes, self.accel.freq_hz);
            return PhaseTiming {
                cycles: compute.max(mem) + noc_cycles,
                exposed_mem_cycles: mem,
            };
        }
        let depth = self.tuning.prefetch_depth as u64;
        // Expire credits older than the staging window [p−d, p−1].
        while let Some(&(minted, _)) = self.credits.front() {
            if minted + depth < p {
                self.credits.pop_front();
            } else {
                break;
            }
        }
        // Redeem oldest-first, each byte at most once, capped by inbound.
        let mut hidden = 0u64;
        while hidden < inbound_bytes {
            let Some(front) = self.credits.front_mut() else {
                break;
            };
            let take = front.1.min(inbound_bytes - hidden);
            hidden += take;
            front.1 -= take;
            if front.1 == 0 {
                self.credits.pop_front();
            }
        }
        let exposed_bytes = (inbound_bytes - hidden).saturating_add(outbound_bytes);
        let exposed_mem_cycles = self
            .accel
            .dram
            .transfer_cycles(exposed_bytes, self.accel.freq_hz);
        let cycles = compute.max(exposed_mem_cycles).max(noc_cycles);
        // Mint this phase's prefetch credit for the next `depth` phases.
        let moved = cycles as f64 * self.bytes_per_cycle;
        let credit = if self.tuning.double_buffer {
            moved as u64
        } else {
            (moved - exposed_bytes as f64).max(0.0) as u64
        };
        if credit > 0 {
            self.credits.push_back((p, credit));
        }
        PhaseTiming {
            cycles,
            exposed_mem_cycles,
        }
    }

    /// Times the terminal drain writeback: always fully exposed (there is no
    /// later compute to hide behind), identical at every depth.
    pub fn drain(&self, outbound_bytes: u64) -> u64 {
        self.accel
            .dram
            .transfer_cycles(outbound_bytes, self.accel.freq_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accel() -> CelloConfig {
        // paper(): 1 TB/s at 1 GHz = 1000 B/cycle.
        CelloConfig::paper()
    }

    fn serialized(compute: u64, bytes: u64, noc: u64, accel: &CelloConfig) -> u64 {
        compute.max(accel.dram.transfer_cycles(bytes, accel.freq_hz)) + noc
    }

    #[test]
    fn depth_zero_is_bit_identical_to_serialized_model() {
        let a = accel();
        let mut ledger = OverlapLedger::new(TransferTuning::off(), &a);
        for (c, inb, outb, noc) in [(500, 400_000, 100_000, 0), (10, 5, 7, 3), (0, 0, 0, 0)] {
            let t = ledger.phase(c, inb, outb, noc);
            assert_eq!(t.cycles, serialized(c, inb + outb, noc, &a));
            assert_eq!(
                t.exposed_mem_cycles,
                a.dram.transfer_cycles(inb + outb, a.freq_hz)
            );
        }
        // A depth-0-with-db request normalizes to the same thing.
        let mut db0 = OverlapLedger::new(
            TransferTuning {
                prefetch_depth: 0,
                double_buffer: true,
            },
            &a,
        );
        assert_eq!(db0.phase(500, 400_000, 100_000, 0).cycles, 500);
    }

    #[test]
    fn first_phase_has_no_credit() {
        let a = accel();
        let mut ledger = OverlapLedger::new(TransferTuning::double_buffered(2), &a);
        // No earlier phase minted credit: fully exposed.
        let t = ledger.phase(100, 500_000, 0, 0);
        assert_eq!(t.exposed_mem_cycles, 500);
        assert_eq!(t.cycles, 500);
    }

    #[test]
    fn double_buffer_hides_inbound_behind_prior_phase() {
        let a = accel();
        let mut ledger = OverlapLedger::new(TransferTuning::double_buffered(1), &a);
        // Phase 0: compute-bound for 1000 cycles → mints 1_000_000 B credit.
        let t0 = ledger.phase(1000, 0, 0, 0);
        assert_eq!(t0.cycles, 1000);
        // Phase 1: 600_000 B inbound fully hidden; 100_000 B outbound exposed.
        let t1 = ledger.phase(50, 600_000, 100_000, 0);
        assert_eq!(t1.exposed_mem_cycles, 100);
        assert_eq!(t1.cycles, 100);
    }

    #[test]
    fn single_buffer_only_uses_idle_bandwidth() {
        let a = accel();
        let mut ledger = OverlapLedger::new(TransferTuning::single_buffered(1), &a);
        // Phase 0 runs 1000 cycles but moves 800_000 B of its own traffic:
        // idle bandwidth credit = 1_000_000 − 800_000 = 200_000 B.
        let t0 = ledger.phase(1000, 800_000, 0, 0);
        assert_eq!(t0.cycles, 1000);
        let t1 = ledger.phase(0, 500_000, 0, 0);
        // Only 200_000 B hidden → 300_000 B exposed.
        assert_eq!(t1.exposed_mem_cycles, 300);
    }

    #[test]
    fn credits_expire_outside_the_window() {
        let a = accel();
        let mut ledger = OverlapLedger::new(TransferTuning::double_buffered(1), &a);
        ledger.phase(1000, 0, 0, 0); // mints 1_000_000 B, valid only for phase 1
        ledger.phase(1, 0, 0, 0); // phase 1 redeems nothing; mints 1000 B
        let t2 = ledger.phase(0, 500_000, 0, 0);
        // Phase 0's credit expired; only phase 1's 1000 B applies.
        assert_eq!(t2.exposed_mem_cycles, 499);
    }

    #[test]
    fn credits_are_never_double_spent() {
        let a = accel();
        let mut ledger = OverlapLedger::new(TransferTuning::double_buffered(2), &a);
        ledger.phase(300, 0, 0, 0); // 300_000 B credit
        let t1 = ledger.phase(0, 200_000, 0, 0); // redeems 200_000
        assert_eq!(t1.exposed_mem_cycles, 0);
        // 100_000 B left from phase 0 (+0 from phase 1: zero-cycle phases
        // mint nothing meaningful — t1 took 0 cycles).
        let t2 = ledger.phase(0, 200_000, 0, 0);
        assert_eq!(t2.exposed_mem_cycles, 100);
    }

    #[test]
    fn noc_folds_into_the_max_when_overlapped() {
        let a = accel();
        let mut serial = OverlapLedger::new(TransferTuning::off(), &a);
        assert_eq!(serial.phase(100, 0, 0, 40).cycles, 140);
        let mut over = OverlapLedger::new(TransferTuning::double_buffered(1), &a);
        assert_eq!(over.phase(100, 0, 0, 40).cycles, 100);
        assert_eq!(over.phase(10, 0, 0, 40).cycles, 40, "NoC-bound phase");
    }

    #[test]
    fn overlap_never_beats_the_roofline_or_loses_to_serial() {
        let a = accel();
        let phases = [
            (1000u64, 500_000u64, 100_000u64, 20u64),
            (10, 900_000, 0, 0),
            (5000, 250_000, 250_000, 100),
            (0, 100_000, 50_000, 0),
        ];
        for tuning in [
            TransferTuning::single_buffered(1),
            TransferTuning::double_buffered(1),
            TransferTuning::double_buffered(3),
        ] {
            let mut ledger = OverlapLedger::new(tuning, &a);
            for &(c, inb, outb, noc) in &phases {
                let t = ledger.phase(c, inb, outb, noc);
                let full = a.dram.transfer_cycles(inb + outb, a.freq_hz);
                assert!(t.cycles >= c.max(noc), "floor: compute/noc not hidable");
                assert!(t.cycles <= c.max(full) + noc, "never worse than serial");
                assert!(t.exposed_mem_cycles <= full);
            }
        }
    }

    #[test]
    fn drain_is_fully_exposed_at_every_depth() {
        let a = accel();
        let serial = OverlapLedger::new(TransferTuning::off(), &a);
        let deep = OverlapLedger::new(TransferTuning::double_buffered(4), &a);
        assert_eq!(serial.drain(123_456), deep.drain(123_456));
        assert_eq!(serial.drain(123_456), 124);
    }
}
