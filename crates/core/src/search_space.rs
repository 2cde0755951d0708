//! Scheduling-search-space accounting (§VI-B "High cost of scratchpad
//! allocation solved by CHORD").
//!
//! The paper quantifies why explicit scratchpad allocation is intractable for
//! DAG-level reuse through four multiplicative cost factors, and why CHORD's
//! hybrid design collapses the space. We reproduce each factor exactly (in
//! log-domain, via a Lanczos `ln Γ`, since the counts overflow anything
//! fixed-width):
//!
//! 1. **slice allocation** — choosing the per-tensor slice sizes subject to
//!    `ΣTᵢ_slice < size`: `C(size+T−1, T−1) ≈ size^(T−1)/(T−1)!`;
//! 2. **arrangement** — ordering tensor blocks: `T!` under contiguity
//!    (vs `size!` without);
//! 3. **slice choice** — which elements make up each slice:
//!    `∏ᵢ (Tᵢ − Tᵢ_slice)` under contiguity (vs binomials without);
//! 4. **time variation** — the allocation changes as the program advances,
//!    raising the static product to the number of re-allocation steps.
//!
//! CHORD's design space, by contrast, is the RIFF policy's inputs:
//! `O(nodes + edges)` of DAG metadata — about 10² for ten CG iterations.

/// `ln Γ(x)` via the Lanczos approximation (g = 7, n = 9), accurate to ~1e-13
/// for x > 0 — plenty for log-domain combinatorics.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires positive x, got {x}");
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_81,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `log10 C(n, k)`.
pub fn log10_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n);
    let ln = ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0);
    ln / std::f64::consts::LN_10
}

/// `log10 n!`.
pub fn log10_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0) / std::f64::consts::LN_10
}

/// The §VI-B cost report for a buffer of `size` words shared by `tensor_words`
/// tensors (their full sizes), re-allocated over `time_steps` program points.
#[derive(Clone, Debug)]
pub struct SearchSpaceReport {
    /// Buffer capacity in words.
    pub size_words: u64,
    /// Number of contending tensors `T`.
    pub tensors: usize,
    /// log10 of factor (1): slice allocation `C(size+T−1, T−1)`.
    pub log10_slice_allocation: f64,
    /// log10 of factor (2): arrangement `T!` (contiguous blocks).
    pub log10_arrangement: f64,
    /// log10 of factor (3): slice choice `∏(Tᵢ − Tᵢ_slice)` (contiguous).
    pub log10_slice_choice: f64,
    /// log10 of the static product (1)·(2)·(3).
    pub log10_static_total: f64,
    /// log10 after raising to `time_steps` (factor 4).
    pub log10_time_varying: f64,
    /// CHORD's alternative: `nodes + edges` policy inputs.
    pub chord_design_points: u64,
}

/// Computes the report. `tensor_words[i]` is tensor *i*'s full size; the
/// nominal slice assumed for factor (3) is an even split `size/T`.
pub fn scratchpad_search_space(
    size_words: u64,
    tensor_words: &[u64],
    time_steps: u32,
    dag_nodes: usize,
    dag_edges: usize,
) -> SearchSpaceReport {
    let t = tensor_words.len() as u64;
    assert!(t >= 1);
    let log10_slice_allocation = log10_choose(size_words + t - 1, t - 1);
    let log10_arrangement = log10_factorial(t);
    let slice = size_words / t;
    let log10_slice_choice: f64 = tensor_words
        .iter()
        .map(|&ti| (ti.saturating_sub(slice).max(1) as f64).log10())
        .sum();
    let log10_static_total = log10_slice_allocation + log10_arrangement + log10_slice_choice;
    SearchSpaceReport {
        size_words,
        tensors: tensor_words.len(),
        log10_slice_allocation,
        log10_arrangement,
        log10_slice_choice,
        log10_static_total,
        log10_time_varying: log10_static_total * time_steps as f64,
        chord_design_points: (dag_nodes + dag_edges) as u64,
    }
}

/// Op-by-op (baseline) buffer-allocation space: each of `ops` operations
/// independently splits the buffer among its `tensors_per_op` operands —
/// `ops × C(size+T−1, T−1)` total configurations examined. Returns log10.
pub fn op_by_op_search_space(size_words: u64, tensors_per_op: u64, ops: u64) -> f64 {
    (ops as f64).log10() + log10_choose(size_words + tensors_per_op - 1, tensors_per_op - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn choose_small_cases() {
        assert!((log10_choose(5, 2) - 1.0).abs() < 1e-10); // C(5,2)=10
        assert!((log10_choose(10, 0)).abs() < 1e-10); // 1
        assert!((log10_choose(52, 5) - (2_598_960f64).log10()).abs() < 1e-9);
    }

    #[test]
    fn factorial_small_cases() {
        assert!((log10_factorial(5) - 120f64.log10()).abs() < 1e-10);
        assert!((log10_factorial(0)).abs() < 1e-10);
    }

    /// The paper's headline: slice allocation for a 4 MB buffer (32-bit words)
    /// and 5 tensors is ≈ size⁴ ≈ 10²⁴, and the full static product with
    /// CG-sized tensors lands in the 10⁵⁰–10⁸⁰+ regime the paper summarizes
    /// as "approximately 10⁸⁰"; with time variation it blows far past it.
    #[test]
    fn paper_scale_reproduction() {
        let size = (4u64 << 20) / 4; // 1 Mi words
        let tensors = [1_310_720u64; 5]; // five 5.24 MB CG tensors (M=81920, N=16)
        let r = scratchpad_search_space(size, &tensors, 7, 70, 100);
        // size^4/4! ~ 10^22.8
        assert!(r.log10_slice_allocation > 22.0 && r.log10_slice_allocation < 24.5);
        assert!((r.log10_arrangement - 2.079).abs() < 0.01); // 5! = 120
        assert!(r.log10_slice_choice > 25.0); // five ~10^5.7 terms... (10^29)
        assert!(r.log10_static_total > 50.0);
        assert!(r.log10_time_varying > 80.0, "{}", r.log10_time_varying);
        // CHORD: O(nodes+edges) ~ 10^2.
        assert_eq!(r.chord_design_points, 170);
        assert!((r.chord_design_points as f64).log10() < 3.0);
    }

    /// Intro's op-by-op number: ~10^12–10^16 depending on granularity — vastly
    /// below the DAG-level 10^80 but vastly above CHORD's 10^2.
    #[test]
    fn op_by_op_between_chord_and_dag() {
        let size = (4u64 << 20) / 4;
        let per_op = op_by_op_search_space(size, 3, 7);
        assert!(per_op > 10.0 && per_op < 17.0, "{per_op}");
        let tensors = [1_310_720u64; 5];
        let dag = scratchpad_search_space(size, &tensors, 7, 70, 100);
        assert!(per_op < dag.log10_static_total);
    }

    /// The reduction factor CHORD buys: ≥ 10^78 fewer design points.
    #[test]
    fn chord_reduction_factor() {
        let size = (4u64 << 20) / 4;
        let tensors = [1_310_720u64; 5];
        let r = scratchpad_search_space(size, &tensors, 7, 70, 100);
        let chord_log10 = (r.chord_design_points as f64).log10();
        assert!(r.log10_time_varying - chord_log10 > 78.0);
    }

    #[test]
    fn monotone_in_tensor_count() {
        let size = 1u64 << 20;
        let a = scratchpad_search_space(size, &[size; 3], 1, 10, 10);
        let b = scratchpad_search_space(size, &[size; 6], 1, 10, 10);
        assert!(b.log10_static_total > a.log10_static_total);
    }
}
