//! Whole-network CPU execution cost — the Fig. 7 baseline.

use crate::model::CpuModel;
use gemmini_dnn::graph::Network;

/// Cycles for the CPU to run every layer of `net` in software.
///
/// # Example
///
/// ```
/// use gemmini_cpu::model::{CpuKind, CpuModel};
/// use gemmini_cpu::kernels::network_cpu_cycles;
/// use gemmini_dnn::zoo;
/// let cycles = network_cpu_cycles(&CpuModel::new(CpuKind::Rocket), &zoo::resnet50());
/// assert!(cycles > 100_000_000_000); // ~117 G cycles at the calibration
/// ```
pub fn network_cpu_cycles(model: &CpuModel, net: &Network) -> u64 {
    net.layers()
        .iter()
        .map(|l| model.layer_cycles(&l.layer))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CpuKind;
    use gemmini_dnn::graph::LayerClass;
    use gemmini_dnn::zoo;

    /// Cycles for the CPU to run only the layers of one class.
    fn class_cycles(model: &CpuModel, net: &Network, class: LayerClass) -> u64 {
        net.layers()
            .iter()
            .filter(|l| l.layer.class() == class)
            .map(|l| model.layer_cycles(&l.layer))
            .sum()
    }

    #[test]
    fn resnet50_rocket_matches_calibration_anchor() {
        // Fig. 7 anchor: 2,670x over a 43.9 M-cycle accelerator run
        // ⇒ ≈117 G Rocket cycles.
        let cycles = network_cpu_cycles(&CpuModel::new(CpuKind::Rocket), &zoo::resnet50());
        let g = cycles as f64 / 1e9;
        assert!(g > 100.0 && g < 135.0, "ResNet50 Rocket = {g:.1} G cycles");
    }

    #[test]
    fn class_cycles_partition_the_total() {
        let m = CpuModel::new(CpuKind::Rocket);
        let net = zoo::resnet50();
        let total = network_cpu_cycles(&m, &net);
        let by_class: u64 = [
            LayerClass::Conv,
            LayerClass::Matmul,
            LayerClass::ResAdd,
            LayerClass::Pool,
            LayerClass::Norm,
        ]
        .iter()
        .map(|&c| class_cycles(&m, &net, c))
        .sum();
        assert_eq!(total, by_class);
    }

    #[test]
    fn conv_dominates_resnet_cpu_time() {
        let m = CpuModel::new(CpuKind::Rocket);
        let net = zoo::resnet50();
        let conv = class_cycles(&m, &net, LayerClass::Conv);
        let total = network_cpu_cycles(&m, &net);
        assert!(conv as f64 / total as f64 > 0.95);
    }

    #[test]
    fn bert_on_rocket_is_tens_of_gigacycles() {
        // Matmul-dominated at 3 cycles/MAC: ≈ 34 G + norm ops.
        let cycles = network_cpu_cycles(&CpuModel::new(CpuKind::Rocket), &zoo::bert_base());
        let g = cycles as f64 / 1e9;
        assert!(g > 25.0 && g < 50.0, "BERT Rocket = {g:.1} G cycles");
    }
}
