//! Quantization utilities matching the accelerator's arithmetic.
//!
//! Gemmini's integer pipeline takes int8 inputs, accumulates in int32 inside
//! the accumulator SRAM, then scales and saturates back to int8 on the way
//! out (optionally fused with ReLU/ReLU6). These helpers are the golden
//! model of that datapath; the simulator's peripheral circuitry must agree
//! with them bit-for-bit.

/// Scaling parameters applied when narrowing an i32 accumulator value back
/// to i8 (`y = clamp(round(x * scale))`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Multiplicative scale applied to the accumulator value.
    pub scale: f32,
}

impl QuantParams {
    /// Identity-ish default used by tests: scale small enough that typical
    /// accumulations land in range.
    pub fn new(scale: f32) -> Self {
        Self { scale }
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        Self { scale: 1.0 }
    }
}

/// Output scale used for conv/matmul layers of reduction depth `k`: keeps
/// int8 outputs well-spread for the synthetic value distribution
/// (uniform in [-64, 63]).
pub fn scale_for_k(k: usize) -> f32 {
    2.0 / (64.0 * (k as f32).sqrt())
}

/// Narrows one accumulator value to i8 with round-to-nearest-even and
/// saturation — the accumulator's output stage.
///
/// The product `acc · scale` is formed in f64 and rounded half to even,
/// with a tie window of `f64::EPSILON` around ±0.5: the one double between
/// 0.5 and 0.5 + 2⁻⁵², 0.5 + 2⁻⁵³, reads 0 in either sign, not ±1. NaN
/// products (`0 × inf`, a NaN scale) read 0 and infinite ones saturate.
///
/// # Example
///
/// ```
/// use gemmini_dnn::quant::{requantize, QuantParams};
/// assert_eq!(requantize(1000, QuantParams::new(0.1)), 100);
/// assert_eq!(requantize(10_000, QuantParams::new(0.1)), 127); // saturates
/// assert_eq!(requantize(-10_000, QuantParams::new(0.1)), -128);
/// ```
#[inline]
pub fn requantize(acc: i32, params: QuantParams) -> i8 {
    // Adding and subtracting 1.5·2⁵² rounds any |y| ≤ 2⁵¹ to an integer,
    // half to even, in the default rounding mode. It is plain SSE2
    // arithmetic, where `floor`, `round` and `round_ties_even` are library
    // calls on baseline x86_64.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let y = acc as f64 * params.scale as f64;
    // Rounding is monotone and keeps the integer bounds, so clamping first
    // gives the same i8 and keeps `y` inside the rounder's range. NaN
    // passes through the clamp and `as` casts it to 0.
    let y = y.clamp(i8::MIN as f64, i8::MAX as f64);
    let r = (y + ROUND) - ROUND;
    let r = if y.abs() < 0.5 + f64::EPSILON { 0.0 } else { r };
    r as i8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Network;
    use crate::{loader, zoo};
    use std::collections::BTreeSet;

    /// The floor/round formula `requantize` replaced: round half to even
    /// where `x - floor(x)` is within `f64::EPSILON` of 0.5, half away
    /// from zero elsewhere. The oracle every equivalence test compares
    /// against.
    fn reference(acc: i32, params: QuantParams) -> i8 {
        let x = acc as f64 * params.scale as f64;
        let floor = x.floor();
        let frac = x - floor;
        let rounded = if (frac - 0.5).abs() < f64::EPSILON {
            if (floor as i64) % 2 == 0 {
                floor
            } else {
                floor + 1.0
            }
        } else {
            x.round()
        };
        rounded.clamp(i8::MIN as f64, i8::MAX as f64) as i8
    }

    /// Asserts `requantize` equals the oracle for every `acc` in `range`.
    fn check_range(range: std::ops::RangeInclusive<i32>, params: QuantParams) {
        for acc in range {
            assert_eq!(
                requantize(acc, params),
                reference(acc, params),
                "acc {acc} scale {:e}",
                params.scale
            );
        }
    }

    /// Every `acc` whose product with `scale` does not saturate, and a
    /// margin past both ends.
    fn non_saturating(scale: f32) -> std::ops::RangeInclusive<i32> {
        let bound = (130.0 / (scale as f64).abs()).min(i32::MAX as f64) as i32;
        -bound..=bound
    }

    #[test]
    fn scale_formula_keeps_outputs_in_range() {
        // For uniform [-64,63] operands the scaled std stays well inside i8.
        for k in [9usize, 64, 576, 2048] {
            let s = scale_for_k(k);
            let acc_std = 64.0f32 / (3.0f32).sqrt() * (k as f32).sqrt() * 36.9;
            let out_std = acc_std * s;
            assert!(out_std < 127.0 * 10.0, "k={k} out_std={out_std}");
            assert!(s > 0.0);
        }
    }

    #[test]
    fn requantize_scales_and_rounds() {
        assert_eq!(requantize(100, QuantParams::new(0.5)), 50);
        assert_eq!(requantize(101, QuantParams::new(0.5)), 50); // 50.5 rounds to even
        assert_eq!(requantize(103, QuantParams::new(0.5)), 52); // 51.5 rounds to even 52
        assert_eq!(requantize(-100, QuantParams::new(0.5)), -50);
    }

    #[test]
    fn requantize_saturates_both_ends() {
        assert_eq!(requantize(i32::MAX, QuantParams::new(1.0)), 127);
        assert_eq!(requantize(i32::MIN, QuantParams::new(1.0)), -128);
    }

    #[test]
    fn identity_scale_passes_small_values() {
        for v in -128..=127 {
            assert_eq!(requantize(v, QuantParams::default()), v as i8);
        }
    }

    #[test]
    fn ties_round_to_even() {
        let half = QuantParams::new(0.5);
        assert_eq!(requantize(1, half), 0);
        assert_eq!(requantize(3, half), 2);
        assert_eq!(requantize(5, half), 2);
        assert_eq!(requantize(-1, half), 0);
        assert_eq!(requantize(-3, half), -2);
        assert_eq!(requantize(14, QuantParams::new(0.1)), 1); // 1.4
    }

    #[test]
    fn tie_window_reads_zero() {
        // |acc · scale| is 0.5 + 2⁻⁵³, inside the window: plain round half
        // to even would give ±1.
        let params = QuantParams::new(1.619_373_2e-9);
        for acc in [308_761_441, -308_761_441] {
            let y = acc as f64 * params.scale as f64;
            assert_eq!(y.abs(), 0.5 + f64::EPSILON / 2.0);
            assert_eq!(y.round_ties_even().abs(), 1.0);
            assert_eq!(requantize(acc, params), 0);
            assert_eq!(reference(acc, params), 0);
        }
    }

    #[test]
    fn non_finite_products() {
        let (nan, inf) = (QuantParams::new(f32::NAN), QuantParams::new(f32::INFINITY));
        for acc in [i32::MIN, -1, 0, 1, i32::MAX] {
            assert_eq!(requantize(acc, nan), 0, "NaN scale, acc {acc}");
        }
        // 0 × inf is NaN.
        assert_eq!(requantize(0, inf), 0);
        assert_eq!(requantize(0, QuantParams::new(f32::NEG_INFINITY)), 0);
        assert_eq!(requantize(1, inf), 127);
        assert_eq!(requantize(-1, inf), -128);
        assert_eq!(requantize(1, QuantParams::new(f32::NEG_INFINITY)), -128);
        assert_eq!(requantize(-1, QuantParams::new(f32::NEG_INFINITY)), 127);
    }

    #[test]
    fn equals_reference_on_special_scales() {
        for scale in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ] {
            let params = QuantParams::new(scale);
            check_range(-70_000..=70_000, params);
            check_range(i32::MAX - 1000..=i32::MAX, params);
            check_range(i32::MIN..=i32::MIN + 1000, params);
        }
    }

    #[test]
    fn equals_reference_for_small_reduction_depths() {
        for k in 1..=64 {
            check_range(
                non_saturating(scale_for_k(k)),
                QuantParams::new(scale_for_k(k)),
            );
        }
    }

    #[test]
    fn equals_reference_on_random_pairs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(30);
        for i in 0..1_000_000 {
            // Any f32 bit pattern half the time, a plausible scale otherwise;
            // accumulators of every magnitude.
            let scale = if i % 2 == 0 {
                f32::from_bits(rng.gen())
            } else {
                rng.gen_range(1e-9f32..2.0)
            };
            let acc = rng.gen::<i32>() >> rng.gen_range(0u32..32);
            let params = QuantParams::new(scale);
            assert_eq!(
                requantize(acc, params),
                reference(acc, params),
                "acc {acc} scale {scale:e}"
            );
        }
    }

    /// Every scale the runtime gives a layer of a zoo network or a shipped
    /// `.gnn` model: one per distinct reduction depth.
    fn model_scales() -> BTreeSet<u32> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models");
        let mut nets: Vec<Network> = zoo::all();
        nets.push(zoo::tiny_cnn());
        for entry in std::fs::read_dir(dir).expect("models directory") {
            let path = entry.expect("models entry").path();
            if path.extension().is_some_and(|e| e == "gnn") {
                let text = std::fs::read_to_string(&path).expect("model file");
                nets.push(loader::parse_network(&text).expect("shipped model parses"));
            }
        }
        nets.iter()
            .flat_map(|net| net.layers())
            .filter_map(|nl| nl.layer.as_gemm())
            .map(|(_, k, _)| scale_for_k(k).to_bits())
            .collect()
    }

    /// The whole non-saturating range of every model scale, and scale 1.0
    /// (the residual-add and test scale) over all of i32.
    #[test]
    #[ignore = "slow: run with --release -- --include-ignored"]
    fn equals_reference_exhaustive() {
        let scales = model_scales();
        assert!(scales.len() > 20, "only {} model scales", scales.len());
        for bits in scales {
            let params = QuantParams::new(f32::from_bits(bits));
            check_range(non_saturating(params.scale), params);
        }
        // 2³² cases: one slice of i32 per available CPU.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as i64;
        let span = (1i64 << 32) / threads;
        std::thread::scope(|s| {
            for t in 0..threads {
                let lo = i32::MIN as i64 + t * span;
                let hi = if t + 1 == threads {
                    i32::MAX as i64
                } else {
                    lo + span - 1
                };
                s.spawn(move || check_range(lo as i32..=hi as i32, QuantParams::new(1.0)));
            }
        });
    }
}
