//! Host-speed calibration.
//!
//! The host this benchmark was defined on (2 vCPUs of an Intel Xeon at
//! 2.1 GHz, shared with other tenants) drifts in speed: the best-of-R wall
//! of one ResNet50 point moved between 0.44 s and 0.53 s across 20 s
//! windows of a 10-minute run, and whole 20 s runs of `resnet50_tlb` read
//! up to 60% slower than others. A fixed kernel timed in the same process
//! drifts with it: dividing a point's best-of wall by the kernel's best-of
//! time over the same window cut the window-to-window quartile spread
//! from 8.0% to 2.6%. The end-to-end times are therefore rescaled to the
//! host speed at which the kernel takes [`REFERENCE_S`].
//!
//! The kernel is benchmark code: a change to the simulator cannot make it
//! faster or slower, so a simulator speed-up shows in full.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's best time on the reference host, seconds.
pub const REFERENCE_S: f64 = 0.0175;

/// Calibration samples taken after each round's sweep.
pub const SAMPLES: usize = 4;

/// Times `n` runs of the kernel, in seconds: a fixed mix of the work the
/// simulator does, namely integer arithmetic, random read-modify-writes
/// within a 256 KiB working set, and random read-modify-writes over 8 MiB.
pub fn samples(n: usize) -> Vec<f64> {
    let mut near = vec![1u64; (256 << 10) / 8];
    let mut far = vec![1u64; (8 << 20) / 8];
    (0..n)
        .map(|_| {
            let start = Instant::now();
            black_box(compute(black_box(5_000_000)));
            black_box(scatter(&mut near, black_box(2_000_000)));
            black_box(scatter(&mut far, black_box(1_000_000)));
            start.elapsed().as_secs_f64()
        })
        .collect()
}

fn compute(n: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    acc
}

/// `n` dependent random read-modify-writes over `buf` (a power-of-two
/// length).
fn scatter(buf: &mut [u64], n: u64) -> u64 {
    let mask = buf.len() as u64 - 1;
    let mut x = 12345u64;
    let mut acc = 0u64;
    for _ in 0..n {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = ((x >> 20) & mask) as usize;
        acc ^= buf[i];
        buf[i] = buf[i].wrapping_add(acc | 1);
    }
    acc
}
