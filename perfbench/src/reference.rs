//! Reference seconds: process CPU time scaled by how fast the host runs a
//! fixed kernel at the moment.
//!
//! On a shared host the same code runs at very different speeds from one
//! minute to the next, in CPU time as well as in wall time, because other
//! guests compete for the physical core's execution units. On a shared
//! 2-vCPU KVM guest (Intel Xeon, 2 threads), the SHA-256 kernel below ran
//! at 121 to 208 MB per CPU second across five 25 s runs, and the
//! `accession` and `custody` rates per CPU second moved with it (spreads
//! 0.20–0.32 over five runs). Those workloads therefore count time in
//! reference seconds: the CPU seconds a piece of work took, times the
//! kernel's speed right after it over its nominal speed. A host that slows
//! hashing by a third slows the kernel by about as much, and the two cancel
//! (spreads 0.04–0.07 over the same runs).
//!
//! Contention slows different work differently, so each workload names its
//! [`TimeBase`]. PergaNet's f32 training did not slow when hashing did:
//! scaling it by this kernel widened its spread from 0.07 to 0.23, and no
//! other kernel tried (f32 multiply-adds in L1 or L2, a `par_map` spawn
//! loop) tracked it reliably, so it counts plain CPU seconds. The kernel is written out here, with no dependency on the
//! program under test, so no change to the program moves it: a program that
//! does its work in fewer cycles shows as a higher rate per reference
//! second.

use crate::measure::Stopwatch;

/// How a workload counts the time behind its rates and set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeBase {
    /// Process CPU seconds as they are.
    Cpu,
    /// CPU seconds scaled by the speed of the SHA-256 kernel, for
    /// workloads whose dominant work is hashing.
    Sha256,
}

impl TimeBase {
    /// Reference seconds per CPU second right now: 1 for [`TimeBase::Cpu`];
    /// for [`TimeBase::Sha256`], the kernel's speed over its nominal speed,
    /// measured by running it for about 10 ms of CPU time.
    pub fn scale(self) -> f64 {
        match self {
            TimeBase::Cpu => 1.0,
            TimeBase::Sha256 => {
                let t = Stopwatch::start();
                let blocks = sha256_blocks();
                blocks / t.cpu_s() / NOMINAL_BLOCKS_PER_S
            }
        }
    }
}

/// Blocks per CPU second that count as speed 1 (128 MB/s, about the
/// kernel's speed on an uncontended core of the host above).
const NOMINAL_BLOCKS_PER_S: f64 = 2.0e6;
/// Blocks compressed per speed measurement.
const BLOCKS: u32 = 20_000;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The SHA-256 initial hash value.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One SHA-256 compression of `block` into `state` (FIPS 180-4, 6.2.2).
fn compress(state: &mut [u32; 8], block: &[u32; 16]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(block);
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (k, w) in K.iter().zip(w) {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(*k)
            .wrapping_add(w);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Compress [`BLOCKS`] blocks; returns the blocks compressed.
fn sha256_blocks() -> f64 {
    let mut state = std::hint::black_box(H0);
    let mut block = [0u32; 16];
    for n in 0..BLOCKS {
        block[0] = n;
        compress(&mut state, std::hint::black_box(&block));
    }
    std::hint::black_box(state);
    BLOCKS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_matches_sha256_of_abc() {
        // "abc" padded to one block; FIPS 180-4 example B.1.
        let mut block = [0u32; 16];
        block[0] = 0x61626380;
        block[15] = 24;
        let mut state = H0;
        compress(&mut state, &block);
        assert_eq!(
            state,
            [
                0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223, 0xb00361a3, 0x96177a9c, 0xb410ff61,
                0xf20015ad
            ]
        );
    }

    #[test]
    fn scales_are_positive_and_finite() {
        assert_eq!(TimeBase::Cpu.scale(), 1.0);
        let s = TimeBase::Sha256.scale();
        assert!(s.is_finite() && s > 0.0, "scale {s}");
    }
}
