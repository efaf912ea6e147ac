//! Four `f32` lanes, the register the factorization machine's forward pass
//! runs its four lockstep rows in.
//!
//! Two backends with one API, chosen at build time: SSE intrinsics on
//! x86-64 (SSE2 is part of that target's baseline, so there is no runtime
//! detection and no target-feature flag) and a plain `[f32; 4]` everywhere
//! else. Every op is one IEEE operation per lane and Rust never contracts a
//! `mul` and an `add` into an FMA, so both backends give the bits a scalar
//! loop would. Tests build the portable backend on x86-64 too and check it
//! against the SSE one.

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub(crate) use sse::F32x4;

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
pub(crate) use portable::F32x4;

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse {
    use std::arch::x86_64::{
        __m128, _mm_add_ps, _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_mul_ps, _mm_set1_ps,
        _mm_setr_ps, _mm_storeu_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };
    use std::ops::{Add, Mul};

    // Every SSE intrinsic is an `unsafe fn` outside a `#[target_feature]`
    // function, even when the build enables the feature. This module is
    // compiled only when the build enables `sse2` (every x86-64 target
    // does), so the instructions exist on any host the binary runs on.

    /// Four `f32` lanes in one SSE register.
    #[derive(Clone, Copy)]
    pub(crate) struct F32x4(__m128);

    impl F32x4 {
        /// Every lane `x`.
        #[inline(always)]
        pub(crate) fn splat(x: f32) -> Self {
            // SAFETY: the build enables SSE (the module's `cfg`); no memory access.
            F32x4(unsafe { _mm_set1_ps(x) })
        }

        /// Lane `r` is `a[r]`.
        #[inline(always)]
        pub(crate) fn new(a: [f32; 4]) -> Self {
            // SAFETY: the build enables SSE (the module's `cfg`); no memory access.
            F32x4(unsafe { _mm_setr_ps(a[0], a[1], a[2], a[3]) })
        }

        /// The first four values of `src`; panics if it is shorter.
        #[inline(always)]
        pub(crate) fn load(src: &[f32]) -> Self {
            let src = &src[..4];
            // SAFETY: the build enables SSE; `src` holds four initialised
            // `f32`s and the load is unaligned, so its 16 bytes are in bounds.
            F32x4(unsafe { _mm_loadu_ps(src.as_ptr()) })
        }

        /// Lane `r` written to `dst[r]`.
        #[inline(always)]
        pub(crate) fn store(self, dst: &mut [f32; 4]) {
            // SAFETY: the build enables SSE; `dst` is 16 writable bytes and
            // the store is unaligned.
            unsafe { _mm_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        /// The lanes as an array.
        #[inline(always)]
        pub(crate) fn to_array(self) -> [f32; 4] {
            let mut out = [0.0; 4];
            self.store(&mut out);
            out
        }

        /// The 4×4 transpose (`_MM_TRANSPOSE4_PS`): lane `c` of output `r`
        /// is lane `r` of input `c`.
        #[inline(always)]
        pub(crate) fn transpose(m: [Self; 4]) -> [Self; 4] {
            let [F32x4(r0), F32x4(r1), F32x4(r2), F32x4(r3)] = m;
            // SAFETY: the build enables SSE (the module's `cfg`); no memory access.
            unsafe {
                let t0 = _mm_unpacklo_ps(r0, r1);
                let t1 = _mm_unpacklo_ps(r2, r3);
                let t2 = _mm_unpackhi_ps(r0, r1);
                let t3 = _mm_unpackhi_ps(r2, r3);
                [
                    F32x4(_mm_movelh_ps(t0, t1)),
                    F32x4(_mm_movehl_ps(t1, t0)),
                    F32x4(_mm_movelh_ps(t2, t3)),
                    F32x4(_mm_movehl_ps(t3, t2)),
                ]
            }
        }
    }

    impl Add for F32x4 {
        type Output = Self;
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: the build enables SSE (the module's `cfg`); no memory access.
            F32x4(unsafe { _mm_add_ps(self.0, rhs.0) })
        }
    }

    impl Mul for F32x4 {
        type Output = Self;
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: the build enables SSE (the module's `cfg`); no memory access.
            F32x4(unsafe { _mm_mul_ps(self.0, rhs.0) })
        }
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
mod portable {
    use std::ops::{Add, Mul};

    /// Four `f32` lanes in a plain array.
    #[derive(Clone, Copy)]
    pub(crate) struct F32x4([f32; 4]);

    impl F32x4 {
        /// Every lane `x`.
        #[inline(always)]
        pub(crate) fn splat(x: f32) -> Self {
            F32x4([x; 4])
        }

        /// Lane `r` is `a[r]`.
        #[inline(always)]
        pub(crate) fn new(a: [f32; 4]) -> Self {
            F32x4(a)
        }

        /// The first four values of `src`; panics if it is shorter.
        #[inline(always)]
        pub(crate) fn load(src: &[f32]) -> Self {
            let src = &src[..4];
            F32x4([src[0], src[1], src[2], src[3]])
        }

        /// Lane `r` written to `dst[r]`.
        #[inline(always)]
        pub(crate) fn store(self, dst: &mut [f32; 4]) {
            *dst = self.0;
        }

        /// The lanes as an array.
        #[inline(always)]
        pub(crate) fn to_array(self) -> [f32; 4] {
            self.0
        }

        /// The 4×4 transpose: lane `c` of output `r` is lane `r` of input `c`.
        #[inline(always)]
        pub(crate) fn transpose(m: [Self; 4]) -> [Self; 4] {
            std::array::from_fn(|r| F32x4(std::array::from_fn(|c| m[c].0[r])))
        }
    }

    impl Add for F32x4 {
        type Output = Self;
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            F32x4(std::array::from_fn(|r| self.0[r] + rhs.0[r]))
        }
    }

    impl Mul for F32x4 {
        type Output = Self;
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            F32x4(std::array::from_fn(|r| self.0[r] * rhs.0[r]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::portable::F32x4 as Portable;
    use super::F32x4;
    use antdt_sim::rng::StdRng;

    /// Values that stress IEEE edge cases: signed zeros, subnormals,
    /// infinities, overflow and the NaN an `inf · 0` makes.
    const SPECIAL: [f32; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::MIN_POSITIVE / 8.0,
        f32::MAX,
        -f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];

    fn draw(rng: &mut StdRng) -> [f32; 4] {
        std::array::from_fn(|_| {
            if rng.gen_bool(0.2) {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                rng.gen_range(-1e3f32..1e3) * rng.gen_range(-1e3f32..1e3)
            }
        })
    }

    fn bits(a: [f32; 4]) -> [u32; 4] {
        a.map(f32::to_bits)
    }

    /// The build's backend (SSE on x86-64) and the portable one agree bit for
    /// bit on every op, on seeded random and edge-case inputs.
    #[test]
    fn lanes_backends_agree_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x1a4e5);
        for case in 0..4_096 {
            let (a, b) = (draw(&mut rng), draw(&mut rng));
            let (fa, fb) = (F32x4::new(a), F32x4::new(b));
            let (pa, pb) = (Portable::new(a), Portable::new(b));
            assert_eq!(bits(fa.to_array()), bits(a), "case {case}: new");
            assert_eq!(bits(pa.to_array()), bits(a), "case {case}: new");
            assert_eq!(bits((fa + fb).to_array()), bits((pa + pb).to_array()), "case {case}: add");
            assert_eq!(bits((fa * fb).to_array()), bits((pa * pb).to_array()), "case {case}: mul");
            let s = a[0];
            assert_eq!(bits(F32x4::splat(s).to_array()), bits(Portable::splat(s).to_array()));

            let buf: Vec<f32> = a.iter().chain(&b).copied().collect();
            let at = rng.gen_range(0..5usize);
            let (mut fo, mut po) = ([0.0f32; 4], [1.0f32; 4]);
            F32x4::load(&buf[at..]).store(&mut fo);
            Portable::load(&buf[at..]).store(&mut po);
            assert_eq!(bits(fo), bits(po), "case {case}: load/store");
            assert_eq!(bits(fo), bits(buf[at..at + 4].try_into().unwrap()), "case {case}: load");

            let m: [[f32; 4]; 4] = std::array::from_fn(|_| draw(&mut rng));
            let ft = F32x4::transpose(m.map(F32x4::new)).map(F32x4::to_array);
            let pt = Portable::transpose(m.map(Portable::new)).map(Portable::to_array);
            for r in 0..4 {
                assert_eq!(bits(ft[r]), bits(pt[r]), "case {case}: transpose row {r}");
                for c in 0..4 {
                    assert_eq!(ft[r][c].to_bits(), m[c][r].to_bits(), "case {case}: ({r}, {c})");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn lanes_load_panics_on_a_short_slice() {
        F32x4::load(&[1.0, 2.0, 3.0]);
    }
}
