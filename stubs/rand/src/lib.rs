//! Offline stand-in for `rand 0.8` with the API surface this workspace uses.
//! Functional (xoshiro256++-style) so tests can actually run in the sandbox.

pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

pub trait SeedableRng: Sized {
    type Seed;
    fn from_seed(seed: Self::Seed) -> Self;
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64-seeded xoshiro256++ clone: deterministic and fast.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let v = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&v[..chunk.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];
        fn from_seed(seed: Self::Seed) -> Self {
            let mut state = u64::from_le_bytes(seed[..8].try_into().unwrap());
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut state);
            }
            StdRng { s }
        }
        fn seed_from_u64(state: u64) -> Self {
            let mut st = state;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut st);
            }
            StdRng { s }
        }
    }
}

pub mod distributions {
    use super::Rng;

    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;

        fn sample_iter<R>(self, rng: R) -> DistIter<Self, R, T>
        where
            R: Rng,
            Self: Sized,
        {
            DistIter {
                dist: self,
                rng,
                _marker: core::marker::PhantomData,
            }
        }
    }

    pub struct DistIter<D, R, T> {
        dist: D,
        rng: R,
        _marker: core::marker::PhantomData<T>,
    }

    impl<D: Distribution<T>, R: Rng, T> Iterator for DistIter<D, R, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            Some(self.dist.sample(&mut self.rng))
        }
    }

    #[derive(Clone, Copy, Debug)]
    pub struct Standard;

    impl Distribution<u64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }
    impl Distribution<u32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }
    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub mod uniform {
        use super::super::RngCore;

        pub trait SampleUniform: Copy + PartialOrd {
            fn sample_between<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self;
        }

        macro_rules! impl_int_uniform {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_between<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self {
                        let lo_w = lo as i128;
                        let hi_w = hi as i128;
                        let span = if inclusive { hi_w - lo_w + 1 } else { hi_w - lo_w };
                        assert!(span > 0, "empty range in gen_range");
                        (lo_w + (rng.next_u64() as i128).rem_euclid(span)) as $t
                    }
                }
            )*};
        }
        impl_int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

        impl SampleUniform for f64 {
            fn sample_between<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                _inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                lo + unit * (hi - lo)
            }
        }
        impl SampleUniform for f32 {
            fn sample_between<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                _inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let unit = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
                lo + unit * (hi - lo)
            }
        }

        pub trait SampleRange<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                T::sample_between(self.start, self.end, false, rng)
            }
        }
        impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                T::sample_between(*self.start(), *self.end(), true, rng)
            }
        }
    }
}

pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution as _;
        distributions::Standard.sample(self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: distributions::uniform::SampleUniform,
        R: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    fn sample<T, D: distributions::Distribution<T>>(&mut self, dist: D) -> T {
        dist.sample(self)
    }

    fn sample_iter<T, D>(self, dist: D) -> distributions::DistIter<D, Self, T>
    where
        D: distributions::Distribution<T>,
        Self: Sized,
    {
        dist.sample_iter(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A default-seeded generator (entropy-free for the sandbox).
pub fn thread_rng() -> rngs::StdRng {
    use crate::SeedableRng as _;
    rngs::StdRng::seed_from_u64(0x5EED_5EED)
}
