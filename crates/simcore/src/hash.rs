//! The repo's two small non-cryptographic hashes: the 64-bit FNV-1a
//! content hash behind shard routing, partial-result digests and replay
//! digests, and the SplitMix64 step, a tiny generator independent of
//! `rand`.

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The multiplier. It is not the published FNV prime
/// (`0x100_0000_01b3`): every pinned digest and shard route was computed
/// with this value, so changing it would move them all.
const FNV_MULTIPLIER: u64 = 0x1_0000_01b3;

/// 64-bit FNV-1a over `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash `h` over `bytes`: the hash of `a ‖ b` is
/// `fnv1a64_extend(fnv1a64(a), b)`.
#[inline]
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_MULTIPLIER);
    }
    h
}

/// One SplitMix64 step: advance `state` and return the mixed output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_values_are_pinned() {
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0x1162_bb90_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x3fef_ab5e_f739_67e8);
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn splitmix_matches_reference_sequence() {
        // The published SplitMix64 sequence for seed 1234567.
        let mut s = 1234567;
        let draws: Vec<u64> = (0..3).map(|_| splitmix64(&mut s)).collect();
        assert_eq!(
            draws,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }
}
