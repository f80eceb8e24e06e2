//! FNV-1a, the workspace's one stable hash.
//!
//! Call-stack identifiers, checkpoint manifest and block checksums and the
//! benches' kernel fingerprints all fold with these constants, so their
//! values are stable across runs, platforms and releases (unlike
//! `std::collections::hash_map::DefaultHasher`).

/// The 64-bit FNV offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running hash `h` with 64-bit FNV-1a; start from
/// [`FNV_OFFSET`].
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn folding_in_parts_equals_folding_the_whole() {
        assert_eq!(fnv1a(b"bar", fnv1a(b"foo", FNV_OFFSET)), fnv1a(b"foobar", FNV_OFFSET));
    }
}
