//! A tiny FNV-1a 64-bit hasher, used for *stable* identifiers that must
//! survive process restarts: work-unit ids, configuration and sweep-job
//! fingerprints, and model content hashes. `std::hash` is deliberately
//! avoided here: `RandomState` is seeded per process and `SipHasher`'s
//! unkeyed variant is deprecated, while FNV-1a is trivially stable,
//! endian-independent (we feed it bytes in little-endian order) and good
//! enough for a few thousand ids.

/// Incremental FNV-1a over a byte stream.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in the FNV-1a initial state.
    pub fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds one byte.
    pub fn byte(&mut self, b: u8) -> &mut Self {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        self
    }

    /// Feeds a byte string.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.byte(b);
        }
        self
    }

    /// Feeds a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // FNV-1a("") = offset basis; FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().bytes(b"foobar").finish(),
            0x85944171f73967e8,
            "multi-byte vector"
        );
    }

    #[test]
    fn order_sensitivity() {
        let ab = Fnv1a::new().byte(1).byte(2).finish();
        let ba = Fnv1a::new().byte(2).byte(1).finish();
        assert_ne!(ab, ba);
    }
}
