//! FNV-1a 64-bit digest: pins simulator outputs bit for bit.

/// Incremental FNV-1a over little-endian field bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    #[must_use]
    pub fn new() -> Self {
        Self(OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes the IEEE bits, so `0.0` and `-0.0` differ and every NaN
    /// payload is distinct.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a sequence of digests, order-sensitive.
#[must_use]
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv64::new();
    for d in digests {
        h.u64(d);
    }
    h.finish()
}
