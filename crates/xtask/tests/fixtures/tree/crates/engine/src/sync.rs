/// Fixture ranks: one taken in production code elsewhere, one named only
/// in this file, in comments and in tests, and one mirroring the pool.
pub enum LockRank {
    /// Taken by `ranked.rs`.
    Used = 10,
    /// Guards nothing.
    Unused = 20,
    /// Pinned to the vendored pool by a cross-crate test instead.
    Vendored = 200,
}

/// A use inside the declaring file does not count.
pub const LOWEST: LockRank = LockRank::Unused;
