// LockRank::Unused in a comment does not count.
pub fn make() -> OrderedMutex<u32> {
    OrderedMutex::new(LockRank::Used, "fixture.used", 0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_do_not_count() {
        let _ = OrderedMutex::new(LockRank::Unused, "LockRank::Unused", 0);
    }
}
