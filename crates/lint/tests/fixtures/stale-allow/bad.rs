// stale-allow: both forms of a suppression that no longer suppresses
// anything — a trailing allow on a clean line and a standalone allow
// above clean code.
pub fn double(x: u32) -> u32 {
    x * 2 // lint: allow(unseeded-rng) left behind after the jitter term was removed
}

// lint: allow(panic-reachable) the range assert below was refactored away
pub fn triple(x: u32) -> u32 {
    x * 3
}
