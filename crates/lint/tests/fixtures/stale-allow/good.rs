// stale-allow good case: the allow genuinely suppresses a finding, so
// the audit keeps quiet (checked by a dedicated corpus test — a used
// allow is counted as a suppression, never as stale).
pub fn first(v: &[u32]) -> u32 {
    // lint: allow(panic-reachable) caller contract: slice is non-empty
    assert!(!v.is_empty());
    v[0]
}
