// Fixture: a violation silenced by an allow *with a reason* — the
// suppression applies and is counted, leaving zero diagnostics.

pub fn jitter() -> f64 {
    // lint: allow(unseeded-rng) demo-only jitter that never reaches a result path
    thread_rng().next_f64()
}
