// Fixture: an allow without a reason — it must NOT suppress, and is
// itself a `bare-allow` diagnostic.

pub fn jitter() -> f64 {
    thread_rng().next_f64() // lint: allow(unseeded-rng)
}
