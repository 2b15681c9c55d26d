// Fixture: bare float equality in test code (presented as a tests/
// file, so the whole file is test code). `1.` is a float literal too.

fn check(x: f64, p: f64) {
    assert!(x == 0.5);
    assert!(p != -1.0);
    assert!(x == 1.);
}
