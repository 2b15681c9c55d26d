// hot-path-alloc (workspace half): `SptWorkspace::apply` is marked as a
// hot-path root; an allocation two private hops below it must be
// reported with the chain from the root.
pub struct SptWorkspace;

impl SptWorkspace {
    // lint: hot-path
    pub fn apply(&mut self) {
        relax();
    }
}

fn relax() {
    settle();
}

fn settle() {
    let scratch: Vec<u32> = Vec::new();
    drop(scratch);
}
