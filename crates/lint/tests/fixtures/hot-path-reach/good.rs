// hot-path-reach good case: the same call shape, but the leaf only
// pushes into a caller-recycled buffer — the sanctioned idiom.
pub struct SptWorkspace;

impl SptWorkspace {
    // lint: hot-path
    pub fn apply(&mut self, buf: &mut Vec<u32>) {
        relax(buf);
    }
}

fn relax(buf: &mut Vec<u32>) {
    settle(buf);
}

fn settle(buf: &mut Vec<u32>) {
    buf.push(1);
}
