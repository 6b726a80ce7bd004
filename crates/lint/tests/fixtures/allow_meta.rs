// mclint: hot-path
// Fixture for rules `bad-allow` / `unused-allow` (path-independent).

fn copy(xs: &[u64]) -> Vec<u64> {
    // mclint: allow(hot-path-alloc)
    xs.to_vec()
}

// mclint: allow(not-a-rule) reason="names a rule that does not exist"
fn unknown() {}

// mclint: allow(hot-path-alloc) reason="nothing here to suppress"
fn unused() {}
