// mclint: hot-path
// Fixture for rule `hot-path-alloc`.

fn probe(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    out.extend(xs.iter().copied());
    let copy = xs.to_vec();
    let s = format!("{}", copy.len());
    drop(s);
    out
}

fn order(xs: &mut [u64], keys: &[u64]) {
    xs.sort_by(|a, b| keys[*a as usize].cmp(&keys[*b as usize]));
}

fn fine(xs: &mut [u64], keys: &[u64]) {
    xs.sort_unstable_by(|a, b| keys[*a as usize].cmp(&keys[*b as usize]));
}

// mclint: cold — constructors may allocate
fn build() -> Vec<u64> {
    let v = Vec::with_capacity(8);
    v.clone()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_allocate() {
        let _ = vec![1, 2, 3];
    }
}
