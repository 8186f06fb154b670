//@ path: crates/hybridmem/src/stack.rs
fn bump(counter: &mut u64, bytes: u64) {
    *counter += bytes;
}

pub fn access(counter: &mut u64, bytes: u64) -> u64 {
    bump(counter, bytes);
    *counter
}
