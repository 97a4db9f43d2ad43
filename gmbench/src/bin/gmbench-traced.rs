//! The traced benchmark binary: built with the counting allocator so the
//! per-layer run can report allocations.
fn main() {
    std::process::exit(gmbench::main_entry());
}
