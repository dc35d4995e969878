//! The catalog registry is built once, on first use.  This file holds a
//! single test so that its threads really are the registry's first users:
//! eight of them race into `catalog::find` together and must all resolve
//! the same scenario as direct construction.

use soter_scenarios::catalog;
use std::sync::{Arc, Barrier};

#[test]
fn concurrent_first_finds_all_resolve_equal_scenarios() {
    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                catalog::find("fig12b-surveillance")
            })
        })
        .collect();
    let expected = catalog::fig12b(7, 2, 150.0);
    for handle in handles {
        let found = handle.join().expect("find never panics");
        assert_eq!(found.as_ref(), Some(&expected));
    }
}
