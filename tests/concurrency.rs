//! Concurrency behaviour: consultations run on parallel threads return
//! exactly what sequential ones do.

use kvsim::StoreKind;
use mnemo::advisor::{Advisor, AdvisorConfig};
use ycsb::WorkloadSpec;

#[test]
fn parallel_consultations_match_sequential() {
    // Consultations fanned out on scoped threads must be identical to
    // sequential runs.
    let specs: Vec<_> = WorkloadSpec::table3()
        .into_iter()
        .map(|w| w.scaled(100, 1_200))
        .collect();
    let sequential: Vec<_> = specs
        .iter()
        .map(|w| {
            let trace = w.generate(4);
            Advisor::new(AdvisorConfig::default())
                .consult(StoreKind::Redis, &trace)
                .unwrap()
                .curve
        })
        .collect();
    let mut parallel: Vec<Option<_>> = specs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, w) in parallel.iter_mut().zip(&specs) {
            scope.spawn(move || {
                let trace = w.generate(4);
                *slot = Some(
                    Advisor::new(AdvisorConfig::default())
                        .consult(StoreKind::Redis, &trace)
                        .unwrap()
                        .curve,
                );
            });
        }
    });
    for (seq, par) in sequential.iter().zip(parallel) {
        assert_eq!(*seq, par.unwrap());
    }
}
