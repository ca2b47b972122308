//! Transparent-huge-page tuning: the §8 trade-off between fusion rate and
//! huge-page conservation, driven by an Apache-like server.
//!
//! ```sh
//! cargo run --release --example thp_tuning
//! ```

use vusion::prelude::*;
use vusion::workloads::apache::ApacheServer;
use vusion::workloads::images::ImageSpec;
use vusion_rng::rngs::StdRng;
use vusion_rng::SeedableRng;

fn run(kind: EngineKind) -> (usize, u64, f64) {
    let mut sys = kind.build_system(MachineConfig::guest_2g_scaled().with_thp());
    let vm = ImageSpec::small(0, 1).boot(&mut sys, "server-vm");
    ImageSpec::small(0, 2).boot(&mut sys, "load-vm");
    let server = ApacheServer::default();
    let mut inst = server.start(&mut sys, &vm);
    let mut rng = StdRng::seed_from_u64(4);
    // Serve with the scanner (and khugepaged, for VUsion-THP) interleaved.
    for _ in 0..10 {
        for _ in 0..120 {
            inst.serve(&mut sys, &mut rng);
        }
        sys.idle(300_000_000);
    }
    let r = inst.run_load(&mut sys, 1200, 5);
    (
        sys.machine.count_huge_mappings(vm.pid),
        sys.policy.pages_saved(),
        r.req_per_s,
    )
}

fn main() {
    println!("engine x THP: huge pages conserved vs fusion rate vs throughput\n");
    println!(
        "{:<12} {:>11} {:>12} {:>12}",
        "engine", "huge pages", "pages saved", "req/s"
    );
    for kind in [
        EngineKind::NoFusion,
        EngineKind::Ksm,
        EngineKind::VUsion,
        EngineKind::VUsionThp,
    ] {
        let (huge, saved, rps) = run(kind);
        println!(
            "{:<12} {:>11} {:>12} {:>12.0}",
            kind.label(),
            huge,
            saved,
            rps
        );
    }
    println!(
        "\nkhugepaged collapses a range once n = 1 of its sub-pages is active (section 8.1's n):\n\
         n = 1 maximizes huge pages (performance); a larger n would favor fusion (capacity)."
    );
}
