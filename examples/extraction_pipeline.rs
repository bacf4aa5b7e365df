//! The Heptane-substitute pipeline on display: generate synthetic
//! Mälardalen-like programs, statically extract their cache parameters at
//! several cache geometries, and show how persistence grows with cache
//! size (the mechanism behind the paper's Fig. 3c).
//!
//! ```text
//! cargo run --release --example extraction_pipeline [--seed S]
//! ```

use cpa::cache::extract::extract;
use cpa::cfg::{ProgramGenerator, ProgramShape};
use cpa::model::CacheGeometry;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .skip_while(|a| a != "--seed")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    let generator = ProgramGenerator::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    for shape in ProgramShape::all() {
        let function = generator.generate(shape, &mut rng)?;
        println!(
            "{shape:?}: {} ({} dynamic instructions worst-case)",
            function,
            function.worst_case_instruction_count()
        );
        println!(
            "  {:>6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6}",
            "sets", "PD", "MD", "MD^r", "|ECB|", "|PCB|", "|UCB|"
        );
        for sets in [32usize, 64, 128, 256, 512] {
            let geometry = CacheGeometry::direct_mapped(sets, 32);
            let p = extract(&function, geometry);
            println!(
                "  {:>6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6}",
                sets,
                p.pd,
                p.md,
                p.md_r,
                p.ecb.len(),
                p.pcb.len(),
                p.ucb.len(),
            );
        }
        println!();
    }
    println!("Larger caches ⇒ fewer intra-task conflicts ⇒ more persistent");
    println!("blocks and a smaller residual demand MD^r — which is exactly");
    println!("what widens the persistence-aware schedulability advantage in");
    println!("the paper's Fig. 3c.");
    Ok(())
}
