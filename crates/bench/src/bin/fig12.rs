//! **Figure 12 reproduction**: running time for answering the existential
//! query UQ11 and the quantitative query UQ13 (X = 50%), comparing the
//! envelope-based processing (Claim 1: O(N) per query after O(N log N)
//! preprocessing) against the naive approach, which checks all pairwise
//! intersection times of the distance functions on every query.
//!
//! The paper varies N from 1 000 to 12 000 and averages over 100 randomly
//! selected target objects. Naive timings are averaged over fewer
//! repetitions (configurable) because a single naive query at N = 12 000
//! costs minutes.
//!
//! ```text
//! cargo run --release -p unn-bench --bin fig12 \
//!     [-- --max-n 12000 --reps 100 --naive-reps 2 --seed 42]
//! ```

use std::time::Instant;
use unn_bench::{arg_value, distance_functions, ln_seconds, window, workload, write_csv};
use unn_core::query::{fraction_reaches, naive_queries, Quantifier, QueryEngine};

fn main() {
    let max_n: usize = arg_value("--max-n")
        .and_then(|s| s.parse().ok())
        .unwrap_or(12_000);
    let reps: usize = arg_value("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let naive_reps: usize = arg_value("--naive-reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let seed: u64 = arg_value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let radius = 0.5;
    let x = 0.5; // the paper's X = 50%
    let sweep = [1_000usize, 2_000, 4_000, 6_000, 8_000, 10_000, 12_000];

    println!("Figure 12: UQ11 (existential) and UQ13 (quantitative, X=50%) query time");
    println!("(averaged over {reps} random targets; naive over {naive_reps}; seed {seed})\n");
    println!(
        "{:>8} {:>13} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "N", "naive ∃ (s)", "ours ∃ (s)", "naive 50% (s)", "ours 50% (s)", "ln n∃", "ln o∃"
    );

    let mut rows = Vec::new();
    for &n in sweep.iter().filter(|&&n| n <= max_n) {
        let trs = workload(n, seed);
        let fs = distance_functions(&trs, 0);
        let owners: Vec<_> = fs.iter().map(|f| f.owner()).collect();
        // Envelope-based: preprocessing once (the paper's setting), then
        // per-query O(N) work.
        let engine = QueryEngine::new(trs[0].oid(), fs.clone(), radius);
        let pick = |i: usize| owners[(i * 7919) % owners.len()];

        let t0 = Instant::now();
        for i in 0..reps {
            let oid = pick(i);
            std::hint::black_box(engine.uq11_exists(oid));
        }
        let ours_exist = t0.elapsed() / reps as u32;

        let t0 = Instant::now();
        for i in 0..reps {
            let oid = pick(i);
            std::hint::black_box(
                engine
                    .nonzero_intervals(oid)
                    .map(|iv| Quantifier::AtLeast(x).holds(&iv, engine.window())),
            );
        }
        let ours_quant = t0.elapsed() / reps as u32;

        // Naive: all pairwise intersections recomputed per query.
        let t0 = Instant::now();
        for i in 0..naive_reps.max(1) {
            let oid = pick(i);
            std::hint::black_box(naive_queries::uq11_exists(&fs, oid, radius));
        }
        let naive_exist = t0.elapsed() / naive_reps.max(1) as u32;

        let t0 = Instant::now();
        for i in 0..naive_reps.max(1) {
            let oid = pick(i);
            std::hint::black_box(
                naive_queries::uq13_fraction(&fs, oid, radius).map(|f| fraction_reaches(f, x)),
            );
        }
        let naive_quant = t0.elapsed() / naive_reps.max(1) as u32;

        println!(
            "{:>8} {:>13.4} {:>13.6} {:>13.4} {:>13.6} {:>9.2} {:>9.2}",
            n,
            naive_exist.as_secs_f64(),
            ours_exist.as_secs_f64(),
            naive_quant.as_secs_f64(),
            ours_quant.as_secs_f64(),
            ln_seconds(naive_exist),
            ln_seconds(ours_exist),
        );
        rows.push(format!(
            "{n},{},{},{},{},{},{},{},{}",
            naive_exist.as_secs_f64(),
            ours_exist.as_secs_f64(),
            naive_quant.as_secs_f64(),
            ours_quant.as_secs_f64(),
            ln_seconds(naive_exist),
            ln_seconds(ours_exist),
            ln_seconds(naive_quant),
            ln_seconds(ours_quant),
        ));
    }
    let path = write_csv(
        "fig12_query_processing.csv",
        "n,naive_exist_s,ours_exist_s,naive_quant_s,ours_quant_s,ln_naive_exist,ln_ours_exist,ln_naive_quant,ln_ours_quant",
        &rows,
    );
    println!("\nwrote {}", path.display());
    println!(
        "\nExpected shape (paper): the envelope-based approach is orders of\n\
         magnitude faster for both query types; the quantitative query costs\n\
         slightly more than the existential one under both approaches.\n\
         (window = [{:?}, {:?}] min)",
        window().start(),
        window().end()
    );
}
