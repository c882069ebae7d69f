//! Figure 7 — density of RNG cells in DRAM words, per bank.
//!
//! For every bank of a fleet of devices from each manufacturer, counts
//! the number of words containing exactly k RNG cells (k = 1..4) and
//! reports the distribution across banks (the paper's log-scale
//! box-and-whiskers). Expected shape: every bank has words with RNG
//! cells; counts fall steeply with k; a small tail of words reaches 3-4
//! cells.

use dram_sim::Manufacturer;
use drange_bench::{box_stats, fleet, pipeline, Scale};

fn main() {
    let scale = Scale::from_args();
    let devices_per_mfr = scale.pick(2, 8);
    let rows = scale.pick(256, 1024);
    println!("== Figure 7: RNG cells per DRAM word, per bank ==");
    println!(
        "{} devices x 8 banks per manufacturer, rows 0..{rows}\n",
        devices_per_mfr
    );

    for m in Manufacturer::ALL {
        let mut per_k: Vec<Vec<f64>> = vec![Vec::new(); 5]; // counts per bank for k=1..4
        let mut total_cells = 0usize;
        for config in fleet(m, devices_per_mfr, 700 + m as u64 * 31) {
            let (_ctrl, catalog) = pipeline(config, 8, rows, 30, 1000);
            total_cells += catalog.len();
            for bank in 0..8 {
                let hist = catalog.density_histogram(bank, 4);
                for k in 1..=4 {
                    per_k[k].push(hist[k] as f64);
                }
            }
        }
        println!(
            "manufacturer {m}: {} RNG cells total across {} banks",
            total_cells,
            devices_per_mfr * 8
        );
        for (k, vals) in per_k.iter().enumerate().skip(1) {
            let s = box_stats(vals);
            println!("  words with {k} RNG cell(s) per bank: {s}");
        }
        let banks_with_any = per_k[1]
            .iter()
            .zip(&per_k[2])
            .zip(&per_k[3])
            .zip(&per_k[4])
            .filter(|(((a, b), c), d)| **a + **b + **c + **d > 0.0)
            .count();
        println!(
            "  banks with at least one RNG-cell word: {banks_with_any}/{}\n",
            per_k[1].len()
        );
    }
    println!("paper shape: RNG-cell words in every bank; counts decay steeply with k;");
    println!("maximum density 4 RNG cells per word");
}
