//! Figure 3 — the command sequence for reading a DRAM cell and the
//! cell/bitline state during each step, rendered as an ASCII waveform
//! from the same settling model that drives the failure physics.

use dram_sim::waveform::{read_cycle, voltage_at_read, Phase};
use dram_sim::Manufacturer;

fn main() {
    let profile = Manufacturer::A.profile();
    println!("== Figure 3: bitline voltage through ACT -> READ -> PRE ==\n");

    let pre_at = 42.0; // tRAS
    let wave = read_cycle(&profile, pre_at, 56.0, 0.5);

    // ASCII plot: voltage on the y axis (0.45..1.0), time on the x axis.
    let rows = 16;
    let mut grid = vec![vec![' '; wave.len()]; rows];
    for (x, s) in wave.iter().enumerate() {
        let y = ((1.0 - (s.v_bitline - 0.45) / 0.55) * (rows - 1) as f64).round() as usize;
        grid[y.min(rows - 1)][x] = '*';
    }
    // Threshold line.
    let theta_y = ((1.0 - (profile.theta_v - 0.45) / 0.55) * (rows - 1) as f64).round() as usize;
    for cell in grid[theta_y].iter_mut().take(wave.len()) {
        if *cell == ' ' {
            *cell = '-';
        }
    }
    for (y, row) in grid.iter().enumerate() {
        let label = if y == 0 {
            "Vdd    "
        } else if y == theta_y {
            "Vread  "
        } else if y == rows - 1 {
            "Vdd/2  "
        } else {
            "       "
        };
        println!("{label}|{}", row.iter().collect::<String>());
    }
    // Phase ruler.
    let mut ruler = String::new();
    let mut last: Option<Phase> = None;
    for s in &wave {
        let c = match s.phase {
            Phase::Precharged => 'P',
            Phase::ChargeSharing => 'c',
            Phase::Sensing => 's',
            Phase::Restored => 'R',
            Phase::Precharging => 'p',
        };
        ruler.push(if last == Some(s.phase) { ' ' } else { c });
        last = Some(s.phase);
    }
    println!("       |{ruler}");
    println!("        P=precharged c=charge-sharing s=sensing R=restored p=precharging");
    println!("        ACT at t=0; PRE at t={pre_at} ns (tRAS); x step 0.5 ns\n");

    println!(
        "bitline voltage at READ time vs tRCD (threshold Vread = {:.2}):",
        profile.theta_v
    );
    for trcd in [6.0, 8.0, 10.0, 13.0, 18.0] {
        let v = voltage_at_read(&profile, trcd);
        println!(
            "  tRCD {trcd:>5.1} ns: V = {v:.3} {}",
            if v < profile.theta_v {
                "(below Vread -> activation failures)"
            } else if v < profile.theta_v + 0.05 {
                "(marginal -> metastable RNG cells)"
            } else {
                "(safe)"
            }
        );
    }
    println!("\npaper shape: reading before the bitline reaches Vread returns wrong values;");
    println!("the 6-13 ns range samples the marginal region of the settling curve");
}
