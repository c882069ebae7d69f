//! Property tests of the batched characterization read: for random
//! regions, seeds, patterns, tRCDs, faults and sense-cache states,
//! [`MemoryController::induce`] must leave the device exactly where the
//! per-command loop it replaces leaves it — the oracle below issues
//! Algorithm 1's inner sequence (refresh ACT + PRE, ACT, RD, restoring
//! WR, PRE) one command at a time.

use dram_sim::{CellAddr, DataPattern, DeviceConfig, Geometry, Manufacturer, WordAddr};
use drange_telemetry::MetricsRegistry;
use memctrl::{MemError, MemoryController};
use proptest::prelude::*;

const PATTERNS: [DataPattern; 5] = [
    DataPattern::Solid0,
    DataPattern::Solid1,
    DataPattern::Checkered,
    DataPattern::ColStripe,
    DataPattern::Walk1(3),
];

/// Reduced tRCDs, plus `None` for the manufacturer's guard band itself
/// and two values above it (reads that never sense).
const TRCDS: [Option<f64>; 6] = [
    Some(9.0),
    Some(10.0),
    Some(11.5),
    None,
    Some(15.0),
    Some(18.0),
];

fn geometry() -> Geometry {
    Geometry {
        banks: 4,
        rows: 16,
        cols: 4,
        word_bits: 64,
        subarray_rows: 8,
    }
}

/// One generated scenario.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    manufacturer: Manufacturer,
    fast: bool,
    words: Vec<WordAddr>,
    pattern: DataPattern,
    trcd: Option<f64>,
    rounds: usize,
    /// Faults on cells of the batch's words, as `(cell, kind)`; see
    /// [`prepared`] for the kinds.
    faults: Vec<(CellAddr, u8)>,
    /// Sampling passes over the first words before the batch, through
    /// a prefetched hot table, as a lifecycle recheck sees the device.
    hot_passes: usize,
}

fn word() -> impl Strategy<Value = WordAddr> {
    (0usize..4, 0usize..16, 0usize..4).prop_map(|(b, r, c)| WordAddr::new(b, r, c))
}

fn case() -> impl Strategy<Value = Case> {
    (
        (0u64..10_000, 0usize..3, 0u8..4),
        proptest::collection::vec(word(), 1..20),
        (0usize..PATTERNS.len(), 0usize..TRCDS.len(), 1usize..6),
        proptest::collection::vec((0usize..20, 0usize..64, 0u8..6), 0..4),
        0usize..3,
    )
        .prop_map(
            |((seed, m, fast), words, (p, t, rounds), faults, hot_passes)| Case {
                seed,
                manufacturer: Manufacturer::ALL[m],
                // The fast path three times in four.
                fast: fast != 0,
                faults: faults
                    .into_iter()
                    .map(|(i, bit, kind)| (words[i % words.len()].cell(bit), kind))
                    .collect(),
                words,
                pattern: PATTERNS[p],
                trcd: TRCDS[t],
                rounds,
                hot_passes,
            },
        )
}

/// A controller in the state `case` describes, just before the batch,
/// with its telemetry registry. Fault kinds: 0 stuck at the written
/// value, 1 stuck at its inverse, 2 aged, 3 the stored bit flipped, 4
/// the stored word replaced with garbage, 5 the stored bit flipped and
/// stuck at the written value (the first read senses the written word
/// while the array holds another).
fn prepared(case: &Case) -> (MemoryController, MetricsRegistry) {
    let mut c = MemoryController::from_config(
        DeviceConfig::new(case.manufacturer)
            .with_seed(case.seed)
            .with_noise_seed(case.seed ^ 0xBA7C)
            .with_geometry(geometry()),
    );
    let registry = MetricsRegistry::new();
    c.attach_telemetry(&registry, "0");
    c.device_mut().set_sense_fast_path(case.fast);
    for bank in 0..geometry().banks {
        c.device_mut().fill_bank(bank, case.pattern);
    }
    let trcd = case.trcd.unwrap_or(c.device().profile().fail_guard_ns);
    c.set_trcd_ns(trcd);
    let word_bits = geometry().word_bits;
    let written = |cell: CellAddr| case.pattern.bit(cell.row, cell.col * word_bits + cell.bit);
    for &(cell, kind) in &case.faults {
        match kind {
            0 | 5 => c.device_mut().set_stuck(cell, written(cell)).unwrap(),
            1 => c.device_mut().set_stuck(cell, !written(cell)).unwrap(),
            2 => {
                // Wear accrues over the row's activations so far.
                for _ in 0..8 {
                    c.read_fresh(cell.bank, cell.row, cell.col).unwrap();
                }
                c.device_mut().age_cell(cell, 20.0).unwrap();
            }
            _ => {}
        }
    }
    // Sampling passes over a plan of distinct words: prefetch, then
    // ACT, RD, restore, PRE per word.
    let mut plan: Vec<WordAddr> = Vec::new();
    for &w in &case.words {
        if plan.len() < 3 && !plan.contains(&w) {
            plan.push(w);
        }
    }
    for _ in 0..case.hot_passes {
        c.device_mut().resolve_run(&plan, trcd);
        for w in &plan {
            c.act(w.bank, w.row).unwrap();
            let got = c.rd(w.bank, w.row, w.col).unwrap();
            let original = case.pattern.word(w.row, w.col, word_bits);
            if got != original {
                c.wr(w.bank, w.row, w.col, original).unwrap();
            }
            c.pre(w.bank).unwrap();
        }
    }
    for &(cell, kind) in &case.faults {
        let stored = c.device().peek(cell.word()).unwrap();
        let corrupted = match kind {
            3 | 5 => stored ^ (1 << cell.bit),
            4 => case.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cell.bit as u64,
            _ => continue,
        };
        c.device_mut().poke(cell.word(), corrupted).unwrap();
    }
    (c, registry)
}

/// The oracle: Algorithm 1's inner sequence, one command at a time.
fn per_command(
    c: &mut MemoryController,
    words: &[WordAddr],
    pattern: DataPattern,
    rounds: usize,
) -> Vec<(usize, u64)> {
    let word_bits = c.device().geometry().word_bits;
    let mut reads = Vec::new();
    for _ in 0..rounds {
        for (i, w) in words.iter().enumerate() {
            let expected = pattern.word(w.row, w.col, word_bits);
            c.act(w.bank, w.row).unwrap();
            c.pre(w.bank).unwrap();
            c.act(w.bank, w.row).unwrap();
            let got = c.rd(w.bank, w.row, w.col).unwrap();
            if got != expected {
                c.wr(w.bank, w.row, w.col, expected).unwrap();
            }
            c.pre(w.bank).unwrap();
            reads.push((i, got ^ expected));
        }
    }
    reads
}

fn batched(
    c: &mut MemoryController,
    words: &[WordAddr],
    pattern: DataPattern,
    rounds: usize,
) -> Vec<(usize, u64)> {
    let mut reads = Vec::new();
    c.induce(words, pattern, rounds, |i, mask| reads.push((i, mask)))
        .unwrap();
    reads
}

/// Everything observable about a controller except its clock and
/// trace, which the batch deliberately leaves alone.
fn snapshot(c: &MemoryController, registry: &MetricsRegistry) -> String {
    let d = c.device();
    let g = d.geometry();
    let mut out = format!(
        "cache {:?}\nfaults {:?}\n{}",
        d.sense_cache_stats(),
        d.fault_stats(),
        registry.render_prometheus()
    );
    for bank in 0..g.banks {
        for row in 0..g.rows {
            out.push_str(&format!(
                "acts {bank}/{row} {}\n",
                d.activation_count(bank, row)
            ));
            for col in 0..g.cols {
                let word = d.peek(WordAddr::new(bank, row, col)).unwrap();
                out.push_str(&format!("word {bank}/{row}/{col} {word:#x}\n"));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The batch and the per-command loop read the same masks, leave
    /// the same device state and counters, and stand at the same point
    /// of the noise stream — including for the reads that follow.
    #[test]
    fn induce_matches_the_per_command_loop(case in case()) {
        let (mut a, reg_a) = prepared(&case);
        let (mut b, reg_b) = prepared(&case);
        let t0 = a.now_ps();
        let got = batched(&mut a, &case.words, case.pattern, case.rounds);
        let want = per_command(&mut b, &case.words, case.pattern, case.rounds);
        prop_assert_eq!(got.len(), case.words.len() * case.rounds);
        prop_assert_eq!(got, want);
        prop_assert_eq!(snapshot(&a, &reg_a), snapshot(&b, &reg_b));
        prop_assert_eq!(a.now_ps(), t0, "the batch is not stamped");
        // The sense cache is left in the same state: a follow-up round
        // through the command path reads and books identically.
        let again_a = per_command(&mut a, &case.words, case.pattern, 1);
        let again_b = per_command(&mut b, &case.words, case.pattern, 1);
        prop_assert_eq!(again_a, again_b);
        prop_assert_eq!(
            a.device().sense_cache_stats(),
            b.device().sense_cache_stats()
        );
        prop_assert_eq!(
            a.device_mut().noise_uniform().to_bits(),
            b.device_mut().noise_uniform().to_bits()
        );
    }

    /// An open bank or an out-of-range word anywhere in the list fails
    /// the whole batch before anything is issued, read or drawn.
    #[test]
    fn rejected_batches_draw_nothing(
        case in case(),
        bad in (0usize..3, 0usize..20),
    ) {
        let (mut a, reg_a) = prepared(&case);
        let (mut b, reg_b) = prepared(&case);
        let mut words = case.words.clone();
        let at = bad.1 % (words.len() + 1);
        let open = words[at.min(words.len() - 1)];
        let err = match bad.0 {
            0 => {
                for c in [&mut a, &mut b] {
                    c.act(open.bank, open.row).unwrap();
                }
                a.induce(&words, case.pattern, case.rounds, |_, _| panic!("read"))
            }
            1 => {
                words.insert(at, WordAddr::new(4, 0, 0));
                a.induce(&words, case.pattern, case.rounds, |_, _| panic!("read"))
            }
            _ => {
                words.insert(at, WordAddr::new(0, 0, 4));
                a.induce(&words, case.pattern, case.rounds, |_, _| panic!("read"))
            }
        };
        match bad.0 {
            0 => prop_assert!(matches!(err, Err(MemError::IllegalCommand { .. })), "{:?}", err),
            _ => prop_assert!(matches!(err, Err(MemError::Device(_))), "{:?}", err),
        }
        prop_assert_eq!(snapshot(&a, &reg_a), snapshot(&b, &reg_b));
        prop_assert_eq!(
            a.device_mut().noise_uniform().to_bits(),
            b.device_mut().noise_uniform().to_bits()
        );
    }
}
