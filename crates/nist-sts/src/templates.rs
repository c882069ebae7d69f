//! Aperiodic (non-self-overlapping) templates for the non-overlapping
//! template matching test.
//!
//! A template is *aperiodic* when no shifted copy of it can overlap
//! itself — equivalently, the word has no border (no proper prefix that
//! is also a suffix). For length 9 there are exactly 148 such words,
//! which is NIST's template set for the default m = 9.

/// Whether `bits` (0/1 values) has no border: for every shift
/// `1 <= k < m`, the prefix of length `m-k` differs from the suffix of
/// length `m-k`.
pub fn is_aperiodic(bits: &[u8]) -> bool {
    let m = bits.len();
    for k in 1..m {
        if bits[..m - k] == bits[k..] {
            return false;
        }
    }
    true
}

/// All aperiodic templates of length `m`, each as a `Vec<u8>` of 0/1,
/// in increasing numeric order.
///
/// # Panics
///
/// Panics if `m` is 0 or greater than 20 (the enumeration is 2^m).
pub fn aperiodic_templates(m: usize) -> Vec<Vec<u8>> {
    assert!(
        (1..=20).contains(&m),
        "template length must be 1..=20, got {m}"
    );
    let mut out = Vec::new();
    for value in 0u32..(1 << m) {
        let bits: Vec<u8> = (0..m).map(|i| ((value >> (m - 1 - i)) & 1) as u8).collect();
        if is_aperiodic(&bits) {
            out.push(bits);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_aperiodic_counts() {
        // Bifix-free binary words (OEIS A003000): 2, 2, 4, 6, 12, 20,
        // 40, 74, 148 for m = 1..9. NIST's m = 9 template set has 148.
        let want = [2usize, 2, 4, 6, 12, 20, 40, 74, 148];
        for (m, &w) in want.iter().enumerate() {
            assert_eq!(aperiodic_templates(m + 1).len(), w, "m={}", m + 1);
        }
    }

    #[test]
    fn classic_examples() {
        assert!(is_aperiodic(&[0, 0, 0, 0, 0, 0, 0, 0, 1])); // 000000001
        assert!(is_aperiodic(&[1, 0, 0, 0, 0, 0, 0, 0, 0])); // 100000000
        assert!(!is_aperiodic(&[1, 0, 1])); // border "1"
        assert!(!is_aperiodic(&[1, 1])); // border "1"
        assert!(is_aperiodic(&[1, 0])); // no border
    }

    #[test]
    fn all_ones_is_periodic_for_m_over_1() {
        for m in 2..10 {
            assert!(!is_aperiodic(&vec![1u8; m]), "m={m}");
        }
    }

    #[test]
    fn templates_are_distinct_and_correct_length() {
        let t = aperiodic_templates(9);
        let set: std::collections::HashSet<_> = t.iter().collect();
        assert_eq!(set.len(), t.len());
        assert!(t.iter().all(|b| b.len() == 9));
        assert!(t.iter().all(|b| is_aperiodic(b)));
    }
}
