//! Property-based invariants of the reproducible PRNG.

use proptest::prelude::*;

proptest! {
    #[test]
    fn rng_streams_are_reproducible_and_uniformish(seed in any::<u64>()) {
        let mut a = sim::Rng64::new(seed);
        let mut b = sim::Rng64::new(seed);
        let mut sum = 0.0;
        const N: usize = 1000;
        for _ in 0..N {
            let x = a.next_f64();
            prop_assert_eq!(x, b.next_f64());
            prop_assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Loose uniformity sanity: mean of 1000 uniforms within [0.4, 0.6].
        let mean = sum / N as f64;
        prop_assert!((0.4..0.6).contains(&mean), "mean {mean}");
    }

    #[test]
    fn rng_below_is_unbiased_over_small_ranges(seed in any::<u64>(), n in 1u64..20) {
        let mut rng = sim::Rng64::new(seed);
        let mut counts = vec![0u32; n as usize];
        let draws = 2000;
        for _ in 0..draws {
            counts[rng.below(n) as usize] += 1;
        }
        let expected = draws as f64 / n as f64;
        for (v, &c) in counts.iter().enumerate() {
            prop_assert!(
                (f64::from(c) - expected).abs() < 6.0 * expected.sqrt() + 6.0,
                "value {v} count {c} vs expected {expected}"
            );
        }
    }
}
