//! Robustness coverage for the zero-dep JSON parser and the metrics
//! registry's merge semantics.
//!
//! The parser validates the `trace` and `timeline` exports in CI smoke
//! steps, so it must be total: any byte soup yields `Ok` or a
//! structured `Err`, never a panic. The registry's merge has two
//! deliberate sharp edges — histogram bounds mismatches are *loud*
//! (panic rather than silently misbin) and gauges are last-write-wins —
//! pinned here from outside the crate.

use obs::json::{self, Value};
use obs::Registry;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Totality over JSON-flavoured character soup: whatever the input,
    // the parser returns a Result. `catch_unwind` turns any panic into
    // a test failure with the offending input attached.
    #[test]
    fn parser_never_panics_on_arbitrary_strings(
        input in "[\\[\\]{}:,\"\\\\eEuntfr0-9a-f.+ \t\n-]{0,96}",
    ) {
        let result = catch_unwind(AssertUnwindSafe(|| json::parse(&input)));
        prop_assert!(result.is_ok(), "parser panicked on {input:?}");
    }

    // Totality over arbitrary bytes squeezed through lossy UTF-8
    // conversion — covers invalid-UTF-8-adjacent shapes (replacement
    // chars, truncated multibyte runs) that `.*` rarely generates.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let input = String::from_utf8_lossy(&bytes);
        let result = catch_unwind(AssertUnwindSafe(|| json::parse(&input)));
        prop_assert!(result.is_ok(), "parser panicked on {input:?}");
    }

    // JSON-flavoured fragments: slice and splice a valid document at
    // arbitrary points so the parser walks deep into plausible
    // structure before hitting the corruption.
    #[test]
    fn parser_never_panics_on_spliced_documents(
        cut_a in 0usize..80,
        cut_b in 0usize..80,
        filler in "[\\[\\]{}:,\"\\\\eu0-9tfn. -]{0,12}",
    ) {
        // Pure ASCII so every byte index is a char boundary.
        let doc = r#"{"a": [1, -2.5e3, true], "b": {"c": null, "s": "x\nyz"}}"#;
        let a = cut_a.min(doc.len());
        let b = cut_b.min(doc.len());
        let mut input = String::new();
        input.push_str(&doc[..a.min(b)]);
        input.push_str(&filler);
        input.push_str(&doc[a.max(b)..]);
        let result = catch_unwind(AssertUnwindSafe(|| json::parse(&input)));
        prop_assert!(result.is_ok(), "parser panicked on {input:?}");
    }

    // Valid documents still parse after the fuzz shapes above are
    // ruled panic-free (guards against a parser that "never panics"
    // because it rejects everything).
    #[test]
    fn parser_accepts_roundtrippable_numbers(n in -1e12f64..1e12) {
        let doc = format!("{{\"v\": {n}}}");
        let v = json::parse(&doc).expect("valid document");
        let got = v.get("v").and_then(Value::as_f64).expect("number");
        prop_assert_eq!(got.to_bits(), n.to_bits());
    }
}

#[test]
fn merge_bounds_mismatch_is_loud_not_silent() {
    const A: &[f64] = &[1.0, 10.0];
    const B: &[f64] = &[2.0, 20.0];
    let mut left = Registry::new();
    left.observe("h", A, 5.0);
    let mut right = Registry::new();
    right.observe("h", B, 5.0);
    let err = catch_unwind(AssertUnwindSafe(|| left.merge(&right)))
        .expect_err("mismatched bounds must refuse to merge");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("different bucket bounds"),
        "panic message should name the cause, got {msg:?}"
    );
}

#[test]
fn merge_same_bounds_different_statics_is_fine() {
    // Two distinct statics with equal contents must merge (the check is
    // by value, not by pointer).
    const A: &[f64] = &[1.0, 10.0];
    const B: &[f64] = &[1.0, 10.0];
    let mut left = Registry::new();
    left.observe("h", A, 0.5);
    let mut right = Registry::new();
    right.observe("h", B, 5.0);
    left.merge(&right);
    assert_eq!(left.histogram("h").unwrap().count(), 2);
}

#[test]
fn gauge_merge_is_last_write_wins_across_a_chain() {
    let mk = |v: f64| {
        let mut r = Registry::new();
        r.set_gauge("util", v);
        r
    };
    let mut acc = mk(0.1);
    acc.merge(&mk(0.9));
    acc.merge(&mk(0.4));
    assert_eq!(
        acc.gauge("util"),
        Some(0.4),
        "the last merged-in gauge value wins, not the max or sum"
    );
    // A merge from a registry without the gauge leaves it untouched.
    acc.merge(&Registry::new());
    assert_eq!(acc.gauge("util"), Some(0.4));
}
