//! Cross-model consistency: the S-approach, M-S-approach and the exact
//! reference must tell one coherent story across the parameter space.

use gbd_core::accuracy::{predicted_accuracy_ms, predicted_accuracy_s, required_caps};
use gbd_core::exact;
use gbd_core::ms_approach::{self, MsOptions};
use gbd_core::s_approach::{self, SOptions};
use gbd_core::single_period;
use sparse_groupdet::prelude::SystemParams;

fn grid() -> Vec<SystemParams> {
    let mut out = Vec::new();
    for n in [60usize, 150, 240] {
        for v in [4.0, 10.0] {
            out.push(
                SystemParams::paper_defaults()
                    .with_n_sensors(n)
                    .with_speed(v),
            );
        }
    }
    out
}

#[test]
fn ms_and_s_agree_with_exact_across_grid() {
    for params in grid() {
        let k = params.k();
        let truth = exact::detection_probability(&params, k);
        let ms = ms_approach::analyze(
            &params,
            &MsOptions {
                g: 6,
                gh: 6,
                eps: 0.0,
            },
        )
        .unwrap()
        .detection_probability(k);
        let s = s_approach::analyze(&params, &SOptions { cap_sensors: 20 })
            .unwrap()
            .detection_probability(k);
        assert!((ms - truth).abs() < 5e-3, "MS {ms:.5} vs exact {truth:.5}");
        assert!((s - truth).abs() < 1e-4, "S {s:.5} vs exact {truth:.5}");
    }
}

#[test]
fn paper_default_caps_are_accurate_after_normalization() {
    // §4: with g = gh = 3 the normalized analysis error stays ~1% across
    // the whole evaluated range.
    for params in grid() {
        let truth = exact::detection_probability(&params, 5);
        let ms = ms_approach::analyze(&params, &MsOptions::default())
            .unwrap()
            .detection_probability(5);
        assert!(
            (ms - truth).abs() < 0.012,
            "N={} V={}: {ms:.4} vs {truth:.4}",
            params.n_sensors(),
            params.speed()
        );
    }
}

#[test]
fn required_caps_deliver_their_promised_accuracy() {
    for params in grid() {
        let caps = required_caps(&params, 0.99);
        assert!(predicted_accuracy_ms(&params, caps.g, caps.gh) >= 0.99 - 1e-9);
        assert!(predicted_accuracy_s(&params, caps.g_s_approach) >= 0.99 - 1e-9);
        // The Figure 8 relationship.
        assert!(caps.g_s_approach > caps.g.max(caps.gh) - 1);
    }
}

#[test]
fn m1_window_reduces_to_binomial_model_everywhere() {
    for base in grid() {
        let params = base.with_m_periods(1).with_k(1);
        let closed_form = single_period::probability_at_least(&params, 1);
        let via_exact = exact::detection_probability(&params, 1);
        assert!(
            (closed_form - via_exact).abs() < 1e-9,
            "closed {closed_form} vs exact {via_exact}"
        );
    }
}

#[test]
fn detection_probability_monotone_in_every_favorable_parameter() {
    let base = SystemParams::paper_defaults().with_n_sensors(120);
    let p = |params: &SystemParams| exact::detection_probability(params, params.k());
    // More sensors help.
    assert!(p(&base.with_n_sensors(180)) > p(&base));
    // Higher per-period detection probability helps.
    assert!(p(&base.with_pd(0.95)) > p(&base.with_pd(0.6)));
    // Longer sensing range helps.
    assert!(p(&base.with_sensing_range(1500.0)) > p(&base));
    // A longer window helps.
    assert!(p(&base.with_m_periods(30)) > p(&base.with_m_periods(10)));
    // A stricter threshold hurts.
    assert!(p(&base.with_k(8)) < p(&base.with_k(3)));
}

#[test]
fn truncation_error_decays_monotonically_in_caps() {
    let params = SystemParams::paper_defaults();
    let truth = exact::detection_probability(&params, 5);
    let mut prev = f64::INFINITY;
    for caps in 1..=6 {
        let ms = ms_approach::analyze(
            &params,
            &MsOptions {
                g: caps,
                gh: caps,
                eps: 0.0,
            },
        )
        .unwrap()
        .detection_probability(5);
        let err = (ms - truth).abs();
        assert!(err <= prev + 1e-9, "caps={caps}");
        prev = err;
    }
}

#[test]
fn chain_independence_residual_is_about_3e_3_at_the_paper_point() {
    // With caps this large almost no mass is truncated, so what is left
    // between the unnormalized chain and the exact model is the chain's
    // one approximation: per-NEDR counts taken as independent binomials
    // (THEORY.md §4). Measured: 3.08e-3 at g = gh = 10.
    let params = SystemParams::paper_defaults();
    let residual = |caps: usize| {
        let r = ms_approach::analyze(
            &params,
            &MsOptions {
                g: caps,
                gh: caps,
                eps: 0.0,
            },
        )
        .unwrap();
        (1..=12)
            .map(|k| {
                (r.detection_probability_unnormalized(k)
                    - exact::detection_probability(&params, k))
                .abs()
            })
            .fold(0.0, f64::max)
    };
    let at_10 = residual(10);
    assert!((1e-3..1e-2).contains(&at_10), "residual {at_10:.3e}");
    // Not truncation: two more caps per stage barely move it.
    let at_8 = residual(8);
    assert!(
        (at_10 - at_8).abs() < 1e-5,
        "g = 8: {at_8:.4e}, g = 10: {at_10:.4e}"
    );
}

#[test]
fn normalization_always_improves_or_matches_raw_tail() {
    // |normalized − exact| <= |raw − exact| at the paper's operating point,
    // the mechanism behind Figure 9(a) vs 9(b).
    for params in grid() {
        let truth = exact::detection_probability(&params, 5);
        let r = ms_approach::analyze(&params, &MsOptions::default()).unwrap();
        let err_norm = (r.detection_probability(5) - truth).abs();
        let err_raw = (r.detection_probability_unnormalized(5) - truth).abs();
        assert!(
            err_norm <= err_raw + 1e-9,
            "N={} V={}: norm {err_norm:.5} raw {err_raw:.5}",
            params.n_sensors(),
            params.speed()
        );
    }
}
