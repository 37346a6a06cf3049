//! Distribution-level validation: the simulator's empirical report-count
//! histogram against the exact analytical pmf, via a chi-square
//! goodness-of-fit test. Far sharper than comparing a single tail
//! probability: every bin of the distribution has to be right.

use gbd_core::exact;
use gbd_core::params::SystemParams;
use gbd_sim::config::SimConfig;
use gbd_sim::engine::run_trial;
use gbd_stats::binomial::Binomial;
use gbd_stats::chisq::chi_square_gof;

const TRIALS: u64 = 6_000;

/// Simulated histogram of total true-report counts, capped at `cap`.
fn simulated_histogram(params: SystemParams, cap: usize, seed: u64) -> Vec<u64> {
    let config = SimConfig::new(params).with_trials(TRIALS).with_seed(seed);
    let mut hist = vec![0u64; cap + 1];
    for trial in 0..TRIALS {
        let out = run_trial(&config, trial);
        hist[out.true_reports.min(cap)] += 1;
    }
    hist
}

#[test]
fn report_count_distribution_matches_exact_model() {
    // Two operating points with very different shapes.
    for (n, v, seed) in [(120usize, 10.0, 5u64), (240, 4.0, 6)] {
        let params = SystemParams::paper_defaults()
            .with_n_sensors(n)
            .with_speed(v);
        let cap = 60;
        let expected = exact::report_distribution(&params, cap);
        let observed = simulated_histogram(params, cap, seed);
        let probs: Vec<f64> = (0..=cap).map(|m| expected.pmf(m)).collect();
        let test = chi_square_gof(&observed, &probs, 5.0).expect("valid gof inputs");
        assert!(
            test.p_value > 0.001,
            "N={n} V={v}: chi2={:.1} dof={} p={:.5}",
            test.statistic,
            test.dof,
            test.p_value
        );
    }
}

#[test]
fn gof_detects_a_wrong_model() {
    // Sanity that the test has power: comparing the simulation against the
    // exact pmf of a *different* speed must fail decisively.
    let params = SystemParams::paper_defaults()
        .with_n_sensors(120)
        .with_speed(10.0);
    let wrong = SystemParams::paper_defaults()
        .with_n_sensors(120)
        .with_speed(4.0);
    let cap = 60;
    let expected = exact::report_distribution(&wrong, cap);
    let observed = simulated_histogram(params, cap, 5);
    let probs: Vec<f64> = (0..=cap).map(|m| expected.pmf(m)).collect();
    let test = chi_square_gof(&observed, &probs, 5.0).expect("valid gof inputs");
    assert!(test.p_value < 1e-10, "wrong model not rejected: {test:?}");
}

#[test]
fn random_walk_histogram_close_but_distinguishable_at_scale() {
    // Figure 9(c)'s mechanism at distribution level: a random-walk target
    // produces a report distribution close to the straight-line model —
    // the detection probabilities differ by ~2% — but the full histogram
    // test at 6 000 trials can already see the difference at V = 4, where
    // heavy DR overlap makes the walk's ARegion measurably smaller.
    let params = SystemParams::paper_defaults()
        .with_n_sensors(240)
        .with_speed(4.0);
    let cap = 60;
    let expected = exact::report_distribution(&params, cap);
    let probs: Vec<f64> = (0..=cap).map(|m| expected.pmf(m)).collect();
    let config = SimConfig::new(params)
        .with_trials(TRIALS)
        .with_seed(7)
        .with_paper_random_walk();
    let mut hist = vec![0u64; cap + 1];
    for trial in 0..TRIALS {
        let out = run_trial(&config, trial);
        hist[out.true_reports.min(cap)] += 1;
    }
    let test = chi_square_gof(&hist, &probs, 5.0).expect("valid gof inputs");
    // Close in Kolmogorov distance (means within a report or two)…
    let sim_mean: f64 = hist
        .iter()
        .enumerate()
        .map(|(m, &c)| m as f64 * c as f64)
        .sum::<f64>()
        / TRIALS as f64;
    let exact_mean: f64 = (0..=cap).map(|m| m as f64 * expected.pmf(m)).sum();
    assert!(
        (sim_mean - exact_mean).abs() < 2.0,
        "means {sim_mean} vs {exact_mean}"
    );
    // …but statistically distinguishable.
    assert!(test.p_value < 0.05, "walk indistinguishable? {test:?}");
}

#[test]
fn false_alarms_follow_the_exact_binomial_law() {
    // The §6 bound on k treats a window's noise as one Binomial(N·M, pf)
    // draw. A sleeping sensor cannot misfire, so at awake probability a
    // the law is Binomial(N·M, pf·a). With pd = 0 every report is a false
    // alarm. The count alone cannot see a wrong slot → (period, sensor)
    // mapping, so the alarms' periods and sensor ids must also be uniform.
    let params = SystemParams::paper_defaults().with_pd(0.0);
    let (n, m) = (params.n_sensors(), params.m_periods());
    let rate = 0.002;
    let cap = 40;
    for (awake, seed) in [(1.0, 31u64), (0.5, 32)] {
        let config = SimConfig::new(params)
            .with_trials(TRIALS)
            .with_seed(seed)
            .with_false_alarm_rate(rate)
            .with_awake_probability(awake);
        let mut counts = vec![0u64; cap + 1];
        let mut periods = vec![0u64; m];
        let mut sensors = vec![0u64; n];
        for trial in 0..TRIALS {
            let out = run_trial(&config, trial);
            assert_eq!(out.true_reports, 0);
            counts[out.false_reports.min(cap)] += 1;
            for r in &out.reports {
                periods[r.period - 1] += 1;
                sensors[r.sensor.0] += 1;
            }
        }
        let law = Binomial::new((n * m) as u64, rate * awake).expect("valid law");
        // The last bin holds every count >= cap.
        let mut count_probs: Vec<f64> = (0..cap as u64).map(|c| law.pmf(c)).collect();
        count_probs.push(law.sf(cap as u64 - 1));
        for (what, observed, probs) in [
            ("count", &counts, count_probs),
            ("period", &periods, vec![1.0 / m as f64; m]),
            ("sensor", &sensors, vec![1.0 / n as f64; n]),
        ] {
            let test = chi_square_gof(observed, &probs, 5.0).expect("valid gof inputs");
            assert!(
                test.p_value > 0.001,
                "awake {awake}, {what}: chi2={:.1} dof={} p={:.5}",
                test.statistic,
                test.dof,
                test.p_value
            );
        }
    }
}
