//! Pins the committed false-alarm study artifacts: `false_alarm_study`
//! at the `scripts/reproduce_all.sh` default of 10 000 trials must
//! reproduce `results/false_alarm_{target,no_target}.csv` byte for byte.
//! A change to the simulator's random stream, its false-alarm sampler or
//! its group filter that moves these numbers shows up here, and the
//! artifacts are regenerated with the change.

use std::path::Path;
use std::process::Command;

const CSVS: [&str; 2] = ["false_alarm_target.csv", "false_alarm_no_target.csv"];

#[test]
fn false_alarm_study_reproduces_the_committed_csvs() {
    let out =
        std::env::temp_dir().join(format!("gbd-false-alarm-study-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_false_alarm_study"))
        .args(["--trials", "10000", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run false_alarm_study");
    assert!(status.success(), "false_alarm_study exited with {status}");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in CSVS {
        let fresh = std::fs::read_to_string(out.join(name)).expect("read fresh CSV");
        let pinned = std::fs::read_to_string(committed.join(name)).expect("read committed CSV");
        assert_eq!(
            fresh, pinned,
            "{name} differs from results/; regenerate it with \
             `cargo run --release -p gbd-bench --bin false_alarm_study -- --trials 10000`"
        );
    }
    std::fs::remove_dir_all(&out).expect("cleanup");
}
