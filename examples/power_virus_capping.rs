//! Fair power conditioning (paper §3.4, Figs. 11–12): power viruses are
//! injected into a Google App Engine workload; container-based
//! conditioning throttles *only* the viruses while normal requests keep
//! running at nearly full speed.
//!
//! ```sh
//! cargo run --release --example power_virus_capping
//! ```

use experiments::{RunCtx, Scale};

fn main() {
    let data = experiments::fig11::conditioning_data(&RunCtx::new(Scale::Quick));
    println!("system active-power target: {:.1} W", data.target_w);
    println!("viruses arrive at t = {}", data.virus_start);
    println!(
        "\nwithout conditioning: peak {:.1} W after viruses",
        data.baseline.0.peak_after_w
    );
    println!(
        "with conditioning:    peak {:.1} W ({}% of buckets above target)",
        data.conditioned.0.peak_after_w,
        (data.conditioned.0.frac_above_target * 100.0).round()
    );

    // Who paid for the cap? Only the viruses.
    let f = data.conditioned.1.facility.borrow();
    let mut virus = (0usize, 0.0f64);
    let mut normal = (0usize, 0.0f64);
    for r in f.containers().records() {
        if r.busy_seconds <= 0.0 || r.label.is_none() {
            continue;
        }
        if r.label == Some(workloads::POWER_VIRUS_LABEL) {
            virus.0 += 1;
            virus.1 += r.mean_duty;
        } else {
            normal.0 += 1;
            normal.1 += r.mean_duty;
        }
    }
    println!(
        "\nmean applied duty cycle: normal requests {:.2}, power viruses {:.2}",
        normal.1 / normal.0.max(1) as f64,
        virus.1 / virus.0.max(1) as f64
    );
    println!(
        "a full-machine cap would have slowed every request equally; the \
         containers throttled only the {} viruses.",
        virus.0
    );
}
