//! Correlated primary inputs — the paper's §7 future work in action.
//!
//! Two bus lines share a latent stream (think: adjacent bits of a counter
//! value or one-hot control lines). The estimator models the group
//! exactly; ignoring the correlation misestimates every downstream line.
//!
//! ```text
//! cargo run --release --example correlated_inputs
//! ```

use swact::{estimate, InputGroup, InputModel, InputSpec, Options};
use swact_circuit::catalog;
use swact_sim::{measure_activity, SignalModel, SpatialGroup, StreamModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = catalog::c17();
    let n = circuit.num_inputs();
    let copy_prob = 0.9;

    // Inputs 0 and 1 copy a shared latent stream 90% of the time.
    let spec = InputSpec::uniform(n).with_groups(vec![InputGroup {
        members: vec![0, 1],
        latent: InputModel::independent(0.5),
        copy_prob,
    }]);
    let blind_spec = InputSpec::uniform(n);

    // Matching generative model for the simulator.
    let model = StreamModel {
        signals: vec![SignalModel::independent(0.5); n],
        groups: vec![SpatialGroup {
            members: vec![0, 1],
            latent: SignalModel::independent(0.5),
            copy_prob,
        }],
    };
    let truth = measure_activity(&circuit, &model, 1 << 20, 2001);

    let aware = estimate(&circuit, &spec, &Options::default())?;
    let blind = estimate(&circuit, &blind_spec, &Options::default())?;

    println!("c17 with inputs 1 & 2 sharing a latent stream (copy prob {copy_prob}):\n");
    println!(
        "{:<6} {:>10} {:>12} {:>12}",
        "line", "simulated", "group-aware", "group-blind"
    );
    for line in circuit.line_ids() {
        println!(
            "{:<6} {:>10.4} {:>12.4} {:>12.4}",
            circuit.line_name(line),
            truth.switching[line.index()],
            aware.switching(line),
            blind.switching(line)
        );
    }
    let aware_stats = aware.compare(&truth.switching);
    let blind_stats = blind.compare(&truth.switching);
    println!("\ngroup-aware error: {aware_stats}");
    println!("group-blind error: {blind_stats}");
    Ok(())
}
