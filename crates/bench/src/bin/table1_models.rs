//! Table 1: model configurations and evaluation-dataset length statistics,
//! with the dataset half verified against sampled batches.

use lat_bench::tables;
use lat_model::config::ModelConfig;
use lat_tensor::rng::SplitMix64;
use lat_workloads::datasets::DatasetSpec;

fn main() {
    println!("Table 1 — models & evaluation datasets\n");

    let model_rows: Vec<Vec<String>> = ModelConfig::paper_models()
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                m.layers.to_string(),
                m.hidden_dim.to_string(),
                m.num_heads.to_string(),
                format!("{:.1}M", m.parameter_count() as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        tables::render(
            &[
                "Model",
                "Layers",
                "Hidden dim",
                "Num. of Heads",
                "Encoder params"
            ],
            &model_rows,
        )
    );

    let mut rng = SplitMix64::new(1);
    let dataset_rows: Vec<Vec<String>> = DatasetSpec::paper_datasets()
        .iter()
        .map(|d| {
            // Verify the sampler reproduces the table statistics.
            let sample = d.sample_batch(&mut rng, 20_000);
            let mean = sample.iter().sum::<usize>() as f64 / sample.len() as f64;
            let max = *sample.iter().max().expect("non-empty");
            vec![
                d.name.clone(),
                d.avg_len.to_string(),
                d.max_len.to_string(),
                format!("{:.1}", d.max_over_avg()),
                format!("{mean:.0}"),
                max.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        tables::render(
            &[
                "Evaluation dataset",
                "Avg",
                "Max",
                "Max/Avg",
                "sampled avg",
                "sampled max"
            ],
            &dataset_rows,
        )
    );
    println!("(Max/Avg is the computational overhead padding introduces, §5)");
}
