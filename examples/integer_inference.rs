//! End-to-end *integer-only* ViT inference: GEMMs on the QUB dot-product
//! path (Eq. 5), Softmax/GELU/LayerNorm on the integer SFU kernels — the
//! deployment configuration the paper's accelerator targets.
//!
//! ```text
//! cargo run --release -p quq-bench --example integer_inference
//! cargo run --release -p quq-bench --example integer_inference -- --metrics
//! ```
//!
//! With `--metrics` the `quq-obs` recorder is enabled around the integer
//! evaluation and a per-op breakdown (span time per site, GEMM work,
//! decode-cache hits) is printed afterwards.

use quq_core::pipeline::{calibrate, PtqConfig};
use quq_core::{IntegerBackend, QuqMethod};
use quq_vit::{evaluate, Dataset, Fp32Backend, ModelConfig, ModelId, Observed, Tapped, VitModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let metrics = std::env::args().any(|a| a == "--metrics");
    let model = VitModel::synthesize(ModelConfig::eval_scale(ModelId::VitS), 5);
    let calib = Dataset::calibration(model.config(), 16, 1);
    let eval = Dataset::teacher_labeled_confident(&model, 24, 2)?;

    let cfg = PtqConfig::full_w8a8();
    let tables = calibrate(&QuqMethod::paper(), &model, &calib, cfg)?;

    // Three execution paths over the same calibrated parameters.
    let fp32 = evaluate(&model, &mut Fp32Backend::new(), &eval)?;
    let mut fake = tables.backend();
    let fake_acc = evaluate(&model, &mut fake, &eval)?;
    quq_obs::set_enabled(metrics);
    let before = quq_obs::snapshot();
    let mut int = Tapped::new(IntegerBackend::new(&tables), Observed);
    let int_acc = evaluate(&model, &mut int, &eval)?;
    let delta = quq_obs::snapshot().delta_since(&before);
    quq_obs::set_enabled(false);

    println!("W8/A8 full quantization of eval-scale ViT-S:");
    println!("  FP32 reference:            {:.1}%", fp32 * 100.0);
    println!("  fake-quant (float kernels): {:.1}%", fake_acc * 100.0);
    println!("  integer-only (QUA + SFU):   {:.1}%", int_acc * 100.0);

    // Logit agreement between the two quantized paths on one image.
    let img = &eval.images[0];
    let a = model.forward(img, &mut tables.backend())?;
    let b = model.forward(img, &mut IntegerBackend::new(&tables))?;
    let cos = quq_tensor::stats::cosine_similarity(&a, &b)?;
    println!("  fake-quant vs integer logit cosine: {cos:.4}");
    println!("\nThe integer path runs no floating-point kernel inside the network —");
    println!("only the per-tensor scale constants that hardware folds into M/2^N.");

    if metrics {
        println!("\nInteger-path metrics ({} images):", eval.len());
        print!("{}", quq_obs::report::window_summary(&delta, "  "));
        println!("  slowest op sites:");
        print!(
            "{}",
            quq_obs::report::slowest_sites_table(&delta, 10, "    ")
        );
    }
    Ok(())
}
