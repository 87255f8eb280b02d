//! Bad shapes through the integer backend's GEMM ops: each returns the
//! error `Fp32Backend` returns for the same shapes — checked before any
//! encode — instead of panicking a serving worker.

use quq_accel::IntegerBackend;
use quq_core::pipeline::{calibrate, PtqConfig};
use quq_core::QuqMethod;
use quq_tensor::Tensor;
use quq_vit::backend::Result;
use quq_vit::{Backend, BackendError, Dataset, Fp32Backend, ModelConfig, OpKind, OpSite, VitModel};

fn same(got: Result<Tensor>, want: Result<Tensor>) {
    let (got, want) = (got.unwrap_err(), want.unwrap_err());
    assert!(matches!(got, BackendError::Tensor(_)), "{got:?}");
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

#[test]
fn gemm_ops_return_the_fp32_shape_errors() {
    let model = VitModel::synthesize(ModelConfig::test_config(), 33);
    let calib = Dataset::calibration(model.config(), 4, 1);
    let config = PtqConfig::full_w6a6();
    let tables = calibrate(&QuqMethod::without_optimization(), &model, &calib, config).unwrap();
    let block = &model.weights().stages[0].blocks[0];
    let dim = block.embed_dim;
    let t = |shape: &[usize]| Tensor::zeros(shape);
    let site = |kind| OpSite::in_block(0, kind);
    let (mut int, mut fp) = (IntegerBackend::new(&tables), Fp32Backend::new());
    let qkv = site(OpKind::Qkv);
    let short_w = t(&[3 * dim, dim - 1]);
    for (x, w, b) in [
        (t(&[]), &block.qkv_w, None),
        (t(&[2, dim]), &t(&[3 * dim]), None),
        (t(&[2, dim]), &short_w, None),
        (t(&[2, 3, dim]), &short_w, Some(&block.qkv_b)),
        (t(&[2, dim]), &block.qkv_w, Some(&block.ln1_b)),
        (t(&[2, dim]), &block.qkv_w, Some(&t(&[3 * dim, 1]))),
    ] {
        same(int.linear(qkv, &x, w, b), fp.linear(qkv, &x, w, b));
    }
    let (qk, pv) = (site(OpKind::QkMatmul), site(OpKind::PvMatmul));
    for (a, b) in [
        (t(&[2, 3, 4]), t(&[4, 5])),
        (t(&[4]), t(&[4, 5])),
        (t(&[2, 4]), t(&[4])),
        (t(&[2, 4]), t(&[5, 3])),
        (t(&[2, 4]), t(&[5, 4, 1])),
    ] {
        same(int.matmul_nt(qk, &a, &b), fp.matmul_nt(qk, &a, &b));
        same(int.matmul(pv, &a, &b), fp.matmul(pv, &a, &b));
    }
}
