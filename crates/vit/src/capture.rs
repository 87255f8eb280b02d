//! Activation capture: a tap that records tensors flowing through chosen
//! operation sites.
//!
//! Used for two things:
//!
//! * regenerating the paper's Fig. 3 distribution plots (post-Softmax,
//!   pre-addition, post-GELU activations), and
//! * feeding calibration samples to PTQ pipelines (paper §6.1 uses 32
//!   calibration images).

use crate::backend::{Op, OpKind, OpSite, Tap};
use quq_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};

/// Which tensor of an operation to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TapSide {
    /// The operation's first input ([`Op::input`]).
    Input,
    /// Its second activation input ([`Op::input_b`]). For a residual
    /// addition this is the non-skip branch — the paper's "pre-addition
    /// activation" (Fig. 3c).
    InputB,
    /// The operation's output.
    Output,
}

/// A capture request: record `side` of every site with this kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TapPoint {
    /// Operation kind to record.
    pub kind: OpKind,
    /// Which tensor of the operation to record.
    pub side: TapSide,
}

impl TapPoint {
    /// Records the output of `kind`.
    pub fn output(kind: OpKind) -> Self {
        Self {
            kind,
            side: TapSide::Output,
        }
    }
}

/// The capture tap: records flattened values at the requested points.
///
/// Values (not tensors) are stored so multiple forward passes accumulate one
/// growing sample per `(site, side)` — exactly what calibration and histogram
/// rendering need.
#[derive(Debug)]
pub struct Capture {
    points: BTreeSet<TapPoint>,
    samples: BTreeMap<(OpSite, TapSide), Vec<f32>>,
}

impl Capture {
    /// Records at `points`.
    pub fn new(points: impl IntoIterator<Item = TapPoint>) -> Self {
        Self {
            points: points.into_iter().collect(),
            samples: BTreeMap::new(),
        }
    }

    fn record(&mut self, site: OpSite, side: TapSide, t: &Tensor) {
        if self.points.contains(&TapPoint {
            kind: site.kind,
            side,
        }) {
            self.samples
                .entry((site, side))
                .or_default()
                .extend_from_slice(t.data());
        }
    }

    /// Concatenated samples for a given kind/side across all sites.
    pub fn samples_for(&self, kind: OpKind, side: TapSide) -> Vec<f32> {
        let mut out = Vec::new();
        for ((site, s), v) in &self.samples {
            if site.kind == kind && *s == side {
                out.extend_from_slice(v);
            }
        }
        out
    }
}

impl Tap for Capture {
    type Pending = ();

    fn before(&mut self, site: OpSite, op: &Op<'_>) {
        self.record(site, TapSide::Input, op.input());
        if let Some(b) = op.input_b() {
            self.record(site, TapSide::InputB, b);
        }
    }

    fn after(&mut self, site: OpSite, out: &Tensor, (): ()) {
        self.record(site, TapSide::Output, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Fp32Backend, Tapped};
    use crate::config::ModelConfig;
    use crate::model::VitModel;

    fn capture(points: impl IntoIterator<Item = TapPoint>) -> Tapped<Fp32Backend, Capture> {
        Tapped::new(Fp32Backend::new(), Capture::new(points))
    }

    #[test]
    fn capture_matches_plain_execution() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 1);
        let img = model.config().dummy_image(0.4);
        let plain = model.forward(&img, &mut Fp32Backend::new()).unwrap();
        let mut cap = capture([TapPoint::output(OpKind::Softmax)]);
        let captured = model.forward(&img, &mut cap).unwrap();
        assert_eq!(plain, captured);
    }

    #[test]
    fn captures_only_requested_taps() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 1);
        let img = model.config().dummy_image(0.4);
        let mut cap = capture([
            TapPoint::output(OpKind::Softmax),
            TapPoint::output(OpKind::Gelu),
        ]);
        model.forward(&img, &mut cap).unwrap();
        assert!(!cap
            .tap()
            .samples_for(OpKind::Softmax, TapSide::Output)
            .is_empty());
        assert!(!cap
            .tap()
            .samples_for(OpKind::Gelu, TapSide::Output)
            .is_empty());
        assert!(cap
            .tap()
            .samples_for(OpKind::Fc1, TapSide::Input)
            .is_empty());
    }

    #[test]
    fn softmax_outputs_are_probabilities() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 1);
        let img = model.config().dummy_image(-0.1);
        let mut cap = capture([TapPoint::output(OpKind::Softmax)]);
        model.forward(&img, &mut cap).unwrap();
        let v = cap.tap().samples_for(OpKind::Softmax, TapSide::Output);
        assert!(v.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn residual_branch_tap_records_branch_only() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 1);
        let img = model.config().dummy_image(0.2);
        let mut cap = capture([TapPoint {
            kind: OpKind::Residual1,
            side: TapSide::InputB,
        }]);
        model.forward(&img, &mut cap).unwrap();
        let n = model.config().seq_len() * model.config().stages[0].embed_dim;
        let v = cap.tap().samples_for(OpKind::Residual1, TapSide::InputB);
        // One [n, d] tensor per block.
        assert_eq!(v.len(), n * model.config().total_depth());
    }

    #[test]
    fn samples_accumulate_across_forward_passes() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 1);
        let img = model.config().dummy_image(0.2);
        let mut cap = capture([TapPoint::output(OpKind::Gelu)]);
        model.forward(&img, &mut cap).unwrap();
        let once = cap.tap().samples_for(OpKind::Gelu, TapSide::Output).len();
        model.forward(&img, &mut cap).unwrap();
        assert_eq!(
            cap.tap().samples_for(OpKind::Gelu, TapSide::Output).len(),
            2 * once
        );
    }
}
