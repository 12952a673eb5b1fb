//! The verdict an op is checked against: weak detection's violating cut
//! and the control relation (or the overlap witness when control is
//! infeasible), in the daemon's wire form so batch and streamed answers
//! compare directly.

use pctl_core::{ControlRelation, Infeasible, OfflineOptions, PredicateEngine};
use pctl_deposet::{GlobalState, Interval};
use pctld::Response;

/// Detection and control answers for one computation.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    /// Per-process indices of the earliest violating cut, if any.
    pub violation: Option<Vec<u32>>,
    /// The synthesized relation, or the overlapping-interval witness.
    pub control: Result<ControlRelation, Vec<Interval>>,
}

impl Verdict {
    /// The expected answer, computed with a fresh engine.
    pub fn expected(eng: &PredicateEngine<'_>) -> Self {
        Verdict::new(
            eng.control(OfflineOptions::default()),
            eng.detect_violation(),
        )
    }

    /// Wrap a batch engine's answers.
    pub fn new(control: Result<ControlRelation, Infeasible>, cut: Option<GlobalState>) -> Self {
        Verdict {
            violation: cut.map(|g| g.indices().to_vec()),
            control: control.map_err(|inf| inf.witness),
        }
    }

    /// Read the daemon's `Detect` and `Control` answers; `None` for any
    /// other response.
    pub fn from_daemon(detect: Response, control: Response) -> Option<Self> {
        let Response::Detect { violation } = detect else {
            return None;
        };
        let control = match control {
            Response::Control {
                relation: Some(rel),
                witness: None,
            } => Ok(rel),
            Response::Control {
                relation: None,
                witness: Some(w),
            } => Err(w),
            _ => return None,
        };
        Some(Verdict { violation, control })
    }

    /// Whether control was feasible.
    pub fn feasible(&self) -> bool {
        self.control.is_ok()
    }

    /// Pairs in the control relation (0 when infeasible).
    pub fn tuples(&self) -> usize {
        self.control.as_ref().map_or(0, ControlRelation::len)
    }
}

/// SplitMix64: the seed of input `j` of a run seeded `seed`.
pub fn input_seed(seed: u64, j: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (j as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
