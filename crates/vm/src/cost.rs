//! The dynamic cost model.
//!
//! The paper reports *runtime overhead*: extra execution time caused by
//! instrumentation. On real hardware that is wall-clock; here the VM
//! charges each executed operation a deterministic cost, which makes
//! overhead a pure function of the instrumentation the profilers insert —
//! exactly the quantity the PPP techniques attack. The relative costs
//! follow the paper: Joshi et al. estimate a hash-table counter update is
//! about **five times** an array update (§3.2), and a poison check adds one
//! comparison (§4.6).

use ppp_ir::ProfOp;

/// Per-operation costs, in abstract units.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CostModel {
    /// Plain ALU/const/copy/emit instructions.
    pub basic: u64,
    /// Memory loads and stores.
    pub memory: u64,
    /// The `rand` input intrinsic.
    pub rand: u64,
    /// Call overhead (frame setup), charged at the call instruction.
    pub call: u64,
    /// Block terminators (jump/branch/switch/return).
    pub terminator: u64,
    /// Path-register ops: `r = c` and `r += c`.
    pub prof_reg: u64,
    /// Array counter update `count[x]++`.
    pub count_array: u64,
    /// Hash-table counter update (per completed probe sequence).
    pub count_hash: u64,
    /// Extra cost of the TPP poison check on checked counts.
    pub poison_check: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            basic: 1,
            memory: 2,
            rand: 1,
            call: 3,
            terminator: 1,
            prof_reg: 1,
            count_array: 2,
            count_hash: 10, // 5x the array cost, per Joshi et al.
            poison_check: 1,
        }
    }
}

impl CostModel {
    /// Cost of a profiling op given whether its table is hash-backed.
    pub fn prof_cost(&self, op: ProfOp, table_is_hash: bool) -> u64 {
        let count = if table_is_hash {
            self.count_hash
        } else {
            self.count_array
        };
        match op {
            ProfOp::SetR { .. } | ProfOp::AddR { .. } => self.prof_reg,
            ProfOp::CountR { .. } | ProfOp::CountRPlus { .. } | ProfOp::CountConst { .. } => count,
            ProfOp::CountRChecked { .. } | ProfOp::CountRPlusChecked { .. } => {
                count + self.poison_check
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::TableId;

    #[test]
    fn default_ratios_match_paper() {
        let c = CostModel::default();
        // Hash is 5x array (Joshi et al., §3.2 of the paper).
        assert_eq!(c.count_hash, 5 * c.count_array);
        assert!(c.poison_check >= 1);
    }

    #[test]
    fn prof_ops_charged_by_table_kind() {
        let c = CostModel::default();
        let t = TableId::new(0);
        assert_eq!(c.prof_cost(ProfOp::SetR { value: 0 }, false), c.prof_reg);
        assert_eq!(
            c.prof_cost(ProfOp::CountR { table: t }, false),
            c.count_array
        );
        assert_eq!(c.prof_cost(ProfOp::CountR { table: t }, true), c.count_hash);
        assert_eq!(
            c.prof_cost(ProfOp::CountRChecked { table: t }, false),
            c.count_array + c.poison_check
        );
        assert_eq!(
            c.prof_cost(
                ProfOp::CountRPlusChecked {
                    table: t,
                    addend: 1
                },
                true
            ),
            c.count_hash + c.poison_check
        );
    }
}
