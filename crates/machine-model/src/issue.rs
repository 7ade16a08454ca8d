//! Issue models.

/// How many instructions the target may issue per cycle.
///
/// The paper's implementation "supports a general machine model", but all
/// experimental results use a single-issue model, "in which the processor
/// can issue one instruction of any type in each cycle" (Section II-A). We
/// mirror that: schedulers accept any width, benchmarks use
/// [`IssueModel::SingleIssue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IssueModel {
    /// One instruction of any type per cycle (the paper's evaluation model).
    #[default]
    SingleIssue,
    /// Up to `width` instructions of any type per cycle.
    MultiIssue {
        /// Instructions issuable per cycle; must be at least 1.
        width: u32,
    },
}

impl IssueModel {
    /// Instructions issuable per cycle.
    pub fn width(self) -> u32 {
        match self {
            IssueModel::SingleIssue => 1,
            IssueModel::MultiIssue { width } => width.max(1),
        }
    }

    /// Lower bound (in cycles) to issue `n` instructions, ignoring
    /// dependences.
    pub fn issue_cycles_lb(self, n: usize) -> u32 {
        (n as u32).div_ceil(self.width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_issue_width_is_one() {
        assert_eq!(IssueModel::SingleIssue.width(), 1);
        assert_eq!(IssueModel::SingleIssue.issue_cycles_lb(7), 7);
    }

    #[test]
    fn multi_issue_rounds_up() {
        let m = IssueModel::MultiIssue { width: 4 };
        assert_eq!(m.issue_cycles_lb(9), 3);
        assert_eq!(m.issue_cycles_lb(8), 2);
        assert_eq!(m.issue_cycles_lb(0), 0);
    }

    #[test]
    fn zero_width_is_clamped() {
        assert_eq!(IssueModel::MultiIssue { width: 0 }.width(), 1);
    }
}
