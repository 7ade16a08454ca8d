//! Idle host cores lent to the region in flight: whoever owns spare cores
//! (the suite pool, the CLI) puts them in an [`IdleCores`] ledger entered on
//! the threads whose compilations may use them. Each iteration of a large
//! region borrows some for its wavefronts and returns them when it ends or
//! unwinds; a thread that entered no ledger never borrows.
//!
//! The balance is signed: an owner that [`reclaim`](IdleCores::reclaim)s a
//! core while an iteration still holds it drives the balance below zero,
//! and no loan is granted until that iteration's loan comes back.

use std::cell::RefCell;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::Arc;

/// A ledger of idle host cores that ACO iterations may borrow; clones share
/// it.
#[derive(Debug, Clone, Default)]
pub struct IdleCores(Arc<Ledger>);

#[derive(Debug, Default)]
struct Ledger {
    /// Cores offered and not currently borrowed, less those reclaimed
    /// while still lent.
    idle: AtomicIsize,
    /// Iterations that ran with at least one borrowed core.
    shared_iterations: AtomicU64,
}

thread_local! {
    /// The ledger this thread's compilations borrow from, if any.
    static ENTERED: RefCell<Option<IdleCores>> = const { RefCell::new(None) };
}

impl IdleCores {
    /// A ledger holding `idle` cores.
    pub fn new(idle: usize) -> IdleCores {
        let cores = IdleCores::default();
        cores.0.idle.store(idle as isize, Ordering::Release);
        cores
    }

    /// Adds one idle core.
    pub fn offer(&self) {
        self.0.idle.fetch_add(1, Ordering::AcqRel);
    }

    /// Takes back one core [`offer`](IdleCores::offer)ed earlier. If an
    /// iteration has it, the balance stays below zero until that
    /// iteration's loan is returned.
    pub fn reclaim(&self) {
        self.0.idle.fetch_sub(1, Ordering::AcqRel);
    }

    /// Runs `f` with this ledger entered on the calling thread, restoring
    /// whatever was entered before when `f` returns or unwinds.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<IdleCores>);
        impl Drop for Restore {
            fn drop(&mut self) {
                ENTERED.with(|e| *e.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(ENTERED.with(|e| e.replace(Some(self.clone()))));
        f()
    }

    /// Iterations that have run with at least one core from this ledger.
    pub fn shared_iterations(&self) -> u64 {
        self.0.shared_iterations.load(Ordering::Acquire)
    }
}

/// Cores borrowed for one iteration; they go back when the loan drops.
pub(crate) struct Loan {
    from: IdleCores,
    pub(crate) cores: usize,
}

impl Loan {
    /// Borrows up to `max` idle cores from the ledger entered on this
    /// thread, if it has any.
    pub(crate) fn take(max: usize) -> Option<Loan> {
        let from = ENTERED.with(|e| e.borrow().clone())?;
        let idle = from
            .0
            .idle
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |idle| {
                (idle > 0 && max > 0).then(|| idle - idle.min(max as isize))
            })
            .ok()?;
        from.0.shared_iterations.fetch_add(1, Ordering::AcqRel);
        let cores = idle.min(max as isize) as usize;
        Some(Loan { from, cores })
    }
}

impl Drop for Loan {
    fn drop(&mut self) {
        self.from
            .0
            .idle
            .fetch_add(self.cores as isize, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn borrow(max: usize) -> Option<usize> {
        Loan::take(max).map(|loan| loan.cores)
    }

    fn balance(cores: &IdleCores) -> isize {
        cores.0.idle.load(Ordering::Acquire)
    }

    #[test]
    fn a_loan_takes_what_is_idle_and_gives_it_back() {
        assert_eq!(borrow(4), None, "no ledger entered");
        let idle = IdleCores::new(2);
        idle.enter(|| {
            let a = Loan::take(5).expect("two cores are idle");
            assert_eq!(a.cores, 2);
            assert_eq!(borrow(1), None, "the ledger is empty");
            drop(a);
            assert_eq!(borrow(1), Some(1), "the cores came back");
            assert_eq!(borrow(0), None);
        });
        assert_eq!(idle.shared_iterations(), 2);
        assert_eq!(borrow(1), None, "leaving the scope leaves the ledger");
        idle.offer();
        assert_eq!(idle.enter(|| borrow(9)), Some(3));
    }

    #[test]
    fn unwinding_restores_the_outer_ledger_and_returns_the_loan() {
        let outer = IdleCores::new(1);
        let inner = IdleCores::new(3);
        outer.enter(|| {
            let unwound = std::panic::catch_unwind(|| {
                inner.enter(|| {
                    let _loan = Loan::take(3);
                    panic!("an iteration panics");
                })
            });
            assert!(unwound.is_err());
            assert_eq!(borrow(3), Some(1), "the outer ledger is back");
        });
        assert_eq!(inner.enter(|| borrow(3)), Some(3), "the loan came back");
    }

    #[test]
    fn a_core_reclaimed_while_lent_comes_back_with_the_loan() {
        let idle = IdleCores::new(0);
        idle.enter(|| {
            idle.offer();
            let loan = Loan::take(3).expect("the offered core is idle");
            assert_eq!(loan.cores, 1);
            idle.reclaim();
            assert_eq!(balance(&idle), -1, "the owner took back a lent core");
            assert_eq!(borrow(1), None, "a negative balance lends nothing");
            drop(loan);
            assert_eq!(balance(&idle), 0, "the loan returned the core");
            assert_eq!(borrow(1), None, "no core is idle");
        });
    }

    /// Owners offer and reclaim while iterations on the same threads borrow
    /// and return, in both orders: whatever interleaving the threads take,
    /// every core offered comes back to its owner.
    #[test]
    fn concurrent_offers_reclaims_and_loans_balance_out() {
        let idle = IdleCores::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let idle = &idle;
                s.spawn(move || {
                    idle.enter(|| {
                        for i in 0..5_000 {
                            idle.offer();
                            let max = 1 + (t + i) % 3;
                            let loan = Loan::take(max);
                            if let Some(loan) = &loan {
                                assert!((1..=max).contains(&loan.cores));
                            }
                            if i % 2 == 0 {
                                idle.reclaim();
                                drop(loan);
                            } else {
                                drop(loan);
                                idle.reclaim();
                            }
                        }
                    })
                });
            }
        });
        assert_eq!(balance(&idle), 0);
        assert!(idle.shared_iterations() > 0);
    }
}
