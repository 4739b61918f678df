//! The memo a shared content allocation carries: one value derived from
//! the content, kept with it.

use std::any::Any;
use std::sync::{Arc, OnceLock};

/// A value derived from immutable content — a relation's row set, a
/// W-table's upper layer — computed at most once per content and dropped
/// with it.  A copy starts empty (copy-on-write copies content only when
/// an edit is about to change it), and an edit in place
/// [clears](Memo::clear) it, so no edit leaves behind a value derived from
/// the content it replaced.
#[derive(Default)]
pub(crate) struct Memo(OnceLock<Arc<dyn Any + Send + Sync>>);

impl Clone for Memo {
    /// The copy an edit of shared content makes: empty.
    fn clone(&self) -> Memo {
        Memo::default()
    }
}

impl Memo {
    /// `derive()`, memoised: derived on first use and shared by every
    /// later caller.  One value per content: while the memo holds a value
    /// of another type, `derive` runs and its value is returned unkept.
    pub(crate) fn get_or_derive<T: Any + Send + Sync>(&self, derive: impl FnOnce() -> T) -> Arc<T> {
        let mut derive = Some(derive);
        let mut run = || Arc::new(derive.take().expect("derives once")());
        let memo = self.0.get_or_init(|| run());
        Arc::clone(memo).downcast::<T>().unwrap_or_else(|_| run())
    }

    /// Drops the memoised value: the content is about to change.
    pub(crate) fn clear(&mut self) {
        self.0.take();
    }
}
