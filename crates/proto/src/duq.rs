//! The delayed update queue (DUQ).

use parking_lot::Mutex;

/// A processor's delayed update queue.
///
/// Tracks the dirty pages whose changes must be propagated to their
/// homes at the processor's next release point (§3.1.1: "Like Munin,
/// MGS uses a delayed update queue (DUQ) to track dirty pages and to
/// propagate their changes back to the home location at release time").
///
/// Entries are also removed remotely: when a page is invalidated, the
/// Remote Client prunes it from every local processor's DUQ (Table 1,
/// arc 12), hence the internal mutex. A pruned page's updates travel
/// home inside the *pruner's* transaction, which may still be in
/// flight when the owner next releases; the queue remembers such pages
/// ([`take_pruned`](Duq::take_pruned)) so that release can wait for it.
///
/// # Example
///
/// ```
/// use mgs_proto::Duq;
///
/// let duq = Duq::new();
/// duq.push(7);
/// duq.push(3);
/// duq.push(7); // already queued: no duplicate
/// assert_eq!(duq.drain(), vec![7, 3]);
/// assert!(duq.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Duq {
    /// `(queued, pruned since the last take_pruned)`.
    pages: Mutex<(Vec<u64>, Vec<u64>)>,
}

impl Duq {
    /// Creates an empty queue.
    pub fn new() -> Duq {
        Duq::default()
    }

    /// Appends `page` unless it is already queued. Returns whether the
    /// page was newly queued.
    pub fn push(&self, page: u64) -> bool {
        let pages = &mut self.pages.lock().0;
        if pages.contains(&page) {
            false
        } else {
            pages.push(page);
            true
        }
    }

    /// Removes `page` if queued (arc 12: `DUQ = DUQ − {addr}`) and
    /// remembers it as pruned. Returns whether it was present.
    pub fn remove(&self, page: u64) -> bool {
        let (pages, pruned) = &mut *self.pages.lock();
        match pages.iter().position(|&p| p == page) {
            Some(i) => {
                pages.remove(i);
                pruned.push(page);
                true
            }
            None => false,
        }
    }

    /// Takes the pages [`remove`](Duq::remove) pruned since the last
    /// call.
    pub fn take_pruned(&self) -> Vec<u64> {
        std::mem::take(&mut self.pages.lock().1)
    }

    /// Is `page` queued?
    pub fn contains(&self, page: u64) -> bool {
        self.pages.lock().0.contains(&page)
    }

    /// Takes the queued pages in FIFO order, leaving the queue empty
    /// (arc 8/10: the release loop pops the head until empty).
    pub fn drain(&self) -> Vec<u64> {
        std::mem::take(&mut self.pages.lock().0)
    }

    /// Number of queued pages.
    pub fn len(&self) -> usize {
        self.pages.lock().0.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_preserves_fifo_order() {
        let q = Duq::new();
        q.push(3);
        q.push(1);
        q.push(2);
        assert_eq!(q.drain(), vec![3, 1, 2]);
    }

    #[test]
    fn push_is_idempotent() {
        let q = Duq::new();
        assert!(q.push(5));
        assert!(!q.push(5));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_prunes_and_remembers() {
        let q = Duq::new();
        q.push(1);
        q.push(2);
        assert!(q.remove(1));
        assert!(!q.remove(1));
        assert!(!q.contains(1));
        assert!(q.contains(2));
        assert_eq!(q.take_pruned(), vec![1]);
        assert_eq!(q.take_pruned(), Vec::<u64>::new());
    }

    #[test]
    fn drain_empties() {
        let q = Duq::new();
        q.push(9);
        let _ = q.drain();
        assert!(q.is_empty());
        assert_eq!(q.drain(), Vec::<u64>::new());
    }
}
