//! Zeroed `u64` arrays recycled through a per-thread spare list.
//!
//! Every simulated point builds an L2 and its engines' row scoreboards,
//! each holding `u64` arrays of up to a few hundred KiB, and drops them
//! when the point ends. Allocated fresh each time, they hand most of a MiB
//! back to the allocator per point, which then trims and regrows the top of
//! the heap around every point, so set-up time comes to depend on heap
//! layout. A [`ZeroedU64s`] instead takes its buffer from the calling
//! thread's spare list, zeroes it, and puts it back when dropped: a sweep
//! worker reuses the same buffers point after point.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

thread_local! {
    static SPARES: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// `len` zeroed `u64`s whose buffer comes from, and on drop returns to,
/// the calling thread's spare list. It derefs to a slice, so its length is
/// fixed.
///
/// # Example
///
/// ```
/// use gemmini_mem::spare::ZeroedU64s;
/// let mut a = ZeroedU64s::new(4);
/// a[2] = 7;
/// drop(a);
/// // The dropped buffer is reused, and zeroed again.
/// assert_eq!(&ZeroedU64s::new(3)[..], &[0, 0, 0]);
/// ```
pub struct ZeroedU64s(Vec<u64>);

impl ZeroedU64s {
    /// `len` zeroes: in the smallest spare buffer that holds them, or in a
    /// fresh allocation when no spare does.
    pub fn new(len: usize) -> Self {
        let spare = SPARES
            .try_with(|spares| take_spare(&mut spares.borrow_mut(), len))
            .ok()
            .flatten();
        match spare {
            Some(mut buf) if buf.capacity() >= len => {
                buf.clear();
                buf.resize(len, 0);
                Self(buf)
            }
            // A spare too small for `len` is freed here, so the list never
            // holds more buffers than were live at once.
            _ => Self(vec![0; len]),
        }
    }
}

/// Removes the smallest spare with room for `len` elements, or else the
/// largest spare.
fn take_spare(spares: &mut Vec<Vec<u64>>, len: usize) -> Option<Vec<u64>> {
    let capacity = |i: &usize| spares[*i].capacity();
    let fits = (0..spares.len())
        .filter(|i| capacity(i) >= len)
        .min_by_key(capacity);
    let i = fits.or_else(|| (0..spares.len()).max_by_key(capacity))?;
    Some(spares.swap_remove(i))
}

impl Drop for ZeroedU64s {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0);
        if buf.capacity() > 0 {
            // Once the thread's list is gone (thread exit), the buffer is
            // simply freed.
            let _ = SPARES.try_with(|spares| spares.borrow_mut().push(buf));
        }
    }
}

impl Clone for ZeroedU64s {
    fn clone(&self) -> Self {
        let mut copy = Self::new(self.len());
        copy.copy_from_slice(self);
        copy
    }
}

impl Deref for ZeroedU64s {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        &self.0
    }
}

impl DerefMut for ZeroedU64s {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.0
    }
}

impl fmt::Debug for ZeroedU64s {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Empties this thread's spare list, so a test starts from none.
    fn no_spares() {
        SPARES.with(|s| s.borrow_mut().clear());
    }

    fn spare_capacities() -> Vec<usize> {
        let mut caps: Vec<usize> = SPARES.with(|s| s.borrow().iter().map(Vec::capacity).collect());
        caps.sort_unstable();
        caps
    }

    #[test]
    fn a_reused_buffer_is_zeroed() {
        no_spares();
        let mut a = ZeroedU64s::new(64);
        a.fill(u64::MAX);
        let ptr = a.as_ptr();
        drop(a);
        let b = ZeroedU64s::new(48);
        assert_eq!(b.as_ptr(), ptr, "the spare is reused");
        assert_eq!(b.len(), 48);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn the_smallest_fitting_spare_is_taken() {
        no_spares();
        let (big, small) = (ZeroedU64s::new(1000), ZeroedU64s::new(100));
        drop(big);
        drop(small);
        let a = ZeroedU64s::new(50);
        assert_eq!(a.len(), 50);
        assert_eq!(spare_capacities(), [1000]);
        let b = ZeroedU64s::new(500);
        assert!(spare_capacities().is_empty());
        drop((a, b));
        assert_eq!(spare_capacities(), [100, 1000]);
    }

    #[test]
    fn a_spare_too_small_is_freed_not_kept() {
        no_spares();
        drop(ZeroedU64s::new(10));
        let a = ZeroedU64s::new(20);
        assert!(spare_capacities().is_empty());
        drop(a);
        assert_eq!(spare_capacities(), [20]);
    }

    #[test]
    fn clones_are_equal_and_independent() {
        let mut a = ZeroedU64s::new(3);
        a[1] = 5;
        let mut b = a.clone();
        assert_eq!(format!("{b:?}"), "[0, 5, 0]");
        b[1] = 6;
        assert_eq!(a[1], 5);
    }
}
