//! Page/frame newtypes, permissions, and the physical frame allocator.

use gemmini_mem::addr::{PhysAddr, VirtAddr, PAGE_SHIFT};
use std::fmt;

/// A virtual page number.
///
/// # Example
///
/// ```
/// use gemmini_vm::page::Vpn;
/// use gemmini_mem::VirtAddr;
/// assert_eq!(Vpn::of(VirtAddr::new(0x2345)), Vpn::new(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

impl Vpn {
    /// Creates a VPN from a raw page number.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The VPN containing a virtual address.
    pub const fn of(addr: VirtAddr) -> Self {
        Self(addr.raw() >> PAGE_SHIFT)
    }

    /// The raw page number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The base virtual address of this page.
    pub const fn base(self) -> VirtAddr {
        VirtAddr::new(self.0 << PAGE_SHIFT)
    }

    /// The sv39-style 9-bit index at radix level `level` (0 = root).
    pub const fn index_at_level(self, level: u32) -> u64 {
        (self.0 >> (9 * (2 - level))) & 0x1ff
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// A physical frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frame(u64);

impl Frame {
    /// Creates a frame from a raw frame number.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw frame number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The base physical address of this frame.
    pub const fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 << PAGE_SHIFT)
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame:{:#x}", self.0)
    }
}

/// Page permissions. The paper notes that running under a full OS uncovered
/// accelerator reads "from certain regions of physical memory without the
/// proper permissions" that bare-metal runs silently ignored — permissions
/// are therefore checked on every translation, against the bits cached with
/// the translation on a hit and against the page table after a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PagePermissions {
    /// Page may be read.
    pub read: bool,
    /// Page may be written.
    pub write: bool,
}

impl PagePermissions {
    /// Read-write permissions.
    pub const RW: Self = Self {
        read: true,
        write: true,
    };
    /// Read-only permissions.
    pub const RO: Self = Self {
        read: true,
        write: false,
    };

    /// Whether an access of the given direction is allowed.
    pub fn allows(self, write: bool) -> bool {
        if write {
            self.write
        } else {
            self.read
        }
    }
}

impl Default for PagePermissions {
    fn default() -> Self {
        Self::RW
    }
}

/// A leaf translation as the TLBs and filter registers cache it: the frame
/// plus the permission bits of its PTE, so a hit checks the access without
/// consulting the page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// The frame the page maps to.
    pub frame: Frame,
    /// The permissions the PTE grants.
    pub perms: PagePermissions,
}

impl From<(Frame, PagePermissions)> for Mapping {
    fn from((frame, perms): (Frame, PagePermissions)) -> Self {
        Self { frame, perms }
    }
}

/// A bare frame maps read-write ([`PagePermissions::default`]).
impl From<Frame> for Mapping {
    fn from(frame: Frame) -> Self {
        Self {
            frame,
            perms: PagePermissions::default(),
        }
    }
}

/// Bump allocator for physical frames, shared by every address space on the
/// SoC so that distinct processes receive disjoint physical memory.
///
/// Frames start at 2 GiB (`0x8000_0000`), the conventional DRAM base of
/// RISC-V SoCs.
///
/// # Example
///
/// ```
/// use gemmini_vm::page::FrameAllocator;
/// let mut fa = FrameAllocator::new();
/// let a = fa.alloc();
/// let b = fa.alloc();
/// assert_ne!(a, b);
/// assert_eq!(a.base().raw(), 0x8000_0000);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    next: u64,
}

impl FrameAllocator {
    /// DRAM base frame number (2 GiB / 4 KiB).
    pub const DRAM_BASE_FRAME: u64 = 0x8000_0000 >> PAGE_SHIFT;

    /// Creates an allocator starting at the DRAM base.
    pub fn new() -> Self {
        Self {
            next: Self::DRAM_BASE_FRAME,
        }
    }

    /// Allocates one fresh frame.
    pub fn alloc(&mut self) -> Frame {
        let f = Frame::new(self.next);
        self.next += 1;
        f
    }

    /// Number of frames allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next - Self::DRAM_BASE_FRAME
    }
}

impl Default for FrameAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_of_address() {
        assert_eq!(Vpn::of(VirtAddr::new(0)), Vpn::new(0));
        assert_eq!(Vpn::of(VirtAddr::new(4095)), Vpn::new(0));
        assert_eq!(Vpn::of(VirtAddr::new(4096)), Vpn::new(1));
        assert_eq!(Vpn::new(3).base(), VirtAddr::new(3 * 4096));
    }

    #[test]
    fn sv39_level_indices() {
        // vpn = 0b[l0:9][l1:9][l2:9]
        let vpn = Vpn::new((5 << 18) | (7 << 9) | 9);
        assert_eq!(vpn.index_at_level(0), 5);
        assert_eq!(vpn.index_at_level(1), 7);
        assert_eq!(vpn.index_at_level(2), 9);
    }

    #[test]
    fn frame_base_address() {
        assert_eq!(Frame::new(0x80000).base(), PhysAddr::new(0x8000_0000));
    }

    #[test]
    fn permissions_allow() {
        assert!(PagePermissions::RW.allows(true));
        assert!(PagePermissions::RW.allows(false));
        assert!(!PagePermissions::RO.allows(true));
        assert!(PagePermissions::RO.allows(false));
    }

    #[test]
    fn allocator_hands_out_distinct_frames_from_dram_base() {
        let mut fa = FrameAllocator::new();
        let a = fa.alloc();
        let b = fa.alloc();
        assert_eq!(a.raw() + 1, b.raw());
        assert_eq!(a.base().raw(), 0x8000_0000);
        assert_eq!(fa.allocated(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Vpn::new(0x10).to_string(), "vpn:0x10");
        assert_eq!(Frame::new(0x10).to_string(), "frame:0x10");
    }
}
