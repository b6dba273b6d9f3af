#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Virtual-memory substrate for the Gemmini reproduction.
//!
//! Gemmini is (per the paper) "the first infrastructure that provides
//! hardware support for virtual memory without the need for any special
//! driver software". This crate models that hardware and the co-design knobs
//! explored in Section V-A:
//!
//! * [`page`] — page/frame newtypes, permissions, and a physical frame
//!   allocator.
//! * [`page_table`] — a three-level, sv39-style radix page table per address
//!   space, walkable PTE address generation included.
//! * [`tlb`] — a generic TLB (any capacity, including zero entries) with LRU
//!   replacement.
//! * [`ptw`] — the shared page-table walker; each walk issues real memory
//!   accesses through the SoC's `MemorySystem`, so walks hit or miss in the
//!   L2 like any other traffic.
//! * [`filter`] — the paper's "filter registers": one-entry last-translation
//!   caches, one for the read stream and one for the write stream, giving
//!   0-cycle hits for consecutive same-page accesses.
//! * [`translator`] — [`translator::TranslationSystem`], the composed
//!   filter → private TLB → shared L2 TLB → PTW pipeline with all the
//!   statistics the Fig. 4 / Fig. 8 experiments need.
//!
//! # Example
//!
//! ```
//! use gemmini_vm::page_table::AddressSpace;
//! use gemmini_vm::page::FrameAllocator;
//! use gemmini_vm::translator::{TranslationSystem, TranslationConfig, Access};
//! use gemmini_mem::MemorySystem;
//!
//! let mut frames = FrameAllocator::new();
//! let mut space = AddressSpace::new(&mut frames);
//! let va = space.alloc(&mut frames, 8192); // two pages
//! let mut mem = MemorySystem::default();
//! let mut tsys = TranslationSystem::new(TranslationConfig::default());
//! let out = tsys.translate(&space, &mut mem, 0, va, Access::Read)?;
//! assert!(out.latency > 0); // cold TLB miss walks the page table
//! # Ok::<(), gemmini_vm::TranslateError>(())
//! ```

pub mod filter;
pub mod page;
pub mod page_table;
pub mod ptw;
pub mod tlb;
pub mod translator;

pub use page::{Frame, FrameAllocator, Mapping, PagePermissions, Vpn};
pub use page_table::AddressSpace;
pub use tlb::{Tlb, TlbConfig};
pub use translator::{Access, TranslateError, TranslationConfig, TranslationSystem};
