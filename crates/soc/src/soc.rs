//! SoC configuration and construction (Fig. 5).
//!
//! An SoC is a set of cores — each a host CPU, a Gemmini-generated
//! accelerator, and its private translation hardware — sharing one memory
//! system (bus → L2 → DRAM) and one pool of physical frames. The Fig. 9
//! case-study configurations (`Base`, `BigSP`, `BigL2`) are provided as
//! constructors.

use crate::os::OsConfig;
use gemmini_core::config::GemminiConfig;
use gemmini_core::Accelerator;
use gemmini_cpu::{CpuKind, CpuModel};
use gemmini_mem::cache::CacheConfig;
use gemmini_mem::dram::MainMemory;
use gemmini_mem::hierarchy::MemorySystemConfig;
use gemmini_mem::MemorySystem;
use gemmini_vm::page::FrameAllocator;
use gemmini_vm::page_table::AddressSpace;
use gemmini_vm::translator::{TranslationConfig, TranslationSystem};

/// One core: host CPU + accelerator + translation configuration.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Host CPU flavor.
    pub cpu: CpuKind,
    /// Accelerator instance parameters.
    pub accel: GemminiConfig,
    /// Translation hardware (private TLB, shared L2 TLB, filters, PTW).
    pub translation: TranslationConfig,
}

impl CoreConfig {
    /// The paper's edge core: Rocket + the edge accelerator + the default
    /// translation system.
    pub fn edge() -> Self {
        Self {
            cpu: CpuKind::Rocket,
            accel: GemminiConfig::edge(),
            translation: TranslationConfig::default(),
        }
    }
}

/// Whole-SoC configuration.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// The cores (one accelerator per core, as in Fig. 5).
    pub cores: Vec<CoreConfig>,
    /// Shared memory path (bus, L2, DRAM).
    pub mem: MemorySystemConfig,
    /// OS-noise model.
    pub os: OsConfig,
}

impl SocConfig {
    /// Single-core edge SoC with a 1 MiB shared L2 (the Fig. 9 `Base`).
    pub fn edge_single_core() -> Self {
        Self {
            cores: vec![CoreConfig::edge()],
            mem: MemorySystemConfig {
                l2: CacheConfig::l2_mb(1),
                ..MemorySystemConfig::default()
            },
            os: OsConfig::bare_metal(),
        }
    }

    /// Dual-core edge SoC (Fig. 5): two CPUs, each with its own
    /// accelerator, sharing the L2.
    pub fn edge_dual_core() -> Self {
        Self {
            cores: vec![CoreConfig::edge(), CoreConfig::edge()],
            ..Self::edge_single_core()
        }
    }

    /// Applies a Fig. 9a memory partition to every core: per-core
    /// scratchpad/accumulator KiB and the shared L2 size in MiB.
    pub fn with_partition(mut self, sp_kb: usize, acc_kb: usize, l2_mb: u64) -> Self {
        for core in &mut self.cores {
            core.accel.sp_capacity_kb = sp_kb;
            core.accel.acc_capacity_kb = acc_kb;
        }
        self.mem.l2 = CacheConfig::l2_mb(l2_mb);
        self
    }

    /// Fig. 9a `Base`: 256 KiB scratchpad + 256 KiB accumulator per core,
    /// 1 MiB L2.
    pub fn partition_base(cores: usize) -> Self {
        let base = if cores == 1 {
            Self::edge_single_core()
        } else {
            Self {
                cores: vec![CoreConfig::edge(); cores],
                ..Self::edge_single_core()
            }
        };
        base.with_partition(256, 256, 1)
    }

    /// Fig. 9a `BigSP`: 512 KiB scratchpad + 512 KiB accumulator per core,
    /// 1 MiB L2.
    pub fn partition_big_sp(cores: usize) -> Self {
        Self::partition_base(cores).with_partition(512, 512, 1)
    }

    /// Fig. 9a `BigL2`: 256 KiB scratchpad + 256 KiB accumulator per core,
    /// 2 MiB L2.
    pub fn partition_big_l2(cores: usize) -> Self {
        Self::partition_base(cores).with_partition(256, 256, 2)
    }

    /// Validates every component configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores.is_empty() {
            return Err("SoC needs at least one core".to_string());
        }
        self.mem.validate()?;
        for (i, c) in self.cores.iter().enumerate() {
            c.accel
                .validate()
                .map_err(|e| format!("core {i} accelerator: {e}"))?;
        }
        Ok(())
    }
}

/// One instantiated core.
#[derive(Debug)]
pub struct Core {
    /// Core index (also its DMA port id).
    pub id: usize,
    /// Host-CPU timing model.
    pub cpu: CpuModel,
    /// The core's accelerator.
    pub accel: Accelerator,
    /// The core's translation hardware.
    pub translation: TranslationSystem,
    /// The process address space running on this core.
    pub space: AddressSpace,
}

/// An instantiated SoC: cores + shared memory state.
#[derive(Debug)]
pub struct Soc {
    /// The cores.
    pub cores: Vec<Core>,
    /// Shared bus → L2 → DRAM.
    pub mem: MemorySystem,
    /// Functional physical memory (None for timing-only runs).
    pub data: Option<MainMemory>,
    /// Shared physical frame allocator.
    pub frames: FrameAllocator,
}

impl Soc {
    /// Instantiates an SoC. `functional` selects whether physical bytes are
    /// modeled.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SocConfig::validate`].
    pub fn new(config: &SocConfig, functional: bool) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SoC configuration: {e}");
        }
        let mut frames = FrameAllocator::new();
        let cores = config
            .cores
            .iter()
            .enumerate()
            .map(|(id, c)| {
                let mut tc = c.translation;
                // Give each core's PTW a distinct port well away from DMA
                // ports (which are the core ids).
                tc.ptw.port = 1000 + id;
                Core {
                    id,
                    cpu: CpuModel::new(c.cpu),
                    accel: if functional {
                        Accelerator::new(c.accel.clone())
                    } else {
                        Accelerator::timing_only(c.accel.clone())
                    },
                    translation: TranslationSystem::new(tc),
                    space: AddressSpace::new(&mut frames),
                }
            })
            .collect();
        Self {
            cores,
            mem: MemorySystem::new(config.mem),
            data: functional.then(MainMemory::new),
            frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_dual_core_construction() {
        let s1 = Soc::new(&SocConfig::edge_single_core(), false);
        assert_eq!(s1.cores.len(), 1);
        assert!(s1.data.is_none());
        let s2 = Soc::new(&SocConfig::edge_dual_core(), true);
        assert_eq!(s2.cores.len(), 2);
        assert!(s2.data.is_some());
    }

    #[test]
    fn partition_presets_match_fig9a() {
        let base = SocConfig::partition_base(1);
        assert_eq!(base.cores[0].accel.sp_capacity_kb, 256);
        assert_eq!(base.cores[0].accel.acc_capacity_kb, 256);
        assert_eq!(base.mem.l2.size_bytes, 1 << 20);

        let big_sp = SocConfig::partition_big_sp(2);
        assert_eq!(big_sp.cores.len(), 2);
        assert_eq!(big_sp.cores[0].accel.sp_capacity_kb, 512);
        assert_eq!(big_sp.mem.l2.size_bytes, 1 << 20);

        let big_l2 = SocConfig::partition_big_l2(2);
        assert_eq!(big_l2.cores[0].accel.sp_capacity_kb, 256);
        assert_eq!(big_l2.mem.l2.size_bytes, 2 << 20);
    }

    #[test]
    fn cores_have_disjoint_address_spaces() {
        let mut soc = Soc::new(&SocConfig::edge_dual_core(), false);
        let va0 = soc.cores[0].space.alloc(&mut soc.frames, 4096);
        let va1 = soc.cores[1].space.alloc(&mut soc.frames, 4096);
        // Same virtual layout, different physical frames.
        assert_eq!(va0, va1);
        assert_ne!(
            soc.cores[0].space.translate(va0),
            soc.cores[1].space.translate(va1)
        );
    }

    #[test]
    fn empty_soc_is_rejected() {
        let cfg = SocConfig {
            cores: vec![],
            ..SocConfig::edge_single_core()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_surfaces_core_errors() {
        let mut cfg = SocConfig::edge_single_core();
        cfg.cores[0].accel.sp_banks = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("core 0"));
    }
}
