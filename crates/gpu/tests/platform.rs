//! Integration tests for the GPU platform: kernels run to completion on
//! single- and multi-chiplet machines, RDMA carries remote traffic,
//! progress bars track dispatch, and the driver sequences tasks.

use std::rc::Rc;

use akita::VTime;
use akita_gpu::kernel::{Inst, WavefrontProgram};
use akita_gpu::{GpuConfig, Platform, PlatformConfig, UniformKernel};

fn read_kernel(workgroups: u64, wavefronts: usize, stride: u64, base: u64) -> Rc<UniformKernel> {
    let insts = (0..8)
        .map(|i| Inst::Load(base + i * stride, 4))
        .collect::<Vec<_>>();
    Rc::new(UniformKernel::new(
        "reads",
        workgroups,
        wavefronts,
        WavefrontProgram::new(insts),
    ))
}

#[test]
fn single_chiplet_kernel_completes() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(4),
        ..PlatformConfig::default()
    });
    p.driver
        .borrow_mut()
        .enqueue_kernel(read_kernel(16, 2, 64, 0x1_0000));
    p.start();
    let summary = p.sim.run();
    assert!(p.driver.borrow().finished(), "driver must drain its queue");
    assert_eq!(p.dispatcher.borrow().kernels_completed(), 1);
    let total_wgs: u64 = p.chiplets[0]
        .cus
        .iter()
        .map(|cu| cu.borrow().stats().2)
        .sum();
    assert_eq!(total_wgs, 16);
    assert!(summary.events > 0);
}

#[test]
fn workgroups_spread_across_cus() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(4),
        ..PlatformConfig::default()
    });
    p.driver
        .borrow_mut()
        .enqueue_kernel(read_kernel(64, 2, 64, 0));
    p.start();
    p.sim.run();
    let per_cu: Vec<u64> = p.chiplets[0]
        .cus
        .iter()
        .map(|cu| cu.borrow().stats().2)
        .collect();
    assert_eq!(per_cu.iter().sum::<u64>(), 64);
    assert!(
        per_cu.iter().all(|&n| n > 0),
        "every CU must get work: {per_cu:?}"
    );
}

#[test]
fn memory_traffic_reaches_dram_and_caches_filter_it() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(2),
        ..PlatformConfig::default()
    });
    // All wavefronts read the same 8 lines: massive reuse.
    p.driver
        .borrow_mut()
        .enqueue_kernel(read_kernel(32, 4, 64, 0x4_0000));
    p.start();
    p.sim.run();
    let (dram_reads, _) = p.chiplets[0].dram.borrow().traffic();
    let accesses: u64 = p.chiplets[0]
        .cus
        .iter()
        .map(|cu| cu.borrow().stats().1)
        .sum();
    assert_eq!(accesses, 32 * 4 * 8);
    assert!(
        dram_reads < accesses / 4,
        "caches must filter most traffic: {dram_reads} fetches for {accesses} accesses"
    );
    assert!(dram_reads >= 8, "each distinct line fetched at least once");
}

#[test]
fn progress_bar_tracks_kernel_blocks() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(2),
        ..PlatformConfig::default()
    });
    p.driver
        .borrow_mut()
        .enqueue_kernel(read_kernel(10, 1, 64, 0));
    p.start();
    p.sim.run();
    let bars = p.progress.snapshot();
    let bar = bars
        .iter()
        .find(|b| b.name.contains("kernel"))
        .expect("kernel bar exists");
    assert_eq!(bar.total, 10);
    assert_eq!(bar.finished, 10);
    assert_eq!(bar.in_progress, 0);
    assert_eq!(bar.not_started(), 0);
}

#[test]
fn memcpy_runs_with_progress_and_takes_time() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(2),
        ..PlatformConfig::default()
    });
    p.driver.borrow_mut().enqueue_memcpy("input", 64 * 1024);
    p.start();
    p.sim.run();
    assert!(p.driver.borrow().finished());
    assert_eq!(p.driver.borrow().stats().1, 1);
    // 64 KiB at 16 B/cycle = 4096 cycles = 4.096 us.
    assert!(p.sim.now() >= VTime::from_us(4));
    let bars = p.progress.snapshot();
    let bar = bars.iter().find(|b| b.name.contains("memcpy")).unwrap();
    assert_eq!(bar.finished, bar.total);
}

#[test]
fn driver_sequences_copy_then_kernel_then_copy() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(2),
        ..PlatformConfig::default()
    });
    {
        let mut d = p.driver.borrow_mut();
        d.enqueue_memcpy("h2d", 4096);
        d.enqueue_kernel(read_kernel(4, 1, 64, 0));
        d.enqueue_memcpy("d2h", 4096);
    }
    p.start();
    p.sim.run();
    let d = p.driver.borrow();
    assert!(d.finished());
    assert_eq!(d.stats(), (1, 2));
}

#[test]
fn driver_alloc_maps_pages() {
    let p = Platform::build(PlatformConfig::default());
    let a = p.driver.borrow_mut().alloc(10_000);
    let b = p.driver.borrow_mut().alloc(100);
    assert_ne!(a, b);
    assert!(b >= a + 10_000);
    // 10_000 bytes → 3 pages, 100 bytes → 1 page.
    assert_eq!(p.page_table.mapped_pages(), 4);
}

#[test]
fn multi_chiplet_kernel_completes_and_rdma_carries_traffic() {
    let mut p = Platform::build(PlatformConfig {
        chiplets: 4,
        gpu: GpuConfig::scaled(2),
        ..PlatformConfig::default()
    });
    // Strided reads spanning many 4 KiB chunks: ~75% of addresses are
    // remote to any given chiplet.
    let insts: Vec<Inst> = (0..16).map(|i| Inst::Load(i * 4096, 4)).collect();
    let kernel = Rc::new(UniformKernel::new(
        "strided",
        32,
        2,
        WavefrontProgram::new(insts),
    ));
    p.driver.borrow_mut().enqueue_kernel(kernel);
    p.start();
    p.sim.run();
    assert!(p.driver.borrow().finished(), "multi-chiplet run completes");
    let rdma_out: u64 = p
        .chiplets
        .iter()
        .map(|c| c.rdma.as_ref().unwrap().borrow().traffic().0)
        .sum();
    let rdma_in: u64 = p
        .chiplets
        .iter()
        .map(|c| c.rdma.as_ref().unwrap().borrow().traffic().1)
        .sum();
    assert!(rdma_out > 0, "remote lines must cross the network");
    assert_eq!(rdma_out, rdma_in, "every forwarded request is served");
    // All RDMA transactions drained at the end.
    for c in &p.chiplets {
        assert_eq!(c.rdma.as_ref().unwrap().borrow().transactions(), 0);
    }
}

#[test]
fn slow_network_lengthens_the_run() {
    fn run(net_bandwidth: Option<u64>) -> VTime {
        let mut p = Platform::build(PlatformConfig {
            chiplets: 2,
            net_bandwidth,
            gpu: GpuConfig::scaled(2),
            ..PlatformConfig::default()
        });
        let insts: Vec<Inst> = (0..32).map(|i| Inst::Load(i * 4096, 64)).collect();
        let kernel = Rc::new(UniformKernel::new(
            "strided",
            16,
            2,
            WavefrontProgram::new(insts),
        ));
        p.driver.borrow_mut().enqueue_kernel(kernel);
        p.start();
        p.sim.run();
        assert!(p.driver.borrow().finished());
        p.sim.now()
    }
    let fast = run(None);
    let slow = run(Some(500_000_000)); // 0.5 GB/s links
    assert!(
        slow > fast,
        "a slower chiplet network must slow the kernel: fast={fast}, slow={slow}"
    );
}

#[test]
fn two_kernels_back_to_back() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(2),
        ..PlatformConfig::default()
    });
    {
        let mut d = p.driver.borrow_mut();
        d.enqueue_kernel(read_kernel(8, 1, 64, 0));
        d.enqueue_kernel(read_kernel(8, 1, 64, 0x10_0000));
    }
    p.start();
    p.sim.run();
    assert_eq!(p.dispatcher.borrow().kernels_completed(), 2);
    assert!(p.driver.borrow().finished());
}

#[test]
fn compute_only_kernel_needs_no_memory() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(2),
        ..PlatformConfig::default()
    });
    let kernel = Rc::new(UniformKernel::new(
        "compute",
        4,
        2,
        WavefrontProgram::new(vec![Inst::Compute(100)]),
    ));
    p.driver.borrow_mut().enqueue_kernel(kernel);
    p.start();
    p.sim.run();
    assert!(p.driver.borrow().finished());
    let (_, reads_writes) = p.chiplets[0].dram.borrow().traffic();
    assert_eq!(reads_writes, 0);
    assert_eq!(p.chiplets[0].dram.borrow().traffic().0, 0);
}

#[test]
fn r9_nano_config_builds() {
    let p = Platform::build(PlatformConfig {
        gpu: GpuConfig::r9_nano(),
        ..PlatformConfig::default()
    });
    assert_eq!(p.num_cus(), 64);
    // 64 CU chains × 4 components + L2s + DRAM + dispatcher + driver + conns.
    assert!(p.sim.component_count() > 64 * 5);
}

#[test]
fn barriers_synchronize_wavefronts_within_a_workgroup() {
    // Two wavefronts: one fast (compute 1), one slow (compute 200), then a
    // barrier, then one load each. Without the barrier the fast wavefront
    // would finish its load ~200 cycles before the slow one even reaches
    // it; with the barrier both issue after the slow compute completes, so
    // the whole workgroup takes at least the slow path.
    use akita_gpu::kernel::Kernel;

    #[derive(Debug)]
    struct TwoSpeed;
    impl Kernel for TwoSpeed {
        fn name(&self) -> &str {
            "two-speed"
        }
        fn num_workgroups(&self) -> u64 {
            1
        }
        fn workgroup(&self, _idx: u64) -> akita_gpu::WorkGroupSpec {
            akita_gpu::WorkGroupSpec {
                wavefronts: vec![
                    WavefrontProgram::new(vec![
                        Inst::Compute(1),
                        Inst::Barrier,
                        Inst::Load(0x1000, 4),
                    ]),
                    WavefrontProgram::new(vec![
                        Inst::Compute(200),
                        Inst::Barrier,
                        Inst::Load(0x2000, 4),
                    ]),
                ],
            }
        }
    }

    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(1),
        ..PlatformConfig::default()
    });
    p.driver.borrow_mut().enqueue_kernel(Rc::new(TwoSpeed));
    p.start();
    p.sim.run();
    assert!(p.driver.borrow().finished(), "barrier must not deadlock");
    // Lower bound: 200 compute cycles (200 ns at 1 GHz) plus the memory
    // round trip (>100 ns DRAM latency).
    assert!(
        p.sim.now() >= VTime::from_ns(300),
        "the fast wavefront must wait at the barrier: finished at {}",
        p.sim.now()
    );
}

#[test]
fn mismatched_barrier_with_finished_wavefront_releases() {
    // One wavefront has a barrier, the other finishes without ever
    // reaching one: finished wavefronts count as arrived, so the barrier
    // releases instead of hanging.
    use akita_gpu::kernel::Kernel;

    #[derive(Debug)]
    struct Mismatch;
    impl Kernel for Mismatch {
        fn name(&self) -> &str {
            "mismatch"
        }
        fn num_workgroups(&self) -> u64 {
            1
        }
        fn workgroup(&self, _idx: u64) -> akita_gpu::WorkGroupSpec {
            akita_gpu::WorkGroupSpec {
                wavefronts: vec![
                    WavefrontProgram::new(vec![Inst::Barrier, Inst::Compute(2)]),
                    WavefrontProgram::new(vec![Inst::Compute(1)]),
                ],
            }
        }
    }

    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(1),
        ..PlatformConfig::default()
    });
    p.driver.borrow_mut().enqueue_kernel(Rc::new(Mismatch));
    p.start();
    p.sim.run();
    assert!(p.driver.borrow().finished());
}

#[test]
fn frontend_caches_feed_instruction_fetch_and_scalar_loads() {
    let mut gpu = GpuConfig::scaled(4);
    gpu.frontend_caches = true;
    // Two waves of workgroups: the first wave's fetches coalesce on the
    // cold L1I; the second wave hits the warm cache.
    gpu.cu.max_wgs = 2;
    gpu.dispatcher.max_wgs_per_cu = 2;
    let mut p = Platform::build(PlatformConfig {
        gpu,
        ..PlatformConfig::default()
    });
    p.driver
        .borrow_mut()
        .enqueue_kernel(read_kernel(16, 2, 64, 0x1_0000));
    p.start();
    p.sim.run();
    assert!(p.driver.borrow().finished(), "frontend must not deadlock");
    let (ifetches, scalar_loads): (u64, u64) = p.chiplets[0]
        .cus
        .iter()
        .map(|cu| cu.borrow().frontend_stats())
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    // One scalar load per wavefront: 16 WGs × 2 WFs.
    assert_eq!(scalar_loads, 32);
    // Every wavefront fetched at least one code line.
    assert!(ifetches >= 32, "ifetches: {ifetches}");
    // The L1I exists, is named like the paper's SA members, and soaked up
    // the fetch stream (all wavefronts share the code segment).
    let sim = &mut p.sim;
    let id = sim
        .component_id("GPU[0].SA[0].L1ICache")
        .expect("L1I registered");
    let comp = sim.component(id);
    let state = comp.borrow().state();
    let hits = state.numeric("hits").unwrap();
    let misses = state.numeric("misses").unwrap();
    assert!(hits + misses > 0.0);
    // The first wave's simultaneous fetches coalesce (counted as misses);
    // the later waves find the line resident.
    assert!(
        hits >= 4.0,
        "the second wave must hit the warm L1I: {hits}h/{misses}m"
    );
}

#[test]
fn frontend_slows_execution_realistically_but_completes() {
    // Same kernel with and without the front end: fetch latency must cost
    // some virtual time, not hang or distort the result.
    fn run(frontend: bool) -> akita::VTime {
        let mut gpu = GpuConfig::scaled(2);
        gpu.frontend_caches = frontend;
        let mut p = Platform::build(PlatformConfig {
            gpu,
            ..PlatformConfig::default()
        });
        p.driver
            .borrow_mut()
            .enqueue_kernel(read_kernel(8, 2, 64, 0));
        p.start();
        p.sim.run();
        assert!(p.driver.borrow().finished());
        p.sim.now()
    }
    let bare = run(false);
    let with_fe = run(true);
    assert!(
        with_fe > bare,
        "fetch and kernarg latency must show: bare={bare}, frontend={with_fe}"
    );
}

#[test]
fn dispatcher_balances_load_and_reports_progress_mid_kernel() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(3), // odd CU count: uneven division
        ..PlatformConfig::default()
    });
    p.driver
        .borrow_mut()
        .enqueue_kernel(read_kernel(40, 2, 64, 0));
    p.start();
    // Step partway and inspect the dispatcher's live progress.
    p.sim.run_until(VTime::from_ns(200));
    let (done, inflight, total) = p
        .dispatcher
        .borrow()
        .current_progress()
        .expect("kernel active");
    assert_eq!(total, 40);
    assert!(inflight > 0, "some workgroups must be resident");
    assert!(done + inflight <= total);
    p.sim.run();
    assert!(p.dispatcher.borrow().current_progress().is_none());
    let per_cu: Vec<u64> = p.chiplets[0]
        .cus
        .iter()
        .map(|cu| cu.borrow().stats().2)
        .collect();
    assert_eq!(per_cu.iter().sum::<u64>(), 40);
    let max = per_cu.iter().max().unwrap();
    let min = per_cu.iter().min().unwrap();
    assert!(
        max - min <= 10,
        "least-loaded dispatch keeps CUs balanced: {per_cu:?}"
    );
}

#[test]
fn kernels_queue_behind_each_other_per_dispatcher() {
    let mut p = Platform::build(PlatformConfig {
        gpu: GpuConfig::scaled(2),
        ..PlatformConfig::default()
    });
    {
        let mut d = p.driver.borrow_mut();
        for _ in 0..3 {
            d.enqueue_kernel(read_kernel(4, 1, 64, 0));
        }
    }
    p.start();
    p.sim.run();
    assert_eq!(p.dispatcher.borrow().kernels_completed(), 3);
    // Three kernel bars, all complete.
    let kernel_bars = p
        .progress
        .snapshot()
        .into_iter()
        .filter(|b| b.name.contains("kernel"))
        .count();
    assert_eq!(kernel_bars, 3);
}

#[test]
fn kernel_boundary_flush_cools_caches_and_writes_back_dirty_lines() {
    fn run(flush: bool) -> (VTime, u64, u64) {
        let mut gpu = GpuConfig::scaled(2);
        gpu.dispatcher.flush_between_kernels = flush;
        let mut p = Platform::build(PlatformConfig {
            gpu,
            ..PlatformConfig::default()
        });
        // Kernel 1 dirties lines in the L2 (stores); kernel 2 re-reads them.
        let store_insts: Vec<Inst> = (0..8).map(|i| Inst::Store(i * 64, 64)).collect();
        let load_insts: Vec<Inst> = (0..8).map(|i| Inst::Load(i * 64, 4)).collect();
        {
            let mut d = p.driver.borrow_mut();
            d.enqueue_kernel(Rc::new(UniformKernel::new(
                "writer",
                4,
                1,
                WavefrontProgram::new(store_insts),
            )));
            d.enqueue_kernel(Rc::new(UniformKernel::new(
                "reader",
                4,
                1,
                WavefrontProgram::new(load_insts),
            )));
        }
        p.start();
        p.sim.run();
        assert!(p.driver.borrow().finished(), "flush barrier must not hang");
        assert_eq!(p.dispatcher.borrow().kernels_completed(), 2);
        let (_, dram_writes) = p.chiplets[0].dram.borrow().traffic();
        let flush_rounds = p.dispatcher.borrow().flush_rounds();
        (p.sim.now(), dram_writes, flush_rounds)
    }
    let (t_no, writes_no, rounds_no) = run(false);
    let (t_flush, writes_flush, rounds_flush) = run(true);
    assert_eq!(rounds_no, 0);
    assert_eq!(rounds_flush, 2, "one flush round per kernel");
    assert!(
        writes_flush > writes_no,
        "flush must push dirty L2 lines to DRAM: {writes_no} vs {writes_flush}"
    );
    assert!(
        t_flush > t_no,
        "flush and cold re-reads must cost virtual time: {t_no} vs {t_flush}"
    );
}

#[test]
fn shared_l2_tlb_serves_l1_tlb_misses() {
    fn run(shared: bool) -> (VTime, Option<(u64, u64)>) {
        let mut gpu = GpuConfig::scaled(4);
        gpu.shared_l2_tlb = shared;
        // Tiny L1 TLBs so misses actually happen.
        gpu.at.tlb_entries = 2;
        let mut p = Platform::build(PlatformConfig {
            gpu,
            ..PlatformConfig::default()
        });
        // Strided reads across many pages.
        let insts: Vec<Inst> = (0..24).map(|i| Inst::Load(i * 4096, 4)).collect();
        let kernel = Rc::new(UniformKernel::new(
            "pages",
            16,
            2,
            WavefrontProgram::new(insts),
        ));
        p.driver.borrow_mut().enqueue_kernel(kernel);
        p.start();
        p.sim.run();
        assert!(p.driver.borrow().finished(), "L2 TLB path must not hang");
        let stats = if shared {
            let id = p.sim.component_id("GPU[0].L2TLB").expect("L2TLB exists");
            let comp = p.sim.component(id);
            let state = comp.borrow().state();
            Some((
                state.numeric("tlb_hits").unwrap() as u64,
                state.numeric("tlb_misses").unwrap() as u64,
            ))
        } else {
            assert!(p.sim.component_id("GPU[0].L2TLB").is_none());
            None
        };
        (p.sim.now(), stats)
    }
    let (_t_fixed, none) = run(false);
    assert!(none.is_none());
    let (_t_shared, stats) = run(true);
    let (hits, misses) = stats.expect("shared mode collects stats");
    assert!(hits + misses > 0, "L1 TLB misses must reach the L2 TLB");
    assert!(
        hits > 0,
        "24 shared pages across 32 wavefronts must hit the shared TLB: {hits}h/{misses}m"
    );
}

/// Full paper-scale machine: 4 chiplets × 64 CUs running im2col with the
/// Case Study 1 parameters. Takes minutes in release mode; run with
/// `cargo test -p akita-gpu --release -- --ignored paper_scale`.
#[test]
#[ignore = "paper-scale run: minutes of wall time, use --release"]
fn paper_scale_mcm_gpu_runs_im2col() {
    use akita_workloads::{Im2col, Workload};
    let mut p = Platform::build(PlatformConfig {
        chiplets: 4,
        gpu: GpuConfig::r9_nano(),
        ..PlatformConfig::default()
    });
    assert_eq!(p.num_cus(), 256);
    let im2col = Im2col {
        batch: 640, // the paper's exact batch size
        ..Im2col::default()
    };
    im2col.enqueue(&mut p.driver.borrow_mut());
    p.start();
    p.sim.run();
    assert!(p.driver.borrow().finished());
}
