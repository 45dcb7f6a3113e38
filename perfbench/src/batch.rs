//! `scan_q1` and `oltp_tpcc`: one TEE replays the batch stream of an
//! `iceclave_workloads` query through the public API.
//!
//! Each step submits the batch's flash pages as one read ticket,
//! drains it, issues the program's line reads and writes through
//! `mem_read`/`mem_write` (four at a time, the core's memory-level
//! parallelism), bills the batch's compute, and — for transactional
//! batches — persists the updated pages as one write ticket (group
//! commit) that drains behind the next batches. Streaming scans
//! prefetch up to four batches ahead of compute; transactional batches
//! cannot issue before the previous batch's compute started.

use std::time::Instant;

use iceclave_core::{IceClave, IceClaveConfig, IceClaveError, PowerLossPlan};
use iceclave_experiments::{Mode, Overrides};
use iceclave_mee::PageClass;
use iceclave_sim::SimRng;
use iceclave_types::{ByteSize, Lpn, PageWrite, SimTime, TeeId, LINES_PER_PAGE, PAGE_SIZE};
use iceclave_workloads::{Batch, WorkloadConfig, WorkloadKind};

use crate::layers::Snap;
use crate::probe::{Call, Probe, Role};
use crate::round::{Measured, Setup};

/// Lines issued together by the executing core.
const MLP: usize = 4;

/// Streaming loads in flight ahead of compute.
const LOOKAHEAD: usize = 4;

/// Size of the offloaded binary.
const CODE_BYTES: u64 = 256 << 10;

/// One of the two batch-stream workloads.
#[derive(Copy, Clone, Debug)]
pub struct BatchSpec {
    /// The query whose batches are replayed.
    kind: WorkloadKind,
    /// Bytes of table data generated and computed over.
    functional: ByteSize,
    /// Metadata-journal blocks (0 = journal off).
    journal_blocks: u32,
    /// Flash blocks per plane, when the device is shrunk.
    blocks_per_plane: Option<u32>,
    /// Flash pages per block, when the device is shrunk.
    pages_per_block: Option<u32>,
    /// Runs of the query, each with its own derived seed, whose batch
    /// streams are concatenated.
    passes: u64,
    /// One in this many of the table's pages sits away from scan order,
    /// swapped with a random page (as after a history of updates); 0
    /// keeps the whole table in scan order.
    relocate_one_in: u64,
}

/// `scan_q1`: TPC-H Q1 over a table larger than the 128 MiB input ring
/// of the default device, so the ring wraps and the MEE counter cache
/// misses in steady state.
pub const SCAN_Q1: BatchSpec = BatchSpec {
    kind: WorkloadKind::TpchQ1,
    functional: ByteSize::from_mib(256),
    journal_blocks: 0,
    blocks_per_plane: None,
    pages_per_block: None,
    passes: 1,
    relocate_one_in: 16,
};

/// `oltp_tpcc`: TPC-C on a device shrunk until the stock table fills
/// most of it, with the metadata journal on, so group commits run the
/// FTL program path, the journal and garbage collection.
pub const OLTP_TPCC: BatchSpec = BatchSpec {
    kind: WorkloadKind::TpcC,
    functional: ByteSize::from_mib(128),
    journal_blocks: 768,
    blocks_per_plane: Some(12),
    pages_per_block: Some(32),
    passes: 2,
    relocate_one_in: 0,
};

impl BatchSpec {
    /// The device configuration in `mode` (`IceClave`, or `Isc` for the
    /// insecure baseline replay).
    fn device(&self, mode: Mode) -> IceClaveConfig {
        let mut config = mode.ssd_config(&Overrides::none());
        let ftl = &mut config.platform.ftl;
        ftl.journal_blocks = self.journal_blocks;
        let geometry = &mut config.platform.flash.geometry;
        if let Some(blocks) = self.blocks_per_plane {
            geometry.blocks_per_plane = blocks;
        }
        if let Some(pages) = self.pages_per_block {
            geometry.pages_per_block = pages;
        }
        config
    }

    fn workload_config(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            functional_bytes: self.functional,
            seed,
            ..WorkloadConfig::bench()
        }
    }
}

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    /// The batch stream, in order.
    pub batches: Vec<Batch>,
    /// Pages of the table.
    dataset_pages: u64,
    /// Lines of the program's random-access working structures.
    working_lines: u64,
    /// The query's result rows and checksum, for the cross-run check.
    pub output: (u64, f64),
    /// Where each of the query's pages lives.
    layout: Vec<u64>,
}

/// Runs the query functionally and records its batch stream.
pub fn generate(spec: &BatchSpec, seed: u64) -> Inputs {
    let mut batches = Vec::new();
    let mut rows = 0;
    let mut checksum = 0.0;
    let mut last = None;
    for pass in 0..spec.passes {
        let pass_seed = SimRng::new(seed)
            .derive(&format!("perfbench/pass{pass}"))
            .gen_u64();
        let workload = spec.kind.build(&spec.workload_config(pass_seed));
        let output = workload.run(&mut |b| batches.push(b));
        rows += output.rows;
        checksum += output.checksum;
        last = Some(workload);
    }
    let workload = last.expect("at least one pass");
    let dataset_pages = workload.dataset_pages();
    let mut layout: Vec<u64> = (0..dataset_pages).collect();
    if spec.relocate_one_in > 0 {
        let mut rng = SimRng::new(seed).derive("perfbench/layout");
        for i in 0..dataset_pages {
            if rng.gen_below(spec.relocate_one_in) == 0 {
                layout.swap(i as usize, rng.gen_below(dataset_pages) as usize);
            }
        }
    }
    Inputs {
        batches,
        dataset_pages,
        layout,
        working_lines: workload.working_set().cache_lines(),
        output: (rows, checksum),
    }
}

/// Builds the device, stages the table, offloads the program, and runs
/// the measured phase over `inputs`.
pub fn run(
    spec: &BatchSpec,
    inputs: &Inputs,
    mode: Mode,
    traced: bool,
    seed: u64,
) -> Result<Measured, IceClaveError> {
    let mut setup = Setup::default();
    let clock = Instant::now();
    let ice = IceClave::new(spec.device(mode));
    setup.device_s = clock.elapsed().as_secs_f64();
    let mut probe = Probe::new(ice, traced);

    let clock = Instant::now();
    let t = probe
        .ice
        .populate(Lpn::new(0), inputs.dataset_pages, SimTime::ZERO)?;
    setup.populate_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let lpns: Vec<Lpn> = (0..inputs.dataset_pages).map(Lpn::new).collect();
    let (tee, start) = probe.ice.offload_code(CODE_BYTES, &lpns, t)?;
    setup.offload_s = clock.elapsed().as_secs_f64();

    let region_pages = probe.ice.config().tee_region.as_bytes() / PAGE_SIZE;
    let mut session = Session::new(tee, region_pages, inputs.working_lines, start, seed);
    if traced {
        probe.ice.install_power_loss_plan(PowerLossPlan::none());
    }
    let before = Snap::take(&mut probe.ice);
    probe.start_clock();
    for batch in &inputs.batches {
        probe.begin_step();
        let step = session.step(&mut probe, batch, &inputs.layout);
        probe.end_step();
        step?;
    }
    let wall_s = probe.elapsed_s();
    let after = Snap::take(&mut probe.ice);
    let makespan = session.end().saturating_since(start);
    Ok(Measured {
        probe,
        setup,
        before,
        after,
        wall_s,
        makespan,
        dataset_pages: inputs.dataset_pages,
        trace: None,
    })
}

/// The single TEE's program state across steps.
struct Session {
    tee: TeeId,
    input_lines: u64,
    working_base: u64,
    working_lines: u64,
    input_cursor: u64,
    rng: SimRng,
    clock: SimTime,
    prev_compute_start: SimTime,
    in_flight_loads: [SimTime; LOOKAHEAD],
    /// When the latest group commit is durable.
    committed: SimTime,
    offsets: Vec<u64>,
}

impl Session {
    fn new(tee: TeeId, region_pages: u64, working_lines: u64, start: SimTime, seed: u64) -> Self {
        // The region's first half is the read-only input ring, the
        // second half the writable working set.
        let input_pages = region_pages / 2;
        let working_half = (region_pages - input_pages) * LINES_PER_PAGE;
        Session {
            tee,
            input_lines: input_pages * LINES_PER_PAGE,
            working_base: input_pages * LINES_PER_PAGE,
            working_lines: working_lines.clamp(64, working_half),
            input_cursor: 0,
            rng: SimRng::new(seed).derive("perfbench/session"),
            clock: start,
            prev_compute_start: start,
            in_flight_loads: [start; LOOKAHEAD],
            committed: start,
            offsets: Vec::new(),
        }
    }

    fn step(
        &mut self,
        probe: &mut Probe,
        batch: &Batch,
        layout: &[u64],
    ) -> Result<(), IceClaveError> {
        let (issue, class) = if batch.random_access {
            // Data-dependent point reads, updated in place.
            (self.prev_compute_start, PageClass::Writable)
        } else {
            (self.in_flight_loads[0], PageClass::ReadOnly)
        };
        let lpns: Vec<Lpn> = batch
            .flash_reads
            .iter()
            .flat_map(|r| r.iter())
            .map(|l| Lpn::new(layout[l.raw() as usize]))
            .collect();
        let mut load_done = issue;
        if !lpns.is_empty() {
            probe.submit_read(self.tee, &lpns, class, Role::Plain, issue)?;
            for ev in probe.drain() {
                load_done = load_done.max(ev.ready_at());
            }
        }
        self.in_flight_loads.rotate_left(1);
        self.in_flight_loads[LOOKAHEAD - 1] = load_done;
        let compute_start = self.clock.max(load_done);

        let mut offsets = std::mem::take(&mut self.offsets);
        offsets.clear();
        for _ in 0..batch.input_lines {
            offsets.push(self.input_cursor % self.input_lines);
            self.input_cursor += 1;
        }
        for _ in 0..batch.working_reads {
            offsets.push(self.working_base + self.rng.gen_below(self.working_lines));
        }
        let t = probe.mem(Call::MemRead, self.tee, &offsets, MLP, compute_start)?;
        offsets.clear();
        for _ in 0..batch.working_writes {
            // Transactions update records inside the pages they loaded;
            // analytic writes land in the working structures.
            offsets.push(if batch.random_access {
                self.rng.gen_below(self.input_lines)
            } else {
                self.working_base + self.rng.gen_below(self.working_lines)
            });
        }
        let t = probe.mem(Call::MemWrite, self.tee, &offsets, MLP, t)?;
        self.offsets = offsets;
        let done = probe.compute(self.tee, &batch.ops, t)?;

        if batch.random_access && batch.working_writes > 0 && !lpns.is_empty() {
            let dirty = (batch.working_writes as usize).min(lpns.len());
            let writes = lpns[..dirty].iter().map(|&l| PageWrite::new(l)).collect();
            probe.submit_write(self.tee, writes, done)?;
            for ev in probe.drain() {
                self.committed = self.committed.max(ev.ready_at());
            }
        }
        self.prev_compute_start = compute_start;
        self.clock = done;
        Ok(())
    }

    /// When the program finished and its last commit was durable.
    fn end(&self) -> SimTime {
        self.clock.max(self.committed)
    }
}
