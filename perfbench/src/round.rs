//! One round of a workload: generate the inputs from the seed, set the
//! device up, run the measured phase, and check the device's outputs.

use std::time::Instant;

use iceclave_core::IceClaveError;
use iceclave_experiments::Mode;
use iceclave_types::SimDuration;

use crate::batch::{self, BatchSpec, OLTP_TPCC, SCAN_Q1};
use crate::layers::Snap;
use crate::probe::Probe;
use crate::tenants;

/// Host seconds spent before the measured phase.
#[derive(Copy, Clone, Debug, Default)]
pub struct Setup {
    /// Input generation.
    pub generate_s: f64,
    /// `IceClave::new`.
    pub device_s: f64,
    /// `populate`.
    pub populate_s: f64,
    /// `offload_code`, every TEE.
    pub offload_s: f64,
}

impl Setup {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.device_s + self.populate_s + self.offload_s
    }
}

/// The op-log captured during the measured phase.
#[derive(Copy, Clone, Debug, Default)]
pub struct TraceInfo {
    /// Records (one per retired ticket).
    pub records: usize,
    /// Encoded size.
    pub bytes: usize,
    /// Host milliseconds `take_trace` took.
    pub take_ms: f64,
}

/// Everything one measured phase left behind.
#[derive(Debug)]
pub struct Measured {
    /// The device, its spans and its completion ledger.
    pub probe: Probe,
    /// Set-up host time.
    pub setup: Setup,
    /// Layer counters before the measured phase.
    pub before: Snap,
    /// Layer counters after it.
    pub after: Snap,
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Simulated span from the first due instant to the last completion.
    pub makespan: SimDuration,
    /// The op-log, when the workload captures one.
    pub trace: Option<TraceInfo>,
    /// Pages staged on the device before the measured phase.
    pub dataset_pages: u64,
}

/// The benchmark's workloads.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Workload {
    /// TPC-H Q1 scan from one TEE.
    ScanQ1,
    /// TPC-C from one TEE on a shrunk, journaled device.
    OltpTpcc,
    /// Four tenants, open loop, antagonist bursts.
    TenantsBurst,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::ScanQ1, Workload::OltpTpcc, Workload::TenantsBurst];

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanQ1 => "scan_q1",
            Workload::OltpTpcc => "oltp_tpcc",
            Workload::TenantsBurst => "tenants_burst",
        }
    }

    fn spec(self) -> Option<&'static BatchSpec> {
        match self {
            Workload::ScanQ1 => Some(&SCAN_Q1),
            Workload::OltpTpcc => Some(&OLTP_TPCC),
            Workload::TenantsBurst => None,
        }
    }
}

/// One checked round.
#[derive(Debug)]
pub struct Round {
    /// The measured phase.
    pub measured: Measured,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Batches (or tickets) the inputs hold.
    pub batches: u64,
    /// The query's own result, for the cross-round check.
    pub output: Option<(u64, f64)>,
}

/// Runs one round of `workload` on the IceClave device.
pub fn run(workload: Workload, seed: u64, traced: bool) -> Result<Round, IceClaveError> {
    let clock = Instant::now();
    let (mut measured, batches, output) = match workload.spec() {
        Some(spec) => {
            let inputs = batch::generate(spec, seed);
            let generate_s = clock.elapsed().as_secs_f64();
            let mut m = batch::run(spec, &inputs, Mode::IceClave, traced, seed)?;
            m.setup.generate_s = generate_s;
            (m, inputs.batches.len() as u64, Some(inputs.output))
        }
        None => {
            let inputs = tenants::generate(seed);
            let generate_s = clock.elapsed().as_secs_f64();
            let tickets = inputs.tickets() as u64;
            let mut m = tenants::run(inputs, Mode::IceClave, traced)?;
            m.setup.generate_s = generate_s;
            (m, tickets, None)
        }
    };
    check(workload, &mut measured);
    Ok(Round {
        measured,
        traced,
        batches,
        output,
    })
}

/// The simulated makespan of the same inputs replayed, untimed, on the
/// insecure ISC device (`Mode::Isc`).
pub fn isc_makespan(workload: Workload, seed: u64) -> Result<SimDuration, String> {
    let m = match workload.spec() {
        Some(spec) => batch::run(spec, &batch::generate(spec, seed), Mode::Isc, false, seed),
        None => tenants::run(tenants::generate(seed), Mode::Isc, false),
    }
    .map_err(|e| format!("ISC replay: {e}"))?;
    match m.probe.ledger.errors.first() {
        Some(e) => Err(format!("ISC replay: {e}")),
        None => Ok(m.makespan),
    }
}

/// The end-of-round checks shared by every workload.
fn check(workload: Workload, m: &mut Measured) {
    let open = m.probe.ledger.unfinished();
    if open > 0 {
        m.probe
            .ledger
            .fail(format!("{open} tickets never finished"));
    }
    let in_flight = m.probe.ice.in_flight_tickets();
    if in_flight > 0 {
        m.probe
            .ledger
            .fail(format!("{in_flight} tickets still in flight"));
    }
    let aborted = m.probe.ice.stats().aborted;
    if aborted > 0 {
        m.probe.ledger.fail(format!("{aborted} TEEs aborted"));
    }
    let tamper = m.probe.ice.mee().stats().tamper_events;
    if tamper > 0 {
        m.probe.ledger.fail(format!("{tamper} MEE tamper events"));
    }
    let d = m.after.since(&m.before);
    if workload == Workload::ScanQ1 && d.get("flash.programs") > 0 {
        m.probe
            .ledger
            .fail("the scan programmed flash pages".into());
    }
    if workload == Workload::OltpTpcc
        && (d.get("ftl.gc_runs") == 0 || d.get("flash.journal.records") == 0)
    {
        eprintln!("warning: oltp_tpcc ran no garbage collection or no journal records");
    }
}
