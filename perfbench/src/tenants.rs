//! `tenants_burst`: four TEEs share a 16-channel device under
//! two-level WFQ (`TicketPolicy::Wfq`) with op-log capture on.
//!
//! The load is an open loop in simulated time. Three victim tenants
//! each issue small (4-page) and deep (32-page) read tickets and
//! 16-page write batches at steady rates; an antagonist issues a burst
//! of deep read tickets every [`BURST_PERIOD_US`]. Every arrival has a
//! due instant; the benchmark polls the device up to that instant and
//! submits, so a ticket's latency counts from when it was due and the
//! generator is never late. Mean offered load stays below the device's
//! saturation rate, so every burst drains before the next.
//!
//! A quarter of the victims' write batches carry functional payloads
//! through the cipher path; after the measured phase each victim reads
//! them back and the payload hashes must match.

use std::collections::HashMap;
use std::time::Instant;

use iceclave_core::{IceClave, IceClaveConfig, IceClaveError, PowerLossPlan, TicketPolicy};
use iceclave_experiments::{Mode, Overrides};
use iceclave_mee::PageClass;
use iceclave_obs::trace::hash_payload;
use iceclave_obs::TraceLog;
use iceclave_sim::SimRng;
use iceclave_types::{Lpn, PageWrite, SimDuration, SimTime, TeeId, PAGE_SIZE};

use crate::layers::Snap;
use crate::probe::{Probe, Role};
use crate::round::{Measured, Setup, TraceInfo};

/// Flash channels of the shared device.
const CHANNELS: u32 = 16;
/// Victim tenants.
const VICTIMS: usize = 3;
/// Simulated span of the arrival schedule.
const HORIZON_MS: u64 = 800;
/// Pages of a small victim read.
const SMALL_PAGES: u64 = 4;
/// Pages of a deep read (victims and antagonist).
const DEEP_PAGES: u64 = 32;
/// Pages of a victim write batch.
const WRITE_PAGES: u64 = 16;
/// Mean gap between one victim's small reads.
const SMALL_PERIOD_US: u64 = 500;
/// Mean gap between one victim's deep reads.
const DEEP_PERIOD_US: u64 = 2_000;
/// Mean gap between one victim's write batches.
const WRITE_PERIOD_US: u64 = 4_000;
/// Gap between antagonist bursts.
const BURST_PERIOD_US: u64 = 40_000;
/// Deep tickets per antagonist burst.
const BURST_TICKETS: u64 = 200;
/// Every this many write batches, one carries functional payloads.
const PAYLOAD_EVERY: u64 = 4;
/// Pages each victim reads from.
const VICTIM_READ_PAGES: u64 = 4_096;
/// Pages the antagonist reads from.
const ANTAGONIST_READ_PAGES: u64 = 16_384;

/// The device, in `mode`.
fn device(mode: Mode) -> IceClaveConfig {
    let overrides = Overrides {
        channels: Some(CHANNELS),
        ..Overrides::none()
    };
    let mut config = mode.ssd_config(&overrides);
    config.fairness.ticket_policy = TicketPolicy::Wfq;
    config
}

#[derive(Debug)]
enum Work {
    Read { lpns: Vec<Lpn>, role: Role },
    Write(Vec<PageWrite>),
}

#[derive(Debug)]
struct Arrival {
    due: SimTime,
    tenant: usize,
    work: Work,
}

/// One tenant's share of the flash: pages it reads, then pages it
/// writes (each written exactly once, so no two in-flight tickets race
/// on a page).
#[derive(Debug)]
struct Grant {
    base: u64,
    read_pages: u64,
    write_pages: u64,
}

impl Grant {
    fn pages(&self) -> u64 {
        self.read_pages + self.write_pages
    }
}

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    grants: Vec<Grant>,
    schedule: Vec<Arrival>,
    /// Expected payload hash per written LPN that carries data.
    payloads: Vec<(usize, Lpn, u64)>,
}

impl Inputs {
    /// Tickets in the schedule.
    pub fn tickets(&self) -> usize {
        self.schedule.len()
    }
}

/// Arrival instants of one steady stream: one per `period`, placed
/// uniformly inside its slot.
fn stream(rng: &mut SimRng, period_us: u64) -> Vec<SimTime> {
    let period = SimDuration::from_micros(period_us).as_ps();
    (0..HORIZON_MS * 1_000 / period_us)
        .map(|k| SimTime::from_ps(k * period + rng.gen_below(period)))
        .collect()
}

/// Builds the arrival schedule and the payloads from `seed`.
pub fn generate(seed: u64) -> Inputs {
    let root = SimRng::new(seed).derive("perfbench/tenants");
    let writes_per_victim = HORIZON_MS * 1_000 / WRITE_PERIOD_US;
    let mut grants = Vec::new();
    let mut base = 0;
    for tenant in 0..=VICTIMS {
        let grant = if tenant < VICTIMS {
            Grant {
                base,
                read_pages: VICTIM_READ_PAGES,
                write_pages: writes_per_victim * WRITE_PAGES,
            }
        } else {
            Grant {
                base,
                read_pages: ANTAGONIST_READ_PAGES,
                write_pages: 0,
            }
        };
        base += grant.pages();
        grants.push(grant);
    }

    let read = |rng: &mut SimRng, grant: &Grant, pages: u64| -> Vec<Lpn> {
        let first = rng.gen_below(grant.read_pages - pages + 1);
        (0..pages)
            .map(|i| Lpn::new(grant.base + first + i))
            .collect()
    };
    let mut schedule = Vec::new();
    let mut payloads = Vec::new();
    for (tenant, grant) in grants.iter().enumerate() {
        let mut rng = root.derive(&format!("tenant{tenant}"));
        if tenant == VICTIMS {
            for b in 0..HORIZON_MS * 1_000 / BURST_PERIOD_US {
                let due = SimTime::ZERO + SimDuration::from_micros(b * BURST_PERIOD_US);
                for _ in 0..BURST_TICKETS {
                    let lpns = read(&mut rng, grant, DEEP_PAGES);
                    let work = Work::Read {
                        lpns,
                        role: Role::Antagonist,
                    };
                    schedule.push(Arrival { due, tenant, work });
                }
            }
            continue;
        }
        for due in stream(&mut rng, SMALL_PERIOD_US) {
            let lpns = read(&mut rng, grant, SMALL_PAGES);
            let work = Work::Read {
                lpns,
                role: Role::VictimSmall,
            };
            schedule.push(Arrival { due, tenant, work });
        }
        for due in stream(&mut rng, DEEP_PERIOD_US) {
            let lpns = read(&mut rng, grant, DEEP_PAGES);
            let work = Work::Read {
                lpns,
                role: Role::Plain,
            };
            schedule.push(Arrival { due, tenant, work });
        }
        for (k, due) in stream(&mut rng, WRITE_PERIOD_US).into_iter().enumerate() {
            let k = k as u64;
            let first = grant.base + grant.read_pages + k * WRITE_PAGES;
            let writes = (first..first + WRITE_PAGES)
                .map(|lpn| {
                    let lpn = Lpn::new(lpn);
                    if !k.is_multiple_of(PAYLOAD_EVERY) {
                        return PageWrite::new(lpn);
                    }
                    let data: Vec<u8> = (0..PAGE_SIZE / 8)
                        .flat_map(|_| rng.gen_u64().to_le_bytes())
                        .collect();
                    payloads.push((tenant, lpn, hash_payload(Some(&data))));
                    PageWrite::with_data(lpn, data)
                })
                .collect();
            schedule.push(Arrival {
                due,
                tenant,
                work: Work::Write(writes),
            });
        }
    }
    // Stable: same-instant arrivals keep tenant, then stream, order.
    schedule.sort_by_key(|a| a.due);
    Inputs {
        grants,
        schedule,
        payloads,
    }
}

/// Builds the device, stages every tenant's pages, offloads the four
/// programs, and runs the schedule.
pub fn run(inputs: Inputs, mode: Mode, traced: bool) -> Result<Measured, IceClaveError> {
    let mut setup = Setup::default();
    let clock = Instant::now();
    let ice = IceClave::new(device(mode));
    setup.device_s = clock.elapsed().as_secs_f64();
    let mut probe = Probe::new(ice, traced);

    let clock = Instant::now();
    let total: u64 = inputs.grants.iter().map(Grant::pages).sum();
    let mut t = probe.ice.populate(Lpn::new(0), total, SimTime::ZERO)?;
    setup.populate_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let mut tees = Vec::new();
    for grant in &inputs.grants {
        let lpns: Vec<Lpn> = (grant.base..grant.base + grant.pages())
            .map(Lpn::new)
            .collect();
        let (tee, done) = probe.ice.offload_code(64 << 10, &lpns, t)?;
        tees.push(tee);
        t = done;
    }
    setup.offload_s = clock.elapsed().as_secs_f64();

    // The schedule starts once the device is up.
    let start = t;
    if traced {
        probe.ice.install_power_loss_plan(PowerLossPlan::none());
    }
    probe.ice.enable_tracing();
    let before = Snap::take(&mut probe.ice);
    probe.start_clock();
    let mut outcome = Ok(());
    for arrival in inputs.schedule {
        let due = start + arrival.due.saturating_since(SimTime::ZERO);
        let tee = tees[arrival.tenant];
        probe.begin_step();
        probe.poll(due);
        let submitted = match arrival.work {
            Work::Read { lpns, role } => {
                probe.submit_read(tee, &lpns, PageClass::ReadOnly, role, due)
            }
            Work::Write(writes) => probe.submit_write(tee, writes, due),
        };
        probe.end_step();
        if let Err(e) = submitted {
            outcome = Err(e);
            break;
        }
    }
    probe.begin_step();
    probe.drain();
    probe.end_step();
    let wall_s = probe.elapsed_s();
    let after = Snap::take(&mut probe.ice);
    let clock = Instant::now();
    let log = probe.ice.take_trace();
    let take_ms = clock.elapsed().as_secs_f64() * 1e3;
    outcome?;

    let makespan = probe.ledger.last_ready.saturating_since(start);
    let trace = check_log(&mut probe, log, take_ms);
    check_payloads(&mut probe, &tees, &inputs.payloads)?;
    Ok(Measured {
        probe,
        setup,
        before,
        after,
        wall_s,
        makespan,
        dataset_pages: total,
        trace: Some(trace),
    })
}

/// The captured op-log must decode from its bytes into the same
/// records, one per ticket submitted.
fn check_log(probe: &mut Probe, log: Option<TraceLog>, take_ms: f64) -> TraceInfo {
    let Some(log) = log else {
        probe.ledger.fail("op-log capture returned nothing".into());
        return TraceInfo::default();
    };
    match TraceLog::from_bytes(log.as_bytes()) {
        Ok(decoded) if decoded.records() == log.records() => {}
        Ok(_) => probe
            .ledger
            .fail("op-log changed in a byte round trip".into()),
        Err(e) => probe.ledger.fail(format!("op-log does not decode: {e}")),
    }
    if log.len() as u64 != probe.ledger.tickets {
        probe.ledger.fail(format!(
            "op-log holds {} records for {} tickets",
            log.len(),
            probe.ledger.tickets
        ));
    }
    TraceInfo {
        records: log.len(),
        bytes: log.as_bytes().len(),
        take_ms,
    }
}

/// Reads every functional payload back through the cipher path (after
/// the measured phase, outside the ledger) and compares hashes.
fn check_payloads(
    probe: &mut Probe,
    tees: &[TeeId],
    payloads: &[(usize, Lpn, u64)],
) -> Result<(), IceClaveError> {
    let mut expected: HashMap<u64, u64> = HashMap::new();
    for (tenant, tee) in tees.iter().enumerate() {
        let lpns: Vec<Lpn> = payloads
            .iter()
            .filter(|p| p.0 == tenant)
            .map(|&(_, lpn, hash)| {
                expected.insert(lpn.raw(), hash);
                lpn
            })
            .collect();
        if !lpns.is_empty() {
            let at = probe.ice.exec_clock();
            probe
                .ice
                .submit_batch_async_as(*tee, &lpns, PageClass::ReadOnly, at)?;
        }
    }
    let mut matched = 0;
    for ev in probe.ice.drain_completions() {
        let hash = hash_payload(ev.data.as_deref());
        if ev.status.is_done() && expected.get(&ev.lpn.raw()) == Some(&hash) {
            matched += 1;
        } else {
            probe
                .ledger
                .fail(format!("payload of {:?} did not read back", ev.lpn));
        }
    }
    if matched != payloads.len() {
        probe.ledger.fail(format!(
            "{matched} of {} payloads read back",
            payloads.len()
        ));
    }
    Ok(())
}
