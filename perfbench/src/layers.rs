//! Per-layer numbers: the public stats structs snapshotted around the
//! measured phase, the ledger's simulated-time samples, and the host
//! time of the traced spans.

use iceclave_core::IceClave;

use crate::probe::{Call, Samples, Span};
use crate::round::Measured;

/// Each layer call with its call-count, mean-host-time and share-of-wall
/// metric names.
const CALLS: [(Call, &str, &str, &str); 5] = [
    (
        Call::Submit,
        "core.submit.calls",
        "core.submit.host_ns_mean",
        "core.submit.wall_pct",
    ),
    (
        Call::Poll,
        "core.poll.calls",
        "core.poll.host_ns_mean",
        "core.poll.wall_pct",
    ),
    (
        Call::MemRead,
        "core.mem_read.calls",
        "core.mem_read.host_ns_mean",
        "core.mem_read.wall_pct",
    ),
    (
        Call::MemWrite,
        "core.mem_write.calls",
        "core.mem_write.host_ns_mean",
        "core.mem_write.wall_pct",
    ),
    (
        Call::Compute,
        "core.compute.calls",
        "core.compute.host_ns_mean",
        "core.compute.wall_pct",
    ),
];

/// The public stats structs of every layer, flattened to counters.
#[derive(Clone, Debug)]
pub struct Snap {
    counters: Vec<(&'static str, u64)>,
    flash_read_hist: [u64; 64],
    events: Option<u64>,
}

impl Snap {
    /// Reads every layer's counters.
    pub fn take(ice: &mut IceClave) -> Snap {
        let rt = ice.stats();
        let (enc, dec) = {
            let cipher = ice.cipher_mut();
            (cipher.pages_encrypted(), cipher.pages_decrypted())
        };
        let platform = ice.platform();
        let ftl = platform.ftl.stats();
        let flash = platform.ftl.flash().stats();
        let journal = platform.ftl.journal();
        let dram = platform.dram.stats();
        let tz = platform.monitor.stats();
        let mee = ice.mee().stats();
        let meta = &mee.meta_traffic;
        let counters = vec![
            ("core.pages_loaded", rt.pages_loaded),
            ("core.pages_stored", rt.pages_stored),
            ("core.pages_failed", rt.pages_failed),
            ("core.read_retries", rt.read_retries),
            ("ftl.translations", ftl.translations),
            ("ftl.translation_misses", ftl.translation_misses),
            ("ftl.gc_runs", ftl.gc_runs),
            ("ftl.gc_pages_moved", ftl.gc_pages_moved),
            ("flash.reads", flash.reads),
            ("flash.programs", flash.programs),
            ("flash.erases", flash.erases),
            (
                "flash.journal.records",
                journal.map_or(0, |j| j.records_synced()),
            ),
            ("mee.data_reads", mee.data_reads),
            ("mee.data_writes", mee.data_writes),
            ("mee.extra_reads", mee.extra_enc_reads + mee.extra_ver_reads),
            (
                "mee.extra_writes",
                mee.extra_enc_writes + mee.extra_ver_writes,
            ),
            ("mee.counter_hits", meta.counter_hits),
            ("mee.counter_misses", meta.counter_misses),
            ("mee.mac_hits", meta.mac_hits),
            ("mee.mac_misses", meta.mac_misses),
            ("mee.tree_hits", meta.tree_hits),
            ("mee.tree_misses", meta.tree_misses),
            ("mee.l2_hits", mee.l2_hits),
            ("mee.l2_misses", mee.l2_misses),
            ("mee.overflow_reencryptions", mee.overflow_reencryptions),
            ("mee.read_overhead_ps", mee.read_overhead.as_ps()),
            ("mee.write_overhead_ps", mee.write_overhead.as_ps()),
            ("cipher.engine_encrypted", enc),
            ("cipher.engine_decrypted", dec),
            ("dram.accesses", dram.accesses()),
            ("dram.row_hits", dram.row_hits),
            ("dram.latency_ps", dram.total_latency.as_ps()),
            ("trustzone.switches", tz.switches),
            ("trustzone.switch_time_ps", tz.total_time.as_ps()),
        ];
        Snap {
            counters,
            flash_read_hist: *flash.read_latency_ns.buckets(),
            events: ice.events_processed(),
        }
    }

    /// `self - before`, counter by counter.
    pub fn since(&self, before: &Snap) -> Delta {
        let counters = self
            .counters
            .iter()
            .zip(&before.counters)
            .map(|(&(name, after), &(_, before))| (name, after - before))
            .collect();
        let mut hist = [0u64; 64];
        for (i, h) in hist.iter_mut().enumerate() {
            *h = self.flash_read_hist[i] - before.flash_read_hist[i];
        }
        Delta {
            counters,
            flash_read_hist: hist,
            events: self.events.zip(before.events).map(|(a, b)| a - b),
        }
    }
}

/// Counter growth over the measured phase.
#[derive(Debug)]
pub struct Delta {
    counters: Vec<(&'static str, u64)>,
    flash_read_hist: [u64; 64],
    /// Executor events, when the run counted them.
    pub events: Option<u64>,
}

impl Delta {
    /// The growth of counter `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no counter {name}"))
            .1
    }

    /// Upper bound, in microseconds, of the log2 latency bucket holding
    /// the `q`-quantile flash read (the histogram records nanoseconds).
    fn flash_read_quantile_us(&self, q: f64) -> f64 {
        let count: u64 = self.flash_read_hist.iter().sum();
        if count == 0 {
            return 0.0;
        }
        let target = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.flash_read_hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                return (1u64 << (i + 1).min(63)) as f64 / 1e3;
            }
        }
        0.0
    }
}

/// Nearest-rank quantile of picosecond samples, in microseconds.
pub fn quantile_us(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let (_, &mut v, _) = sorted.select_nth_unstable(rank - 1);
    v as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer numbers that depend only on simulated behaviour: identical
/// on every run of one seed.
pub fn simulated(m: &Measured, batches: u64) -> Vec<(&'static str, f64)> {
    let d = m.after.since(&m.before);
    let l = &m.probe.ledger;
    let s: &Samples = &l.samples;
    let g = |name| d.get(name) as f64;
    let mut out = vec![
        ("workloads.batches", batches as f64),
        ("workloads.dataset_pages", m.dataset_pages as f64),
        ("core.pages_loaded", g("core.pages_loaded")),
        ("core.pages_stored", g("core.pages_stored")),
        ("core.pages_failed", g("core.pages_failed")),
        ("core.read_retries", g("core.read_retries")),
        ("core.read_pages", l.read_pages_done as f64),
        ("core.write_pages", l.write_pages_done as f64),
        ("core.tickets", l.tickets as f64),
        ("ftl.translations", g("ftl.translations")),
        (
            "ftl.cmt_hit_rate",
            1.0 - ratio(d.get("ftl.translation_misses"), d.get("ftl.translations")),
        ),
        ("ftl.gc_runs", g("ftl.gc_runs")),
        ("ftl.gc_pages_moved", g("ftl.gc_pages_moved")),
        (
            "ftl.write_amplification",
            ratio(d.get("flash.programs"), l.write_pages_done),
        ),
        ("ftl.prepare_us_p99", quantile_us(&s.prepare, 0.99)),
        ("ftl.write_us_p99", quantile_us(&s.write, 0.99)),
        (
            "ftl.wfq.victim_read_p99_us",
            quantile_us(&s.victim_read, 0.99),
        ),
        ("ftl.wfq.victim_read_pages", s.victim_read.len() as f64),
        (
            "ftl.wfq.antagonist_read_p99_us",
            quantile_us(&s.antagonist_read, 0.99),
        ),
        ("core.read_p99_us", quantile_us(&s.read, 0.99)),
        ("core.ticket_p99_us", quantile_us(&s.ticket, 0.99)),
        ("core.ticket_samples", s.ticket.len() as f64),
        ("core.read_samples", s.read.len() as f64),
        ("flash.reads", g("flash.reads")),
        ("flash.programs", g("flash.programs")),
        ("flash.erases", g("flash.erases")),
        ("flash.read_latency_p50_us", d.flash_read_quantile_us(0.50)),
        ("flash.read_latency_p99_us", d.flash_read_quantile_us(0.99)),
        ("flash.stage_us_p50", quantile_us(&s.flash_stage, 0.50)),
        ("flash.stage_us_p99", quantile_us(&s.flash_stage, 0.99)),
        ("flash.journal.records", g("flash.journal.records")),
        (
            "flash.journal.records_per_written_page",
            ratio(d.get("flash.journal.records"), l.write_pages_done),
        ),
        ("mee.data_reads", g("mee.data_reads")),
        ("mee.data_writes", g("mee.data_writes")),
    ];
    let accesses = d.get("mee.data_reads") + d.get("mee.data_writes");
    let hit_rate = |hits: &str, misses: &str| {
        let h = d.get(hits);
        ratio(h, h + d.get(misses))
    };
    out.extend([
        (
            "mee.extra_reads_per_access",
            ratio(d.get("mee.extra_reads"), accesses),
        ),
        (
            "mee.extra_writes_per_access",
            ratio(d.get("mee.extra_writes"), accesses),
        ),
        (
            "mee.counter_hit_rate",
            hit_rate("mee.counter_hits", "mee.counter_misses"),
        ),
        (
            "mee.mac_hit_rate",
            hit_rate("mee.mac_hits", "mee.mac_misses"),
        ),
        (
            "mee.tree_hit_rate",
            hit_rate("mee.tree_hits", "mee.tree_misses"),
        ),
        ("mee.l2_hit_rate", hit_rate("mee.l2_hits", "mee.l2_misses")),
        (
            "mee.overflow_reencryptions",
            g("mee.overflow_reencryptions"),
        ),
        (
            "mee.read_overhead_ns_mean",
            ratio(d.get("mee.read_overhead_ps"), d.get("mee.data_reads")) / 1e3,
        ),
        (
            "mee.write_overhead_ns_mean",
            ratio(d.get("mee.write_overhead_ps"), d.get("mee.data_writes")) / 1e3,
        ),
        ("mee.fill_us_p99", quantile_us(&s.fill, 0.99)),
        ("cipher.pages_encrypted", s.pages_encrypted as f64),
        ("cipher.pages_decrypted", s.pages_decrypted as f64),
        (
            "cipher.functional_pages",
            g("cipher.engine_encrypted") + g("cipher.engine_decrypted"),
        ),
        ("cipher.stage_us_p99", quantile_us(&s.cipher_stage, 0.99)),
        ("dram.accesses", g("dram.accesses")),
        (
            "dram.row_hit_rate",
            ratio(d.get("dram.row_hits"), d.get("dram.accesses")),
        ),
        (
            "dram.latency_ns_mean",
            ratio(d.get("dram.latency_ps"), d.get("dram.accesses")) / 1e3,
        ),
        ("trustzone.switches", g("trustzone.switches")),
        (
            "trustzone.switch_time_us",
            g("trustzone.switch_time_ps") / 1e6,
        ),
        (
            "obs.records",
            m.trace.as_ref().map_or(0.0, |t| t.records as f64),
        ),
        (
            "obs.trace_bytes",
            m.trace.as_ref().map_or(0.0, |t| t.bytes as f64),
        ),
    ]);
    if let Some(events) = d.events {
        // Traced runs only: they install the empty power plan that
        // counts events, and record the spans that count calls.
        let pages = l.pages_done.max(1);
        out.extend([
            ("exec.events", events as f64),
            ("exec.events_per_page", events as f64 / pages as f64),
            ("exec.in_flight_tickets_max", m.probe.in_flight_max as f64),
            (
                "ftl.wfq.queued_pages_mean",
                ratio(m.probe.queued.0, m.probe.queued.1),
            ),
            ("ftl.wfq.queued_pages_max", m.probe.queued.2 as f64),
        ]);
        for (call, calls, _, _) in CALLS {
            out.push((calls, sum_spans(m.probe.spans(), call).1 as f64));
        }
    }
    out
}

/// Per-layer host-time numbers of one traced run.
pub fn host(m: &Measured) -> Vec<(&'static str, f64)> {
    let spans = m.probe.spans();
    let wall_ns = m.wall_s * 1e9;
    let mut out = Vec::new();
    let mut covered = 0u64;
    for (call, _, host_mean, wall_pct) in CALLS {
        let (ns, calls) = sum_spans(spans, call);
        covered += ns;
        out.push((host_mean, ratio(ns, calls)));
        out.push((wall_pct, ns as f64 / wall_ns * 100.0));
    }
    let (poll_ns, _) = sum_spans(spans, Call::Poll);
    let events = m.after.since(&m.before).events.unwrap_or(0);
    out.extend([
        ("bench.span_coverage_pct", covered as f64 / wall_ns * 100.0),
        (
            "core.poll.host_ns_per_page",
            ratio(poll_ns, m.probe.ledger.pages_done),
        ),
        ("exec.host_ns_per_event", ratio(poll_ns, events)),
        ("core.populate.host_s", m.setup.populate_s),
        ("core.offload.host_s", m.setup.offload_s),
        ("workloads.generate_s", m.setup.generate_s),
        (
            "obs.take_trace_host_ms",
            m.trace.as_ref().map_or(0.0, |t| t.take_ms),
        ),
    ]);
    out
}

/// Host nanoseconds and public calls inside `call`'s spans.
fn sum_spans(spans: &[Span], call: Call) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.call == call)
        .fold((0, 0), |(ns, n), s| {
            (ns + s.host_ns(), n + u64::from(s.calls))
        })
}
