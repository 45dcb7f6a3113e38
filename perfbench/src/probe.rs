//! The benchmark's only door into the device.
//!
//! Every public `IceClave` call a workload makes during its measured
//! phase goes through [`Probe`]. With tracing on, each call is recorded
//! as a [`Span`] (name, start, end, parent, ticket) in memory; with
//! tracing off the wrapper is a single branch. Every completion the
//! device hands back is checked by the [`Ledger`]: each submitted page
//! must retire exactly once, with `PageStatus::Done`.

use std::collections::HashMap;
use std::time::Instant;

use iceclave_core::{IceClave, IceClaveError};
use iceclave_mee::PageClass;
use iceclave_types::{CompletionEvent, Lpn, PageWrite, SimTime, TeeId, Ticket, TicketKind};
use iceclave_workloads::OpCounts;

/// The public calls (and the benchmark's own step grouping) a span can
/// name.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Call {
    /// One workload step: the parent of the calls it makes.
    Step,
    /// `submit_batch_async_as` / `submit_write_batch_async_as`.
    Submit,
    /// `poll_completions` / `drain_completions`.
    Poll,
    /// `mem_read`.
    MemRead,
    /// `mem_write`.
    MemWrite,
    /// `compute`.
    Compute,
}

impl Call {
    /// The span name of the call.
    pub fn name(self) -> &'static str {
        match self {
            Call::Step => "step",
            Call::Submit => "submit",
            Call::Poll => "poll",
            Call::MemRead => "mem_read",
            Call::MemWrite => "mem_write",
            Call::Compute => "compute",
        }
    }
}

/// One traced interval of host time.
///
/// `mem_read`/`mem_write` spans cover a run of consecutive calls of one
/// step (`calls` of them): a per-line span would cost as much host time
/// as the call it measures.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    /// What ran.
    pub call: Call,
    /// Host nanoseconds since the measured phase began.
    pub start_ns: u64,
    /// Host nanoseconds since the measured phase began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The ticket the span works for (none when it serves many).
    pub ticket: Option<u64>,
    /// Public calls the span covers.
    pub calls: u32,
}

impl Span {
    /// Host nanoseconds inside the span.
    pub fn host_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// How a ticket's pages are classified for the latency samples.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Role {
    /// The load under test (every tenant of the single-TEE workloads,
    /// and the victims' deep reads and writes in `tenants_burst`).
    Plain,
    /// A victim tenant's small read ticket.
    VictimSmall,
    /// The antagonist tenant of `tenants_burst`.
    Antagonist,
}

#[derive(Debug)]
struct Open {
    kind: TicketKind,
    role: Role,
    pages: u32,
    seen: u32,
    seen_bits: Vec<u64>,
    last_ready: SimTime,
    due: SimTime,
}

/// Simulated-time samples, all in picoseconds.
#[derive(Default, Debug)]
pub struct Samples {
    /// Read pages of every tenant but the antagonist: due time to
    /// `ready`.
    pub read: Vec<u64>,
    /// Read pages of the antagonist.
    pub antagonist_read: Vec<u64>,
    /// Write pages: due time to durable.
    pub write: Vec<u64>,
    /// Read pages of victim tenants' small tickets.
    pub victim_read: Vec<u64>,
    /// Whole tickets of every tenant but the antagonist: due time to
    /// the last page's `ready`.
    pub ticket: Vec<u64>,
    /// Submission to `prepared` (translation, or the seal read-out).
    pub prepare: Vec<u64>,
    /// `prepared` to `flash_done` on reads (queue wait, bus, retries).
    pub flash_stage: Vec<u64>,
    /// `flash_done` to `cipher_done` on reads.
    pub cipher_stage: Vec<u64>,
    /// `cipher_done` to `ready` on reads (the MEE fill).
    pub fill: Vec<u64>,
    /// Read pages that crossed a decrypt lane.
    pub pages_decrypted: u64,
    /// Write pages that crossed an encrypt lane.
    pub pages_encrypted: u64,
}

/// Every submitted ticket and page, checked off as completions retire.
#[derive(Default, Debug)]
pub struct Ledger {
    open: HashMap<u64, Open>,
    /// Pages submitted.
    pub pages_attempted: u64,
    /// Pages retired `Done`.
    pub pages_done: u64,
    /// Read pages retired `Done`.
    pub read_pages_done: u64,
    /// Write pages retired `Done`.
    pub write_pages_done: u64,
    /// Tickets submitted.
    pub tickets: u64,
    /// Failed pages, `Err` returns and protocol violations (a page of
    /// an unknown ticket, or a page retired twice).
    pub failures: u64,
    /// What went wrong, for the report.
    pub errors: Vec<String>,
    /// Simulated-time samples.
    pub samples: Samples,
    /// Latest `ready` seen.
    pub last_ready: SimTime,
}

impl Ledger {
    fn expect(&mut self, ticket: Ticket, kind: TicketKind, role: Role, pages: usize, due: SimTime) {
        let pages = u32::try_from(pages).expect("batch fits u32");
        self.tickets += 1;
        self.pages_attempted += u64::from(pages);
        let fresh = self.open.insert(
            ticket.raw(),
            Open {
                kind,
                role,
                pages,
                seen: 0,
                seen_bits: vec![0; (pages as usize).div_ceil(64)],
                last_ready: due,
                due,
            },
        );
        if fresh.is_some() {
            self.fail(format!("ticket {} issued twice", ticket.raw()));
        }
    }

    /// Records one failure.
    pub fn fail(&mut self, what: String) {
        self.failures += 1;
        if self.errors.len() < 16 {
            self.errors.push(what);
        }
    }

    fn retire(&mut self, ev: &CompletionEvent) {
        let raw = ev.ticket.raw();
        let index = ev.index as usize;
        let b = ev.breakdown;
        let Some(open) = self.open.get_mut(&raw) else {
            self.fail(format!("completion for unknown ticket {raw}"));
            return;
        };
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        if index >= open.pages as usize || open.seen_bits[word] & bit != 0 {
            self.fail(format!(
                "ticket {raw} page {index} retired twice or out of range"
            ));
            return;
        }
        open.seen_bits[word] |= bit;
        open.seen += 1;
        open.last_ready = open.last_ready.max(b.ready);
        let (kind, role, finished) = (open.kind, open.role, open.seen == open.pages);
        self.last_ready = self.last_ready.max(b.ready);
        if ev.kind != kind {
            self.fail(format!("ticket {raw} retired a page of the wrong kind"));
        } else if !ev.status.is_done() {
            self.fail(format!("ticket {raw} page {index} failed: {:?}", ev.status));
        } else {
            self.pages_done += 1;
            let total = b.total().as_ps();
            let s = &mut self.samples;
            s.prepare
                .push(b.prepared.saturating_since(b.submitted).as_ps());
            match kind {
                TicketKind::Read => {
                    self.read_pages_done += 1;
                    match role {
                        Role::Antagonist => s.antagonist_read.push(total),
                        Role::VictimSmall => {
                            s.read.push(total);
                            s.victim_read.push(total);
                        }
                        Role::Plain => s.read.push(total),
                    }
                    s.flash_stage
                        .push(b.flash_done.saturating_since(b.prepared).as_ps());
                    s.cipher_stage
                        .push(b.cipher_done.saturating_since(b.flash_done).as_ps());
                    s.fill.push(b.ready.saturating_since(b.cipher_done).as_ps());
                    s.pages_decrypted += u64::from(b.cipher_done > b.flash_done);
                }
                TicketKind::Write => {
                    self.write_pages_done += 1;
                    s.write.push(total);
                    s.pages_encrypted += u64::from(b.cipher_done > b.prepared);
                }
            }
        }
        if finished {
            let open = self.open.remove(&raw).expect("present");
            if role != Role::Antagonist {
                let latency = open.last_ready.saturating_since(open.due).as_ps();
                self.samples.ticket.push(latency);
            }
        }
    }

    /// Tickets with pages that never retired.
    pub fn unfinished(&self) -> usize {
        self.open.len()
    }
}

/// The traced (or untraced) handle on one device.
#[derive(Debug)]
pub struct Probe {
    /// The device under test.
    pub ice: IceClave,
    origin: Instant,
    spans: Option<Vec<Span>>,
    step: Option<u32>,
    /// The ticket the current step works for; stamped on its spans.
    ticket: Option<u64>,
    /// Completion bookkeeping and latency samples.
    pub ledger: Ledger,
    /// Arbiter backlog sampled after each poll: (sum, samples, max).
    pub queued: (u64, u64, u64),
    /// Most tickets seen in flight after a submit or a poll.
    pub in_flight_max: usize,
}

impl Probe {
    /// Wraps `ice`; spans are recorded when `traced`.
    pub fn new(ice: IceClave, traced: bool) -> Self {
        Probe {
            ice,
            origin: Instant::now(),
            spans: traced.then(Vec::new),
            step: None,
            ticket: None,
            ledger: Ledger::default(),
            queued: (0, 0, 0),
            in_flight_max: 0,
        }
    }

    /// Starts the host clock of the measured phase.
    pub fn start_clock(&mut self) {
        self.origin = Instant::now();
    }

    /// Host seconds since [`Probe::start_clock`].
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The recorded spans (empty when untraced).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Moves the recorded spans out.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take().unwrap_or_default()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one span of `call` covering `calls` public calls.
    fn span<R>(&mut self, call: Call, calls: u32, f: impl FnOnce(&mut IceClave) -> R) -> R {
        if self.spans.is_none() {
            return f(&mut self.ice);
        }
        let start_ns = self.now_ns();
        let out = f(&mut self.ice);
        let end_ns = self.now_ns();
        let (parent, ticket) = (self.step, self.ticket);
        self.spans.as_mut().expect("traced").push(Span {
            call,
            start_ns,
            end_ns,
            parent,
            ticket,
            calls,
        });
        out
    }

    /// Opens a step span; the calls until [`Probe::end_step`] are its
    /// children, and share the ticket of the step's first submit.
    pub fn begin_step(&mut self) {
        self.ticket = None;
        if let Some(spans) = self.spans.as_mut() {
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            self.step = Some(spans.len() as u32);
            spans.push(Span {
                call: Call::Step,
                start_ns,
                end_ns: start_ns,
                parent: None,
                ticket: None,
                calls: 0,
            });
        }
    }

    /// Closes the open step span.
    pub fn end_step(&mut self) {
        let end_ns = self.now_ns();
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), self.step.take()) {
            spans[i as usize].end_ns = end_ns;
        }
        self.ticket = None;
    }

    fn note_in_flight(&mut self) {
        self.in_flight_max = self.in_flight_max.max(self.ice.in_flight_tickets());
    }

    /// `submit_batch_async_as`, checked in by the ledger.
    pub fn submit_read(
        &mut self,
        tee: TeeId,
        lpns: &[Lpn],
        class: PageClass,
        role: Role,
        due: SimTime,
    ) -> Result<Ticket, IceClaveError> {
        let ticket = self.span(Call::Submit, 1, |ice| {
            ice.submit_batch_async_as(tee, lpns, class, due)
        })?;
        self.tag_last(ticket);
        self.ledger
            .expect(ticket, TicketKind::Read, role, lpns.len(), due);
        self.note_in_flight();
        Ok(ticket)
    }

    /// `submit_write_batch_async_as`, checked in by the ledger.
    pub fn submit_write(
        &mut self,
        tee: TeeId,
        writes: Vec<PageWrite>,
        due: SimTime,
    ) -> Result<Ticket, IceClaveError> {
        let pages = writes.len();
        let ticket = self.span(Call::Submit, 1, |ice| {
            ice.submit_write_batch_async_as(tee, writes, due)
        })?;
        self.tag_last(ticket);
        self.ledger
            .expect(ticket, TicketKind::Write, Role::Plain, pages, due);
        self.note_in_flight();
        Ok(ticket)
    }

    /// Stamps the ticket a submit returned onto its span, and onto the
    /// step and the step's later spans when it is the step's first.
    fn tag_last(&mut self, ticket: Ticket) {
        let first = self.ticket.is_none();
        if first {
            self.ticket = Some(ticket.raw());
        }
        if let Some(spans) = self.spans.as_mut() {
            if let Some(span) = spans.last_mut() {
                span.ticket = Some(ticket.raw());
            }
            if let (true, Some(i)) = (first, self.step) {
                spans[i as usize].ticket = Some(ticket.raw());
            }
        }
    }

    fn retire_all(&mut self, events: Vec<CompletionEvent>) -> Vec<CompletionEvent> {
        for ev in &events {
            self.ledger.retire(ev);
        }
        if self.spans.is_some() {
            let q = self.ice.arbiter().queued_total() as u64;
            self.queued = (self.queued.0 + q, self.queued.1 + 1, self.queued.2.max(q));
        }
        self.note_in_flight();
        events
    }

    /// `poll_completions(now)`.
    pub fn poll(&mut self, now: SimTime) -> Vec<CompletionEvent> {
        let events = self.span(Call::Poll, 1, |ice| ice.poll_completions(now));
        self.retire_all(events)
    }

    /// `drain_completions()`.
    pub fn drain(&mut self) -> Vec<CompletionEvent> {
        let events = self.span(Call::Poll, 1, |ice| ice.drain_completions());
        self.retire_all(events)
    }

    /// One `mem_read` (`call` = `MemRead`) or `mem_write` per offset,
    /// `mlp` at a time from the same instant; returns when the last
    /// group is done.
    pub fn mem(
        &mut self,
        call: Call,
        tee: TeeId,
        offsets: &[u64],
        mlp: usize,
        t: SimTime,
    ) -> Result<SimTime, IceClaveError> {
        if offsets.is_empty() {
            return Ok(t);
        }
        let calls = u32::try_from(offsets.len()).expect("step fits u32");
        self.span(call, calls, |ice| {
            let mut t = t;
            for group in offsets.chunks(mlp) {
                let mut end = t;
                for &off in group {
                    let done = if call == Call::MemRead {
                        ice.mem_read(tee, off, t)?
                    } else {
                        ice.mem_write(tee, off, t)?
                    };
                    end = end.max(done);
                }
                t = end;
            }
            Ok(t)
        })
    }

    /// `compute`.
    pub fn compute(
        &mut self,
        tee: TeeId,
        ops: &OpCounts,
        t: SimTime,
    ) -> Result<SimTime, IceClaveError> {
        self.span(Call::Compute, 1, |ice| ice.compute(tee, ops, t))
    }
}
