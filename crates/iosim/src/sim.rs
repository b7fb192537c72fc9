//! The event-driven simulation engine.

use crate::config::MachineConfig;
use crate::mds::MetadataServer;
use crate::pfs::{FlowId, Pfs};
use crate::program::{Phase, Program};
use crate::shim::Shim;
use mosaic_darshan::dxt::DxtTrace;
use mosaic_darshan::TraceLog;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Unix epoch used as the default job start (2019-01-01, the Blue Waters
/// peak year the paper analyzes).
pub const DEFAULT_EPOCH: i64 = 1_546_300_800;

/// A configured simulation: machine + job size + RNG seed.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: MachineConfig,
    nprocs: u32,
    seed: u64,
    job_id: u64,
    uid: u32,
    start_time: i64,
    dxt: bool,
}

/// Everything a run produces beyond the trace itself.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The Darshan-like trace.
    pub trace: TraceLog,
    /// Simulated wallclock of the job, seconds.
    pub makespan: f64,
    /// Peak metadata requests observed in any one second.
    pub mds_peak: u64,
    /// Total metadata requests issued.
    pub mds_total: u64,
    /// `true` if the metadata server hit saturation at least once.
    pub mds_saturated: bool,
    /// Total bytes moved through the PFS.
    pub bytes_moved: f64,
    /// Full-resolution DXT trace, when enabled via [`Simulation::with_dxt`].
    pub dxt: Option<DxtTrace>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Ready { rank: u32 },
    FlowCheck { epoch: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first, tie-break on
        // insertion order for determinism.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

struct PendingFlow {
    rank: u32,
    path: String,
    bytes: u64,
    start: f64,
    is_read: bool,
}

impl Simulation {
    /// New simulation on `config` with `nprocs` ranks and a deterministic
    /// `seed`.
    pub fn new(config: MachineConfig, nprocs: u32, seed: u64) -> Self {
        assert!(nprocs > 0, "nprocs must be positive");
        Simulation {
            config: config.validated(),
            nprocs,
            seed,
            job_id: seed,
            uid: 1000,
            start_time: DEFAULT_EPOCH,
            dxt: false,
        }
    }

    /// Also capture a DXT (per-access) trace, like Darshan's DXT module.
    pub fn with_dxt(mut self) -> Self {
        self.dxt = true;
        self
    }

    /// Override the job identity recorded in the trace header.
    pub fn with_identity(mut self, job_id: u64, uid: u32, start_time: i64) -> Self {
        self.job_id = job_id;
        self.uid = uid;
        self.start_time = start_time;
        self
    }

    /// Run `program` and return only the trace.
    pub fn run(&self, program: &Program, exe: &str) -> TraceLog {
        self.run_detailed(program, exe).trace
    }

    /// Run `program` (SPMD: every rank executes it) and return the trace
    /// plus engine statistics.
    pub fn run_detailed(&self, program: &Program, exe: &str) -> SimOutcome {
        let flat = program.flatten();
        let per_rank = vec![flat; self.nprocs as usize];
        self.run_flat(per_rank, exe)
    }

    /// Run an MPMD job: rank `r` executes `programs[assign(r)]` — the
    /// I/O-master idiom (rank 0 funnels output while others compute) and
    /// coupled-code idioms live here.
    ///
    /// All programs must contain the same number of barriers (barriers are
    /// global across the job); this is asserted up front because a mismatch
    /// would deadlock a real MPI application just the same.
    pub fn run_mpmd(
        &self,
        programs: &[Program],
        assign: impl Fn(u32) -> usize,
        exe: &str,
    ) -> SimOutcome {
        assert!(!programs.is_empty(), "need at least one program");
        let flats: Vec<Vec<Phase>> = programs.iter().map(Program::flatten).collect();
        let barrier_counts: Vec<usize> = flats
            .iter()
            .map(|f| f.iter().filter(|p| matches!(p, Phase::Barrier)).count())
            .collect();
        assert!(
            barrier_counts.windows(2).all(|w| w[0] == w[1]),
            "programs disagree on barrier count ({barrier_counts:?}): global              barriers would deadlock"
        );
        let per_rank: Vec<Vec<Phase>> = (0..self.nprocs)
            .map(|r| {
                let idx = assign(r);
                assert!(idx < programs.len(), "assign({r}) = {idx} out of range");
                flats[idx].clone()
            })
            .collect();
        self.run_flat(per_rank, exe)
    }

    fn run_flat(&self, flat_per_rank: Vec<Vec<Phase>>, exe: &str) -> SimOutcome {
        let n = self.nprocs;
        debug_assert_eq!(flat_per_rank.len(), n as usize);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut pfs = Pfs::new(self.config.pfs_bandwidth, self.config.per_rank_bandwidth);
        let mut mds = MetadataServer::new(self.config.mds_capacity, self.config.mds_base_latency);
        let mut shim = Shim::new(n, true);
        if self.dxt {
            shim = shim.with_dxt();
        }

        let mut queue: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let push = |queue: &mut BinaryHeap<Event>, seq: &mut u64, time: f64, kind: EventKind| {
            *seq += 1;
            queue.push(Event { time, seq: *seq, kind });
        };

        let mut ip = vec![0usize; n as usize];
        let mut barrier: Vec<(u32, f64)> = Vec::new();
        let mut flows: BTreeMap<FlowId, PendingFlow> = BTreeMap::new();
        let mut epoch = 0u64;
        let mut makespan = 0.0f64;

        // Desynchronized starts: each rank begins within a small jittered
        // offset, seeding the process drift the merge algorithms handle.
        for rank in 0..n {
            let offset = rng.gen_range(0.0..=self.config.rank_jitter.max(1e-9));
            push(&mut queue, &mut seq, offset, EventKind::Ready { rank });
        }

        while let Some(ev) = queue.pop() {
            let now = ev.time;
            makespan = makespan.max(now);
            match ev.kind {
                EventKind::FlowCheck { epoch: ev_epoch } => {
                    if ev_epoch != epoch {
                        continue; // stale prediction
                    }
                    let Some((flow_id, t)) = pfs.next_completion() else { continue };
                    debug_assert!((t - now).abs() < 1e-6, "completion drift: {t} vs {now}");
                    pfs.finish_flow(now, flow_id);
                    let pf = flows.remove(&flow_id).expect("pending flow");
                    if pf.is_read {
                        shim.on_read(pf.rank, &pf.path, pf.bytes, pf.start, now);
                    } else {
                        shim.on_write(pf.rank, &pf.path, pf.bytes, pf.start, now);
                    }
                    push(&mut queue, &mut seq, now, EventKind::Ready { rank: pf.rank });
                    epoch += 1;
                    if let Some((_, tn)) = pfs.next_completion() {
                        push(&mut queue, &mut seq, tn, EventKind::FlowCheck { epoch });
                    }
                }
                EventKind::Ready { rank } => {
                    let i = &mut ip[rank as usize];
                    let flat = &flat_per_rank[rank as usize];
                    if *i >= flat.len() {
                        continue; // rank finished
                    }
                    let phase = &flat[*i];
                    *i += 1;
                    match phase {
                        Phase::Compute { seconds } => {
                            // Multiplicative jitter models load imbalance.
                            let factor =
                                1.0 + self.config.rank_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
                            let dur = (seconds * factor).max(0.0);
                            push(&mut queue, &mut seq, now + dur, EventKind::Ready { rank });
                        }
                        Phase::Open { file } => {
                            let path = file.path_for(rank);
                            let done = mds.submit(now, 1);
                            shim.on_open(rank, &path, now, done);
                            push(&mut queue, &mut seq, done, EventKind::Ready { rank });
                        }
                        Phase::Seek { file, count } => {
                            let path = file.path_for(rank);
                            let done = mds.submit(now, *count as u64);
                            shim.on_seek(rank, &path, *count, now, done);
                            push(&mut queue, &mut seq, done, EventKind::Ready { rank });
                        }
                        Phase::Stat { file, count } => {
                            let path = file.path_for(rank);
                            let done = mds.submit(now, *count as u64);
                            shim.on_stat(rank, &path, *count, now, done);
                            push(&mut queue, &mut seq, done, EventKind::Ready { rank });
                        }
                        Phase::Close { file } => {
                            let path = file.path_for(rank);
                            let done = mds.submit(now, 1);
                            shim.on_close(rank, &path, now, done);
                            push(&mut queue, &mut seq, done, EventKind::Ready { rank });
                        }
                        Phase::Read { file, bytes } | Phase::Write { file, bytes } => {
                            let is_read = matches!(phase, Phase::Read { .. });
                            let path = file.path_for(rank);
                            let id = pfs.start_flow(now, *bytes);
                            flows.insert(
                                id,
                                PendingFlow { rank, path, bytes: *bytes, start: now, is_read },
                            );
                            epoch += 1;
                            if let Some((_, tn)) = pfs.next_completion() {
                                push(&mut queue, &mut seq, tn, EventKind::FlowCheck { epoch });
                            }
                        }
                        Phase::Barrier => {
                            barrier.push((rank, now));
                            if barrier.len() as u32 == n {
                                let release =
                                    barrier.iter().map(|&(_, t)| t).fold(0.0f64, f64::max);
                                for &(r, _) in &barrier {
                                    push(
                                        &mut queue,
                                        &mut seq,
                                        release,
                                        EventKind::Ready { rank: r },
                                    );
                                }
                                barrier.clear();
                            }
                        }
                        Phase::Repeat { .. } => unreachable!("flattened programs have no Repeat"),
                    }
                }
            }
        }

        debug_assert!(flows.is_empty(), "dangling flows at end of simulation");
        let end_time = self.start_time + makespan.ceil().max(1.0) as i64;
        let dxt = shim.dxt_trace(self.job_id, self.uid, self.start_time, end_time, exe);
        let trace = shim.into_trace(self.job_id, self.uid, self.start_time, end_time, exe);
        SimOutcome {
            trace,
            makespan,
            mds_peak: mds.peak_load(),
            mds_total: mds.total_requests(),
            mds_saturated: mds.saturated(),
            bytes_moved: pfs.bytes_moved(),
            dxt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FileSpec;
    use mosaic_darshan::counter::PosixCounter as C;
    use mosaic_darshan::ops::OperationView;

    fn machine() -> MachineConfig {
        MachineConfig {
            pfs_bandwidth: 1e9,
            per_rank_bandwidth: 1e8,
            mds_capacity: 3000.0,
            mds_base_latency: 0.0005,
            rank_jitter: 0.02,
        }
    }

    fn checkpointer(rounds: u32) -> Program {
        Program::new(vec![
            Phase::Open { file: FileSpec::shared("/in/data") },
            Phase::Read { file: FileSpec::shared("/in/data"), bytes: 1 << 20 },
            Phase::Close { file: FileSpec::shared("/in/data") },
            Phase::Repeat {
                times: rounds,
                body: vec![
                    Phase::Compute { seconds: 30.0 },
                    Phase::Open { file: FileSpec::per_rank("/ckpt/d") },
                    Phase::Write { file: FileSpec::per_rank("/ckpt/d"), bytes: 8 << 20 },
                    Phase::Close { file: FileSpec::per_rank("/ckpt/d") },
                    Phase::Barrier,
                ],
            },
        ])
    }

    #[test]
    fn volumes_match_program() {
        let sim = Simulation::new(machine(), 4, 7);
        let out = sim.run_detailed(&checkpointer(3), "/apps/ckpt");
        let t = &out.trace;
        assert_eq!(t.total_bytes_read() as u64, 4 * (1 << 20));
        assert_eq!(t.total_bytes_written() as u64, 4 * 3 * (8 << 20));
        assert!((out.bytes_moved - (4.0 * (1 << 20) as f64 + 12.0 * (8 << 20) as f64)).abs() < 1.0);
    }

    #[test]
    fn makespan_exceeds_compute_floor() {
        let sim = Simulation::new(machine(), 4, 7);
        let out = sim.run_detailed(&checkpointer(3), "/apps/ckpt");
        assert!(out.makespan > 3.0 * 30.0 * 0.97, "makespan {}", out.makespan);
        assert!(out.makespan < 3.0 * 30.0 * 1.5, "makespan {}", out.makespan);
    }

    #[test]
    fn produced_trace_is_valid_and_roundtrips() {
        let sim = Simulation::new(machine(), 8, 11);
        let trace = sim.run(&checkpointer(2), "/apps/ckpt");
        assert!(mosaic_darshan::validate::validate(&trace).is_clean());
        let bytes = mosaic_darshan::mdf::to_bytes(&trace);
        assert_eq!(mosaic_darshan::mdf::from_bytes(&bytes).unwrap(), trace);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = Simulation::new(machine(), 4, 99).run(&checkpointer(2), "/x");
        let b = Simulation::new(machine(), 4, 99).run(&checkpointer(2), "/x");
        assert_eq!(a, b);
        let c = Simulation::new(machine(), 4, 100).run(&checkpointer(2), "/x");
        assert_ne!(a, c, "different seeds should perturb timings");
    }

    #[test]
    fn checkpoint_rounds_produce_periodic_write_intervals() {
        let sim = Simulation::new(machine(), 4, 5);
        let trace = sim.run(&checkpointer(5), "/apps/ckpt");
        let view = OperationView::from_log(&trace);
        // Per-rank checkpoint files: 4 ranks × 5 rounds but each (rank,file)
        // pair aggregates its 5 writes... per round a *new* open/write/close
        // on the same per-rank path, so one record per rank holding all 5
        // rounds. The write interval spans round 1 to round 5.
        assert!(!view.writes.is_empty());
        let total: u64 = view.writes.iter().map(|o| o.bytes).sum();
        assert_eq!(total, 4 * 5 * (8 << 20));
    }

    #[test]
    fn shared_read_reduces_to_one_record() {
        let sim = Simulation::new(machine(), 8, 3);
        let trace = sim.run(&checkpointer(1), "/apps/ckpt");
        let shared: Vec<_> = trace.records().iter().filter(|r| r.rank == -1).collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].get(C::Opens), 8);
    }

    #[test]
    fn mds_sees_expected_request_count() {
        let sim = Simulation::new(machine(), 4, 7);
        let out = sim.run_detailed(&checkpointer(3), "/apps/ckpt");
        // opens+closes: shared 4+4, per round 4+4 each → 8 + 3*8 = 32.
        assert_eq!(out.mds_total, 32);
        assert!(!out.mds_saturated);
    }

    #[test]
    fn metadata_storm_saturates_mds() {
        let storm = Program::new(vec![Phase::Repeat {
            times: 200,
            body: vec![
                Phase::Open { file: FileSpec::per_rank("/meta/f") },
                Phase::Close { file: FileSpec::per_rank("/meta/f") },
            ],
        }]);
        let cfg = MachineConfig { mds_capacity: 100.0, ..machine() };
        let out = Simulation::new(cfg, 16, 1).run_detailed(&storm, "/apps/storm");
        assert!(out.mds_peak >= 100, "peak {}", out.mds_peak);
        assert!(out.mds_saturated);
    }

    #[test]
    fn contention_stretches_io() {
        // 1 rank vs 16 ranks writing the same per-rank volume: aggregate
        // bound should stretch the 16-rank run's I/O phase.
        let prog = Program::new(vec![
            Phase::Open { file: FileSpec::per_rank("/o") },
            Phase::Write { file: FileSpec::per_rank("/o"), bytes: 100 << 20 },
            Phase::Close { file: FileSpec::per_rank("/o") },
        ]);
        let cfg = MachineConfig {
            pfs_bandwidth: 4e8,
            per_rank_bandwidth: 1e8,
            rank_jitter: 0.0,
            ..machine()
        };
        let solo = Simulation::new(cfg.clone(), 1, 1).run_detailed(&prog, "/x").makespan;
        let crowd = Simulation::new(cfg, 16, 1).run_detailed(&prog, "/x").makespan;
        // 16 ranks share 4e8: each gets 2.5e7 → 4× slower than solo 1e8.
        assert!(crowd > solo * 3.0, "solo {solo}, crowd {crowd}");
    }

    #[test]
    fn mpmd_io_master_pattern() {
        // Rank 0 is the I/O master: it writes everyone's output; other
        // ranks only compute. The classic funnel pattern.
        let master = Program::new(vec![
            Phase::Compute { seconds: 10.0 },
            Phase::Barrier,
            Phase::Open { file: FileSpec::shared("/out/all.dat") },
            Phase::Write { file: FileSpec::shared("/out/all.dat"), bytes: 64 << 20 },
            Phase::Close { file: FileSpec::shared("/out/all.dat") },
        ]);
        let worker = Program::new(vec![Phase::Compute { seconds: 10.0 }, Phase::Barrier]);
        let out = Simulation::new(machine(), 8, 4).run_mpmd(
            &[master, worker],
            |rank| usize::from(rank != 0),
            "/apps/funnel",
        );
        assert_eq!(out.trace.total_bytes_written() as u64, 64 << 20);
        // Only rank 0 touched the file: one record, rank 0.
        assert_eq!(out.trace.records().len(), 1);
        assert_eq!(out.trace.records()[0].rank, 0);
        assert_eq!(out.mds_total, 2); // one open + one close
    }

    #[test]
    #[should_panic(expected = "barrier count")]
    fn mpmd_barrier_mismatch_panics() {
        let a = Program::new(vec![Phase::Barrier]);
        let b = Program::new(vec![Phase::Compute { seconds: 1.0 }]);
        let _ = Simulation::new(machine(), 2, 1).run_mpmd(&[a, b], |r| r as usize, "/x");
    }

    #[test]
    fn mpmd_with_single_program_matches_spmd() {
        let prog = checkpointer(2);
        let spmd = Simulation::new(machine(), 4, 9).run_detailed(&prog, "/x");
        let mpmd = Simulation::new(machine(), 4, 9).run_mpmd(&[prog], |_| 0, "/x");
        assert_eq!(spmd.trace, mpmd.trace);
    }

    #[test]
    fn stat_phase_reaches_the_counters() {
        use mosaic_darshan::counter::PosixCounter as C;
        let prog =
            Program::new(vec![Phase::Stat { file: FileSpec::shared("/probe/target"), count: 7 }]);
        let out = Simulation::new(machine(), 4, 2).run_detailed(&prog, "/x");
        let total_stats: i64 = out.trace.records().iter().map(|r| r.get(C::Stats)).sum();
        assert_eq!(total_stats, 28); // 4 ranks × 7 stats
        assert_eq!(out.mds_total, 28);
    }

    #[test]
    fn empty_program_yields_empty_trace() {
        let sim = Simulation::new(machine(), 2, 1);
        let out = sim.run_detailed(&Program::new(vec![]), "/noop");
        assert!(out.trace.records().is_empty());
        assert_eq!(out.mds_total, 0);
    }

    #[test]
    fn aggregate_bandwidth_bounds_a_shared_write() {
        // N-to-1 write: 16 ranks could draw 1.6 GB/s; a 0.4 GB/s file
        // system makes the write phase four times longer.
        let prog = Program::new(vec![
            Phase::Open { file: FileSpec::shared("/big/shared.out") },
            Phase::Write { file: FileSpec::shared("/big/shared.out"), bytes: 100 << 20 },
            Phase::Close { file: FileSpec::shared("/big/shared.out") },
        ]);
        let wide = MachineConfig { pfs_bandwidth: 1.6e9, rank_jitter: 0.0, ..machine() };
        let narrow = MachineConfig { pfs_bandwidth: 4e8, ..wide.clone() };
        let t_wide = Simulation::new(wide, 16, 1).run_detailed(&prog, "/x").makespan;
        let t_narrow = Simulation::new(narrow, 16, 1).run_detailed(&prog, "/x").makespan;
        assert!(t_narrow > t_wide * 3.0, "wide {t_wide}, narrow {t_narrow}");
    }

    #[test]
    fn volume_does_not_depend_on_bandwidth() {
        let prog = checkpointer(3);
        let fast = Simulation::new(machine(), 4, 7).run_detailed(&prog, "/x");
        let slow_cfg = MachineConfig { pfs_bandwidth: 1e7, per_rank_bandwidth: 1e7, ..machine() };
        let slow = Simulation::new(slow_cfg, 4, 7).run_detailed(&prog, "/x");
        assert_eq!(fast.trace.total_bytes_written(), slow.trace.total_bytes_written());
        assert_eq!(fast.trace.total_bytes_read(), slow.trace.total_bytes_read());
        assert!((fast.bytes_moved - slow.bytes_moved).abs() < 1.0);
        assert!(slow.makespan > fast.makespan, "fast {}, slow {}", fast.makespan, slow.makespan);
    }

    #[test]
    #[should_panic(expected = "per_rank_bandwidth")]
    fn an_invalid_machine_is_rejected_up_front() {
        let _ = Simulation::new(MachineConfig { per_rank_bandwidth: -1.0, ..machine() }, 4, 1);
    }

    #[test]
    #[should_panic(expected = "nprocs")]
    fn a_job_needs_at_least_one_rank() {
        let _ = Simulation::new(machine(), 0, 1);
    }
}
