//! `paper-1t`: every table and figure of `repro all` at quick scale.
//!
//! Untraced, each experiment is the `pc_bench::experiments` call that
//! `repro` makes. Traced, closed-world fingerprinting (most of the
//! run) and Figure 16 are composed here from the crates' public
//! functions, in the library's order and with its seeds, so the spans
//! reach the test bed, the eviction-set builder, the prober, the
//! scheduler, the chaser, the classifier and the HTTP load generator.

use crate::{count, count_llc, trace};
use pc_bench::experiments::{self as exp, Scale};
use pc_core::chasing::ChasingSpy;
use pc_core::fingerprint::{CaptureConfig, EditDistanceClassifier, FingerprintAccuracy, SizeTrace};
use pc_core::{TestBed, TestBedConfig};
use pc_net::{ArrivalSchedule, EthernetFrame, LineRate, TraceReplay, WebsiteProfile};
use pc_probe::AddressPool;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const QUICK: Scale = Scale::Quick;

type Experiment = (&'static str, fn(u64) -> String);

/// The experiments of `repro all`, in its order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        ("fig5", |s| format!("{:?}", exp::fig5(s))),
        ("fig6", |s| format!("{:?}", exp::fig6(QUICK, s))),
        ("fig7", |s| format!("{:?}", exp::fig7(QUICK, s))),
        ("fig8", |s| format!("{:?}", exp::fig8(QUICK, s))),
        ("table1", |s| format!("{:?}", exp::table1(QUICK, s))),
        ("fig10", |s| format!("{:?}", exp::fig10(s))),
        ("fig11", |s| format!("{:?}", exp::fig11(QUICK, s))),
        ("fig12ab", |s| format!("{:?}", exp::fig12ab(QUICK, s))),
        ("fig12cd", |s| format!("{:?}", exp::fig12cd(QUICK, s))),
        ("fig13", |s| format!("{:?}", exp::fig13(s))),
        ("fingerprint", fingerprint),
        ("table2", |_| format!("{:?}", exp::table2())),
        ("fig14", |s| format!("{:?}", exp::fig14(QUICK, s))),
        ("fig15", |s| format!("{:?}", exp::fig15(QUICK, s))),
        ("fig16", fig16),
    ]
}

/// Runs every experiment, each inside a `bench.<name>` span.
pub fn run(experiments: &[Experiment], seed: u64) -> Vec<(String, String)> {
    experiments
        .iter()
        .map(|&(name, f)| {
            let output = trace::span(format!("bench.{name}"), || f(seed));
            (name.to_owned(), output)
        })
        .collect()
}

fn fingerprint(seed: u64) -> String {
    if !trace::enabled() {
        return format!("{:?}", exp::fingerprint(QUICK, seed));
    }
    // The parameters of `experiments::fingerprint` at quick scale.
    let sites = pc_net::ClosedWorld::paper_five_sites();
    let capture = CaptureConfig::paper_defaults();
    let run = |bed, run_seed| closed_world(bed, sites.sites(), 4, 8, 0.25, &capture, run_seed);
    format!(
        "{:?}",
        exp::FingerprintResult {
            with_ddio: run(TestBedConfig::paper_baseline(), seed),
            without_ddio: run(TestBedConfig::no_ddio(), seed + 999),
        }
    )
}

/// `pc_core::fingerprint::evaluate_closed_world`, composed from its
/// parts with a span at each layer boundary.
fn closed_world(
    bed: TestBedConfig,
    sites: &[WebsiteProfile],
    training: usize,
    trials: usize,
    noise: f64,
    cfg: &CaptureConfig,
    seed: u64,
) -> FingerprintAccuracy {
    let pool = AddressPool::allocate(seed ^ 0xf00d, 16384);
    let capture_one = |site: usize, salt: u64| {
        let mut rng =
            SmallRng::seed_from_u64(pc_par::stream_seed(seed, pc_par::SeedDomain::Capture, salt));
        let mut tb = trace::span("core.testbed_new", || {
            TestBed::new(bed.with_seed(seed ^ salt))
        });
        let mut spy = trace::span("pc-probe.evset_build", || {
            ChasingSpy::for_ring(tb.hierarchy().llc(), &pool, tb.driver())
        });
        let frames = trace::span("pc-net.page_load", || {
            sites[site].page_load(noise, &mut rng)
        });
        capture_trace(&mut tb, &mut spy, &frames, cfg)
    };
    let train_jobs: Vec<(usize, u64)> = (0..sites.len())
        .flat_map(|si| (0..training).map(move |t| (si, (si * 1000 + t) as u64)))
        .collect();
    let mut captured = fan_out(train_jobs, capture_one).into_iter();
    let per_site: Vec<Vec<SizeTrace>> = (0..sites.len())
        .map(|_| captured.by_ref().take(training).collect())
        .collect();
    let classifier = EditDistanceClassifier::train(
        sites.iter().map(|s| s.name().to_owned()).collect(),
        per_site,
    );

    let eval_jobs: Vec<(usize, u64)> = (0..sites.len())
        .flat_map(|si| (0..trials).map(move |t| (si, (0x5a5a + si * 7717 + t) as u64)))
        .collect();
    let predictions = fan_out(eval_jobs, |si, salt| {
        let trace = capture_one(si, salt);
        (
            si,
            trace::span("core.classify", || classifier.classify(&trace).0),
        )
    });

    let mut confusion = vec![vec![0usize; sites.len()]; sites.len()];
    let mut correct = 0usize;
    for &(si, pred) in &predictions {
        confusion[si][pred] += 1;
        correct += usize::from(pred == si);
    }
    FingerprintAccuracy {
        accuracy: correct as f64 / predictions.len().max(1) as f64,
        trials: predictions.len(),
        confusion,
    }
}

/// `pc_par::parallel_map` inside a `pc-par.fanout` span, one
/// `pc-par.job` span per item.
fn fan_out<R: Send>(jobs: Vec<(usize, u64)>, f: impl Fn(usize, u64) -> R + Sync) -> Vec<R> {
    trace::span("pc-par.fanout", || {
        let parent = trace::current();
        pc_par::parallel_map(jobs, |(si, salt)| trace::job(parent, || f(si, salt)))
    })
}

/// `pc_core::fingerprint::capture_trace`, composed.
fn capture_trace(
    tb: &mut TestBed,
    spy: &mut ChasingSpy,
    frames: &[EthernetFrame],
    cfg: &CaptureConfig,
) -> SizeTrace {
    trace::span("pc-probe.prime", || spy.prime_all(tb));
    let mut rng = SmallRng::seed_from_u64(tb.now() ^ 0xf1f0);
    let mut gen = TraceReplay::new(frames.iter().map(|f| f.bytes()).collect());
    let schedule = trace::span("pc-net.schedule", || {
        ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(cfg.packet_rate_fps)
            .generate(&mut gen, tb.now() + 50_000, frames.len(), &mut rng)
    });
    count("pc-net.frames", schedule.len() as u64);
    tb.enqueue(schedule);

    let mut trace = Vec::with_capacity(cfg.trace_len);
    let mut attempts = 0usize;
    while trace.len() < cfg.trace_len && attempts < cfg.trace_len * 2 {
        attempts += 1;
        let obs = trace::span("core.chase", || {
            spy.observe_next(tb, cfg.probe_interval, cfg.max_wait_samples)
        });
        if let Some(obs) = obs {
            trace.push(obs.size_class);
        }
        if tb.pending_frames() == 0 && trace.len() < cfg.trace_len {
            break;
        }
    }
    trace.resize(cfg.trace_len, 1);
    count("core.chase.attempts", attempts as u64);
    count("core.chase.observed", spy.observed());
    count("core.chase.out_of_syncs", spy.out_of_syncs());
    count("core.frames", tb.packets_received_total());
    count_llc(&tb.hierarchy().llc().stats());
    trace
}

fn fig16(seed: u64) -> String {
    if !trace::enabled() {
        return format!("{:?}", exp::fig16(QUICK, seed));
    }
    format!("{:?}", fig16_tail_latency(8_000, seed))
}

/// `pc_defense::eval::fig16_tail_latency`, composed.
fn fig16_tail_latency(requests: usize, seed: u64) -> Vec<pc_defense::eval::Fig16Row> {
    use pc_defense::histogram::LatencyHistogram;
    use pc_defense::loadgen::{cycles_to_ms, run_http_load, LoadGenConfig};
    use pc_defense::workloads::{NginxConfig, Workbench};
    let nginx_cfg = NginxConfig {
        working_set_bytes: 12 << 20,
        compute_cycles: 145_000,
        ..NginxConfig::paper_defaults()
    };
    let lg = LoadGenConfig {
        requests,
        ..LoadGenConfig::paper_defaults()
    };
    let mut rows = Vec::new();
    for (name, ddio, randomize) in pc_defense::eval::fig16_defenses() {
        let driver_cfg = pc_nic::DriverConfig {
            randomize,
            realloc_cost: 5_000,
            ..pc_nic::DriverConfig::paper_defaults()
        };
        let mut bench = Workbench::new(
            pc_cache::CacheGeometry::xeon_e5_2660(),
            ddio,
            driver_cfg,
            seed,
        );
        for _ in 0..200 {
            bench.nginx_request(&nginx_cfg);
        }
        let mut report = trace::span("pc-defense.http_load", || {
            run_http_load(&mut bench, &nginx_cfg, &lg)
        });
        count_llc(&bench.hierarchy().llc().stats());
        for (i, p) in LatencyHistogram::PAPER_PERCENTILES.iter().enumerate() {
            let ladder = report.histogram.paper_ladder();
            rows.push(pc_defense::eval::Fig16Row {
                defense: name,
                percentile: *p,
                latency_ms: cycles_to_ms(ladder[i]),
            });
        }
    }
    rows
}
