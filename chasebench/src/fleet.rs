//! `fleet-1t` / `fleet-wide`: the standard tenant fleet.
//!
//! Untraced, this is `pc_bench::fleet::run_fleet_outcomes`, the call
//! behind `repro fleet`. Traced, the same tenants run through
//! `pc_par::parallel_map_scratch_threads` here, each inside a
//! `bench.tenant.<template>` span; the defense tenants (nginx,
//! tcp-recv, file-copy) call the `pc-defense` workload functions
//! directly, in `ScenarioSpec::run_tenant`'s order, so those calls get
//! spans too. Every other template runs through `run_tenant`.

use crate::{count, count_llc, trace};
use pc_bench::experiments::Scale;
use pc_bench::fleet::{run_fleet_outcomes, FleetConfig, TenantOutcome};
use pc_bench::scenario::{ModeSweep, ScenarioSpec, TenantMetrics, TenantScratch};
use pc_cache::DdioMode;
use pc_defense::workloads::{file_copy, nginx, tcp_recv, NginxConfig, Workbench, WorkloadMetrics};

/// Runs the fleet; one operation per tenant.
pub fn run(cfg: &FleetConfig) -> Vec<(String, String)> {
    let outcomes = if trace::enabled() {
        traced(cfg)
    } else {
        run_fleet_outcomes(cfg)
    };
    for o in &outcomes {
        count_llc(&o.metrics.llc);
        if o.metrics.unit == "frames" {
            count("core.frames", o.metrics.units);
        }
    }
    outcomes
        .iter()
        .map(|o| (format!("tenant{}", o.tenant), format!("{:?}", o)))
        .collect()
}

/// The fleet's `(tenant, template)` pairs: the weighted round-robin
/// assignment of `run_fleet_outcomes`.
pub fn jobs(cfg: &FleetConfig) -> Vec<(usize, usize)> {
    let cycle: Vec<usize> = cfg
        .templates
        .iter()
        .enumerate()
        .flat_map(|(i, t)| std::iter::repeat_n(i, t.weight as usize))
        .collect();
    (0..cfg.tenants)
        .map(|i| (i, cycle[i % cycle.len()]))
        .collect()
}

/// The seed `run_fleet_outcomes` gives tenant `tenant`.
pub fn tenant_seed(cfg: &FleetConfig, tenant: usize) -> u64 {
    pc_par::stream_seed(cfg.seed, pc_par::SeedDomain::Tenant, tenant as u64)
}

/// The `(reporting name, mode)` a tenant of `spec` runs under.
pub fn tenant_mode(spec: &ScenarioSpec) -> (&'static str, DdioMode) {
    match *spec.modes() {
        ModeSweep::One(name, mode) => (name, mode),
        ModeSweep::All => ("DDIO", DdioMode::enabled()),
    }
}

/// `run_fleet_outcomes`, composed.
fn traced(cfg: &FleetConfig) -> Vec<TenantOutcome> {
    pc_core::reset_window_stats();
    let jobs = jobs(cfg);
    let spans: Vec<String> = cfg
        .templates
        .iter()
        // Metric names allow no `/`: `tcp-recv/DDIO` → `tcp-recv_DDIO`.
        .map(|t| format!("bench.tenant.{}", t.label.replace('/', "_")))
        .collect();
    trace::span("pc-par.fanout", || {
        let parent = trace::current();
        pc_par::parallel_map_scratch_threads(
            jobs,
            cfg.threads,
            || (TenantScratch::new(), None::<Workbench>),
            |(scratch, bench), (tenant, template)| {
                trace::job(parent, || {
                    let seed = tenant_seed(cfg, tenant);
                    let spec = &cfg.templates[template].spec;
                    let metrics = trace::span(spans[template].clone(), || {
                        run_tenant(spec, cfg.scale, seed, scratch, bench)
                    });
                    TenantOutcome {
                        tenant,
                        template,
                        metrics,
                    }
                })
            },
        )
    })
}

/// `ScenarioSpec::run_tenant`, with the defense workloads called here.
fn run_tenant(
    spec: &ScenarioSpec,
    scale: Scale,
    seed: u64,
    scratch: &mut TenantScratch,
    bench: &mut Option<Workbench>,
) -> TenantMetrics {
    let (mode_name, mode) = tenant_mode(spec);
    let units = scale.pick(spec.duration().quick, spec.duration().full);
    if !matches!(spec.name(), "nginx" | "tcp-recv" | "file-copy") {
        return spec
            .run_tenant(scale, seed, scratch)
            .expect("fleet templates are tenant-capable scenarios");
    }
    match bench {
        Some(b) => b.reset_paper_machine(mode, seed),
        None => *bench = Some(Workbench::paper_machine(mode, seed)),
    }
    let b = bench.as_mut().expect("filled above");
    let (unit, m): (&'static str, WorkloadMetrics) = match spec.name() {
        "nginx" => {
            let cfg = NginxConfig::paper_defaults();
            let m = trace::span("pc-defense.nginx", || {
                nginx(b, &cfg, units / 5);
                nginx(b, &cfg, units)
            });
            ("requests", m)
        }
        "tcp-recv" => (
            "packets",
            trace::span("pc-defense.tcp_recv", || tcp_recv(b, units)),
        ),
        _ => (
            "lines",
            trace::span("pc-defense.file_copy", || file_copy(b, units)),
        ),
    };
    TenantMetrics {
        mode: mode_name,
        unit,
        units: m.units,
        elapsed_cycles: m.elapsed_cycles,
        llc: m.llc,
        dram_lines: m.mem.total(),
    }
}
