//! `noc check`, `noc synth` and `noc quality`: one design point, statically
//! verified, synthesized or measured open-loop.

use crate::args::Args;
use noc_bench::workload_matrix;
use noc_check::{check_design, check_fixture, fixtures, RouteModel};
use noc_core::AllocatorKind;

pub(crate) fn cmd_check(args: &Args) -> Result<(), String> {
    let c: usize = args.get("vcs", 2)?;
    // A VC count that makes no router (zero, too wide) is the fixture's
    // one-line error.
    let checked = |f: Result<fixtures::Fixture, noc_core::SpecError>| {
        f.map(|f| check_fixture(&f)).map_err(|e| e.to_string())
    };
    let mut reports = Vec::new();
    if let Some(name) = args.flags.get("fixture") {
        let f = fixtures::by_name(name, c)
            .ok_or_else(|| format!("unknown fixture '{name}' (no-dateline | cyclic-vc)"))?;
        reports.push(checked(f)?);
    } else if args.flags.contains_key("all") {
        // The paper's designs across topologies and VC counts...
        for topo in ["mesh", "fbfly", "torus"] {
            for c in [1usize, 2, 4] {
                reports.push(checked(fixtures::paper_design(topo, c))?);
            }
        }
        // ...plus every configuration the workload matrix simulates.
        for (name, cfg) in workload_matrix() {
            let topo = cfg.topology.build();
            let model = RouteModel::Simulator(cfg.routing());
            reports.push(check_design(&name, &topo, &model, &cfg.vc_spec()));
        }
    } else {
        let topo = args.topology()?;
        reports.push(checked(fixtures::paper_design(topo.label(), c))?);
    }
    let mut failed = 0usize;
    for rep in &reports {
        print!("{}", rep.render());
        if !rep.passed() {
            failed += 1;
        }
    }
    println!(
        "{}/{} design(s) passed",
        reports.len() - failed,
        reports.len()
    );
    if failed > 0 {
        return Err(format!("{failed} design(s) failed verification"));
    }
    Ok(())
}

pub(crate) fn cmd_synth(args: &Args) -> Result<(), String> {
    use noc_hw::builders::{sw_alloc, vc_alloc};
    let what = args.positional.get(1).map(String::as_str).unwrap_or("vca");
    let spec = args.design_spec(2, 0.0)?;
    let synth = noc_hw::Synthesizer::default();
    let result = match what {
        "vca" => vc_alloc::synthesize_vc_allocator(
            &synth,
            &spec,
            args.alloc_kind()?,
            !args.flags.contains_key("dense"),
        ),
        "swa" => sw_alloc::synthesize_switch_allocator(
            &synth,
            args.sw_kind("alloc")?,
            spec.ports(),
            spec.total_vcs(),
            args.spec_mode()?,
        ),
        other => return Err(format!("unknown synth target '{other}' (vca|swa)")),
    };
    match result {
        Ok(r) => {
            println!("design           {}", r.name);
            println!("min cycle time   {:.3} ns", r.delay_ns);
            println!("cell area        {:.0} um^2", r.area_um2);
            println!("average power    {:.2} mW (activity 0.5)", r.power_mw);
            println!(
                "cells            {} combinational + {} flops ({} buffers inserted)",
                r.cells, r.dffs, r.buffers_inserted
            );
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

pub(crate) fn cmd_quality(args: &Args) -> Result<(), String> {
    let what = args.positional.get(1).map(String::as_str).unwrap_or("vca");
    let rate: f64 = args.get("rate", 0.5)?;
    let spec = args.design_spec(2, rate)?;
    if rate == 0.0 {
        return Err("--rate must be above 0: no request is drawn, so nothing is measured".into());
    }
    let trials: usize = args.get("trials", 3000)?;
    if trials == 0 {
        return Err("--trials must be at least 1".to_string());
    }
    // Trials that drew no request measured nothing: say so rather than
    // print the library's "perfect" convention for an empty sequence.
    let shown = |p: &noc_quality::QualityPoint| match p.max_grants {
        0 => "n/a".to_string(),
        _ => format!("{:.4}", p.quality()),
    };
    match what {
        "vca" => {
            let cfg = noc_quality::VcQualityConfig {
                spec,
                trials,
                seed: 0x5c09,
            };
            println!("VC allocation quality @ rate {rate} ({trials} trials):");
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let curve = noc_quality::vc_quality_curve(&cfg, kind, &[rate]);
                println!("  {:<8} {}", kind.family(), shown(&curve.points[0]));
            }
        }
        "swa" => {
            let cfg = noc_quality::SwQualityConfig {
                ports: spec.ports(),
                vcs: spec.total_vcs(),
                trials,
                seed: 0x5c09,
            };
            println!("switch allocation quality @ rate {rate} ({trials} trials):");
            for (label, kind) in noc_bench::figures::SW_FIGURE_KINDS {
                let curve = noc_quality::sw_quality_curve(&cfg, kind, &[rate]);
                println!("  {label:<8} {}", shown(&curve.points[0]));
            }
        }
        other => return Err(format!("unknown quality target '{other}' (vca|swa)")),
    }
    Ok(())
}
