//! `noc top` and `noc replay`: a recorded telemetry dump, drawn or
//! summarized.

use crate::args::Args;
use noc_obs::{render_top, TelemetryDump, ToJson, WindowSnapshot};

/// The positional `DUMP` of `noc top` / `noc replay`, with its path.
fn load_dump(args: &Args) -> Result<(&str, TelemetryDump), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: noc top DUMP | noc replay DUMP")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read telemetry dump '{path}': {e}"))?;
    Ok((path, TelemetryDump::parse(&text)?))
}

pub(crate) fn cmd_replay(args: &Args) -> Result<(), String> {
    let (_, dump) = load_dump(args)?;
    println!("{}", dump.summary().to_json());
    Ok(())
}

/// Draws the dump's latest window the way the live `--top` view would. A
/// dump is written once, when its run ends, so there is nothing to follow.
///
/// The header does not carry buffer capacities, so the occupancy heatmap is
/// scaled by the largest occupancy seen anywhere in the dump: relative
/// hotspots stay visible even without the absolute scale.
pub(crate) fn cmd_top(args: &Args) -> Result<(), String> {
    let (path, dump) = load_dump(args)?;
    let latest =
        (dump.windows.last()).ok_or_else(|| format!("'{path}' contains no telemetry windows"))?;
    let capacity = dump
        .windows
        .iter()
        .flat_map(|w| w.routers.iter().map(|r| r.occupancy))
        .max()
        .unwrap_or(0)
        .max(1);
    let eff: Vec<f64> = dump
        .windows
        .iter()
        .map(WindowSnapshot::efficiency)
        .collect();
    let label = format!("{} (replay)", dump.header.label);
    print!("{}", render_top(&label, latest, &eff, capacity));
    Ok(())
}
