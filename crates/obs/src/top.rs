//! Terminal rendering for `noc top`: a per-router congestion heatmap and
//! a matching-efficiency sparkline, drawn from flight-recorder window
//! snapshots. Pure string building — the CLI owns cursor control — so the
//! same frame can be printed once from a dump (`noc top DUMP`), asserted
//! in tests, or redrawn live (`noc sim --top`).

use crate::timeseries::WindowSnapshot;
use std::fmt::Write as _;

/// Unicode block shades for the heatmap, lightest to darkest.
const SHADES: [char; 5] = ['·', '░', '▒', '▓', '█'];
/// Unicode eighth-blocks for the sparkline.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Sparkline over `values` scaled to `[0, 1]`; out-of-range values clamp,
/// NaN renders as a space.
fn sparkline(values: &[f64]) -> String {
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else {
                let idx = (v.clamp(0.0, 1.0) * (SPARKS.len() - 1) as f64).round() as usize;
                SPARKS[idx]
            }
        })
        .collect()
}

/// Renders one `noc top` frame from the latest snapshot plus the recent
/// efficiency series (oldest first). `label` names the run; `capacity` is
/// the per-router buffer capacity in flits used to scale the heatmap
/// (pass the network's `total VCs × buf_depth`).
pub fn render_top(
    label: &str,
    latest: &WindowSnapshot,
    efficiency: &[f64],
    capacity: u32,
) -> String {
    let n = latest.routers.len();
    // Router grids are square for every shipped topology; fall back to one
    // row if not.
    let side = (1..=n).find(|s| s * s >= n).unwrap_or(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "noc top — {label} · window {} (cycle {})",
        latest.window, latest.cycle
    );
    let _ = writeln!(
        out,
        "flits {:>8}  injected {:>6}  ejected {:>6}  in flight {:>6}  buffered {:>6}",
        latest.flits(),
        latest.injected,
        latest.ejected,
        latest.in_flight,
        latest.occupancy()
    );
    out.push_str("congestion (buffer occupancy per router):\n");
    let cap = capacity.max(1);
    for row in 0..side {
        out.push_str("  ");
        for col in 0..side {
            let i = row * side + col;
            if i >= n {
                break;
            }
            let fill = latest.routers[i].occupancy.min(cap) as f64 / cap as f64;
            let idx = (fill * (SHADES.len() - 1) as f64).ceil() as usize;
            out.push(SHADES[idx.min(SHADES.len() - 1)]);
            out.push(' ');
        }
        out.push('\n');
    }
    let recent: Vec<f64> = efficiency.iter().rev().take(60).rev().copied().collect();
    let _ = write!(out, "matching efficiency  {}", sparkline(&recent));
    match recent.iter().rev().find(|e| e.is_finite()) {
        Some(e) => {
            let _ = writeln!(out, "  {:.3}", e);
        }
        None => out.push('\n'),
    }
    let mix: (u64, u64, u64, u64, u64) =
        latest
            .routers
            .iter()
            .fold((0, 0, 0, 0, 0), |(a, c, v, s, e), r| {
                (
                    a + r.active,
                    c + r.credit_stall,
                    v + r.vca_stall,
                    s + r.sa_stall,
                    e + r.empty,
                )
            });
    let total = (mix.0 + mix.1 + mix.2 + mix.3 + mix.4).max(1) as f64;
    let _ = writeln!(
        out,
        "stall mix  active {:.0}%  credit {:.0}%  vca {:.0}%  sa {:.0}%  empty {:.0}%",
        mix.0 as f64 / total * 100.0,
        mix.1 as f64 / total * 100.0,
        mix.2 as f64 / total * 100.0,
        mix.3 as f64 / total * 100.0,
        mix.4 as f64 / total * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::RouterCounters;

    fn snap(occupancies: &[u32]) -> WindowSnapshot {
        WindowSnapshot {
            window: 3,
            cycle: 300,
            injected: 40,
            ejected: 38,
            in_flight: 2,
            routers: occupancies
                .iter()
                .map(|&o| RouterCounters {
                    out_flits: 10,
                    occupancy: o,
                    busy_vcs: o.min(4),
                    active: 50,
                    credit_stall: 10,
                    vca_stall: 5,
                    sa_stall: 5,
                    empty: 30,
                    match_granted: 8,
                    match_max: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn frame_has_grid_and_sparkline() {
        let s = snap(&[0, 8, 16, 32]);
        let frame = render_top("mesh 2x1x2 @ 0.3", &s, &[0.5, f64::NAN, 0.8], 32);
        assert!(frame.contains("noc top — mesh 2x1x2 @ 0.3"));
        assert!(frame.contains("window 3 (cycle 300)"));
        // 4 routers → 2×2 grid: empty router lightest, full darkest.
        assert!(frame.contains('·'));
        assert!(frame.contains('█'));
        assert!(frame.contains("matching efficiency"));
        assert!(frame.contains("0.800"));
        // NaN in the sparkline renders as a blank, not a bar.
        let spark_line = frame
            .lines()
            .find(|l| l.starts_with("matching efficiency"))
            .unwrap();
        assert!(spark_line.contains(' '));
        assert!(frame.contains("stall mix"));
    }

    #[test]
    fn sparkline_scales_and_clamps() {
        assert_eq!(sparkline(&[0.0, 1.0]), "▁█");
        assert_eq!(sparkline(&[2.0, -1.0]), "█▁");
        assert_eq!(sparkline(&[f64::NAN]), " ");
    }
}
