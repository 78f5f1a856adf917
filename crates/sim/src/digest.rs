//! Content-addressed digests of simulation configurations.
//!
//! A sweep cache keys each simulated point by a digest of the fully
//! resolved [`SimConfig`] plus the run window, so results are reused
//! across sweeps (and across differently-ordered spec files) exactly when
//! the simulated work is identical. The digest is computed over the
//! canonical *field list* — `(key, value)` string pairs sorted by key —
//! rather than any in-memory layout, which makes it stable under struct
//! field reordering and under spec files that list the same point in a
//! different order.

use crate::config::SimConfig;
use noc_obs::digest::{fnv1a, FNV_OFFSET};

/// Digests `(key, value)` pairs into a 32-hex-character content hash.
///
/// Pairs are sorted by key first, so callers may supply fields in any
/// order. Keys and values are framed with separator bytes that cannot
/// appear in the labels used here, so `("ab", "c")` and `("a", "bc")`
/// hash differently. Two FNV-1a passes with distinct initial states give
/// 128 bits — not cryptographic, but far beyond accidental-collision
/// range for the few thousand points a sweep holds.
pub fn digest_pairs(pairs: &[(String, String)]) -> String {
    let mut sorted: Vec<&(String, String)> = pairs.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut lo = FNV_OFFSET;
    let mut hi = fnv1a(FNV_OFFSET, b"noc-digest-hi");
    for (k, v) in sorted {
        for state in [&mut lo, &mut hi] {
            *state = fnv1a(*state, k.as_bytes());
            *state = fnv1a(*state, b"\x1f");
            *state = fnv1a(*state, v.as_bytes());
            *state = fnv1a(*state, b"\x1e");
        }
    }
    format!("{hi:016x}{lo:016x}")
}

impl SimConfig {
    /// The canonical field list identifying this configuration: every
    /// field that affects simulation output, as `(key, value)` strings.
    /// Values use the same labels the CLI and JSON reports use; floats
    /// use Rust's shortest-roundtrip formatting, so distinct rates never
    /// alias. `vca_sparse` and `payload_flits` are fixed (the sparse VC
    /// allocator, [`crate::packet::PAYLOAD_FLITS`]) but keep their pairs, so
    /// the digests of stored results stay valid.
    pub fn canonical_fields(&self) -> Vec<(String, String)> {
        let own = |s: &str| s.to_string();
        let mut fields = vec![
            (own("topology"), own(self.topology.label())),
            (own("vcs_per_class"), self.vcs_per_class.to_string()),
            (own("buf_depth"), self.buf_depth.to_string()),
            (own("vca_kind"), own(self.vca_kind.label())),
            (own("vca_sparse"), own("true")),
            (own("sa_kind"), self.sa_kind.label().to_string()),
            (own("spec_mode"), own(self.spec_mode.label())),
            (own("injection_rate"), format!("{}", self.injection_rate)),
            (own("burst"), self.burst.to_string()),
            (
                own("payload_flits"),
                crate::packet::PAYLOAD_FLITS.to_string(),
            ),
            (own("pattern"), own(self.pattern.label())),
            (own("seed"), self.seed.to_string()),
        ];
        // Only an explicit override joins the identity: the derived
        // algorithm is a function of `topology`, already digested, and
        // appending it unconditionally would invalidate every existing
        // cached result for no semantic change.
        if let Some(kind) = self.routing_override {
            fields.push((own("routing"), own(kind.label())));
        }
        fields
    }

    /// Content digest of this configuration plus the run window and a
    /// schema-version tag. Bumping the schema string invalidates every
    /// cached result at once (used when the result format or simulator
    /// semantics change).
    pub fn digest(&self, warmup: u64, measure: u64, schema: &str) -> String {
        let mut fields = self.canonical_fields();
        fields.push(("warmup".to_string(), warmup.to_string()));
        fields.push(("measure".to_string(), measure.to_string()));
        fields.push(("schema".to_string(), schema.to_string()));
        digest_pairs(&fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    fn base() -> SimConfig {
        SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
    }

    #[test]
    fn digest_is_stable_under_field_reordering() {
        let mut fields = base().canonical_fields();
        let forward = digest_pairs(&fields);
        fields.reverse();
        assert_eq!(digest_pairs(&fields), forward);
        fields.swap(0, 3);
        assert_eq!(digest_pairs(&fields), forward);
    }

    #[test]
    fn digest_separates_every_field() {
        let d0 = base().digest(3_000, 6_000, "v1");
        let variants = [
            SimConfig {
                injection_rate: 0.11,
                ..base()
            },
            SimConfig { seed: 1, ..base() },
            SimConfig {
                buf_depth: 9,
                ..base()
            },
            SimConfig {
                topology: TopologyKind::Torus8x8,
                ..base()
            },
            SimConfig {
                pattern: crate::traffic::TrafficPattern::Tornado,
                ..base()
            },
        ];
        for v in variants {
            assert_ne!(v.digest(3_000, 6_000, "v1"), d0, "{v:?}");
        }
        assert_ne!(base().digest(3_001, 6_000, "v1"), d0);
        assert_ne!(base().digest(3_000, 6_001, "v1"), d0);
    }

    /// Every cache entry, dump header and sweep journal is keyed by this
    /// construction. `vca_sparse` and `payload_flits` are literal pairs
    /// now, and dropping them (or any other change to the field list) must
    /// show here rather than orphan every stored result.
    #[test]
    fn paper_baseline_digest_is_pinned() {
        let digest = base().digest(3_000, 6_000, noc_obs::TELEMETRY_SCHEMA);
        assert_eq!(digest, "db0a982b20dc2aeb0c23045128663e20");
    }

    #[test]
    fn routing_override_separates_digests() {
        let torus = SimConfig {
            topology: TopologyKind::Torus8x8,
            ..base()
        };
        let fixture = SimConfig {
            routing_override: Some(crate::routing::RoutingKind::TorusNoDateline),
            ..torus.clone()
        };
        assert_ne!(
            fixture.digest(3_000, 6_000, "v1"),
            torus.digest(3_000, 6_000, "v1")
        );
        // No override leaves the canonical field list (and so every
        // previously cached digest) unchanged.
        assert_eq!(torus.canonical_fields().len(), 12);
        assert_eq!(fixture.canonical_fields().len(), 13);
    }

    #[test]
    fn schema_bump_invalidates_all_digests() {
        assert_ne!(
            base().digest(3_000, 6_000, "noc-sweep/v1"),
            base().digest(3_000, 6_000, "noc-sweep/v2")
        );
    }

    #[test]
    fn key_value_framing_prevents_concatenation_aliasing() {
        let a = vec![("ab".to_string(), "c".to_string())];
        let b = vec![("a".to_string(), "bc".to_string())];
        assert_ne!(digest_pairs(&a), digest_pairs(&b));
    }

    #[test]
    fn digest_is_pinned() {
        // A golden digest: any unintentional change to the canonical form
        // (field renames, float formatting, separator bytes) shows up as
        // a silent full-cache invalidation; this pin makes it loud.
        let d = base().digest(3_000, 6_000, "noc-sweep/v1");
        assert_eq!(d.len(), 32);
        assert!(d.bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
