//! Daemon-side parsing of `noc-serve/v1` request lines.
//!
//! The wire framing (schema tag, line builders, client-side event
//! parser) lives in `noc_obs::serve`; this module turns an incoming
//! request line into a validated [`ServeRequest`] — resolving presets by
//! name and embedded specs through the full [`SweepSpec`] grammar, so a
//! malformed request is refused with the same diagnostics `noc sweep`
//! would print.

use crate::registry::preset_spec;
use crate::sweep::spec::SweepSpec;
use noc_obs::serve::SERVE_SCHEMA;
use noc_obs::JsonValue;

/// A parsed, validated serve request.
#[derive(Debug)]
pub enum ServeRequest {
    /// Run (or fetch) every point of a sweep spec.
    Sweep {
        /// Client-chosen request id, echoed on every response line.
        id: String,
        /// The validated spec.
        spec: SweepSpec,
    },
    /// Report daemon-lifetime counters.
    Status {
        /// Client-chosen request id.
        id: String,
    },
}

impl ServeRequest {
    /// The request id (present on every variant).
    pub fn id(&self) -> &str {
        match self {
            ServeRequest::Sweep { id, .. } | ServeRequest::Status { id } => id,
        }
    }

    /// Parses one request line. Errors are client-facing: they become
    /// the `message` of an `error` response line.
    pub fn parse(line: &str) -> Result<ServeRequest, String> {
        let request = |e: String| format!("request: {e}");
        let v = JsonValue::parse(line).map_err(request)?;
        let envelope = || -> Result<(String, &str), String> {
            v.expect_schema(SERVE_SCHEMA)
                .map_err(|e| format!("{e} — client and daemon disagree"))?;
            let id = v.str_at("id")?.to_string();
            if id.len() > 64 {
                return Err("'id' longer than 64 bytes".to_string());
            }
            Ok((id, v.str_at("type")?))
        };
        let (id, kind) = envelope().map_err(request)?;
        // A spec's errors carry its own `sweep spec:` prefix, as on the CLI.
        let spec = match kind {
            "sweep" => {
                SweepSpec::from_value(v.get("spec").ok_or("request: sweep without 'spec'")?)?
            }
            "preset" => (v.str_at("preset").and_then(preset_spec)).map_err(request)?,
            "status" => return Ok(ServeRequest::Status { id }),
            other => return Err(format!("request: unknown type {other:?}")),
        };
        Ok(ServeRequest::Sweep { id, spec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_obs::serve::{
        serve_preset_request_line, serve_status_request_line, serve_sweep_request_line,
    };

    #[test]
    fn sweep_requests_parse_through_the_full_spec_grammar() {
        let line = serve_sweep_request_line(
            "c1",
            r#"{"name":"t","grids":[{"topology":"mesh","vcs":1,"rates":[0.05],"warmup":10,"measure":20}]}"#,
            None,
        );
        match ServeRequest::parse(&line).unwrap() {
            ServeRequest::Sweep { id, spec } => {
                assert_eq!(id, "c1");
                assert_eq!(spec.expand().len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn preset_and_status_requests_resolve() {
        let line = serve_preset_request_line("p", "smoke");
        match ServeRequest::parse(&line).unwrap() {
            ServeRequest::Sweep { spec, .. } => {
                assert_eq!(spec.name, "smoke");
                assert_eq!(spec.expand().len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The "engine" member earlier clients sent is not read, whatever it says.
        let old =
            r#"{"schema":"noc-serve/v1","type":"preset","id":"p","engine":7,"preset":"smoke"}"#;
        assert!(ServeRequest::parse(old).is_ok());
        assert!(matches!(
            ServeRequest::parse(&serve_status_request_line("s")).unwrap(),
            ServeRequest::Status { .. }
        ));
    }

    #[test]
    fn bad_requests_are_refused_with_client_facing_messages() {
        for (line, needle) in [
            ("not json", "request:"),
            (
                r#"{"schema":"noc-sweep/v1","type":"status","id":"x"}"#,
                "schema",
            ),
            (
                r#"{"schema":"noc-serve/v1","type":"status"}"#,
                "missing \"id\"",
            ),
            (
                r#"{"schema":"noc-serve/v1","type":"preset","id":"x","preset":"fig99"}"#,
                "unknown preset 'fig99' (available: fig13, fig14, ablation-traffic, \
                 ablation-speculation, smoke)",
            ),
            (
                r#"{"schema":"noc-serve/v1","type":"sweep","id":"x","spec":{"name":"t","grids":[{"ratess":[0.1]}]}}"#,
                "unknown grid key",
            ),
            (
                r#"{"schema":"noc-serve/v1","type":"frobnicate","id":"x"}"#,
                "unknown type",
            ),
        ] {
            let err = ServeRequest::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
