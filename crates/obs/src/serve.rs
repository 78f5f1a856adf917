//! The `noc-serve/v1` wire schema — sweep-as-a-service requests,
//! per-point progress/result lines, and end-of-request summaries.
//!
//! One TCP connection carries one request: the client sends a single
//! JSON line, the daemon answers with a JSONL stream. Every line on the
//! wire is tagged with the schema so a mismatched client fails loudly,
//! and every response line carries the request's `id` so logs from
//! concurrent clients interleave unambiguously.
//!
//! Request line (`type` selects the kind):
//!
//! ```json
//! {"schema":"noc-serve/v1","type":"sweep","id":"c1","spec":{...sweep spec...}}
//! {"schema":"noc-serve/v1","type":"preset","id":"c2","preset":"smoke"}
//! {"schema":"noc-serve/v1","type":"status","id":"c3"}
//! ```
//!
//! The envelope does not refuse members it does not know, so the
//! `"engine"` member clients of earlier revisions sent is accepted and
//! ignored. The sweep spec grammar itself is owned by
//! `noc_bench::sweep::SweepSpec` — this module only frames it.
//!
//! Response stream:
//!
//! ```json
//! {"schema":"noc-serve/v1","type":"accepted","id":"c1","total":4,"unique":3}
//! {"schema":"noc-serve/v1","type":"result","id":"c1","digest":"…","label":"…",
//!  "source":"computed","wall_ms":12,"result":{…SimResult…}}
//! {"schema":"noc-serve/v1","type":"done","id":"c1","unique":3,"total":4,
//!  "scheduled":2,"cache_hits":0,"coalesced":1,"wall_ms":40}
//! {"schema":"noc-serve/v1","type":"error","id":"c1","message":"…"}
//! ```
//!
//! `source` on a result line records how the daemon satisfied the point
//! globally: `computed` (simulated for this request), `cache` (already
//! in the content-addressed store) — a point another in-flight request
//! was already computing arrives as that worker's `computed` line. The
//! per-client split lives in the `done` line: `scheduled` points this
//! request put on the worker queue, `cache_hits` served immediately,
//! `coalesced` de-duplicated onto another client's in-flight work.

use crate::json::{JsonValue, JsonWriter, Raw};

/// Wire schema tag carried by every request and response line.
pub const SERVE_SCHEMA: &str = "noc-serve/v1";

/// One line of the given type: the schema tag, the type and the request
/// id, then the type's own `members`.
fn line(kind: &str, id: &str, members: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::default();
    w.begin_object()
        .field("schema", SERVE_SCHEMA)
        .field("type", kind)
        .field("id", id);
    members(&mut w);
    w.end_object();
    w.finish()
}

/// A `sweep` request line embedding an already-validated sweep-spec JSON
/// document (the caller must pass well-formed JSON; it is embedded raw).
/// Newlines in the document are collapsed to spaces — the wire is
/// line-framed, and JSON strings cannot contain literal newlines, so the
/// collapse never alters content. The third parameter is retired and
/// unread: `benchmark/` compiles against it, deleted by ROADMAP 3(c).
pub fn serve_sweep_request_line(id: &str, spec_json: &str, _: Option<&str>) -> String {
    let spec = spec_json.replace(['\n', '\r'], " ");
    line("sweep", id, |w| {
        w.field("spec", Raw(spec.trim()));
    })
}

/// A `preset` request line naming an in-repo sweep preset.
pub fn serve_preset_request_line(id: &str, preset: &str) -> String {
    line("preset", id, |w| {
        w.field("preset", preset);
    })
}

/// A `status` request line (daemon-lifetime counters, no simulation).
pub fn serve_status_request_line(id: &str) -> String {
    line("status", id, |_| {})
}

/// The `accepted` response: the request parsed and expanded to `total`
/// points (`unique` after in-request digest dedup).
pub fn serve_accepted_line(id: &str, total: usize, unique: usize) -> String {
    line("accepted", id, |w| {
        w.field("total", total).field("unique", unique);
    })
}

/// One per-point `result` response line. `result_json` must be the
/// point's `SimResult` JSON document (embedded raw).
pub fn serve_result_line(
    id: &str,
    digest: &str,
    label: &str,
    source: &str,
    wall_ms: u64,
    result_json: &str,
) -> String {
    line("result", id, |w| {
        w.field("digest", digest)
            .field("label", label)
            .field("source", source)
            .field("wall_ms", wall_ms)
            .field("result", Raw(result_json));
    })
}

/// The terminal `done` response line for a request.
pub fn serve_done_line(
    id: &str,
    unique: usize,
    total: usize,
    scheduled: usize,
    cache_hits: usize,
    coalesced: usize,
    wall_ms: u64,
) -> String {
    line("done", id, |w| {
        w.field("unique", unique)
            .field("total", total)
            .field("scheduled", scheduled)
            .field("cache_hits", cache_hits)
            .field("coalesced", coalesced)
            .field("wall_ms", wall_ms);
    })
}

/// The `status` response line: daemon-lifetime counters.
pub fn serve_status_line(
    id: &str,
    computed: usize,
    cache_hits: usize,
    coalesced: usize,
    inflight: usize,
    clients: usize,
) -> String {
    line("status", id, |w| {
        w.field("computed", computed)
            .field("cache_hits", cache_hits)
            .field("coalesced", coalesced)
            .field("inflight", inflight)
            .field("clients", clients);
    })
}

/// An `error` response line; the connection closes after it.
pub fn serve_error_line(id: &str, message: &str) -> String {
    line("error", id, |w| {
        w.field("message", message);
    })
}

/// A parsed `noc-serve/v1` response line, as a client sees it.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeEvent {
    /// Request accepted and expanded.
    Accepted {
        /// Request id (echoed).
        id: String,
        /// Points before in-request dedup.
        total: usize,
        /// Unique digests the stream will deliver.
        unique: usize,
    },
    /// One completed point.
    Result {
        /// Request id (echoed).
        id: String,
        /// The point's content digest.
        digest: String,
        /// Human-readable point label.
        label: String,
        /// How the daemon satisfied the point (`computed` / `cache`).
        source: String,
        /// Wall-clock of the satisfying action, in milliseconds.
        wall_ms: u64,
        /// The `SimResult` JSON document, unparsed.
        result_json: String,
    },
    /// Request complete; the stream ends after this line.
    Done {
        /// Request id (echoed).
        id: String,
        /// Unique digests delivered.
        unique: usize,
        /// Points before in-request dedup.
        total: usize,
        /// Points this request scheduled on the worker pool.
        scheduled: usize,
        /// Points served straight from the cache.
        cache_hits: usize,
        /// Points de-duplicated onto another request's in-flight work.
        coalesced: usize,
        /// Wall-clock for the whole request, in milliseconds.
        wall_ms: u64,
    },
    /// Daemon-lifetime counters (answer to a `status` request).
    Status {
        /// Request id (echoed).
        id: String,
        /// Points simulated since the daemon started.
        computed: usize,
        /// Points served from cache since the daemon started.
        cache_hits: usize,
        /// Subscriptions coalesced onto in-flight work.
        coalesced: usize,
        /// Digests currently being computed or queued.
        inflight: usize,
        /// Requests accepted since the daemon started.
        clients: usize,
    },
    /// The request failed; the stream ends after this line.
    Error {
        /// Request id (echoed, possibly empty if parsing failed early).
        id: String,
        /// What went wrong.
        message: String,
    },
}

impl ServeEvent {
    /// Parses one response line. The `result` member of a `result` line
    /// is returned as raw JSON text (sliced out of `line`), so clients
    /// that only count points never pay to parse simulation results.
    pub fn parse(line: &str) -> Result<ServeEvent, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("serve response: {e}"))?;
        // A client reads what it is sent: a member it does not find counts
        // as empty or zero, one of the wrong type is an error.
        let count = |key: &str| -> Result<usize, String> {
            Ok(v.opt_at(key, JsonValue::to_usize)?.unwrap_or(0))
        };
        let wall_ms =
            || -> Result<u64, String> { Ok(v.opt_at("wall_ms", JsonValue::to_u64)?.unwrap_or(0)) };
        let read = || -> Result<ServeEvent, String> {
            v.expect_schema(SERVE_SCHEMA)?;
            let id = v.text_at("id")?;
            Ok(match v.str_at("type")? {
                "accepted" => ServeEvent::Accepted {
                    id,
                    total: count("total")?,
                    unique: count("unique")?,
                },
                "result" => ServeEvent::Result {
                    id,
                    digest: v.text_at("digest")?,
                    label: v.text_at("label")?,
                    source: v.text_at("source")?,
                    wall_ms: wall_ms()?,
                    result_json: (JsonValue::raw_last_member(line, "result"))
                        .unwrap_or("null")
                        .to_string(),
                },
                "done" => ServeEvent::Done {
                    id,
                    unique: count("unique")?,
                    total: count("total")?,
                    scheduled: count("scheduled")?,
                    cache_hits: count("cache_hits")?,
                    coalesced: count("coalesced")?,
                    wall_ms: wall_ms()?,
                },
                "status" => ServeEvent::Status {
                    id,
                    computed: count("computed")?,
                    cache_hits: count("cache_hits")?,
                    coalesced: count("coalesced")?,
                    inflight: count("inflight")?,
                    clients: count("clients")?,
                },
                "error" => ServeEvent::Error {
                    id,
                    message: v.text_at("message")?,
                },
                other => return Err(format!("unknown type {other:?}")),
            })
        };
        read().map_err(|e| format!("serve response: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    #[test]
    fn every_line_builder_emits_valid_json() {
        for line in [
            serve_sweep_request_line("a", r#"{"name":"t","grids":[{}]}"#, None),
            serve_preset_request_line("b", "smoke"),
            serve_status_request_line("c"),
            serve_accepted_line("a", 4, 3),
            serve_result_line("a", "d1", "mesh \"x\"", "computed", 12, "{\"x\":1}"),
            serve_done_line("a", 3, 4, 2, 0, 1, 40),
            serve_status_line("c", 7, 2, 1, 0, 3),
            serve_error_line("", "bad\nrequest"),
        ] {
            validate_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn response_lines_round_trip_through_the_event_parser() {
        let r = ServeEvent::parse(&serve_result_line(
            "c1",
            "abcd",
            "mesh r=0.05",
            "cache",
            3,
            "{\"avg_latency\":12.5}",
        ))
        .unwrap();
        assert_eq!(
            r,
            ServeEvent::Result {
                id: "c1".into(),
                digest: "abcd".into(),
                label: "mesh r=0.05".into(),
                source: "cache".into(),
                wall_ms: 3,
                result_json: "{\"avg_latency\":12.5}".into(),
            }
        );
        let d = ServeEvent::parse(&serve_done_line("c1", 3, 4, 2, 0, 1, 40)).unwrap();
        assert_eq!(
            d,
            ServeEvent::Done {
                id: "c1".into(),
                unique: 3,
                total: 4,
                scheduled: 2,
                cache_hits: 0,
                coalesced: 1,
                wall_ms: 40,
            }
        );
        assert!(matches!(
            ServeEvent::parse(&serve_accepted_line("x", 2, 2)).unwrap(),
            ServeEvent::Accepted {
                total: 2,
                unique: 2,
                ..
            }
        ));
        assert!(matches!(
            ServeEvent::parse(&serve_status_line("s", 6, 0, 0, 0, 4)).unwrap(),
            ServeEvent::Status {
                computed: 6,
                clients: 4,
                ..
            }
        ));
    }

    #[test]
    fn wrong_schema_and_unknown_types_are_rejected() {
        assert!(ServeEvent::parse("{\"schema\":\"noc-telemetry/v1\",\"type\":\"done\"}").is_err());
        assert!(
            ServeEvent::parse("{\"schema\":\"noc-serve/v1\",\"type\":\"frobnicate\"}").is_err()
        );
        assert!(ServeEvent::parse("not json").is_err());
    }

    #[test]
    fn result_json_is_sliced_out_verbatim() {
        // The embedded result may itself contain a "result" key deeper
        // inside; the slice starts at the envelope's member, which is
        // always the last member of the line by construction.
        let line = serve_result_line("i", "d", "l", "computed", 1, "{\"nested\":{\"result\":0}}");
        match ServeEvent::parse(&line).unwrap() {
            ServeEvent::Result { result_json, .. } => {
                assert_eq!(result_json, "{\"nested\":{\"result\":0}}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
