//! The JSON codec against adversarial input and against the documents the
//! parent commit wrote (`tests/fixtures/fb41316/`, produced by that
//! commit's `noc` binary): every reader either refuses a damaged document
//! or reads exactly what it would write back, and every fixture decodes and
//! re-encodes byte for byte — so `results/cache` directories, journals and
//! dumps survive the codec change without a schema bump.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc_bench::sweep::journal::{JournalHeader, JournalRecord};
use noc_bench::sweep::serve::ServeRequest;
use noc_bench::sweep::{ResultCache, SweepSpec};
use noc_obs::{
    serve_accepted_line, serve_done_line, serve_error_line, serve_result_line, serve_status_line,
    sweep_manifest_json, AnatomyDump, JsonValue, JsonWriter, ServeEvent, SweepManifestPoint,
    TelemetryDump, TelemetrySummary, ToJson,
};
use noc_sim::SimResult;
use proptest::prelude::*;

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/fb41316/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The canonical text of a tree: what the writer prints for it.
fn text(v: &JsonValue) -> String {
    fn write(v: &JsonValue, w: &mut JsonWriter) {
        match v {
            JsonValue::Null => w.value(None::<u64>),
            JsonValue::Bool(b) => w.value(*b),
            JsonValue::Num(n) => w.value(*n),
            JsonValue::Str(s) => w.value(s),
            JsonValue::Arr(items) => {
                w.begin_array();
                items.iter().for_each(|i| write(i, w));
                w.end_array()
            }
            JsonValue::Obj(members) => {
                w.begin_object();
                for (k, m) in members {
                    write(m, w.key(k));
                }
                w.end_object()
            }
        };
    }
    let mut w = JsonWriter::default();
    write(v, &mut w);
    w.finish()
}

/// Every tree that differs from `v` in one node: the node deleted, retyped,
/// or replaced by each number an integer reader must refuse. The string
/// says what was done, ending in the member name for a deleted member.
fn mutants(v: &JsonValue) -> Vec<(String, JsonValue)> {
    let mut out = Vec::new();
    let (len, is_obj) = match v {
        JsonValue::Arr(items) => (items.len(), false),
        JsonValue::Obj(members) => (members.len(), true),
        _ => return out,
    };
    for i in 0..len {
        let (name, child) = match v {
            JsonValue::Obj(members) => (members[i].0.clone(), &members[i].1),
            JsonValue::Arr(items) => (format!("[{i}]"), &items[i]),
            _ => unreachable!(),
        };
        let with = |new: Option<JsonValue>| {
            let mut copy = v.clone();
            match (&mut copy, new) {
                (JsonValue::Obj(m), Some(new)) => m[i].1 = new,
                (JsonValue::Obj(m), None) => drop(m.remove(i)),
                (JsonValue::Arr(a), Some(new)) => a[i] = new,
                (JsonValue::Arr(a), None) => drop(a.remove(i)),
                _ => unreachable!(),
            }
            copy
        };
        out.push((format!("delete {name}"), with(None)));
        let retyped = match child {
            JsonValue::Str(_) => JsonValue::Num(7.0),
            _ => JsonValue::Str("x".into()),
        };
        out.push((format!("{name} retyped"), with(Some(retyped))));
        for bad in [-1.0, 0.5, 1e300, 9_007_199_254_740_994.0] {
            out.push((format!("{name} = {bad}"), with(Some(JsonValue::Num(bad)))));
        }
        for (what, m) in mutants(child) {
            let what = if is_obj {
                what
            } else {
                format!("{name} {what}")
            };
            out.push((what, with(Some(m))));
        }
    }
    out
}

/// The reader property, over every one-node mutant of every line of `doc`:
/// `recode` (decode, then encode) errors or returns the bytes it was given.
/// Deleting a member named in `optional` may also succeed with the default
/// written back; `derived` members are written from the others, never read.
fn check_reader(
    doc: &str,
    optional: &[&str],
    derived: &[&str],
    recode: impl Fn(&str) -> Result<String, String>,
) {
    let strip = |s: &str| match JsonValue::parse(s).unwrap() {
        JsonValue::Obj(mut m) if !derived.is_empty() => {
            m.retain(|(k, _)| !derived.contains(&k.as_str()));
            text(&JsonValue::Obj(m))
        }
        _ => s.to_string(),
    };
    assert_eq!(recode(doc).as_deref(), Ok(doc), "the document itself");
    let lines: Vec<&str> = doc.lines().collect();
    let mut refused = 0;
    for (n, line) in lines.iter().enumerate() {
        let tree = JsonValue::parse(line).unwrap();
        assert_eq!(&text(&tree), line, "fixture line {n} is canonical");
        for (what, mutant) in mutants(&tree) {
            let mut doc: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            doc[n] = text(&mutant);
            let doc = doc.join("\n") + if lines.len() > 1 { "\n" } else { "" };
            let deleted = what.strip_prefix("delete ");
            match recode(&doc) {
                Err(_) => refused += 1,
                Ok(_) if deleted.is_some_and(|m| optional.contains(&m)) => {}
                Ok(back) => {
                    let (back, doc) = (back.lines().map(strip), doc.lines().map(strip));
                    assert!(back.eq(doc), "line {n}: {what} was read as something else");
                }
            }
        }
    }
    assert!(refused > 0, "no mutant was refused");
}

fn recode_event(line: &str) -> Result<String, String> {
    Ok(match ServeEvent::parse(line)? {
        ServeEvent::Accepted { id, total, unique } => serve_accepted_line(&id, total, unique),
        ServeEvent::Result {
            id,
            digest,
            label,
            source,
            wall_ms,
            result_json,
        } => serve_result_line(&id, &digest, &label, &source, wall_ms, &result_json),
        ServeEvent::Done {
            id,
            unique,
            total,
            scheduled,
            cache_hits,
            coalesced,
            wall_ms,
        } => serve_done_line(
            &id, unique, total, scheduled, cache_hits, coalesced, wall_ms,
        ),
        ServeEvent::Status {
            id,
            computed,
            cache_hits,
            coalesced,
            inflight,
            clients,
        } => serve_status_line(&id, computed, cache_hits, coalesced, inflight, clients),
        ServeEvent::Error { id, message } => serve_error_line(&id, &message),
    })
}

fn recode_journal(doc: &str) -> Result<String, String> {
    let mut lines = doc.lines();
    let header = JournalHeader::parse(lines.next().ok_or("empty")?)?;
    let mut out = header.to_json() + "\n";
    for line in lines {
        out += &(JournalRecord::parse(line)?.to_json() + "\n");
    }
    Ok(out)
}

/// The cache entry with the parent-written `telemetry` block of the
/// recorded run spliced in, so the summary's members are covered too.
fn full_record_with_telemetry() -> String {
    let recorded = JsonValue::parse(&fixture("result_recorded.json")).unwrap();
    let block = recorded.get("telemetry").unwrap().clone();
    let JsonValue::Obj(mut members) = JsonValue::parse(&fixture("cache_entry.json")).unwrap()
    else {
        panic!("cache entry is an object");
    };
    let at = members
        .iter()
        .position(|(k, _)| k == "percentiles")
        .unwrap();
    members.insert(at, ("telemetry".into(), block));
    text(&JsonValue::Obj(members))
}

#[test]
fn parent_commit_fixtures_reencode_byte_for_byte() {
    let entry = fixture("cache_entry.json");
    assert_eq!(SimResult::from_json(&entry).unwrap().to_json_full(), entry);

    // `noc replay` of the parent's dump is the parent's in-process block.
    let dump = TelemetryDump::parse(&fixture("telemetry.jsonl")).unwrap();
    assert_eq!(dump.windows.len(), 3);
    let mut redump = dump.header.to_json() + "\n";
    for w in &dump.windows {
        redump += &(w.to_json() + "\n");
    }
    assert_eq!(redump, fixture("telemetry.jsonl"));
    let recorded = fixture("result_recorded.json");
    let block = JsonValue::parse(&recorded).unwrap();
    let block = TelemetrySummary::from_value(block.get("telemetry").unwrap()).unwrap();
    assert_eq!(block.to_json(), dump.summary().to_json());
    assert!(recorded.contains(&block.to_json()));

    let anatomy = fixture("anatomy.jsonl");
    let dump = AnatomyDump::parse(&anatomy).unwrap();
    assert_eq!((dump.records.len(), dump.slow.len()), (3, 1));
    assert_eq!(dump.to_jsonl(), anatomy);

    let serve = fixture("serve.jsonl");
    let lines: Vec<&str> = serve.lines().collect();
    for request in &lines[..3] {
        ServeRequest::parse(request).unwrap();
    }
    for response in &lines[3..] {
        assert_eq!(recode_event(response).as_deref(), Ok(*response));
    }

    let journal = fixture("sweep.journal");
    assert_eq!(recode_journal(&journal).as_deref(), Ok(journal.as_str()));

    // No production reader takes a manifest; read it here, write it back.
    let manifest = fixture("manifest.json");
    let m = JsonValue::parse(manifest.trim_end()).unwrap();
    let points = m.list_at("results", |p| {
        Ok(SweepManifestPoint {
            label: p.str_at("label")?.to_string(),
            digest: p.str_at("digest")?.to_string(),
            source: "computed",
            wall_ms: p.u64_at("wall_ms")?,
            telemetry: p.opt_at("telemetry", |t| t.to_str().map(String::from))?,
            anatomy: p.opt_at("anatomy", |t| t.to_str().map(String::from))?,
        })
    });
    let again = sweep_manifest_json(
        m.str_at("name").unwrap(),
        m.str_at("sweep_schema").unwrap(),
        m.str_at("spec_digest").unwrap(),
        m.usize_at("computed").unwrap(),
        m.usize_at("cache_hits").unwrap(),
        m.usize_at("journal_skips").unwrap(),
        m.u64_at("wall_ms").unwrap(),
        &points.unwrap(),
    );
    assert_eq!(again, manifest.trim_end());
}

#[test]
fn every_reader_refuses_a_damaged_document_or_reads_it_exactly() {
    check_reader(
        &full_record_with_telemetry(),
        &["warmup_detected"],
        &[
            "percentiles",
            "max_router_throughput",
            "min_router_throughput",
        ],
        |s| Ok(SimResult::from_json(s)?.to_json_full()),
    );
    check_reader(&fixture("telemetry.jsonl"), &["label"], &[], |s| {
        let dump = TelemetryDump::parse(s)?;
        let mut w = JsonWriter::default();
        w.value(&dump.header).newline();
        for window in &dump.windows {
            w.value(window).newline();
        }
        Ok(w.finish())
    });
    check_reader(&fixture("anatomy.jsonl"), &["label"], &[], |s| {
        Ok(AnatomyDump::parse(s)?.to_jsonl())
    });
    check_reader(&fixture("sweep.journal"), &[], &[], recode_journal);
    // A client reads what it is sent: every member but the tag is optional.
    let optional = "id total unique digest label source wall_ms result scheduled cache_hits \
                    coalesced computed inflight clients message";
    let optional: Vec<&str> = optional.split(' ').collect();
    for response in fixture("serve.jsonl").lines().skip(3) {
        check_reader(response, &optional, &[], recode_event);
    }
}

/// Specs and requests have no encoder; a damaged one must be an error or a
/// valid spec, and an integer member must refuse what a cast would bend.
#[test]
fn specs_and_requests_name_the_integer_member_they_refuse() {
    let spec = r#"{"name":"t","grids":[{"topology":"mesh","vcs":[1,2],"buf_depth":8,"burst":1,"rates":[0.05],"seeds":[1,2],"warmup":100,"measure":200,"engine":"seq"}]}"#;
    let request = noc_obs::serve_sweep_request_line("c", spec, None);
    for (what, mutant) in mutants(&JsonValue::parse(&request).unwrap()) {
        let refused = ServeRequest::parse(&text(&mutant)).err();
        let spec_refused = SweepSpec::from_value(mutant.get("spec").unwrap_or(&mutant)).err();
        let Some((member, _)) = what.split_once(" = ") else {
            continue;
        };
        let member = member.split(' ').next().unwrap();
        let ints = "vcs buf_depth burst seeds warmup measure";
        if ints.split(' ').any(|int| int == member) {
            for e in [refused, spec_refused] {
                let e = e.unwrap_or_else(|| panic!("{what} was accepted"));
                assert!(e.starts_with("sweep spec: grids[0]: "), "{what}: {e}");
                assert!(e.contains(&format!("{member}: ")), "{what}: {e}");
            }
        }
    }
}

#[test]
fn integer_members_are_refused_by_name_and_a_corrupt_cache_entry_is_a_miss() {
    let entry = fixture("cache_entry.json");
    let dir = std::env::temp_dir().join(format!("noc-codec-{}", std::process::id()));
    let cache = ResultCache::new(&dir).unwrap();
    let digest = "0".repeat(32);
    for bad in ["-3", "1.5", "1e300", "9007199254740994"] {
        let corrupt = entry.replace("\"seeds\":1,", &format!("\"seeds\":{bad},"));
        let e = SimResult::from_json(&corrupt).unwrap_err();
        assert!(e.starts_with("seeds: expected an integer"), "{e}");
        std::fs::write(cache.path(&digest), &corrupt).unwrap();
        assert!(cache.load(&digest).is_none(), "seeds {bad} read as a hit");
        assert!(!cache.contains_valid(&digest));

        let telemetry =
            fixture("telemetry.jsonl").replace("\"window\":100", &format!("\"window\":{bad}"));
        let e = TelemetryDump::parse(&telemetry).unwrap_err();
        assert!(e.starts_with("telemetry header: window: "), "{e}");
        let anatomy =
            fixture("anatomy.jsonl").replace("\"dropped\":375", &format!("\"dropped\":{bad}"));
        let e = AnatomyDump::parse(&anatomy).unwrap_err();
        assert!(e.starts_with("anatomy totals: dropped: "), "{e}");
        let done = serve_done_line("c", 1, 1, 1, 0, 0, 5)
            .replace("\"wall_ms\":5", &format!("\"wall_ms\":{bad}"));
        let e = ServeEvent::parse(&done).unwrap_err();
        assert!(e.starts_with("serve response: wall_ms: "), "{e}");
        let record =
            format!("{{\"digest\":\"d\",\"label\":\"l\",\"source\":\"cache\",\"wall_ms\":{bad}}}");
        let e = JournalRecord::parse(&record).unwrap_err();
        assert!(e.starts_with("wall_ms: "), "{e}");
    }
    // Storing the recomputed result heals the entry.
    cache
        .store(&digest, &SimResult::from_json(&entry).unwrap())
        .unwrap();
    assert_eq!(std::fs::read_to_string(cache.path(&digest)).unwrap(), entry);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A document nested 100,000 deep is an error wherever a document can
/// enter — on a test thread's 2 MiB stack, the size of a `noc serve`
/// connection handler's.
#[test]
fn a_100_000_deep_document_is_an_error_at_every_entrance() {
    let deep = "[".repeat(100_000);
    let nested = |head: &str| format!("{head}{deep}");
    assert!(JsonValue::parse(&deep)
        .unwrap_err()
        .contains("nesting deeper than 128"));
    assert!(SimResult::from_json(&nested("{\"hist\":")).is_err());
    assert!(TelemetryDump::parse(&deep).is_err());
    assert!(AnatomyDump::parse(&nested(&(fixture("anatomy.jsonl") + "{\"pkt\":"))).is_err());
    assert!(ServeEvent::parse(&deep).is_err());
    assert!(ServeRequest::parse(&nested("{\"schema\":\"noc-serve/v1\",\"spec\":")).is_err());
    assert!(SweepSpec::from_json(&nested("{\"name\":\"t\",\"grids\":")).is_err());
    assert!(JournalHeader::parse(&deep).is_err() && JournalRecord::parse(&deep).is_err());
    let dir = std::env::temp_dir().join(format!("noc-codec-deep-{}", std::process::id()));
    let cache = ResultCache::new(&dir).unwrap();
    std::fs::write(cache.path(&"0".repeat(32)), &deep).unwrap();
    assert!(cache.load(&"0".repeat(32)).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    // Arbitrary bytes, and bytes drawn from JSON's own alphabet (which get
    // much further into the grammar), never panic the reader; whatever it
    // accepts, the writer prints back as a document that reads the same.
    #[test]
    fn parse_never_panics_and_accepted_documents_round_trip(
        raw in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
        picks in proptest::collection::vec(0usize..24, 0..64),
    ) {
        const ALPHABET: [&str; 24] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "a", "u00e9", "n", "null", "true", "false",
            "-", "0", "1", "9", ".", "e", "E", "+", " ", "\n",
        ];
        let grammar: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        for doc in [String::from_utf8_lossy(&raw).into_owned(), grammar] {
            if let Ok(v) = JsonValue::parse(&doc) {
                prop_assert_eq!(JsonValue::parse(&text(&v)), Ok(v), "{:?}", doc);
            }
        }
    }
}
