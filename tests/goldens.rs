//! In-process golden replay: every experiment's `--quick` document renders
//! to the committed `data/golden/<example>_quick.json` byte for byte,
//! rebuilds to an equal document, and every registered table view reads
//! only columns its document has. `ci.sh` repeats the diff through the
//! real example binaries; this is the copy `cargo test` runs.

use std::sync::OnceLock;

use sevf_bench::document::Document;
use sevf_bench::experiment::{trace_document, REGISTRY};
use sevf_bench::perf::run_checked;
use sevf_bench::Json;
use sevf_cluster::tracedemo::scenarios;

type Build = fn(bool) -> Document;

fn trace(quick: bool) -> Document {
    trace_document(&scenarios(quick).expect("trace scenarios"))
}

fn perf(quick: bool) -> Document {
    run_checked(quick).document()
}

/// `(example, builder)` for the registry plus the two examples that keep
/// their own text output but share the document renderer.
fn builders() -> Vec<(&'static str, Build)> {
    let registered = REGISTRY.iter().map(|e| (e.example, e.run));
    let own_text = [
        ("trace_explorer", trace as Build),
        ("perf_sweep", perf as Build),
    ];
    registered.chain(own_text).collect()
}

/// Builds every `--quick` document, one thread each (the sweeps are
/// independent and single-threaded; debug builds are slow).
fn build_all() -> Vec<(&'static str, Document)> {
    std::thread::scope(|scope| {
        let running: Vec<_> = builders()
            .into_iter()
            .map(|(example, build)| (example, scope.spawn(move || build(true))))
            .collect();
        running
            .into_iter()
            .map(|(example, handle)| (example, handle.join().expect("the build panicked")))
            .collect()
    })
}

/// The first build of every document, shared by the tests below.
fn documents() -> &'static [(&'static str, Document)] {
    static DOCS: OnceLock<Vec<(&'static str, Document)>> = OnceLock::new();
    DOCS.get_or_init(build_all)
}

#[test]
fn quick_json_is_byte_identical_to_every_golden() {
    assert_eq!(documents().len(), 9, "every `--json` example is built");
    for (example, doc) in documents() {
        let path = format!(
            "{}/data/golden/{example}_quick.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{example} has no golden at {path}: {e}"));
        // The examples print the text with `println!`.
        assert_eq!(
            format!("{}\n", doc.json_text()),
            golden,
            "{example} --quick --json drifted from {path}"
        );
    }
}

#[test]
fn quick_documents_rebuild_equal() {
    for (first, second) in documents().iter().zip(build_all()) {
        assert_eq!(first, &second, "{} is not deterministic", first.0);
    }
}

#[test]
fn every_view_reads_columns_its_document_has() {
    for exp in REGISTRY {
        let (_, doc) = documents()
            .iter()
            .find(|(example, _)| *example == exp.example)
            .expect("every registry entry is built");
        assert!(!exp.views.is_empty(), "{} has no table", exp.id);
        for view in exp.views {
            let rows = doc
                .section(view.section)
                .unwrap_or_else(|| panic!("{}: no section '{}'", exp.id, view.section));
            let first = rows.first().expect("a quick sweep reports rows");
            let read = view.cols.iter().flat_map(|(_, from, _)| from.iter());
            for column in read.chain(view.group_by.iter()) {
                let has =
                    matches!(first, Json::Obj(pairs) if pairs.iter().any(|(k, _)| k == column));
                assert!(
                    has,
                    "{}: view reads '{column}', which section '{}' lacks",
                    exp.id, view.section
                );
            }
        }
    }
}
