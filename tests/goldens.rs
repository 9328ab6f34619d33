//! In-process golden replay: every registered experiment's `--quick`
//! document renders to its committed file in `data/golden/` byte for byte,
//! rebuilds to an equal document, is written by `figures --out` as those
//! same bytes, and every registered table view reads only columns its
//! document has. `ci.sh` repeats the diff through the real `figures`
//! binary; this is the copy `cargo test` runs.

use std::path::Path;
use std::sync::OnceLock;

use sevf_bench::document::Document;
use sevf_bench::experiment::{find, Experiment, REGISTRY};
use sevf_bench::Json;

type Built = (&'static Experiment, Document);

/// Builds every `--quick` document, one thread each (the runs are
/// independent and single-threaded; debug builds are slow).
fn build_all() -> Vec<Built> {
    std::thread::scope(|scope| {
        let running: Vec<_> = REGISTRY
            .iter()
            .map(|exp| (exp, scope.spawn(move || (exp.run)(true))))
            .collect();
        running
            .into_iter()
            .map(|(exp, handle)| (exp, handle.join().expect("the build panicked")))
            .collect()
    })
}

/// The first build of every document, shared by the tests below.
fn documents() -> &'static [Built] {
    static DOCS: OnceLock<Vec<Built>> = OnceLock::new();
    DOCS.get_or_init(build_all)
}

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/data/golden"))
}

#[test]
fn quick_json_is_byte_identical_to_every_golden() {
    assert_eq!(documents().len(), 22, "every figure, table and sweep");
    for (exp, doc) in documents() {
        let path = golden_dir().join(exp.file_name(true));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} has no golden at {}: {e}", exp.id, path.display()));
        // The examples print the text with `println!`.
        assert_eq!(
            format!("{}\n", doc.json_text()),
            golden,
            "{} at --quick drifted from {}",
            exp.id,
            path.display()
        );
    }
    let kept = std::fs::read_dir(golden_dir())
        .expect("data/golden")
        .count();
    assert_eq!(kept, 22, "data/golden holds one file per id and no orphan");
}

#[test]
fn figures_out_writes_the_golden_bytes() {
    let exp = find("7").expect("Fig. 7 is registered");
    let (_, doc) = documents().iter().find(|(e, _)| e.id == exp.id).unwrap();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens_out");
    exp.write(&dir, true, doc).expect("write the document");
    let written = std::fs::read_to_string(dir.join("7_quick.json")).unwrap();
    assert_eq!(written, format!("{}\n", doc.json_text()));
    let golden = std::fs::read_to_string(golden_dir().join("7_quick.json")).unwrap();
    assert_eq!(written, golden);
}

#[test]
fn quick_documents_rebuild_equal() {
    for (first, second) in documents().iter().zip(build_all()) {
        assert_eq!(first.1, second.1, "{} is not deterministic", first.0.id);
    }
}

#[test]
fn every_view_reads_columns_its_document_has() {
    for (exp, doc) in documents() {
        assert!(
            !exp.views.is_empty() || doc.sections.is_empty(),
            "{} has rows and no table",
            exp.id
        );
        for view in exp.views {
            let rows = doc
                .section(view.section)
                .unwrap_or_else(|| panic!("{}: no section '{}'", exp.id, view.section));
            let first = rows.first().expect("a quick run reports rows");
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
