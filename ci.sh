#!/usr/bin/env bash
# Repo CI gate. Run from the repo root:
#
#   ./ci.sh          # full gate: build, tests, golden replay, lints, docs, clean tree
#   ./ci.sh quick    # fast inner loop: debug tests + one debug golden replay
#   ./ci.sh mutants  # the mutation ledger, tests/mutants.txt (not in the full gate)
#
# Re-capture every golden (only for an intended model change):
#
#   cargo run --release -p sevf-bench --bin figures -- --all --scale quick --out data/golden
#
# Everything must pass offline — the workspace has no external
# dependencies by design (see DESIGN.md §2, "External crates").
#
# Nothing here reads a wall clock. A speed claim is checked with
# `benchmark/run.sh` on both commits and `--compare` (README.md).
set -euo pipefail
cd "$(dirname "$0")"

mode=${1:-full}

# replay_gate <example> [debug] — run the example with `--quick --json` and
# byte-diff the output against data/golden/<example>_quick.json. The JSON
# arms emit only seed-derived facts, and the golden was captured by another
# process on another day, so a diff is either nondeterminism or cross-commit
# drift — a refactor or a disabled layer perturbed the RNG streams or the
# dispatch order. Re-capture a golden only for an intended model change.
replay_gate() {
  local ex=$1
  local flag=--release
  [[ "${2:-}" == debug ]] && flag=""
  echo "==> golden replay: $ex --quick --json vs data/golden/${ex}_quick.json"
  cargo run $flag --quiet --example "$ex" -- --quick --json \
    | diff - "data/golden/${ex}_quick.json"
}

# The root package is a workspace member: its integration suites run in the
# first line, so the second excludes it.
run_tests() {
  echo "==> cargo test -q (tier-1: root package)"
  cargo test -q
  echo "==> cargo test -q --workspace --exclude severifast-repro"
  cargo test -q --workspace --exclude severifast-repro
}

# mutant_one — applies the parsed ledger entry (m_file, m_find, m_replace,
# m_test, m_expect, m_why) in the copy at $tree, builds and runs its test,
# and restores the file. Every write gives the file a new mtime, so cargo
# rebuilds the crate after a mutant and again after its restore.
mutant_one() {
  local path=$tree/$m_file find=${m_find//\\n/$'\n'} replace=${m_replace//\\n/$'\n'}
  local original rest outcome start code=0
  n_mutants=$((n_mutants + 1))
  if [[ -z "$m_find" || -z "$m_test" || -z "$m_why" || ! "$m_expect" =~ ^(caught|survives)$ ]]; then
    echo "FAIL  $m_file: an entry needs find, test, why and expect caught|survives"
    bad_mutants=$((bad_mutants + 1))
    return
  fi
  if [[ ! -f "$path" ]]; then
    echo "FAIL  $m_file: no such file"
    bad_mutants=$((bad_mutants + 1))
    return
  fi
  original=$(cat "$path"; echo x)
  original=${original%x}
  rest=${original#*"$find"}
  if [[ "$rest" == "$original" || "$rest" == *"$find"* ]]; then
    echo "FAIL  $m_file: the snippet does not occur exactly once: $m_find"
    bad_mutants=$((bad_mutants + 1))
    return
  fi
  printf '%s' "${original/"$find"/"$replace"}" > "$path"
  start=$SECONDS
  # shellcheck disable=SC2086 # m_test is a list of cargo arguments
  if ! (cd "$tree" && cargo test -q --offline $m_test --no-run) > "$tree.log" 2>&1; then
    outcome="FAIL  the mutant does not build"
    bad_mutants=$((bad_mutants + 1))
  else
    # shellcheck disable=SC2086
    (cd "$tree" && timeout 900 cargo test -q --offline $m_test -- --exact) > "$tree.log" 2>&1 || code=$?
    case "$m_expect:$code" in
      caught:0) outcome="FAIL  survived"; bad_mutants=$((bad_mutants + 1)) ;;
      caught:124) outcome="ok    caught (timed out)" ;;
      caught:*) outcome="ok    caught" ;;
      survives:0) outcome="ok    survives (equivalent)" ;;
      *) outcome="FAIL  an equivalent mutant failed its test"; bad_mutants=$((bad_mutants + 1)) ;;
    esac
  fi
  printf '%s' "$original" > "$path"
  echo "$outcome  $((SECONDS - start)) s  $m_file: $m_find  [$m_test]"
  if [[ "$outcome" == FAIL* ]]; then
    tail -n 20 "$tree.log"
  fi
}

# The mutation ledger (ROADMAP item 13): each entry of tests/mutants.txt must
# be caught by its named test, or, marked `expect: survives`, pass it. The
# tree is copied to a scratch directory with its own target directory, so
# nothing is built into this checkout's target/.
run_mutants() {
  local line start=$SECONDS
  mutants_dir=$(mktemp -d)
  trap 'rm -rf "$mutants_dir"' EXIT
  tree=$mutants_dir/tree
  mkdir "$tree"
  tar -C . --exclude=./.git --exclude=./target --exclude=./benchmark/target \
    --exclude=./benchmark/out -cf - . | tar -C "$tree" -xf -
  export CARGO_TARGET_DIR=$mutants_dir/target
  shopt -u patsub_replacement 2> /dev/null || true
  n_mutants=0 bad_mutants=0
  m_file="" m_find="" m_replace="" m_test="" m_expect=caught m_why=""
  while IFS= read -r line || [[ -n "$line" ]]; do
    case "$line" in
      '#'*) ;;
      '')
        if [[ -n "$m_file" ]]; then mutant_one; fi
        m_file="" m_find="" m_replace="" m_test="" m_expect=caught m_why=""
        ;;
      'file: '*) m_file=${line#file: } ;;
      'find: '*) m_find=${line#find: } ;;
      'replace: '*) m_replace=${line#replace: } ;;
      'test: '*) m_test=${line#test: } ;;
      'expect: '*) m_expect=${line#expect: } ;;
      'why: '*) m_why=${line#why: } ;;
      *)
        echo "FAIL  tests/mutants.txt: unknown line: $line"
        bad_mutants=$((bad_mutants + 1))
        ;;
    esac
  done < tests/mutants.txt
  if [[ -n "$m_file" ]]; then mutant_one; fi
  echo "==> mutants: $n_mutants entries, $bad_mutants failed, $((SECONDS - start)) s"
  (( bad_mutants == 0 && n_mutants > 0 ))
}

if [[ "$mode" == mutants ]]; then
  run_mutants
  echo "MUTANTS OK"
  exit 0
fi

if [[ "$mode" == quick ]]; then
  run_tests
  replay_gate fleet_chaos debug
  echo "CI OK (quick)"
  exit 0
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

run_tests

# Every registered id (the paper's figures and tables, the serving sweeps)
# written by the one command that captures goldens, against data/golden/: a
# drifted file, a missing one and an orphan on either side all fail.
echo "==> golden replay: figures --all --scale quick --out vs data/golden/"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run --release --quiet -p sevf-bench --bin figures -- \
  --all --scale quick --out "$tmp" > /dev/null
diff -r "$tmp" data/golden

# One example through its real binary, so `run_example` is driven too.
replay_gate fleet_chaos

# The shared front end rejects what it does not know: a typo must not fall
# through to the paper-scale sweep.
echo "==> flag typo: fleet_chaos --qiuck must exit 2"
code=0
cargo run --release --quiet --example fleet_chaos -- --qiuck > /dev/null 2>&1 || code=$?
if [[ $code != 2 ]]; then
  echo "fleet_chaos --qiuck exited $code, expected 2"
  exit 1
fi

# The two tutorials outside the registry: no example is compiled but never run.
for ex in quickstart attestation_flow; do
  echo "==> tutorial: $ex"
  cargo run --release --quiet --example "$ex" > /dev/null
done

# The benchmark crate pins public items of every layer (benchmark/README.md,
# "Public items the benchmark pins"); building and testing it here makes a
# break fail CI instead of the next benchmark run.
echo "==> benchmark crate: cargo test --release --locked --offline"
(cd benchmark && cargo test --release --locked --offline -q)

# The size budgets: non-blank, non-comment lines before `#[cfg(test)]`, held
# to the count the last PR that moved them ended on. A PR that must grow one
# raises its ceiling in the same diff, where review sees it; a PR that
# shrinks one lowers it.
code_of() {
  for f in "$@"; do
    awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/' "$f"
  done
}
# ceiling <max> <what> <files...>
ceiling() {
  local max=$1 what=$2
  shift 2
  local lines
  lines=$(code_of "$@" | wc -l)
  echo "==> $what code lines: $lines (ceiling $max)"
  if (( lines > max )); then
    echo "$what grew past its ceiling: delete something, or raise the ceiling in this diff"
    exit 1
  fi
}
ceiling 4803 "serving-core (crates/fleet/src + crates/cluster/src)" \
  $(find crates/fleet/src crates/cluster/src -name '*.rs')
ceiling 1855 "harness (examples/*.rs + crates/bench/src)" \
  examples/*.rs $(find crates/bench/src -name '*.rs')
ceiling 4362 "boot path (crates/{mem,codec,image,verifier,vmm}/src)" \
  $(find crates/mem/src crates/codec/src crates/image/src crates/verifier/src crates/vmm/src -name '*.rs')
# The modules that play the paper's root of trust (ROADMAP item 16): the
# verifier's steps, its loaders, the hash page, the layout and the page
# tables. The ELF reader they call lives in sevf-image; the driver that calls
# the steps and overlaps the initrd digest (drive.rs) is host machinery and
# not in the list.
ceiling 445 "root of trust (crates/verifier/src/{verify,loader,hashes,layout,pagetable}.rs)" \
  crates/verifier/src/{verify,loader,hashes,layout,pagetable}.rs
ceiling 2891 "control plane (crates/{attplane,net,policy,scale,obs}/src)" \
  $(find crates/attplane/src crates/net/src crates/policy/src crates/scale/src crates/obs/src -name '*.rs')

# A public surface the system uses (ROADMAP item 20): every `pub` fn, type,
# trait, const or static in non-test crates/*/src code, looked up by name in
# the non-test code (code_of's rule) of every other file under crates/*/src,
# src/, examples/ and benchmark/src. A `pub use` re-export names an item
# without using it, so it does not count. A `pub fn` counts as used only
# where its name is called (`name(`, `name::<`) or named as a path
# (`::name`), so a field or a local of the same name does not keep a dead
# method alive; any other item counts wherever its name appears. Neither
# count is exact. A name two items share still counts as used, so a dead
# item can pass. A function passed as a value by its bare name (`.map(name)`,
# a fn-pointer field) reads as unused, so a live one can be listed; none is
# on this tree, and counting `name)` or `name,` as a use would let locals
# keep dead methods alive again. The first count is held to a ceiling like
# the code lines; an item only a test outside its file names is in it, and
# so is one only a public signature mentions.
pub_scan() {
  for f in $(find crates/*/src src examples benchmark/src -name '*.rs' | sort); do
    awk -v file="$f" '
      /^#\[cfg\(test\)\]/ { exit }
      /^[[:space:]]*(\/\/|$)/ { next }
      /^[[:space:]]*pub use / { reexport = 1 }
      {
        if (file ~ /^crates\// && match($0, /^[[:space:]]*pub (const fn|unsafe fn|fn|struct|enum|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*/)) {
          item = substr($0, RSTART, RLENGTH)
          n = split(item, w, / +/)
          kind = item ~ / fn / ? "fn" : "item"
          print kind, file ":" FNR, w[n]
        }
        if (!reexport) {
          line = $0
          while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(line, RSTART, RLENGTH)
            after = substr(line, RSTART + RLENGTH, 3)
            path = RSTART > 2 && substr(line, RSTART - 2, 2) == "::"
            called = path || after ~ /^\(/ || after == "::<"
            print (called ? "call" : "word"), file, word
            line = substr(line, RSTART + RLENGTH)
          }
        }
        if (reexport && /;/) reexport = 0
      }' "$f"
  done | awk '
    $1 == "call" { calls[$3] = calls[$3] " " $2 }
    $1 == "word" || $1 == "call" { files[$3] = files[$3] " " $2; next }
    { n++; fn[n] = $1 == "fn"; at[n] = $2; name[n] = $3 }
    END {
      for (i = 1; i <= n; i++) {
        own = at[i]; sub(/:[0-9]+$/, "", own)
        other = 0; bench = 0
        m = split(fn[i] ? calls[name[i]] : files[name[i]], u, " ")
        for (k = 1; k <= m; k++) {
          if (u[k] == own) continue
          if (u[k] ~ /^benchmark\//) bench = 1; else other = 1
        }
        if (!other) print (bench ? "benchmark-only" : "unused"), at[i], name[i]
      }
    }'
}
pub_max=72
scan=$(pub_scan)
unused=$(grep -c '^unused' <<<"$scan" || true)
bench_only=$(grep -c '^benchmark-only' <<<"$scan" || true)
echo "==> pub items with no non-test user outside their file: $unused (ceiling $pub_max)"
echo "==> pub items whose only outside user is benchmark/: $bench_only"
if (( unused > pub_max )); then
  grep '^unused' <<<"$scan"
  echo "a pub item no other file uses: delete it, or demote it to pub(crate) or private"
  exit 1
fi

# No source file over 1,000 lines (ROADMAP item 5), whole file, tests
# included. The two it still lists are exempt until they shrink; splitting a
# file to pass is not a reduction.
echo "==> .rs files under crates/ longer than 1000 lines (must be none)"
long=$(find crates -name '*.rs' ! -path crates/bench/src/experiment.rs ! -path crates/vmm/src/vmm.rs \
  -exec awk 'END { if (NR > 1000) print FILENAME ": " NR " lines" }' {} \;)
if [[ -n "$long" ]]; then
  echo "$long"
  exit 1
fi

# Component hashing lives with the component: sevf-image hashes each staged
# image once, when it builds it, and the VMM is handed digests (ISSUE 15,
# paper sec. 4.3). A hash call here would put it back on the boot path.
echo "==> sha256( calls in crates/vmm/src code (same line rule; must be 0)"
if code_of crates/vmm/src/*.rs | grep 'sha256('; then
  echo "the VMM hashes again: take the digest from the image instead"
  exit 1
fi
echo 0

# Dispatch replays the catalog's launch blueprints in place: a host takes
# `&Blueprint`, and only a faulted launch gets its own rewritten copy (from
# `apply_launch_faults`). A clone of one would put a deep copy of 20-30
# labelled steps back on the path every request takes.
echo "==> catalog blueprint clones in crates/{fleet,cluster}/src code (same line rule; must be 0)"
if code_of $(find crates/fleet/src crates/cluster/src -name '*.rs') \
  | grep -E '(cold|template_hit|warm_invoke)\.clone\(\)'; then
  echo "a dispatch clones a catalog blueprint: replay it by reference"
  exit 1
fi
echo 0

# A host's lease lives in one place: `Host::lease` holds sevf-net's
# `HostLease`, whose `renew`, `valid_at` and `park_if_lapsed` the cluster
# calls. An expiry field or a parked flag in a serving layer would be a
# second copy of the protocol, one its unit tests do not check.
echo "==> lease state outside HostLease in crates/{fleet,cluster}/src code (same line rule; must be 0)"
if code_of $(find crates/fleet/src crates/cluster/src -name '*.rs') \
  | grep -E '\blease_until\b|\bparked[[:space:]]*:'; then
  echo "a serving layer keeps its own lease state: hold a sevf_net::HostLease instead"
  exit 1
fi
echo 0

# The host counts and its parts only decide: the warm pool, the circuit
# breaker and the admission queue answer each call (hit or miss, evicted or
# kept, tripped or not, an `Offer`), the template set is a plain `HashSet` on
# `Host` (blueprint.rs held the counting cache it replaced), and `Host`
# counts each answer into its metrics where it acts on it. The autoscaler
# likewise only decides: the cluster counts each decision it applies into
# its `AutoscaleRollup`, beside the decision's obs marker. A counter field
# in one of these files would be a second copy of a count, and a state
# that differs on every path through the same decisions.
echo "==> report counters in crates/fleet/src/{pool,recovery,blueprint}.rs, crates/policy/src/wfq.rs and crates/scale/src/autoscaler.rs code (same line rule; must be 0)"
if code_of crates/fleet/src/pool.rs crates/fleet/src/recovery.rs crates/fleet/src/blueprint.rs \
  crates/policy/src/wfq.rs crates/scale/src/autoscaler.rs \
  | grep -E '^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?(hits|misses|evicted|trips|shed|max_depth|counters|ticks|scale_outs|scale_ins|prewarms)[[:space:]]*:'; then
  echo "a serving part keeps a report counter: return the answer and count it where it is acted on"
  exit 1
fi
echo 0

# A curve arrival is a warm-started search: Newton steps from one nanosecond
# below the previous arrival's root, then a gallop and a short bisection. The
# from-zero bisection it replaced spent about 50 curve evaluations per
# arrival against about 7, and stays only as the oracle in workload.rs's
# tests; a call to it here would put it back on the path every arrival takes.
echo "==> from-zero curve inversion in crates/scale/src code (same line rule; must be 0)"
if code_of $(find crates/scale/src -name '*.rs') | grep -w 'invert_cumulative'; then
  echo "the from-zero bisection is back: invert from the previous root (workload::invert_from)"
  exit 1
fi
echo 0

# The front end counts the five request-level outcomes (breaker sheds,
# timeouts, failures, rejections, retries) in its own fields; a host counts
# into its own `FleetMetrics`. A `FleetMetrics` in the front end would be a
# second metrics type whose other fields stay 0, copied out field by field.
echo "==> FleetMetrics in crates/fleet/src/front.rs code (same line rule; must be 0)"
if code_of crates/fleet/src/front.rs | grep -w 'FleetMetrics'; then
  echo "the front end holds a host's metrics record: count into Front's own fields"
  exit 1
fi
echo 0

# Utilization comes from the busy totals the DES keeps as it runs; the
# per-segment occupancy log is written only when a span recorder listens, and
# `sevf-obs` is its one reader. A read of it in a serving layer would sum a
# log an untraced run no longer has. (`RequestMix::entries` is another API.)
echo "==> occupancy-log reads in crates/{fleet,cluster}/src code (same line rule; must be 0)"
if code_of $(find crates/fleet/src crates/cluster/src -name '*.rs') \
  | grep -E '(trace\.|RunTrace::)entries\b'; then
  echo "a serving layer reads the occupancy log: use RunTrace::busy_time / utilization"
  exit 1
fi
echo 0

# The image parsers hand out slices of their input: an ELF segment or a CPIO
# entry borrows the file it was parsed from, so a boot holds each image once.
# A copy of one would put an image-sized allocation back on the boot path.
echo "==> payload copies in crates/image/src/{elf,cpio}.rs code (same line rule; must be 0)"
if code_of crates/image/src/elf.rs crates/image/src/cpio.rs | grep -E 'data.*\.to_vec\(\)'; then
  echo "an image parser copies a payload: hand out a slice of its input"
  exit 1
fi
echo 0

# The bootstrap loader places the vmlinux from the decoder's stream
# (`Codec::decompress_into`): it reads the ELF layout from the first decoded
# piece and writes each piece into its segments, and bss is zeroed in place
# (`GuestMemory::guest_zero`). A whole-vmlinux parse or a zero-filled buffer
# in the loader would put an image-sized host allocation back on the boot
# path.
echo "==> vec![0 and ElfImage::parse( in crates/vmm/src/guest_kernel.rs code (same line rule; must be 0)"
if code_of crates/vmm/src/guest_kernel.rs | grep -E 'vec!\[0|ElfImage::parse\('; then
  echo "the loader buffers a whole vmlinux or a zeroed bss: place from the decoder's pieces"
  exit 1
fi
echo 0

# The verifier's private copy of a component is `GuestMemory::copy_to_private`,
# which shares the staged pages and hands back a view of the copy; every digest
# is taken over that view. A `guest_read` in the loaders would read an
# image-sized copy back out of guest memory.
echo "==> guest_read( calls in crates/verifier/src/loader.rs code (same line rule; must be 0)"
if code_of crates/verifier/src/loader.rs | grep 'guest_read('; then
  echo "a loader reads a private copy back: hash the PageView copy_to_private returns"
  exit 1
fi
echo 0

# The fw_cfg loader reads ELF fields only through sevf-image's one reader
# (`elf::header`, `elf::load_segments`), which checks what the host-side
# parse checks, and zeroes bss in place with `GuestMemory::guest_zero`. A
# field decoded by hand here would skip those checks, and a zero-filled
# buffer would be a host allocation as large as a segment's bss.
echo "==> vec![0 and from_le_bytes in crates/verifier/src/loader.rs code (same line rule; must be 0)"
if code_of crates/verifier/src/loader.rs | grep -E 'vec!\[0|from_le_bytes'; then
  echo "the fw_cfg loader decodes or zeroes by hand: use sevf_image::elf and GuestMemory::guest_zero"
  exit 1
fi
echo 0

# The cost model is read in one place: boot code records what it did as a
# `Work`, and `CostModel::price` in crates/sim/src/cost.rs alone turns it
# into virtual time. The field names come from the struct itself.
echo "==> CostModel field reads outside crates/sim/src/cost.rs code (same line rule; must be 0)"
fields=$(awk '/^pub struct CostModel/{f=1; next} f && /^}/{exit}
  f && /^ *pub [a-z0-9_]+:/{sub(/^ *pub /, ""); sub(/:.*/, ""); print}' \
  crates/sim/src/cost.rs | paste -sd'|')
if [[ -z "$fields" ]]; then
  echo "no CostModel fields found in crates/sim/src/cost.rs"
  exit 1
fi
if code_of $(find crates/*/src -name '*.rs' ! -path crates/sim/src/cost.rs) \
  | grep -E "\.($fields)\b"; then
  echo "a CostModel field is read outside price: record the Work and price it in cost.rs"
  exit 1
fi
echo 0

# Trust in a chip has one home: the revoked set in `AmdRootRegistry`, the
# registry guest owners clone and the attestation plane asks. A second set
# (a cache's own list, say) could disagree with it.
echo "==> revoked-chip sets outside crates/psp/src/report.rs code (same line rule; must be 0)"
if code_of $(find crates/*/src -name '*.rs' ! -path crates/psp/src/report.rs) \
  | grep -E 'revoked[a-z_]*[[:space:]]*[:=][[:space:]]*([a-z_]+::)*(HashSet|BTreeSet|Vec)\b'; then
  echo "a second revoked-chip set: ask the AmdRootRegistry instead"
  exit 1
fi
echo 0

# A result is a function of the seed: nothing under crates/ reads a wall
# clock. `benchmark/` (its own workspace) is the one place that does.
echo "==> Instant/SystemTime uses in crates/*/src code (same line rule; must be 0)"
if code_of $(find crates/*/src -name '*.rs') | grep -Ew 'Instant|SystemTime'; then
  echo "a crate reads the wall clock: time it in benchmark/ instead"
  exit 1
fi
echo 0

# Host threads enter at one place: the verifier's driver takes the initrd's
# digest on a scoped thread while the kernel is checked and the bootstrap
# loader runs. A run stays a function of its seed because a thread computes
# only a pure digest and never touches the DES, the RNG or a `Recorder`.
echo "==> thread:: uses in crates/*/src code outside crates/verifier/src/drive.rs (same line rule; must be 0)"
if code_of $(find crates/*/src -name '*.rs' ! -path crates/verifier/src/drive.rs) \
  | grep 'thread::'; then
  echo "a thread outside the verifier's driver: host threads may only compute pure digests in drive.rs"
  exit 1
fi
echo 0

# The root of trust is the verifier's steps alone, single-threaded as in the
# paper: the thread, its stop flag and the panic re-raise that overlap the
# initrd digest in host wall time belong to the driver (drive.rs).
echo "==> thread::, Atomic and resume_unwind in the root-of-trust files' code (same line rule; must be 0)"
if code_of crates/verifier/src/{verify,loader,hashes,layout,pagetable}.rs \
  | grep -E 'thread::|Atomic|resume_unwind'; then
  echo "host machinery in the root of trust: move it to the driver, crates/verifier/src/drive.rs"
  exit 1
fi
echo 0

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Docs name items by intra-doc link; a deleted or renamed item must fail
# here, not leave a dangling link.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The gate writes no result file: whatever it left behind is a bug here or a
# missing .gitignore line.
echo "==> clean tree: git status --porcelain prints nothing"
if [[ -n "$(git status --porcelain)" ]]; then
  git status --porcelain
  echo "ci.sh left the tree dirty"
  exit 1
fi

echo "CI OK"
