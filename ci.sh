#!/bin/sh
# CI gate: gofmt and vet, plus the whole test suite under the race detector. The
# service's concurrent jobs (TestConcurrentJobsMatchSerial), optimizer
# runs side by side (TestShardedResultIdentical) and the benchmark
# harness's parallel cells are only trustworthy raced, so -race is not
# optional here. Short mode (the default) trims the end-to-end
# determinism suite to its two fastest benchmark programs; run
# `./ci.sh -full` for the complete matrix. After the tests, the pad daemon is exercised for
# real: serve on an ephemeral port, submit a benchmark over HTTP, and
# require the report to match the edgar CLI byte-for-byte.
set -eu
cd "$(dirname "$0")"

# Formatting. gofmt walks directories, not modules, so this one check
# covers perfbench/ too.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "ci.sh: files not gofmt-clean:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
if [ "${1:-}" = "-full" ]; then
	go test -race -count=1 ./...
else
	go test -race -count=1 -short ./...
fi

# perfbench is a separate module, so ./... above never compiles it. Vet
# and test it here so that a change to an API it uses fails CI, not the
# benchmark run. (go build ./... would leave a binary in perfbench/.)
(cd perfbench && go vet ./... && go test -count=1 ./...)

# Mining and candidate-validation microbenchmarks as a smoke test: one
# iteration each, just to prove the hot-loop harness still compiles and
# runs. (-short also keeps the heavy same-process layout A/B out of the
# smoke lane.)
go test ./internal/mining ./internal/pa -run '^$' -bench . -benchtime 1x -short >/dev/null

# Fuzz the image decoder for a fixed 10 s on top of its seed corpus (the
# seeds and the committed crashers under internal/link/testdata/fuzz also
# run in the plain test suite above). The seeds are whole benchmark
# images, and minimising a large interesting input at the default 60 s
# budget would stall the run, so minimisation gets 1 s.
go test ./internal/link -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s -fuzzminimizetime 1s >/dev/null
# The assembler gets the same budget, seeded with the printed benchmark
# units and the runtime library (crashers under
# internal/asm/testdata/fuzz).
go test ./internal/asm -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 1s >/dev/null
# The mini-C front end too, seeded with the benchmark sources: Compile
# and linking its unit with the runtime library must never panic
# (crashers under internal/codegen/testdata/fuzz).
go test ./internal/codegen -run '^$' -fuzz '^FuzzCompile$' -fuzztime 10s -fuzzminimizetime 1s >/dev/null
# The service's request decoders (/v1/compact and /v1/batch), seeded
# with the bodies the service tests send: no panic, and every accepted
# request validates and has a content address.
go test ./internal/service -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s -fuzzminimizetime 1s >/dev/null
# The sequence scan's window layer, on random token sequences over a
# four-letter alphabet: extending only the windows that still repeat
# must find exactly the groups of a full per-length scan (crashers
# under internal/pa/testdata/fuzz).
go test ./internal/pa -run '^$' -fuzz '^FuzzScanGroups$' -fuzztime 10s -fuzzminimizetime 1s >/dev/null

# --- compaction-service end-to-end check -------------------------------
# The service deliberately omits the wall-clock suffix from its reports
# (cached responses must be byte-identical to fresh ones), so the CLI
# output is normalized with sed before diffing.
TMP=$(mktemp -d)
PAD_PID=""
cleanup() {
	[ -n "$PAD_PID" ] && kill "$PAD_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/pad" ./cmd/pad
go build -o "$TMP/edgar" ./cmd/edgar

# wait_addr ADDR_FILE LOG_FILE: block until pad writes its bound address.
wait_addr() {
	i=0
	while [ ! -s "$1" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "ci.sh: pad never wrote its address" >&2
			cat "$2" >&2
			exit 1
		fi
		sleep 0.1
	done
	cat "$1"
}

"$TMP/pad" serve -addr 127.0.0.1:0 -addr-file "$TMP/addr" 2>"$TMP/pad.log" &
PAD_PID=$!
ADDR=$(wait_addr "$TMP/addr" "$TMP/pad.log")

"$TMP/pad" submit -addr "$ADDR" internal/bench/programs/crc.mc >"$TMP/service.report"
"$TMP/edgar" -verify=false internal/bench/programs/crc.mc |
	sed 's/ rounds, .*/ rounds/' >"$TMP/cli.report"
diff "$TMP/service.report" "$TMP/cli.report"

kill -TERM "$PAD_PID"
wait "$PAD_PID"
PAD_PID=""
echo "ci.sh: service report matches CLI"

# --- job-concurrency end-to-end ---------------------------------------
# A three-program corpus is mined by a one-job daemon and by a
# default daemon (one job per core, run side by side), and the
# per-program image hashes must be identical: running jobs concurrently
# may change latency, never bytes.
mkdir "$TMP/corpus"
cp internal/bench/programs/crc.mc internal/bench/programs/search.mc \
	internal/bench/programs/dijkstra.mc "$TMP/corpus/"
"$TMP/pad" serve -addr 127.0.0.1:0 -addr-file "$TMP/addr_j1" -job-workers 1 2>"$TMP/pad_j1.log" &
PAD_PID=$!
ADDR=$(wait_addr "$TMP/addr_j1" "$TMP/pad_j1.log")
"$TMP/pad" submit -addr "$ADDR" -json -dir "$TMP/corpus" >"$TMP/jobs1.json"
kill -TERM "$PAD_PID"
wait "$PAD_PID"
PAD_PID=""

"$TMP/pad" serve -addr 127.0.0.1:0 -addr-file "$TMP/addr_jn" 2>"$TMP/pad_jn.log" &
PAD_PID=$!
ADDR=$(wait_addr "$TMP/addr_jn" "$TMP/pad_jn.log")
"$TMP/pad" submit -addr "$ADDR" -json -dir "$TMP/corpus" >"$TMP/jobsn.json"
kill -TERM "$PAD_PID"
wait "$PAD_PID"
PAD_PID=""

grep -o '"image_hash":"[0-9a-f]*"' "$TMP/jobs1.json" >"$TMP/job_hashes1"
grep -o '"image_hash":"[0-9a-f]*"' "$TMP/jobsn.json" >"$TMP/job_hashesn"
[ -s "$TMP/job_hashes1" ] || { echo "ci.sh: one-job batch produced no image hashes" >&2; exit 1; }
diff "$TMP/job_hashes1" "$TMP/job_hashesn"
echo "ci.sh: concurrent jobs reproduce the one-job daemon's images"

# --- benchmark-record smoke --------------------------------------------
# The JSON benchmark harness must keep producing records the committed
# baseline schema can be compared against; two fast programs suffice as
# a smoke test (the full record is regenerated with paper-tables
# -bench-json across the whole suite, see README). Besides wall clock
# (reported, not gated — too noisy), paper-tables compares the
# deterministic lattice visit counts against the committed baseline and
# exits nonzero when they regress beyond tolerance (>5% on any run, >2%
# in total), so this step is the search-cost regression gate.
go build -o "$TMP/paper-tables" ./cmd/paper-tables
"$TMP/paper-tables" -only timings -programs crc,dijkstra -miners edgar \
	-noverify -bench-json "$TMP/bench.json" \
	-bench-baseline BENCH_edgar.baseline.json >/dev/null
grep -q '"total_wall_ms"' "$TMP/bench.json"
grep -q '"name": "crc"' "$TMP/bench.json"
grep -q '"visits"' "$TMP/bench.json"
echo "ci.sh: benchmark record and visit-count gate passed"

# --- Table 1 drift gate ---------------------------------------------------
# tables.txt is the committed paper-tables output. Mine the programs at
# the same defaults and require each program's saved count to equal
# tables.txt's Edgar column: a change that moves savings without
# regenerating tables.txt (and EXPERIMENTS.md, which quotes it) fails
# here. Every benchmark's edgar fixpoint takes well under a second, so
# both lanes cover all eight.
DRIFT_PROGRAMS=bitcnts,crc,dijkstra,patricia,qsort,rijndael,search,sha
"$TMP/paper-tables" -only timings -programs "$DRIFT_PROGRAMS" -miners edgar \
	-noverify -bench-json "$TMP/bench.drift.json" >/dev/null
awk '/^Table 1:/ { on = 1; next } on && /^total/ { exit } on { print $1, $NF }' \
	tables.txt >"$TMP/table1.edgar"
awk '/"name":/ { gsub(/[",]/, "", $2); name = $2 }
	/"saved":/ { gsub(/,/, "", $2); print name, $2 }' \
	"$TMP/bench.drift.json" >"$TMP/saved.drift"
[ -s "$TMP/saved.drift" ] || { echo "ci.sh: no saved counts in the drift record" >&2; exit 1; }
while read -r name saved; do
	want=$(awk -v n="$name" '$1 == n { print $2 }' "$TMP/table1.edgar")
	if [ "$saved" != "$want" ]; then
		echo "ci.sh: $name saves $saved instructions but tables.txt's Edgar column says ${want:-nothing}" >&2
		exit 1
	fi
done <"$TMP/saved.drift"
echo "ci.sh: tables.txt Table 1 matches the mined savings"

# --- exact visits gate ----------------------------------------------------
# The lattice walk is deterministic, so each drift program's visit
# count must equal the committed BENCH_edgar.json record exactly. The
# baseline comparison above tolerates 5%, enough to hide a
# minimality-test bug that moves visits by a few percent. The key-cut
# count (candidate builds stopped because their rewrite key cannot reach
# the batch) is deterministic too and is held to the record the same
# way, and so is the optimized image's content hash: the output bytes
# of all eight programs may not move unnoticed. A change that moves any
# of them on purpose regenerates BENCH_edgar.json with it.
for field in visits key_cuts image_hash; do
	awk -v f="\"$field\":" '/"name":/ { gsub(/[",]/, "", $2); name = $2 }
		$1 == f { gsub(/[",]/, "", $2); print name, $2 }' \
		BENCH_edgar.json >"$TMP/$field.committed"
	awk -v f="\"$field\":" '/"name":/ { gsub(/[",]/, "", $2); name = $2 }
		$1 == f { gsub(/[",]/, "", $2); print name, $2 }' \
		"$TMP/bench.drift.json" >"$TMP/$field.drift"
	[ -s "$TMP/$field.drift" ] || { echo "ci.sh: no $field counts in the drift record" >&2; exit 1; }
	while read -r name count; do
		want=$(awk -v n="$name" '$1 == n { print $2 }' "$TMP/$field.committed")
		if [ "$count" != "$want" ]; then
			echo "ci.sh: $name: $field is $count but BENCH_edgar.json records ${want:-nothing}" >&2
			exit 1
		fi
	done <"$TMP/$field.drift"
done
echo "ci.sh: BENCH_edgar.json visit counts, key cuts and image hashes match the mined runs exactly"

# --- truncation gate ------------------------------------------------------
# MaxPatterns is a safety valve, not part of the search: no edgar,
# edgar-canon or dgspan round on the suite may stop at it. A round that
# does is no longer order-invariant (DESIGN.md §10), and its savings
# depend on the budget. edgar's rounds come from the drift record above;
# edgar-canon's and dgspan's fixpoints (the same induced walk, under half
# a second each on the whole suite) are mined here.
for miner in edgar-canon dgspan; do
	"$TMP/paper-tables" -only timings -programs "$DRIFT_PROGRAMS" -miners "$miner" \
		-noverify -bench-json "$TMP/bench.$miner.json" >/dev/null
done
for miner in edgar edgar-canon dgspan; do
	record="$TMP/bench.drift.json"
	[ "$miner" = edgar ] || record="$TMP/bench.$miner.json"
	awk '/"name":/ { gsub(/[",]/, "", $2); name = $2 }
		/"truncated_rounds":/ { gsub(/,/, "", $2); print name, $2 }' \
		"$record" >"$TMP/truncated.$miner"
	[ "$(wc -l <"$TMP/truncated.$miner")" -eq 8 ] || { echo "ci.sh: the $miner record lacks truncated_rounds for the 8 programs" >&2; exit 1; }
	while read -r name truncated; do
		if [ "$truncated" != 0 ]; then
			echo "ci.sh: $name: $truncated $miner rounds stopped at the pattern budget" >&2
			exit 1
		fi
	done <"$TMP/truncated.$miner"
done
echo "ci.sh: no edgar, edgar-canon or dgspan round reached the pattern budget"
