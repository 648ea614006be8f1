#!/bin/sh
# CI gate: vet plus the whole test suite under the race detector. The
# parallel search is only trustworthy raced, so -race is not optional
# here. Short mode (the default) trims the end-to-end determinism suite
# to its two fastest benchmark programs; run `./ci.sh -full` for the
# complete matrix. After the tests, the pad daemon is exercised for
# real: serve on an ephemeral port, submit a benchmark over HTTP, and
# require the report to match the edgar CLI byte-for-byte.
set -eu
cd "$(dirname "$0")"

go vet ./...
if [ "${1:-}" = "-full" ]; then
	go test -race -count=1 ./...
else
	go test -race -count=1 -short ./...
fi

# Mining and candidate-validation microbenchmarks as a smoke test: one
# iteration each, just to prove the hot-loop harness still compiles and
# runs. (-short also keeps the heavy same-process layout A/B out of the
# smoke lane.)
go test ./internal/mining ./internal/pa -run '^$' -bench . -benchtime 1x -short >/dev/null

# --- compaction-service end-to-end check -------------------------------
# The service deliberately omits the wall-clock suffix from its reports
# (cached responses must be byte-identical to fresh ones), so the CLI
# output is normalized with sed before diffing.
TMP=$(mktemp -d)
PAD_PID=""
W1_PID=""
W2_PID=""
cleanup() {
	[ -n "$PAD_PID" ] && kill "$PAD_PID" 2>/dev/null || true
	[ -n "$W1_PID" ] && kill "$W1_PID" 2>/dev/null || true
	[ -n "$W2_PID" ] && kill "$W2_PID" 2>/dev/null || true
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

# --- batch + dictionary warm-start end-to-end --------------------------
# The same three-program corpus is mined twice against one persistent
# dictionary, by two separate daemon lifetimes (a restart empties the
# result cache, so the second run really re-mines). The second run must
# report dictionary warm-start hits while producing per-program image
# hashes identical to the first run's — and the first run's outputs are
# themselves pinned against direct library runs by the Go test suite
# (TestServiceBatchWarmstart) and against the edgar CLI above.
mkdir "$TMP/corpus"
cp internal/bench/programs/crc.mc internal/bench/programs/search.mc \
	internal/bench/programs/dijkstra.mc "$TMP/corpus/"

"$TMP/pad" serve -addr 127.0.0.1:0 -addr-file "$TMP/addr2" \
	-dict "$TMP/frag.dict" 2>"$TMP/pad2.log" &
PAD_PID=$!
ADDR=$(wait_addr "$TMP/addr2" "$TMP/pad2.log")
"$TMP/pad" submit -addr "$ADDR" -json -dir "$TMP/corpus" >"$TMP/batch1.json"
kill -TERM "$PAD_PID"
wait "$PAD_PID"
PAD_PID=""

"$TMP/pad" serve -addr 127.0.0.1:0 -addr-file "$TMP/addr3" \
	-dict "$TMP/frag.dict" 2>"$TMP/pad3.log" &
PAD_PID=$!
ADDR=$(wait_addr "$TMP/addr3" "$TMP/pad3.log")
"$TMP/pad" submit -addr "$ADDR" -json -dir "$TMP/corpus" >"$TMP/batch2.json"
kill -TERM "$PAD_PID"
wait "$PAD_PID"
PAD_PID=""

grep -o '"image_hash":"[0-9a-f]*"' "$TMP/batch1.json" >"$TMP/hashes1"
grep -o '"image_hash":"[0-9a-f]*"' "$TMP/batch2.json" >"$TMP/hashes2"
[ -s "$TMP/hashes1" ] || { echo "ci.sh: batch produced no image hashes" >&2; exit 1; }
diff "$TMP/hashes1" "$TMP/hashes2"
# The last dict_hits field in the status body is the batch total.
HITS=$(grep -o '"dict_hits":[0-9]*' "$TMP/batch2.json" | tail -1 | cut -d: -f2)
if [ -z "$HITS" ] || [ "$HITS" -eq 0 ]; then
	echo "ci.sh: warm-started batch reported no dictionary hits" >&2
	exit 1
fi
echo "ci.sh: dictionary warm-start reproduces identical images (dict_hits=$HITS)"

# --- sharded distributed search end-to-end -----------------------------
# Two shard-worker pads plus a coordinator, all on loopback: the same
# three-program corpus is mined by a plain single-process daemon and by
# the coordinator distributing speculation across the workers, and the
# per-program image hashes must be identical — shards only move the
# speculative work, the coordinator's replay decides every byte. The
# worker logs must show walks actually opened, so the equality is not
# vacuously two local runs.
"$TMP/pad" serve -addr 127.0.0.1:0 -addr-file "$TMP/addr_p" 2>"$TMP/pad_plain.log" &
PAD_PID=$!
ADDR=$(wait_addr "$TMP/addr_p" "$TMP/pad_plain.log")
"$TMP/pad" submit -addr "$ADDR" -json -dir "$TMP/corpus" >"$TMP/shard_plain.json"
kill -TERM "$PAD_PID"
wait "$PAD_PID"
PAD_PID=""

"$TMP/pad" serve -addr 127.0.0.1:0 -addr-file "$TMP/addr_w1" -shard-of ci-coordinator 2>"$TMP/pad_w1.log" &
W1_PID=$!
"$TMP/pad" serve -addr 127.0.0.1:0 -addr-file "$TMP/addr_w2" -shard-of ci-coordinator 2>"$TMP/pad_w2.log" &
W2_PID=$!
W1=$(wait_addr "$TMP/addr_w1" "$TMP/pad_w1.log")
W2=$(wait_addr "$TMP/addr_w2" "$TMP/pad_w2.log")
"$TMP/pad" serve -addr 127.0.0.1:0 -addr-file "$TMP/addr_c" -shards "$W1,$W2" 2>"$TMP/pad_coord.log" &
PAD_PID=$!
ADDR=$(wait_addr "$TMP/addr_c" "$TMP/pad_coord.log")
"$TMP/pad" submit -addr "$ADDR" -json -dir "$TMP/corpus" >"$TMP/shard_coord.json"
kill -TERM "$PAD_PID"
wait "$PAD_PID"
PAD_PID=""
kill -TERM "$W1_PID" "$W2_PID"
wait "$W1_PID" "$W2_PID"
W1_PID=""
W2_PID=""

grep -o '"image_hash":"[0-9a-f]*"' "$TMP/shard_plain.json" >"$TMP/shard_hashes_plain"
grep -o '"image_hash":"[0-9a-f]*"' "$TMP/shard_coord.json" >"$TMP/shard_hashes_coord"
[ -s "$TMP/shard_hashes_plain" ] || { echo "ci.sh: plain batch produced no image hashes" >&2; exit 1; }
diff "$TMP/shard_hashes_plain" "$TMP/shard_hashes_coord"
for wl in "$TMP/pad_w1.log" "$TMP/pad_w2.log"; do
	grep -q "shard walk opened" "$wl" || {
		echo "ci.sh: worker $wl served no shard walks" >&2
		exit 1
	}
done
echo "ci.sh: sharded coordinator reproduces identical images across 2 workers"

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
# here. The smoke lane covers every benchmark whose walk completes
# quickly; -full adds rijndael.
DRIFT_PROGRAMS=bitcnts,crc,dijkstra,patricia,qsort,search,sha
if [ "${1:-}" = "-full" ]; then
	DRIFT_PROGRAMS="$DRIFT_PROGRAMS,rijndael"
fi
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
