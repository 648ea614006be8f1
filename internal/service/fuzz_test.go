package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/pa"
)

// FuzzDecodeRequest feeds arbitrary bytes to the two request decoders,
// decodeRequest (/v1/compact, /v1/jobs) and decodeBatchRequest
// (/v1/batch). Neither may panic, and every request they accept must
// pass validate — max_fragment within pa.MaxNodesLimit included — and
// have a content address, as must each program of an accepted batch.
// The seeds are the request bodies the service tests send.
func FuzzDecodeRequest(f *testing.F) {
	src, err := bench.Source("search")
	if err != nil {
		f.Fatal(err)
	}
	const tiny = "int main() { return 0; }"
	seeds := []any{
		&CompactRequest{Source: src},
		&CompactRequest{Source: tiny, Compile: &CompileOptions{Optimize: true}, Optimize: OptimizeOptions{Miner: "dgspan", MinSupport: 3, MaxFragment: 12, MaxRounds: 2, MaxPatterns: 5000, GreedyMIS: true}},
		&CompactRequest{Source: "_start:\n\tmov r0, #0\n\tswi 0\n", Asm: true},
		&CompactRequest{Source: "int main( { return 0; }"},
		&CompactRequest{Source: "   "},
		&CompactRequest{Source: tiny, Optimize: OptimizeOptions{Miner: "bogus"}},
		&CompactRequest{Source: tiny, Optimize: OptimizeOptions{MaxRounds: -1}},
		&CompactRequest{Source: tiny, Optimize: OptimizeOptions{MaxFragment: pa.MaxNodesLimit + 1}},
		&BatchRequest{Programs: []BatchProgram{{Name: "a", Source: tiny}, {Name: "b", Source: src}}, Optimize: OptimizeOptions{Miner: "sfx"}},
		&BatchRequest{},
		&BatchRequest{Programs: []BatchProgram{{Source: tiny}}},
		&BatchRequest{Programs: []BatchProgram{{Name: "a", Source: tiny}, {Name: "a", Source: tiny}}},
		&BatchRequest{Programs: []BatchProgram{{Name: "a", Source: tiny}}, Optimize: OptimizeOptions{MaxFragment: pa.MaxNodesLimit + 1}},
	}
	for _, s := range seeds {
		body, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte("not json"))
	f.Add([]byte(`{"floor":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, err := decodeRequest(httptest.NewRequest("POST", "/v1/compact", bytes.NewReader(body))); err == nil {
			checkAccepted(t, req)
		}
		breq, err := decodeBatchRequest(httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		if err != nil {
			return
		}
		if err := breq.validate(); err != nil {
			t.Fatalf("accepted batch fails validate: %v", err)
		}
		for i := range breq.Programs {
			checkAccepted(t, breq.compactRequest(i))
		}
	})
}

// checkAccepted fails unless an accepted request validates, keeps
// max_fragment within its limit and has a content address.
func checkAccepted(t *testing.T, req *CompactRequest) {
	t.Helper()
	if err := req.validate(); err != nil {
		t.Fatalf("accepted request fails validate: %v", err)
	}
	if req.Optimize.MaxFragment > pa.MaxNodesLimit {
		t.Fatalf("accepted max_fragment %d above the limit %d", req.Optimize.MaxFragment, pa.MaxNodesLimit)
	}
	if k := req.Key(); len(k) != 64 {
		t.Fatalf("accepted request has key %q, want 64 hex digits", k)
	}
}
