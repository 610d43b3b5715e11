package serve

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dehealth/internal/core"
)

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// approxCapable wraps testBackend with the QueryUserApprox /
// QueryBatchApprox pair of a backend written for the retired approximate
// tier, counting how many users that pair answered so routing is
// observable from the wire.
type approxCapable struct {
	*testBackend
	approxUsers int64 // users answered through the approx methods
}

func (b *approxCapable) QueryUserApprox(u, k int) ([]core.Candidate, error) {
	atomic.AddInt64(&b.approxUsers, 1)
	return b.testBackend.QueryUser(u, k)
}

func (b *approxCapable) QueryBatchApprox(users []int, k int) ([][]core.Candidate, error) {
	atomic.AddInt64(&b.approxUsers, int64(len(users)))
	return b.testBackend.QueryBatch(users, k)
}

// TestQueryApproxRouting pins the compatibility dispatch: {"approx": true}
// requests route to a backend's QueryUserApprox / QueryBatchApprox when it
// has them and plain requests to QueryUser / QueryBatch, on /v1/query and
// on /internal/query alike; /v1/stats carries no approx block.
func TestQueryApproxRouting(t *testing.T) {
	b := &approxCapable{testBackend: newTestBackend(t, 16, 81)}
	s := New(b, Config{DefaultK: 5})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type queryResp struct {
		User       int `json:"user"`
		Candidates []struct {
			User  int     `json:"user"`
			Score float64 `json:"score"`
		} `json:"candidates"`
	}
	exact := decode[queryResp](t, postJSON(t, ts.URL+"/v1/query", map[string]any{"user": 1, "k": 4}))
	if atomic.LoadInt64(&b.approxUsers) != 0 {
		t.Fatal("plain query routed to the approx path")
	}
	approx := decode[queryResp](t, postJSON(t, ts.URL+"/v1/query", map[string]any{"user": 1, "k": 4, "approx": true}))
	if got := atomic.LoadInt64(&b.approxUsers); got != 1 {
		t.Fatalf("approx query answered %d users through the approx path, want 1", got)
	}
	// This test backend answers both paths identically, so the wire results
	// must agree too.
	if len(exact.Candidates) != len(approx.Candidates) {
		t.Fatalf("exact/approx candidate counts differ: %d vs %d", len(exact.Candidates), len(approx.Candidates))
	}
	for i := range exact.Candidates {
		if exact.Candidates[i] != approx.Candidates[i] {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, exact.Candidates[i], approx.Candidates[i])
		}
	}

	// A router group carries the knob for all of its users.
	postJSON(t, ts.URL+"/internal/query", InternalQuery{Users: []int{1, 2}, K: 4}).Body.Close()
	postJSON(t, ts.URL+"/internal/query", InternalQuery{Users: []int{1, 2, 3}, K: 4, Approx: true}).Body.Close()
	if got := atomic.LoadInt64(&b.approxUsers); got != 4 {
		t.Fatalf("approx path answered %d users, want 4 (one query plus one group of three)", got)
	}

	raw := decode[map[string]any](t, mustGet(t, ts.URL+"/v1/stats"))
	if _, ok := raw["approx"]; ok {
		t.Fatal("stats must carry no approx block")
	}
}

// TestQueryApproxWithoutCapableBackend pins the plain path: the knob on a
// backend without the approximate pair answers through QueryUser, and the
// stats omit the approx block.
func TestQueryApproxWithoutCapableBackend(t *testing.T) {
	b := newTestBackend(t, 14, 83)
	s := New(b, Config{DefaultK: 5})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type queryResp struct {
		Candidates []struct {
			User  int     `json:"user"`
			Score float64 `json:"score"`
		} `json:"candidates"`
	}
	got := decode[queryResp](t, postJSON(t, ts.URL+"/v1/query", map[string]any{"user": 0, "k": 3, "approx": true}))
	if len(got.Candidates) != 3 {
		t.Fatalf("approx knob on an exact-only backend returned %d candidates, want 3", len(got.Candidates))
	}
	raw := decode[map[string]any](t, mustGet(t, ts.URL+"/v1/stats"))
	if _, ok := raw["approx"]; ok {
		t.Fatal("exact-only backend stats must omit the approx block")
	}
}
