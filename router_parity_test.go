// Distributed parity: the acceptance contract of the router tier. A
// router scatter-gathering over 1, 2 and 4 shard servers — real
// dehealth.NewServer instances, each booted from its own snapshot slice —
// must answer QueryUser and QueryBatch bit-identically to the
// single-process PreparedWorld fan-out, in exact, pruned and "approx"
// modes alike (the last prepares with the deprecated Options.Approx and
// sends the wire "approx" key, both answered exactly). Every float crosses two JSON hops (router → shard server →
// router); Go marshals float64 round-trip exactly, so bit-identity is
// required, not approximated.

package dehealth

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"dehealth/internal/router"
)

// routerOver boots one serve.Server per slice world and a router over
// them, in shard order.
func routerOver(t *testing.T, slices []*PreparedWorld) *router.Router {
	t.Helper()
	topo := make([][]string, len(slices))
	for i, sw := range slices {
		srv := NewServer(sw, ServeOptions{Attack: sw.PreparedOptions()})
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			hs.Close()
			_ = srv.Close()
		})
		topo[i] = []string{hs.URL}
	}
	r, err := router.New(router.Config{Shards: topo, HealthInterval: -1})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRouterParity(t *testing.T) {
	const users, k = 20, 5
	modes := []struct {
		name   string
		prune  bool
		approx ApproxConfig
	}{
		{name: "exact"},
		{name: "pruned", prune: true},
		{name: "approx", approx: ApproxConfig{Enabled: true}},
	}
	for mi, mode := range modes {
		for _, shards := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s shards=%d", mode.name, shards)

			// Reference: the single-process world at the same shard count.
			w := GenerateWorld(WorldConfig{WebMDUsers: users, HBUsers: users, Seed: int64(8000 + 100*mi + shards)})
			split := SplitClosedWorld(w.WebMD, 0.5, int64(8001+100*mi+shards))
			opt := snapOptions(shards, mode.prune)
			opt.Approx = mode.approx
			pw := PrepareWorld(split.Anon, split.Aux, opt)
			wantSingle, wantBatch := worldAnswers(t, pw, k, opt)

			// Distributed: slice servers under a router.
			slices := loadSlices(t, pw, t.TempDir())
			if len(slices) != shards {
				t.Fatalf("%s: %d slices", label, len(slices))
			}
			r := routerOver(t, slices)

			anon, _ := pw.Sizes()
			allUsers := make([]int, anon)
			gotSingle := make([][]Candidate, anon)
			for u := 0; u < anon; u++ {
				allUsers[u] = u
				res, err := r.QueryUser(context.Background(), u, k, mode.approx.Enabled)
				if err != nil {
					t.Fatalf("%s: router QueryUser(%d): %v", label, u, err)
				}
				if res.Partial {
					t.Fatalf("%s: healthy fleet answered partially (missing %v)", label, res.Missing)
				}
				gotSingle[u] = res.Candidates
			}
			sameCandidates(t, label+" QueryUser", wantSingle, gotSingle)

			br, err := r.QueryBatch(context.Background(), allUsers, k, mode.approx.Enabled)
			if err != nil {
				t.Fatalf("%s: router QueryBatch: %v", label, err)
			}
			if br.Partial {
				t.Fatalf("%s: batch answered partially (missing %v)", label, br.Missing)
			}
			sameCandidates(t, label+" QueryBatch", wantBatch, br.Results)
		}
	}
}
