// BenchmarkRouterScatterGather measures the distributed serving tier
// against its single-process baseline: the same prepared world served (a)
// directly by one dehealth.Server and (b) through the scatter-gather
// router fronting two slice-booted shard servers, with concurrent HTTP
// clients driving /v1/query in both. Parity is asserted inline before any
// timing — the routed answers are compared bit-for-bit against
// PreparedWorld.QueryUser — so the artifact can never report a speedup
// (or an overhead) obtained by changing results. The summary lands in
// BENCH_router.json.

package dehealth

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dehealth/internal/router"
)

func BenchmarkRouterScatterGather(b *testing.B) {
	const shards, k, clients = 2, 10, 16
	w := GenerateWorld(WorldConfig{WebMDUsers: 250, HBUsers: 250, Seed: 95})
	split := SplitClosedWorld(w.WebMD, 0.5, 96)
	opt := DefaultOptions()
	opt.MaxBigrams = 100
	opt.Landmarks = 10
	opt.Shards = shards
	pw := PrepareWorld(split.Anon, split.Aux, opt)
	anonN, auxN := pw.Sizes()

	// Slice the world and boot the shard fleet.
	dir := b.TempDir()
	paths, err := pw.SnapshotSlices(filepath.Join(dir, "world"))
	if err != nil {
		b.Fatal(err)
	}
	topo := make([][]string, len(paths))
	for i, p := range paths {
		sw, err := LoadWorld(p, LoadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		srv := NewServer(sw, ServeOptions{Batch: 8, K: k, Attack: sw.PreparedOptions()})
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		defer srv.Close()
		topo[i] = []string{hs.URL}
	}
	rt, err := router.New(router.Config{Shards: topo, K: k, HealthInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()

	// Parity gate: every anonymized user's routed answer must be
	// bit-identical to the in-process world before anything is timed.
	for u := 0; u < anonN; u++ {
		want, err := pw.QueryUser(u, k, opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := rt.QueryUser(context.Background(), u, k, false)
		if err != nil {
			b.Fatalf("router QueryUser(%d): %v", u, err)
		}
		if res.Partial || len(res.Candidates) != len(want) {
			b.Fatalf("router answer shape for user %d: partial=%v, %d candidates, want %d", u, res.Partial, len(res.Candidates), len(want))
		}
		for i := range want {
			if want[i] != res.Candidates[i] {
				b.Fatalf("parity violation at user %d candidate %d: %+v != %+v", u, i, res.Candidates[i], want[i])
			}
		}
	}

	directSrv := NewServer(pw, ServeOptions{Batch: 8, K: k, Attack: opt})
	defer directSrv.Close()
	directHS := httptest.NewServer(directSrv.Handler())
	defer directHS.Close()
	routerHS := httptest.NewServer(rt.Handler())
	defer routerHS.Close()

	qps := map[string]float64{}
	for _, mode := range []struct{ name, url string }{
		{"direct", directHS.URL},
		{"router", routerHS.URL},
	} {
		b.Run(mode.name, func(b *testing.B) {
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
			defer client.CloseIdleConnections()
			var next int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := atomic.AddInt64(&next, 1)
						if i > int64(b.N) {
							return
						}
						body := fmt.Sprintf(`{"user": %d, "k": %d}`, int(i)%anonN, k)
						resp, err := client.Post(mode.url+"/v1/query", "application/json", strings.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != 200 {
							b.Errorf("status %d", resp.StatusCode)
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			rate := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(rate, "qps")
			if prev, ok := qps[mode.name]; !ok || rate > prev {
				qps[mode.name] = rate
			}
		})
	}

	singleCore := runtime.GOMAXPROCS(0) == 1
	interpretation := "multi-core: router vs direct qps measures the scatter-gather hop cost over slice-booted shard servers on one machine; across machines the router adds shard-parallel capacity the direct path cannot"
	if singleCore {
		interpretation = "single-core environment: the router, both shard servers and the clients share one CPU, so router < direct is expected (two extra HTTP hops, no parallelism to buy); run on a multi-core machine — or a real fleet — to measure scatter-gather properly"
	}
	summary := map[string]any{
		"benchmark":      "router",
		"generated":      time.Now().UTC().Format(time.RFC3339),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"single_core":    singleCore,
		"interpretation": interpretation,
		"world":          map[string]int{"anon_users": anonN, "aux_users": auxN, "shards": len(topo)},
		"qps":            qps,
		"config":         map[string]any{"clients": clients, "k": k, "parity": "all routed answers asserted bit-identical to PreparedWorld.QueryUser before timing"},
	}
	if buf, err := json.MarshalIndent(summary, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_router.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_router.json: %v", err)
		}
	}
}
