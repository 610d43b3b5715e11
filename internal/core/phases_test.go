package core

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dehealth/internal/features"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
)

// idleTokens reads how many of w's scan tokens are idle and how many it
// has. The budget is unexported, so the test reads the channel's length
// and capacity through reflection rather than a production accessor.
func idleTokens(w *shard.World) (idle, total int) {
	c := reflect.ValueOf(w).Elem().FieldByName("scanTokens")
	return c.Len(), c.Cap()
}

// TestOfflineTopKBesideServedQueries runs the offline Top-K DA phase on a
// 3-shard pipeline while served lone queries and width-8 batches hit the
// same world, so both phases claim helper goroutines from one scan-token
// budget (three tokens): every TopKResult, every field, and every served
// list must equal a lone run's, and every token must be idle afterwards.
func TestOfflineTopKBesideServedQueries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	split := world(t, 240, 3, 0.5, 83)
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	p := NewShardedPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}, 3)
	if idle, total := idleTokens(p.world); total != 3 || idle != total {
		t.Fatalf("%d of %d scan tokens idle on a fresh world built at GOMAXPROCS 4, want 3 of 3", idle, total)
	}
	const k = 5
	anonN := p.G1.NumNodes()
	want := p.TopK(k, DirectSelection, split.TrueMapping)
	served := make([][]Candidate, anonN)
	for u := range served {
		served[u] = p.QueryBatch([]int{u}, k, 1)[0]
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if got := p.TopK(k, DirectSelection, split.TrueMapping); !reflect.DeepEqual(got, want) {
					t.Errorf("offline goroutine %d: TopK differs from a lone run", g)
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]int, 8)
			for i := 0; i < anonN; i++ {
				u := (i*7 + g*31) % anonN
				users := []int{u}
				if i%8 == 0 {
					for j := range batch {
						batch[j] = (u + j*13) % anonN
					}
					users = batch
				}
				for j, got := range p.QueryBatch(users, k, 0) {
					if !slices.Equal(got, served[users[j]]) {
						t.Errorf("served goroutine %d width %d user %d: %+v, lone run %+v", g, len(users), users[j], got, served[users[j]])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if idle, total := idleTokens(p.world); idle != total {
		t.Fatalf("%d of %d scan tokens idle after the concurrent phases", idle, total)
	}
}
