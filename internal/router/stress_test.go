// Replica-churn stress: concurrent router queries race a replica that is
// repeatedly killed and restarted mid-stream. Run under -race in CI, this
// exercises every concurrent structure the router owns at once — the
// round-robin cursors, passive health marking, the background prober
// restoring the replica after each restart, and the retry layer absorbing
// the kills. With a second always-up replica per shard and a generous
// attempt budget, every query must come back whole: churn may cost
// retries, never answers.

package router

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRouterReplicaChurnStress(t *testing.T) {
	urls, total := twoShards(t)
	// Shard 0: a churning replica (killed and revived in a loop) plus a
	// stable one. Shard 1: stable.
	churn := newFlakyShard(t, urls[0], modePass, 0)
	r := newRouter(t, Config{
		Shards:         [][]string{{churn.URL(), urls[0]}, {urls[1]}},
		ShardTimeout:   10 * time.Second,
		Retries:        8,
		RetryBackoff:   time.Millisecond,
		HealthInterval: 5 * time.Millisecond, // prober races the churn by design
	})

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		down := false
		for {
			select {
			case <-stop:
				churn.setMode(modePass)
				return
			case <-time.After(3 * time.Millisecond):
				if down {
					churn.setMode(modePass)
				} else {
					churn.setMode(modeDrop)
				}
				down = !down
			}
		}
	}()

	const workers, perWorker = 8, 25
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := (w*perWorker + i) % 16
				res, err := r.QueryBatch(context.Background(), []int{u}, 5)
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				if res.Partial {
					errs <- fmt.Errorf("worker %d query %d degraded to partial (missing %v) despite a healthy replica", w, i, res.Missing)
					return
				}
				want := expectTopK(u, 5, total)
				for j := range want {
					if res.Results[0][j] != want[j] {
						errs <- fmt.Errorf("worker %d query %d: candidate %d = %+v, want %+v", w, i, j, res.Results[0][j], want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatalf("stats after churn: %+v", r.Stats())
	}
}
