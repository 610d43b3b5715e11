package features

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dehealth/internal/corpus"
)

// TestAppendMatchesRebuild proves incremental ingestion is exactly
// equivalent to rebuilding the store over the grown dataset: same vectors,
// same per-user views, same attribute sets, and the same UDA graph edge for
// edge — including co-discussion edges between two users ingested in the
// same batch and threads opened by the ingested posts.
func TestAppendMatchesRebuild(t *testing.T) {
	d := testForum(t, 20, 6, 17)
	ex := NewExtractor(d.Texts(), 50)
	s := Build(d, ex, Options{Workers: 4})
	s.UDA() // materialize so Append must extend it in place

	batch := []UserPosts{
		{User: corpus.User{Name: "reply-heavy", TrueIdentity: -1}, Posts: []IncomingPost{
			{Thread: 0, Text: "my knee surgery recovery took three months of therapy"},
			{Thread: 1, Text: "the swelling went down after I iced it daily"},
			{Thread: 0, Text: "second post in the same thread should add no new edges"},
		}},
		{User: corpus.User{Name: "thread-starter", TrueIdentity: -1}, Posts: []IncomingPost{
			{Thread: NewThread, Text: "has anyone tried the new medication for migraines?"},
			{Thread: 1, Text: "I get auras before mine, magnesium helped a little"},
		}},
		{User: corpus.User{Name: "silent", TrueIdentity: -1}, Posts: nil},
	}
	ids, err := s.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 20 || ids[2] != 22 {
		t.Fatalf("appended ids = %v, want [20 21 22]", ids)
	}
	if err := s.Dataset.Validate(); err != nil {
		t.Fatalf("grown dataset invalid: %v", err)
	}

	rebuilt := Build(s.Dataset, ex, Options{Workers: 4})
	if got, want := s.NumPosts(), rebuilt.NumPosts(); got != want {
		t.Fatalf("NumPosts = %d, want %d", got, want)
	}
	if got, want := s.NumUsers(), rebuilt.NumUsers(); got != want {
		t.Fatalf("NumUsers = %d, want %d", got, want)
	}
	for i := 0; i < s.NumPosts(); i++ {
		a, b := s.rows[i], rebuilt.rows[i]
		for j := range b {
			if a[j] != b[j] {
				t.Fatalf("post %d dim %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
	for u := 0; u < s.NumUsers(); u++ {
		if got, want := len(s.perUser[u]), len(rebuilt.perUser[u]); got != want {
			t.Fatalf("user %d: %d vectors, want %d", u, got, want)
		}
		ga, wa := s.Attrs()[u], rebuilt.Attrs()[u]
		if len(ga.Idx) != len(wa.Idx) {
			t.Fatalf("user %d: attr size %d, want %d", u, len(ga.Idx), len(wa.Idx))
		}
		for i := range wa.Idx {
			if ga.Idx[i] != wa.Idx[i] || ga.Weight[i] != wa.Weight[i] {
				t.Fatalf("user %d attr %d differs", u, i)
			}
		}
	}

	gu, ru := s.UDA(), rebuilt.UDA()
	if gu.NumNodes() != ru.NumNodes() || gu.NumEdges() != ru.NumEdges() {
		t.Fatalf("UDA shape (%d nodes, %d edges) != rebuilt (%d nodes, %d edges)",
			gu.NumNodes(), gu.NumEdges(), ru.NumNodes(), ru.NumEdges())
	}
	goff, gto, gw := gu.AdjacencyParts()
	roff, rto, rw := ru.AdjacencyParts()
	if !reflect.DeepEqual(goff, roff) || !reflect.DeepEqual(gto, rto) || !reflect.DeepEqual(gw, rw) {
		t.Fatal("appended UDA adjacency differs from the rebuilt one")
	}
}

// TestAppendBeforeUDA covers the other materialization order: appending
// while the UDA is still lazy must produce the same graph once built.
func TestAppendBeforeUDA(t *testing.T) {
	d := testForum(t, 15, 5, 19)
	ex := NewExtractor(d.Texts(), 40)
	s := Build(d, ex, Options{})
	if _, err := s.AppendUser(corpus.User{Name: "late", TrueIdentity: -1}, []IncomingPost{
		{Thread: 2, Text: "chronic back pain after lifting, stretching helps"},
	}); err != nil {
		t.Fatal(err)
	}
	rebuilt := Build(s.Dataset, ex, Options{})
	if got, want := s.UDA().NumEdges(), rebuilt.UDA().NumEdges(); got != want {
		t.Fatalf("lazy-UDA edge count %d, want %d", got, want)
	}
}

// TestAppendDegenerate covers the no-op and failure paths: an empty batch
// does nothing, and a bad thread id rejects the whole batch before any
// mutation.
func TestAppendDegenerate(t *testing.T) {
	d := testForum(t, 10, 4, 23)
	ex := NewExtractor(d.Texts(), 30)
	s := Build(d, ex, Options{})
	users, posts := s.NumUsers(), s.NumPosts()

	if ids, err := s.Append(nil); err != nil || ids != nil {
		t.Fatalf("Append(nil) = %v, %v; want nil, nil", ids, err)
	}
	if _, err := s.Append([]UserPosts{{User: corpus.User{Name: "bad"}, Posts: []IncomingPost{{Thread: 999, Text: "x"}}}}); err == nil {
		t.Fatal("out-of-range thread id not rejected")
	}
	if s.NumUsers() != users || s.NumPosts() != posts || len(s.Dataset.Users) != users {
		t.Fatal("failed Append mutated the store")
	}
}

// TestWorkerCountDegenerate pins the worker-pool resolution rules,
// including the degenerate job counts Append can produce.
func TestWorkerCountDegenerate(t *testing.T) {
	tests := []struct {
		name    string
		workers int
		n       int
		want    int
	}{
		{"empty batch", 8, 0, 1},
		{"negative jobs", 8, -3, 1},
		{"more workers than jobs", 8, 3, 3},
		{"fewer workers than jobs", 2, 100, 2},
		{"one job", 16, 1, 1},
		{"zero workers one job", 0, 1, 1},
		{"negative workers", -5, 4, 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Options{Workers: tc.workers}.workerCount(tc.n)
			if tc.workers <= 0 && tc.n > 0 {
				// GOMAXPROCS-dependent: only the bounds are pinned.
				if got < 1 || got > tc.n {
					t.Fatalf("workerCount(%d) = %d, want in [1, %d]", tc.n, got, tc.n)
				}
				return
			}
			if got != tc.want {
				t.Fatalf("workerCount(%d) = %d, want %d", tc.n, got, tc.want)
			}
		})
	}
}

// TestParallelForDegenerate proves parallelFor visits each index exactly
// once for every worker/job combination, runs nothing for n <= 0, and
// tolerates workers far beyond n.
func TestParallelForDegenerate(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7, 64} {
		for _, n := range []int{0, -2, 1, 3, 33, 100} {
			var calls int64
			seen := make([]int64, max(n, 0))
			parallelFor(n, workers, func(i int) {
				atomic.AddInt64(&calls, 1)
				atomic.AddInt64(&seen[i], 1)
			})
			want := int64(max(n, 0))
			if calls != want {
				t.Fatalf("parallelFor(n=%d, workers=%d) ran %d calls, want %d", n, workers, calls, want)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("parallelFor(n=%d, workers=%d) visited %d %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestAppendConcurrentReads mimics the serving discipline under -race:
// appends serialized by a lock, interleaved with locked reader bursts.
func TestAppendConcurrentReads(t *testing.T) {
	d := testForum(t, 12, 4, 29)
	ex := NewExtractor(d.Texts(), 30)
	s := Build(d, ex, Options{})
	s.UDA()

	var mu sync.RWMutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				mu.Lock()
				_, err := s.AppendUser(corpus.User{Name: "w", TrueIdentity: -1}, []IncomingPost{
					{Thread: g % 3, Text: "insomnia and stress keep me up at night"},
				})
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				mu.RLock()
				n := s.NumUsers()
				_ = s.PostVectors()[n-1]
				_ = s.UDA().Degree(n - 1)
				mu.RUnlock()
			}
		}(g)
	}
	wg.Wait()
	if got, want := s.NumUsers(), 12+20; got != want {
		t.Fatalf("NumUsers = %d, want %d", got, want)
	}
}
