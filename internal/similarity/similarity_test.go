package similarity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/stylometry"
)

func TestCosine(t *testing.T) {
	tests := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 1},
		{[]float64{1, 0}, []float64{0, 1}, 0},
		{[]float64{1, 1}, []float64{1, 1}, 1},
		{[]float64{0, 0}, []float64{1, 1}, 0},
		{nil, nil, 0},
		// Zero padding: (1,2) vs (1,2,0).
		{[]float64{1, 2}, []float64{1, 2, 0}, 1},
	}
	for _, tc := range tests {
		if got := Cosine(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Cosine(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCosineProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		c := Cosine(a, b)
		if c < -1-1e-9 || c > 1+1e-9 {
			return false
		}
		return math.Abs(Cosine(a, b)-Cosine(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// twoForumWorld builds matched anonymized/auxiliary datasets where user i in
// one corresponds to user i in the other, with identical structure and near
// identical texts.
func twoForumWorld() (*graph.UDA, *graph.UDA) {
	mk := func(suffix string) *corpus.Dataset {
		d := &corpus.Dataset{Name: "w"}
		for i := 0; i < 4; i++ {
			d.Users = append(d.Users, corpus.User{ID: i, Name: "u", TrueIdentity: i})
		}
		d.Threads = []corpus.Thread{
			{ID: 0, Board: "a", Starter: 0},
			{ID: 1, Board: "b", Starter: 2},
		}
		d.Posts = []corpus.Post{
			{ID: 0, User: 0, Thread: 0, Text: "i definately have a terrible headache " + suffix},
			{ID: 1, User: 1, Thread: 0, Text: "my doctor prescribed 50mg of imitrex " + suffix},
			{ID: 2, User: 2, Thread: 1, Text: "has anyone tried melatonin for sleep " + suffix},
			{ID: 3, User: 3, Thread: 1, Text: "whenever i sleep the pain gets worse " + suffix},
			{ID: 4, User: 0, Thread: 1, Text: "i definately agree about the headache part " + suffix},
		}
		return d
	}
	ex := stylometry.New()
	return features.Build(mk("today"), ex, features.Options{}).UDA(), features.Build(mk("yesterday"), ex, features.Options{}).UDA()
}

func TestScoreSelfHighest(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2})
	for u := 0; u < 4; u++ {
		self := s.Score(u, u)
		for v := 0; v < 4; v++ {
			if v != u && s.Score(u, v) > self {
				t.Errorf("Score(%d,%d)=%v exceeds self score %v", u, v, s.Score(u, v), self)
			}
		}
	}
}

func TestScoreComponentsBounded(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, DefaultConfig())
	names := [3]string{"degree", "distance", "attribute"}
	bounds := [3]float64{3, 2, 2}
	var p QueryProfile
	for c, hot := range oneHot(s.cfg.Landmarks) {
		sc := s.Reweighted(hot)
		for u := 0; u < 4; u++ {
			sc.PrepareQuery(u, &p)
			for v := 0; v < 4; v++ {
				got := sc.ScoreWith(&p, v)
				if got != s.componentSlow(c, u, v) {
					t.Errorf("%s component (%d,%d) = %v, slow reference %v", names[c], u, v, got, s.componentSlow(c, u, v))
				}
				if got < 0 || got > bounds[c]+1e-9 {
					t.Errorf("%s component (%d,%d) = %v out of [0,%v]", names[c], u, v, got, bounds[c])
				}
			}
		}
	}
}

func TestStructuralVector(t *testing.T) {
	g1, g2 := twoForumWorld()
	cfg := Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2}
	s := NewScorer(g1, g2, cfg)
	v1 := s.StructuralVector(1, 0)
	v2 := s.StructuralVector(2, 0)
	wantLen := 6 + cfg.Landmarks
	if len(v1) != wantLen || len(v2) != wantLen {
		t.Fatalf("structural vector lengths %d/%d, want %d", len(v1), len(v2), wantLen)
	}
	// Same user in structurally identical graphs: the graph-derived
	// dimensions (degree block 0-3 and landmark closeness 6+) must match;
	// the attribute dimensions (4, 5) depend on the differing texts.
	for i := range v1 {
		if i == 4 || i == 5 {
			continue
		}
		if math.Abs(v1[i]-v2[i]) > 1e-9 {
			t.Errorf("dim %d differs: %v vs %v", i, v1[i], v2[i])
		}
	}
	if v1[0] != float64(g1.Degree(0)) {
		t.Error("first dim must be the degree")
	}
}

func TestLandmarkClosenessDisconnected(t *testing.T) {
	// Isolated user: all closeness 0, similarity still well-defined.
	d := &corpus.Dataset{
		Name: "iso",
		Users: []corpus.User{
			{ID: 0, Name: "a", TrueIdentity: -1},
			{ID: 1, Name: "b", TrueIdentity: -1},
		},
		Threads: []corpus.Thread{
			{ID: 0, Board: "x", Starter: 0},
			{ID: 1, Board: "x", Starter: 1},
		},
		Posts: []corpus.Post{
			{ID: 0, User: 0, Thread: 0, Text: "alone in this thread"},
			{ID: 1, User: 1, Thread: 1, Text: "also alone here"},
		},
	}
	ex := stylometry.New()
	uda := features.Build(d, ex, features.Options{}).UDA()
	s := NewScorer(uda, uda, DefaultConfig())
	for u := 0; u < 2; u++ {
		for v := 0; v < 2; v++ {
			got := s.Score(u, v)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("Score(%d,%d) = %v on disconnected graph", u, v, got)
			}
		}
	}
}

// TestSyncAnonMatchesRebuild appends a node to the anonymized graph and
// checks SyncAnon produces the same scores a scorer built from scratch
// would, given the same landmark set (node-side BFS must agree with
// landmark-side BFS on an undirected graph).
func TestSyncAnonMatchesRebuild(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2})

	ex := stylometry.New()
	vecs := ex.ExtractAll([]string{"i definately have a terrible headache again"})
	u := g1.AppendNode(stylometry.UserAttributes(vecs), vecs)
	// Attach to the two existing landmarks (nodes 0 and 2) so a rebuilt
	// scorer pins the same landmark set and the comparison stays exact.
	g1.AddEdge(u, 0, 1)
	g1.AddEdge(u, 2, 1)
	if added := s.SyncAnon(); added != 1 {
		t.Fatalf("SyncAnon added %d, want 1", added)
	}
	if extra := s.SyncAnon(); extra != 0 {
		t.Fatalf("second SyncAnon added %d, want 0", extra)
	}

	// A derived scorer sharing the caches must see the extension too.
	rw := s.Reweighted(Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 2})
	fresh := NewScorer(g1, g2, Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 2})
	for v := 0; v < g2.NumNodes(); v++ {
		// The appended node leaves the top-2 degree ranking unchanged, so
		// the fresh scorer pins the same landmarks and must agree exactly.
		if got, want := rw.Score(u, v), fresh.Score(u, v); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Score(%d,%d) = %v, want %v", u, v, got, want)
		}
		if got, want := s.distanceSimSlow(u, v), fresh.distanceSimSlow(u, v); math.Abs(got-want) > 1e-12 {
			t.Fatalf("distance similarity (%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

// TestShardWindowParity proves a shard window scores bit-identically to
// the base scorer on its range — Score and every component — for every
// window of a small world, including one- and zero-width windows.
func TestShardWindowParity(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2})
	n2 := g2.NumNodes()
	for lo := 0; lo <= n2; lo++ {
		for hi := lo; hi <= n2; hi++ {
			w := s.Shard(lo, hi)
			if w.AuxUsers() != hi-lo {
				t.Fatalf("window [%d, %d) has %d aux users", lo, hi, w.AuxUsers())
			}
			for u := 0; u < g1.NumNodes(); u++ {
				for j := 0; j < hi-lo; j++ {
					v := lo + j
					if got, want := w.Score(u, j), s.Score(u, v); got != want {
						t.Fatalf("window [%d,%d): Score(%d,%d) = %v, want %v", lo, hi, u, j, got, want)
					}
					for c, hot := range oneHot(2) {
						if w.Reweighted(hot).Score(u, j) != s.componentSlow(c, u, v) {
							t.Fatalf("window [%d,%d): component %d mismatch at (%d,%d)", lo, hi, c, u, j)
						}
					}
				}
			}
		}
	}
}

// TestShardWindowStructuralVector checks side-2 structural vectors read
// through the window with global values.
func TestShardWindowStructuralVector(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2})
	w := s.Shard(1, 3)
	for j := 0; j < 2; j++ {
		got, want := w.StructuralVector(2, j), s.StructuralVector(2, 1+j)
		if len(got) != len(want) {
			t.Fatalf("vector lengths %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("local %d dim %d: %v != %v", j, i, got[i], want[i])
			}
		}
	}
}

// TestShardWindowSeesSyncAnon appends an anonymized node after windows
// were derived and checks SyncAnon through the base extends every window
// (the anon-side caches are shared by pointer).
func TestShardWindowSeesSyncAnon(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2})
	w := s.Shard(2, 4)

	ex := stylometry.New()
	vecs := ex.ExtractAll([]string{"a freshly ingested account posting about headaches"})
	u := g1.AppendNode(stylometry.UserAttributes(vecs), vecs)
	g1.AddEdge(u, 0, 1)
	if added := s.SyncAnon(); added != 1 {
		t.Fatalf("SyncAnon added %d, want 1", added)
	}
	for j := 0; j < 2; j++ {
		if got, want := w.Score(u, j), s.Score(u, 2+j); got != want {
			t.Fatalf("window score of appended user: %v, want %v", got, want)
		}
	}
}

// TestShardWindowGuards pins the misuse panics: sharding a shard, and
// reweighting a window to a different landmark count.
func TestShardWindowGuards(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2})
	w := s.Shard(0, 2)

	// Same-landmark reweight of a window is fine and stays windowed.
	rw := w.Reweighted(Config{C1: 1, C2: 0, C3: 0, Landmarks: 2})
	if rw.AuxUsers() != 2 {
		t.Fatalf("reweighted window has %d aux users, want 2", rw.AuxUsers())
	}

	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Shard of a shard", func() { w.Shard(0, 1) })
	mustPanic("landmark reweight of a window", func() { w.Reweighted(Config{C1: 1, Landmarks: 3}) })
	mustPanic("out-of-range window", func() { s.Shard(2, 9) })
}
