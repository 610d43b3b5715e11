package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/ml"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// The independent reference of the Top-K DA phase. Production selects
// candidates with bounded heaps over the batched range-scan kernel — the
// offline phase and the served queries share that one engine, so comparing
// them with each other proves nothing. The oracle shares no code with it:
// rows come from the naive per-pair reference (ScoreSlow), selection is a
// full sort, and rank and extremes re-walk the materialized row.

// oracleRow builds anonymized user u's whole similarity row pair by pair
// from the naive reference kernel.
func oracleRow(p *Pipeline, u int) []float64 {
	row := make([]float64, p.G2.NumNodes())
	for v := range row {
		row[v] = p.Scorer.ScoreSlow(u, v)
	}
	return row
}

// topCandidates returns the k highest-scoring columns of row, sorted
// descending (ties by smaller index).
func topCandidates(row []float64, k int) []Candidate {
	if k > len(row) {
		k = len(row)
	}
	idx := make([]int, len(row))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection: simple full sort is fine at these sizes and keeps
	// ordering deterministic.
	sort.Slice(idx, func(a, b int) bool {
		if row[idx[a]] != row[idx[b]] {
			return row[idx[a]] > row[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := make([]Candidate, k)
	for i := 0; i < k; i++ {
		out[i] = Candidate{User: idx[i], Score: row[idx[i]]}
	}
	return out
}

// rankOf returns the 1-based rank of column v in row (1 = highest score;
// ties count scores strictly greater plus earlier-index equal scores, which
// matches the deterministic candidate ordering).
func rankOf(row []float64, v int) int {
	r := 1
	for j, s := range row {
		if s > row[v] || (s == row[v] && j < v) {
			r++
		}
	}
	return r
}

func rowExtremes(row []float64) (mx, mn float64) {
	mx, mn = row[0], row[0]
	for _, s := range row[1:] {
		if s > mx {
			mx = s
		}
		if s < mn {
			mn = s
		}
	}
	return mx, mn
}

// oracleTopK computes every field of TopK(k, DirectSelection, truth) the
// slow way.
func oracleTopK(p *Pipeline, k int, truth map[int]int) *TopKResult {
	n1 := p.G1.NumNodes()
	res := &TopKResult{
		K:          k,
		Candidates: make([][]Candidate, n1),
		TrueRank:   make([]int, n1),
		MeanScore:  make([]float64, n1),
		RowMin:     make([]float64, n1),
	}
	for u := 0; u < n1; u++ {
		row := oracleRow(p, u)
		cs := topCandidates(row, k)
		res.Candidates[u] = cs
		if len(row) == 0 {
			continue
		}
		var sum float64
		for _, c := range cs {
			sum += c.Score
		}
		res.MeanScore[u] = sum / float64(len(cs))
		mx, mn := rowExtremes(row)
		res.RowMin[u] = mn
		if u == 0 || mx > res.MaxScore {
			res.MaxScore = mx
		}
		if u == 0 || mn < res.MinScore {
			res.MinScore = mn
		}
		if tv, ok := truth[u]; ok {
			res.TrueRank[u] = rankOf(row, tv)
		}
	}
	return res
}

// assertMatchesOracle checks p's Top-K phase against the oracle bit for
// bit: every field under direct selection, and the fields graph matching
// takes from the same pass (ranks, row minima, score extremes).
func assertMatchesOracle(t *testing.T, p *Pipeline, k int, truth map[int]int) {
	t.Helper()
	want := oracleTopK(p, k, truth)
	assertTopKEqual(t, want, p.TopK(k, DirectSelection, truth))
	for u, cs := range want.Candidates {
		assertSameCandidates(t, u, p.QueryBatch([]int{u}, k, 0)[0], cs)
	}
	m := p.TopK(k, GraphMatchingSelection, truth)
	if m.MaxScore != want.MaxScore || m.MinScore != want.MinScore {
		t.Fatalf("matching extremes (%v,%v), oracle (%v,%v)", m.MaxScore, m.MinScore, want.MaxScore, want.MinScore)
	}
	for u := range want.TrueRank {
		if m.TrueRank[u] != want.TrueRank[u] || m.RowMin[u] != want.RowMin[u] {
			t.Fatalf("matching user %d: rank %d row-min %v, oracle %d %v", u, m.TrueRank[u], m.RowMin[u], want.TrueRank[u], want.RowMin[u])
		}
	}
}

// withTwins returns d with every user duplicated — same posts, same
// threads — as user id+|users|: twin columns score identically under
// attribute-only weights, which makes every row tie-heavy.
func withTwins(d *corpus.Dataset) *corpus.Dataset {
	out := &corpus.Dataset{Name: d.Name, Threads: d.Threads}
	out.Users = append(out.Users, d.Users...)
	out.Posts = append(out.Posts, d.Posts...)
	for _, u := range d.Users {
		u.ID += len(d.Users)
		u.Name += "-twin"
		out.Users = append(out.Users, u)
	}
	for _, post := range d.Posts {
		post.ID += len(d.Posts)
		post.User += len(d.Users)
		out.Posts = append(out.Posts, post)
	}
	return out
}

// assertServedMatchesRows checks the served queries of users — one by one
// and as one batch — against full-sort selection over their oracle rows.
func assertServedMatchesRows(t *testing.T, p *Pipeline, users []int, k int) {
	t.Helper()
	batch := p.QueryBatch(users, k, 0)
	for i, u := range users {
		want := topCandidates(oracleRow(p, u), k)
		assertSameCandidates(t, u, p.QueryBatch([]int{u}, k, 0)[0], want)
		assertSameCandidates(t, u, batch[i], want)
	}
}

// TestTopKMatchesOracle is the Top-K phase's correctness table: closed-
// and open-world splits plus a tie-heavy world, at shard counts from one
// to beyond |V2| and K from one to beyond |V2|, before and after users are
// appended behind the live pipeline.
//
// The rows with a stride hold worlds whose shards span several score
// blocks — the only place the served scan's floors engage (a floor is the
// heap's k-th score at a block boundary) — and check the served queries of
// every stride-th user (the offline phase observes whole rows and never
// filters): a dense world where the filter runs, its tie-heavy twin where
// scores land exactly on the floor, the same world under a negative weight
// (the filter must switch itself off through PruneSafe), and, with no
// split, two sparse graphs over an id space too wide for bitsets (the
// filter has nothing to read). K beyond the window never fills a heap, so
// those columns score every row.
func TestTopKMatchesOracle(t *testing.T) {
	d := fixedForum(24, 8, 71)
	paper := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
	attrOnly := similarity.Config{C3: 1, Landmarks: 5}
	closed := corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(72)))
	dense := corpus.SplitClosedWorld(fixedForum(640, 2, 81), 0.5, rand.New(rand.NewSource(82)))
	twinned := func(s *corpus.Split) *corpus.Split {
		out := &corpus.Split{Anon: s.Anon, Aux: withTwins(s.Aux), TrueMapping: map[int]int{}}
		for u, v := range s.TrueMapping {
			if u%2 == 0 {
				v += s.Aux.NumUsers() // the later twin: its equal-scored sibling ranks first
			}
			out.TrueMapping[u] = v
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		split  *corpus.Split // nil: SparseAttrUDA graphs, 8 attributes per user over a 16,384-id space
		cfg    similarity.Config
		twins  bool
		stride int // > 0: a multi-block world, checked through the served queries of every stride-th user
	}{
		{name: "closed", split: closed, cfg: paper},
		{name: "open", split: corpus.OpenWorldOverlap(d, 0.5, rand.New(rand.NewSource(73))), cfg: paper},
		{name: "twins", split: twinned(closed), cfg: attrOnly, twins: true},
		{name: "dense", split: dense, cfg: paper, stride: 23},
		{name: "dense-twins", split: twinned(dense), cfg: attrOnly, twins: true, stride: 23},
		{name: "negative-weight", split: dense, cfg: similarity.Config{C1: -0.05, C2: 0.05, C3: 0.9, Landmarks: 5}, stride: 23},
		{name: "wide-ids", cfg: paper, stride: 23},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n2 := 1300
			if tc.split != nil {
				n2 = tc.split.Aux.NumUsers()
			}
			shardCounts, ks := []int{1, 2, 3, n2 + 5}, []int{1, 3, 10, n2 + 5}
			if tc.stride > 0 {
				shardCounts, ks = []int{1, 2}, []int{1, 10, n2 + 5}
				if n2 <= 512 {
					t.Fatalf("%d auxiliary users fit one score block", n2)
				}
			}
			for _, shards := range shardCounts {
				var p *Pipeline
				var appendLate func()
				if tc.split == nil {
					g1, g2 := synth.SparseAttrUDA(40, 5, 16384, 91), synth.SparseAttrUDA(n2, 5, 16384, 92)
					p = withShards(&Pipeline{G1: g1, G2: g2, Scorer: similarity.NewScorer(g1, g2, tc.cfg)}, shards)
					appendLate = func() {
						for i := 0; i < 2; i++ {
							g1.AddEdge(g1.AppendNode(g2.Attrs[i], [][]float64{{1}}), i, 1)
						}
					}
				} else {
					anonS, auxS := features.BuildPair(tc.split.Anon, tc.split.Aux, 50, features.Options{})
					p = NewShardedPipelineFromStore(anonS, auxS, tc.cfg, shards)
					appendLate = func() {
						if _, err := anonS.Append([]features.UserPosts{
							{User: corpus.User{Name: "late-1", TrueIdentity: -1}, Posts: []features.IncomingPost{
								{Thread: 0, Text: tc.split.Aux.Posts[0].Text},
								{Thread: 1, Text: tc.split.Aux.Posts[1].Text},
							}},
							{User: corpus.User{Name: "late-2", TrueIdentity: -1}, Posts: []features.IncomingPost{
								{Thread: features.NewThread, Text: tc.split.Aux.Posts[2].Text},
							}},
						}); err != nil {
							t.Fatal(err)
						}
					}
				}
				if tc.name == "negative-weight" && p.Scorer.PruneSafe() {
					t.Fatalf("PruneSafe() under %+v", tc.cfg)
				}
				if tc.twins {
					for u := 0; u < p.G1.NumNodes(); u += max(tc.stride, 1) {
						if row := oracleRow(p, u); row[0] != row[n2/2] {
							t.Fatalf("twin columns 0 and %d of row %d score %v and %v; the world is not tie-heavy", n2/2, u, row[0], row[n2/2])
						}
					}
				}
				// The same pipeline answers before and after the append: only
				// SyncAppended touches it in between.
				check := func() {
					var users []int
					for u := p.G1.NumNodes() - 1; u >= 0 && tc.stride > 0; u -= tc.stride { // from the last user down: covers the appended ones
						users = append(users, u)
					}
					for _, k := range ks {
						if tc.stride > 0 {
							assertServedMatchesRows(t, p, users, k)
						} else {
							assertMatchesOracle(t, p, k, tc.split.TrueMapping)
						}
					}
				}
				check()
				appendLate()
				if added := p.SyncAppended(); added != 2 {
					t.Fatalf("SyncAppended added %d, want 2", added)
				}
				check()
			}
		})
	}
}

// TestMatchingMatrixMatchesScore pins the matrix graph matching selects
// from — filled block by block from the scan's observer — to the naive
// reference, on an unsharded and a sharded pipeline.
func TestMatchingMatrixMatchesScore(t *testing.T) {
	split := world(t, 16, 6, 0.5, 75)
	for _, shards := range []int{1, 3} {
		p := withShards(queryPipeline(split, 5), shards)
		rows := make([][]float64, p.G1.NumNodes())
		for u := range rows {
			rows[u] = make([]float64, p.G2.NumNodes())
		}
		p.topKDirect(1, nil, rows)
		for u, row := range rows {
			for v, got := range row {
				if want := p.Scorer.ScoreSlow(u, v); got != want {
					t.Fatalf("shards=%d matrix[%d][%d] = %v, ScoreSlow %v", shards, u, v, got, want)
				}
			}
		}
	}
}

// TestTopKDegenerateWorld runs the offline phase where the served path
// already answers: with no auxiliary users every candidate list is empty,
// ranks are 0 and the extremes are zero, under both selection methods.
func TestTopKDegenerateWorld(t *testing.T) {
	split := world(t, 6, 4, 0.5, 77)
	anonS, auxS := features.BuildPair(split.Anon, &corpus.Dataset{}, 50, features.Options{})
	p := NewPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5})
	if got := p.QueryBatch([]int{0}, 5, 0)[0]; len(got) != 0 {
		t.Fatalf("a lone query on an empty auxiliary side returned %v", got)
	}
	for _, sel := range []SelectionMethod{DirectSelection, GraphMatchingSelection} {
		tk := p.TopK(5, sel, nil)
		if tk.MaxScore != 0 || tk.MinScore != 0 {
			t.Fatalf("selection %d: extremes (%v,%v), want zero", sel, tk.MaxScore, tk.MinScore)
		}
		for u, cs := range tk.Candidates {
			if len(cs) != 0 || tk.TrueRank[u] != 0 || tk.RowMin[u] != 0 || tk.MeanScore[u] != 0 {
				t.Fatalf("selection %d user %d: candidates %v rank %d row-min %v mean %v, want all empty",
					sel, u, cs, tk.TrueRank[u], tk.RowMin[u], tk.MeanScore[u])
			}
		}
	}
}

// TestCheckMatchingSize exercises the graph-matching refusal with sizes no
// test could allocate: the paper's WebMD population must be refused with
// the typed error, and the boundary sits exactly at maxMatchingCells.
func TestCheckMatchingSize(t *testing.T) {
	for _, tc := range []struct {
		n1, n2 int
		refuse bool
	}{
		{0, 0, false},
		{0, 1 << 40, false},
		{12, 12, false},
		{1 << 14, 1 << 14, false}, // exactly 2^28 cells
		{1<<14 + 1, 1 << 14, true},
		{1, maxMatchingCells + 1, true},
		{89_393, 89_393, true},   // the paper's WebMD crawl
		{1 << 40, 1 << 40, true}, // n1*n2 overflows int64
	} {
		err := checkMatchingSize(tc.n1, tc.n2)
		if tc.refuse != errors.Is(err, ErrMatchingTooLarge) || tc.refuse != (err != nil) {
			t.Errorf("checkMatchingSize(%d, %d) = %v, want refusal %v", tc.n1, tc.n2, err, tc.refuse)
		}
	}
}

// TestStylometryBaselineMeanVerification pins the baseline's
// mean-verification to the oracle on a 1-shard and a 3-shard world whose
// rows span several score blocks: the unverified baseline names each
// user's best auxiliary user, and the verified one must keep exactly those
// whose ScoreSlow score passes verifyMean against the row's ScoreSlow sum,
// taken in ascending auxiliary order, and minimum. The margins must both
// accept and reject someone, or the check proves nothing.
func TestStylometryBaselineMeanVerification(t *testing.T) {
	split := world(t, 160, 4, 0.5, 79)
	base := pipelineFor(split)
	n2 := base.G2.NumNodes()
	if n2 <= 2*32 {
		t.Fatalf("%d auxiliary users fit two score blocks", n2)
	}
	rows := make([][]float64, base.G1.NumNodes())
	sums, mins := make([]float64, len(rows)), make([]float64, len(rows))
	for u := range rows {
		rows[u] = oracleRow(base, u)
		for _, s := range rows[u] {
			sums[u] += s
		}
		_, mins[u] = rowExtremes(rows[u])
	}
	newClf := func() ml.Classifier { return ml.NewKNN(3) }
	accepted, rejected := 0, 0
	for _, shards := range []int{1, 3} {
		p := withShards(base, shards)
		plain, err := p.StylometryBaseline(RefineOptions{NewClassifier: newClf})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []float64{0.05, 0.2} {
			got, err := p.StylometryBaseline(RefineOptions{NewClassifier: newClf, Scheme: MeanVerification, R: r})
			if err != nil {
				t.Fatal(err)
			}
			for u, best := range plain.Mapping {
				want := best
				if best >= 0 {
					if verifyMean(rows[u][best], sums[u]/float64(n2), mins[u], r) {
						accepted++
					} else {
						want = -1
						rejected++
					}
				}
				if got.Mapping[u] != want {
					t.Fatalf("shards=%d r=%v user %d: mapped to %d, oracle %d", shards, r, u, got.Mapping[u], want)
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("the oracle accepted %d and rejected %d users; the margins must do both", accepted, rejected)
	}
}
