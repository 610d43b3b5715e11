package dehealth

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/similarity"
)

// TestIngestMatchesRebuild is the post-ingest contract: after any sequence
// of ingests, every scorer cache equals bit for bit what NewScorer builds
// over the grown graphs with the same landmarks, and QueryBatch answers old
// and new users exactly as a pipeline built from scratch does. It runs on a
// dense (WebMD-like) and a skewed (HealthBoards-like, heavier-tailed) world,
// each fresh and mmap-loaded through LoadWorld; a write into the read-only
// mapping would crash the loaded runs. The sequence is an isolated account,
// then a bridge account that joins a landmark's thread to a thread whose
// participants sit more than two hops from that landmark (shortening their
// distances and growing old neighbours' NCS rows), then a batch of two
// accounts that co-post with the bridge and each other.
func TestIngestMatchesRebuild(t *testing.T) {
	worlds := map[string]func(*World) *Dataset{
		"dense":  func(w *World) *Dataset { return w.WebMD },
		"skewed": func(w *World) *Dataset { return w.HB },
	}
	for name, forum := range worlds {
		for _, loaded := range []bool{false, true} {
			label := name + "/fresh"
			if loaded {
				label = name + "/mmap"
			}
			t.Run(label, func(t *testing.T) {
				w := GenerateWorld(WorldConfig{WebMDUsers: 300, HBUsers: 300, Seed: 47})
				split := SplitClosedWorld(forum(w), 0.5, 48)
				opt := snapOptions(2)
				pw := PrepareWorld(split.Anon, split.Aux, opt)
				if loaded {
					path := filepath.Join(t.TempDir(), "world.snap")
					if err := pw.Snapshot(path); err != nil {
						t.Fatal(err)
					}
					var err error
					if pw, err = LoadWorld(path, LoadOptions{}); err != nil {
						t.Fatal(err)
					}
					opt = pw.PreparedOptions()
				}
				checkIngestContract(t, pw, opt)
			})
		}
	}
}

func checkIngestContract(t *testing.T, pw *PreparedWorld, opt Options) {
	t.Helper()
	cfg := opt.normalized().simConfig()
	if _, err := pw.QueryBatch([]int{0}, 5, opt); err != nil { // the pipeline whose caches ingest syncs
		t.Fatal(err)
	}
	ingest := func(batch ...UserPosts) {
		t.Helper()
		if _, err := pw.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		checkMatchesRebuild(t, pw, opt, cfg)
	}
	account := func(name string, threads ...int) UserPosts {
		up := UserPosts{User: corpus.User{Name: name, TrueIdentity: -1}}
		for i, th := range threads {
			up.Posts = append(up.Posts, IngestPost{Thread: th, Text: pw.Aux.Posts[i].Text})
		}
		return up
	}

	ingest(account("loner", NewThread))

	// The bridge: the smallest thread of the top landmark and the smallest
	// thread all of whose participants are more than two hops from it. The
	// contract compares against a rebuild with the same landmarks, so every
	// other participant must stay below the last landmark's degree once the
	// bridge (and, in the far thread, the pair) add their edges; so must the
	// new accounts, which the smallest threads keep small.
	p := pw.pipeline(cfg)
	parts := p.Scorer.Parts()
	h, landmark := len(parts.Landmarks), parts.Landmarks[0]
	last := p.G1.Degree(parts.Landmarks[h-1])
	below := func(bump int) func(int) bool {
		return func(u int) bool {
			return u == landmark || !slices.Contains(parts.Landmarks, u) && p.G1.Degree(u)+bump < last
		}
	}
	participants := make([][]int, len(pw.Anon.Threads))
	for _, post := range pw.Anon.Posts {
		if !slices.Contains(participants[post.Thread], post.User) {
			participants[post.Thread] = append(participants[post.Thread], post.User)
		}
	}
	allOf := func(us []int, ok func(int) bool) bool {
		return !slices.ContainsFunc(us, func(u int) bool { return !ok(u) })
	}
	near, far := -1, -1
	for th, us := range participants {
		if slices.Contains(us, landmark) && allOf(us, below(1)) && (near < 0 || len(us) < len(participants[near])) {
			near = th
		}
		if len(us) > 0 && allOf(us, below(3)) && allOf(us, func(u int) bool { return parts.Close[u*h] < 1.0/3 }) &&
			(far < 0 || len(us) < len(participants[far])) {
			far = th
		}
	}
	if near < 0 || far < 0 {
		t.Fatalf("no bridge threads: landmark thread %d, far thread %d", near, far)
	}
	n0 := p.G1.NumNodes()
	closeBefore, offBefore := slices.Clone(parts.Close), slices.Clone(parts.NCSOff)
	ingest(account("bridge", near, far))
	after := p.Scorer.Parts()
	if slices.Equal(closeBefore, after.Close[:n0*h]) {
		t.Fatal("the bridge account lowered no old node's landmark distance")
	}
	grew := false
	for u := 0; u < n0; u++ {
		grew = grew || after.NCSOff[u+1]-after.NCSOff[u] > offBefore[u+1]-offBefore[u]
	}
	if !grew {
		t.Fatal("the bridge account grew no old node's NCS row")
	}

	ingest(account("pair-1", far), account("pair-2", far, NewThread))
}

// checkMatchesRebuild compares the world's synced scorer caches and
// answers with a scorer and pipeline built from scratch over its grown
// stores.
func checkMatchesRebuild(t *testing.T, pw *PreparedWorld, opt Options, cfg similarity.Config) {
	t.Helper()
	p := pw.pipeline(cfg)
	got, want := p.Scorer.Parts(), similarity.NewScorer(p.G1, p.G2, cfg).Parts()
	if !slices.Equal(got.Landmarks, want.Landmarks) {
		t.Fatalf("a rebuild pins landmarks %v, the synced scorer %v: the ingests moved the top-degree set", want.Landmarks, got.Landmarks)
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Fatalf("scorer cache %s differs from a rebuild", gv.Type().Field(i).Name)
		}
	}

	anon, _ := pw.Sizes()
	users := make([]int, anon)
	for u := range users {
		users[u] = u
	}
	answers, err := pw.QueryBatch(users, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewShardedPipelineFromStore(pw.anonStore, pw.auxStore, cfg, pw.shards)
	sameCandidates(t, "after ingest", ref.QueryBatch(users, 5, 0), answers)
}

// TestIngestIntoMappedSlice ingests the same accounts into a full world and
// into an mmap-loaded routed slice of it: the slice's ingests must never
// write the read-only mapping (a write would crash the test), and its
// anonymized-side caches, repaired the same way, must equal the full
// world's bit for bit.
func TestIngestIntoMappedSlice(t *testing.T) {
	pw, opt := snapWorld(t, 300, 47, 2)
	paths, err := pw.SnapshotSlices(filepath.Join(t.TempDir(), "world"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := LoadWorld(paths[1], LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sopt := sw.PreparedOptions()
	for _, w := range []struct {
		pw  *PreparedWorld
		opt Options
	}{{pw, opt}, {sw, sopt}} {
		if _, err := w.pw.QueryBatch([]int{0}, 5, w.opt); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := w.pw.IngestUser("late", []IngestPost{
				{Thread: i, Text: pw.Aux.Posts[i].Text},
				{Thread: NewThread, Text: pw.Aux.Posts[i+1].Text},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	full := pw.pipeline(opt.normalized().simConfig()).Scorer.Parts()
	slice := sw.pipeline(sopt.normalized().simConfig()).Scorer.Parts()
	for name, pair := range map[string][2][]float64{
		"NCS":       {full.NCS, slice.NCS},
		"NCSNorm":   {full.NCSNorm, slice.NCSNorm},
		"Close":     {full.Close, slice.Close},
		"CloseNorm": {full.CloseNorm, slice.CloseNorm},
		"Wcl":       {full.Wcl, slice.Wcl},
		"WclNorm":   {full.WclNorm, slice.WclNorm},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("slice cache %s differs from the full world's after the same ingests", name)
		}
	}
	if !slices.Equal(full.NCSOff, slice.NCSOff) || !slices.Equal(full.Landmarks, slice.Landmarks) {
		t.Fatal("slice NCS offsets or landmarks differ from the full world's")
	}
}
