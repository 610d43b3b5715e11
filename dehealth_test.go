package dehealth

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateWorld(t *testing.T) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 100, HBUsers: 150, Seed: 3})
	if w.WebMD.NumUsers() != 100 || w.HB.NumUsers() != 150 {
		t.Fatalf("world sizes %d/%d", w.WebMD.NumUsers(), w.HB.NumUsers())
	}
	if err := w.WebMD.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Directory.Profiles) == 0 {
		t.Error("no external profiles")
	}
}

func TestGenerateWorldDeterministic(t *testing.T) {
	a := GenerateWorld(WorldConfig{WebMDUsers: 50, HBUsers: 60, Seed: 9})
	b := GenerateWorld(WorldConfig{WebMDUsers: 50, HBUsers: 60, Seed: 9})
	if a.WebMD.Posts[0].Text != b.WebMD.Posts[0].Text {
		t.Error("world generation not deterministic")
	}
}

func TestSplitAndSaveLoad(t *testing.T) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 60, HBUsers: 60, Seed: 4})
	split := SplitClosedWorld(w.WebMD, 0.5, 5)
	if split.Anon.NumUsers() == 0 || split.Aux.NumUsers() == 0 {
		t.Fatal("empty split")
	}
	path := filepath.Join(t.TempDir(), "anon.json")
	if err := split.Anon.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPosts() != split.Anon.NumPosts() {
		t.Error("roundtrip lost posts")
	}
}

func TestAttackEndToEnd(t *testing.T) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 80, HBUsers: 80, Seed: 6})
	split := SplitClosedWorld(w.WebMD, 0.5, 7)
	opt := DefaultOptions()
	opt.K = 5
	opt.Classifier = KNN
	opt.MaxBigrams = 50
	res, err := AttackWithTruth(split.Anon, split.Aux, opt, split.TrueMapping)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping) != split.Anon.NumUsers() {
		t.Fatalf("mapping size %d", len(res.Mapping))
	}
	// Some identifications land; attack is better than random.
	correct, total := 0, 0
	for u, tv := range split.TrueMapping {
		total++
		if res.Mapping[u] == tv {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("no overlap in split")
	}
	random := float64(total) / float64(split.Aux.NumUsers()*total)
	if acc := float64(correct) / float64(total); acc <= random {
		t.Errorf("accuracy %v not better than random %v", acc, random)
	}
	if res.TopK == nil || res.Pipeline == nil {
		t.Error("result missing artifacts")
	}
}

func TestAttackOptionValidation(t *testing.T) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 30, HBUsers: 30, Seed: 8})
	split := SplitClosedWorld(w.WebMD, 0.5, 9)
	if _, err := Attack(split.Anon, split.Aux, Options{Classifier: "bogus"}); err == nil {
		t.Error("bogus classifier accepted")
	}
	if _, err := Attack(split.Anon, split.Aux, Options{Scheme: "bogus"}); err == nil {
		t.Error("bogus scheme accepted")
	}
	// Ground truth naming an auxiliary user that does not exist used to
	// crash a Top-K worker goroutine; it is the caller's input, so an error.
	bad := map[int]int{0: split.Aux.NumUsers()}
	if _, err := AttackWithTruth(split.Anon, split.Aux, Options{Classifier: KNN}, bad); err == nil || !strings.Contains(err.Error(), "true mapping 0 ->") {
		t.Errorf("out-of-range true mapping: err = %v, want one naming the pair", err)
	}
}

func TestAttackSchemes(t *testing.T) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 60, HBUsers: 60, Seed: 10})
	split := SplitOpenWorld(w.WebMD, 0.5, 11)
	for _, scheme := range []Scheme{Closed, FalseAddition, MeanVerification} {
		opt := DefaultOptions()
		opt.K = 5
		opt.Classifier = KNN
		opt.Scheme = scheme
		opt.MaxBigrams = 50
		opt.Filter = true
		res, err := Attack(split.Anon, split.Aux, opt)
		if err != nil {
			t.Fatalf("scheme %s: %v", scheme, err)
		}
		for _, v := range res.Mapping {
			if v < -1 || v >= split.Aux.NumUsers() {
				t.Fatalf("scheme %s: mapping out of range: %d", scheme, v)
			}
		}
	}
}

func TestPrepareWorldParity(t *testing.T) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 60, HBUsers: 60, Seed: 21})
	split := SplitClosedWorld(w.WebMD, 0.5, 22)
	opt := DefaultOptions()
	opt.K = 5
	opt.Classifier = KNN
	opt.MaxBigrams = 50

	oneShot, err := AttackWithTruth(split.Anon, split.Aux, opt, split.TrueMapping)
	if err != nil {
		t.Fatal(err)
	}
	pw := PrepareWorld(split.Anon, split.Aux, opt)
	prepared, err := pw.AttackWithTruth(opt, split.TrueMapping)
	if err != nil {
		t.Fatal(err)
	}
	for u := range oneShot.Mapping {
		if oneShot.Mapping[u] != prepared.Mapping[u] {
			t.Fatalf("mapping[%d]: one-shot %d != prepared %d", u, oneShot.Mapping[u], prepared.Mapping[u])
		}
	}
	for u := range oneShot.TopK.TrueRank {
		if oneShot.TopK.TrueRank[u] != prepared.TopK.TrueRank[u] {
			t.Fatalf("true rank[%d]: one-shot %d != prepared %d", u, oneShot.TopK.TrueRank[u], prepared.TopK.TrueRank[u])
		}
	}
}

func TestPreparedWorldConfigGrid(t *testing.T) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 50, HBUsers: 50, Seed: 23})
	split := SplitOpenWorld(w.WebMD, 0.5, 24)
	base := DefaultOptions()
	base.MaxBigrams = 50
	pw := PrepareWorld(split.Anon, split.Aux, base)

	// Sweep K, classifier and scheme over one prepared world; every
	// configuration must run and yield a well-formed mapping.
	for _, k := range []int{3, 5} {
		for _, scheme := range []Scheme{Closed, MeanVerification} {
			opt := base
			opt.K = k
			opt.Classifier = KNN
			opt.Scheme = scheme
			res, err := pw.AttackWithTruth(opt, split.TrueMapping)
			if err != nil {
				t.Fatalf("K=%d scheme=%s: %v", k, scheme, err)
			}
			if len(res.Mapping) != split.Anon.NumUsers() {
				t.Fatalf("K=%d scheme=%s: mapping size %d", k, scheme, len(res.Mapping))
			}
			for _, v := range res.Mapping {
				if v < -1 || v >= split.Aux.NumUsers() {
					t.Fatalf("K=%d scheme=%s: mapping out of range: %d", k, scheme, v)
				}
			}
		}
	}
	// Re-weighting the similarity must also be servable from the cache.
	opt := base
	opt.C1, opt.C2, opt.C3 = 0.3, 0.3, 0.4
	opt.Classifier = KNN
	if _, err := pw.Attack(opt); err != nil {
		t.Fatalf("re-weighted attack: %v", err)
	}
	bad := base
	bad.Classifier = "bogus"
	if _, err := pw.Attack(bad); err == nil {
		t.Error("bogus classifier accepted by prepared world")
	}
}

func TestPrepareWorldWorkersIrrelevant(t *testing.T) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 40, HBUsers: 40, Seed: 25})
	split := SplitClosedWorld(w.WebMD, 0.5, 26)
	opt := DefaultOptions()
	opt.K = 3
	opt.Classifier = KNN
	opt.MaxBigrams = 50

	serial := opt
	serial.Workers = 1
	parallel := opt
	parallel.Workers = 0 // all CPUs

	a, err := PrepareWorld(split.Anon, split.Aux, serial).AttackWithTruth(serial, split.TrueMapping)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrepareWorld(split.Anon, split.Aux, parallel).AttackWithTruth(parallel, split.TrueMapping)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Mapping {
		if a.Mapping[u] != b.Mapping[u] {
			t.Fatalf("mapping[%d]: serial %d != parallel %d", u, a.Mapping[u], b.Mapping[u])
		}
	}
}

func TestLinkageFacade(t *testing.T) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 400, HBUsers: 400, Seed: 12})
	res := Linkage(w.WebMD, w.Directory)
	if len(res.NameLinks) == 0 {
		t.Error("NameLink found nothing at this scale")
	}
	if len(res.Dossiers) == 0 {
		t.Error("no dossiers aggregated")
	}
	// Links reference valid users/profiles.
	for _, l := range append(res.AvatarLinks, res.NameLinks...) {
		if l.User < 0 || l.User >= w.WebMD.NumUsers() {
			t.Fatalf("link user out of range: %d", l.User)
		}
		if l.Profile < 0 || l.Profile >= len(w.Directory.Profiles) {
			t.Fatalf("link profile out of range: %d", l.Profile)
		}
	}
}
