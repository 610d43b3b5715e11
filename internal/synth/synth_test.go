package synth

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/graph"
)

func genForum(users int, seed int64, cfg ForumConfig) *corpus.Dataset {
	u := NewUniverse(users+users/2, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := Members(u, users, rng)
	return Generate(cfg, u, members)
}

func TestWebMDCalibration(t *testing.T) {
	d := genForum(1500, 7, WebMDLike(1500, 9))
	if err := d.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
	// Fig.1 headline: 87.3% of users have < 5 posts.
	if got := d.FractionUsersWithFewerThan(5); math.Abs(got-0.873) > 0.05 {
		t.Errorf("frac <5 posts = %v, want 0.873 +- 0.05", got)
	}
	// Fig.2 headline: mean post length 127.59 words.
	if got := d.MeanPostLengthWords(); math.Abs(got-127.59) > 20 {
		t.Errorf("mean post length = %v, want 127.59 +- 20", got)
	}
	// Posts-per-user mean near 5.66 (tail-sensitive; loose band).
	mean := float64(d.NumPosts()) / float64(d.NumUsers())
	if mean < 3 || mean > 9 {
		t.Errorf("mean posts/user = %v, want in [3, 9]", mean)
	}
}

func TestHBCalibration(t *testing.T) {
	d := genForum(1500, 11, HBLike(1500, 13))
	if got := d.FractionUsersWithFewerThan(5); math.Abs(got-0.754) > 0.06 {
		t.Errorf("frac <5 posts = %v, want 0.754 +- 0.06", got)
	}
	if got := d.MeanPostLengthWords(); math.Abs(got-147.24) > 22 {
		t.Errorf("mean post length = %v, want 147.24 +- 22", got)
	}
	mean := float64(d.NumPosts()) / float64(d.NumUsers())
	if mean < 7 || mean > 18 {
		t.Errorf("mean posts/user = %v, want in [7, 18]", mean)
	}
	// HB exposes locations for most users.
	withLoc := 0
	for _, u := range d.Users {
		if u.Location != "" {
			withLoc++
		}
	}
	if frac := float64(withLoc) / float64(d.NumUsers()); math.Abs(frac-0.7) > 0.08 {
		t.Errorf("location fraction = %v, want ~0.7", frac)
	}
}

func TestGraphShape(t *testing.T) {
	d := genForum(800, 3, WebMDLike(800, 5))
	g := graph.BuildCorrelation(d)
	// Appendix B: low average degree, disconnected graph.
	if avg := g.AverageDegree(); avg > 30 {
		t.Errorf("average degree %v too high for the paper's sparse shape", avg)
	}
	if _, comps := g.Components(); comps < 5 {
		t.Errorf("components = %d; the graph must be disconnected", comps)
	}
}

func TestDeterminism(t *testing.T) {
	a := genForum(200, 21, WebMDLike(200, 23))
	b := genForum(200, 21, WebMDLike(200, 23))
	if !reflect.DeepEqual(a, b) {
		t.Error("generation is not deterministic for a fixed seed")
	}
	c := genForum(200, 22, WebMDLike(200, 23))
	if reflect.DeepEqual(a.Posts, c.Posts) {
		t.Error("different universe seeds produced identical posts")
	}
}

func TestFixedPosts(t *testing.T) {
	cfg := WebMDLike(30, 3)
	cfg.FixedPosts = 7
	d := genForum(30, 1, cfg)
	counts := map[int]int{}
	for _, p := range d.Posts {
		counts[p.User]++
	}
	for u, n := range counts {
		if n != 7 {
			t.Errorf("user %d has %d posts, want 7", u, n)
		}
	}
	if len(counts) != 30 {
		t.Errorf("%d users posted, want 30", len(counts))
	}
}

func TestAuthorStyleConsistency(t *testing.T) {
	// The same person generates posts with the same habitual misspellings;
	// different persons mostly do not share them.
	u := NewUniverse(2, 5)
	p0, p1 := u.Persons[0], u.Persons[1]
	if len(p0.Profile.Misspellings) == 0 {
		t.Fatal("profile has no misspellings")
	}
	g0 := &textGen{p: p0.Profile, rng: rand.New(rand.NewSource(1))}
	g1 := &textGen{p: p1.Profile, rng: rand.New(rand.NewSource(2))}
	text0, text1 := "", ""
	for i := 0; i < 30; i++ {
		text0 += " " + g0.Post(boards[p0.Profile.Boards[0]], 150)
		text1 += " " + g1.Post(boards[p1.Profile.Boards[0]], 150)
	}
	shared0 := 0
	for _, wrong := range p0.Profile.Misspellings {
		if strings.Contains(text0, wrong) {
			shared0++
		}
	}
	if shared0 == 0 {
		t.Error("author's habitual misspellings never appear in their posts")
	}
	_ = text1
}

func TestUniverseIdentities(t *testing.T) {
	u := NewUniverse(500, 9)
	if len(u.Persons) != 500 {
		t.Fatalf("persons = %d", len(u.Persons))
	}
	for i, p := range u.Persons {
		if p.ID != i {
			t.Fatalf("person %d has id %d", i, p.ID)
		}
		if p.First == "" || p.Last == "" || p.City == "" || p.Username == "" {
			t.Fatalf("person %d incomplete: %+v", i, p)
		}
		if p.BirthYear < 1940 || p.BirthYear > 2000 {
			t.Fatalf("person %d birth year %d", i, p.BirthYear)
		}
		if p.Profile == nil {
			t.Fatalf("person %d has no style profile", i)
		}
	}
}

func TestPerturbedAvatarClose(t *testing.T) {
	u := NewUniverse(5, 1)
	rng := rand.New(rand.NewSource(2))
	p := u.Persons[0]
	for i := 0; i < 50; i++ {
		h := PerturbedAvatar(p, 2, rng)
		if d := popcount(h ^ p.Avatar); d > 2 {
			t.Fatalf("perturbation flipped %d bits, max 2", d)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestOverlappingMembers(t *testing.T) {
	u := NewUniverse(100, 3)
	rng := rand.New(rand.NewSource(4))
	a, b := OverlappingMembers(u, 30, 40, 10, rng)
	if len(a) != 30 || len(b) != 40 {
		t.Fatalf("sizes %d/%d", len(a), len(b))
	}
	inA := map[int]bool{}
	for _, x := range a {
		inA[x] = true
	}
	shared := 0
	for _, x := range b {
		if inA[x] {
			shared++
		}
	}
	if shared != 10 {
		t.Errorf("shared members = %d, want 10", shared)
	}
}

func TestSocialDirectory(t *testing.T) {
	u := NewUniverse(300, 17)
	dir := SocialDirectory(u, DefaultServices(), 19)
	if len(dir.Profiles) == 0 {
		t.Fatal("empty directory")
	}
	services := map[string]int{}
	reusedHasUsername := 0
	for _, p := range dir.Profiles {
		services[p.Service]++
		if p.PersonID < 0 || p.PersonID >= 300 {
			t.Fatalf("profile has bad person id %d", p.PersonID)
		}
		person := u.Persons[p.PersonID]
		if person.ReusesUsername && p.Service != "whitepages" && p.Username == person.Username {
			reusedHasUsername++
		}
	}
	for _, svc := range []string{"facebook", "twitter", "linkedin", "whitepages"} {
		if services[svc] == 0 {
			t.Errorf("no %s profiles generated", svc)
		}
	}
	if reusedHasUsername == 0 {
		t.Error("username reuse never materialized")
	}
	// Whitepages profiles expose phone numbers.
	for _, p := range dir.Profiles {
		if p.Service == "whitepages" && p.Phone == "" {
			t.Error("whitepages profile without phone")
			break
		}
	}
}

func TestUsernamesUniqueWithinForum(t *testing.T) {
	d := genForum(400, 31, WebMDLike(400, 33))
	seen := map[string]bool{}
	for _, u := range d.Users {
		if seen[u.Name] {
			t.Fatalf("duplicate username %q", u.Name)
		}
		seen[u.Name] = true
	}
}

func TestAvatarKindsDistribution(t *testing.T) {
	d := genForum(2000, 41, WebMDLike(2000, 43))
	counts := map[corpus.AvatarKind]int{}
	for _, u := range d.Users {
		counts[u.AvatarKind]++
	}
	// Default avatars dominate; real-person avatars are the small §VI
	// population (paper: 2805 / 89393 ≈ 3.1%).
	if counts[corpus.AvatarDefault] < 1000 {
		t.Errorf("default avatars = %d, want majority", counts[corpus.AvatarDefault])
	}
	frac := float64(counts[corpus.AvatarRealPerson]) / 2000
	if frac < 0.015 || frac > 0.06 {
		t.Errorf("real-person avatar fraction = %v, want ~0.035", frac)
	}
}

func TestBoardsWellFormed(t *testing.T) {
	if len(boards) < 10 {
		t.Errorf("only %d boards", len(boards))
	}
	names := map[string]bool{}
	for _, b := range boards {
		if b.Name == "" || len(b.Conditions) == 0 || len(b.Symptoms) == 0 || len(b.Meds) == 0 {
			t.Errorf("board %q incomplete", b.Name)
		}
		if names[b.Name] {
			t.Errorf("duplicate board %q", b.Name)
		}
		names[b.Name] = true
	}
}

func TestPostLengthSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		l := samplePostLen(rng, 130, 0.55)
		if l < 15 || l > 800 {
			t.Fatalf("sampled length %d outside [15, 800]", l)
		}
	}
}
