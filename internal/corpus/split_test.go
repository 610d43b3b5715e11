package corpus

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// bigger returns a dataset with n users, user u having (u % 5) + 1 posts.
func bigger(n int) *Dataset {
	d := &Dataset{Name: "big"}
	for u := 0; u < n; u++ {
		d.Users = append(d.Users, User{ID: u, Name: "user" + string(rune('a'+u%26)), TrueIdentity: u})
	}
	for u := 0; u < n; u++ {
		for p := 0; p <= u%5; p++ {
			tid := (u + p) % (n/2 + 1)
			for tid >= len(d.Threads) {
				d.Threads = append(d.Threads, Thread{ID: len(d.Threads), Board: "b", Starter: u})
			}
			d.Posts = append(d.Posts, Post{
				ID: len(d.Posts), User: u, Thread: tid,
				Text: "post number " + string(rune('0'+p)) + " by some user talking about things",
			})
		}
	}
	return d
}

func TestSplitClosedWorldConservation(t *testing.T) {
	d := bigger(40)
	rng := rand.New(rand.NewSource(2))
	s := SplitClosedWorld(d, 0.5, rng)

	if err := s.Anon.Validate(); err != nil {
		t.Fatalf("anon invalid: %v", err)
	}
	if err := s.Aux.Validate(); err != nil {
		t.Fatalf("aux invalid: %v", err)
	}
	if s.Anon.NumPosts()+s.Aux.NumPosts() != d.NumPosts() {
		t.Errorf("posts not conserved: %d + %d != %d",
			s.Anon.NumPosts(), s.Aux.NumPosts(), d.NumPosts())
	}
}

func TestSplitClosedWorldMappingCorrect(t *testing.T) {
	d := bigger(40)
	rng := rand.New(rand.NewSource(3))
	s := SplitClosedWorld(d, 0.7, rng)
	if len(s.TrueMapping) == 0 {
		t.Fatal("no overlapping users")
	}
	for au, xu := range s.TrueMapping {
		if s.Anon.Users[au].TrueIdentity != s.Aux.Users[xu].TrueIdentity {
			t.Errorf("mapping %d->%d connects identities %d and %d",
				au, xu, s.Anon.Users[au].TrueIdentity, s.Aux.Users[xu].TrueIdentity)
		}
	}
}

func TestSplitClosedWorldAnonymizesNames(t *testing.T) {
	d := bigger(30)
	rng := rand.New(rand.NewSource(4))
	s := SplitClosedWorld(d, 0.5, rng)
	for _, u := range s.Anon.Users {
		if !strings.HasPrefix(u.Name, "anon-") {
			t.Errorf("anonymized user kept name %q", u.Name)
		}
	}
	for _, u := range s.Aux.Users {
		if strings.HasPrefix(u.Name, "anon-") {
			t.Errorf("auxiliary user was anonymized: %q", u.Name)
		}
	}
}

func TestSplitClosedWorldFractions(t *testing.T) {
	// Multi-post users split roughly auxFrac of posts to the aux side.
	d := bigger(200)
	rng := rand.New(rand.NewSource(5))
	s := SplitClosedWorld(d, 0.7, rng)
	frac := float64(s.Aux.NumPosts()) / float64(d.NumPosts())
	if math.Abs(frac-0.7) > 0.1 {
		t.Errorf("aux fraction = %v, want ~0.7", frac)
	}
}

func TestSplitClosedWorldPanics(t *testing.T) {
	d := bigger(5)
	rng := rand.New(rand.NewSource(1))
	for _, frac := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("auxFrac %v must panic", frac)
				}
			}()
			SplitClosedWorld(d, frac, rng)
		}()
	}
}

func TestOpenWorldOverlapRatios(t *testing.T) {
	d := bigger(300)
	for _, ratio := range []float64{0.5, 0.7, 0.9} {
		rng := rand.New(rand.NewSource(int64(ratio * 100)))
		s := OpenWorldOverlap(d, ratio, rng)
		if err := s.Anon.Validate(); err != nil {
			t.Fatalf("anon invalid: %v", err)
		}
		if err := s.Aux.Validate(); err != nil {
			t.Fatalf("aux invalid: %v", err)
		}
		// Side sizes should be near-equal.
		na, nx := s.Anon.NumUsers(), s.Aux.NumUsers()
		if math.Abs(float64(na-nx)) > float64(na)/5+2 {
			t.Errorf("ratio %v: uneven sides %d vs %d", ratio, na, nx)
		}
		// Overlap ratio should approximate the request.
		got := float64(s.NumOverlapping()) / float64(na)
		if math.Abs(got-ratio) > 0.15 {
			t.Errorf("ratio %v: overlap ratio = %v", ratio, got)
		}
		// Mappings connect the same identity.
		for au, xu := range s.TrueMapping {
			if s.Anon.Users[au].TrueIdentity != s.Aux.Users[xu].TrueIdentity {
				t.Fatalf("bad mapping at ratio %v", ratio)
			}
		}
	}
}

func TestOpenWorldNonOverlapExclusive(t *testing.T) {
	d := bigger(200)
	rng := rand.New(rand.NewSource(9))
	s := OpenWorldOverlap(d, 0.5, rng)
	// Identities present on both sides must exactly match the mapping.
	auxIdent := map[int]int{}
	for i, u := range s.Aux.Users {
		auxIdent[u.TrueIdentity] = i
	}
	shared := 0
	for ai, u := range s.Anon.Users {
		if xi, ok := auxIdent[u.TrueIdentity]; ok {
			shared++
			if s.TrueMapping[ai] != xi {
				t.Errorf("identity %d on both sides but mapping says %d vs %d",
					u.TrueIdentity, s.TrueMapping[ai], xi)
			}
		}
	}
	if shared != s.NumOverlapping() {
		t.Errorf("shared identities %d != mapping size %d", shared, s.NumOverlapping())
	}
}

// Property: splits never lose or duplicate a post text, for any seed.
func TestSplitConservationProperty(t *testing.T) {
	d := bigger(60)
	count := func(ds *Dataset, m map[string]int) {
		for _, p := range ds.Posts {
			m[p.Text+"|"+ds.Users[p.User].Name] = 0 // name differs; count text only
		}
	}
	_ = count
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := SplitClosedWorld(d, 0.5, rng)
		total := map[string]int{}
		for _, p := range d.Posts {
			total[p.Text]++
		}
		got := map[string]int{}
		for _, p := range s.Anon.Posts {
			got[p.Text]++
		}
		for _, p := range s.Aux.Posts {
			got[p.Text]++
		}
		if len(got) != len(total) {
			return false
		}
		for k, v := range total {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(25)); err != nil {
		t.Error(err)
	}
}

// quickConfig is the configuration of this package's testing/quick
// properties: maxCount inputs drawn from a fixed seed, so every run checks
// the same ones. DEHEALTH_QUICK_SEED names another seed; CI reruns the
// properties under a fresh, printed one.
func quickConfig(maxCount int) *quick.Config {
	seed, err := strconv.ParseInt(os.Getenv("DEHEALTH_QUICK_SEED"), 10, 64)
	if err != nil {
		seed = 1
	}
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}
