package linkage

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"

	"dehealth/internal/corpus"
)

func TestNormalizeUsername(t *testing.T) {
	tests := []struct{ in, want string }{
		{"JWolf6589", "jwolf6589"},
		{"j_wolf-65.89", "jwolf6589"},
		{"plain", "plain"},
	}
	for _, tc := range tests {
		if got := normalizeUsername(tc.in); got != tc.want {
			t.Errorf("normalizeUsername(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestStripDigitSuffix(t *testing.T) {
	tests := []struct{ in, want string }{
		{"jwolf6589", "jwolf"},
		{"nodigits", "nodigits"},
		{"123", ""},
		{"a1b2", "a1b"},
	}
	for _, tc := range tests {
		if got := stripDigitSuffix(tc.in); got != tc.want {
			t.Errorf("stripDigitSuffix(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestEditDistance(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "ab", 1},
		{"abc", "xbc", 1},
		{"kitten", "sitting", 3},
		{"", "abc", 3},
	}
	for _, tc := range tests {
		if got := editDistance(tc.a, tc.b, 10); got != tc.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	// Early exit respects the limit.
	if got := editDistance("aaaaaaa", "bbbbbbb", 2); got <= 2 {
		t.Errorf("limited distance returned %d, want > 2", got)
	}
}

// Property: edit distance is symmetric and satisfies identity.
func TestEditDistanceProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		if editDistance(a, a, 20) != 0 {
			return false
		}
		return editDistance(a, b, 20) == editDistance(b, a, 20)
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Error(err)
	}
}

func fuzzyFixture() (*corpus.Dataset, *Directory, *EntropyModel) {
	forum := &corpus.Dataset{
		Name: "forum",
		Users: []corpus.User{
			{ID: 0, Name: "J_Wolf6589", TrueIdentity: 1},  // separator + case variant
			{ID: 1, Name: "krivera1988", TrueIdentity: 3}, // digit-suffix variant of krivera88? no: core krivera
			{ID: 2, Name: "sunshne1", TrueIdentity: 2},    // one typo from sunshine1
			{ID: 3, Name: "totallyunique", TrueIdentity: 9},
		},
		Threads: []corpus.Thread{{ID: 0, Board: "b", Starter: 0}},
		Posts: []corpus.Post{
			{ID: 0, User: 0, Thread: 0, Text: "a"},
			{ID: 1, User: 1, Thread: 0, Text: "b"},
			{ID: 2, User: 2, Thread: 0, Text: "c"},
			{ID: 3, User: 3, Thread: 0, Text: "d"},
		},
	}
	dir := NewDirectory([]Profile{
		{Service: "facebook", Username: "jwolf6589", FullName: "James Wolf", PersonID: 1},
		{Service: "facebook", Username: "krivera88", FullName: "Kim Rivera", PersonID: 3},
		{Service: "facebook", Username: "sunshine1", FullName: "Ann Miller", PersonID: 2},
	})
	m := NewEntropyModel(2)
	m.Train(append(dir.Usernames(), "mike", "john", "anna", "bob99", "alice3"))
	return forum, dir, m
}

func TestFuzzyNameLink(t *testing.T) {
	forum, dir, m := fuzzyFixture()
	links := FuzzyNameLink(forum, dir, m, FuzzyConfig{MinEntropy: 0, MaxEditDistance: 1})
	got := map[int]int{}
	for _, l := range links {
		got[l.User] = dir.Profiles[l.Profile].PersonID
	}
	if got[0] != 1 {
		t.Errorf("separator/case variant not linked: %v", got)
	}
	if got[2] != 2 {
		t.Errorf("typo variant not linked: %v", got)
	}
	if _, ok := got[3]; ok {
		t.Error("unique user linked to nothing that exists")
	}
	// Digit-suffix cores: krivera1988 and krivera88 share core "krivera".
	if got[1] != 3 {
		t.Errorf("digit-suffix variant not linked: %v", got)
	}
}

func TestFuzzyNameLinkEntropyGate(t *testing.T) {
	forum, dir, m := fuzzyFixture()
	links := FuzzyNameLink(forum, dir, m, FuzzyConfig{MinEntropy: 1e9, MaxEditDistance: 1})
	if len(links) != 0 {
		t.Errorf("entropy gate failed: %d links", len(links))
	}
}

func TestFuzzyNameLinkBeatsExactOnVariants(t *testing.T) {
	forum, dir, m := fuzzyFixture()
	exact := NameLink(forum, dir, m, NameLinkConfig{MinEntropy: 0})
	fuzzy := FuzzyNameLink(forum, dir, m, FuzzyConfig{MinEntropy: 0, MaxEditDistance: 1})
	if len(fuzzy) <= len(exact) {
		t.Errorf("fuzzy (%d links) should find more than exact (%d) on this fixture",
			len(fuzzy), len(exact))
	}
}

func TestUsernameVariants(t *testing.T) {
	vs := usernameVariants("J_Wolf6589")
	if vs[0] != "jwolf6589" {
		t.Errorf("first variant = %q", vs[0])
	}
	if len(vs) != 2 || vs[1] != "jwolf" {
		t.Errorf("variants = %v", vs)
	}
	// Short cores are not emitted.
	if vs := usernameVariants("ab12"); len(vs) != 1 {
		t.Errorf("short core emitted: %v", vs)
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
