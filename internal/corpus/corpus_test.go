package corpus

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// tiny builds a small valid dataset: 4 users, 3 threads, 8 posts.
func tiny() *Dataset {
	return &Dataset{
		Name: "tiny",
		Users: []User{
			{ID: 0, Name: "alice", TrueIdentity: 10},
			{ID: 1, Name: "bob", TrueIdentity: 11},
			{ID: 2, Name: "carol", TrueIdentity: 12},
			{ID: 3, Name: "dave", TrueIdentity: 13},
		},
		Threads: []Thread{
			{ID: 0, Board: "diabetes", Starter: 0},
			{ID: 1, Board: "migraine", Starter: 1},
			{ID: 2, Board: "sleep", Starter: 2},
		},
		Posts: []Post{
			{ID: 0, User: 0, Thread: 0, Text: "i have a headache every day"},
			{ID: 1, User: 1, Thread: 0, Text: "me too and my doctor says rest"},
			{ID: 2, User: 0, Thread: 1, Text: "the migraine is terrible at night"},
			{ID: 3, User: 2, Thread: 1, Text: "have you tried imitrex for it"},
			{ID: 4, User: 2, Thread: 2, Text: "i cannot sleep at all lately"},
			{ID: 5, User: 3, Thread: 2, Text: "melatonin helped me a lot"},
			{ID: 6, User: 0, Thread: 2, Text: "what dose do you take of it"},
			{ID: 7, User: 1, Thread: 1, Text: "my head hurts too most mornings"},
		},
	}
}

func TestValidate(t *testing.T) {
	d := tiny()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	bad := tiny()
	bad.Posts[0].User = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range user accepted")
	}
	bad2 := tiny()
	bad2.Users[1].ID = 7
	if err := bad2.Validate(); err == nil {
		t.Error("non-dense user id accepted")
	}
	bad3 := tiny()
	bad3.Posts[2].Thread = -1
	if err := bad3.Validate(); err == nil {
		t.Error("negative thread accepted")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	d := tiny()
	path := filepath.Join(t.TempDir(), "d.json")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Error("roundtrip mismatch")
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file must fail")
	}
}

func TestPostsByUser(t *testing.T) {
	d := tiny()
	by := d.PostsByUser()
	if len(by) != 4 {
		t.Fatalf("got %d users", len(by))
	}
	if !reflect.DeepEqual(by[0], []int{0, 2, 6}) {
		t.Errorf("user 0 posts = %v", by[0])
	}
	if !reflect.DeepEqual(by[3], []int{5}) {
		t.Errorf("user 3 posts = %v", by[3])
	}
}

func TestUserTexts(t *testing.T) {
	d := tiny()
	texts := d.UserTexts()
	if len(texts[2]) != 2 {
		t.Errorf("user 2 has %d texts, want 2", len(texts[2]))
	}
	if texts[3][0] != d.Posts[5].Text {
		t.Error("text mismatch")
	}
}

func TestPostCountStats(t *testing.T) {
	d := tiny()
	// Post counts: u0=3, u1=2, u2=2, u3=1.
	cdf := d.PostCountCDF([]int{1, 2, 3})
	want := []float64{0.25, 0.75, 1.0}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-12 {
			t.Errorf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if got := d.FractionUsersWithFewerThan(2); got != 0.25 {
		t.Errorf("frac <2 = %v, want 0.25", got)
	}
	if got := d.FractionUsersWithFewerThan(100); got != 1 {
		t.Errorf("frac <100 = %v, want 1", got)
	}
}

func TestPostLengthStats(t *testing.T) {
	d := &Dataset{
		Name:    "l",
		Users:   []User{{ID: 0, Name: "a", TrueIdentity: -1}},
		Threads: []Thread{{ID: 0, Board: "b", Starter: 0}},
		Posts: []Post{
			{ID: 0, User: 0, Thread: 0, Text: "one two three"},
			{ID: 1, User: 0, Thread: 0, Text: "one two three four five"},
		},
	}
	if got := d.MeanPostLengthWords(); got != 4 {
		t.Errorf("mean length = %v, want 4", got)
	}
	h := d.PostLengthHistogram(2, 6)
	// Lengths 3 and 5: bins [0,2)=0, [2,4)=0.5, [4,6)=0.5.
	if h[0] != 0 || h[1] != 0.5 || h[2] != 0.5 {
		t.Errorf("hist = %v", h)
	}
	if sum := h[0] + h[1] + h[2]; math.Abs(sum-1) > 1e-12 {
		t.Errorf("histogram sums to %v", sum)
	}
}

func TestPostLengthHistogramDegenerate(t *testing.T) {
	d := tiny()
	if h := d.PostLengthHistogram(0, 10); h != nil {
		t.Error("zero bin width must return nil")
	}
	if h := d.PostLengthHistogram(10, 0); h != nil {
		t.Error("zero max must return nil")
	}
}

func TestUserAgeRoundtrip(t *testing.T) {
	d := tiny()
	d.Users[0].Age = 47
	path := filepath.Join(t.TempDir(), "age.json")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Users[0].Age != 47 || got.Users[1].Age != 0 {
		t.Error("age not round-tripped")
	}
}
