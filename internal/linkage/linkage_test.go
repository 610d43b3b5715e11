package linkage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dehealth/internal/corpus"
)

func trainedModel() *EntropyModel {
	m := NewEntropyModel(2)
	corpus := []string{
		"mike", "mike1", "mike22", "john", "john7", "johnny", "sunshine",
		"sunshine1", "butterfly", "dreamer", "anna", "anna12", "jsmith",
		"jsmith42", "kwilson", "kwilson7", "bob", "bob99", "alice", "alice3",
	}
	m.Train(corpus)
	return m
}

func TestEntropyLongerIsHigher(t *testing.T) {
	m := trainedModel()
	if m.Entropy("mikejohnsunshine1984") <= m.Entropy("mike") {
		t.Error("longer username must carry more bits")
	}
}

func TestEntropyRareIsHigher(t *testing.T) {
	m := trainedModel()
	// "mike" appears in training; "xqzv" transitions were never seen.
	if m.Entropy("xqzv") <= m.Entropy("mike") {
		t.Error("out-of-distribution username must score higher per char")
	}
}

func TestEntropyDeterministic(t *testing.T) {
	m := trainedModel()
	if m.Entropy("jwolf6589") != m.Entropy("jwolf6589") {
		t.Error("entropy not deterministic")
	}
}

func TestEntropyCaseInsensitive(t *testing.T) {
	m := trainedModel()
	if m.Entropy("MIKE") != m.Entropy("mike") {
		t.Error("entropy must be case-insensitive")
	}
}

func TestEntropyNonNegativeProperty(t *testing.T) {
	m := trainedModel()
	f := func(s string) bool { return m.Entropy(s) >= 0 }
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Error(err)
	}
}

func mkDirectory() *Directory {
	return NewDirectory([]Profile{
		{Service: "facebook", Username: "jwolf6589", FullName: "James Wolf", City: "austin", AvatarHash: 0xABCDEF0123456789, PersonID: 1},
		{Service: "twitter", Username: "jwolf6589", City: "austin", AvatarHash: 0xABCDEF0123456788, PersonID: 1},
		{Service: "facebook", Username: "sunshine1", FullName: "Ann Miller", City: "boston", PersonID: 2},
		{Service: "whitepages", Username: "james.wolf.17", FullName: "James Wolf", City: "austin", Phone: "(555) 123-4567", BirthYear: 1971, PersonID: 1},
		{Service: "facebook", Username: "krivera88", FullName: "Kim Rivera", City: "miami", AvatarHash: 0x1111222233334444, PersonID: 3},
	})
}

func mkForum() *corpus.Dataset {
	return &corpus.Dataset{
		Name: "forum",
		Users: []corpus.User{
			{ID: 0, Name: "jwolf6589", AvatarHash: 0xABCDEF012345678B, AvatarKind: corpus.AvatarRealPerson, TrueIdentity: 1},
			{ID: 1, Name: "sunshine1", Location: "boston", TrueIdentity: 2},
			{ID: 2, Name: "krivera88", AvatarHash: 0x9999888877776666, AvatarKind: corpus.AvatarNonHuman, TrueIdentity: 3},
			{ID: 3, Name: "randomguy", AvatarHash: 0xFFFFFFFFFFFFFFFF, AvatarKind: corpus.AvatarRealPerson, TrueIdentity: 4},
		},
		Threads: []corpus.Thread{{ID: 0, Board: "b", Starter: 0}},
		Posts: []corpus.Post{
			{ID: 0, User: 0, Thread: 0, Text: "hello"},
			{ID: 1, User: 1, Thread: 0, Text: "hi"},
			{ID: 2, User: 2, Thread: 0, Text: "hey"},
			{ID: 3, User: 3, Thread: 0, Text: "yo"},
		},
	}
}

func TestDirectorySearchUsername(t *testing.T) {
	dir := mkDirectory()
	if got := dir.SearchUsername("jwolf6589"); len(got) != 2 {
		t.Errorf("found %d profiles, want 2", len(got))
	}
	if got := dir.SearchUsername("nobody"); got != nil {
		t.Errorf("unexpected match %v", got)
	}
}

func TestDirectorySearchAvatar(t *testing.T) {
	dir := mkDirectory()
	// 0xABCDEF012345678B is within 2 bits of both wolf profiles.
	got := dir.SearchAvatar(0xABCDEF012345678B, 4)
	if len(got) != 2 {
		t.Errorf("found %d avatar matches, want 2", len(got))
	}
	if got := dir.SearchAvatar(0, 4); got != nil {
		t.Error("zero hash must match nothing")
	}
	if got := dir.SearchAvatar(0x0F0F0F0F0F0F0F0F, 0); got != nil {
		t.Error("distant hash matched")
	}
}

func TestUsableAvatars(t *testing.T) {
	got := UsableAvatars(mkForum())
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("usable avatars = %v, want [0 3]", got)
	}
}

func TestAvatarLink(t *testing.T) {
	links := AvatarLink(mkForum(), mkDirectory(), AvatarLinkConfig{MaxHamming: 4})
	if len(links) != 1 {
		t.Fatalf("got %d links, want 1", len(links))
	}
	l := links[0]
	if l.User != 0 || l.Via != "avatarlink" {
		t.Errorf("unexpected link %+v", l)
	}
	if mkDirectory().Profiles[l.Profile].PersonID != 1 {
		t.Error("linked to the wrong person")
	}
}

func TestNameLink(t *testing.T) {
	forum := mkForum()
	dir := mkDirectory()
	m := NewEntropyModel(2)
	m.Train(dir.Usernames())

	links := NameLink(forum, dir, m, NameLinkConfig{MinEntropy: 0, RequireAttributeMatch: true})
	linked := map[int]int{}
	for _, l := range links {
		linked[l.User] = l.Profile
	}
	if _, ok := linked[0]; !ok {
		t.Error("jwolf6589 not linked")
	}
	if _, ok := linked[1]; !ok {
		t.Error("sunshine1 not linked despite matching city")
	}
	if _, ok := linked[3]; ok {
		t.Error("randomguy linked to nothing that exists")
	}
}

func TestNameLinkEntropyThreshold(t *testing.T) {
	forum := mkForum()
	dir := mkDirectory()
	m := NewEntropyModel(2)
	m.Train(dir.Usernames())
	// Impossibly high threshold: nothing is confident enough.
	links := NameLink(forum, dir, m, NameLinkConfig{MinEntropy: 1e9})
	if len(links) != 0 {
		t.Errorf("high threshold still linked %d users", len(links))
	}
}

func TestNameLinkAttributeMismatch(t *testing.T) {
	forum := mkForum()
	forum.Users[1].Location = "seattle" // directory says boston
	dir := mkDirectory()
	m := NewEntropyModel(2)
	m.Train(dir.Usernames())
	links := NameLink(forum, dir, m, NameLinkConfig{MinEntropy: 0, RequireAttributeMatch: true})
	for _, l := range links {
		if l.User == 1 {
			t.Error("location conflict must block the link")
		}
	}
}

func TestCrossForumNameLink(t *testing.T) {
	a := mkForum()
	b := &corpus.Dataset{
		Name: "other",
		Users: []corpus.User{
			{ID: 0, Name: "jwolf6589", TrueIdentity: 1},
			{ID: 1, Name: "unrelated", TrueIdentity: 9},
		},
		Threads: []corpus.Thread{{ID: 0, Board: "b", Starter: 0}},
		Posts:   []corpus.Post{{ID: 0, User: 0, Thread: 0, Text: "x"}, {ID: 1, User: 1, Thread: 0, Text: "y"}},
	}
	m := NewEntropyModel(2)
	m.Train([]string{"jwolf6589", "unrelated", "sunshine1", "krivera88", "randomguy"})
	pairs := CrossForumNameLink(a, b, m, NameLinkConfig{MinEntropy: 0})
	if len(pairs) != 1 || pairs[0][0] != 0 || pairs[0][1] != 0 {
		t.Errorf("pairs = %v", pairs)
	}
	c, total := ScoreCrossForum(a, b, pairs)
	if c != 1 || total != 1 {
		t.Errorf("score = %d/%d", c, total)
	}
}

func TestAggregate(t *testing.T) {
	forum := mkForum()
	dir := mkDirectory()
	m := NewEntropyModel(2)
	m.Train(dir.Usernames())
	av := AvatarLink(forum, dir, DefaultAvatarLinkConfig())
	nm := NameLink(forum, dir, m, NameLinkConfig{MinEntropy: 0, RequireAttributeMatch: true})
	ds := Aggregate(forum, dir, av, nm)

	var wolf *Dossier
	for i := range ds {
		if ds[i].User == 0 {
			wolf = &ds[i]
		}
	}
	if wolf == nil {
		t.Fatal("no dossier for user 0")
	}
	if wolf.FullName != "James Wolf" {
		t.Errorf("full name = %q", wolf.FullName)
	}
	if wolf.City != "austin" {
		t.Errorf("city = %q", wolf.City)
	}
	if wolf.PostCount != 1 {
		t.Errorf("post count = %d", wolf.PostCount)
	}
	if len(wolf.Services) == 0 {
		t.Error("no services recorded")
	}
}

func TestAggregateConflictDropped(t *testing.T) {
	forum := mkForum()
	dir := mkDirectory()
	// Two links for user 0 pointing at visibly different people.
	links := []Link{
		{User: 0, Profile: 0, Via: "avatarlink"}, // James Wolf
		{User: 0, Profile: 4, Via: "namelink"},   // Kim Rivera
	}
	ds := Aggregate(forum, dir, links)
	for _, d := range ds {
		if d.User == 0 {
			t.Error("conflicting dossier survived cross-validation")
		}
	}
}

func TestScore(t *testing.T) {
	forum := mkForum()
	dir := mkDirectory()
	links := []Link{
		{User: 0, Profile: 0}, // correct: person 1
		{User: 1, Profile: 4}, // wrong: links person 2 to person 3's profile
	}
	correct, total := Score(forum, dir, links)
	if correct != 1 || total != 2 {
		t.Errorf("score = %d/%d, want 1/2", correct, total)
	}
}

func TestHamming(t *testing.T) {
	if hamming(0, 0) != 0 || hamming(0, 1) != 1 || hamming(0xFF, 0) != 8 {
		t.Error("hamming distance wrong")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if hamming(a, b) != hamming(b, a) {
			t.Fatal("hamming not symmetric")
		}
	}
}

func TestEnrichFromPeopleSearch(t *testing.T) {
	forum := mkForum()
	dir := mkDirectory()
	dossiers := []Dossier{
		{User: 0, FullName: "James Wolf", City: "austin", Services: []string{"facebook"}},
		{User: 1, FullName: "", City: ""},  // no name: untouched
		{User: 2, FullName: "Nobody Here"}, // no record: untouched
	}
	_ = forum
	n := EnrichFromPeopleSearch(dossiers, dir, "whitepages")
	if n != 1 {
		t.Fatalf("enriched %d dossiers, want 1", n)
	}
	if dossiers[0].Phone != "(555) 123-4567" || dossiers[0].BirthYear != 1971 {
		t.Errorf("dossier not enriched: %+v", dossiers[0])
	}
	found := false
	for _, s := range dossiers[0].Services {
		if s == "whitepages" {
			found = true
		}
	}
	if !found {
		t.Error("whitepages not recorded as a service")
	}
	if dossiers[1].Phone != "" || dossiers[2].Phone != "" {
		t.Error("unmatched dossiers were modified")
	}
}

func TestEnrichAmbiguousSkipped(t *testing.T) {
	dir := NewDirectory([]Profile{
		{Service: "whitepages", Username: "a.1", FullName: "John Smith", Phone: "1", PersonID: 1},
		{Service: "whitepages", Username: "a.2", FullName: "John Smith", Phone: "2", PersonID: 2},
	})
	dossiers := []Dossier{{User: 0, FullName: "John Smith"}}
	if n := EnrichFromPeopleSearch(dossiers, dir, "whitepages"); n != 0 {
		t.Errorf("ambiguous name enriched %d dossiers", n)
	}
	if dossiers[0].Phone != "" {
		t.Error("ambiguous enrichment applied")
	}
}
