package stylometry_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/stylometry"
	"dehealth/internal/synth"
)

// edgeTexts are the inputs where a one-pass rewrite most easily drifts from
// the reference: empty and blank posts, every newline convention, runes
// whose case mapping crosses into ASCII, non-ASCII letters and digits,
// invalid UTF-8, quote-like apostrophes, all-caps, numbers with separators,
// a trigger for each of the tagger's context rules and a word for each of
// its suffix rules.
var edgeTexts = []string{
	"",
	" \t \n ",
	"\n\n\n",
	"first paragraph\r\n\r\nsecond paragraph\r\nstill second\rthird?\r\r\nfourth",
	"a\n  \nb c\u0085\n\n\n",
	"ı ſ K İstanbul",
	"Ünïcödé wörds: straße, Ελληνικά, русский ТЕКСТ, ǅemal, ٣٤٥ and 日本語.",
	"bad \xff bytes \xc3\x28 in\xe2\x82 the middle\xf0",
	"� is a real replacement rune",
	"'quoted' ''double'' don't 'tis rock'n'roll'' ' '' '''",
	"I AM VERY ANGRY ABOUT MY DOCTOR!!! WHY???",
	"I paid $1,234.5 for 2.5mg (50% off) on 12/03 -- #sad @doc <3 ~_~ [ok] {x} a\\b |c| `d` ^e^ &f* +g=",
	"i want to sleep. she should goes home. i have walked there. i was told to rest. my cold is worse.",
	"The doctor. Doctor Wilson asked Nurses about it! Are You sure? yes",
	"a need to work and a rest, the plan to cope, to worry, to check",
	"happiness treatment medication decision realism friendship importance patience ability specialist " +
		"comfortable possible dangerous painful aggressive foolish hopeless medical ideal quickly sleeping " +
		"walked remedies biggest bigger realize advise clarify medicate symptoms glass virus analysis",
	"WebMD iPhone McDonald USA X x 1A a1 A1b",
	"supercalifragilisticexpialidociousness is a verylongwordthatexceedstwentyrunes",
	"recieve definately seperate wierd beleive alot untill",
	"...!!!???",
	"x",
}

// synthCorpus generates a forum with the given calibration.
func synthCorpus(users int, seed int64, cfg synth.ForumConfig) *corpus.Dataset {
	u := synth.NewUniverse(users+users/2, seed)
	members := synth.Members(u, users, rand.New(rand.NewSource(seed+1)))
	return synth.Generate(cfg, u, members)
}

var (
	corporaOnce   sync.Once
	webmd, hb     *corpus.Dataset
	fittedOnWebMD *stylometry.Extractor
)

// corpora returns a WebMD-like and a HealthBoards-like synth forum and an
// extractor whose bigram block was fitted on the WebMD-like one.
func corpora() (webmdLike, hbLike *corpus.Dataset, ex *stylometry.Extractor) {
	corporaOnce.Do(func() {
		webmd = synthCorpus(400, 3, synth.WebMDLike(400, 4))
		hb = synthCorpus(300, 5, synth.HBLike(300, 6))
		fittedOnWebMD = stylometry.New()
		fittedOnWebMD.FitBigrams(webmd.Texts(), 0)
	})
	return webmd, hb, fittedOnWebMD
}

// matchOracle reports the first dimension where ExtractInto and the
// reference extractor disagree on text, comparing bits.
func matchOracle(t *testing.T, ex *stylometry.Extractor, got, want []float64, text string) {
	t.Helper()
	ex.ExtractInto(got, text)
	stylometry.ExtractSlow(ex, want, text)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("dimension %d of %q: got %v (%#x), oracle %v (%#x)",
				i, text, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestExtractMatchesOracle(t *testing.T) {
	webmdLike, hbLike, ex := corpora()
	if len(ex.Bigrams()) == 0 {
		t.Fatal("no bigrams fitted: the bigram block would go unchecked")
	}
	got := make([]float64, ex.NumFeatures())
	want := make([]float64, ex.NumFeatures())
	for i := range got {
		got[i] = -1 // ExtractInto must zero its destination
	}
	plain := stylometry.New() // no bigram block
	for _, text := range edgeTexts {
		matchOracle(t, ex, got, want, text)
		matchOracle(t, plain, got[:plain.NumFeatures()], want[:plain.NumFeatures()], text)
	}
	for _, d := range []*corpus.Dataset{webmdLike, hbLike} {
		for _, p := range d.Posts {
			matchOracle(t, ex, got, want, p.Text)
		}
	}
	t.Logf("%d edge texts and %d + %d synth posts bit-identical over %d dimensions",
		len(edgeTexts), len(webmdLike.Posts), len(hbLike.Posts), ex.NumFeatures())
}

func TestFitBigramsMatchesOracle(t *testing.T) {
	webmdLike, _, _ := corpora()
	texts := webmdLike.Texts()
	// Every pair below occurs exactly once, so each cap cuts a tie that the
	// tag order breaks.
	ties := []string{"i feel", "the doctor", "she should go", "because of it", "very quickly"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs) // one counting goroutine, then a split
		for _, corpus := range [][]string{texts, ties, edgeTexts, nil} {
			for _, maxBigrams := range []int{-1, 0, 1, 2, 5, 50, stylometry.DefaultMaxBigrams, 2000} {
				ex := stylometry.New()
				ex.FitBigrams(corpus, maxBigrams)
				want := stylometry.FitSlow(corpus, maxBigrams)
				if got := ex.Bigrams(); len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("GOMAXPROCS=%d, %d texts, cap %d: fitted %v, oracle %v", procs, len(corpus), maxBigrams, got, want)
				}
			}
		}
	}
}

func FuzzExtract(f *testing.F) {
	for _, text := range edgeTexts {
		f.Add(text)
	}
	ex := stylometry.New()
	ex.FitBigrams(edgeTexts, 0)
	got := make([]float64, ex.NumFeatures())
	want := make([]float64, ex.NumFeatures())
	f.Fuzz(func(t *testing.T, text string) {
		matchOracle(t, ex, got, want, text)
		for i, x := range got {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("dimension %d of %q is %v, want finite and >= 0", i, text, x)
			}
		}
	})
}

// TestExtractAllocs pins the allocations per extracted post. The scratch
// (tokens, lower-case forms, tags) is pooled, so a post allocates only the
// lower-case copies of its tokens that have upper-case letters.
func TestExtractAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	webmdLike, _, ex := corpora()
	posts := webmdLike.Posts[:min(2000, len(webmdLike.Posts))]
	row := make([]float64, ex.NumFeatures())
	perRun := testing.AllocsPerRun(3, func() {
		for _, p := range posts {
			ex.ExtractInto(row, p.Text)
		}
	})
	const bound = 4
	if perPost := perRun / float64(len(posts)); perPost > bound {
		t.Fatalf("ExtractInto allocates %.2f times per post, want <= %d", perPost, bound)
	}
}
