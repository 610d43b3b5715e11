package stylometry

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dehealth/internal/nlp/lexicon"
)

func featureIndex(e *Extractor, name string) int {
	for i, f := range e.features {
		if f.Name == name {
			return i
		}
	}
	return -1
}

func TestCategoryCounts(t *testing.T) {
	e := New()
	counts := e.CategoryCounts()
	want := map[Category]int{
		CatLength:        3,
		CatWordLength:    20,
		CatVocabRichness: 5,
		CatLetterFreq:    26,
		CatDigitFreq:     10,
		CatUppercase:     1,
		CatSpecialChars:  21,
		CatWordShape:     5,
		CatPunctuation:   10,
		CatFunctionWords: 337,
		CatPOSTags:       35,
		CatPOSBigrams:    0,
		CatMisspellings:  248,
	}
	for cat, n := range want {
		if counts[cat] != n {
			t.Errorf("category %s has %d features, want %d", cat, counts[cat], n)
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != e.NumFeatures() {
		t.Errorf("category counts sum to %d, NumFeatures() = %d", total, e.NumFeatures())
	}
}

func TestExtractLengthBlock(t *testing.T) {
	e := New()
	text := "one two three"
	v := e.Extract(text)
	if got := v[featureIndex(e, "length:chars")]; got != 13 {
		t.Errorf("chars = %v, want 13", got)
	}
	if got := v[featureIndex(e, "length:paragraphs")]; got != 1 {
		t.Errorf("paragraphs = %v, want 1", got)
	}
	// avg chars per word = (3+3+5)/3.
	if got := v[featureIndex(e, "length:avg-chars-per-word")]; math.Abs(got-11.0/3) > 1e-9 {
		t.Errorf("avg chars/word = %v, want %v", got, 11.0/3)
	}
}

func TestExtractWordLength(t *testing.T) {
	e := New()
	v := e.Extract("a bb ccc a")
	if got := v[featureIndex(e, "wordlen:1")]; got != 0.5 {
		t.Errorf("wordlen:1 = %v, want 0.5", got)
	}
	if got := v[featureIndex(e, "wordlen:2")]; got != 0.25 {
		t.Errorf("wordlen:2 = %v, want 0.25", got)
	}
	if got := v[featureIndex(e, "wordlen:3")]; got != 0.25 {
		t.Errorf("wordlen:3 = %v, want 0.25", got)
	}
}

func TestExtractFunctionWordsAndMisspellings(t *testing.T) {
	e := New()
	v := e.Extract("i beleive the doctor because i trust the doctor")
	// "i" occurs 2/9, "the" 2/9, "because" 1/9.
	if got := v[featureIndex(e, "func:i")]; math.Abs(got-2.0/9) > 1e-9 {
		t.Errorf("func:i = %v, want %v", got, 2.0/9)
	}
	if got := v[featureIndex(e, "func:because")]; math.Abs(got-1.0/9) > 1e-9 {
		t.Errorf("func:because = %v", got)
	}
	if got := v[featureIndex(e, "misspell:beleive")]; math.Abs(got-1.0/9) > 1e-9 {
		t.Errorf("misspell:beleive = %v", got)
	}
	if got := v[featureIndex(e, "misspell:recieve")]; got != 0 {
		t.Errorf("misspell:recieve = %v, want 0", got)
	}
}

func TestExtractVocabRichness(t *testing.T) {
	e := New()
	// "a a b": hapax = {b}: 1/3; dis = {a}: 1/3.
	v := e.Extract("a a b")
	if got := v[featureIndex(e, "vocab:hapax")]; math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("hapax = %v", got)
	}
	if got := v[featureIndex(e, "vocab:dis")]; math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("dis = %v", got)
	}
	// Yule's K for "a a b": V = {a:2, b:1}, sum i^2 Vi = 4+1 = 5, N = 3.
	wantK := 1e4 * (5.0 - 3.0) / 9.0
	if got := v[featureIndex(e, "vocab:yule-k")]; math.Abs(got-wantK) > 1e-9 {
		t.Errorf("yule-k = %v, want %v", got, wantK)
	}
}

func TestExtractNonNegativeAndFinite(t *testing.T) {
	e := New()
	texts := []string{
		"", "!!!", "   ", "123 456", "Hello, WORLD!!",
		"I was diagnosed with diabetes two weeks ago and my doctor prescribed 50mg of metformin.",
	}
	for _, text := range texts {
		for i, x := range e.Extract(text) {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("Extract(%q)[%d] = %v (feature %s)", text, i, x, e.features[i].Name)
			}
		}
	}
}

func TestFitBigrams(t *testing.T) {
	e := New()
	base := e.NumFeatures()
	texts := []string{
		"the doctor said i should sleep more",
		"my doctor said i can sleep now",
	}
	e.FitBigrams(texts, 10)
	if len(e.bigrams) == 0 {
		t.Fatal("no bigrams fitted")
	}
	if len(e.bigrams) > 10 {
		t.Fatalf("fitted %d bigrams, cap was 10", len(e.bigrams))
	}
	if e.NumFeatures() != base+len(e.bigrams) {
		t.Errorf("feature count %d, want %d", e.NumFeatures(), base+len(e.bigrams))
	}
	// DT NN ("the doctor", "my doctor"-ish) should be among the top bigrams.
	found := false
	for _, f := range e.features {
		if f.Category == CatPOSBigrams && strings.Contains(f.Name, "DT_NN") {
			found = true
		}
	}
	if !found {
		t.Error("expected DT_NN bigram feature")
	}
	// Extraction now populates some bigram dimension.
	v := e.Extract(texts[0])
	any := false
	for i, f := range e.features {
		if f.Category == CatPOSBigrams && v[i] > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no bigram feature fired on a fitted text")
	}
}

func TestFitBigramsDefaultCap(t *testing.T) {
	e := New()
	e.FitBigrams([]string{"the cat sat on the mat and the dog ran"}, 0)
	if len(e.bigrams) > DefaultMaxBigrams {
		t.Errorf("bigrams %d exceed default cap", len(e.bigrams))
	}
}

func TestExtractDeterministic(t *testing.T) {
	e := New()
	e.FitBigrams([]string{"i feel sick today and the doctor is away"}, 50)
	text := "I have been feeling dizzy for two weeks, and my doctor ordered an MRI!"
	if !reflect.DeepEqual(e.Extract(text), e.Extract(text)) {
		t.Error("extraction is not deterministic")
	}
}

func TestRefitReplacesBigrams(t *testing.T) {
	e := New()
	e.FitBigrams([]string{"a small cat sat"}, 5)
	n1 := len(e.bigrams)
	e.FitBigrams([]string{"the doctor prescribed the medicine for the patient"}, 3)
	if len(e.bigrams) > 3 {
		t.Errorf("refit kept %d bigrams, cap 3", len(e.bigrams))
	}
	_ = n1
	counts := e.CategoryCounts()
	if counts[CatMisspellings] != len(lexicon.MisspellingList) {
		t.Error("refit corrupted fixed blocks")
	}
}

func TestUppercaseFeature(t *testing.T) {
	e := New()
	v := e.Extract("ABC def")
	if got := v[featureIndex(e, "uppercase:pct")]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("uppercase pct = %v, want 0.5", got)
	}
}

func TestShapeFeatures(t *testing.T) {
	e := New()
	v := e.Extract("USA hello World WebMD")
	if got := v[featureIndex(e, "shape:upper")]; got != 0.25 {
		t.Errorf("shape:upper = %v, want 0.25", got)
	}
	if got := v[featureIndex(e, "shape:lower")]; got != 0.25 {
		t.Errorf("shape:lower = %v", got)
	}
	if got := v[featureIndex(e, "shape:initial")]; got != 0.25 {
		t.Errorf("shape:initial = %v", got)
	}
	if got := v[featureIndex(e, "shape:camel")]; got != 0.25 {
		t.Errorf("shape:camel = %v", got)
	}
}
