// Package stylometry implements the Table I feature inventory of the
// De-Health paper: lexical features (length, word length, vocabulary
// richness, letter/digit frequency, uppercase percentage, special
// characters, word shape), syntactic features (punctuation frequency,
// function words, POS tags, POS-tag bigrams) and idiosyncratic features
// (misspelled words).
//
// An Extractor owns the feature space. The fixed portion of the space is
// identical for every extractor; the POS-bigram portion is data-driven
// (fitted on a reference corpus, mirroring the paper's variable feature
// count M). Extract maps a post to a non-negative feature vector; zero in a
// dimension means "this post does not have the corresponding feature",
// exactly as §II-B defines.
package stylometry

import (
	"fmt"
	"sort"
	"strings"

	"dehealth/internal/nlp/lexicon"
	"dehealth/internal/nlp/postag"
	"dehealth/internal/textutil"
)

// Category labels a block of features, following Table I.
type Category string

// The Table I feature categories.
const (
	CatLength        Category = "length"
	CatWordLength    Category = "word-length"
	CatVocabRichness Category = "vocabulary-richness"
	CatLetterFreq    Category = "letter-freq"
	CatDigitFreq     Category = "digit-freq"
	CatUppercase     Category = "uppercase-pct"
	CatSpecialChars  Category = "special-chars"
	CatWordShape     Category = "word-shape"
	CatPunctuation   Category = "punctuation-freq"
	CatFunctionWords Category = "function-words"
	CatPOSTags       Category = "pos-tags"
	CatPOSBigrams    Category = "pos-bigrams"
	CatMisspellings  Category = "misspelled-words"
)

// Feature describes one dimension of the feature space.
type Feature struct {
	// Name is a stable, human-readable identifier, e.g. "letter:e".
	Name string
	// Category is the Table I category the feature belongs to.
	Category Category
}

// MaxWordLength is the longest word length tracked by the word-length
// frequency block (Table I: 20 features).
const MaxWordLength = 20

// DefaultMaxBigrams caps the number of data-driven POS-bigram features.
const DefaultMaxBigrams = 300

// Extractor owns a concrete feature space and converts posts to vectors.
// The zero value is not usable; construct with New and optionally FitBigrams.
type Extractor struct {
	features  []Feature
	bigrams   [][2]int       // pairs of postag.Tags indices, feature-ordered
	bigramIdx map[[2]int]int // bigram -> absolute feature index

	// Offsets of each block in the feature vector.
	offLength, offWordLen, offVocab, offLetter, offDigit, offUpper int
	offSpecial, offShape, offPunct, offFunc, offPOS, offBigram     int
	offMisspell                                                    int
}

// New creates an Extractor with the fixed Table I feature blocks and no
// POS-bigram features. Call FitBigrams to add the data-driven block.
func New() *Extractor {
	e := &Extractor{bigramIdx: map[[2]int]int{}}
	e.rebuild()
	return e
}

// shapes tracked by the word-shape block.
var shapes = []textutil.Shape{
	textutil.ShapeAllUpper,
	textutil.ShapeAllLower,
	textutil.ShapeInitialUpper,
	textutil.ShapeCamel,
	textutil.ShapeOther,
}

// rebuild recomputes the feature table and block offsets.
func (e *Extractor) rebuild() {
	var fs []Feature
	add := func(cat Category, names ...string) int {
		off := len(fs)
		for _, n := range names {
			fs = append(fs, Feature{Name: n, Category: cat})
		}
		return off
	}

	e.offLength = add(CatLength, "length:chars", "length:paragraphs", "length:avg-chars-per-word")

	wl := make([]string, MaxWordLength)
	for i := range wl {
		wl[i] = fmt.Sprintf("wordlen:%d", i+1)
	}
	e.offWordLen = add(CatWordLength, wl...)

	e.offVocab = add(CatVocabRichness, "vocab:yule-k", "vocab:hapax", "vocab:dis", "vocab:tris", "vocab:tetrakis")

	letters := make([]string, 26)
	for i := range letters {
		letters[i] = fmt.Sprintf("letter:%c", 'a'+i)
	}
	e.offLetter = add(CatLetterFreq, letters...)

	digits := make([]string, 10)
	for i := range digits {
		digits[i] = fmt.Sprintf("digit:%c", '0'+i)
	}
	e.offDigit = add(CatDigitFreq, digits...)

	e.offUpper = add(CatUppercase, "uppercase:pct")

	specials := make([]string, len(textutil.SpecialChars))
	for i, r := range textutil.SpecialChars {
		specials[i] = fmt.Sprintf("special:%c", r)
	}
	e.offSpecial = add(CatSpecialChars, specials...)

	shapeNames := make([]string, len(shapes))
	for i, s := range shapes {
		shapeNames[i] = "shape:" + s.String()
	}
	e.offShape = add(CatWordShape, shapeNames...)

	puncts := make([]string, len(textutil.Punctuation))
	for i, r := range textutil.Punctuation {
		puncts[i] = fmt.Sprintf("punct:%c", r)
	}
	e.offPunct = add(CatPunctuation, puncts...)

	fws := make([]string, len(lexicon.FunctionWords))
	for i, w := range lexicon.FunctionWords {
		fws[i] = "func:" + w
	}
	e.offFunc = add(CatFunctionWords, fws...)

	tags := make([]string, len(postag.Tags))
	for i, t := range postag.Tags {
		tags[i] = "pos:" + t
	}
	e.offPOS = add(CatPOSTags, tags...)

	bg := make([]string, len(e.bigrams))
	for i, b := range e.bigrams {
		bg[i] = "posbg:" + postag.Tags[b[0]] + "_" + postag.Tags[b[1]]
	}
	e.offBigram = add(CatPOSBigrams, bg...)

	ms := make([]string, len(lexicon.MisspellingList))
	for i, w := range lexicon.MisspellingList {
		ms[i] = "misspell:" + w
	}
	e.offMisspell = add(CatMisspellings, ms...)

	e.features = fs
	e.bigramIdx = make(map[[2]int]int, len(e.bigrams))
	for i, b := range e.bigrams {
		e.bigramIdx[b] = e.offBigram + i
	}
}

// FitBigrams scans texts for POS-tag bigrams and installs the maxBigrams
// most frequent ones (by total occurrence count, ties broken by tag order)
// as features. Passing maxBigrams <= 0 uses DefaultMaxBigrams. Fitting
// replaces any previously fitted bigram block.
func (e *Extractor) FitBigrams(texts []string, maxBigrams int) {
	if maxBigrams <= 0 {
		maxBigrams = DefaultMaxBigrams
	}
	counts := map[[2]int]int{}
	for _, t := range texts {
		tagged := postag.Tag(t)
		for i := 1; i < len(tagged); i++ {
			a, b := postag.Index(tagged[i-1].Tag), postag.Index(tagged[i].Tag)
			if a >= 0 && b >= 0 {
				counts[[2]int{a, b}]++
			}
		}
	}
	type bc struct {
		bg [2]int
		n  int
	}
	all := make([]bc, 0, len(counts))
	for bg, n := range counts {
		all = append(all, bc{bg, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		if all[i].bg[0] != all[j].bg[0] {
			return all[i].bg[0] < all[j].bg[0]
		}
		return all[i].bg[1] < all[j].bg[1]
	})
	if len(all) > maxBigrams {
		all = all[:maxBigrams]
	}
	e.bigrams = make([][2]int, len(all))
	for i, b := range all {
		e.bigrams[i] = b.bg
	}
	e.rebuild()
}

// NumFeatures returns M, the size of the feature space.
func (e *Extractor) NumFeatures() int { return len(e.features) }

// CategoryCounts returns the number of features per Table I category.
func (e *Extractor) CategoryCounts() map[Category]int {
	out := map[Category]int{}
	for _, f := range e.features {
		out[f.Category]++
	}
	return out
}

// Extract computes the feature vector of a single post. All values are
// non-negative; frequency blocks are normalized to relative frequencies so
// posts of different lengths are comparable.
func (e *Extractor) Extract(text string) []float64 {
	v := make([]float64, len(e.features))
	e.ExtractInto(v, text)
	return v
}

// ExtractInto computes the feature vector of text into v, which must have
// length NumFeatures. It zeroes v first, so rows of a shared backing array
// can be reused. Extraction is read-only on the Extractor, so ExtractInto is
// safe to call from many goroutines once fitting is done.
func (e *Extractor) ExtractInto(v []float64, text string) {
	if len(v) != len(e.features) {
		panic(fmt.Sprintf("stylometry: ExtractInto dst has %d dims, want %d", len(v), len(e.features)))
	}
	for i := range v {
		v[i] = 0
	}

	words := textutil.WordStrings(text)
	nWords := float64(len(words))
	chars := textutil.CountChars(text)
	paragraphs := textutil.Paragraphs(text)

	// Length block.
	v[e.offLength] = float64(chars)
	v[e.offLength+1] = float64(len(paragraphs))
	if nWords > 0 {
		totalWordChars := 0
		for _, w := range words {
			totalWordChars += len([]rune(w))
		}
		v[e.offLength+2] = float64(totalWordChars) / nWords
	}

	// Word-length block.
	if nWords > 0 {
		for _, w := range words {
			l := len([]rune(w))
			if l >= 1 {
				if l > MaxWordLength {
					l = MaxWordLength
				}
				v[e.offWordLen+l-1]++
			}
		}
		for i := 0; i < MaxWordLength; i++ {
			v[e.offWordLen+i] /= nWords
		}
	}

	// Vocabulary richness block.
	if nWords > 0 {
		freq := map[string]int{}
		for _, w := range words {
			freq[strings.ToLower(w)]++
		}
		var legomena [5]float64 // index i => words occurring exactly i times (1..4)
		sumI2Vi := 0.0
		for _, n := range freq {
			if n >= 1 && n <= 4 {
				legomena[n]++
			}
			sumI2Vi += float64(n) * float64(n)
		}
		n := nWords
		v[e.offVocab] = 1e4 * (sumI2Vi - n) / (n * n) // Yule's K
		for i := 1; i <= 4; i++ {
			v[e.offVocab+i] = legomena[i] / n
		}
	}

	// Letter block.
	lf := textutil.LetterFreq(text)
	totalLetters := 0
	for _, n := range lf {
		totalLetters += n
	}
	if totalLetters > 0 {
		for i, n := range lf {
			v[e.offLetter+i] = float64(n) / float64(totalLetters)
		}
	}

	// Digit block.
	df := textutil.DigitFreq(text)
	if chars > 0 {
		for i, n := range df {
			v[e.offDigit+i] = float64(n) / float64(chars)
		}
	}

	// Uppercase percentage.
	v[e.offUpper] = textutil.UppercaseRatio(text)

	// Special characters.
	sf := textutil.SpecialCharFreq(text)
	if chars > 0 {
		for i, n := range sf {
			v[e.offSpecial+i] = float64(n) / float64(chars)
		}
	}

	// Word shapes.
	if nWords > 0 {
		shapeIdx := map[textutil.Shape]int{}
		for i, s := range shapes {
			shapeIdx[s] = i
		}
		for _, w := range words {
			v[e.offShape+shapeIdx[textutil.WordShape(w)]]++
		}
		for i := range shapes {
			v[e.offShape+i] /= nWords
		}
	}

	// Punctuation.
	pf := textutil.PunctuationFreq(text)
	if chars > 0 {
		for i, n := range pf {
			v[e.offPunct+i] = float64(n) / float64(chars)
		}
	}

	// Function words and misspellings.
	if nWords > 0 {
		for _, w := range words {
			lw := strings.ToLower(w)
			if i := lexicon.FunctionWordIndex(lw); i >= 0 {
				v[e.offFunc+i] += 1 / nWords
			}
			if i := lexicon.MisspellingIndex(lw); i >= 0 {
				v[e.offMisspell+i] += 1 / nWords
			}
		}
	}

	// POS tags and bigrams.
	tagged := postag.Tag(text)
	if len(tagged) > 0 {
		nt := float64(len(tagged))
		for _, t := range tagged {
			if i := postag.Index(t.Tag); i >= 0 {
				v[e.offPOS+i] += 1 / nt
			}
		}
		if len(e.bigrams) > 0 && len(tagged) > 1 {
			nbg := float64(len(tagged) - 1)
			for i := 1; i < len(tagged); i++ {
				a, b := postag.Index(tagged[i-1].Tag), postag.Index(tagged[i].Tag)
				if a < 0 || b < 0 {
					continue
				}
				if idx, ok := e.bigramIdx[[2]int{a, b}]; ok {
					v[idx] += 1 / nbg
				}
			}
		}
	}
}

// ExtractAll extracts feature vectors for every text.
func (e *Extractor) ExtractAll(texts []string) [][]float64 {
	out := make([][]float64, len(texts))
	for i, t := range texts {
		out[i] = e.Extract(t)
	}
	return out
}
