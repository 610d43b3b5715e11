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
	"hash/maphash"
	"runtime"
	"sort"
	"strings"
	"sync"

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
	features []Feature
	bigrams  [][2]int // pairs of postag.Tags indices, feature-ordered
	// bigramTab[a*numTags+b] is the feature index of the bigram (a, b), or
	// -1 when it is not a feature.
	bigramTab [numTags * numTags]int32

	// Offsets of each block in the feature vector.
	offLength, offWordLen, offVocab, offLetter, offDigit, offUpper int
	offSpecial, offShape, offPunct, offFunc, offPOS, offBigram     int
	offMisspell                                                    int
}

// New creates an Extractor with the fixed Table I feature blocks and no
// POS-bigram features. Call FitBigrams to add the data-driven block.
func New() *Extractor {
	e := &Extractor{}
	e.rebuild()
	return e
}

// numTags is the size of the POS tagset.
const numTags = len(postag.Tags)

// shapes tracked by the word-shape block.
var shapes = [...]textutil.Shape{
	textutil.ShapeAllUpper,
	textutil.ShapeAllLower,
	textutil.ShapeInitialUpper,
	textutil.ShapeCamel,
	textutil.ShapeOther,
}

// shapeSlot[s] is the position of shape s in shapes.
var shapeSlot = func() (slot [len(shapes)]int) {
	for i, s := range shapes {
		slot[s] = i
	}
	return slot
}()

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
	for i := range e.bigramTab {
		e.bigramTab[i] = -1
	}
	for i, b := range e.bigrams {
		e.bigramTab[b[0]*numTags+b[1]] = int32(e.offBigram + i)
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
	counts := countBigrams(texts)
	type bc struct {
		bg [2]int
		n  int
	}
	var all []bc
	for i, n := range counts {
		if n > 0 {
			all = append(all, bc{[2]int{i / numTags, i % numTags}, n})
		}
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

// countBigrams counts the POS-tag bigrams of texts, indexed a*numTags+b.
// The texts are split into GOMAXPROCS contiguous parts counted in parallel,
// each into its own table; summing the integer tables makes the result
// independent of the split.
func countBigrams(texts []string) *[numTags * numTags]int {
	workers := max(1, min(runtime.GOMAXPROCS(0), len(texts)/minFitTexts))
	tables := make([][numTags * numTags]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		part := texts[len(texts)*w/workers : len(texts)*(w+1)/workers]
		table := &tables[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for _, t := range part {
				sc.tag(t)
				for i := 1; i < len(sc.tags); i++ {
					table[int(sc.tags[i-1])*numTags+int(sc.tags[i])]++
				}
			}
		}()
	}
	wg.Wait()
	for _, t := range tables[1:] {
		for i, n := range t {
			tables[0][i] += n
		}
	}
	return &tables[0]
}

// minFitTexts is the fewest texts worth a countBigrams goroutine of their
// own.
const minFitTexts = 64

// scratch is the per-post working state of an extraction: the post's
// character counts, tokens, their lower-case forms and tags, and the word
// counter of the vocabulary block. Extractions reuse it through
// scratchPool, so a post allocates only the lower-case forms of its
// capitalized tokens that are neither function words nor misspellings, and
// of its non-ASCII tokens.
type scratch struct {
	counts textutil.Counts
	toks   []textutil.Token
	lower  []string
	tags   []int8
	vocab  wordCounts
	buf    []byte // lower-case bytes of one ASCII token
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// tag scans text, lower-cases each token once and tags the tokens.
func (sc *scratch) tag(text string) {
	sc.toks = textutil.Scan(text, sc.toks, &sc.counts)
	sc.lower = sc.lower[:0]
	for i := range sc.toks {
		sc.lower = append(sc.lower, sc.toLower(&sc.toks[i]))
	}
	sc.tags = postag.TagTokens(sc.tags, sc.toks, sc.lower)
}

// toLower returns strings.ToLower(t.Text). An ASCII token (as many runes
// as bytes) with capitals is lowered through buf and interned.
func (sc *scratch) toLower(t *textutil.Token) string {
	w := t.Text
	if t.Runes != len(w) {
		return strings.ToLower(w)
	}
	if t.Upper == 0 {
		return w
	}
	sc.buf = sc.buf[:0]
	for i := 0; i < len(w); i++ {
		c := w[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		sc.buf = append(sc.buf, c)
	}
	return lexicon.Intern(sc.buf)
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
	clear(v)
	sc := scratchPool.Get().(*scratch)
	sc.tag(text)
	e.extract(v, sc)
	scratchPool.Put(sc)
}

// extract fills the zeroed v from the scanned and tagged post in sc.
func (e *Extractor) extract(v []float64, sc *scratch) {
	c := &sc.counts
	n := len(sc.toks)
	nWords := float64(n)
	chars := float64(c.Chars)

	v[e.offLength] = chars
	v[e.offLength+1] = float64(c.Paragraphs)

	// Word-level blocks: length, word length, shape, function words and
	// misspellings. The relative frequencies of the last two are sums of
	// 1/nWords, one per occurrence, as they have always been summed: a
	// count times 1/nWords rounds differently.
	if n > 0 {
		var totalRunes int
		var wordLen [MaxWordLength]int
		var shape [len(shapes)]int
		inv := 1 / nWords
		for i := range sc.toks {
			t := &sc.toks[i]
			totalRunes += t.Runes
			wordLen[min(t.Runes, MaxWordLength)-1]++
			shape[shapeSlot[t.Shape()]]++
			fw, ms := lexicon.Lookup(sc.lower[i])
			if fw >= 0 {
				v[e.offFunc+fw] += inv
			}
			if ms >= 0 {
				v[e.offMisspell+ms] += inv
			}
		}
		v[e.offLength+2] = float64(totalRunes) / nWords
		for i, k := range wordLen {
			v[e.offWordLen+i] = float64(k) / nWords
		}
		for i, k := range shape {
			v[e.offShape+i] = float64(k) / nWords
		}
		e.vocabulary(v, sc)
	}

	// Character blocks.
	totalLetters := 0
	for _, k := range c.Letters {
		totalLetters += k
	}
	if totalLetters > 0 {
		for i, k := range c.Letters {
			v[e.offLetter+i] = float64(k) / float64(totalLetters)
		}
	}
	v[e.offUpper] = c.UppercaseRatio()
	if c.Chars > 0 {
		for i, k := range c.Digits {
			v[e.offDigit+i] = float64(k) / chars
		}
		for i, k := range c.Special {
			v[e.offSpecial+i] = float64(k) / chars
		}
		for i, k := range c.Punct {
			v[e.offPunct+i] = float64(k) / chars
		}
	}

	// POS tags and bigrams, again as sums of 1/count per occurrence.
	tags := sc.tags
	if len(tags) > 0 {
		inv := 1 / float64(len(tags))
		for _, t := range tags {
			v[e.offPOS+int(t)] += inv
		}
		if len(e.bigrams) > 0 && len(tags) > 1 {
			inv := 1 / float64(len(tags)-1)
			for i := 1; i < len(tags); i++ {
				if idx := e.bigramTab[int(tags[i-1])*numTags+int(tags[i])]; idx >= 0 {
					v[idx] += inv
				}
			}
		}
	}
}

// vocabulary fills the vocabulary-richness block: Yule's K and the shares
// of words occurring exactly once to four times, over lower-case forms.
func (e *Extractor) vocabulary(v []float64, sc *scratch) {
	wc := &sc.vocab
	wc.count(sc.lower)
	var legomena [5]int // index i => words occurring exactly i times (1..4)
	sumI2Vi := 0
	for _, i := range wc.used {
		k := int(wc.slots[i].n)
		if k <= 4 {
			legomena[k]++
		}
		sumI2Vi += k * k
	}
	wc.clear()
	n := float64(len(sc.lower))
	v[e.offVocab] = 1e4 * (float64(sumI2Vi) - n) / (n * n) // Yule's K
	for i := 1; i <= 4; i++ {
		v[e.offVocab+i] = float64(legomena[i]) / n
	}
}

// wordCounts counts the occurrences of equal words in an open-addressing
// table that is reused across posts: clearing it touches only the slots
// the last count used.
type wordCounts struct {
	seed  maphash.Seed
	slots []wordSlot // power-of-two length, at most half full
	used  []int32    // indices of the filled slots, in fill order
}

type wordSlot struct {
	w string
	n int32
}

// count tallies words into the cleared table.
func (wc *wordCounts) count(words []string) {
	if len(wc.slots) < 2*len(words) {
		size := 64
		for size < 2*len(words) {
			size *= 2
		}
		if wc.slots == nil {
			wc.seed = maphash.MakeSeed()
		}
		wc.slots = make([]wordSlot, size)
	}
	mask := uint64(len(wc.slots) - 1)
	for _, w := range words {
		for i := maphash.String(wc.seed, w) & mask; ; i = (i + 1) & mask {
			s := &wc.slots[i]
			if s.n == 0 {
				*s = wordSlot{w, 1}
				wc.used = append(wc.used, int32(i))
				break
			}
			if s.w == w {
				s.n++
				break
			}
		}
	}
}

// clear empties the slots the last count filled.
func (wc *wordCounts) clear() {
	for _, i := range wc.used {
		wc.slots[i] = wordSlot{}
	}
	wc.used = wc.used[:0]
}

// ExtractAll extracts feature vectors for every text.
func (e *Extractor) ExtractAll(texts []string) [][]float64 {
	out := make([][]float64, len(texts))
	for i, t := range texts {
		out[i] = e.Extract(t)
	}
	return out
}
