package stylometry

// The reference extractor: the multi-pass implementation the one-pass
// ExtractInto replaced, kept here as the oracle of the parity tests. It
// tokenizes a post twice (once for the word blocks, once inside the tagger),
// lower-cases each word where each block needs it, counts every character
// block in its own pass, finds function words and misspellings by binary
// search and works on string tags. Only the word lists (FunctionWords,
// MisspellingList, Punctuation, SpecialChars, Tags and the tagger's two
// lexicon maps) are shared with the code under test.

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"dehealth/internal/nlp/lexicon"
	"dehealth/internal/nlp/postag"
	"dehealth/internal/textutil"
)

// extractSlow computes the feature vector of text into v exactly as
// ExtractInto did before the one-pass rewrite.
func extractSlow(e *Extractor, v []float64, text string) {
	if len(v) != len(e.features) {
		panic(fmt.Sprintf("stylometry: extractSlow dst has %d dims, want %d", len(v), len(e.features)))
	}
	for i := range v {
		v[i] = 0
	}

	words := slowWordStrings(text)
	nWords := float64(len(words))
	chars := len([]rune(text))
	paragraphs := slowParagraphs(text)

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
	lf := slowLetterFreq(text)
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
	df := slowDigitFreq(text)
	if chars > 0 {
		for i, n := range df {
			v[e.offDigit+i] = float64(n) / float64(chars)
		}
	}

	// Uppercase percentage.
	v[e.offUpper] = slowUppercaseRatio(text)

	// Special characters.
	sf := slowRuneFreq(text, textutil.SpecialChars[:])
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
			v[e.offShape+shapeIdx[slowWordShape(w)]]++
		}
		for i := range shapes {
			v[e.offShape+i] /= nWords
		}
	}

	// Punctuation.
	pf := slowRuneFreq(text, textutil.Punctuation[:])
	if chars > 0 {
		for i, n := range pf {
			v[e.offPunct+i] = float64(n) / float64(chars)
		}
	}

	// Function words and misspellings.
	if nWords > 0 {
		for _, w := range words {
			lw := strings.ToLower(w)
			if i := slowSearch(lexicon.FunctionWords, lw); i >= 0 {
				v[e.offFunc+i] += 1 / nWords
			}
			if i := slowSearch(lexicon.MisspellingList, lw); i >= 0 {
				v[e.offMisspell+i] += 1 / nWords
			}
		}
	}

	// POS tags and bigrams.
	bigramIdx := map[[2]int]int{}
	for i, b := range e.bigrams {
		bigramIdx[b] = e.offBigram + i
	}
	tagged := slowTag(text)
	if len(tagged) > 0 {
		nt := float64(len(tagged))
		for _, t := range tagged {
			if i := slowTagIndex(t.Tag); i >= 0 {
				v[e.offPOS+i] += 1 / nt
			}
		}
		if len(e.bigrams) > 0 && len(tagged) > 1 {
			nbg := float64(len(tagged) - 1)
			for i := 1; i < len(tagged); i++ {
				a, b := slowTagIndex(tagged[i-1].Tag), slowTagIndex(tagged[i].Tag)
				if a < 0 || b < 0 {
					continue
				}
				if idx, ok := bigramIdx[[2]int{a, b}]; ok {
					v[idx] += 1 / nbg
				}
			}
		}
	}
}

// fitSlow returns the bigram pairs FitBigrams installed before the
// one-pass rewrite: counted in a map over string tags, serially.
func fitSlow(texts []string, maxBigrams int) [][2]int {
	if maxBigrams <= 0 {
		maxBigrams = DefaultMaxBigrams
	}
	counts := map[[2]int]int{}
	for _, t := range texts {
		tagged := slowTag(t)
		for i := 1; i < len(tagged); i++ {
			a, b := slowTagIndex(tagged[i-1].Tag), slowTagIndex(tagged[i].Tag)
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
	out := make([][2]int, len(all))
	for i, b := range all {
		out[i] = b.bg
	}
	return out
}

func slowSearch(list []string, w string) int {
	i := sort.SearchStrings(list, w)
	if i < len(list) && list[i] == w {
		return i
	}
	return -1
}

// The reference tokenizer.

type slowToken struct {
	Text  string
	Start int
}

func slowIsWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\''
}

func slowWords(s string) []slowToken {
	var toks []slowToken
	start := -1
	for i, r := range s {
		if slowIsWordRune(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			slowEmitWord(&toks, s, start, i)
			start = -1
		}
	}
	if start >= 0 {
		slowEmitWord(&toks, s, start, len(s))
	}
	return toks
}

func slowEmitWord(toks *[]slowToken, s string, start, end int) {
	w := s[start:end]
	trimmedFront := 0
	for strings.HasPrefix(w, "'") {
		w = w[1:]
		trimmedFront++
	}
	for strings.HasSuffix(w, "'") {
		w = w[:len(w)-1]
	}
	if w == "" {
		return
	}
	*toks = append(*toks, slowToken{Text: w, Start: start + trimmedFront})
}

func slowWordStrings(s string) []string {
	toks := slowWords(s)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func slowParagraphs(s string) []string {
	var out []string
	for _, p := range strings.Split(slowNormalizeNewlines(s), "\n\n") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func slowNormalizeNewlines(s string) string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.ReplaceAll(s, "\r", "\n")
	var b strings.Builder
	lines := strings.Split(s, "\n")
	blank := false
	first := true
	for _, ln := range lines {
		if strings.TrimSpace(ln) == "" {
			blank = true
			continue
		}
		if !first {
			if blank {
				b.WriteString("\n\n")
			} else {
				b.WriteString("\n")
			}
		}
		b.WriteString(ln)
		first = false
		blank = false
	}
	return b.String()
}

func slowWordShape(w string) textutil.Shape {
	runes := []rune(w)
	if len(runes) == 0 {
		return textutil.ShapeOther
	}
	var letters, uppers, lowers int
	internalUpper := false
	for i, r := range runes {
		if !unicode.IsLetter(r) {
			continue
		}
		letters++
		if unicode.IsUpper(r) {
			uppers++
			if i > 0 {
				internalUpper = true
			}
		} else {
			lowers++
		}
	}
	switch {
	case letters == 0:
		return textutil.ShapeOther
	case uppers == 0:
		return textutil.ShapeAllLower
	case lowers == 0 && letters >= 2:
		return textutil.ShapeAllUpper
	case unicode.IsUpper(runes[0]) && internalUpper && lowers > 0:
		return textutil.ShapeCamel
	case unicode.IsUpper(runes[0]) && !internalUpper:
		return textutil.ShapeInitialUpper
	case internalUpper && lowers > 0:
		return textutil.ShapeCamel
	default:
		return textutil.ShapeOther
	}
}

// The reference character counters, one pass each.

func slowLetterFreq(s string) [26]int {
	var freq [26]int
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
			freq[r-'a']++
		case r >= 'A' && r <= 'Z':
			freq[r-'A']++
		}
	}
	return freq
}

func slowDigitFreq(s string) [10]int {
	var freq [10]int
	for _, r := range s {
		if r >= '0' && r <= '9' {
			freq[r-'0']++
		}
	}
	return freq
}

func slowUppercaseRatio(s string) float64 {
	var letters, uppers int
	for _, r := range s {
		if unicode.IsLetter(r) {
			letters++
			if unicode.IsUpper(r) {
				uppers++
			}
		}
	}
	if letters == 0 {
		return 0
	}
	return float64(uppers) / float64(letters)
}

// slowRuneFreq counts the runes of set in s, indexed in set's order.
func slowRuneFreq(s string, set []rune) []int {
	idx := make(map[rune]int, len(set))
	for i, r := range set {
		idx[r] = i
	}
	freq := make([]int, len(set))
	for _, r := range s {
		if i, ok := idx[r]; ok {
			freq[i]++
		}
	}
	return freq
}

// The reference tagger, on string tags.

type slowTagged struct {
	Text string
	Tag  string
}

func slowTagIndex(tag string) int {
	for i, t := range postag.Tags {
		if t == tag {
			return i
		}
	}
	return -1
}

func slowTag(text string) []slowTagged {
	words := slowWords(text)
	out := make([]slowTagged, len(words))
	sentenceStart := true
	for i, w := range words {
		out[i] = slowTagged{Text: w.Text, Tag: slowLexicalTag(w.Text, sentenceStart)}
		sentenceStart = slowEndsSentence(text, w)
	}
	slowApplyContextRules(out)
	return out
}

func slowEndsSentence(text string, w slowToken) bool {
	for _, r := range text[w.Start+len(w.Text):] {
		switch {
		case r == '.' || r == '!' || r == '?':
			return true
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			return false
		}
	}
	return false
}

func slowLexicalTag(word string, sentenceStart bool) string {
	lower := strings.ToLower(word)
	if tag, ok := postag.ClosedClass[lower]; ok {
		return tag
	}
	if slowIsNumeric(word) {
		return "CD"
	}
	if slowIsSymbolic(word) {
		return "SYM"
	}
	if !sentenceStart && slowStartsUpper(word) {
		if strings.HasSuffix(lower, "s") && len(lower) > 3 {
			return "NNPS"
		}
		return "NNP"
	}
	if tag, ok := postag.OpenClass[lower]; ok {
		return tag
	}
	return slowSuffixTag(lower)
}

func slowStartsUpper(w string) bool {
	for _, r := range w {
		return unicode.IsUpper(r)
	}
	return false
}

func slowIsNumeric(w string) bool {
	digits := 0
	for _, r := range w {
		if unicode.IsDigit(r) {
			digits++
		} else if r != '.' && r != ',' && r != '-' && r != '\'' {
			return false
		}
	}
	return digits > 0
}

func slowIsSymbolic(w string) bool {
	for _, r := range w {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return false
		}
	}
	return w != ""
}

func slowSuffixTag(w string) string {
	switch {
	case len(w) > 4 && strings.HasSuffix(w, "ness"),
		len(w) > 4 && strings.HasSuffix(w, "ment"),
		len(w) > 4 && strings.HasSuffix(w, "tion"),
		len(w) > 4 && strings.HasSuffix(w, "sion"),
		len(w) > 3 && strings.HasSuffix(w, "ism"),
		len(w) > 4 && strings.HasSuffix(w, "ship"),
		len(w) > 4 && strings.HasSuffix(w, "ance"),
		len(w) > 4 && strings.HasSuffix(w, "ence"),
		len(w) > 3 && strings.HasSuffix(w, "ity"),
		len(w) > 3 && strings.HasSuffix(w, "ist"):
		return "NN"
	case len(w) > 4 && strings.HasSuffix(w, "able"),
		len(w) > 4 && strings.HasSuffix(w, "ible"),
		len(w) > 3 && strings.HasSuffix(w, "ous"),
		len(w) > 3 && strings.HasSuffix(w, "ful"),
		len(w) > 3 && strings.HasSuffix(w, "ive"),
		len(w) > 3 && strings.HasSuffix(w, "ish"),
		len(w) > 4 && strings.HasSuffix(w, "less"),
		len(w) > 2 && strings.HasSuffix(w, "al") && !strings.HasSuffix(w, "eal"):
		return "JJ"
	case len(w) > 2 && strings.HasSuffix(w, "ly"):
		return "RB"
	case len(w) > 4 && strings.HasSuffix(w, "ing"):
		return "VBG"
	case len(w) > 3 && strings.HasSuffix(w, "ed"):
		return "VBD"
	case len(w) > 3 && strings.HasSuffix(w, "ies"):
		return "NNS"
	case len(w) > 3 && strings.HasSuffix(w, "est"):
		return "JJS"
	case len(w) > 3 && strings.HasSuffix(w, "er"):
		return "JJR"
	case len(w) > 4 && strings.HasSuffix(w, "ize"),
		len(w) > 4 && strings.HasSuffix(w, "ise"),
		len(w) > 3 && strings.HasSuffix(w, "ify"),
		len(w) > 3 && strings.HasSuffix(w, "ate"):
		return "VB"
	case len(w) > 2 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us") && !strings.HasSuffix(w, "is"):
		return "NNS"
	default:
		return "NN"
	}
}

func slowApplyContextRules(toks []slowTagged) {
	for i := range toks {
		prev, next := "", ""
		if i > 0 {
			prev = toks[i-1].Tag
		}
		if i+1 < len(toks) {
			next = toks[i+1].Tag
		}
		cur := &toks[i]
		lower := strings.ToLower(cur.Text)
		switch {
		case (prev == "DT" || prev == "PRP$" || prev == "JJ") &&
			(cur.Tag == "VB" || cur.Tag == "VBP") && next != "NN" && next != "NNS":
			cur.Tag = "NN"
		case prev == "TO" && cur.Tag == "NN" && slowIsLikelyVerb(lower):
			cur.Tag = "VB"
		case prev == "MD" && (cur.Tag == "VBZ" || cur.Tag == "VBP" || cur.Tag == "VBD"):
			cur.Tag = "VB"
		case (prev == "VBP" || prev == "VBZ" || prev == "VBD") && cur.Tag == "VBD" &&
			i > 0 && slowIsHaveForm(strings.ToLower(toks[i-1].Text)):
			cur.Tag = "VBN"
		case i > 0 && slowIsBeForm(strings.ToLower(toks[i-1].Text)) && cur.Tag == "VBD":
			cur.Tag = "VBN"
		}
	}
}

func slowIsHaveForm(w string) bool {
	switch w {
	case "have", "has", "had", "having", "haven't", "hasn't", "hadn't":
		return true
	}
	return false
}

func slowIsBeForm(w string) bool {
	switch w {
	case "am", "is", "are", "was", "were", "be", "been", "being",
		"isn't", "aren't", "wasn't", "weren't":
		return true
	}
	return false
}

func slowIsLikelyVerb(w string) bool {
	switch w {
	case "sleep", "work", "help", "call", "visit", "start", "stop", "try",
		"change", "talk", "walk", "rest", "drink", "eat", "test", "check",
		"care", "hope", "plan", "deal", "cope", "worry", "exercise":
		return true
	}
	return false
}
