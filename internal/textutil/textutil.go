// Package textutil provides the low-level text segmentation primitives used
// by the stylometric feature extractors: word tokenization, sentence and
// paragraph splitting, character classification, and word-shape analysis.
//
// The tokenizer is deliberately simple and deterministic: stylometry cares
// about stable per-author statistics, not linguistic perfection, so the same
// input must always yield the same tokens.
package textutil

import (
	"strings"
	"unicode"
)

// Token is a single word-like unit extracted from a post.
type Token struct {
	// Text is the raw token text, including any internal apostrophes.
	Text string
	// Start is the byte offset of the token in the original string.
	Start int
}

// Shape classifies the capitalization pattern of a word (Table I, "word
// shape" features).
type Shape int

const (
	// ShapeOther covers tokens that fit no other class (digits, mixed).
	ShapeOther Shape = iota
	// ShapeAllLower is an all-lowercase word ("hello").
	ShapeAllLower
	// ShapeAllUpper is an all-uppercase word of length >= 2 ("USA").
	ShapeAllUpper
	// ShapeInitialUpper is a capitalized word ("Hello").
	ShapeInitialUpper
	// ShapeCamel is a camel-case word with an internal capital ("WebMD").
	ShapeCamel
)

// String returns a stable name for the shape, used as a feature key.
func (s Shape) String() string {
	switch s {
	case ShapeAllLower:
		return "lower"
	case ShapeAllUpper:
		return "upper"
	case ShapeInitialUpper:
		return "initial"
	case ShapeCamel:
		return "camel"
	default:
		return "other"
	}
}

// isWordRune reports whether r can be part of a word token.
func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\''
}

// Words tokenizes s into word tokens. A word is a maximal run of letters,
// digits and internal apostrophes. Leading/trailing apostrophes are trimmed.
func Words(s string) []Token {
	var toks []Token
	start := -1
	for i, r := range s {
		if isWordRune(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			emitWord(&toks, s, start, i)
			start = -1
		}
	}
	if start >= 0 {
		emitWord(&toks, s, start, len(s))
	}
	return toks
}

func emitWord(toks *[]Token, s string, start, end int) {
	w := s[start:end]
	// Trim apostrophes that are really quotes.
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
	*toks = append(*toks, Token{Text: w, Start: start + trimmedFront})
}

// WordStrings returns just the token texts of Words(s).
func WordStrings(s string) []string {
	toks := Words(s)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// Paragraphs splits s into paragraphs on blank lines (one or more newlines
// separated only by whitespace). Empty paragraphs are dropped.
func Paragraphs(s string) []string {
	var out []string
	for _, p := range strings.Split(normalizeNewlines(s), "\n\n") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func normalizeNewlines(s string) string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.ReplaceAll(s, "\r", "\n")
	// Collapse runs of 2+ newlines (possibly with interior spaces) to exactly
	// one blank-line separator.
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

// WordShape classifies the capitalization shape of w.
func WordShape(w string) Shape {
	runes := []rune(w)
	if len(runes) == 0 {
		return ShapeOther
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
		return ShapeOther
	case uppers == 0:
		return ShapeAllLower
	case lowers == 0 && letters >= 2:
		return ShapeAllUpper
	case unicode.IsUpper(runes[0]) && internalUpper && lowers > 0:
		return ShapeCamel
	case unicode.IsUpper(runes[0]) && !internalUpper:
		return ShapeInitialUpper
	case internalUpper && lowers > 0:
		return ShapeCamel
	default:
		return ShapeOther
	}
}

// CountChars returns the number of Unicode characters (runes) in s.
func CountChars(s string) int { return len([]rune(s)) }

// LetterFreq returns a 26-element count of ASCII letters (case-folded).
func LetterFreq(s string) [26]int {
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

// DigitFreq returns a 10-element count of ASCII digits.
func DigitFreq(s string) [10]int {
	var freq [10]int
	for _, r := range s {
		if r >= '0' && r <= '9' {
			freq[r-'0']++
		}
	}
	return freq
}

// UppercaseRatio returns the fraction of letters in s that are uppercase.
// It returns 0 for strings with no letters.
func UppercaseRatio(s string) float64 {
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

// Punctuation is the set of punctuation marks counted by the Table I
// "punctuation frequency" features, in a stable order.
var Punctuation = []rune{'.', ',', ';', ':', '!', '?', '\'', '"', '-', '('}

// PunctuationFreq counts the Table I punctuation marks in s, indexed in the
// order of Punctuation.
func PunctuationFreq(s string) []int {
	idx := make(map[rune]int, len(Punctuation))
	for i, r := range Punctuation {
		idx[r] = i
	}
	freq := make([]int, len(Punctuation))
	for _, r := range s {
		if i, ok := idx[r]; ok {
			freq[i]++
		}
	}
	return freq
}

// SpecialChars is the set of special characters counted by the Table I
// "special characters" features (21 characters).
var SpecialChars = []rune{'@', '#', '$', '%', '^', '&', '*', '+', '=', '<', '>', '/', '\\', '|', '~', '`', '_', '{', '}', '[', ']'}

// SpecialCharFreq counts the Table I special characters in s, indexed in the
// order of SpecialChars.
func SpecialCharFreq(s string) []int {
	idx := make(map[rune]int, len(SpecialChars))
	for i, r := range SpecialChars {
		idx[r] = i
	}
	freq := make([]int, len(SpecialChars))
	for _, r := range s {
		if i, ok := idx[r]; ok {
			freq[i]++
		}
	}
	return freq
}
