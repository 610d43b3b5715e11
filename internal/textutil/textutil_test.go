package textutil

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// wordStrings returns the texts of the word tokens of s.
func wordStrings(s string) []string {
	var out []string
	for _, t := range Words(s) {
		out = append(out, t.Text)
	}
	return out
}

// counts returns the character counts of s.
func counts(s string) Counts {
	var c Counts
	Scan(s, nil, &c)
	return c
}

// shapeOf returns the shape of w's only token, or ShapeOther when w holds
// no token.
func shapeOf(t *testing.T, w string) Shape {
	toks := Words(w)
	switch len(toks) {
	case 0:
		return ShapeOther
	case 1:
		return toks[0].Shape()
	}
	t.Fatalf("%q is %d tokens, want one", w, len(toks))
	return ShapeOther
}

func TestWords(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"hello world", []string{"hello", "world"}},
		{"", nil},
		{"   ", nil},
		{"one", []string{"one"}},
		{"don't stop", []string{"don't", "stop"}},
		{"'quoted' words", []string{"quoted", "words"}},
		{"x-ray is a word-pair", []string{"x", "ray", "is", "a", "word", "pair"}},
		{"I took 50mg twice", []string{"I", "took", "50mg", "twice"}},
		{"comma,separated", []string{"comma", "separated"}},
		{"trailing dots...", []string{"trailing", "dots"}},
		{"unicode: héllo wörld", []string{"unicode", "héllo", "wörld"}},
		{"'''", nil},
	}
	for _, tc := range tests {
		got := wordStrings(tc.in)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Words(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestWordsOffsets(t *testing.T) {
	s := "ab cd  ef"
	toks := Words(s)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens", len(toks))
	}
	for _, tok := range toks {
		if s[tok.Start:tok.Start+len(tok.Text)] != tok.Text {
			t.Errorf("offset mismatch: token %q at %d", tok.Text, tok.Start)
		}
	}
}

func TestScanTokenFields(t *testing.T) {
	toks := Words("'Héllo' world. Bye!? 'x ''' ok, 3'4")
	type fields struct {
		text          string
		runes         int
		sentenceStart bool
	}
	want := []fields{
		{"Héllo", 5, true}, {"world", 5, false}, {"Bye", 3, true},
		{"x", 1, true}, {"ok", 2, false}, {"3'4", 3, false},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		got := fields{toks[i].Text, toks[i].Runes, toks[i].SentenceStart}
		if got != w {
			t.Errorf("token %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestScanCounts(t *testing.T) {
	c := counts("Ab 1!\n\nÉ\xff")
	if c.Chars != 9 {
		t.Errorf("Chars = %d, want 9 (one per invalid byte)", c.Chars)
	}
	if c.Alpha != 3 || c.Upper != 2 {
		t.Errorf("Alpha, Upper = %d, %d, want 3, 2", c.Alpha, c.Upper)
	}
	if c.Paragraphs != 2 {
		t.Errorf("Paragraphs = %d, want 2", c.Paragraphs)
	}
}

func TestParagraphs(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{"one paragraph only", 1},
		{"first\n\nsecond", 2},
		{"first\n\n\n\nsecond\n\nthird", 3},
		{"", 0},
		{"\n\n\n", 0},
		{"a\nb\nc", 1},
		{"a\r\n\r\nb", 2},
		{"a\rb\r\rc", 2},
		{"a\r\r\nb", 2},
		{"a\n \t\u00a0\nb", 2},
		{"a\u2028\u2028b", 1},
	}
	for _, tc := range tests {
		if got := counts(tc.in).Paragraphs; got != tc.want {
			t.Errorf("Paragraphs(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestWordShape(t *testing.T) {
	tests := []struct {
		in   string
		want Shape
	}{
		{"hello", ShapeAllLower},
		{"USA", ShapeAllUpper},
		{"Hello", ShapeInitialUpper},
		{"WebMD", ShapeCamel},
		{"iPhone", ShapeCamel},
		{"X", ShapeInitialUpper},
		{"123", ShapeOther},
		{"", ShapeOther},
		{"can't", ShapeAllLower},
		{"McDonald", ShapeCamel},
		{"'Hello'", ShapeInitialUpper},
		{"1A", ShapeOther},
		{"ǅemal", ShapeAllLower},
		{"ÉCOLE", ShapeAllUpper},
	}
	for _, tc := range tests {
		if got := shapeOf(t, tc.in); got != tc.want {
			t.Errorf("WordShape(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestShapeString(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []Shape{ShapeOther, ShapeAllLower, ShapeAllUpper, ShapeInitialUpper, ShapeCamel} {
		name := s.String()
		if name == "" {
			t.Errorf("shape %d has empty name", s)
		}
		if names[name] {
			t.Errorf("duplicate shape name %q", name)
		}
		names[name] = true
	}
}

func TestLetterFreq(t *testing.T) {
	f := counts("Abcz! ZZ").Letters
	if f[0] != 1 || f[1] != 1 || f[2] != 1 || f[25] != 3 {
		t.Errorf("unexpected letter freq: %v", f)
	}
	total := 0
	for _, n := range f {
		total += n
	}
	if total != 6 {
		t.Errorf("total letters = %d, want 6", total)
	}
}

func TestDigitFreq(t *testing.T) {
	f := counts("a1b22c9").Digits
	if f[1] != 1 || f[2] != 2 || f[9] != 1 {
		t.Errorf("unexpected digit freq: %v", f)
	}
}

func TestUppercaseRatio(t *testing.T) {
	tests := []struct {
		in   string
		want float64
	}{
		{"ABCD", 1},
		{"abcd", 0},
		{"AbCd", 0.5},
		{"1234", 0},
		{"", 0},
		{"ÀÉ àé", 0.5},
	}
	for _, tc := range tests {
		c := counts(tc.in)
		if got := c.UppercaseRatio(); got != tc.want {
			t.Errorf("UppercaseRatio(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestPunctuationFreq(t *testing.T) {
	f := counts("Hi! How are you? Fine, fine; really.").Punct
	idx := map[rune]int{}
	for i, r := range Punctuation {
		idx[r] = i
	}
	if f[idx['!']] != 1 || f[idx['?']] != 1 || f[idx[',']] != 1 || f[idx[';']] != 1 || f[idx['.']] != 1 {
		t.Errorf("unexpected punctuation freq: %v", f)
	}
}

func TestSpecialCharFreq(t *testing.T) {
	f := counts("50% of $10 #cool @you").Special
	idx := map[rune]int{}
	for i, r := range SpecialChars {
		idx[r] = i
	}
	if f[idx['%']] != 1 || f[idx['$']] != 1 || f[idx['#']] != 1 || f[idx['@']] != 1 {
		t.Errorf("unexpected special freq: %v", f)
	}
}

func TestSpecialCharsCount(t *testing.T) {
	// Table I: 21 special-character features.
	if len(SpecialChars) != 21 {
		t.Errorf("len(SpecialChars) = %d, want 21", len(SpecialChars))
	}
	if len(Punctuation) != 10 {
		t.Errorf("len(Punctuation) = %d, want 10", len(Punctuation))
	}
}

// Property: every token consists solely of word runes and is non-empty.
func TestWordsProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Words(s) {
			if tok.Text == "" {
				return false
			}
			for _, r := range tok.Text {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '\'' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Error(err)
	}
}

func countNonSpace(s string) int {
	n := 0
	for _, r := range s {
		if !unicode.IsSpace(r) {
			n++
		}
	}
	return n
}

// asciiCase maps s's ASCII letters with to and leaves every other rune.
func asciiCase(s string, to func(rune) rune) string {
	return strings.Map(func(r rune) rune {
		if r < 0x80 {
			return to(r)
		}
		return r
	}, s)
}

// Property: letter frequencies are insensitive to ASCII case. Counts.Letters
// holds the 26 ASCII letters only, so the property is stated over ASCII
// case mapping: Unicode's maps some non-ASCII letters onto ASCII ones (see
// TestLetterFreqNonASCIICaseMapping).
func TestLetterFreqCaseInsensitive(t *testing.T) {
	f := func(s string) bool {
		upper, lower := asciiCase(s, unicode.ToUpper), asciiCase(s, unicode.ToLower)
		return counts(upper).Letters == counts(lower).Letters && counts(lower).Letters == counts(s).Letters
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Error(err)
	}
}

// TestLetterFreqNonASCIICaseMapping pins the three runes whose Unicode
// case mapping crosses into ASCII: each counts as no letter itself, while
// its ASCII image counts as one.
func TestLetterFreqNonASCIICaseMapping(t *testing.T) {
	for _, tc := range []struct {
		name, s string
		to      func(string) string
		letter  byte
	}{
		{"dotless i (U+0131)", "\u0131", strings.ToUpper, 'i'},
		{"long s (U+017F)", "\u017f", strings.ToUpper, 's'},
		{"Kelvin sign (U+212A)", "\u212a", strings.ToLower, 'k'},
	} {
		if got := counts(tc.s).Letters; got != ([26]int{}) {
			t.Errorf("%s: Letters = %v, want no ASCII letter", tc.name, got)
		}
		var want [26]int
		want[tc.letter-'a'] = 1
		if got := counts(tc.to(tc.s)).Letters; got != want {
			t.Errorf("%s: Letters of its case mapping %q = %v, want one %c", tc.name, tc.to(tc.s), got, tc.letter)
		}
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
