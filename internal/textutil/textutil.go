// Package textutil provides the low-level text primitive used by the
// stylometric feature extractors: Scan, one pass over a post that splits it
// into word tokens, classifies each token's capitalization shape and
// sentence position, and counts the post's characters, paragraphs and the
// Table I punctuation and special characters.
//
// The tokenizer is deliberately simple and deterministic: stylometry cares
// about stable per-author statistics, not linguistic perfection, so the same
// input must always yield the same tokens.
package textutil

import (
	"unicode"
	"unicode/utf8"
)

// Token is a single word-like unit extracted from a post: a maximal run of
// letters, digits and apostrophes with its leading and trailing apostrophes
// trimmed. It carries what the feature blocks need of it, gathered while
// the token was scanned.
type Token struct {
	// Text is the raw token text, including any internal apostrophes.
	Text string
	// Start is the byte offset of the token in the original string.
	Start int
	// Runes is the number of runes in Text; Letters counts its letters and
	// Upper the upper-case ones among them.
	Runes, Letters, Upper int
	// UpperFirst reports an upper-case first rune, UpperInside an
	// upper-case letter at any later rune.
	UpperFirst, UpperInside bool
	// SentenceStart reports that no token precedes this one, or that a
	// '.', '!' or '?' lies between the previous token and this one.
	SentenceStart bool
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

// Shape classifies the token's capitalization.
func (t *Token) Shape() Shape {
	lowers := t.Letters - t.Upper
	switch {
	case t.Letters == 0:
		return ShapeOther
	case t.Upper == 0:
		return ShapeAllLower
	case lowers == 0 && t.Letters >= 2:
		return ShapeAllUpper
	case t.UpperFirst && t.UpperInside && lowers > 0:
		return ShapeCamel
	case t.UpperFirst && !t.UpperInside:
		return ShapeInitialUpper
	case t.UpperInside && lowers > 0:
		return ShapeCamel
	default:
		return ShapeOther
	}
}

// Punctuation is the set of punctuation marks counted by the Table I
// "punctuation frequency" features, in a stable order.
var Punctuation = [...]rune{'.', ',', ';', ':', '!', '?', '\'', '"', '-', '('}

// SpecialChars is the set of special characters counted by the Table I
// "special characters" features (21 characters).
var SpecialChars = [...]rune{'@', '#', '$', '%', '^', '&', '*', '+', '=', '<', '>', '/', '\\', '|', '~', '`', '_', '{', '}', '[', ']'}

// Counts holds the character statistics of a post, gathered by Scan.
type Counts struct {
	// Chars is the number of runes (an invalid UTF-8 byte counts as one).
	Chars int
	// Paragraphs is the number of runs of non-blank lines. Lines end at
	// "\r\n", "\r" or "\n"; a blank line holds only white space.
	Paragraphs int
	// Letters counts the ASCII letters, case-folded; Digits the ASCII
	// digits.
	Letters [26]int
	Digits  [10]int
	// Alpha counts the letters of any script, Upper the upper-case ones
	// among them.
	Alpha, Upper int
	// Punct and Special count the runes of Punctuation and SpecialChars,
	// indexed in their order.
	Punct   [len(Punctuation)]int
	Special [len(SpecialChars)]int
}

// UppercaseRatio returns the fraction of letters that are upper-case, or 0
// when there are no letters.
func (c *Counts) UppercaseRatio() float64 {
	if c.Alpha == 0 {
		return 0
	}
	return float64(c.Upper) / float64(c.Alpha)
}

// Classes of a rune, as Scan sees it.
const (
	classLetter uint8 = 1 << iota
	classUpper
	classDigit
	classApostrophe
	classSpace
	classNewline    // '\n' or '\r'
	classTerminator // '.', '!' or '?': ends a sentence

	classWord = classLetter | classDigit | classApostrophe
)

// asciiClass holds the classes of the ASCII runes.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for r := range t {
		switch {
		case 'a' <= r && r <= 'z':
			t[r] = classLetter
		case 'A' <= r && r <= 'Z':
			t[r] = classLetter | classUpper
		case '0' <= r && r <= '9':
			t[r] = classDigit
		case r == '\'':
			t[r] = classApostrophe
		case r == '\n' || r == '\r':
			t[r] = classSpace | classNewline
		case unicode.IsSpace(rune(r)):
			t[r] = classSpace
		case r == '.' || r == '!' || r == '?':
			t[r] = classTerminator
		}
	}
	return t
}()

// classOf returns the classes of a non-ASCII rune.
func classOf(r rune) uint8 {
	switch {
	case unicode.IsUpper(r):
		return classLetter | classUpper
	case unicode.IsLetter(r):
		return classLetter
	case unicode.IsDigit(r):
		return classDigit
	case unicode.IsSpace(r):
		return classSpace
	}
	return 0
}

// Scan splits s into word tokens and counts its characters in a single pass
// over its runes. It overwrites *c, appends the tokens to toks[:0] and
// returns the result, so a caller can reuse one token slice across posts.
//
// A word is a maximal run of letters, digits and apostrophes, with leading
// and trailing apostrophes trimmed; a run of apostrophes alone is no word.
func Scan(s string, toks []Token, c *Counts) []Token {
	toks = toks[:0]
	var (
		ascii        [utf8.RuneSelf]int // occurrences of each ASCII rune
		chars        int
		alpha, upper int // non-ASCII letters; the ASCII ones come from ascii
		paragraphs   int
		inPara       bool // the last non-blank line belongs to an open paragraph
		lineText     bool // the current line holds a non-space rune
		prevCR       bool
		sentence     = true // no token yet, or a terminator since the last one
		tok          Token
		inTok        bool // tok holds a letter or digit of the current run
		tokRunes     int  // runes of the current run since tok started
		tokEnd       int  // byte end of tok's last letter or digit
	)
	for i, r := range s {
		chars++
		var cls uint8
		size := 1
		if r < utf8.RuneSelf {
			ascii[r]++
			cls = asciiClass[r]
		} else {
			cls = classOf(r)
			size = utf8.RuneLen(r)
			if cls&classLetter != 0 {
				alpha++
				if cls&classUpper != 0 {
					upper++
				}
			}
		}

		if cls&classNewline != 0 {
			if !(r == '\n' && prevCR) { // "\r\n" ends one line
				if !lineText {
					inPara = false
				}
				lineText = false
			}
		} else if cls&classSpace == 0 && !lineText {
			lineText = true
			if !inPara {
				inPara = true
				paragraphs++
			}
		}
		prevCR = r == '\r'

		if cls&classWord == 0 {
			if inTok {
				tok.Text = s[tok.Start:tokEnd]
				toks = append(toks, tok)
				inTok = false
			}
			if cls&classTerminator != 0 {
				sentence = true
			}
			continue
		}
		if cls&classApostrophe != 0 {
			tokRunes++
			continue
		}
		if !inTok {
			tok = Token{Start: i, SentenceStart: sentence, UpperFirst: cls&classUpper != 0}
			inTok, tokRunes, sentence = true, 0, false
		} else if cls&classUpper != 0 {
			tok.UpperInside = true
		}
		tokRunes++
		tok.Runes = tokRunes
		tokEnd = i + size
		if cls&classLetter != 0 {
			tok.Letters++
			if cls&classUpper != 0 {
				tok.Upper++
			}
		}
	}
	if inTok {
		tok.Text = s[tok.Start:tokEnd]
		toks = append(toks, tok)
	}

	*c = Counts{Chars: chars, Paragraphs: paragraphs, Alpha: alpha, Upper: upper}
	for i := range c.Letters {
		c.Letters[i] = ascii['a'+i] + ascii['A'+i]
		c.Alpha += c.Letters[i]
		c.Upper += ascii['A'+i]
	}
	for i := range c.Digits {
		c.Digits[i] = ascii['0'+i]
	}
	for i, r := range Punctuation {
		c.Punct[i] = ascii[r]
	}
	for i, r := range SpecialChars {
		c.Special[i] = ascii[r]
	}
	return toks
}

// Words returns the word tokens of s (see Scan).
func Words(s string) []Token {
	var c Counts
	return Scan(s, nil, &c)
}
