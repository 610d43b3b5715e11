// Package postag implements a deterministic rule-based part-of-speech tagger
// over the Penn Treebank tagset.
//
// The tagger combines a closed-class lexicon, morphological suffix rules and
// a small set of contextual (Brill-style) patch rules. It is built for
// stylometry, where the requirement is stable, author-discriminative tag
// distributions rather than state-of-the-art accuracy: identical text always
// produces identical tags, and common grammatical distinctions (determiners,
// modals, pronouns, verb inflections) — the ones that carry authorial signal
// — are resolved by the lexicon.
package postag

import (
	"strings"
	"unicode"

	"dehealth/internal/textutil"
)

// Tags is the Penn Treebank tagset emitted by the tagger, in a stable order.
// Feature extractors index tag-frequency features by position in this slice.
var Tags = []string{
	"CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "MD",
	"NN", "NNS", "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$",
	"RB", "RBR", "RBS", "RP", "TO", "UH",
	"VB", "VBD", "VBG", "VBN", "VBP", "VBZ",
	"WDT", "WP", "WP$", "WRB", "SYM",
}

var tagIndex = func() map[string]int {
	m := make(map[string]int, len(Tags))
	for i, t := range Tags {
		m[t] = i
	}
	return m
}()

// Index returns the stable index of tag in Tags, or -1 for unknown tags.
func Index(tag string) int {
	if i, ok := tagIndex[tag]; ok {
		return i
	}
	return -1
}

// TaggedToken couples a token with its assigned Penn tag.
type TaggedToken struct {
	Text string
	Tag  string
}

// Tag tokenizes text and assigns a Penn Treebank tag to every token.
func Tag(text string) []TaggedToken {
	words := textutil.Words(text)
	out := make([]TaggedToken, len(words))
	sentenceStart := true
	for i, w := range words {
		out[i] = TaggedToken{Text: w.Text, Tag: lexicalTag(w.Text, sentenceStart)}
		sentenceStart = endsSentence(text, w)
	}
	applyContextRules(out)
	return out
}

// endsSentence reports whether the token w is followed (before the next
// word) by a sentence terminator in text.
func endsSentence(text string, w textutil.Token) bool {
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

// lexicalTag assigns a tag to a single token from the lexicon and suffix
// morphology, ignoring context.
func lexicalTag(word string, sentenceStart bool) string {
	lower := strings.ToLower(word)

	if tag, ok := closedClass[lower]; ok {
		return tag
	}
	if isNumeric(word) {
		return "CD"
	}
	if isSymbolic(word) {
		return "SYM"
	}
	// Capitalized mid-sentence words are proper nouns.
	if !sentenceStart && startsUpper(word) {
		if strings.HasSuffix(lower, "s") && len(lower) > 3 {
			return "NNPS"
		}
		return "NNP"
	}
	if tag, ok := openClass[lower]; ok {
		return tag
	}
	return suffixTag(lower)
}

func startsUpper(w string) bool {
	for _, r := range w {
		return unicode.IsUpper(r)
	}
	return false
}

func isNumeric(w string) bool {
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

func isSymbolic(w string) bool {
	for _, r := range w {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return false
		}
	}
	return w != ""
}

// suffixTag resolves open-class words by morphology. Order matters: longer,
// more specific suffixes first.
func suffixTag(w string) string {
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

// applyContextRules applies Brill-style contextual patches in place.
func applyContextRules(toks []TaggedToken) {
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
		// DT/PRP$ + verb-tagged word is actually a noun: "my cold", "a need".
		case (prev == "DT" || prev == "PRP$" || prev == "JJ") &&
			(cur.Tag == "VB" || cur.Tag == "VBP") && next != "NN" && next != "NNS":
			cur.Tag = "NN"
		// TO + base-form ambiguous noun is a verb: "to sleep".
		case prev == "TO" && cur.Tag == "NN" && isLikelyVerb(lower):
			cur.Tag = "VB"
		// MD + anything verb-ish is a base verb: "should goes" -> VB.
		case prev == "MD" && (cur.Tag == "VBZ" || cur.Tag == "VBP" || cur.Tag == "VBD"):
			cur.Tag = "VB"
		// have/has/had + VBD is a past participle.
		case (prev == "VBP" || prev == "VBZ" || prev == "VBD") && cur.Tag == "VBD" &&
			i > 0 && isHaveForm(strings.ToLower(toks[i-1].Text)):
			cur.Tag = "VBN"
		// be-form + VBD is a past participle (passive): "was told".
		case i > 0 && isBeForm(strings.ToLower(toks[i-1].Text)) && cur.Tag == "VBD":
			cur.Tag = "VBN"
		}
	}
}

func isHaveForm(w string) bool {
	switch w {
	case "have", "has", "had", "having", "haven't", "hasn't", "hadn't":
		return true
	}
	return false
}

func isBeForm(w string) bool {
	switch w {
	case "am", "is", "are", "was", "were", "be", "been", "being",
		"isn't", "aren't", "wasn't", "weren't":
		return true
	}
	return false
}

// isLikelyVerb lists frequent noun/verb-ambiguous base forms that follow
// "to" as verbs.
func isLikelyVerb(w string) bool {
	switch w {
	case "sleep", "work", "help", "call", "visit", "start", "stop", "try",
		"change", "talk", "walk", "rest", "drink", "eat", "test", "check",
		"care", "hope", "plan", "deal", "cope", "worry", "exercise":
		return true
	}
	return false
}
