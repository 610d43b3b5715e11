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
//
// The tagger works on the tokens of textutil.Scan and their lower-case
// forms, which the caller computes once and shares with its other feature
// blocks, and it emits tags as int8 indices into Tags.
package postag

import (
	"fmt"
	"strings"

	"dehealth/internal/textutil"
)

// Tags is the Penn Treebank tagset emitted by the tagger, in a stable order.
// Feature extractors index tag-frequency features by position in this array.
var Tags = [...]string{
	"CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "MD",
	"NN", "NNS", "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$",
	"RB", "RBR", "RBS", "RP", "TO", "UH",
	"VB", "VBD", "VBG", "VBN", "VBP", "VBZ",
	"WDT", "WP", "WP$", "WRB", "SYM",
}

// Tag indices, in the order of Tags.
const (
	tagCC int8 = iota
	tagCD
	tagDT
	tagEX
	tagFW
	tagIN
	tagJJ
	tagJJR
	tagJJS
	tagMD
	tagNN
	tagNNS
	tagNNP
	tagNNPS
	tagPDT
	tagPOS
	tagPRP
	tagPRPS
	tagRB
	tagRBR
	tagRBS
	tagRP
	tagTO
	tagUH
	tagVB
	tagVBD
	tagVBG
	tagVBN
	tagVBP
	tagVBZ
	tagWDT
	tagWP
	tagWPS
	tagWRB
	tagSYM
	noTag int8 = -1
)

// index returns the position of tag in Tags, or noTag.
func index(tag string) int8 {
	for i, t := range Tags {
		if t == tag {
			return int8(i)
		}
	}
	return noTag
}

// lexEntry is one word's ClosedClass and OpenClass tags (noTag when the
// word is not listed), so tagging a token takes one map lookup.
type lexEntry struct{ closed, open int8 }

var lexicon = func() map[string]lexEntry {
	m := make(map[string]lexEntry, len(ClosedClass)+len(OpenClass))
	add := func(words map[string]string, set func(*lexEntry, int8)) {
		for w, tag := range words {
			i := index(tag)
			if i == noTag {
				panic(fmt.Sprintf("postag: lexicon tags %q with unknown tag %q", w, tag))
			}
			e, ok := m[w]
			if !ok {
				e = lexEntry{noTag, noTag}
			}
			set(&e, i)
			m[w] = e
		}
	}
	add(ClosedClass, func(e *lexEntry, i int8) { e.closed = i })
	add(OpenClass, func(e *lexEntry, i int8) { e.open = i })
	return m
}()

// TagTokens assigns a Penn Treebank tag to every token, writing the tags'
// indices in Tags to dst[:0] and returning it. lower[i] must be
// strings.ToLower(toks[i].Text).
func TagTokens(dst []int8, toks []textutil.Token, lower []string) []int8 {
	dst = dst[:0]
	for i := range toks {
		dst = append(dst, lexicalTag(&toks[i], lower[i]))
	}
	applyContextRules(dst, lower)
	return dst
}

// lexicalTag assigns a tag to a single token from the lexicon and suffix
// morphology, ignoring context. A token always holds a letter or a digit,
// so one without letters is a number.
func lexicalTag(tok *textutil.Token, lower string) int8 {
	e, ok := lexicon[lower]
	if ok && e.closed != noTag {
		return e.closed
	}
	if tok.Letters == 0 {
		return tagCD
	}
	// Capitalized mid-sentence words are proper nouns.
	if !tok.SentenceStart && tok.UpperFirst {
		if strings.HasSuffix(lower, "s") && len(lower) > 3 {
			return tagNNPS
		}
		return tagNNP
	}
	if ok && e.open != noTag {
		return e.open
	}
	return suffixTag(lower)
}

// suffixRule tags a word longer than minLen bytes that ends in suffix,
// unless it ends in one of except.
type suffixRule struct {
	suffix string
	minLen int
	tag    int8
	except []string
}

// suffixRules resolve open-class words by morphology, in priority order:
// longer, more specific suffixes first.
var suffixRules = []suffixRule{
	{"ness", 4, tagNN, nil},
	{"ment", 4, tagNN, nil},
	{"tion", 4, tagNN, nil},
	{"sion", 4, tagNN, nil},
	{"ism", 3, tagNN, nil},
	{"ship", 4, tagNN, nil},
	{"ance", 4, tagNN, nil},
	{"ence", 4, tagNN, nil},
	{"ity", 3, tagNN, nil},
	{"ist", 3, tagNN, nil},
	{"able", 4, tagJJ, nil},
	{"ible", 4, tagJJ, nil},
	{"ous", 3, tagJJ, nil},
	{"ful", 3, tagJJ, nil},
	{"ive", 3, tagJJ, nil},
	{"ish", 3, tagJJ, nil},
	{"less", 4, tagJJ, nil},
	{"al", 2, tagJJ, []string{"eal"}},
	{"ly", 2, tagRB, nil},
	{"ing", 4, tagVBG, nil},
	{"ed", 3, tagVBD, nil},
	{"ies", 3, tagNNS, nil},
	{"est", 3, tagJJS, nil},
	{"er", 3, tagJJR, nil},
	{"ize", 4, tagVB, nil},
	{"ise", 4, tagVB, nil},
	{"ify", 3, tagVB, nil},
	{"ate", 3, tagVB, nil},
	{"s", 2, tagNNS, []string{"ss", "us", "is"}},
}

// rulesByLastByte[b] lists the suffixRules whose suffix ends in byte b, in
// priority order: only they can match a word ending in b.
var rulesByLastByte = func() (t [256][]suffixRule) {
	for _, r := range suffixRules {
		last := r.suffix[len(r.suffix)-1]
		t[last] = append(t[last], r)
	}
	return t
}()

// suffixTag resolves an open-class word by the first suffix rule it
// matches, and tags it NN when it matches none.
func suffixTag(w string) int8 {
	if w == "" {
		return tagNN
	}
rules:
	for _, r := range rulesByLastByte[w[len(w)-1]] {
		if len(w) <= r.minLen || !strings.HasSuffix(w, r.suffix) {
			continue
		}
		for _, x := range r.except {
			if strings.HasSuffix(w, x) {
				continue rules
			}
		}
		return r.tag
	}
	return tagNN
}

// applyContextRules applies Brill-style contextual patches in place, left
// to right: each rule sees its left neighbour's patched tag and its right
// neighbour's lexical one.
func applyContextRules(tags []int8, lower []string) {
	for i := range tags {
		prev, next := noTag, noTag
		if i > 0 {
			prev = tags[i-1]
		}
		if i+1 < len(tags) {
			next = tags[i+1]
		}
		cur := &tags[i]
		switch {
		// DT/PRP$ + verb-tagged word is actually a noun: "my cold", "a need".
		case (prev == tagDT || prev == tagPRPS || prev == tagJJ) &&
			(*cur == tagVB || *cur == tagVBP) && next != tagNN && next != tagNNS:
			*cur = tagNN
		// TO + base-form ambiguous noun is a verb: "to sleep".
		case prev == tagTO && *cur == tagNN && isLikelyVerb(lower[i]):
			*cur = tagVB
		// MD + anything verb-ish is a base verb: "should goes" -> VB.
		case prev == tagMD && (*cur == tagVBZ || *cur == tagVBP || *cur == tagVBD):
			*cur = tagVB
		// have/has/had + VBD is a past participle.
		case (prev == tagVBP || prev == tagVBZ || prev == tagVBD) && *cur == tagVBD &&
			isHaveForm(lower[i-1]):
			*cur = tagVBN
		// be-form + VBD is a past participle (passive): "was told".
		case *cur == tagVBD && i > 0 && isBeForm(lower[i-1]):
			*cur = tagVBN
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
