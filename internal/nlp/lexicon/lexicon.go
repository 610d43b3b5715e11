// Package lexicon embeds the linguistic resources required by the
// stylometric feature extractors (Table I of the paper): the function-word
// inventory, the common-misspelling list, and the lexicon + suffix rules
// backing the POS tagger.
//
// All resources are plain Go data so the module builds offline with the
// standard library only.
package lexicon

import "sort"

// dedupSorted sorts ws and removes duplicates, returning the result.
func dedupSorted(ws []string) []string {
	sort.Strings(ws)
	out := ws[:0]
	var prev string
	for i, w := range ws {
		if i == 0 || w != prev {
			out = append(out, w)
		}
		prev = w
	}
	return out
}

// entry is a word of FunctionWords or MisspellingList, with its index in
// each list (-1 where absent).
type entry struct {
	word                  string
	function, misspelling int16
}

var entries = func() map[string]entry {
	m := make(map[string]entry, len(FunctionWords)+len(MisspellingList))
	for i, w := range FunctionWords {
		m[w] = entry{w, int16(i), -1}
	}
	for i, w := range MisspellingList {
		e, ok := m[w]
		if !ok {
			e = entry{w, -1, -1}
		}
		e.misspelling = int16(i)
		m[w] = e
	}
	return m
}()

// Lookup returns the index of w in FunctionWords and its index in
// MisspellingList, -1 for each list w is not in, with one map lookup.
func Lookup(w string) (function, misspelling int) {
	if e, ok := entries[w]; ok {
		return int(e.function), int(e.misspelling)
	}
	return -1, -1
}

// Intern returns b as a string. When b spells a function word or a
// misspelling the string is the list's own, so a caller that lower-cases
// words into a reused buffer allocates only for words outside the lists.
func Intern(b []byte) string {
	if e, ok := entries[string(b)]; ok {
		return e.word
	}
	return string(b)
}
