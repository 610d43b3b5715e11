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

// FunctionWordIndex returns the index of w in FunctionWords, or -1.
func FunctionWordIndex(w string) int {
	i := sort.SearchStrings(FunctionWords, w)
	if i < len(FunctionWords) && FunctionWords[i] == w {
		return i
	}
	return -1
}

// MisspellingIndex returns the stable feature index of the misspelling w in
// MisspellingList, or -1 if w is not a known misspelling.
func MisspellingIndex(w string) int {
	i := sort.SearchStrings(MisspellingList, w)
	if i < len(MisspellingList) && MisspellingList[i] == w {
		return i
	}
	return -1
}
