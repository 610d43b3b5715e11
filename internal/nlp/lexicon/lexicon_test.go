package lexicon

import (
	"sort"
	"strings"
	"testing"
)

func TestFunctionWordCount(t *testing.T) {
	// Table I: 337 function-word features.
	if len(FunctionWords) != 337 {
		t.Errorf("len(FunctionWords) = %d, want 337", len(FunctionWords))
	}
}

func TestFunctionWordsSortedUnique(t *testing.T) {
	if !sort.StringsAreSorted(FunctionWords) {
		t.Error("FunctionWords must be sorted")
	}
	for i := 1; i < len(FunctionWords); i++ {
		if FunctionWords[i] == FunctionWords[i-1] {
			t.Errorf("duplicate function word %q", FunctionWords[i])
		}
	}
}

func TestFunctionWordsLowercase(t *testing.T) {
	for _, w := range FunctionWords {
		if w != strings.ToLower(w) {
			t.Errorf("function word %q is not lowercase", w)
		}
	}
}

// functionWordIndex and misspellingIndex are Lookup's two halves.
func functionWordIndex(w string) int {
	i, _ := Lookup(w)
	return i
}

func misspellingIndex(w string) int {
	_, i := Lookup(w)
	return i
}

func TestIsFunctionWord(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "i", "because", "won't"} {
		if functionWordIndex(w) < 0 {
			t.Errorf("%q is not a function word, want one", w)
		}
	}
	for _, w := range []string{"doctor", "xyzzy", "", "medicine"} {
		if functionWordIndex(w) >= 0 {
			t.Errorf("%q is a function word, want none", w)
		}
	}
}

func TestFunctionWordIndex(t *testing.T) {
	for i, w := range FunctionWords {
		if got := functionWordIndex(w); got != i {
			t.Fatalf("function-word index of %q = %d, want %d", w, got, i)
		}
	}
	if functionWordIndex("not-a-word") != -1 {
		t.Error("function-word index of unknown word must be -1")
	}
}

func TestMisspellingCount(t *testing.T) {
	// Table I: 248 misspelled-word features.
	if len(Misspellings) != 248 {
		t.Errorf("len(Misspellings) = %d, want 248", len(Misspellings))
	}
	if len(MisspellingList) != 248 {
		t.Errorf("len(MisspellingList) = %d, want 248", len(MisspellingList))
	}
}

func TestMisspellingListSortedUnique(t *testing.T) {
	if !sort.StringsAreSorted(MisspellingList) {
		t.Error("MisspellingList must be sorted")
	}
	for i := 1; i < len(MisspellingList); i++ {
		if MisspellingList[i] == MisspellingList[i-1] {
			t.Errorf("duplicate misspelling %q", MisspellingList[i])
		}
	}
}

func TestMisspellingsAreNotCorrections(t *testing.T) {
	for wrong, right := range Misspellings {
		if wrong == right {
			t.Errorf("misspelling %q equals its correction", wrong)
		}
		if right == "" {
			t.Errorf("misspelling %q has empty correction", wrong)
		}
	}
}

func TestIsMisspelling(t *testing.T) {
	for _, w := range []string{"recieve", "definately", "seperate", "wierd"} {
		if misspellingIndex(w) < 0 {
			t.Errorf("%q is not a misspelling, want one", w)
		}
	}
	for _, w := range []string{"receive", "definitely", "separate", "weird", ""} {
		if misspellingIndex(w) >= 0 {
			t.Errorf("%q is a misspelling, want none", w)
		}
	}
}

func TestMisspellingIndex(t *testing.T) {
	for i, w := range MisspellingList {
		if got := misspellingIndex(w); got != i {
			t.Fatalf("misspelling index of %q = %d, want %d", w, got, i)
		}
	}
	if misspellingIndex("correct") != -1 {
		t.Error("misspelling index of unknown word must be -1")
	}
}

func TestIntern(t *testing.T) {
	for _, w := range []string{FunctionWords[0], FunctionWords[len(FunctionWords)-1], MisspellingList[7], "doctor", ""} {
		b := []byte(w)
		if got := Intern(b); got != w {
			t.Errorf("Intern(%q) = %q", w, got)
		}
	}
	b := []byte("because")
	if n := testing.AllocsPerRun(10, func() { Intern(b) }); n != 0 {
		t.Errorf("interning a function word allocates %v times, want 0", n)
	}
}

func TestNoOverlapFunctionWordsMisspellings(t *testing.T) {
	// A function word must never be indexed as a misspelling: the feature
	// extractor assumes the two blocks are disjoint signals.
	for _, w := range FunctionWords {
		if misspellingIndex(w) >= 0 {
			t.Errorf("%q is both a function word and a misspelling", w)
		}
	}
}
