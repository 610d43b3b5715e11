package postag

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"dehealth/internal/textutil"
)

func tagsOf(text string) []string {
	tagged := Tag(text)
	out := make([]string, len(tagged))
	for i, t := range tagged {
		out[i] = t.Tag
	}
	return out
}

func TestClosedClass(t *testing.T) {
	tests := []struct {
		text string
		want []string
	}{
		{"the doctor", []string{"DT", "NN"}},
		{"i feel sick", []string{"PRP", "VBP", "JJ"}},
		{"my head hurts", []string{"PRP$", "NN", "NNS"}},
		{"she should go", []string{"PRP", "MD", "VB"}},
		{"because of it", []string{"IN", "IN", "PRP"}},
	}
	for _, tc := range tests {
		if got := tagsOf(tc.text); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tag(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestSuffixRules(t *testing.T) {
	tests := []struct {
		word string
		want string
	}{
		{"happiness", "NN"},
		{"treatment", "NN"},
		{"medication", "NN"},
		{"quickly", "RB"},
		{"sleeping", "VBG"},
		{"walked", "VBD"},
		{"beautiful", "JJ"},
		{"dangerous", "JJ"},
		{"symptoms", "NNS"},
		{"biggest", "JJS"},
	}
	for _, tc := range tests {
		got := tagsOf(tc.word)
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("Tag(%q) = %v, want [%s]", tc.word, got, tc.want)
		}
	}
}

func TestNumbersAndSymbols(t *testing.T) {
	got := tagsOf("take 50 pills")
	if got[1] != "CD" {
		t.Errorf("numeric token tagged %s, want CD", got[1])
	}
	got = tagsOf("i took 2.5 doses")
	if got[2] != "CD" {
		t.Errorf("decimal token tagged %s, want CD", got[2])
	}
}

func TestProperNounMidSentence(t *testing.T) {
	got := Tag("i asked Wilson about it")
	if got[2].Tag != "NNP" {
		t.Errorf("mid-sentence capitalized word tagged %s, want NNP", got[2].Tag)
	}
	// Sentence-initial capitalization is NOT treated as a proper noun.
	got = Tag("Wilson asked me. The doctor agreed.")
	if got[4].Tag == "NNP" {
		t.Errorf("sentence-initial 'The' tagged NNP")
	}
}

func TestContextRules(t *testing.T) {
	// have + VBD -> VBN
	got := Tag("i have walked there")
	if got[2].Tag != "VBN" {
		t.Errorf("'have walked' => %s, want VBN", got[2].Tag)
	}
	// be + VBD -> VBN (passive)
	got = Tag("i was told about it")
	if got[2].Tag != "VBN" {
		t.Errorf("'was told' => %s, want VBN", got[2].Tag)
	}
	// MD + inflected verb -> VB
	got = Tag("she can walked there")
	if got[2].Tag != "VB" {
		t.Errorf("'can walked' => %s, want VB", got[2].Tag)
	}
}

func TestDeterminism(t *testing.T) {
	text := "My doctor prescribed 50mg of metformin because my blood test came back abnormal."
	a := Tag(text)
	b := Tag(text)
	if !reflect.DeepEqual(a, b) {
		t.Error("tagger is not deterministic")
	}
}

func TestIndex(t *testing.T) {
	for i, tag := range Tags {
		if Index(tag) != i {
			t.Fatalf("Index(%q) = %d, want %d", tag, Index(tag), i)
		}
	}
	if Index("NOPE") != -1 {
		t.Error("Index of unknown tag must be -1")
	}
}

// Property: tagging emits exactly one known tag per token.
func TestTagCoversAllTokens(t *testing.T) {
	f := func(s string) bool {
		words := textutil.Words(s)
		tagged := Tag(s)
		if len(tagged) != len(words) {
			return false
		}
		for i, tt := range tagged {
			if tt.Text != words[i].Text {
				return false
			}
			if Index(tt.Tag) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Error(err)
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
