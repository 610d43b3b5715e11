package postag

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"dehealth/internal/textutil"
)

// tagIndices tags the tokens of text.
func tagIndices(text string) []int8 {
	toks := textutil.Words(text)
	lower := make([]string, len(toks))
	for i, t := range toks {
		lower[i] = strings.ToLower(t.Text)
	}
	return TagTokens(nil, toks, lower)
}

// tagsOf returns the tag names of the tokens of text.
func tagsOf(text string) []string {
	var out []string
	for _, i := range tagIndices(text) {
		out = append(out, Tags[i])
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
	got := tagsOf("i asked Wilson about it")
	if got[2] != "NNP" {
		t.Errorf("mid-sentence capitalized word tagged %s, want NNP", got[2])
	}
	if got := tagsOf("i asked Nurses"); got[2] != "NNPS" {
		t.Errorf("mid-sentence capitalized plural tagged %s, want NNPS", got[2])
	}
	// Sentence-initial capitalization is NOT treated as a proper noun.
	got = tagsOf("Wilson asked me. The doctor agreed.")
	if got[3] == "NNP" {
		t.Errorf("sentence-initial 'The' tagged NNP")
	}
}

func TestContextRules(t *testing.T) {
	for _, tc := range []struct {
		rule, text string
		at         int
		want       string
	}{
		{"have + VBD -> VBN", "i have walked there", 2, "VBN"},
		{"be + VBD -> VBN (passive)", "i was told about it", 2, "VBN"},
		{"MD + inflected verb -> VB", "she can walked there", 2, "VB"},
		{"MD + VBZ -> VB", "she should does it", 2, "VB"},
		{"TO + ambiguous noun -> VB", "i want to sleep", 3, "VB"},
		{"PRP$ + verb -> NN", "my cold is worse", 1, "NN"},
		{"DT + verb -> NN", "a need for it", 1, "NN"},
		{"DT + verb before a noun stays", "the need people feel", 1, "VBP"},
	} {
		if got := tagsOf(tc.text); got[tc.at] != tc.want {
			t.Errorf("%s: %q tags %v, want %s at %d", tc.rule, tc.text, got, tc.want, tc.at)
		}
	}
}

func TestDeterminism(t *testing.T) {
	text := "My doctor prescribed 50mg of metformin because my blood test came back abnormal."
	a := tagIndices(text)
	b := tagIndices(text)
	if !reflect.DeepEqual(a, b) {
		t.Error("tagger is not deterministic")
	}
}

func TestIndex(t *testing.T) {
	for i, tag := range Tags {
		if got := index(tag); got != int8(i) {
			t.Fatalf("index(%q) = %d, want %d", tag, got, i)
		}
	}
	if index("NOPE") != noTag {
		t.Error("index of unknown tag must be noTag")
	}
	// The named tag constants follow Tags.
	named := map[int8]string{
		tagCC: "CC", tagCD: "CD", tagDT: "DT", tagJJ: "JJ", tagJJR: "JJR",
		tagJJS: "JJS", tagMD: "MD", tagNN: "NN", tagNNS: "NNS", tagNNP: "NNP",
		tagNNPS: "NNPS", tagPRPS: "PRP$", tagRB: "RB", tagTO: "TO", tagVB: "VB",
		tagVBD: "VBD", tagVBG: "VBG", tagVBN: "VBN", tagVBP: "VBP", tagVBZ: "VBZ",
		tagWPS: "WP$", tagSYM: "SYM",
	}
	for i, tag := range named {
		if Tags[i] != tag {
			t.Errorf("constant for %s is %d, which Tags names %s", tag, i, Tags[i])
		}
	}
}

// Property: tagging emits exactly one known tag per token.
func TestTagCoversAllTokens(t *testing.T) {
	f := func(s string) bool {
		tags := tagIndices(s)
		if len(tags) != len(textutil.Words(s)) {
			return false
		}
		for _, tag := range tags {
			if tag < 0 || int(tag) >= len(Tags) {
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
