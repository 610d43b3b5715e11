package anonymize

import (
	"strings"
	"testing"
	"testing/quick"

	"dehealth/internal/corpus"
	"dehealth/internal/nlp/lexicon"
	"dehealth/internal/textutil"
)

func TestScrubOff(t *testing.T) {
	text := "I definately LOVE this!! :)"
	if Scrub(text, LevelOff) != text {
		t.Error("LevelOff must not modify text")
	}
}

func TestScrubFixesMisspellings(t *testing.T) {
	got := Scrub("i definately beleive you", LevelLight)
	if strings.Contains(got, "definately") || strings.Contains(got, "beleive") {
		t.Errorf("misspellings survived: %q", got)
	}
	if !strings.Contains(got, "definitely") || !strings.Contains(got, "believe") {
		t.Errorf("corrections missing: %q", got)
	}
}

func TestScrubPreservesCapitalizedCorrection(t *testing.T) {
	got := Scrub("Definately so", LevelLight)
	if !strings.HasPrefix(got, "Definitely") {
		t.Errorf("capitalization lost: %q", got)
	}
}

func TestScrubStripsEmoticons(t *testing.T) {
	got := Scrub("feeling better :) today :(", LevelLight)
	if strings.Contains(got, ":)") || strings.Contains(got, ":(") {
		t.Errorf("emoticons survived: %q", got)
	}
}

func TestScrubNormalizesCase(t *testing.T) {
	got := Scrub("i am SEVERELY worried. it hurts.", LevelStandard)
	if strings.Contains(got, "SEVERELY") {
		t.Errorf("all-caps survived: %q", got)
	}
	if !strings.HasPrefix(got, "I am") {
		t.Errorf("sentence start not capitalized: %q", got)
	}
	if strings.Contains(got, " i ") {
		t.Errorf("lowercase pronoun survived: %q", got)
	}
}

func TestScrubNormalizesPunctuation(t *testing.T) {
	got := Scrub("this is terrible!! why me?! ok...", LevelStandard)
	for _, bad := range []string{"!!", "?!", "...", "!"} {
		if strings.Contains(got, bad) {
			t.Errorf("punctuation habit %q survived: %q", bad, got)
		}
	}
}

func TestScrubAggressiveStripsSpecials(t *testing.T) {
	got := Scrub("took ~50mg & felt *terrible* 100% of the time", LevelAggressive)
	for _, r := range textutil.SpecialChars {
		if strings.ContainsRune(got, r) {
			t.Errorf("special char %q survived: %q", r, got)
		}
	}
	for _, d := range "0123456789" {
		if strings.ContainsRune(got, d) {
			t.Errorf("digit %q survived: %q", d, got)
		}
	}
}

func TestScrubDataset(t *testing.T) {
	d := &corpus.Dataset{
		Name: "t",
		Users: []corpus.User{{
			ID: 0, Name: "a", Location: "austin",
			AvatarHash: 42, AvatarKind: corpus.AvatarRealPerson, TrueIdentity: 1,
		}},
		Threads: []corpus.Thread{{ID: 0, Board: "b", Starter: 0}},
		Posts:   []corpus.Post{{ID: 0, User: 0, Thread: 0, Text: "i definately agree!!"}},
	}
	out := ScrubDataset(d, LevelAggressive)
	if err := out.Validate(); err != nil {
		t.Fatalf("scrubbed dataset invalid: %v", err)
	}
	if strings.Contains(out.Posts[0].Text, "definately") {
		t.Error("post not scrubbed")
	}
	if out.Users[0].AvatarHash != 0 || out.Users[0].Location != "" {
		t.Error("aggressive scrub must withhold avatar and location")
	}
	// The original is untouched.
	if d.Posts[0].Text != "i definately agree!!" || d.Users[0].AvatarHash != 42 {
		t.Error("ScrubDataset mutated its input")
	}
}

// Property: scrubbed text never contains a known misspelling token.
func TestScrubKillsAllMisspellingsProperty(t *testing.T) {
	i := 0
	f := func(seed uint8) bool {
		// Build text from a rotating window of misspellings.
		var words []string
		for j := 0; j < 10; j++ {
			words = append(words, lexicon.MisspellingList[(i*10+j)%len(lexicon.MisspellingList)])
		}
		i++
		got := Scrub(strings.Join(words, " "), LevelLight)
		for _, w := range textutil.WordStrings(got) {
			if lexicon.MisspellingIndex(strings.ToLower(w)) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: scrubbing is idempotent at every level.
func TestScrubIdempotentProperty(t *testing.T) {
	texts := []string{
		"i definately LOVE this!! :) 50mg of *metformin*",
		"Hello ALL... my stomache hurts?!",
		"plain text with no habits at all.",
	}
	for _, level := range []Level{LevelLight, LevelStandard, LevelAggressive} {
		for _, text := range texts {
			once := Scrub(text, level)
			twice := Scrub(once, level)
			if once != twice {
				t.Errorf("level %d not idempotent:\n once: %q\ntwice: %q", level, once, twice)
			}
		}
	}
}
