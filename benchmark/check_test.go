package main

import (
	"math"
	"testing"

	"dehealth/internal/shard"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

func TestSameTopKComparesScoreBitsAndOrder(t *testing.T) {
	want := []shard.Candidate{{User: 4, Score: 0.75}, {User: 9, Score: 0.5}, {User: 11, Score: 0.5}}
	same := []candidate{{User: 4, Score: 0.75}, {User: 9, Score: 0.5}, {User: 11, Score: 0.5}}
	if err := sameTopK(same, want); err != nil {
		t.Errorf("identical lists differ: %v", err)
	}
	ulp := append([]candidate(nil), same...)
	ulp[0].Score = math.Nextafter(0.75, 1)
	if sameTopK(ulp, want) == nil {
		t.Error("a score one ulp off passed as identical")
	}
	swapped := []candidate{same[0], same[2], same[1]} // tie broken towards the larger id
	if sameTopK(swapped, want) == nil {
		t.Error("a tie in the wrong id order passed as identical")
	}
	if sameTopK(same[:2], want) == nil {
		t.Error("a short list passed as identical")
	}
	// Recall only asks whether the ids are there.
	if got := recall(swapped, want); got != 1 {
		t.Errorf("recall of a reordered list = %g, want 1", got)
	}
	if got := recall([]candidate{{User: 4}, {User: 5}, {User: 6}}, want); got != 1.0/3 {
		t.Errorf("recall = %g, want 1/3", got)
	}
}

func TestRankBreaksTiesTowardsSmallerID(t *testing.T) {
	cs := []shard.Candidate{{User: 7, Score: 0.5}, {User: 2, Score: 0.5}, {User: 5, Score: 0.9}, {User: 3, Score: 0.5}}
	rank(cs)
	for i, want := range []int{5, 2, 3, 7} {
		if cs[i].User != want {
			t.Fatalf("rank order = %+v, want users 5 2 3 7", cs)
		}
	}
}

// The ScoreSlow + sort oracle and the shard engine must agree bit for bit;
// the sparse world is full of equal scores, so this also pins tie order.
func TestSlowOracleMatchesEngine(t *testing.T) {
	g1 := synth.SparseAttrUDA(40, 10, 256, 1)
	g2 := synth.SparseAttrUDA(300, 10, 256, 2)
	sc := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: sparseLandmarks})
	world := shard.New(sc, g2, nil, worldShards)
	ties := 0
	for u := 0; u < 40; u++ {
		want := slowTopK(sc, u, topK)
		got := world.QueryUser(u, topK)
		served := make([]candidate, len(got))
		for i, c := range got {
			served[i] = candidate{User: c.User, Score: c.Score}
		}
		if err := sameTopK(served, want); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		for i := 1; i < len(want); i++ {
			if want[i].Score == want[i-1].Score {
				ties++
			}
		}
	}
	t.Logf("%d tied neighbours among the reference lists", ties)
}
