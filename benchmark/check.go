package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dehealth/internal/shard"
	"dehealth/internal/similarity"
)

// sameTopK reports whether a served candidate list equals the reference
// exactly: same ids in the same order with the same score bits. Every
// workload runs a bit-identical mode, so anything less is a wrong answer.
func sameTopK(got []candidate, want []shard.Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].User != want[i].User || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: got user %d score %x, want user %d score %x", i,
				got[i].User, math.Float64bits(got[i].Score), want[i].User, math.Float64bits(want[i].Score))
		}
	}
	return nil
}

// recall is the share of the reference's ids present in the served list.
func recall(got []candidate, want []shard.Candidate) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[int]bool, len(got))
	for _, c := range got {
		in[c.User] = true
	}
	hits := 0
	for _, c := range want {
		if in[c.User] {
			hits++
		}
	}
	return float64(hits) / float64(len(want))
}

// slowTopK is the reference answer from first principles: ScoreSlow on
// every auxiliary user, sorted by score descending then id ascending.
func slowTopK(sc *similarity.Scorer, u, k int) []shard.Candidate {
	all := make([]shard.Candidate, sc.AuxUsers())
	for v := range all {
		all[v] = shard.Candidate{User: v, Score: sc.ScoreSlow(u, v)}
	}
	rank(all)
	return all[:min(k, len(all))]
}

// rank sorts candidates into the selection order every engine must
// reproduce: score descending, ties to the smaller auxiliary id.
func rank(cs []shard.Candidate) {
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].Score != cs[b].Score {
			return cs[a].Score > cs[b].Score
		}
		return cs[a].User < cs[b].User
	})
}

// sampleUsers draws n distinct anonymized users (all of them when there
// are fewer), seeded.
func sampleUsers(seed int64, anonUsers, n int) []int {
	perm := rand.New(rand.NewSource(seed)).Perm(anonUsers)
	if n > len(perm) {
		n = len(perm)
	}
	return perm[:n]
}

// checkResult is the outcome of the correctness phase.
type checkResult struct {
	phase
	// Recall is the mean recall@k of the served lists against the oracle;
	// Mismatches counts lists that are not bit-identical to it.
	Recall     float64
	Mismatches int
	FirstDiff  string
	// Truthful counts sample users with a known true identity, Hits those
	// whose identity the served top-k contains (the paper's Fig. 3).
	Truthful, Hits int
	// served keeps each sample user's served list for the traced run.
	served map[int][]candidate
}

// daSuccess is the Top-K DA success rate over the sample users that have a
// true mapping; 0 when none has.
func (c *checkResult) daSuccess() float64 {
	if c.Truthful == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Truthful)
}

// checkServed queries every sample user through the deployment's endpoint
// and holds the served answers against the in-process oracle.
func checkServed(d *deployment, c *conn, sample []int, truth map[int]int) (checkResult, error) {
	res := checkResult{phase: phase{Name: "check"}, served: map[int][]candidate{}}
	recallSum, answered := 0.0, 0
	start := time.Now()
	for at := 0; at < len(sample); at += d.batch {
		users := sample[at:min(at+d.batch, len(sample))]
		lists, err := c.query(d, users)
		res.record(len(users), 0, 0, err)
		if err != nil {
			continue
		}
		for i, u := range users {
			want, err := d.oracle(u)
			if err != nil {
				return res, fmt.Errorf("oracle for user %d: %w", u, err)
			}
			res.served[u] = lists[i]
			recallSum += recall(lists[i], want)
			answered++
			if err := sameTopK(lists[i], want); err != nil {
				res.Mismatches++
				if res.FirstDiff == "" {
					res.FirstDiff = fmt.Sprintf("user %d: %v", u, err)
				}
			}
			if v, ok := truth[u]; ok {
				res.Truthful++
				for _, cand := range lists[i] {
					if cand.User == v {
						res.Hits++
						break
					}
				}
			}
		}
	}
	if answered > 0 {
		res.Recall = recallSum / float64(answered)
	}
	res.Seconds = time.Since(start).Seconds()
	return res, nil
}
