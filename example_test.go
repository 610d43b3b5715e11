package dehealth_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dehealth"
)

// ExamplePrepareWorld shows the extract-once/attack-many pattern: one
// feature-store preparation fans any number of attack configurations out
// over the same cached artifacts.
func ExamplePrepareWorld() {
	world := dehealth.GenerateWorld(dehealth.WorldConfig{WebMDUsers: 24, HBUsers: 24, Seed: 1})
	split := dehealth.SplitClosedWorld(world.WebMD, 0.5, 7)

	opt := dehealth.DefaultOptions()
	opt.MaxBigrams = 50 // keep the example fast
	opt.Landmarks = 5
	pw := dehealth.PrepareWorld(split.Anon, split.Aux, opt)
	anon, _ := pw.Sizes()

	// Sweep the candidate-set size K without re-extracting anything.
	for _, k := range []int{2, 5} {
		cfg := opt
		cfg.K = k
		cfg.Classifier = dehealth.KNN
		res, err := pw.Attack(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("K=%d: one candidate set per anonymized user: %v, each of size %d\n",
			k, len(res.TopK.Candidates) == anon, len(res.TopK.Candidates[0]))
	}
	// Output:
	// K=2: one candidate set per anonymized user: true, each of size 2
	// K=5: one candidate set per anonymized user: true, each of size 5
}

// ExamplePreparedWorld_QueryUser serves a lone query — a one-user
// QueryBatch, the online hot path — and shows that k bounds the candidate
// set.
func ExamplePreparedWorld_QueryUser() {
	world := dehealth.GenerateWorld(dehealth.WorldConfig{WebMDUsers: 24, HBUsers: 24, Seed: 2})
	split := dehealth.SplitClosedWorld(world.WebMD, 0.5, 9)

	opt := dehealth.DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	opt.Shards = 2 // partition-parallel scoring; results are identical at any count
	pw := dehealth.PrepareWorld(split.Anon, split.Aux, opt)

	rows, err := pw.QueryBatch([]int{0}, 3, opt)
	if err != nil {
		log.Fatal(err)
	}
	candidates := rows[0]
	fmt.Printf("user 0: %d candidates\n", len(candidates))
	fmt.Printf("sorted by score: %v\n", candidates[0].Score >= candidates[1].Score)
	// Output:
	// user 0: 3 candidates
	// sorted by score: true
}

// ExamplePreparedWorld_QueryBatch answers three anonymized users in one
// call: QueryBatch is the one query method, and row i of its answer is
// exactly what a lone query (a one-user batch) for users[i] returns.
func ExamplePreparedWorld_QueryBatch() {
	world := dehealth.GenerateWorld(dehealth.WorldConfig{WebMDUsers: 24, HBUsers: 24, Seed: 5})
	split := dehealth.SplitClosedWorld(world.WebMD, 0.5, 15)

	opt := dehealth.DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	pw := dehealth.PrepareWorld(split.Anon, split.Aux, opt)

	users := []int{0, 3, 7}
	rows, err := pw.QueryBatch(users, 4, opt)
	if err != nil {
		log.Fatal(err)
	}
	for i, u := range users {
		lone, err := pw.QueryBatch([]int{u}, 4, opt)
		if err != nil {
			log.Fatal(err)
		}
		same := len(lone[0]) == len(rows[i])
		for j := range rows[i] {
			same = same && rows[i][j] == lone[0][j] // bit-identical scores
		}
		fmt.Printf("user %d: %d candidates, best first: %v, same as a lone query: %v\n",
			u, len(rows[i]), rows[i][0].Score >= rows[i][len(rows[i])-1].Score, same)
	}
	// Output:
	// user 0: 4 candidates, best first: true, same as a lone query: true
	// user 3: 4 candidates, best first: true, same as a lone query: true
	// user 7: 4 candidates, best first: true, same as a lone query: true
}

// ExamplePreparedWorld_Ingest grows a live world with a newly observed
// anonymous account and immediately queries it.
func ExamplePreparedWorld_Ingest() {
	world := dehealth.GenerateWorld(dehealth.WorldConfig{WebMDUsers: 24, HBUsers: 24, Seed: 3})
	split := dehealth.SplitClosedWorld(world.WebMD, 0.5, 11)

	opt := dehealth.DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	pw := dehealth.PrepareWorld(split.Anon, split.Aux, opt)
	before, _ := pw.Sizes()

	id, err := pw.IngestUser("jdoe", []dehealth.IngestPost{
		{Thread: 0, Text: "my migraines got worse after the new meds"},
		{Thread: dehealth.NewThread, Text: "has anyone tried magnesium for sleep?"},
	})
	if err != nil {
		log.Fatal(err)
	}
	after, _ := pw.Sizes()
	fmt.Printf("new user id is the next dense id: %v\n", id == before)
	fmt.Printf("world grew by %d user\n", after-before)

	rows, err := pw.QueryBatch([]int{id}, 5, opt)
	if err != nil {
		log.Fatal(err)
	}
	candidates := rows[0]
	fmt.Printf("queryable immediately: %d candidates\n", len(candidates))
	// Output:
	// new user id is the next dense id: true
	// world grew by 1 user
	// queryable immediately: 5 candidates
}

// ExamplePreparedWorld_Snapshot saves a prepared world to disk and warm
// restarts from the file: the loaded world answers the same query with
// bit-identical candidates (see docs/SNAPSHOT.md for the format).
func ExamplePreparedWorld_Snapshot() {
	world := dehealth.GenerateWorld(dehealth.WorldConfig{WebMDUsers: 24, HBUsers: 24, Seed: 4})
	split := dehealth.SplitClosedWorld(world.WebMD, 0.5, 13)

	opt := dehealth.DefaultOptions()
	opt.MaxBigrams = 50
	opt.Landmarks = 5
	pw := dehealth.PrepareWorld(split.Anon, split.Aux, opt)

	dir, err := os.MkdirTemp("", "dehealth-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "world.snap")

	if err := pw.Snapshot(path); err != nil {
		log.Fatal(err)
	}

	// A later process boots from the file instead of re-preparing.
	warm, err := dehealth.LoadWorld(path, dehealth.LoadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rows, err := pw.QueryBatch([]int{0}, 3, opt)
	if err != nil {
		log.Fatal(err)
	}
	want := rows[0]
	if rows, err = warm.QueryBatch([]int{0}, 3, opt); err != nil {
		log.Fatal(err)
	}
	got := rows[0]
	same := len(got) == len(want)
	for i := range got {
		same = same && got[i] == want[i] // exact struct equality: bit-identical scores
	}
	fmt.Printf("restored world answers identically: %v\n", same)
	// Output:
	// restored world answers identically: true
}
