// Command dehealthd runs the De-Health online query service: it prepares
// an auxiliary world once, then serves single-user de-anonymization
// queries and ingests newly observed anonymous accounts over HTTP — the
// continuous-tracking threat model, as opposed to cmd/dehealth's offline
// batch attack.
//
// With -snapshot the daemon becomes warm-restartable: on SIGINT/SIGTERM it
// lets the requests in flight finish and writes the prepared world to the
// snapshot path (atomically), and on the next start it memory-maps that
// file back instead of re-running feature extraction and similarity
// precomputation — the restored world answers queries bit-identically to
// the one that shut down (see docs/SNAPSHOT.md).
//
// Usage:
//
//	dehealthd -aux aux.json                          # start with an empty anonymized side
//	dehealthd -aux aux.json -anon anon.json          # preload known anonymized accounts
//	dehealthd -synth 300                             # demo mode: synthetic auxiliary world
//	dehealthd -addr :8700 -workers 8 -shards 8 -prune
//	dehealthd -synth 300 -snapshot world.snap        # warm restart: load if present, write on shutdown
//	dehealthd -snapshot world.snap -no-mmap          # warm restart with the copying loader
//	dehealthd -synth 300 -pprof localhost:6060        # profiling listener
//
// Distributed serving (see docs/ARCHITECTURE.md): -write-slices cuts the
// prepared world into one snapshot slice per shard and exits; each slice
// then boots a shard server that maps only its own partition, fronted by
// cmd/dehealth-router:
//
//	dehealthd -synth 300 -synth-anon -shards 4 -write-slices world   # world.slice-{0..3}-of-4.snap
//	dehealthd -addr :8701 -snapshot world.slice-0-of-4.snap          # shard server 0
//	dehealth-router -addr :8800 -shard http://h0:8701 -shard ...     # scatter-gather front
//
// API:
//
//	POST /v1/query    {"user": 17, "k": 10}                  # "approx": true is accepted and answered exactly
//	POST /v1/ingest   {"name": "jdoe", "posts": [{"text": "..."}, {"thread": 3, "text": "..."}]}
//	POST /v1/snapshot                                 # write the world to -snapshot now
//	GET  /v1/stats
//	GET  /healthz
package main

import (
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling handlers for the optional -pprof listener
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dehealth"
)

func main() {
	var (
		addr        = flag.String("addr", ":8700", "HTTP listen address")
		auxPath     = flag.String("aux", "", "auxiliary dataset JSON (the adversary's world; required unless -synth or a -snapshot file exists)")
		anon        = flag.String("anon", "", "optional anonymized dataset JSON to preload; default starts empty")
		synth       = flag.Int("synth", 0, "demo mode: generate a synthetic auxiliary world with this many users instead of -aux")
		synthAnon   = flag.Bool("synth-anon", false, "with -synth: closed-world split the synthetic data so the anonymized side starts populated (queryable out of the box)")
		workers     = flag.Int("workers", 0, "worker bound of the feature-extraction pool (cold boot) and of one /internal/query batch's fan-out (0 = all CPUs)")
		shards      = flag.Int("shards", 1, "partition-parallel auxiliary scoring shards (0 = one per CPU)")
		prune       = flag.Bool("prune", false, "candidate-pruned queries via per-shard attribute inverted indexes (results identical; see /v1/stats prune counters)")
		k           = flag.Int("k", 10, "default Top-K candidate set size")
		hbar        = flag.Int("landmarks", 50, "landmark count for the structural similarity")
		bigrams     = flag.Int("max-bigrams", 300, "POS-bigram feature cap (fitted on the auxiliary texts)")
		seed        = flag.Int64("seed", 1, "seed for -synth demo worlds")
		pprofA      = flag.String("pprof", "", "expose net/http/pprof on this separate listener (e.g. localhost:6060); off by default")
		snapPath    = flag.String("snapshot", "", "world snapshot path: loaded on start when the file exists (warm restart), written on graceful shutdown and POST /v1/snapshot")
		noMmap      = flag.Bool("no-mmap", false, "load -snapshot with the copying decoder instead of memory-mapping the file")
		writeSlices = flag.String("write-slices", "", "prepare the world, write one snapshot slice per shard as <prefix>.slice-<i>-of-<n>.snap, and exit (no server); boot each slice with -snapshot and front them with dehealth-router")
	)
	flag.Parse()

	if *pprofA != "" {
		// A dedicated listener keeps the profiling surface off the public
		// query port: bind it to localhost (or a firewalled interface) to
		// profile the scoring kernel under live traffic.
		go func() {
			log.Printf("dehealthd: pprof listening on %s", *pprofA)
			log.Printf("dehealthd: pprof server exited: %v", http.ListenAndServe(*pprofA, nil))
		}()
	}

	var pw *dehealth.PreparedWorld
	var opt dehealth.Options
	if pw = warmBoot(*snapPath, *noMmap); pw != nil {
		// The snapshot pins the world's preparation-time configuration
		// (shards, pruning, landmarks, similarity weights); only the
		// attack-phase knobs come from this process's flags.
		opt = pw.PreparedOptions()
		opt.Workers = *workers
		opt.K = *k
	} else {
		pw, opt = coldBoot(*auxPath, *anon, *synth, *synthAnon, *seed, *hbar, *bigrams, *workers, *shards, *prune, *k)
	}

	if *writeSlices != "" {
		start := time.Now()
		paths, err := pw.SnapshotSlices(*writeSlices)
		if err != nil {
			log.Fatalf("dehealthd: writing slices: %v", err)
		}
		for _, p := range paths {
			if fi, err := os.Stat(p); err == nil {
				log.Printf("dehealthd: slice written to %s (%d bytes)", p, fi.Size())
			}
		}
		log.Printf("dehealthd: %d slices in %dms; boot each with -snapshot and front them with dehealth-router", len(paths), time.Since(start).Milliseconds())
		return
	}

	srv := dehealth.NewServer(pw, dehealth.ServeOptions{
		Workers:      *workers,
		K:            *k,
		Attack:       opt,
		SnapshotPath: *snapPath,
	})

	// Graceful drain on SIGINT/SIGTERM: Close lets the requests in flight
	// finish (each client gets its answer), then the post-drain snapshot
	// below captures the fully-applied world — including any accounts
	// ingested moments before the signal.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Printf("dehealthd: %v: draining...", sig)
		if err := srv.Close(); err != nil {
			log.Printf("dehealthd: drain: %v", err)
		}
	}()

	log.Printf("dehealthd: listening on %s (k %d)", *addr, *k)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("dehealthd: %v", err)
	}
	if *snapPath != "" {
		start := time.Now()
		if err := pw.Snapshot(*snapPath); err != nil {
			log.Fatalf("dehealthd: writing shutdown snapshot: %v", err)
		}
		if fi, err := os.Stat(*snapPath); err == nil {
			log.Printf("dehealthd: snapshot written to %s (%d bytes, %dms)", *snapPath, fi.Size(), time.Since(start).Milliseconds())
		}
	}
}

// warmBoot restores the world from an existing snapshot file, or returns
// nil when path is empty or the file does not exist yet (first boot: the
// caller prepares cold and the shutdown write creates the file).
func warmBoot(path string, noMmap bool) *dehealth.PreparedWorld {
	if path == "" {
		return nil
	}
	if _, err := os.Stat(path); err != nil {
		log.Printf("dehealthd: no snapshot at %s yet, preparing cold", path)
		return nil
	}
	start := time.Now()
	pw, err := dehealth.LoadWorld(path, dehealth.LoadOptions{NoMmap: noMmap})
	if err != nil {
		log.Fatalf("dehealthd: loading snapshot %s: %v", path, err)
	}
	anon, aux := pw.Sizes()
	log.Printf("dehealthd: warm restart from %s in %dms (aux %d users, anon %d users)",
		path, time.Since(start).Milliseconds(), aux, anon)
	return pw
}

// coldBoot prepares the world from datasets (or a synthetic demo world)
// exactly as pre-snapshot dehealthd always did.
func coldBoot(auxPath, anonPath string, synth int, synthAnon bool, seed int64, hbar, bigrams, workers, shards int, prune bool, k int) (*dehealth.PreparedWorld, dehealth.Options) {
	var aux, splitAnon *dehealth.Dataset
	switch {
	case auxPath != "":
		var err error
		if aux, err = dehealth.LoadDataset(auxPath); err != nil {
			log.Fatalf("dehealthd: loading auxiliary data: %v", err)
		}
	case synth > 0:
		world := dehealth.GenerateWorld(dehealth.WorldConfig{WebMDUsers: synth, HBUsers: synth, Seed: seed})
		aux = world.WebMD
		if synthAnon {
			// Closed-world split: half of each user's posts become the
			// anonymized side, so the demo world answers queries (and the
			// router smoke test can drive it) without any ingestion.
			sp := dehealth.SplitClosedWorld(world.WebMD, 0.5, seed)
			aux, splitAnon = sp.Aux, sp.Anon
		}
		log.Printf("dehealthd: synthetic auxiliary world: %d users, %d posts", aux.NumUsers(), aux.NumPosts())
	default:
		log.Fatal("dehealthd: -aux is required (or -synth for a demo world, or an existing -snapshot file)")
	}

	anonDS := &dehealth.Dataset{Name: "observed"}
	if splitAnon != nil {
		anonDS = splitAnon
	}
	if anonPath != "" {
		var err error
		if anonDS, err = dehealth.LoadDataset(anonPath); err != nil {
			log.Fatalf("dehealthd: loading anonymized data: %v", err)
		}
	}

	opt := dehealth.DefaultOptions()
	opt.Landmarks = hbar
	opt.MaxBigrams = bigrams
	opt.Workers = workers
	opt.K = k
	opt.Shards = shards
	if opt.Shards <= 0 {
		opt.Shards = runtime.NumCPU()
	}
	opt.Prune = prune

	pruneNote := ""
	if opt.Prune {
		pruneNote = ", pruned"
	}
	log.Printf("dehealthd: preparing world (aux %d users / %d posts, anon %d users, %d shards%s)...",
		aux.NumUsers(), aux.NumPosts(), anonDS.NumUsers(), opt.Shards, pruneNote)
	return dehealth.PrepareWorld(anonDS, aux, opt), opt
}
