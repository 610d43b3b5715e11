// Command benchmark is the one shared measuring instrument of the served
// De-Health attack: four named workloads, each a seeded world behind the
// real serving stack on loopback TCP, driven in closed loop by two client
// connections and checked bit for bit against the in-process exact answer.
//
//	go run ./benchmark -workload dense_exact -seed 1             # end-to-end metrics
//	go run ./benchmark -workload dense_exact -seed 1 -trace 1    # per-layer metrics + span file
//	go run ./benchmark -compare a.txt b.txt                      # two captured result sets
//
// Every run prints each metric as "name value unit", then the full result
// document, then a one-line JSON summary. BENCHMARK.json at the repository
// root registers the workloads, metrics and regression bounds; README.md
// in this directory explains them. Nothing here adds instrumentation
// inside a package: spans are recorded around calls into each layer.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: dense_exact, dense_walk, sparse_walk or routed_batch")
		seed    = flag.Int64("seed", 1, "seed every input of the run is generated from")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced run (per-layer metrics and a span file) instead of the end-to-end run")
		spans   = flag.String("trace-file", "", "where a traced run writes its spans (default .bench_build/trace-<workload>-<seed>.json)")
		compare = flag.Bool("compare", false, "compare two files of captured run output: -compare a.txt b.txt")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.txt b.txt")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Sprintf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal("-seconds must be at least 1 and -trace 0 or 1")
	}
	cfg := runConfig{Workload: w, Sizes: fullSizes, Seed: *seed, Window: time.Duration(*seconds) * time.Second, Trace: *trace == 1}
	if cfg.Trace {
		cfg.TraceFile = *spans
		if cfg.TraceFile == "" {
			cfg.TraceFile = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.Name, *seed))
		}
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := rep.print(os.Stdout); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchmark:", v)
	os.Exit(2)
}
