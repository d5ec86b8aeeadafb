// Command chimera-bench runs the measured experiments of EXPERIMENTS.md
// (B1–B5, B9, B10, B12, B14–B16) and prints their tables. Each
// experiment exercises a performance claim Section 5 of the paper makes
// qualitatively.
//
// Usage:
//
//	chimera-bench                          # run everything
//	chimera-bench -exp B1                  # run one experiment
//	chimera-bench -exp B9 -json eb.json    # machine-readable B9 soak
//	chimera-bench -metrics                 # B10 overhead run -> BENCH_obs.json
//	chimera-bench -exp B12 -json BENCH_mt.json         # multi-session sweep
//	chimera-bench -exp B14 -json BENCH_wal.json        # WAL ingest + recovery
//	chimera-bench -exp B16 -json BENCH_ro.json         # snapshot reads + group commit
//	chimera-bench -exp B12 -smoke -json smoke.json     # reduced CI sweep
//	chimera-bench -exp B9 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"chimera/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (B1..B5, B9, B10, B12, B14..B16); empty runs all")
	format := flag.String("format", "table", "output format: table or csv")
	jsonOut := flag.String("json", "", "write machine-readable results to this file (-exp B9, B10, B12, B14..B16; defaults to B9)")
	metricsRun := flag.Bool("metrics", false, "run the B10 observability-overhead experiment and write BENCH_obs.json")
	smoke := flag.Bool("smoke", false, "with -exp B12, B14..B16: run the reduced CI-sized sweep instead of the full one")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "chimera-bench: %v\n", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Written after the run (deferred) so the profile reflects what the
		// experiments leave live, not startup state.
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "chimera-bench: %v\n", err)
			}
		}()
	}

	render := func(t bench.Table) string {
		if *format == "csv" {
			return "# " + t.ID + " — " + t.Title + "\n" + t.CSV()
		}
		return t.String()
	}
	if *metricsRun {
		// -metrics is shorthand for -exp B10 -json BENCH_obs.json.
		*exp = "B10"
		if *jsonOut == "" {
			*jsonOut = "BENCH_obs.json"
		}
	}
	if *jsonOut != "" {
		var data []byte
		var table bench.Table
		var err error
		switch strings.ToUpper(*exp) {
		case "", "B9":
			results := bench.B9Results()
			data, err = json.MarshalIndent(results, "", "  ")
			table = bench.B9FromResults(results)
		case "B10":
			results := bench.B10Results()
			data, err = json.MarshalIndent(results, "", "  ")
			table = bench.B10FromResults(results)
		case "B12":
			var results []bench.B12Result
			if *smoke {
				results = bench.B12SmokeResults()
			} else {
				results = bench.B12Results()
			}
			data, err = json.MarshalIndent(results, "", "  ")
			table = bench.B12FromResults(results)
		case "B14":
			var results bench.B14Result
			if *smoke {
				results = bench.B14SmokeResults()
			} else {
				results = bench.B14Results()
			}
			data, err = json.MarshalIndent(results, "", "  ")
			table = bench.B14FromResults(results)
		case "B15":
			var results bench.B15Result
			if *smoke {
				results = bench.B15SmokeResults()
			} else {
				results = bench.B15Results()
			}
			data, err = json.MarshalIndent(results, "", "  ")
			table = bench.B15FromResults(results)
		case "B16":
			var results bench.B16Result
			if *smoke {
				results = bench.B16SmokeResults()
			} else {
				results = bench.B16Results()
			}
			data, err = json.MarshalIndent(results, "", "  ")
			table = bench.B16FromResults(results)
		default:
			fail(fmt.Errorf("-json supports experiments B9, B10, B12 and B14 through B16, not %q", *exp))
		}
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Println(render(table))
		return
	}
	if *exp == "" {
		for _, t := range bench.All() {
			fmt.Println(render(t))
		}
		return
	}
	t, ok := bench.ByID(*exp)
	if !ok {
		fail(fmt.Errorf("unknown experiment %q (B1..B5, B9, B10, B12, B14..B16)", *exp))
	}
	fmt.Println(render(t))
}
