// Command chimera-benchcmp compares two benchmark result files (the
// JSON chimera-bench emits, e.g. a committed baseline against a fresh
// run) cell by cell, benchstat-style. -exp selects the experiment
// schema from a registry: B12 (default) compares multi-session sweeps
// keyed (lines, workload); B14 compares the durable-WAL ingest and
// recovery runs keyed (section, config); B15 compares streaming
// throughput and the flat-memory soak keyed (section, config, batch);
// B16 compares snapshot-read scaling and group-commit sync sharing keyed
// (section, readers, writers).
// Only cells present in both files are compared, so a
// smoke run holds itself against just the matching slice of the full
// baseline.
//
// A regression — a lower-is-better metric up, a higher-is-better metric
// down, or lost outcome parity — beyond the threshold prints a WARNING
// line. Warnings do not change the exit status: timing cells are noisy
// on shared CI machines, so the tool warns loudly instead of failing
// the build (pass -strict to turn warnings into exit 1 for local
// gating).
//
// Usage:
//
//	chimera-benchcmp BENCH_mt.json smoke.json
//	chimera-benchcmp -exp B14 BENCH_wal.json smoke.json
//	chimera-benchcmp -exp B15 BENCH_stream.json smoke.json
//	chimera-benchcmp -exp B16 BENCH_ro.json smoke.json
//	chimera-benchcmp -threshold 0.05 -strict old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"chimera/internal/bench"
)

// ---------------------------------------------------------------------
// Experiment registry. Each experiment contributes a loader that
// normalizes its result file into keyed cells carrying a fixed list of
// metrics; the comparison loop, regression rules and reporting are
// shared. Adding an experiment is one registry entry — no new compare
// function.

// metricDef describes one compared metric of an experiment's schema.
type metricDef struct {
	name string
	// unit renders a value ("ms", "x", "/s", "KB"); see formatVal.
	unit string
	// higherIsBetter selects the regression direction.
	higherIsBetter bool
}

// cell is one experiment cell in registry-normalized form: a printable
// key, metric values parallel to the experiment's metricDefs, and an
// optional semantic-parity flag (nil when the schema has none).
type cell struct {
	key    string
	vals   []float64
	parity *bool
}

// experiment is one registry entry.
type experiment struct {
	id      string
	about   string
	metrics []metricDef
	load    func(path string) ([]cell, error)
}

func boolPtr(b bool) *bool { return &b }

var experiments = []experiment{
	{
		id:    "B12",
		about: "concurrent transaction lines, keyed (lines, workload)",
		metrics: []metricDef{
			{name: "trig/s", unit: "/s", higherIsBetter: true},
			{name: "speedup", unit: "x", higherIsBetter: true},
			{name: "p95 ms", unit: "ms"},
		},
		load: func(path string) ([]cell, error) {
			var rs []bench.B12Result
			if err := load(path, &rs); err != nil {
				return nil, err
			}
			cells := make([]cell, len(rs))
			for i, r := range rs {
				cells[i] = cell{
					key:  fmt.Sprintf("lines=%d workload=%s", r.Lines, r.Workload),
					vals: []float64{r.TrigPerSec, r.Speedup, r.P95LatencyMs},
				}
			}
			return cells, nil
		},
	},
	{
		id:    "B14",
		about: "durable Event Base WAL + recovery, keyed (section, config)",
		metrics: []metricDef{
			{name: "time", unit: "ms"},
			{name: "vs-baseline", unit: "x", higherIsBetter: true},
		},
		load: func(path string) ([]cell, error) {
			var r bench.B14Result
			if err := load(path, &r); err != nil {
				return nil, err
			}
			var cells []cell
			for _, in := range r.Ingest {
				// Normalized to the shared schema: per-txn cost in ms and
				// throughput relative to the in-memory baseline.
				cells = append(cells, cell{
					key:  fmt.Sprintf("ingest config=%s", in.Config),
					vals: []float64{in.UsPerTxn / 1e3, in.RelThroughput},
				})
			}
			for _, rc := range r.Recovery {
				cells = append(cells, cell{
					key:    fmt.Sprintf("recovery txns=%d", rc.Txns),
					vals:   []float64{rc.ParallelMs, rc.Speedup},
					parity: boolPtr(rc.Identical),
				})
			}
			return cells, nil
		},
	},
	{
		id:    "B15",
		about: "streaming ingestion throughput + flat-memory soak, keyed (section, config, batch)",
		metrics: []metricDef{
			{name: "events/s", unit: "/s", higherIsBetter: true},
			{name: "speedup", unit: "x", higherIsBetter: true},
		},
		load: func(path string) ([]cell, error) {
			var r bench.B15Result
			if err := load(path, &r); err != nil {
				return nil, err
			}
			var cells []cell
			for _, c := range r.Throughput {
				batch := fmt.Sprint(c.Batch)
				if c.Batch == 0 {
					batch = "per-txn"
				}
				cells = append(cells, cell{
					key:  fmt.Sprintf("throughput config=%s batch=%s", c.Config, batch),
					vals: []float64{c.EventsPerSec, c.Speedup},
				})
			}
			// The soak cell keys on the window geometry, not the event
			// count, so smoke and full soaks still compare.
			cells = append(cells, cell{
				key: fmt.Sprintf("soak window=%d segsize=%d", r.Soak.Window, r.Soak.SegmentSize),
				// Both schema slots are higher-is-better, so the soak
				// reports segment headroom (bound minus peak) twice — a
				// shrinking window reads as the regression it is.
				vals: []float64{
					float64(r.Soak.SegmentBound - r.Soak.MaxLiveSegments),
					float64(r.Soak.SegmentBound - r.Soak.MaxLiveSegments),
				},
				parity: boolPtr(r.Soak.Flat),
			})
			return cells, nil
		},
	},
	{
		id:    "B16",
		about: "snapshot reads + group commit, keyed (section, readers, writers)",
		metrics: []metricDef{
			{name: "rate", unit: "/s", higherIsBetter: true},
			{name: "gain", unit: "x", higherIsBetter: true},
		},
		load: func(path string) ([]cell, error) {
			var r bench.B16Result
			if err := load(path, &r); err != nil {
				return nil, err
			}
			var cells []cell
			for _, c := range r.Read {
				cells = append(cells, cell{
					key:  fmt.Sprintf("read readers=%d writers=%d", c.Readers, c.Writers),
					vals: []float64{c.ReadsPerSec, c.Speedup},
				})
			}
			for _, c := range r.GroupCommit {
				// Normalized to the shared schema: commit throughput and
				// commits-per-fsync (the inverse of the fsyncs/commit
				// acceptance ratio — higher means more sync sharing).
				cells = append(cells, cell{
					key:    fmt.Sprintf("group writers=%d", c.Writers),
					vals:   []float64{c.ThroughputTPS, c.ShareFactor},
					parity: boolPtr(c.Fsyncs > 0),
				})
			}
			return cells, nil
		},
	},
}

func lookup(id string) (experiment, bool) {
	for _, e := range experiments {
		if strings.EqualFold(e.id, id) {
			return e, true
		}
	}
	return experiment{}, false
}

func registryIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}

func main() {
	expID := flag.String("exp", "B12", "result schema to compare ("+registryIDs()+")")
	threshold := flag.Float64("threshold", 0.10, "relative change that counts as a regression")
	strict := flag.Bool("strict", false, "exit 1 when any regression is found (default: warn only)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintf(os.Stderr, "usage: chimera-benchcmp [-exp %s] [-threshold 0.10] [-strict] baseline.json new.json\n", registryIDs())
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", e.id, e.about)
		}
		os.Exit(2)
	}

	exp, ok := lookup(*expID)
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (registry: %s)", *expID, registryIDs()))
	}
	warnings, compared, err := compare(exp, flag.Arg(0), flag.Arg(1), *threshold)
	if err != nil {
		fatal(err)
	}
	if compared == 0 {
		fatal(fmt.Errorf("no cells in common between %s and %s", flag.Arg(0), flag.Arg(1)))
	}
	if warnings > 0 {
		fmt.Printf("%d regression warning(s) across %d compared cell(s)\n", warnings, compared)
		if *strict {
			os.Exit(1)
		}
	} else {
		fmt.Printf("no regressions across %d compared cell(s)\n", compared)
	}
}

// compare holds every cell of cur against the same-keyed cell of base
// under the experiment's metric directions.
func compare(exp experiment, basePath, curPath string, threshold float64) (warnings, compared int, err error) {
	base, err := exp.load(basePath)
	if err != nil {
		return 0, 0, err
	}
	cur, err := exp.load(curPath)
	if err != nil {
		return 0, 0, err
	}
	byKey := make(map[string]cell, len(base))
	for _, c := range base {
		byKey[c.key] = c
	}
	for _, n := range cur {
		o, ok := byKey[n.key]
		if !ok {
			continue
		}
		compared++
		fmt.Println(n.key)
		for i, m := range exp.metrics {
			ov, nv := o.vals[i], n.vals[i]
			fmt.Printf("  %-15s %12s -> %12s  (%+.1f%%)\n", m.name, formatVal(ov, m.unit), formatVal(nv, m.unit), delta(ov, nv))
			if regressed(ov, nv, m.higherIsBetter, threshold) {
				warnings++
				worse := delta(ov, nv)
				if m.higherIsBetter {
					worse = -worse
				}
				fmt.Printf("  WARNING: %s regressed %.1f%% (threshold %.0f%%)\n", m.name, worse, 100*threshold)
			}
		}
		if n.parity != nil && !*n.parity {
			warnings++
			fmt.Printf("  WARNING: configurations disagree on triggerings\n")
		}
	}
	return warnings, compared, nil
}

func regressed(old, new float64, higherIsBetter bool, threshold float64) bool {
	if old <= 0 {
		return false
	}
	if higherIsBetter {
		return new < old*(1-threshold)
	}
	return new > old*(1+threshold)
}

func formatVal(v float64, unit string) string {
	switch unit {
	case "x":
		return fmt.Sprintf("%.2fx", v)
	case "/s":
		return fmt.Sprintf("%.0f/s", v)
	case "KB":
		return fmt.Sprintf("%.0fKB", v)
	default:
		return fmt.Sprintf("%.3f%s", v, unit)
	}
}

func load(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func delta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "chimera-benchcmp: %v\n", err)
	os.Exit(1)
}
