package main

import (
	"regexp"
	"testing"
)

// TestSmoke holds the benchmark to its declaration: BENCHMARK.json stays
// within the contract's limits, and both passes of every declared workload,
// at the shortest length, emit every declared metric with its unit and
// nothing else.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	decl, err := readDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, want 2 to 8 and the %d the benchmark has", n, len(workloads))
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1 to 16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1 to 128", n)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, m := range append(append([]declaredMetric(nil), decl.EndToEnd...), decl.PerLayer...) {
		once(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range decl.EndToEnd {
		// Set-up time carries the largest bound, the contract's 0.25.
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	c := &config{decl: decl, seed: 7, seconds: 0.6, smoke: true, tmp: t.TempDir()}
	for _, w := range decl.Workloads {
		once(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		for _, traced := range []bool{false, true} {
			r, err := runPass(w.Name, traced, c)
			if err != nil {
				t.Errorf("%s (traced %v): %v", w.Name, traced, err)
				continue
			}
			declared := decl.EndToEnd
			if traced {
				declared = decl.PerLayer
			}
			// render has checked that every value is finite and declared.
			if len(r.Metrics) != len(declared) {
				t.Errorf("%s (traced %v): %d metrics emitted, %d declared", w.Name, traced, len(r.Metrics), len(declared))
			}
			for _, d := range declared {
				if got, ok := r.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s (traced %v): metric %s [%s] emitted as %+v", w.Name, traced, d.Name, d.Unit, got)
				}
			}
			if !r.Correct || r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
				t.Errorf("%s (traced %v): correct %v, attempted %d, failed %d", w.Name, traced, r.Correct, r.Attempted, r.Failed)
			}
		}
	}
}
